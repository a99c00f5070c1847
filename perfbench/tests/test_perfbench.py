"""Tests of the benchmark itself: generators, oracles, failure accounting,
tracing, and the agreement of BENCHMARK.json with what the runs print.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer
import workloads as W

ROOT = Path(run.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def prog():
    return run.load_program()


def small(wl, n=6, k=3):
    """A copy of a workload that generates a short pass from a small pool."""
    copy = type(wl)()
    copy.pass_size, copy.pool_factor = n, k
    return copy


# -- generators ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    wl = small(W.WORKLOADS[name], n=8, k=4)
    assert wl.generate(7) == wl.generate(7)
    assert wl.generate(7) != wl.generate(8)


def test_stratified_keeps_the_middle_of_each_cost_run():
    def candidate(rng):
        c = rng.randint(1, 10**6)
        return c, c

    # a pool equal to the reference gives the middle of each run of 5
    rng = random.Random(4)
    ref = sorted(candidate(rng)[0] for _ in range(50))
    picked = W.stratified(random.Random(4), random.Random(4), candidate, 10, 5)
    assert sorted(picked) == ref[2::5]


def test_stratified_samples_of_two_seeds_match_in_cost():
    wl = W.WORKLOADS["pell"]
    costs = [sorted(W.pell_cost(d)[1] for d, _ in
                    W.stratified(random.Random(s), random.Random("ref"), wl.candidate, 20, 30))
             for s in (1, 2)]
    assert costs[0] != costs[1]
    assert all(0.5 < a / b < 2 for a, b in zip(*costs))


@pytest.mark.parametrize("n, size", [(200, 10), (300, 25), (7, 3)])
def test_a_pass_runs_each_input_once_in_rounds_spanning_the_costs(n, size):
    rounds = run.pass_rounds(n, size, random.Random(1))
    assert sorted(i for idx in rounds for i in idx) == list(range(n))
    assert all(len(idx) <= size for idx in rounds)
    # cut the inputs into bands of len(rounds): each round takes one from each band
    assert all(sorted(i // len(rounds) for i in idx) == list(range(len(idx))) for idx in rounds)


def test_solve_inputs_have_the_stated_shape():
    wl = small(W.WORKLOADS["solve"], n=40, k=2)
    inputs = wl.generate(3)
    for inp in inputs:
        a, b, c = inp.form
        assert b * b - a * c == inp.D and 100 <= inp.D <= 10**5
        assert 0 < abs(inp.m) <= 10**6
        if inp.planted is not None:
            x0, y0 = inp.planted
            assert a * x0 * x0 + 2 * b * x0 * y0 + c * y0 * y0 == inp.m
            assert math.gcd(x0, y0) == 1 and max(abs(x0), abs(y0)) <= 1000
    assert sum(i.planted is not None for i in inputs) == 20


# -- oracles ------------------------------------------------------------


def test_pell_oracle_known_values():
    assert W.pell_solution(61) == (1766319049, 226153980)
    assert W.pell_cost(61)[0] == 11
    for d in range(2, 300):
        if W.is_square(d):
            continue
        t, u = W.pell_solution(d)
        assert t * t - d * u * u == 1
        # minimal: no smaller u solves it
        if u < 2000:
            assert all(not W.is_square(1 + d * v * v) for v in range(1, u))


def test_sqrt_count_matches_a_scan():
    rng = random.Random(5)
    for _ in range(300):
        delta, m = rng.randint(2, 5000), rng.randint(1, 3000)
        assert W.sqrt_count(delta, m) == sum((n * n - delta) % m == 0 for n in range(m))
    assert W.sqrt_count(2, 7) == 2


def test_as_int_reads_long_decimal_strings_without_the_limit():
    big = 7 ** 20000  # over 4300 digits
    text = "".join(str(int(big // 10 ** (1000 * i) % 10 ** 1000)).zfill(1000)
                   for i in reversed(range(17)))
    assert W.as_int(text.lstrip("0")) == big
    assert W.as_int("-12") == -12 and W.as_int(12) == 12


def test_x2_minus_2y2_equals_7_has_classes_3_and_4(prog):
    wl = W.WORKLOADS["solve"]
    inp = W.SolveInput(2, (1, 0, -2), 7, (3, 1), W.sqrt_count(2, 7))
    args = wl.prepare(prog, inp)
    out = wl.query(prog, args)
    assert wl.check(prog, inp, args, out) == (None, None, 2)
    classes = json.loads(out[1])["result"]["classes"]
    assert sorted(c["n"] for c in classes) == [3, 4]


def test_solve_check_rejects_a_wrong_answer(prog):
    wl = W.WORKLOADS["solve"]
    inp = W.SolveInput(2, (1, 0, -2), 7, (3, 1), 2)
    args = wl.prepare(prog, inp)
    code, text = wl.query(prog, args)
    forged = text.replace('"solutions":[[', '"solutions":[[2,1],[', 1)
    assert forged != text
    assert wl.check(prog, inp, args, (code, forged))[0] == "wrong"
    missing = replace(inp, planted=(999, 1))
    assert wl.check(prog, missing, args, (code, text))[0] == "wrong"


def test_words_arithmetic_matches_the_library(prog):
    rng = random.Random(11)
    g = prog.groupoid
    for _ in range(40):
        x = W.random_point(rng, rng.choice(W.Words.deltas))
        w, y = W.random_word(rng, x)
        lx = prog.exact.qi_make(x[0], x[2], x[1], x[3])
        ly = prog.exact.qi_make(y[0], y[2], y[1], y[3])
        assert prog.lattice.mobius_apply(prog.lattice.Mat2(*w[0], *w[1]), lx) == ly
        assert W.floor_point(x) == prog.exact.qi_floor(lx)
        assert W.orbit_length(x) == g.orbit(lx).length


# -- failure accounting ---------------------------------------------------


class Flaky:
    """Queries that return their input, except input 2, which raises, and
    input 3, which gives a wrong answer."""

    def query(self, prog, args):
        if args == 2:
            raise ValueError("injected")
        return args

    def check(self, prog, inp, args, out):
        return ("wrong", "injected", None) if out == 3 else (None, None, out)


def test_a_raising_query_is_counted_as_failed():
    inputs = list(range(5))
    rnd = run.round_body(None, Flaky(), inputs, inputs, inputs)
    errors = {i: err for i, _, err, _ in rnd["rows"]}
    assert errors[2] == ["exception", "ValueError: injected"]
    assert errors[3][0] == "wrong"
    assert [i for i, e in errors.items() if e is None] == [0, 1, 4]
    # a replay that fails again is still one failed input
    metrics = run.e2e_metrics([rnd, rnd], [10.0, 10.0], 0.5)
    assert metrics["ok_frac"] == 3 / 5
    # the p90 band holds a failure, which counts as the whole timed wall time
    assert metrics["query_ms.p90"] == pytest.approx(2000 * rnd["wall"] * rnd["scale"])


class Dying(Flaky):
    def query(self, prog, args):
        if args == 1:
            import os
            os._exit(7)
        return args


def test_a_round_whose_process_dies_fails_all_its_queries():
    inputs = list(range(3))
    rnd, _ = run.run_round(None, Dying(), inputs, inputs, inputs)
    assert len(rnd["rows"]) == 3
    assert all(err is not None and err[0] == "crash" for _, _, err, _ in rnd["rows"])


# -- tracing --------------------------------------------------------------

USED = {
    "pell": ["cli.parse_args", "cli.run", "forms.pell_fundamental",
             "forms.stabilizer_generator", "forms.act", "groupoid.orbit",
             "groupoid.derivative", "groupoid.cycle_loop", "groupoid.morphism_check",
             "lattice.mat_mul", "lattice.mat_new", "lattice.mat_inv", "lattice.pmat_new",
             "lattice.mobius_apply", "exact.qi_floor", "exact.quadirr_arith",
             "exact.quadirr_new"],
    "solve": ["cli.parse_args", "cli.run", "solver.residue_classes", "solver.solve_proper",
              "solver.enumerate_solutions", "forms.equivalent_sl",
              "forms.stabilizer_generator", "forms.act", "groupoid.hom_base",
              "groupoid.hom_in_H", "groupoid.orbit", "groupoid.derivative",
              "groupoid.cycle_loop", "lattice.mat_mul", "exact.qi_floor"],
    "words": ["groupoid.normal_form", "groupoid.compose", "groupoid.orbit",
              "groupoid.derivative", "groupoid.morphism_check", "lattice.mat_mul",
              "lattice.mat_new", "lattice.mobius_apply", "lattice.pmat_new",
              "exact.qi_floor", "exact.quadirr_arith", "exact.quadirr_new"],
}


def fresh_inputs(name):
    """A few cheap inputs that no other test has queried, so the orbit cache
    inherited by the round's process does not hold them."""
    if name == "pell":
        return [W.PellInput(d, W.pell_cost(d)[0], *W.pell_solution(d)) for d in (1021, 9973)]
    if name == "solve":
        return [W.SolveInput(13, (1, 0, -13), -27, (5, 2), W.sqrt_count(13, -27)),
                W.SolveInput(13, (1, 0, -13), 1000, None, W.sqrt_count(13, 1000))]
    rng = random.Random("fresh")
    return [W.WORKLOADS[name].candidate(rng)[1] for _ in range(3)]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_round_counts_every_layer_its_workload_uses(prog, name):
    wl = W.WORKLOADS[name]
    inputs = fresh_inputs(name)
    prepared = [wl.prepare(prog, inp) for inp in inputs]
    idx = list(range(len(inputs)))
    plain, _ = run.run_round(prog, wl, inputs, prepared, idx)
    traced, _ = run.run_round(prog, wl, inputs, prepared, idx, traced=True)
    assert all(r[2] is None for r in plain["rows"] + traced["rows"])
    metrics = run.layer_metrics([(plain, traced)])
    assert set(metrics) == set(tracer.metric_names())
    for layer in USED[name]:
        assert metrics[f"{layer}.calls"] > 0, layer
    if name == "words":
        assert metrics["cli.parse_args.calls"] == metrics["cli.run.self_ms"] == 0
    if name == "solve":
        assert 0 < metrics["solver.class_yield"] <= 1
        assert metrics["groupoid.orbit_cache.hits"] > 0
    self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert 0 < self_ms <= 1000 * traced["wall"] / len(idx)
    assert metrics["trace.overhead_ratio"] > 0
    # tracing ran in the round's own process: the program here is unpatched
    assert prog.groupoid.orbit.__module__ == "quadform.groupoid"


# -- the declared contract ----------------------------------------------


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pell",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
