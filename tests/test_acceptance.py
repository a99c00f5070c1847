"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (visible
with ``pytest -s``) and enforcing its runtime budget.  Every expected
value is first reproduced by an independent oracle: escalating-precision
interval arithmetic for orbits, brute-force scans and the classical
convergent recurrence for Pell, box scans for solution sets, exhaustive
first-column scans for automorphs, and a parity-labeled reachability walk
for equivalence.
"""

import math
import random
import time
from contextlib import contextmanager

from quadform import (
    AdditiveIntegers,
    Form,
    PMat,
    ProjectiveMatrices,
    act,
    compose,
    enumerate_solutions,
    equivalent_sl,
    free_extend,
    mobius_apply,
    morphism_matrix,
    normal_form,
    orbit,
    pell_fundamental,
    qi_make,
    root,
    solve_proper,
    stabilizer_generator,
)
from quadform.groupoid import _orbit_cached
from helpers import (
    automorphs_by_scan,
    brute_force_proper,
    cf_quotients_oracle,
    forms_with,
    normal_form_candidates,
    parity_components,
    pell_brute_force,
    pell_convergents,
    random_form,
    random_point,
    random_sl_word,
    random_word,
    signed_powers_within,
)


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < budget_s else "FAIL (over time budget)"
    print(f"\nACCEPTANCE {num} ({name}): {verdict} in {dt * 1000:.0f} ms "
          f"(budget {budget_s:.0f} s)")
    assert dt < budget_s, f"runtime {dt:.2f}s exceeds budget {budget_s}s"


def test_criterion_1_continued_fraction_orbits():
    with criterion(1, "continued-fraction orbits", 5):
        for delta, want_quots, want_pre, want_cyc in (
            (13, [3, 1, 1, 1, 1, 6], 1, 5),
            (2, [1, 2], 1, 1),
        ):
            # interval-arithmetic oracle first, double the recorded length
            oracle = cf_quotients_oracle(0, 1, 1, delta, 2 * len(want_quots))
            assert oracle[: len(want_quots)] == want_quots

            _orbit_cached.cache_clear()
            t0 = time.perf_counter()
            orb = orbit(qi_make(0, 1, 1, delta))
            dt = time.perf_counter() - t0
            assert dt < 0.010, f"orbit(sqrt{delta}) took {dt * 1000:.2f} ms"
            assert list(orb.quotients) == want_quots
            assert orb.pre_len == want_pre
            assert orb.cycle_len == want_cyc
            # unrolled quotient stream matches the oracle at every index
            assert [orb.quotient_at(k) for k in range(len(oracle))] == oracle


def test_criterion_2_pell():
    with criterion(2, "Pell fundamental solutions", 1):
        assert pell_fundamental(2) == (3, 2)
        assert pell_brute_force(2, 2) == (3, 2)
        assert pell_fundamental(13) == (649, 180)
        assert pell_brute_force(13, 180) == (649, 180)
        t, u = pell_fundamental(61)
        assert (t, u) == (1766319049, 226153980)
        assert t * t - 61 * u * u == 1
        assert pell_convergents(61) == (t, u)  # independent minimality oracle


def test_criterion_3_reduced_word_round_trip():
    with criterion(3, "reduced-word round-trip, 1000 words", 30):
        rng = random.Random(20260808)
        deltas = [2, 3, 5, 13, 61]
        for _ in range(1000):
            x = random_point(rng, rng.choice(deltas))
            word, endpoint = random_word(rng, x, max_len=30, span=9)
            g = PMat(word)
            m = normal_form(g, x)
            assert m.source == x and m.target == endpoint
            assert m.mat == g
            assert morphism_matrix(m) == g  # word evaluation reproduces it
            assert m.mat.det == (-1) ** (m.i + m.j)
            cands = normal_form_candidates(g, x, 2 * (m.i + m.j))
            assert cands == [(m.i, m.j)]


def test_criterion_4_root_substitution_intertwining():
    with criterion(4, "root/substitution intertwining, 500 pairs", 5):
        rng = random.Random(4)
        for _ in range(500):
            f = random_form(rng, rng.choice([2, 3, 5, 13, 61]))
            h = random_sl_word(rng)
            assert h.det == 1
            assert root(act(f, h)) == mobius_apply(h.inv(), root(f))


def test_criterion_5_equivalence_oracle_agreement():
    with criterion(5, "equivalence vs reachability oracle", 120):
        for delta in [d for d in range(2, 21) if math.isqrt(d) ** 2 != d]:
            forms = forms_with(delta, 6)
            triples = [(f.a, f.b, f.c) for f in forms]
            label = parity_components(triples, coef_cap=400, span=9)
            for fi, ti in zip(forms, triples):
                for fj, tj in zip(forms, triples):
                    ours = equivalent_sl(fi, fj)
                    if label[(ti, 0)] == label[(tj, 0)]:
                        assert ours is not None, f"missed {fi} ~ {fj}"
                    if ours is not None:
                        assert act(fi, ours) == fj
                        assert ours.det == 1


def test_criterion_6_gauss_bijection_desk_scale():
    with criterion(6, "solution classes vs brute force", 60):
        f = Form(1, 0, -2)
        bound = 100
        for m in [m for m in range(-30, 31) if m != 0]:
            report = solve_proper(f, m)
            union: set = set()
            for cls in report.classes:
                sols = set(enumerate_solutions(cls, bound))
                assert not union & sols, f"classes overlap at m={m}"
                union |= sols
            assert union == brute_force_proper(f, m, bound), f"m={m}"

        report = solve_proper(f, 7)
        assert sorted(c.n for c in report.classes) == [3, 4]
        cls4 = next(c for c in report.classes if c.n == 4)
        want = set()
        for x, y in ((3, 1), (5, -3), (13, 9), (27, -19), (75, 53)):
            want |= {(x, y), (-x, -y)}
        assert set(enumerate_solutions(cls4, bound)) == want


def test_criterion_7_stabilizer_cyclicity():
    with criterion(7, "stabilizer cyclicity", 120):
        scan_bound = 10**3
        for delta in (2, 3, 5, 13):
            for f in forms_with(delta, 5):
                gen = stabilizer_generator(f)
                assert act(f, gen) == f
                found = automorphs_by_scan(f, scan_bound)
                allowed = signed_powers_within(gen, scan_bound, 10**9)
                assert found <= allowed, f"extra automorph for {f}"


def test_criterion_8_composition_consistency():
    with criterion(8, "composition consistency, 500 pairs", 30):
        rng = random.Random(88)
        targets = (AdditiveIntegers(), ProjectiveMatrices())
        for _ in range(500):
            x = random_point(rng, rng.choice([2, 3, 5, 13, 61]))
            w1, y = random_word(rng, x, max_len=15)
            m1 = normal_form(PMat(w1), x)
            w2, _ = random_word(rng, y, max_len=15)
            m2 = normal_form(PMat(w2), y)
            merged = compose(m2, m1)
            searched = normal_form(m2.mat.rep * m1.mat.rep, x)
            assert (merged.i, merged.j) == (searched.i, searched.j)
            assert merged.mat == searched.mat == PMat(w2 * w1)
            assert merged.target == searched.target
            for t in targets:
                assert free_extend(t, merged) == \
                    t.compose(free_extend(t, m2), free_extend(t, m1))
