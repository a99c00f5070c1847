"""quadform benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload pell --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root; it loads the program from ``src/``.  One
workload runs in this process; ``all`` runs each workload in a fresh
child process, one after another.  The last line of output is one JSON
object {correct, attempted, failed, metrics}; the line before it is a
report with the sample count, failures, workload descriptors and run
metadata.

Within a run the seed's input set is replayed in whole passes, each cut
into rounds of a few queries, until ``--seconds`` have passed.  Each round
runs in a freshly forked copy of the warmed-up program, so rounds share no
orbit-cache state and each has its own peak RSS; the parent only waits.
The load is a closed loop from one client: the next query starts when the
previous one returns.  Times are scaled to a reference speed of the host by
speed probes run next to every round (one factor for the whole run) and
next to every set-up.  With
``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
every round runs twice, plainly and then under the tracer, and the run
reports the per-layer metrics and the tracing overhead.  See README.md for
each metric's definition.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer, metric_names as per_layer_names
from workloads import WORKLOADS, orbit_length, pell_solution, point

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "exact", "lattice", "groupoid", "forms", "solver")
SETUP_REPEATS = 21
# No round starts after this many seconds of timed rounds, so that a run of
# a much slower program still ends.
HARD_LIMIT_S = 120
# speed_probe() seconds at the reference speed: the median on the 2-vCPU
# Xeon virtual machine where the benchmark was tuned.
PROBE_REF_S = 0.0103

E2E_UNITS = {"setup_s": "s", "query_ms.p50": "ms", "query_ms.p90": "ms",
             "queries_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms/query"
    if name.endswith(("_ratio", ".class_yield")):
        return "ratio"
    if name.endswith(".size_end"):
        return "count"
    return "count/query"


# -- program and processes ------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import quadform from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    prog = SimpleNamespace(**{m: importlib.import_module(f"quadform.{m}") for m in MODULES})
    if not Path(prog.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported quadform from {prog.cli.__file__}, not {SRC}")
    return prog


def in_child(fn) -> tuple[dict, float]:
    """Run fn() in a forked child and wait for it.  Returns fn's JSON-able
    result (or {"error": ...}) and the child's peak RSS in MB."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(r)
            data = json.dumps({"ok": fn()})
        except BaseException:
            data = json.dumps({"error": traceback.format_exc(limit=4)})
            status = 1
        try:
            with open(w, "w") as f:
                f.write(data)
        finally:
            os._exit(status)
    os.close(w)
    with open(r) as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    result = json.loads(data) if data else {"error": f"child exited with status {status}"}
    return result, usage.ru_maxrss / 1024


def speed_probe() -> float:
    """Seconds taken by a fixed piece of the benchmark's own pure-Python
    continued-fraction work, the same kind of work as the queries': a long
    big-integer Pell recurrence and many short orbits of a rational point.

    A shared host's speed drifts by up to a factor of two within a minute,
    and a query's time drifts with it.  Scaling a time by
    PROBE_REF_S / probe gives the time at the reference speed.  The probe
    never calls the program, and the garbage collector, whose passes grow
    with the program's heap, is off while it runs, so the program's own
    speed changes show in full.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(4):
            pell_solution(7777771)
        for _ in range(100):
            orbit_length(point(3, 5, 7, 13))
        return perf_counter() - t0
    finally:
        gc.enable()


def warmed_program(wl) -> SimpleNamespace:
    """Import the program and run the workload's warm-up queries."""
    prog = load_program()
    for inp in wl.warmup():
        wl.query(prog, wl.prepare(prog, inp))
    return prog


def setup_seconds(wl) -> float:
    """Set-up time at the reference speed; call it in a fresh fork."""
    before = speed_probe()
    t0 = perf_counter()
    warmed_program(wl)
    elapsed = perf_counter() - t0
    return elapsed * PROBE_REF_S / statistics.fmean((before, speed_probe()))


def cache_info(prog) -> tuple[int, int, int]:
    cached = getattr(prog.groupoid, "_orbit_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0, 0
    info = cached.cache_info()
    return info.hits, info.misses, info.currsize


# -- one round ------------------------------------------------------------


def round_body(prog, wl, inputs, prepared, idx, traced=False) -> dict:
    """Run the queries idx in order between two speed probes, then check
    every answer."""
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(prog)
        cache0 = cache_info(prog)
    done = []
    probe = speed_probe()
    start = perf_counter()
    for i in idx:
        if tracer:
            tracer.qid = i
        t0 = perf_counter()
        try:
            out, err = wl.query(prog, prepared[i]), None
        except Exception as e:  # every failure is counted, none stops the run
            out, err = None, ["exception", f"{type(e).__name__}: {e}"[:200]]
        t1 = perf_counter()
        if tracer:
            tracer.qid = None
        done.append((i, t1 - t0, out, err))
    wall = perf_counter() - start
    probe = statistics.fmean((probe, speed_probe()))
    if tracer:
        cache1 = cache_info(prog)
    rows = []
    for i, latency, out, err in done:
        detail = None
        if err is None:
            try:
                kind, msg, detail = wl.check(prog, inputs[i], prepared[i], out)
            except Exception as e:
                kind, msg = "wrong", f"check raised {type(e).__name__}: {e}"[:200]
            err = [kind, msg] if kind else None
        rows.append([i, latency, err, detail])
    result = {"wall": wall, "scale": PROBE_REF_S / probe, "rows": rows}
    if tracer:
        result["totals"] = tracer.totals()
        result["cache"] = [cache1[0] - cache0[0], cache1[1] - cache0[1], cache1[2]]
    return result


def failed_round(idx, wall, error) -> dict:
    """A round whose process died: all its queries count as failed."""
    msg = error.strip().splitlines()[-1][:200]
    return {"wall": wall, "scale": None,  # no probe ran
            "rows": [[i, math.inf, ["crash", msg], None] for i in idx]}


def run_round(prog, wl, inputs, prepared, idx, traced=False) -> tuple[dict, float]:
    t0 = perf_counter()
    res, rss = in_child(lambda: round_body(prog, wl, inputs, prepared, idx, traced))
    if "ok" in res:
        return res["ok"], rss
    return failed_round(idx, perf_counter() - t0, res["error"]), rss


# -- metrics --------------------------------------------------------------


BAND = 0.05


def band_percentile(sorted_values, p: float) -> float:
    """The mean of the samples ranked within BAND of the p-th quantile.

    On a shared machine one query's time varies by half from one second to
    the next, so a single order statistic jumps between runs; the mean of
    the ranks around it does not.
    """
    n = len(sorted_values)
    lo = max(0, math.floor((p - BAND) * n))
    hi = min(n, max(lo + 1, math.ceil((p + BAND) * n)))
    return statistics.fmean(sorted_values[lo:hi])


def failed_inputs(rows) -> tuple[set, set]:
    """(inputs run, inputs with a failed run).  An input whose answer fails
    once fails, however often it was replayed."""
    return {r[0] for r in rows}, {r[0] for r in rows if r[2] is not None}


def host_speed(rounds) -> float:
    """PROBE_REF_S / probe, averaged over the rounds' probes: above 1 the
    host ran faster than the reference.

    One factor serves the whole run.  A round's own two probes cannot follow
    the host through a query of seconds, and scaling each round by them
    widened the spread of words queries_per_s over six seeds from 0.02 to 0.14.
    """
    probed = [rnd["scale"] for rnd in rounds if rnd["scale"] is not None]
    return statistics.fmean(probed) if probed else 1.0


def e2e_metrics(rounds, rss, setup_s, scaled=True) -> dict:
    """The end-to-end metrics, with times at the reference speed (scaled)
    or as measured on the host."""
    k = host_speed(rounds) if scaled else 1.0
    # A failed query misses every latency limit: it counts as the whole
    # timed wall time, which no query exceeds.
    timed_ms = 1000 * k * sum(rnd["wall"] for rnd in rounds)
    rows = [r for rnd in rounds for r in rnd["rows"]]
    lat = sorted(1000 * k * r[1] if r[2] is None else timed_ms for r in rows)
    inputs_run, failed = failed_inputs(rows)
    return {
        "setup_s": setup_s,
        "query_ms.p50": band_percentile(lat, 0.5),
        "query_ms.p90": band_percentile(lat, 0.9),
        "queries_per_s": 1000 * sum(r[2] is None for r in rows) / timed_ms,
        "ok_frac": 1 - len(failed) / len(inputs_run),
        "peak_rss_mb": statistics.median(rss),
    }


def layer_metrics(pairs) -> dict:
    """Per-query means over the traced rounds; each pair is a plain round
    and its traced copy, which ran the same queries."""
    traced = [t for _, t in pairs]
    queries = sum(len(rnd["rows"]) for rnd in traced)
    totals = Counter()
    for rnd in traced:
        totals.update(rnd["totals"])
    hits = sum(rnd["cache"][0] for rnd in traced)
    misses = sum(rnd["cache"][1] for rnd in traced)
    eq_calls = totals["forms.equivalent_sl.calls"]
    out = {}
    for name in per_layer_names():
        if name.endswith(".calls"):
            out[name] = totals[name] / queries
        elif name.endswith(".self_ms"):
            out[name] = 1000 * totals[name[:-len("ms")] + "s"] / queries
    out.update({
        "solver.residues": totals["solver.residues"] / queries,
        "solver.class_yield": (totals["solver.classes"] / totals["solver.residues"]
                               if totals["solver.residues"] else 0.0),
        "forms.equivalent_sl.found_ratio": (totals["forms.equivalent_sl.found"] / eq_calls
                                            if eq_calls else 0.0),
        "groupoid.orbit_cache.hits": hits / queries,
        "groupoid.orbit_cache.misses": misses / queries,
        "groupoid.orbit_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "groupoid.orbit_cache.size_end": statistics.mean(rnd["cache"][2] for rnd in traced),
        "trace.overhead_ratio": (sum(t["wall"] for _, t in pairs)
                                 / sum(p["wall"] for p, _ in pairs)),
    })
    return out


# -- run metadata ---------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, queries) -> dict:
    return {"python": platform.python_version(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
            "seed": args.seed, "seconds": args.seconds, "queries": queries}


# -- running workloads ----------------------------------------------------


def pass_rounds(n: int, size: int, rng: random.Random) -> list[list[int]]:
    """One pass over the inputs 0..n-1, which come in ascending cost, cut
    into rounds of at most ``size`` queries in a random order.

    Round j takes every r-th input from j on, so each round holds one input
    of every cost band.  Each round's peak RSS then comes from a like mix of
    queries, in every seed: with rounds cut from a shuffled order, the
    quartile spread of pell peak_rss_mb over ten seeds was 0.08-0.09.
    """
    r = math.ceil(n / size)
    rounds = [list(range(j, n, r)) for j in range(r)]
    for idx in rounds:
        rng.shuffle(idx)
    rng.shuffle(rounds)
    return rounds


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    setup = [] if args.trace else [in_child(lambda: setup_seconds(wl))[0]
                                   for _ in range(SETUP_REPEATS)]
    errors = [s["error"] for s in setup if "ok" not in s]
    if errors:
        raise RuntimeError(f"set-up failed:\n{errors[0]}")
    prog = warmed_program(wl)
    prepared = [wl.prepare(prog, inp) for inp in inputs]

    # Whole passes only, so every run of a seed times the same inputs
    # equally often.
    plain, rss, traced, crashed = [], [], [], []
    used, passes, pending = 0.0, 0, []
    while used < HARD_LIMIT_S:
        if not pending:
            if used >= args.seconds:
                break
            pending = pass_rounds(len(inputs), wl.round_size,
                                  random.Random(f"order:{args.seed}:{passes}"))
            passes += 1
        idx = pending.pop()
        rnd, peak = run_round(prog, wl, inputs, prepared, idx)
        used += rnd["wall"]
        plain.append(rnd)
        rss.append(peak)
        if args.trace:
            again, _ = run_round(prog, wl, inputs, prepared, idx, traced=True)
            used += again["wall"]
            if "totals" in again:
                traced.append((rnd, again))
            else:
                crashed.append(again)

    rounds = plain + [t for _, t in traced] + crashed
    rows = [r for rnd in rounds for r in rnd["rows"]]
    inputs_run, failed = failed_inputs(rows)
    failures = Counter(f"{r[2][0]}: {r[2][1]}" for r in rows if r[2] is not None)
    if args.trace:
        if not traced:
            raise RuntimeError("no traced round completed")
        metrics = layer_metrics(traced)
        units = {name: per_layer_unit(name) for name in per_layer_names()}
        as_measured = {}
    else:
        setup_s = statistics.median(s["ok"] for s in setup)
        metrics = e2e_metrics(plain, rss, setup_s)
        units = E2E_UNITS
        as_measured = {k: v for k, v in e2e_metrics(plain, rss, setup_s, scaled=False).items()
                       if k.startswith(("query_ms", "queries_per_s"))}
    report = {
        "workload": wl.name, "trace": args.trace, "meta": metadata(args, len(rows)),
        "queries": len(rows), "distinct_inputs": len(inputs_run),
        "beyond_p90_band": len(rows) - math.ceil((0.9 + BAND) * len(rows)),
        "rounds": len(rounds), "passes": passes,
        "timed_s": sum(rnd["wall"] for rnd in rounds),
        "host_speed": host_speed(rounds),
        "as_measured": as_measured,
        "failed_frac": len(failed) / len(inputs_run),
        "failures": dict(failures.most_common(5)),
        "descriptors": wl.describe([inputs[i] for i in sorted(inputs_run)],
                                   [r[3] for r in rows if r[2] is None]),
    }
    return {
        "report": report,
        "result": {
            "correct": not any(r[2] is not None and r[2][0] == "wrong" for r in rows),
            "attempted": len(inputs_run),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def run_all(args) -> dict:
    """Each workload in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "quadform" / "__init__.py").is_file():
        print(f"error: no quadform sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    out = run_workload(args)
    for name, m in out["result"]["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
