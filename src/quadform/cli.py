"""Command-line frontend.

Verbs: orbit, equiv, automorph, pell, solve, verify.  Forms are entered as
three integers a b c meaning a*X^2 + 2b*X*Y + c*Y^2 (b is half the middle
coefficient; pass --middle to give the full even coefficient instead), and
quadratic irrationals as four integers p q r D meaning (p + q*sqrt(D))/r.

Exit codes: 0 success, 1 well-formed query with a negative answer,
2 invalid input, 3 internal safety limit, failed certificate or
unexpected error (a bug).
With --json the single output line is one JSON object {inputs, result,
stats, verb} with sorted keys; integers that may exceed 2^53-1 are emitted
as decimal strings of any length, and integer arguments may be as long.

The grammar (each verb's help and positional integers) is the _VERBS table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

from .errors import InternalLimit, QuadformError
from .exact import QuadIrr, is_square, qi_make
from .forms import Form, equivalent_sl, pell_fundamental, root, stabilizer_generator
from .groupoid import orbit
from .lattice import Mat2
from .solver import enumerate_solutions, solve_proper, verify_representation

_JSON_INT_MAX = 2**53 - 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class Command:
    verb: str
    json: bool = False
    cap: int | None = None
    bound: int = 1000
    point: QuadIrr | None = None
    form: Form | None = None
    form2: Form | None = None
    delta: int = 0
    m: int = 0
    x: int = 0
    y: int = 0


# verb -> (help, positional integers); forms are a b c, tagged 1 and 2 in equiv
_VERBS = {
    "orbit": ("continued-fraction orbit of (p+q*sqrt(D))/r", "p q r D"),
    "equiv": ("find h in SL(2,Z) with f1*h = f2", "D a1 b1 c1 a2 b2 c2"),
    "automorph": ("generator of the proper automorphs of [a,b,c]", "D a b c"),
    "pell": ("fundamental solution of t^2 - D*u^2 = 1", "D"),
    "solve": ("proper representations of m by [a,b,c]", "D a b c m"),
    "verify": ("check whether (x,y) represents m", "D a b c m x y"),
}


@contextmanager
def _unlimited_digits():
    """Lift Python's int<->str digit limit while exact integers of any
    length are read or printed; the previous limit is restored after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="quadform", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_, names) in _VERBS.items():
        p = sub.add_parser(verb, help=help_)
        for name in names.split():
            p.add_argument(name, type=int)
        if verb == "solve":
            p.add_argument("--bound", type=int, default=1000, metavar="B",
                           help="enumerate solutions with max(|x|,|y|) <= B (default 1000)")
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.add_argument("--cap", type=int, default=None, metavar="N",
                       help="safety step limit for orbit computations")
        if "b" in names:  # a form verb
            p.add_argument("--middle", action="store_true",
                           help="form b arguments are full (even) middle coefficients")
    return parser


def _make_form(ns: argparse.Namespace, tag: str) -> Form:
    """The form a<tag> b<tag> c<tag>, halving b under --middle, checked
    against the stated discriminant D."""
    which = "form" + tag
    a, b, c = (getattr(ns, name + tag) for name in "abc")
    if ns.middle:
        if b % 2 != 0:
            raise UsageError(f"argument b{tag}: middle coefficient {b} is odd; "
                             "the even-middle convention requires an even value")
        b //= 2
    try:
        f = Form(a, b, c)
    except QuadformError as e:
        raise UsageError(f"argument {which}: {e}") from e
    if f.disc != ns.D:
        raise UsageError(f"argument {which}: discriminant of [{a},{b},{c}] is "
                         f"{f.disc}, not the stated {ns.D}")
    return f


@_unlimited_digits()
def parse_args(argv: list[str]) -> Command:
    """Parse and validate; invalid input never reaches the math core."""
    ns = _build_parser().parse_args(argv)
    if ns.cap is not None and ns.cap < 1:
        raise UsageError(f"argument --cap: must be >= 1, got {ns.cap}")
    kw = {"verb": ns.verb, "json": ns.json, "cap": ns.cap, "delta": ns.D}
    if ns.verb == "orbit":
        try:
            kw["point"] = qi_make(ns.p, ns.q, ns.r, ns.D)
        except QuadformError as e:
            raise UsageError(str(e)) from e
    elif ns.verb == "pell":
        if ns.D <= 0 or is_square(ns.D):
            raise UsageError(f"argument D: {ns.D} is not a positive nonsquare")
    elif ns.verb == "equiv":
        kw["form"] = _make_form(ns, "1")
        kw["form2"] = _make_form(ns, "2")
    else:
        kw["form"] = _make_form(ns, "")
    if getattr(ns, "m", None) == 0:
        raise UsageError("argument m: must be nonzero")
    if ns.verb == "solve" and ns.bound < 1:
        raise UsageError(f"argument --bound: must be >= 1, got {ns.bound}")
    kw.update((k, v) for k, v in vars(ns).items() if k in ("m", "x", "y", "bound"))
    return Command(**kw)


# -- output helpers -----------------------------------------------------


def _enc(v):
    """Big integers beyond 2^53-1 become decimal strings."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v if -_JSON_INT_MAX <= v <= _JSON_INT_MAX else str(v)
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    if isinstance(v, dict):
        return {k: _enc(x) for k, x in v.items()}
    return v


def canonical_json(payload: dict) -> str:
    return json.dumps(_enc(payload), sort_keys=True, separators=(",", ":"))


def _mat_list(m: Mat2) -> list[list[int]]:
    return [[m.p, m.q], [m.r, m.s]]


def _point_list(x: QuadIrr) -> list[int]:
    return [x.p, x.q, x.r]


# -- verb implementations ------------------------------------------------


def _run_orbit(cmd):
    orb = orbit(cmd.point, cmd.cap)
    result = {
        "preperiod_length": orb.pre_len,
        "period_length": orb.cycle_len,
        "quotients": list(orb.quotients),
        "preperiod": [_point_list(p) for p in orb.preperiod],
        "cycle": [_point_list(p) for p in orb.cycle],
    }
    lines = [
        f"point {cmd.point}",
        f"preperiod_length {orb.pre_len}",
        f"period_length {orb.cycle_len}",
        "quotients " + " ".join(str(a) for a in orb.quotients),
        "preperiod " + " ".join(str(p) for p in orb.preperiod),
        "cycle " + " ".join(str(p) for p in orb.cycle),
    ]
    x = cmd.point
    inputs = {"p": x.p, "q": x.q, "r": x.r, "delta": cmd.delta}
    return 0, inputs, result, lines, orb.length


def _run_equiv(cmd):
    h = equivalent_sl(cmd.form, cmd.form2, cmd.cap)
    steps = orbit(root(cmd.form), cmd.cap).length + orbit(root(cmd.form2), cmd.cap).length
    inputs = {"delta": cmd.delta,
              "form1": [cmd.form.a, cmd.form.b, cmd.form.c],
              "form2": [cmd.form2.a, cmd.form2.b, cmd.form2.c]}
    if h is None:
        return 1, inputs, {"equivalent": False, "matrix": None}, ["NOT_EQUIVALENT"], steps
    result = {"equivalent": True, "matrix": _mat_list(h)}
    return 0, inputs, result, ["EQUIVALENT", f"matrix {h}"], steps


def _run_automorph(cmd):
    h = stabilizer_generator(cmd.form, cmd.cap)
    steps = orbit(root(cmd.form), cmd.cap).length
    inputs = {"delta": cmd.delta, "form": [cmd.form.a, cmd.form.b, cmd.form.c]}
    return 0, inputs, {"matrix": _mat_list(h)}, [f"matrix {h}"], steps


def _run_pell(cmd):
    t, u = pell_fundamental(cmd.delta, cmd.cap)
    steps = orbit(root(Form(1, 0, -cmd.delta)), cmd.cap).length
    return 0, {"delta": cmd.delta}, {"t": t, "u": u}, [f"t={t} u={u}"], steps


def _run_solve(cmd):
    report = solve_proper(cmd.form, cmd.m, cmd.cap)
    steps = sum(orbit(root(c.attached), cmd.cap).length for c in report.classes)
    inputs = {"delta": cmd.delta, "form": [cmd.form.a, cmd.form.b, cmd.form.c],
              "m": cmd.m, "bound": cmd.bound}
    classes = []
    lines = [f"form {cmd.form}", f"m {cmd.m}", f"classes {len(report.classes)}"]
    for c in report.classes:
        sols = enumerate_solutions(c, cmd.bound)
        classes.append({
            "n": c.n,
            "attached": [c.attached.a, c.attached.b, c.attached.c],
            "base_matrix": _mat_list(c.base_matrix),
            "base_solution": list(c.base_solution),
            "automorph": _mat_list(c.automorph),
            "solutions": [list(s) for s in sols],
        })
        lines.append(f"class n={c.n} attached {c.attached} base "
                     f"({c.base_solution[0]},{c.base_solution[1]}) "
                     f"automorph {c.automorph}")
        lines.append(f"solutions n={c.n} " +
                     " ".join(f"({x},{y})" for x, y in sols))
    if not report.classes:
        lines.append("NO_SOLUTIONS")
    return (0 if report.classes else 1), inputs, {"classes": classes}, lines, steps


def _run_verify(cmd):
    is_rep, is_proper = verify_representation(cmd.form, cmd.m, cmd.x, cmd.y)
    value = cmd.form(cmd.x, cmd.y)
    inputs = {"delta": cmd.delta, "form": [cmd.form.a, cmd.form.b, cmd.form.c],
              "m": cmd.m, "x": cmd.x, "y": cmd.y}
    result = {"value": value, "representation": is_rep, "proper": is_proper}
    lines = [f"value {value}",
             f"representation {str(is_rep).lower()}",
             f"proper {str(is_proper).lower()}"]
    return (0 if is_rep else 1), inputs, result, lines, 1


_RUNNERS = {
    "orbit": _run_orbit,
    "equiv": _run_equiv,
    "automorph": _run_automorph,
    "pell": _run_pell,
    "solve": _run_solve,
    "verify": _run_verify,
}


@_unlimited_digits()
def run(cmd: Command) -> tuple[int, str]:
    """Execute a validated command; returns (exit_code, output text)."""
    t0 = time.perf_counter()
    code, inputs, result, lines, steps = _RUNNERS[cmd.verb](cmd)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    if cmd.json:
        payload = {"verb": cmd.verb, "inputs": inputs, "result": result,
                   "stats": {"steps": steps, "elapsed_ms": elapsed_ms}}
        return code, canonical_json(payload)
    return code, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        cmd = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        code, text = run(cmd)
    except InternalLimit as e:
        print(f"internal limit: {e}", file=sys.stderr)
        return 3
    except QuadformError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        where = traceback.extract_tb(e.__traceback__)[-1]
        print(f"internal error: {e!r} at {where.filename}:{where.lineno}", file=sys.stderr)
        return 3
    if text:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left early; keep the exit flush quiet too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
