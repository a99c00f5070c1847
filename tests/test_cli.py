import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quadform import Form, Mat2, act
from quadform import cli
from quadform.cli import Command, UsageError, canonical_json, main, parse_args, run
from helpers import run_python


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parsing ----------------------------------------------------------------


def test_parse_solve_grammar():
    cmd = parse_args(["solve", "2", "1", "0", "-2", "7"])
    assert cmd.verb == "solve"
    assert cmd.delta == 2
    assert cmd.form == Form(1, 0, -2)
    assert cmd.m == 7
    assert cmd.bound == 1000 and not cmd.json


def test_parse_pell_json_flag():
    cmd = parse_args(["pell", "13", "--json"])
    assert cmd.verb == "pell" and cmd.delta == 13 and cmd.json


def test_parse_rejects_square_discriminant_point():
    with pytest.raises(UsageError):
        parse_args(["orbit", "0", "1", "1", "4"])


def test_parse_rejects_disc_mismatch():
    with pytest.raises(UsageError) as e:
        parse_args(["solve", "3", "1", "0", "-2", "7"])
    assert "discriminant" in str(e.value)


def test_parse_rejects_zero_m():
    with pytest.raises(UsageError):
        parse_args(["solve", "2", "1", "0", "-2", "0"])


def test_parse_middle_flag_halves_even():
    cmd = parse_args(["solve", "2", "1", "0", "-2", "7", "--middle"])
    assert cmd.form == Form(1, 0, -2)
    cmd = parse_args(["automorph", "2", "7", "8", "2", "--middle"])
    assert cmd.form == Form(7, 4, 2)


def test_parse_middle_flag_rejects_odd():
    with pytest.raises(UsageError) as e:
        parse_args(["automorph", "2", "7", "3", "2", "--middle"])
    assert "odd" in str(e.value)


def test_parse_rejects_bad_bound_and_cap():
    with pytest.raises(UsageError):
        parse_args(["solve", "2", "1", "0", "-2", "7", "--bound", "0"])
    with pytest.raises(UsageError):
        parse_args(["pell", "2", "--cap", "0"])


def test_parse_reuses_one_parser_without_carried_state():
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(UsageError):
        parse_args(["solve", "2", "1", "0", "-2", "x", "--json"])
    assert parse_args(["solve", "2", "1", "0", "-2", "7"]) == \
        Command("solve", delta=2, form=Form(1, 0, -2), m=7)
    assert parse_args(["automorph", "2", "7", "8", "2", "--middle"]).form == Form(7, 4, 2)
    # a leaked --middle would halve b to 2 and reject the form
    assert parse_args(["automorph", "2", "7", "4", "2"]) == \
        Command("automorph", delta=2, form=Form(7, 4, 2))


_ODD = "middle coefficient {} is odd; the even-middle convention requires an even value"


@pytest.mark.parametrize("argv, line", [
    (["equiv", "2", "1", "1", "-2", "7", "8", "2", "--middle"],
     "argument b1: " + _ODD.format(1)),
    (["equiv", "2", "1", "0", "-2", "7", "9", "2", "--middle"],
     "argument b2: " + _ODD.format(9)),
    (["automorph", "2", "7", "3", "2", "--middle"], "argument b: " + _ODD.format(3)),
    (["equiv", "3", "1", "0", "-2", "7", "4", "2"],
     "argument form1: discriminant of [1,0,-2] is 2, not the stated 3"),
    (["equiv", "2", "1", "0", "-2", "1", "1", "-2"],
     "argument form2: discriminant of [1,1,-2] is 3, not the stated 2"),
    (["automorph", "4", "1", "0", "-4"],
     "argument form: form [1,0,-4] has discriminant 4; need positive nonsquare"),
    (["pell", "4"], "argument D: 4 is not a positive nonsquare"),
    (["orbit", "0", "1", "1", "4"], "delta must be positive and nonsquare, got 4"),
    (["orbit", "1", "0", "2", "5"], "q = 0 gives a rational value"),
    (["solve", "2", "1", "0", "-2", "0"], "argument m: must be nonzero"),
    (["verify", "2", "1", "0", "-2", "0", "3", "1"], "argument m: must be nonzero"),
    (["solve", "2", "1", "0", "-2", "7", "--bound", "0"],
     "argument --bound: must be >= 1, got 0"),
    (["automorph", "2", "1", "0", "-2", "--cap", "0"], "argument --cap: must be >= 1, got 0"),
    (["pell", "61", "--middle"], "unrecognized arguments: --middle"),
    (["verify", "2", "1", "0", "-2", "7", "3", "1", "--bound", "5"],
     "unrecognized arguments: --bound 5"),
])
def test_main_rejects_with_one_stderr_line(capsys, argv, line):
    code, out, err = run_main(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for verb, help_ in [
        ("orbit", "continued-fraction orbit of (p+q*sqrt(D))/r"),
        ("equiv", "find h in SL(2,Z) with f1*h = f2"),
        ("automorph", "generator of the proper automorphs of [a,b,c]"),
        ("pell", "fundamental solution of t^2 - D*u^2 = 1"),
        ("solve", "proper representations of m by [a,b,c]"),
        ("verify", "check whether (x,y) represents m"),
    ]:
        assert any(l.split() == [verb, *help_.split()] for l in out.splitlines()), verb


# -- exit codes and text output ------------------------------------------------


def test_main_pell_text(capsys):
    code, out, _ = run_main(capsys, "pell", "2")
    assert code == 0
    assert out == "t=3 u=2\n"


def test_main_orbit_text(capsys):
    code, out, _ = run_main(capsys, "orbit", "0", "1", "1", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert "preperiod_length 1" in lines
    assert "period_length 5" in lines
    assert "quotients 3 1 1 1 1 6" in lines


def test_main_automorph(capsys):
    code, out, _ = run_main(capsys, "automorph", "2", "1", "0", "-2")
    assert code == 0
    line = out.strip()
    assert line.startswith("matrix [[")
    entries = line.removeprefix("matrix [[").removesuffix("]]")
    p, q, r, s = [int(v) for part in entries.split("],[") for v in part.split(",")]
    m = Mat2(p, q, r, s)
    assert act(Form(1, 0, -2), m) == Form(1, 0, -2)
    assert abs(m.trace) == 6  # fundamental (t, u) = (3, 2)


def test_main_equiv_negative(capsys):
    code, out, _ = run_main(capsys, "equiv", "13", "1", "0", "-13", "-2", "3", "2")
    assert code == 1
    assert out.strip() == "NOT_EQUIVALENT"


def test_main_equiv_positive(capsys):
    code, out, _ = run_main(capsys, "equiv", "2", "1", "0", "-2", "7", "4", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "EQUIVALENT"
    entries = lines[1].removeprefix("matrix [[").removesuffix("]]")
    p, q, r, s = [int(v) for part in entries.split("],[") for v in part.split(",")]
    assert act(Form(1, 0, -2), Mat2(p, q, r, s)) == Form(7, 4, 2)


def test_main_solve_text(capsys):
    code, out, _ = run_main(capsys, "solve", "2", "1", "0", "-2", "7", "--bound", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert "classes 2" in lines
    sol_lines = [l for l in lines if l.startswith("solutions n=4")]
    assert sol_lines and "(3,1)" in sol_lines[0] and "(75,53)" in sol_lines[0]


def test_main_solve_no_solutions(capsys):
    code, out, _ = run_main(capsys, "solve", "2", "1", "0", "-2", "3")
    assert code == 1
    assert "NO_SOLUTIONS" in out


def test_main_verify(capsys):
    code, out, _ = run_main(capsys, "verify", "2", "1", "0", "-2", "7", "3", "1")
    assert code == 0
    assert "representation true" in out and "proper true" in out
    code, out, _ = run_main(capsys, "verify", "2", "1", "0", "-2", "7", "6", "2")
    assert code == 1
    assert "representation false" in out


def test_main_usage_error_exit_2(capsys):
    code, _, err = run_main(capsys, "orbit", "0", "1", "1", "4")
    assert code == 2
    assert "nonsquare" in err


def test_main_unknown_verb_exit_2(capsys):
    code, _, _ = run_main(capsys, "frobnicate", "1")
    assert code == 2


def test_main_cap_trips_exit_3(capsys):
    code, _, err = run_main(capsys, "orbit", "0", "1", "1", "13", "--cap", "2")
    assert code == 3
    assert "limit" in err.lower()


def test_cap_bounds_solve_at_a_25_digit_target(capsys):
    m = str(10**24 + 7)
    start = time.perf_counter()
    code, _, err = run_main(capsys, "solve", "2", "1", "0", "-2", m, "--bound", "3",
                            "--cap", "5")
    assert code == 3 and "limit" in err.lower()
    assert time.perf_counter() - start < 2
    code, out, _ = run_main(capsys, "solve", "2", "1", "0", "-2", m, "--bound", "3")
    assert code == 0
    assert "classes 2" in out.splitlines()


def test_cap_bounds_factoring(capsys):
    code, _, err = run_main(capsys, "solve", "2", "1", "0", "-2", str(999983 * 1000003),
                            "--cap", "5")
    assert code == 3 and "rho steps" in err


def test_output_is_deterministic(capsys):
    one = run_main(capsys, "solve", "2", "1", "0", "-2", "7")
    two = run_main(capsys, "solve", "2", "1", "0", "-2", "7")
    assert one == two


# -- JSON mode --------------------------------------------------------------------


def _json_roundtrip(payload_text):
    parsed = json.loads(payload_text)
    assert canonical_json(parsed) == payload_text
    return parsed


def test_json_roundtrip_orbit(capsys):
    code, out, _ = run_main(capsys, "orbit", "0", "1", "1", "13", "--json")
    assert code == 0
    payload = _json_roundtrip(out.strip())
    assert payload["verb"] == "orbit"
    assert payload["result"]["quotients"] == [3, 1, 1, 1, 1, 6]
    assert payload["result"]["preperiod"] == [[0, 1, 1]]
    assert payload["stats"]["steps"] == 6


def test_json_roundtrip_solve(capsys):
    code, out, _ = run_main(capsys, "solve", "2", "1", "0", "-2", "7",
                            "--bound", "100", "--json")
    assert code == 0
    payload = _json_roundtrip(out.strip())
    ns = sorted(c["n"] for c in payload["result"]["classes"])
    assert ns == [3, 4]
    for c in payload["result"]["classes"]:
        if c["n"] == 4:
            assert [3, 1] in c["solutions"] and [75, 53] in c["solutions"]


def test_json_solve_no_solutions_counts_no_steps(capsys):
    # steps is the orbit work over the classes found, not |m|
    code, out, _ = run_main(capsys, "solve", "2", "1", "0", "-2", "999999", "--json")
    assert code == 1
    payload = _json_roundtrip(out.strip())
    assert payload["result"] == {"classes": []}
    assert payload["stats"]["steps"] == 0


def test_json_big_integers_become_strings(capsys):
    # fundamental solution for 661 exceeds 2^53
    code, out, _ = run_main(capsys, "pell", "661", "--json")
    assert code == 0
    payload = _json_roundtrip(out.strip())
    t = payload["result"]["t"]
    assert isinstance(t, str)
    assert int(t) == 16421658242965910275055840472270471049
    u = int(payload["result"]["u"])
    assert int(t) ** 2 - 661 * u**2 == 1


def test_integers_past_the_str_digit_limit_render(capsys, monkeypatch):
    # a 5000-digit answer exceeds Python's default 4300-digit int->str limit
    t, u = 10**4999 + 7, 3
    digits = "1" + "0" * 4998 + "7"

    def fake_pell(cmd):
        return 0, {"delta": cmd.delta}, {"t": t, "u": u}, [f"t={t} u={u}"], 1

    monkeypatch.setitem(cli._RUNNERS, "pell", fake_pell)
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, which the CLI must restore
    try:
        code, out, err = run_main(capsys, "pell", "2", "--json")
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["t"] == digits
        assert result["u"] == 3
        code, out, _ = run_main(capsys, "pell", "2")
        assert code == 0 and out == f"t={digits} u=3\n"
        if has_limit:
            assert sys.get_int_max_str_digits() == 4300
    finally:
        if has_limit:
            sys.set_int_max_str_digits(before)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int<->str digit limit")
def test_verify_reads_integers_past_the_str_digit_limit(capsys):
    # a ~5000-digit solution of x^2 - 2y^2 = 1, the first column of a power
    # of the automorph [[3,4],[2,3]] of [1,0,-2]
    m = Mat2(3, 4, 2, 3) ** 6600
    x, y = m.p, m.r
    assert x * x - 2 * y * y == 1
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    xs, ys = str(x), str(y)
    assert len(ys) > 4300
    sys.set_int_max_str_digits(4300)  # the default, which the CLI must restore
    try:
        code, out, err = run_main(capsys, "verify", "2", "1", "0", "-2", "1", xs, ys)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0 and err == ""
    assert out.splitlines() == ["value 1", "representation true", "proper true"]


# A wrong quotient in the walk or a wrong but unimodular matrix in a product
# tree stops the answer at a certificate, also when asserts are compiled out;
# the message names the certificate that caught it: the walk's closing
# derivative step, or a morphism's.
_WALK_PATCH = ("walk = groupoid._walk\n"
               "def bad(*args):\n"
               "    keys, quots, stop, pre = walk(*args)\n"
               "    return keys, {}, stop, pre\n"
               "groupoid._walk = bad\n")
_CORRUPTIONS = {
    "last quotient": ("orbit of", _WALK_PATCH.format("quots[:-1] + [quots[-1] + 1]")),
    "first quotient": ("morphism", _WALK_PATCH.format("[quots[0] + 1] + quots[1:]")),
    "tree node": ("morphism", "product = groupoid.generator_product\n"
                  "groupoid.generator_product = "
                  "lambda qs: product(qs) * Mat2(1, len(qs), 0, 1)\n"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("argv", [["pell", "61"], ["equiv", "2", "1", "0", "-2", "7", "4", "2"]],
                         ids=["pell", "equiv"])
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_corrupted_walk_or_tree_stops_at_a_certificate(corruption, argv, flags):
    where, patch = _CORRUPTIONS[corruption]
    code = ("import sys\n"
            "from quadform import Mat2, cli, groupoid\n"
            + patch + "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = run_python(*flags, "-c", code, *argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"internal limit: {where}")
    assert "certificate" in proc.stderr


@pytest.mark.parametrize("argv, exit_code", [
    (["orbit", "0", "1", "1", "1000003"], 0),
    (["equiv", "13", "1", "0", "-13", "-2", "3", "2"], 1),
], ids=["orbit", "equiv"])
def test_closed_stdout_is_not_a_crash(argv, exit_code):
    # the reader is gone before the first write, as under `| head -c 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python("-m", "quadform.cli", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == exit_code
    assert proc.stderr == ""


def test_main_unexpected_error_exit_3(capsys, monkeypatch):
    def broken(cmd):
        raise ValueError("boom\nsecond line")

    monkeypatch.setitem(cli._RUNNERS, "pell", broken)
    code, out, err = run_main(capsys, "pell", "2", "--json")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "boom" in err and "Traceback" not in err


def test_json_renders_booleans_and_null(capsys):
    code, out, _ = run_main(capsys, "equiv", "13", "1", "0", "-13", "-2", "3", "2", "--json")
    assert code == 1
    assert '"equivalent":false,"matrix":null' in out
    assert _json_roundtrip(out.strip())["result"]["matrix"] is None
    code, out, _ = run_main(capsys, "verify", "2", "1", "0", "-2", "7", "3", "1", "--json")
    assert code == 0
    assert '"proper":true,"representation":true' in out
    assert _json_roundtrip(out.strip())["result"]["proper"] is True


@st.composite
def big_ints(draw):
    """Integers around 2^53 and past the 4300-digit int<->str limit."""
    low = draw(st.sampled_from([2**53 - 2, 10**4300]))
    return draw(st.integers(low, 3 * low)) * draw(st.sampled_from([1, -1]))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int<->str digit limit")
@given(x=big_ints(), y=big_ints())
@settings(deadline=None, max_examples=25)
def test_json_round_trips_big_integers(x, y):
    m = x * x - 2 * y * y  # nonzero: sqrt(2) is irrational
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        argv = ["verify", "2", "1", "0", "-2", str(m), str(x), str(y), "--json"]
        sys.set_int_max_str_digits(4300)  # the default, which the CLI must restore
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert code == 0
        line = out.getvalue().rstrip("\n")
        payload = json.loads(line)
        assert canonical_json(payload) == line
        inputs, result = payload["inputs"], payload["result"]
        for got, want in [(inputs["x"], x), (inputs["y"], y), (inputs["m"], m),
                          (result["value"], m)]:
            assert isinstance(got, str) == (abs(want) > 2**53 - 1)
            assert int(got) == want
    finally:
        sys.set_int_max_str_digits(before)


def test_json_has_no_floats(capsys):
    _, out, _ = run_main(capsys, "solve", "2", "1", "0", "-2", "7", "--json")

    def walk(v):
        assert not isinstance(v, float)
        if isinstance(v, dict):
            for x in v.values():
                walk(x)
        elif isinstance(v, list):
            for x in v:
                walk(x)

    walk(json.loads(out.strip()))


def test_run_returns_text_without_trailing_newline():
    code, text = run(Command(verb="pell", delta=2))
    assert code == 0 and text == "t=3 u=2"
