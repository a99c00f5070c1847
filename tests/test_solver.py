import importlib.util
import math
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quadform import (
    Form,
    InternalLimit,
    InvalidArgument,
    InvalidDiscriminant,
    NotDivisible,
    RepClass,
    ZeroTarget,
    act,
    attach_form,
    enumerate_solutions,
    proper_residue,
    residue_classes,
    solve_proper,
    stabilizer_generator,
    verify_representation,
)
from quadform import solver
from quadform.solver import _factor, _is_prime
from helpers import brute_force_proper, residue_classes_by_scan

F2 = Form(1, 0, -2)


def test_residue_classes_examples():
    assert residue_classes(2, 7) == [3, 4]
    assert residue_classes(2, 1) == [0]
    assert residue_classes(2, 3) == []


def test_residue_classes_zero_target():
    with pytest.raises(ZeroTarget):
        residue_classes(2, 0)


def _load_sqrt_count():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.sqrt_count


sqrt_count = _load_sqrt_count()


def _check_residues(delta, m):
    got = residue_classes(delta, m)
    assert got == residue_classes_by_scan(delta, m), (delta, m)
    assert len(got) == sqrt_count(delta, m), (delta, m)


@given(st.integers(-10**3, 10**5), st.integers(-10**4, 10**4).filter(lambda m: m != 0))
@settings(deadline=None, max_examples=300)
def test_residue_classes_match_the_scan(delta, m):
    _check_residues(delta, m)


@pytest.mark.parametrize("delta", [0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 64, 68,
                                   -3, -4, -7, -8, 2, 3, 6, 7])
def test_residue_classes_at_powers_of_two(delta):
    # delta = 0, 1, 4 and 5 mod 8 (and the rest), m = +-2^k and 2^k * odd
    for k in range(13):
        for odd in (1, 3, 5):
            _check_residues(delta, (2**k) * odd)
            _check_residues(delta, -(2**k) * odd)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_residue_classes_when_p_squared_divides_delta(p):
    for delta in (p * p, 2 * p * p, 3 * p**4, p**3, 5 * p**5, 0):
        for e in range(1, 7):
            for cofactor in (1, 11, 4 if p != 2 else 9):
                if p**e * cofactor <= 10**5:
                    _check_residues(delta, p**e * cofactor)


def test_residue_classes_for_a_large_prime_dividing_delta():
    # each branch is cheap in p: the scan over [0, |m|) would not finish
    p = 1000003
    assert residue_classes(2 * p, p) == [0]
    assert residue_classes(2 * p, p**3) == []
    q = 10007
    assert residue_classes(3 * q * q, q * q) == list(range(0, q * q, q))
    assert residue_classes(2 * q * q, 7 * q * q) == [
        n for n in range(0, 7 * q * q, q) if (n * n - 2 * q * q) % (7 * q * q) == 0]
    assert len(residue_classes(2, 1000000000039)) == 2


def _check_factorisation(n, cap=10**6):
    fac = _factor(n, cap)
    assert math.prod(p**e for p, e in fac.items()) == n
    assert all(_is_prime(p) and e >= 1 for p, e in fac.items())
    return fac


def test_factor_random_integers_and_semiprimes():
    rng = random.Random(6)
    for _ in range(200):
        _check_factorisation(rng.randint(1, 10**14))
    assert _check_factorisation(999983 * 1000003) == {999983: 1, 1000003: 1}
    assert _check_factorisation(1000003**2 * 1000033) == {1000003: 2, 1000033: 1}
    assert _check_factorisation(10007**3 * 10009**2) == {10007: 3, 10009: 2}
    assert _check_factorisation(999999999989 * 1000000000039, cap=10**7) == \
        {999999999989: 1, 1000000000039: 1}


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10**14)
        assert _factor(n, 10**6) == sympy.factorint(n), n


def test_is_prime_against_the_scan():
    primes = [n for n in range(2, 3000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(2, 3000) if _is_prime(n)] == primes


def test_uncertifiable_prime_raises():
    # 2^89 - 1 is prime, past the bound where Miller-Rabin on bases 2..41 is exact
    with pytest.raises(InternalLimit, match="3317044064679887385961981"):
        _factor(2**89 - 1, 10**6)
    with pytest.raises(InternalLimit, match="3317044064679887385961981"):
        residue_classes(2, 3 * (2**89 - 1))
    assert _factor(3317044064679887385961813, 10**6) == {3317044064679887385961813: 1}


def test_rho_respects_cap():
    n = 999983 * 1000003
    with pytest.raises(InternalLimit, match="exceeded 5 rho steps"):
        residue_classes(2, n, cap=5)
    with pytest.raises(InternalLimit, match="exceeded 5 rho steps"):
        solve_proper(F2, n, cap=5)


def test_attach_form_examples():
    assert attach_form(3, 7, 2) == Form(7, 3, 1)
    assert attach_form(4, 7, 2) == Form(7, 4, 2)
    assert attach_form(0, 1, 2) == Form(1, 0, -2)
    with pytest.raises(NotDivisible):
        attach_form(1, 7, 2)


def test_attach_form_has_right_disc():
    for n in residue_classes(13, 9):
        assert attach_form(n, 9, 13).disc == 13


def test_solve_classes_for_seven():
    report = solve_proper(F2, 7)
    assert sorted(c.n for c in report.classes) == [3, 4]
    for c in report.classes:
        x, y = c.base_solution
        assert F2(x, y) == 7
        assert math.gcd(abs(x), abs(y)) == 1
        assert proper_residue(F2, 7, x, y) == c.n
        assert act(F2, c.base_matrix) == c.attached
        assert act(F2, c.automorph) == F2
        assert c.automorph.det == 1
        assert c.automorph.trace not in (-2, 2)  # not +-identity


def test_solve_unit_target():
    report = solve_proper(F2, 1)
    assert [c.n for c in report.classes] == [0]
    cls = report.classes[0]
    assert cls.base_solution == (1, 0)
    sols = enumerate_solutions(cls, 10)
    assert set(sols) == {(1, 0), (-1, 0), (3, 2), (-3, -2), (3, -2), (-3, 2)}


def test_solve_no_solutions():
    report = solve_proper(F2, 3)
    assert report.classes == ()
    assert brute_force_proper(F2, 3, 60) == set()


def test_solve_rejects_zero():
    with pytest.raises(ZeroTarget):
        solve_proper(F2, 0)


def test_residue_exists_but_class_empty():
    # x^2 - 10y^2 = 2 has residue n=0 but [1,0,-10] and [2,0,-5] are not
    # SL-equivalent (2u^2 - 5y^2 = 1 fails mod 5): the class is omitted
    f = Form(1, 0, -10)
    assert residue_classes(10, 2) == [0]
    assert solve_proper(f, 2).classes == ()
    assert brute_force_proper(f, 2, 60) == set()


def test_enumerate_example_bound_15():
    report = solve_proper(F2, 7)
    cls4 = next(c for c in report.classes if c.n == 4)
    sols = enumerate_solutions(cls4, 15)
    assert set(sols) == {(3, 1), (-3, -1), (5, -3), (-5, 3), (13, 9), (-13, -9)}


def test_enumerate_rejects_bad_bound():
    report = solve_proper(F2, 7)
    with pytest.raises(InvalidArgument):
        enumerate_solutions(report.classes[0], 0)


def test_enumerate_is_sorted_deterministically():
    report = solve_proper(F2, 7)
    for c in report.classes:
        sols = enumerate_solutions(c, 200)
        assert sols == sorted(sols, key=lambda p: (abs(p[0]), p[0], p[1]))


def test_union_of_classes_is_brute_force_set():
    for m in list(range(-12, 0)) + list(range(1, 13)):
        report = solve_proper(F2, m)
        box = 60
        union: set = set()
        for c in report.classes:
            sols = set(enumerate_solutions(c, box))
            assert not union & sols  # classes are disjoint
            union |= sols
        assert union == brute_force_proper(F2, m, box), f"m={m}"


def test_other_form_against_brute_force():
    f = Form(-2, 3, 2)  # disc 13, indefinite, imprimitive
    for m in (2, -2, 4, 7, 1, 3):
        report = solve_proper(f, m)
        union: set = set()
        for c in report.classes:
            sols = set(enumerate_solutions(c, 40))
            assert not union & sols
            union |= sols
        assert union == brute_force_proper(f, m, 40), f"m={m}"


def test_base_matrix_shift_keeps_solution_set():
    report = solve_proper(F2, 7)
    for c in report.classes:
        a = stabilizer_generator(c.attached)
        for k in (1, -1, 2):
            h2 = c.base_matrix * a**k
            shifted = RepClass(c.n, c.attached, h2, h2.first_column(), c.automorph)
            assert act(F2, shifted.base_matrix) == c.attached
            assert set(enumerate_solutions(shifted, 80)) == \
                set(enumerate_solutions(c, 80))


def test_residue_of_any_proper_rep_is_a_class_residue():
    rng = random.Random(12)
    for _ in range(20):
        m = rng.choice([m for m in range(-20, 21) if m != 0])
        reps = brute_force_proper(F2, m, 50)
        allowed = set(residue_classes(2, m))
        for (x, y) in reps:
            assert proper_residue(F2, m, x, y) in allowed


def test_solve_rejects_a_wrong_residue(monkeypatch):
    monkeypatch.setattr(solver, "residue_classes", lambda delta, m, cap=None: [1, 3])
    with pytest.raises(InternalLimit, match="residue 1"):
        solve_proper(F2, 7)


def test_solve_rejects_a_wrong_automorph(monkeypatch):
    monkeypatch.setattr(solver, "stabilizer_generator",
                        lambda f, cap=None: stabilizer_generator(Form(1, 0, -3)))
    with pytest.raises(InternalLimit, match="certificate"):
        solve_proper(F2, 7)


def test_solve_computes_the_automorph_of_f_once(monkeypatch):
    calls = []

    def counted(f, cap=None):
        calls.append(f)
        return stabilizer_generator(f, cap)

    monkeypatch.setattr(solver, "stabilizer_generator", counted)
    assert len(solve_proper(F2, 7).classes) == 2
    assert calls == [F2]
    calls.clear()
    assert solve_proper(F2, 3).classes == ()
    assert calls == []


def _random_indefinite_form(rng, span=30):
    while True:
        try:
            return Form(*(rng.randint(-span, span) for _ in range(3)))
        except InvalidDiscriminant:
            pass


def test_every_class_shares_the_positive_trace_automorph_of_f():
    # the generator transported from each attached form, h0 * a * h0^-1,
    # is the same matrix as f's own generator signed to positive trace
    rng = random.Random(2008)
    checked = 0
    for i in range(240):
        f = _random_indefinite_form(rng)
        x, y = rng.randint(-40, 40), rng.randint(1, 40)
        m = f(x, y) if i % 2 and math.gcd(x, y) == 1 and f(x, y) else \
            rng.choice([-1, 1]) * rng.randint(1, 10**6)
        g = stabilizer_generator(f)
        g = -g if g.trace < 0 else g
        for c in solve_proper(f, m).classes:
            h0 = c.base_matrix
            assert c.automorph == h0 * stabilizer_generator(c.attached) * h0.inv() == g
            checked += 1
    assert checked >= 200


def test_solutions_match_sympy_diop_DN():
    # every primitive solution sympy finds for x^2 - D*y^2 = N lies in a class
    diop_DN = pytest.importorskip("sympy.solvers.diophantine.diophantine").diop_DN
    found = 0
    for delta in (2, 3, 5, 7, 13, 21, 61, 94):
        f = Form(1, 0, -delta)
        for n in [n for n in range(-30, 31) if n]:
            report = solve_proper(f, n)
            for x, y in diop_DN(delta, n):
                if math.gcd(x, y) == 1:
                    bound = max(abs(x), abs(y))
                    assert any((x, y) in enumerate_solutions(c, bound) for c in report.classes)
                    found += 1
    assert found >= 200


def test_proper_residue_rejects_a_wrong_completion(monkeypatch):
    monkeypatch.setattr(solver, "_egcd", lambda a, b: (1, 0, 0))
    with pytest.raises(InternalLimit, match="completion"):
        proper_residue(F2, 7, 3, 1)


def test_verify_representation_examples():
    assert verify_representation(F2, 7, 3, 1) == (True, True)
    assert verify_representation(F2, 7, 6, 2) == (False, False)
    assert verify_representation(F2, 4, 2, 0) == (True, False)
