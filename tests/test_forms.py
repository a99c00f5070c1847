import math
import random

import pytest

from quadform import (
    DiscriminantMismatch,
    Form,
    InternalLimit,
    InvalidDiscriminant,
    Mat2,
    NotAFormRoot,
    act,
    cycle_loop,
    equivalent_sl,
    form_from_root,
    mobius_apply,
    pell_fundamental,
    qi_make,
    root,
    stabilizer_generator,
)
from quadform import forms
from helpers import (
    automorphs_by_scan,
    matrices_to_form_by_scan,
    pell_brute_force,
    pell_convergents,
    random_form,
    random_sl_word,
    signed_powers_within,
)


def test_disc_examples():
    assert Form(1, 0, -2).disc == 2
    assert Form(7, 4, 2).disc == 2
    assert Form(-2, 3, 2).disc == 13


def test_form_rejects_bad_discriminant():
    with pytest.raises(InvalidDiscriminant):
        Form(1, 0, 2)  # disc -2
    with pytest.raises(InvalidDiscriminant):
        Form(1, 3, 0)  # disc 9, square


def test_act_examples():
    f = Form(1, 0, -2)
    assert act(f, Mat2.identity()) == f
    assert act(f, Mat2(3, 2, 1, 1)) == Form(7, 4, 2)
    assert act(f, Mat2(3, 4, 2, 3)) == f  # automorph


def test_act_is_a_right_action():
    rng = random.Random(21)
    for _ in range(100):
        f = random_form(rng, rng.choice([2, 5, 13, 17]))
        h1, h2 = random_sl_word(rng), random_sl_word(rng)
        assert act(act(f, h1), h2) == act(f, h1 * h2)
        assert act(f, -h1) == act(f, h1)
        assert act(f, h1).disc == f.disc


def test_root_examples():
    # (-b - sqrt(disc)) / a, checked by direct substitution
    assert root(Form(1, 0, -2)) == qi_make(0, -1, 1, 2)
    assert root(Form(-2, 3, 2)) == qi_make(3, 1, 2, 13)
    assert root(Form(7, 4, 2)) == qi_make(-4, -1, 7, 2)


def test_root_is_a_zero_of_the_form():
    rng = random.Random(22)
    for _ in range(100):
        f = random_form(rng, rng.choice([2, 3, 13, 19]))
        x = root(f)
        assert f.a * x * x + 2 * f.b * x + f.c == 0
        assert x.delta == f.disc


def test_form_from_root_examples():
    assert form_from_root(qi_make(0, -1, 1, 2)) == Form(1, 0, -2)
    assert form_from_root(qi_make(3, 1, 2, 13)) == Form(-2, 3, 2)
    with pytest.raises(NotAFormRoot):
        form_from_root(qi_make(1, 1, 3, 2))  # trailing coefficient 1/3
    with pytest.raises(NotAFormRoot, match="leading"):
        form_from_root(qi_make(0, 2, 1, 2))  # leading coefficient -1/2
    with pytest.raises(NotAFormRoot, match="middle"):
        form_from_root(qi_make(1, 2, 4, 2))  # middle coefficient 1/2


def test_root_and_form_from_root_inverse():
    rng = random.Random(23)
    for _ in range(200):
        f = random_form(rng, rng.choice([2, 5, 13, 61]))
        assert form_from_root(root(f)) == f


def test_root_intertwines_substitution():
    # root(f*h) = h^(-1) * root(f) for det +1 substitutions, exactly
    rng = random.Random(24)
    for _ in range(200):
        f = random_form(rng, rng.choice([2, 3, 5, 13, 61]))
        h = random_sl_word(rng)
        assert root(act(f, h)) == mobius_apply(h.inv(), root(f))


def test_equivalent_sl_examples():
    f1, f2 = Form(1, 0, -2), Form(7, 4, 2)
    h = equivalent_sl(f1, f2)
    assert h is not None and h.det == 1
    assert act(f1, h) == f2

    assert equivalent_sl(Form(1, 0, -13), Form(-2, 3, 2)) is None
    # exhaustive first-column scan finds nothing either
    assert matrices_to_form_by_scan(Form(1, 0, -13), Form(-2, 3, 2), 30) == set()

    f = Form(1, 0, -2)
    elt = equivalent_sl(f, f)
    assert act(f, elt) == f


def test_equivalent_sl_requires_same_disc():
    with pytest.raises(DiscriminantMismatch):
        equivalent_sl(Form(1, 0, -2), Form(1, 0, -3))


def test_equivalent_sl_agrees_with_scan_positives():
    rng = random.Random(25)
    for _ in range(40):
        delta = rng.choice([2, 3, 5, 13])
        f1 = random_form(rng, delta, span=6)
        f2 = random_form(rng, delta, span=6)
        scan = matrices_to_form_by_scan(f1, f2, 25)
        ours = equivalent_sl(f1, f2)
        if scan:
            assert ours is not None
        if ours is not None:
            assert act(f1, ours) == f2


def test_stabilizer_generator_examples():
    a = stabilizer_generator(Form(1, 0, -2))
    expected = Mat2(3, 4, 2, 3)
    assert a in {expected, expected.inv(), -expected, -expected.inv()}

    a = stabilizer_generator(Form(-1, 1, 1))
    expected = Mat2(5, 2, 2, 1)
    assert a in {expected, expected.inv(), -expected, -expected.inv()}

    # [-2,3,2] has content 2; its stabilizer is strictly larger than the
    # even-Pell automorphs: the generator has trace 11 and its cube is the
    # (t,u)=(649,180) automorph
    f = Form(-2, 3, 2)
    a = stabilizer_generator(f)
    assert act(f, a) == f
    assert a not in (Mat2.identity(), -Mat2.identity())
    assert abs(a.trace) == 11
    pell_auto = Mat2(649 - 3 * 180, -2 * 180, -2 * 180, 649 + 3 * 180)
    assert act(f, pell_auto) == f
    assert pell_auto in signed_powers_within(a, 10**4, 10**5)


def test_stabilizer_contains_automorph_formula():
    # [[t - b*u, -c*u], [a*u, t + b*u]] at the fundamental (t, u) always
    # fixes f and is a signed power of the generator (equal to it up to
    # sign and inversion when f is primitive with even-order stabilizer)
    rng = random.Random(26)
    for _ in range(50):
        delta = rng.choice([2, 3, 5, 13])
        f = random_form(rng, delta, span=8)
        t, u = pell_fundamental(delta)
        std = Mat2(t - f.b * u, -f.c * u, f.a * u, t + f.b * u)
        got = stabilizer_generator(f)
        assert act(f, std) == f
        bound = 10 * std.max_abs()
        assert std in signed_powers_within(got, bound, 100 * bound)


def test_stabilizer_generates_all_bounded_automorphs():
    # small-scale version of the acceptance criterion
    for delta in (2, 5):
        for f in (Form(1, 0, -delta), Form(-1, 0, delta)):
            gen = stabilizer_generator(f)
            allowed = signed_powers_within(gen, 200, 2 * 10**6)
            assert automorphs_by_scan(f, 200) <= allowed


def test_pell_examples():
    assert pell_fundamental(2) == (3, 2) == pell_brute_force(2, 10)
    assert pell_fundamental(13) == (649, 180) == pell_brute_force(13, 1000)
    t, u = pell_fundamental(61)
    assert (t, u) == (1766319049, 226153980)
    assert t * t - 61 * u * u == 1
    assert pell_convergents(61) == (t, u)


def test_pell_minimal_for_small_deltas():
    for delta in range(2, 51):
        if math.isqrt(delta) ** 2 == delta:
            continue
        t, u = pell_fundamental(delta)
        assert t * t - delta * u * u == 1
        assert (t, u) == pell_brute_force(delta, u)


def test_pell_rejects_bad_delta():
    with pytest.raises(InvalidDiscriminant):
        pell_fundamental(9)
    with pytest.raises(InvalidDiscriminant):
        pell_fundamental(0)


def test_pell_matches_sympy():
    diop_DN = pytest.importorskip("sympy.solvers.diophantine.diophantine").diop_DN
    for delta in range(2, 2000):
        if math.isqrt(delta) ** 2 != delta:
            assert pell_fundamental(delta) == diop_DN(delta, 1)[0], delta


# Each certificate check must reject a corrupted intermediate with
# InternalLimit, so it still runs under python -O.

def test_form_from_root_rejects_a_wrong_root(monkeypatch):
    x = root(Form(7, 4, 2))
    wrong = root(Form(1, 0, -2))
    monkeypatch.setattr(forms, "root", lambda f: wrong)
    with pytest.raises(InternalLimit, match="certificate"):
        form_from_root(x)


def test_equivalent_sl_rejects_a_wrong_morphism(monkeypatch):
    hom = forms.hom_in_H
    monkeypatch.setattr(forms, "hom_in_H", lambda x, y, cap=None: hom(x, x, cap))
    with pytest.raises(InternalLimit, match="certificate"):
        equivalent_sl(Form(1, 0, -2), Form(7, 4, 2))


@pytest.mark.parametrize("wrong", [
    lambda x, winding, cap: cycle_loop(root(Form(1, 0, -3)), winding, cap),
    lambda x, winding, cap: forms.hom_in_H(x, x, cap),
], ids=["fixes another form", "identity"])
def test_stabilizer_generator_rejects_a_wrong_loop(monkeypatch, wrong):
    monkeypatch.setattr(forms, "cycle_loop", lambda x, winding=1, cap=None: wrong(x, winding, cap))
    with pytest.raises(InternalLimit, match="certificate"):
        stabilizer_generator(Form(1, 0, -2))


def test_pell_fundamental_rejects_a_wrong_stabilizer(monkeypatch):
    monkeypatch.setattr(forms, "stabilizer_generator",
                        lambda f, cap=None: stabilizer_generator(Form(1, 0, -3)))
    with pytest.raises(InternalLimit, match="certificate"):
        pell_fundamental(2)
