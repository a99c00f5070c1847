from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quadform import (
    InternalLimit,
    Mat2,
    NotUnimodular,
    PMat,
    QuadIrr,
    generator_matrix,
    mobius_apply,
    pmat_canon,
    qi_make,
)
from helpers import NONSQUARE_SMALL

I = Mat2.identity()


@st.composite
def unimodulars(draw):
    m = I
    for _ in range(draw(st.integers(0, 8))):
        m = m * generator_matrix(draw(st.integers(-9, 9)))
    return m


@st.composite
def points(draw):
    d = draw(st.sampled_from(NONSQUARE_SMALL))
    return qi_make(draw(st.integers(-20, 20)),
                   draw(st.integers(-20, 20).filter(lambda n: n != 0)),
                   draw(st.integers(1, 12)), d)


def test_mul_examples():
    assert Mat2(1, 1, 1, 0) * Mat2(2, 1, 1, 0) == Mat2(3, 1, 2, 1)
    a = Mat2(5, 2, 2, 1)
    assert a * I == a
    assert a * a.inv() == I


def test_inv_examples():
    assert Mat2(1, 1, 1, 0).inv() == Mat2(0, 1, 1, -1)
    assert Mat2(5, 2, 2, 1).inv() == Mat2(1, -2, -2, 5)
    assert I.inv() == I


def test_non_unimodular_unrepresentable():
    with pytest.raises(NotUnimodular):
        Mat2(2, 0, 0, 1)
    with pytest.raises(NotUnimodular):
        Mat2(1, 2, 2, 4)


def test_pow():
    g = Mat2(2, 1, 1, 0)
    assert g**2 == Mat2(5, 2, 2, 1)
    assert g**0 == I
    assert g**-1 == g.inv()


def test_canon_examples():
    assert pmat_canon(Mat2(-1, 0, 0, -1)) == PMat(I)
    assert pmat_canon(Mat2(0, -1, 1, 0)).rep == Mat2(0, 1, -1, 0)
    assert pmat_canon(Mat2(2, 1, 1, 0)).rep == Mat2(2, 1, 1, 0)


@given(unimodulars())
def test_canon_identifies_sign_classes(m):
    assert pmat_canon(m) == pmat_canon(-m)
    assert pmat_canon(m).det == m.det
    assert pmat_canon(pmat_canon(m).rep) == pmat_canon(m)


def test_mobius_examples():
    silver = qi_make(1, 1, 1, 2)
    sqrt2 = qi_make(0, 1, 1, 2)
    assert mobius_apply(I, silver) == silver
    assert mobius_apply(Mat2(1, 1, 1, 0), silver) == sqrt2
    assert mobius_apply(Mat2(0, 1, 1, 0), sqrt2) == qi_make(0, 1, 2, 2)


@given(unimodulars(), unimodulars(), points())
@settings(deadline=None, max_examples=60)
def test_mobius_is_an_action(a, b, x):
    assert mobius_apply(a * b, x) == mobius_apply(a, mobius_apply(b, x))


@given(unimodulars(), points())
@settings(deadline=None)
def test_mobius_ignores_sign_and_keeps_delta(a, x):
    y = mobius_apply(a, x)
    assert y == mobius_apply(-a, x)
    assert y == mobius_apply(pmat_canon(a), x)
    assert y.delta == x.delta


def test_mobius_rejects_a_rational_image(monkeypatch):
    # a unimodular map keeps irrationals irrational; a broken division must
    # not slip through as a point
    monkeypatch.setattr(QuadIrr, "__truediv__", lambda self, other: Fraction(1, 2))
    with pytest.raises(InternalLimit, match="certificate"):
        mobius_apply(Mat2(1, 1, 1, 0), qi_make(1, 1, 1, 2))


def test_first_column_examples():
    assert Mat2(3, 2, 1, 1).first_column() == (3, 1)
    assert I.first_column() == (1, 0)
    assert Mat2(5, 3, 3, 2).first_column() == (5, 3)
