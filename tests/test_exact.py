import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quadform import (
    DiscriminantMismatch,
    DivisionByZero,
    InvalidArgument,
    InvalidDiscriminant,
    NotIrrational,
    QuadIrr,
    isqrt,
    qi_floor,
    qi_make,
)
from helpers import NONSQUARE_SMALL, floor_oracle, random_point, sign_oracle

DELTAS = st.sampled_from(NONSQUARE_SMALL)


@st.composite
def quadirrs(draw, delta=None):
    d = delta if delta is not None else draw(DELTAS)
    u = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
    v = Fraction(draw(st.integers(-30, 30).filter(lambda n: n != 0)),
                 draw(st.integers(1, 12)))
    return QuadIrr(d, u.numerator * v.denominator, v.numerator * u.denominator,
                   u.denominator * v.denominator)


# -- isqrt ----------------------------------------------------------------


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(13) == 3
    assert isqrt(10**18) == 10**9


def test_isqrt_negative():
    with pytest.raises(InvalidArgument):
        isqrt(-1)


@given(st.integers(0, 10**40))
def test_isqrt_bracket(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


# -- construction ----------------------------------------------------------


def test_make_reduces_common_factor():
    x = qi_make(2, 2, 2, 2)
    assert x.u == 1 and x.v == 1


def test_make_rejects_square_discriminant():
    with pytest.raises(InvalidDiscriminant):
        qi_make(0, 1, 1, 4)
    with pytest.raises(InvalidDiscriminant):
        qi_make(0, 1, 1, -3)


def test_make_rejects_rational():
    with pytest.raises(NotIrrational):
        qi_make(5, 0, 3, 2)


def test_make_rejects_zero_denominator():
    with pytest.raises(DivisionByZero):
        qi_make(1, 1, 0, 2)


@given(st.integers(-20, 20), st.integers(-20, 20).filter(lambda n: n != 0),
       st.integers(-20, 20).filter(lambda n: n != 0),
       st.integers(-9, 9).filter(lambda n: n != 0), DELTAS)
def test_make_scaling_invariance(p, q, r, k, delta):
    x, y = qi_make(p, q, r, delta), qi_make(k * p, k * q, k * r, delta)
    assert x == y
    assert hash(x) == hash(y)
    assert y.r > 0 and math.gcd(y.p, y.q, y.r) == 1


# -- field arithmetic -------------------------------------------------------


def test_sub_cancels_rational_part():
    x = qi_make(1, 1, 1, 2) - 1
    assert x == qi_make(0, 1, 1, 2)


def test_mul_degrades_to_rational():
    s = qi_make(0, 1, 1, 2)
    assert s * s == Fraction(2)


def test_inverse_rationalizes():
    # 1 / (sqrt2 - 1): verify by multiplying back, then against 1 + sqrt2
    s = qi_make(0, 1, 1, 2)
    inv = 1 / (s - 1)
    assert inv * (s - 1) == Fraction(1)
    assert inv == qi_make(1, 1, 1, 2)


def test_mixed_delta_rejected():
    with pytest.raises(DiscriminantMismatch):
        qi_make(0, 1, 1, 2) + qi_make(0, 1, 1, 3)


def test_divide_by_zero_rational():
    with pytest.raises(DivisionByZero):
        qi_make(0, 1, 1, 2) / 0


@given(quadirrs(delta=5), quadirrs(delta=5), quadirrs(delta=5))
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(quadirrs())
def test_multiplicative_inverse(x):
    assert x * x.inverse() == Fraction(1)
    assert x.inverse() == 1 / x


@given(quadirrs(delta=13), quadirrs(delta=13))
def test_conjugation_is_a_field_map(x, y):
    assert (x + y if isinstance(x + y, Fraction) else (x + y).conjugate()) \
        == (x.conjugate() + y.conjugate())
    lhs = x * y
    rhs = x.conjugate() * y.conjugate()
    assert (lhs if isinstance(lhs, Fraction) else lhs.conjugate()) == rhs
    div = x / y
    assert (div if isinstance(div, Fraction) else div.conjugate()) \
        == x.conjugate() / y.conjugate()


# -- floor -------------------------------------------------------------------


def test_floor_examples():
    assert qi_floor(qi_make(0, 1, 1, 2)) == 1
    # (-1-sqrt13)/3: bracket -6 <= -1-sqrt13 < -3 since 2^2 < 13 < 5^2
    assert 2 * 2 < 13 < 5 * 5
    assert qi_floor(qi_make(-1, -1, 3, 13)) == -2
    # (3+sqrt13)/4: bracket 4 <= 3+sqrt13 < 8
    assert qi_floor(qi_make(3, 1, 4, 13)) == 1


@given(quadirrs())
@settings(deadline=None)
def test_floor_bracket(x):
    k = qi_floor(x)
    assert k <= x
    assert x < k + 1


@given(quadirrs())
@settings(deadline=None)
def test_floor_shift_by_integers(x):
    assert qi_floor(x + 7) == qi_floor(x) + 7
    assert qi_floor(x - 3) == qi_floor(x) - 3


def test_floor_against_interval_oracle():
    rng = random.Random(411)
    for _ in range(10**4):
        delta = rng.choice(NONSQUARE_SMALL + [61, 211, 1021])
        x = random_point(rng, delta, span=60)
        assert qi_floor(x) == floor_oracle(x)


# -- comparisons ---------------------------------------------------------------


@given(quadirrs(delta=7), quadirrs(delta=7))
def test_order_matches_sign_oracle(x, y):
    assert (x < y) + (x == y) + (x > y) == 1
    diff = x - y
    if isinstance(diff, Fraction):
        assert (x < y) == (diff < 0)
    else:
        assert (x < y) == (sign_oracle(diff) < 0)


def test_order_near_integer_boundary():
    # 665857/470832 is a convergent of sqrt2: exact comparison must still win
    s = qi_make(0, 1, 1, 2)
    close = Fraction(665857, 470832)
    assert (s < close) != (s > close)
    assert (s * s == Fraction(2))
    assert s > Fraction(665857, 470833)
