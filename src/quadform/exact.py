"""Exact arithmetic: big integers, rationals, and quadratic irrationals.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (normalized, positive denominator), and ``QuadIrr``
represents (p + q*sqrt(delta))/r for a fixed positive nonsquare delta as the
integer triple (p, q, r) in lowest terms: r > 0, gcd(p, q, r) = 1, q != 0.
Every operation works on those integers, a rational operand n/d taking part
as (n, 0, d), and a result whose sqrt coefficient cancels comes back as a
Fraction.  Every comparison and floor is decided by exact integer
arithmetic; floating point never influences a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

from .errors import (
    DiscriminantMismatch,
    DivisionByZero,
    InvalidArgument,
    InvalidDiscriminant,
    NotIrrational,
)


def isqrt(n: int) -> int:
    """Integer square root: the unique r with r*r <= n < (r+1)*(r+1)."""
    if n < 0:
        raise InvalidArgument(f"isqrt of negative value {n}")
    return math.isqrt(n)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@lru_cache(maxsize=1024)
def check_discriminant(delta: int) -> int:
    """Validate that delta is a positive nonsquare integer and return it."""
    if delta <= 0 or is_square(delta):
        raise InvalidDiscriminant(f"delta must be positive and nonsquare, got {delta}")
    return delta


def _sign_quad(p: int, q: int, delta: int) -> int:
    """Sign of p + q*sqrt(delta), by sign analysis and squaring."""
    if p == 0 or q == 0 or (p > 0) == (q > 0):
        return (p + q > 0) - (p + q < 0)
    # opposite signs: the term with the larger square wins (equal squares
    # would make sqrt(delta) rational)
    lead = p if p * p > q * q * delta else q
    return 1 if lead > 0 else -1


# Triples (p, q, r) stand for (p + q*sqrt(delta))/r with r != 0.

def _add(x: tuple, y: tuple) -> tuple:
    return x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2]


def _neg(x: tuple) -> tuple:
    return -x[0], -x[1], x[2]


def _mul(x: tuple, y: tuple, delta: int) -> tuple:
    return (x[0] * y[0] + x[1] * y[1] * delta, x[0] * y[1] + x[1] * y[0],
            x[2] * y[2])


def _inv(x: tuple, delta: int) -> tuple:
    p, q, r = x
    norm = p * p - q * q * delta
    # norm = 0 only for a rational zero, since sqrt(delta) is irrational
    if norm == 0:
        raise DivisionByZero("division by zero")
    return r * p, -r * q, norm


def _result(delta: int, x: tuple):
    """The triple as a QuadIrr, or as a Fraction when q cancels."""
    return QuadIrr(delta, *x) if x[1] else Fraction(x[0], x[2])


@dataclass(frozen=True)
class QuadIrr:
    """The real quadratic irrational (p + q*sqrt(delta))/r in lowest terms."""

    delta: int
    p: int
    q: int
    r: int

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        if r == 0:
            raise DivisionByZero("zero denominator r")
        check_discriminant(self.delta)
        if q == 0:
            raise NotIrrational("q = 0 gives a rational value")
        g = math.gcd(r, p, q)
        if r < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "p", p // g)
            object.__setattr__(self, "q", q // g)
            object.__setattr__(self, "r", r // g)

    @property
    def u(self) -> Fraction:
        """Rational part p/r."""
        return Fraction(self.p, self.r)

    @property
    def v(self) -> Fraction:
        """Coefficient q/r of sqrt(delta)."""
        return Fraction(self.q, self.r)

    # -- arithmetic ---------------------------------------------------

    def _triple(self, other):
        """other as a same-delta triple, a rational n/d as (n, 0, d); None
        for any other type."""
        if isinstance(other, QuadIrr):
            if other.delta != self.delta:
                raise DiscriminantMismatch(
                    f"cannot mix sqrt({self.delta}) with sqrt({other.delta})"
                )
            return other.p, other.q, other.r
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return _result(self.delta, _add((self.p, self.q, self.r), o))

    __radd__ = __add__

    def __neg__(self):
        return QuadIrr(self.delta, -self.p, -self.q, self.r)

    def __sub__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return _result(self.delta, _add((self.p, self.q, self.r), _neg(o)))

    def __rsub__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return _result(self.delta, _add(o, _neg((self.p, self.q, self.r))))

    def __mul__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return _result(self.delta, _mul((self.p, self.q, self.r), o, self.delta))

    __rmul__ = __mul__

    def inverse(self) -> "QuadIrr":
        """Exact 1/x; always irrational again."""
        return QuadIrr(self.delta, *_inv((self.p, self.q, self.r), self.delta))

    def __truediv__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return _result(self.delta,
                       _mul((self.p, self.q, self.r), _inv(o, self.delta), self.delta))

    def __rtruediv__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return _result(self.delta,
                       _mul(o, _inv((self.p, self.q, self.r), self.delta), self.delta))

    def conjugate(self) -> "QuadIrr":
        """Galois conjugate (p - q*sqrt(delta))/r."""
        return QuadIrr(self.delta, self.p, -self.q, self.r)

    # -- order --------------------------------------------------------

    def _cmp(self, other) -> int:
        """Sign of self - other, exactly (both denominators are positive)."""
        o = self._triple(other)
        if o is None:
            raise TypeError(f"cannot compare QuadIrr with {type(other).__name__}")
        p, q, _ = _add((self.p, self.q, self.r), _neg(o))
        return _sign_quad(p, q, self.delta)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __str__(self):
        return f"({self.p}{self.q:+}*sqrt({self.delta}))/{self.r}"


def qi_make(p: int, q: int, r: int, delta: int) -> QuadIrr:
    """Build (p + q*sqrt(delta)) / r in lowest terms."""
    return QuadIrr(delta, p, q, r)


def qi_floor(x: QuadIrr) -> int:
    """The unique k with k <= x < k+1, by exact integer arithmetic.

    With x = (p + q*sqrt(D))/r and r > 0, q*sqrt(D) is irrational, so
    floor(q*sqrt(D)) comes from an isqrt bracket and never sits on the
    boundary; floor(x) is then floor((p + floor(q*sqrt(D))) / r).
    """
    s = isqrt(x.q * x.q * x.delta)
    t = s if x.q > 0 else -s - 1
    return (x.p + t) // x.r
