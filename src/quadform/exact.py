"""Exact arithmetic: big integers, rationals, and quadratic irrationals.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (normalized, positive denominator), and ``QuadIrr``
represents u + v*sqrt(delta) for a fixed positive nonsquare delta with
rational u, v and v != 0.  Every comparison and floor is decided by exact
integer arithmetic; floating point never influences a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DiscriminantMismatch,
    DivisionByZero,
    InvalidArgument,
    InvalidDiscriminant,
    NotIrrational,
)

Rat = Fraction


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


_KNOWN_DELTAS: set[int] = set()


def check_discriminant(delta: int) -> int:
    """Validate that delta is a positive nonsquare integer and return it."""
    if delta in _KNOWN_DELTAS:
        return delta
    if delta <= 0 or is_square(delta):
        raise InvalidDiscriminant(f"delta must be positive and nonsquare, got {delta}")
    _KNOWN_DELTAS.add(delta)
    return delta


def _sign_quad(u: Fraction, v: Fraction, delta: int) -> int:
    """Sign of u + v*sqrt(delta) with v != 0, by sign analysis and squaring."""
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # opposite signs: compare u^2 against v^2 * delta (both positive)
    lhs = u * u
    rhs = v * v * delta
    # lhs == rhs would make sqrt(delta) rational
    if u > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


@dataclass(frozen=True)
class QuadIrr:
    """The real quadratic irrational u + v*sqrt(delta), v != 0."""

    delta: int
    u: Fraction
    v: Fraction

    def __post_init__(self):
        check_discriminant(self.delta)
        if type(self.u) is not Fraction:
            object.__setattr__(self, "u", Fraction(self.u))
        if type(self.v) is not Fraction:
            object.__setattr__(self, "v", Fraction(self.v))
        if self.v == 0:
            raise NotIrrational("v = 0 gives a rational value")

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        """Return other as Fraction or same-delta QuadIrr, else None."""
        if isinstance(other, QuadIrr):
            if other.delta != self.delta:
                raise DiscriminantMismatch(
                    f"cannot mix sqrt({self.delta}) with sqrt({other.delta})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, QuadIrr):
            return _make(self.delta, self.u + o.u, self.v + o.v)
        return QuadIrr(self.delta, self.u + o, self.v)

    __radd__ = __add__

    def __neg__(self):
        return QuadIrr(self.delta, -self.u, -self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (-self).__add__(o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, QuadIrr):
            return _make(
                self.delta,
                self.u * o.u + self.v * o.v * self.delta,
                self.u * o.v + self.v * o.u,
            )
        if o == 0:
            return Fraction(0)
        return QuadIrr(self.delta, self.u * o, self.v * o)

    __rmul__ = __mul__

    def inverse(self) -> "QuadIrr":
        """Exact 1/x; always irrational again."""
        norm = self.u * self.u - self.v * self.v * self.delta
        # norm = 0 would make sqrt(delta) rational
        return QuadIrr(self.delta, self.u / norm, -self.v / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, QuadIrr):
            return self.__mul__(o.inverse())
        if o == 0:
            raise DivisionByZero("division by zero")
        return QuadIrr(self.delta, self.u / o, self.v / o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.inverse().__mul__(o)

    def conjugate(self) -> "QuadIrr":
        """Galois conjugate u - v*sqrt(delta)."""
        return QuadIrr(self.delta, self.u, -self.v)

    # -- order --------------------------------------------------------

    def _cmp(self, other) -> int:
        """Sign of self - other, exactly."""
        diff = self - other
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return _sign_quad(diff.u, diff.v, diff.delta)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- floor and display --------------------------------------------

    def as_pqr(self) -> tuple[int, int, int]:
        """Return (p, q, r) with r > 0 and self = (p + q*sqrt(delta)) / r."""
        r = math.lcm(self.u.denominator, self.v.denominator)
        return (self.u.numerator * (r // self.u.denominator),
                self.v.numerator * (r // self.v.denominator),
                r)

    def floor(self) -> int:
        return qi_floor(self)

    def __str__(self):
        p, q, r = self.as_pqr()
        return f"({p}{q:+}*sqrt({self.delta}))/{r}"

    def __repr__(self):
        return f"QuadIrr(delta={self.delta}, u={self.u}, v={self.v})"


def _make(delta: int, u: Fraction, v: Fraction):
    """QuadIrr, degrading to Fraction when the sqrt coefficient cancels."""
    if v == 0:
        return u
    return QuadIrr(delta, u, v)


def qi_make(p: int, q: int, r: int, delta: int) -> QuadIrr:
    """Build (p + q*sqrt(delta)) / r in lowest terms."""
    if r == 0:
        raise DivisionByZero("zero denominator r")
    check_discriminant(delta)
    if q == 0:
        raise NotIrrational("q = 0 gives a rational value")
    return QuadIrr(delta, Fraction(p, r), Fraction(q, r))


def qi_floor(x: QuadIrr) -> int:
    """The unique k with k <= x < k+1, by exact integer arithmetic.

    With x = (p + q*sqrt(D))/r and r > 0, q*sqrt(D) is irrational, so
    floor(q*sqrt(D)) comes from an isqrt bracket and never sits on the
    boundary; floor(x) is then floor((p + floor(q*sqrt(D))) / r).
    """
    p, q, r = x.as_pqr()
    s = isqrt(q * q * x.delta)
    t = s if q > 0 else -s - 1
    return (p + t) // r
