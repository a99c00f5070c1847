"""Unimodular 2x2 integer matrices and their projective action.

``Mat2`` is an element of GL(2,Z); ``PMat`` is its class modulo {+1,-1},
canonicalized so the first nonzero entry in reading order is positive.
``mobius_apply`` is the linear fractional action on quadratic irrationals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalLimit, NotUnimodular
from .exact import QuadIrr


@dataclass(frozen=True)
class Mat2:
    """Integer matrix [[p, q], [r, s]] with determinant +1 or -1."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        d = self.p * self.s - self.q * self.r
        if d not in (1, -1):
            raise NotUnimodular(f"determinant {d} not in {{+1, -1}}")
        object.__setattr__(self, "_det", d)

    @property
    def det(self) -> int:
        return self._det

    @property
    def trace(self) -> int:
        return self.p + self.s

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.p, -self.q, -self.r, -self.s)

    def inv(self) -> "Mat2":
        d = self.det
        return Mat2(d * self.s, -d * self.q, -d * self.r, d * self.p)

    def __pow__(self, k: int) -> "Mat2":
        """k-th power by repeated squaring: O(log|k|) products."""
        base = self if k >= 0 else self.inv()
        out = Mat2.identity()
        k = abs(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def apply(self, x: int, y: int) -> tuple[int, int]:
        """Matrix times column vector."""
        return (self.p * x + self.q * y, self.r * x + self.s * y)

    def first_column(self) -> tuple[int, int]:
        return (self.p, self.r)

    def max_abs(self) -> int:
        return max(abs(self.p), abs(self.q), abs(self.r), abs(self.s))

    def __str__(self):
        return f"[[{self.p},{self.q}],[{self.r},{self.s}]]"


@dataclass(frozen=True)
class PMat:
    """Sign class {M, -M}; rep has its first nonzero entry positive."""

    rep: Mat2

    def __post_init__(self):
        for entry in (self.rep.p, self.rep.q, self.rep.r, self.rep.s):
            if entry > 0:
                break
            if entry < 0:
                object.__setattr__(self, "rep", -self.rep)
                break

    @property
    def det(self) -> int:
        return self.rep.det

    @classmethod
    def identity(cls) -> "PMat":
        return cls(Mat2.identity())

    def __mul__(self, other: "PMat") -> "PMat":
        return PMat(self.rep * other.rep)

    def inv(self) -> "PMat":
        return PMat(self.rep.inv())

    def __str__(self):
        return f"+-{self.rep}"


def pmat_canon(a: Mat2 | PMat) -> PMat:
    return a if isinstance(a, PMat) else PMat(a)


def mobius_apply(a: Mat2 | PMat, x: QuadIrr) -> QuadIrr:
    """(p*x + q) / (r*x + s); the same for a and -a."""
    m = a.rep if isinstance(a, PMat) else a
    res = (m.p * x + m.q) / (m.r * x + m.s)
    if not isinstance(res, QuadIrr):  # a unimodular map keeps irrationals irrational
        raise InternalLimit(f"{a} maps {x} to the rational {res}: certificate failed")
    return res
