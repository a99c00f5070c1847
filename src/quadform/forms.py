"""Binary quadratic forms [a,b,c] meaning a*X^2 + 2b*X*Y + c*Y^2.

The middle coefficient is stored halved (even-middle convention), so the
discriminant is b^2 - a*c, here always positive and nonsquare.  Forms carry
a right substitution action of GL(2,Z); each form corresponds to the
quadratic irrational (-b - sqrt(disc))/a, and a substitution h acts on
roots as the inverse Mobius map.  That correspondence turns SL-equivalence
of forms into existence of a determinant +1 morphism between root orbits,
and form stabilizers into cycle loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DiscriminantMismatch, InternalLimit, InvalidDiscriminant, NotAFormRoot
from .exact import QuadIrr, is_square
from .groupoid import cycle_loop, hom_in_H, orbit
from .lattice import Mat2, PMat


@dataclass(frozen=True)
class Form:
    """Indefinite integral form [a, b, c] with nonsquare b^2 - a*c > 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        d = self.b * self.b - self.a * self.c
        if d <= 0 or is_square(d):
            raise InvalidDiscriminant(
                f"form [{self.a},{self.b},{self.c}] has discriminant {d}; "
                "need positive nonsquare"
            )

    @property
    def disc(self) -> int:
        return self.b * self.b - self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + 2 * self.b * x * y + self.c * y * y

    def __str__(self):
        return f"[{self.a},{self.b},{self.c}]"


def act(f: Form, h: Mat2 | PMat) -> Form:
    """Right substitution action X -> p*X'+q*Y', Y -> r*X'+s*Y'."""
    m = h.rep if isinstance(h, PMat) else h
    a2 = f(m.p, m.r)
    b2 = f.a * m.p * m.q + f.b * (m.p * m.s + m.q * m.r) + f.c * m.r * m.s
    c2 = f(m.q, m.s)
    return Form(a2, b2, c2)


def root(f: Form) -> QuadIrr:
    """The quadratic irrational (-b - sqrt(disc)) / a."""
    return QuadIrr(f.disc, -f.b, -1, f.a)


def form_from_root(x: QuadIrr) -> Form:
    """The unique form whose root is x; inverse of ``root``.

    (p + q*sqrt(D))/r = (-b - sqrt(D))/a gives a = -r/q and b = p/q, and
    then c = (b^2 - D)/a; each must divide exactly.
    """
    a, rem = divmod(-x.r, x.q)
    if rem:
        raise NotAFormRoot(f"{x}: leading coefficient {-x.r}/{x.q} is not an integer")
    b, rem = divmod(x.p, x.q)
    if rem:
        raise NotAFormRoot(f"{x}: middle coefficient {x.p}/{x.q} is not an integer")
    c, rem = divmod(b * b - x.delta, a)
    if rem:
        raise NotAFormRoot(f"{x}: trailing coefficient {b * b - x.delta}/{a} "
                           "is not an integer")
    f = Form(a, b, c)
    if root(f) != x:
        raise InternalLimit(f"form of root {x} failed its certificate")
    return f


def equivalent_sl(f1: Form, f2: Form, cap: int | None = None) -> Mat2 | None:
    """Some h in SL(2,Z) with act(f1, h) = f2, or None.

    A determinant +1 morphism g between the roots gives h = g^(-1); either
    sign lift works because the action ignores sign.
    """
    if f1.disc != f2.disc:
        raise DiscriminantMismatch(f"disc {f1.disc} vs {f2.disc}")
    g = hom_in_H(root(f1), root(f2), cap)
    if g is None:
        return None
    h = g.mat.rep.inv()
    if act(f1, h) != f2:
        raise InternalLimit(f"substitution from {f1} to {f2} failed its certificate")
    return h


def stabilizer_generator(f: Form, cap: int | None = None) -> Mat2:
    """A non-trivial substitution fixing f whose sign class generates the
    full determinant +1 stabilizer.

    The loop around the cycle at the root (doubled when the cycle length is
    odd, to land back on determinant +1), transported along the preperiod.
    """
    x = root(f)
    h = cycle_loop(x, 1 + orbit(x, cap).cycle_len % 2, cap).mat.rep
    if act(f, h) != f or h in (Mat2.identity(), -Mat2.identity()):
        raise InternalLimit(f"stabilizer of {f} failed its certificate")
    return h


def pell_fundamental(delta: int, cap: int | None = None) -> tuple[int, int]:
    """Minimal t, u >= 1 with t^2 - delta*u^2 = 1, read off the stabilizer
    generator of [1, 0, -delta]."""
    h = stabilizer_generator(Form(1, 0, -delta), cap)
    t = abs(h.trace) // 2
    u = abs(h.r)
    if t * t - delta * u * u != 1:
        raise InternalLimit(f"Pell solution for {delta} failed its certificate")
    return t, u
