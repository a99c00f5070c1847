"""Continued-fraction groupoid machinery on quadratic irrationals.

The derivative map x -> 1/(x - floor(x)) generates, for each point x, one
arrow gamma(x) from x' to x with matrix [[floor(x),1],[1,0]].  Words in
these arrows form a groupoid whose morphisms have a unique reduced shape:
descend i steps along the source orbit, then ascend j steps along the
target orbit.  ``normal_form`` recovers that shape for any unimodular
class, ``compose``/``invert`` work directly on reduced shapes, and
``free_extend`` maps a reduced word into any caller-supplied groupoid.

Orbits are eventually periodic because every point here has degree 2 over
the rationals; indexing past the recorded tail wraps around the cycle, so
loop powers are plain (i, j) pairs with large indices.  An orbit stores
its points as integer pairs and builds a QuadIrr only when asked; every
matrix made from a run of quotients comes from the product tree
``generator_product`` on integer 4-tuples, so no list of prefix matrices
is ever formed.  The stabilizer of a point is cyclic, generated by the
primitive cycle loop, so every morphism x -> y is the base morphism
``hom_base(x, y)`` after a power of that loop: ``normal_form`` finds the
power exactly and costs O(orbit length + log|k|) matrix products for
winding number k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, isqrt

from .errors import ComposeMismatch, DiscriminantMismatch, InternalLimit, InvalidArgument
from .exact import QuadIrr, qi_floor
from .lattice import Mat2, PMat, mobius_apply, pmat_canon

DEFAULT_CAP = 10**6
ORBIT_CACHE_SIZE = 1024


def generator_matrix(a: int) -> Mat2:
    """[[a,1],[1,0]], determinant -1."""
    return Mat2(a, 1, 1, 0)


def generator_product(quotients) -> Mat2:
    """Product of the quotients' generator matrices in order, as a product
    tree on 4-tuples: big entries meet in a few products, not one per
    quotient.  The root's ``Mat2`` determinant check certifies the tree."""
    qs = quotients  # leaves pair generators: [[a,1],[1,0]][[b,1],[1,0]] = [[ab+1,a],[b,1]]
    mats = [(a * b + 1, a, b, 1) for a, b in zip(qs[::2], qs[1::2])] + [
        (a, 1, 1, 0) for a in qs[len(qs) & ~1:]] or [(1, 0, 0, 1)]
    while len(mats) > 1:
        mats = [(p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h)
                for (p, q, r, s), (e, f, g, h) in zip(mats[::2], mats[1::2])
                ] + mats[len(mats) & ~1:]
    return Mat2(*mats[0])


def derivative(x: QuadIrr) -> tuple[int, QuadIrr]:
    """Partial quotient floor(x) and next complete quotient 1/(x - floor(x))."""
    a = qi_floor(x)
    # x - a = (p', q, r) with p' = p - a*r; its reciprocal is
    # r*(p' - q*sqrt(D)) / (p'^2 - q^2*D)
    p = x.p - a * x.r
    return a, QuadIrr(x.delta, x.r * p, -x.r * x.q, p * p - x.q * x.q * x.delta)


def _point(delta: int, scale: tuple[int, int], key: tuple[int, int]) -> QuadIrr:
    """The pair (P, Q) as a QuadIrr, where sqrt(N) = u/v * sqrt(delta)."""
    return QuadIrr(delta, scale[1] * key[0], scale[0], scale[1] * key[1])


@dataclass(frozen=True)
class Orbit:
    """Derivative trace of a point: the complete quotients x_k as pairs
    keys[k] = (P, Q), meaning (P + sqrt(N))/Q with Q | N - P^2 and
    sqrt(N) = u/v * sqrt(delta) for scale = (u, v); QuadIrrs are built when
    asked.  x = A_k * x_k with A_k the product of the first k generators;
    A_pre, C and the loop matrix are built on first use from product trees."""

    point: QuadIrr
    keys: tuple[tuple[int, int], ...]
    quotients: tuple[int, ...]
    pre_len: int
    scale: tuple[int, int]

    @property
    def cycle_len(self) -> int:
        return len(self.keys) - self.pre_len

    @property
    def length(self) -> int:
        return len(self.keys)

    def _wrap(self, k: int) -> int:  # indices past the tail wrap around the cycle
        n = self.pre_len
        return k if k < n else n + (k - n) % self.cycle_len

    def key_at(self, k: int) -> tuple[int, int]:
        return self.keys[self._wrap(k)]

    def point_at(self, k: int) -> QuadIrr:
        return _point(self.point.delta, self.scale, self.key_at(k))

    def quotient_at(self, k: int) -> int:
        return self.quotients[self._wrap(k)]

    @cached_property
    def preperiod(self) -> tuple[QuadIrr, ...]:
        return tuple(map(self.point_at, range(self.pre_len)))

    @cached_property
    def cycle(self) -> tuple[QuadIrr, ...]:
        return tuple(map(self.point_at, range(self.pre_len, self.length)))

    @cached_property
    def pre_matrix(self) -> Mat2:
        """A_pre, the product of the preperiod's generators."""
        return generator_product(self.quotients[:self.pre_len])

    @cached_property
    def cycle_matrix(self) -> Mat2:
        """C, the product of the cycle's generators."""
        return generator_product(self.quotients[self.pre_len:])

    @cached_property
    def loop_matrix(self) -> Mat2:
        """L = A_pre * C * A_pre^(-1), the matrix of the primitive cycle loop."""
        return self.pre_matrix * self.cycle_matrix * self.pre_matrix.inv()


def _walk(p: int, q: int, n: int, cap: int):
    """PQa steps from (p + sqrt(n))/q until the first reduced pair (x > 1,
    -1 < conjugate < 0: purely periodic by Galois, so the cycle's start)
    comes back.  Returns the pairs, the quotients, the pair it stopped at
    and the cycle's start, or None there when cap pairs came first."""
    s = isqrt(n)
    keys, quots, pre = [], [], None
    while True:
        key = (p, q)
        if pre is not None and key == keys[pre]:
            return keys, quots, key, pre
        if pre is None and p <= s and s - p < q <= s + p:  # reduced
            pre = len(keys)
        if len(keys) >= cap:
            return keys, quots, key, None
        keys.append(key)
        a = (p + s) // q if q > 0 else -((p + s) // -q) - 1
        quots.append(a)
        p = a * q - p
        q = (n - p * p) // q


@lru_cache(maxsize=ORBIT_CACHE_SIZE)
def _orbit_cached(x: QuadIrr, cap: int) -> Orbit:
    # x = (p + q*sqrt(D))/r is a root of [r^2, -pr, p^2 - q^2*D] = h*[a, -b, c/h] with
    # [a, -b, c/h] primitive, so x = (b + sign(q)*sqrt(N))/a, N = (rq/h)^2 * D invariant
    p, q, r = x.p, x.q, x.r
    c = p * p - q * q * x.delta
    h = gcd(r * r, p * r, c)
    a, b, sign, g = r * r // h, p * r // h, 1 if q > 0 else -1, gcd(r * q, h)
    scale = (r * abs(q) // g, h // g)
    keys, quots, stop, pre = _walk(sign * b, sign * a, b * b - a * (c // h), cap)
    if pre is None:
        raise InternalLimit(f"orbit of {_point(x.delta, scale, stop)} exceeded {cap} steps")
    orb = Orbit(x, tuple(keys), tuple(quots), pre, scale)
    # the walk's certificate: one public derivative step closes the cycle
    if orb.point_at(0) != x or derivative(orb.point_at(orb.length - 1)) != (
            quots[-1], orb.point_at(pre)):
        raise InternalLimit(f"orbit of {x} failed its certificate")
    return orb


def orbit(x: QuadIrr, cap: int | None = None) -> Orbit:
    """Iterate the derivative until a complete quotient repeats."""
    return _orbit_cached(x, DEFAULT_CAP if cap is None else cap)


@dataclass(frozen=True)
class Morphism:
    """Reduced word from source to target: i descent steps on the source
    orbit, j ascent steps on the target orbit, matrix = B_j * A_i^(-1).
    The endpoints are the orbits' points; the rest is checked on
    construction as a certificate, under ``python -O`` too."""

    source: QuadIrr = field(init=False)
    target: QuadIrr = field(init=False)
    i: int
    j: int
    mat: PMat
    src_orbit: Orbit = field(compare=False, repr=False)
    tgt_orbit: Orbit = field(compare=False, repr=False)

    def __post_init__(self):
        src, tgt, i, j = self.src_orbit, self.tgt_orbit, self.i, self.j
        object.__setattr__(self, "source", src.point)
        object.__setattr__(self, "target", tgt.point)
        # pairs compare as points: the action check puts both on one delta and N
        if not (i >= 0 and j >= 0 and src.key_at(i) == tgt.key_at(j)
                and not (i and j and src.key_at(i - 1) == tgt.key_at(j - 1))
                and (i or j or self.mat == PMat.identity())
                and self.mat.det == (-1) ** (i + j)
                and mobius_apply(self.mat, self.source) == self.target):
            raise InternalLimit(f"morphism {self} with matrix {self.mat} failed its certificate")

    @property
    def is_identity(self) -> bool:
        return self.i == 0 and self.j == 0

    def __str__(self):
        return f"{self.source} --({self.i},{self.j})--> {self.target}"


def _reduced(src_orb: Orbit, tgt_orb: Orbit, i: int, j: int, mat: PMat) -> Morphism:
    """Cancel the common tail (which leaves the matrix unchanged), then
    build the morphism."""
    while i > 0 and j > 0 and src_orb.key_at(i - 1) == tgt_orb.key_at(j - 1):
        i -= 1
        j -= 1
    return Morphism(i, j, mat, src_orb, tgt_orb)


def _loop(orb: Orbit, k: int, mat: PMat) -> Morphism:
    """The k-th power (k != 0) of the primitive cycle loop at orb.point,
    with its known matrix class: descend to the cycle, wind |k| times,
    return."""
    pre, turns = orb.pre_len, abs(k) * orb.cycle_len
    i, j = (pre, pre + turns) if k > 0 else (pre + turns, pre)
    return Morphism(i, j, mat, orb, orb)


def identity_morphism(x: QuadIrr, cap: int | None = None) -> Morphism:
    orb = orbit(x, cap)
    return Morphism(0, 0, PMat.identity(), orb, orb)


def hom_base(x: QuadIrr, y: QuadIrr, cap: int | None = None) -> Morphism | None:
    """Some morphism from x to y, or None when their cycles are disjoint.

    Meets the two orbits at the first complete quotient of x that also
    occurs on the orbit of y, then reduces.
    """
    if x.delta != y.delta:
        raise DiscriminantMismatch(f"delta {x.delta} vs {y.delta}")
    ox, oy = orbit(x, cap), orbit(y, cap)
    if ox.scale != oy.scale:  # unequal N: no point is shared
        return None
    where = {key: j for j, key in enumerate(oy.keys)}
    for i, key in enumerate(ox.keys):
        j = where.get(key)
        if j is not None:
            b_j, a_i = generator_product(oy.quotients[:j]), generator_product(ox.quotients[:i])
            return _reduced(ox, oy, i, j, PMat(b_j * a_i.inv()))
    return None


def hom_in_H(x: QuadIrr, y: QuadIrr, cap: int | None = None) -> Morphism | None:
    """A determinant +1 morphism from x to y, if one exists.

    When the base morphism has determinant -1, one extra turn around the
    shared cycle fixes the sign iff the cycle length is odd.
    """
    base = hom_base(x, y, cap)
    if base is None:
        return None
    if base.mat.det == 1:
        return base
    if base.src_orbit.cycle_len % 2 == 0:
        return None
    return compose(base, cycle_loop(x, 1, cap))


def cycle_loop(x: QuadIrr, winding: int = 1, cap: int | None = None) -> Morphism:
    """Loop at x that descends to the cycle, winds around it, and returns."""
    if winding < 1:
        raise InvalidArgument("winding must be >= 1")
    orb = orbit(x, cap)
    return _loop(orb, winding, PMat(orb.loop_matrix ** winding))


def _entry_sum(m: Mat2) -> int:
    return m.p + m.q + m.r + m.s


def _cycle_power(m: PMat, c: Mat2) -> int | None:
    """The k with m = +-c^k, or None if there is none.

    c is a product of generator matrices with positive quotients, so c^n
    (n >= 1) has nonnegative entries whose sum strictly increases with n,
    and c^-n has mixed signs.  Squarings of c bracket that sum and a greedy
    pass from the largest square down (a bisection on the exponent) finds
    n exactly.
    """
    sign = 1 if min(m.rep.p, m.rep.q, m.rep.r, m.rep.s) >= 0 else -1
    want = (m if sign > 0 else m.inv()).rep
    target = _entry_sum(want)
    squares = [c]
    while _entry_sum(squares[-1]) <= target:
        squares.append(squares[-1] * squares[-1])
    n, acc = 0, Mat2.identity()
    for t in reversed(range(len(squares))):
        trial = acc * squares[t]
        if _entry_sum(trial) <= target:
            n, acc = n + (1 << t), trial
    return sign * n if acc == want else None


def normal_form(g: Mat2 | PMat, x: QuadIrr, cap: int | None = None) -> Morphism:
    """The unique reduced morphism from x with matrix class g.

    With y = g*x and base = hom_base(x, y), s = base^(-1) * g fixes x, so it
    is a power k of the primitive cycle loop L = A_pre * C * A_pre^(-1).
    Conjugating s by A_pre gives +-C^k, and ``_cycle_power`` reads k off
    exactly with O(log|k|) products; the answer is base after the k-th
    loop, reduced by ``compose``.  Total cost O(orbit length + log|k|).
    """
    g = pmat_canon(g)
    y = mobius_apply(g, x)
    base = hom_base(x, y, cap)
    if base is None:
        raise InternalLimit(f"no base morphism from {x} to its image {y} under {g}")
    s = base.mat.inv() * g
    orb = base.src_orbit
    k = _cycle_power(PMat(orb.pre_matrix.inv() * s.rep * orb.pre_matrix), orb.cycle_matrix)
    if k is None:
        raise InternalLimit(f"{s} fixes {x} but is no power of its cycle loop")
    return compose(base, _loop(orb, k, s)) if k else base


def morphism_matrix(m: Morphism) -> PMat:
    """Evaluate the reduced word from its orbits; equals m.mat."""
    out = Mat2.identity()
    for k in range(m.j):
        out = out * generator_matrix(m.tgt_orbit.quotient_at(k))
    for k in reversed(range(m.i)):
        out = out * generator_matrix(m.src_orbit.quotient_at(k)).inv()
    return PMat(out)


def compose(m2: Morphism, m1: Morphism) -> Morphism:
    """Reduced form of m2 after m1 (endpoints must chain)."""
    if m1.target != m2.source:
        raise ComposeMismatch(f"cannot compose: {m1.target} != {m2.source}")
    i = m1.i + max(0, m2.i - m1.j)
    j = m2.j + max(0, m1.j - m2.i)
    return _reduced(m1.src_orbit, m2.tgt_orbit, i, j, m2.mat * m1.mat)


def invert(m: Morphism) -> Morphism:
    """Swap endpoints and descent/ascent counts; matrix inverts."""
    return Morphism(m.j, m.i, m.mat.inv(), m.tgt_orbit, m.src_orbit)


def free_extend(target, m: Morphism):
    """Push a reduced word through an arrow evaluator into another groupoid.

    ``target`` must provide identity(object), compose(g2, g1), invert(g),
    and arrow(vertex) giving the image of the arrow into that vertex.
    """
    acc = target.identity(m.source)
    for k in range(m.i):
        acc = target.compose(target.invert(target.arrow(m.src_orbit.point_at(k))), acc)
    for k in reversed(range(m.j)):
        acc = target.compose(target.arrow(m.tgt_orbit.point_at(k)), acc)
    return acc


class AdditiveIntegers:
    """Target groupoid: one object, integers under addition, arrow -> 1."""

    def identity(self, obj):
        return 0

    def compose(self, g2, g1):
        return g2 + g1

    def invert(self, g):
        return -g

    def arrow(self, vertex):
        return 1


class ProjectiveMatrices:
    """Target groupoid: arrow -> the sign class of its generator matrix."""

    def identity(self, obj):
        return PMat.identity()

    def compose(self, g2, g1):
        return g2 * g1

    def invert(self, g):
        return g.inv()

    def arrow(self, vertex):
        return PMat(generator_matrix(qi_floor(vertex)))
