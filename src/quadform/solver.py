"""Proper representations of m by an indefinite form.

Each residue n with n^2 = disc (mod |m|) attaches the form
[m, n, (n^2-disc)/m]; a substitution carrying f onto the attached form
yields one class of solutions, the orbit of its first column under f's
positive-trace generator of Aut+(f), computed once per solve and shared
by every class.  The classes partition all proper representations, so
bounded enumeration of each class recovers exactly the solutions in a box.

The residues come from the factorisation of |m| (trial division, then
Miller-Rabin and Brent's rho): square roots mod each prime power, by
Tonelli-Shanks and Hensel lifting, joined by the Chinese remainder
theorem (Cohen, GTM 138, section 1.5 and chapter 8).  A solve costs the
factoring plus one equivalence test per residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgument, InternalLimit, NotDivisible, ZeroTarget
from .forms import Form, act, stabilizer_generator
from .forms import equivalent_sl as _equivalent_sl
from .groupoid import DEFAULT_CAP
from .lattice import Mat2

_ENUM_CAP = 10**6
_TRIAL_BOUND = 10**4
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the 13 bases above is exact below this bound
# (Sorenson & Webster 2015); a probable prime past it is not certified.
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES, exact for 2 <= n < _MR_EXACT_BELOW."""
    if any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise InternalLimit(f"cannot certify {n} prime: Miller-Rabin on bases 2..41 "
                            f"is exact only below {_MR_EXACT_BELOW}")
    return True


def _rho(n: int, spent: int, cap: int) -> tuple[int, int]:
    """(a proper factor of the composite n, rho steps spent so far), by
    Pollard rho with Brent's cycle finding and gcds batched over 128 steps."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x, k, spent = y, 0, spent + 2 * r  # this round takes at most 2r steps
            if spent > cap:
                raise InternalLimit(f"factoring {n} exceeded {cap} rho steps")
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g, k = math.gcd(q, n), k + 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, spent
    raise InternalLimit(f"rho found no factor of {n}")


def _factor(n: int, cap: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, for n >= 1, spending at most cap rho steps."""
    out: dict[int, int] = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= n:
        while n % p == 0:
            out[p], n = out.get(p, 0) + 1, n // p
        p += 1 if p == 2 else 2
    stack, spent = [n] if n > 1 else [], 0
    while stack:
        n = stack.pop()
        if _is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            d, spent = _rho(n, spent, cap)
            stack += [d, n // d]
    return out


def _sqrt_mod_prime_power(d: int, p: int, e: int) -> list[int]:
    """All n in [0, p^e) with n^2 = d (mod p^e), for a prime p."""
    pe = p**e
    if p == 2:  # every root mod 2^(k+1) is r or r + 2^k for a root r mod 2^k
        roots = [0]
        for k in range(e):
            roots = [x for r in roots for x in (r, r + (1 << k))
                     if (x * x - d) % (2 << k) == 0]
        return roots
    if e == 0 or (e == 1 and d % p == 0):
        return [0]
    if d % p == 0:  # then p | n, p^2 | d, and n/p is a root of d/p^2 mod p^(e-2)
        top = p ** (e - 1)
        return [] if d % (p * p) else [p * n + k * top for k in range(p)
                                       for n in _sqrt_mod_prime_power(d // (p * p), p, e - 2)]
    if pow(d, (p - 1) // 2, p) != 1:
        return []
    q, s = p - 1, 0  # Tonelli-Shanks for the root mod p
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(d, q, p), pow(d, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    for _ in range(e.bit_length()):  # Hensel by Newton: each step doubles the precision
        r = (r - (r * r - d) * pow(2 * r, -1, pe)) % pe
    return [r, pe - r]


def residue_classes(delta: int, m: int, cap: int | None = None) -> list[int]:
    """All n in [0, |m|) with n^2 = delta (mod |m|), sorted: square roots
    mod each prime power of |m| joined by the Chinese remainder theorem.
    Factoring |m| spends at most ``cap`` rho steps (default DEFAULT_CAP)."""
    if m == 0:
        raise ZeroTarget("m = 0 has no residue classes")
    roots, mod = [0], 1
    for p, e in _factor(abs(m), DEFAULT_CAP if cap is None else cap).items():
        pe = p**e
        rs = _sqrt_mod_prime_power(delta, p, e)
        inv = pow(mod, -1, pe)
        roots = [x + mod * ((r - x) * inv % pe) for x in roots for r in rs]
        mod *= pe
    return sorted(roots)


def attach_form(n: int, m: int, delta: int) -> Form:
    """The form [m, n, (n^2 - delta)/m] of discriminant delta."""
    if m == 0:
        raise ZeroTarget("m = 0 attaches no form")
    if (n * n - delta) % m != 0:
        raise NotDivisible(f"{m} does not divide {n}^2 - {delta}")
    return Form(m, n, (n * n - delta) // m)


@dataclass(frozen=True)
class RepClass:
    """One class of proper representations: the orbit of base_solution
    under automorph, f's positive-trace Aut+(f) generator shared by all classes."""

    n: int
    attached: Form
    base_matrix: Mat2
    base_solution: tuple[int, int]
    automorph: Mat2


@dataclass(frozen=True)
class SolveReport:
    form: Form
    m: int
    delta: int
    classes: tuple[RepClass, ...]


def solve_proper(f: Form, m: int, cap: int | None = None) -> SolveReport:
    """Find every class of proper representations of m by f."""
    if m == 0:
        raise ZeroTarget("m = 0 is out of scope")
    delta = f.disc
    classes, b = [], None
    for n in residue_classes(delta, m, cap):
        if (n * n - delta) % abs(m) != 0:
            raise InternalLimit(f"residue {n} is not a root of {delta} mod {m}")
        fn = attach_form(n, m, delta)
        h0 = _equivalent_sl(f, fn, cap)
        if h0 is None:
            continue
        if b is None:  # Aut+(f) belongs to f: one generator serves every class
            b = stabilizer_generator(f, cap)
            b = -b if b.trace < 0 else b
        sol = h0.first_column()
        if f(*sol) != m or math.gcd(*sol) != 1 or act(f, b) != f:
            raise InternalLimit(f"class of residue {n} failed its certificate")
        classes.append(RepClass(n, fn, h0, sol, b))
    return SolveReport(form=f, m=m, delta=delta, classes=tuple(classes))


def _walk(start: tuple[int, int], step: Mat2, bound: int, out: set) -> None:
    """Collect +-step^k(start), k >= 0, inside the max-norm box.

    The step matrix is hyperbolic (|trace| >= 3), so along the walk each
    coordinate is c1*L^k + c2*L^(-k) with real L > 1: its absolute value
    dips at most once and then grows forever.  Once both coordinates have
    stopped shrinking and the point left the box, nothing later re-enters.
    """
    prev = None
    cur = start
    for _ in range(_ENUM_CAP):
        inside = max(abs(cur[0]), abs(cur[1])) <= bound
        if inside:
            out.add(cur)
            out.add((-cur[0], -cur[1]))
        if prev is not None and not inside:
            if abs(cur[0]) >= abs(prev[0]) and abs(cur[1]) >= abs(prev[1]):
                return
        prev = cur
        cur = step.apply(*cur)
    raise InternalLimit("solution walk failed to leave the box")


def enumerate_solutions(cls: RepClass, bound: int) -> list[tuple[int, int]]:
    """All solutions +-B^k * base with max(|x|, |y|) <= bound, sorted by
    (|x|, x, y)."""
    if bound < 1:
        raise InvalidArgument(f"bound must be >= 1, got {bound}")
    b = cls.automorph
    if b.trace < 0:
        b = -b  # same +- orbit, positive trace keeps growth monotone
    found: set[tuple[int, int]] = set()
    _walk(cls.base_solution, b, bound, found)
    _walk(b.inv().apply(*cls.base_solution), b.inv(), bound, found)
    return sorted(found, key=lambda p: (abs(p[0]), p[0], p[1]))


def verify_representation(f: Form, m: int, x: int, y: int) -> tuple[bool, bool]:
    """(is a representation, is a proper representation)."""
    is_rep = f(x, y) == m
    return is_rep, is_rep and math.gcd(abs(x), abs(y)) == 1


def proper_residue(f: Form, m: int, x: int, y: int) -> int:
    """Residue class of a proper representation: extend (x, y) to a
    determinant 1 matrix and read the middle coefficient mod |m|."""
    is_rep, is_proper = verify_representation(f, m, x, y)
    if not is_proper:
        raise InvalidArgument(f"({x}, {y}) is not a proper representation of {m}")
    g, s, t = _egcd(x, y)
    if g != 1 or x * s + y * t != 1:
        raise InternalLimit(f"no determinant 1 completion of ({x}, {y})")
    h = Mat2(x, -t, y, s)
    return act(f, h).b % abs(m)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with a*s + b*t = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
