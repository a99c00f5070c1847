"""Shared random generators and independent oracles.

The oracles deliberately avoid the library's own code paths: floors and
continued-fraction quotients come from escalating-precision interval
arithmetic over plain Fractions, Pell minimality from the classical
integer convergent recurrence, solution sets and square roots mod m
from scans, and equivalence reachability from a breadth-first walk over
raw coefficient triples.  ``run_python`` runs a fresh interpreter (with
or without ``-O``) on this checkout's package.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import quadform
from quadform import (
    Form,
    Mat2,
    PMat,
    QuadIrr,
    act,
    derivative,
    generator_matrix,
    mobius_apply,
    normal_form,
    orbit,
    pmat_canon,
)

NONSQUARE_SMALL = [d for d in range(2, 21) if math.isqrt(d) ** 2 != d]


# -- random generators ---------------------------------------------------


def random_point(rng, delta, span=9) -> QuadIrr:
    u = Fraction(rng.randint(-span, span), rng.randint(1, span))
    vnum = 0
    while vnum == 0:
        vnum = rng.randint(-span, span)
    v = Fraction(vnum, rng.randint(1, span))
    return QuadIrr(delta, u.numerator * v.denominator, v.numerator * u.denominator,
                   u.denominator * v.denominator)


def random_word(rng, x: QuadIrr, max_len=30, span=9) -> tuple[Mat2, QuadIrr]:
    """A random composable arrow word anchored at x.

    Ascending steps attach a new partial quotient a (valid only from
    points > 1); descending steps peel the current one off.  Returns the
    word's matrix and its endpoint.
    """
    m = Mat2.identity()
    cur = x
    for _ in range(rng.randint(0, max_len)):
        if cur > 1 and rng.random() < 0.5:
            a = 0
            while a == 0:
                a = rng.randint(-span, span)
            g = generator_matrix(a)
            m = g * m
            cur = mobius_apply(g, cur)
        else:
            a, nxt = derivative(cur)
            m = generator_matrix(a).inv() * m
            cur = nxt
    return m, cur


def random_morphism(rng, x: QuadIrr, max_len=12):
    word, _ = random_word(rng, x, max_len)
    return normal_form(PMat(word), x)


def random_form(rng, delta, span=20) -> Form:
    while True:
        a = rng.randint(-span, span)
        if a == 0:
            continue
        b = rng.randint(-span, span)
        if (b * b - delta) % a == 0:
            return Form(a, b, (b * b - delta) // a)


def random_sl_word(rng, length_pairs=4, span=9) -> Mat2:
    """Even-length product of generator matrices: determinant +1."""
    m = Mat2.identity()
    for _ in range(2 * rng.randint(1, length_pairs)):
        m = m * generator_matrix(rng.randint(-span, span))
    return m


# -- interval-arithmetic oracles ------------------------------------------


def sqrt_interval(delta: int, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    s = math.isqrt(delta * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def floor_oracle(x: QuadIrr) -> int:
    """Floor via interval arithmetic, escalating precision until the
    bracket excludes every integer boundary."""
    bits = 16
    while True:
        rlo, rhi = sqrt_interval(x.delta, bits)
        if x.v > 0:
            lo, hi = x.u + x.v * rlo, x.u + x.v * rhi
        else:
            lo, hi = x.u + x.v * rhi, x.u + x.v * rlo
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo == fhi:
            return flo
        bits *= 2


def sign_oracle(x: QuadIrr) -> int:
    """Sign via interval arithmetic; x is irrational so this terminates."""
    bits = 16
    while True:
        rlo, rhi = sqrt_interval(x.delta, bits)
        lo = x.u + x.v * (rlo if x.v > 0 else rhi)
        hi = x.u + x.v * (rhi if x.v > 0 else rlo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def cf_quotients_oracle(p: int, q: int, r: int, delta: int, count: int) -> list[int]:
    """First ``count`` partial quotients of (p + q*sqrt(delta))/r by
    escalating-precision interval arithmetic."""
    if r < 0:
        p, q, r = -p, -q, -r
    bits = 32
    while True:
        rlo, rhi = sqrt_interval(delta, bits)
        if q > 0:
            lo, hi = Fraction(p + q * rlo, r), Fraction(p + q * rhi, r)
        else:
            lo, hi = Fraction(p + q * rhi, r), Fraction(p + q * rlo, r)
        quots: list[int] = []
        ok = True
        for _ in range(count):
            flo, fhi = math.floor(lo), math.floor(hi)
            if flo != fhi or lo == flo:
                ok = False
                break
            quots.append(flo)
            lo, hi = 1 / (hi - flo), 1 / (lo - flo)
        if ok:
            return quots
        bits *= 2


def orbit_by_derivative(x: QuadIrr, cap: int) -> tuple | None:
    """Reference walk with the public ``derivative``, one QuadIrr per step,
    until a complete quotient repeats: (quotients, pre_len, preperiod,
    cycle), or None past ``cap`` points."""
    pts: list[QuadIrr] = []
    quots: list[int] = []
    seen: dict[QuadIrr, int] = {}
    cur = x
    while cur not in seen:
        if len(pts) >= cap:
            return None
        seen[cur] = len(pts)
        pts.append(cur)
        a, cur = derivative(cur)
        quots.append(a)
    k = seen[cur]
    return tuple(quots), k, tuple(pts[:k]), tuple(pts[k:])


# -- normal-form uniqueness oracle ------------------------------------------


def _prefix_products(orb, upto: int) -> list[Mat2]:
    """A_0..A_upto along the unrolled orbit (indices past the tail wrap)."""
    mats = [Mat2.identity()]
    for k in range(upto):
        mats.append(mats[k] * generator_matrix(orb.quotient_at(k)))
    return mats


def normal_form_candidates(g, x: QuadIrr, max_sum: int) -> list[tuple[int, int]]:
    """All (i, j) with i+j <= max_sum passing the three normal-form tests.

    Diagnostic used to confirm uniqueness of the reduced shape, by a full
    scan over index pairs with its own prefix products.
    """
    g = pmat_canon(g)
    y = mobius_apply(g, x)
    ox, oy = orbit(x), orbit(y)
    acum = _prefix_products(ox, max_sum)
    bcum = _prefix_products(oy, max_sum)
    ainv = [m.inv() for m in acum]
    out = []
    for s in range(max_sum + 1):
        for j in range(s + 1):
            i = s - j
            if ox.point_at(i) != oy.point_at(j):
                continue
            if i > 0 and j > 0 and ox.point_at(i - 1) == oy.point_at(j - 1):
                continue
            if PMat(bcum[j] * ainv[i]) == g:
                out.append((i, j))
    return out


# -- arithmetic oracles ----------------------------------------------------


def residue_classes_by_scan(delta: int, m: int) -> list[int]:
    """All n in [0, |m|) with n^2 = delta (mod |m|), by exhaustive scan."""
    mm = abs(m)
    return [n for n in range(mm) if (n * n - delta) % mm == 0]


def brute_force_proper(f: Form, m: int, box: int) -> set[tuple[int, int]]:
    """All proper representations with max(|x|, |y|) <= box, by full scan."""
    a, b, c = f.a, f.b, f.c
    out = set()
    for x in range(-box, box + 1):
        ax2 = a * x * x
        bx2 = 2 * b * x
        for y in range(-box, box + 1):
            if ax2 + bx2 * y + c * y * y == m and math.gcd(abs(x), abs(y)) == 1:
                out.add((x, y))
    return out


def pell_brute_force(delta: int, u_limit: int) -> tuple[int, int] | None:
    """Smallest solution of t^2 - delta*u^2 = 1 with 1 <= u <= u_limit."""
    for u in range(1, u_limit + 1):
        t2 = 1 + delta * u * u
        t = math.isqrt(t2)
        if t * t == t2:
            return t, u
    return None


def pell_convergents(d: int) -> tuple[int, int]:
    """Fundamental Pell solution from the classical integer-only
    continued-fraction recurrence for sqrt(d)."""
    a0 = math.isqrt(d)
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    pp, qq, a = 0, 1, a0
    while p_cur * p_cur - d * q_cur * q_cur != 1:
        pp = a * qq - pp
        qq = (d - pp * pp) // qq
        a = (a0 + pp) // qq
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return p_cur, q_cur


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _completions(f: Form, p: int, r: int, target_a: int, target_b: int) -> Mat2 | None:
    """The unique det +1 matrix with first column (p, r), f(p,r) = target_a,
    whose substitution yields middle coefficient target_b, if it exists."""
    if math.gcd(p, r) != 1:
        return None
    g, s0, t0 = _egcd(p, r)
    # p*s0 + r*t0 = 1; completion [[p, -t0], [r, s0]] has det 1
    q0, s_ent = -t0, s0
    b0 = f.a * p * q0 + f.b * (p * s_ent + q0 * r) + f.c * r * s_ent
    if (target_b - b0) % target_a != 0:
        return None
    k = (target_b - b0) // target_a
    return Mat2(p, q0 + k * p, r, s_ent + k * r)


def matrices_to_form_by_scan(f1: Form, f2: Form, col_bound: int) -> set[Mat2]:
    """All h in SL(2,Z) with act(f1, h) = f2 and first-column entries
    bounded, by exhaustive scan over first columns.

    Complete for the region: f1(p, r) = f2.a pins r to the roots of a
    quadratic, and the middle coefficient pins the rest of the matrix.
    """
    a, b, c = f1.a, f1.b, f1.c
    d = f1.disc
    out = set()
    for p in range(-col_bound, col_bound + 1):
        sq = d * p * p + c * f2.a
        if sq < 0:
            continue
        s = math.isqrt(sq)
        if s * s != sq:
            continue
        for sgn in {s, -s}:
            num = -b * p + sgn
            if num % c != 0:
                continue
            r = num // c
            if abs(r) > col_bound:
                continue
            h = _completions(f1, p, r, f2.a, f2.b)
            if h is not None and act(f1, h) == f2:
                out.add(h)
    return out


def automorphs_by_scan(f: Form, bound: int) -> set[Mat2]:
    """All automorphs of f (excluding +-identity) with every entry bounded."""
    out = set()
    for h in matrices_to_form_by_scan(f, f, bound):
        if h.max_abs() <= bound and h != Mat2.identity() and h != -Mat2.identity():
            out.add(h)
    return out


def signed_powers_within(a: Mat2, collect_bound: int, walk_bound: int) -> set[Mat2]:
    """{+-a^k : k in Z} restricted to entries <= collect_bound; the walk
    continues to walk_bound so short dips past collect_bound are kept."""
    out = {Mat2.identity(), -Mat2.identity()}
    for step in (a, a.inv()):
        cur = Mat2.identity()
        while True:
            cur = cur * step
            if cur.max_abs() > walk_bound:
                break
            if cur.max_abs() <= collect_bound:
                out.add(cur)
                out.add(-cur)
    return out


# -- reachability oracle over raw coefficient triples ----------------------


def _act_triple(t, g):
    a, b, c = t
    p, q, r, s = g
    return (
        a * p * p + 2 * b * p * r + c * r * r,
        a * p * q + b * (p * s + q * r) + c * r * s,
        a * q * q + 2 * b * q * s + c * s * s,
    )


def parity_components(seed_triples, coef_cap: int, span: int) -> dict:
    """Connected components of (form triple, word-length parity) under
    substitution by generator matrices [[a,1],[1,0]] and their inverses,
    restricted to coefficients <= coef_cap.

    Two triples are substitutable into each other by a determinant +1
    product of generators within the cap iff their parity-0 states share a
    label.
    """
    gens = []
    for a in range(-span, span + 1):
        gens.append((a, 1, 1, 0))
        gens.append((0, 1, 1, -a))  # inverse of [[a,1],[1,0]]
    label: dict = {}
    comp = 0
    for t in seed_triples:
        for par in (0, 1):
            state = (t, par)
            if state in label:
                continue
            comp += 1
            label[state] = comp
            queue = deque([state])
            while queue:
                (cur, cpar) = queue.popleft()
                for g in gens:
                    nxt = _act_triple(cur, g)
                    if max(abs(nxt[0]), abs(nxt[1]), abs(nxt[2])) > coef_cap:
                        continue
                    ns = (nxt, cpar ^ 1)
                    if ns not in label:
                        label[ns] = comp
                        queue.append(ns)
    return label


def forms_with(delta: int, coef_bound: int) -> list[Form]:
    out = []
    for a in range(-coef_bound, coef_bound + 1):
        if a == 0:
            continue
        for b in range(-coef_bound, coef_bound + 1):
            if (b * b - delta) % a != 0:
                continue
            c = (b * b - delta) // a
            if abs(c) <= coef_bound:
                out.append(Form(a, b, c))
    return out


# -- fresh interpreters ------------------------------------------------------


SRC_DIR = Path(quadform.__file__).resolve().parents[1]


def run_python(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python *args`` in a new process that imports this quadform; stderr
    (and by default stdout) is captured as text."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONOPTIMIZE", None)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)
