"""The benchmark's three workloads: seeded inputs, the query each input
makes, and an independent check of every answer.

Inputs are plain integers and tuples, built before the program is
imported; ``prepare`` turns one into the arguments of its query once the
program is loaded.  The checks never trust the program's own arithmetic:
Pell answers come from the integer continued-fraction recurrence, form
substitutions are applied to raw coefficient triples, and the words
workload tracks its points as integer pairs (P, Q) meaning
(P + sqrt(N))/Q with its own floor and Mobius steps.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass


def stratified(rng: random.Random, reference: random.Random, candidate,
               n: int, k: int) -> list:
    """n inputs whose costs match n fixed cost quantiles of the workload.

    The quantiles come from a reference pool of n*k candidates, drawn from
    the workload's generating distribution with the ``reference`` generator
    (the same for every seed) and sorted by a cost the benchmark computes
    itself: the target of stratum i is the middle cost of the i-th run of k
    neighbours.  A pool of n*k candidates drawn with ``rng`` then supplies,
    for each target in turn, the unused candidate of nearest log-cost.

    Every seed's sample so has nearly the same costs, the heavy top strata
    included, and heavy-tailed workloads compare across seeds; the top
    1/(2n) of the distribution is stood for by the middle of the top run.
    ``candidate(rng)`` returns (cost, input) with cost > 0.  The inputs come
    in ascending order of their targets.
    """
    ref = sorted(candidate(reference)[0] for _ in range(n * k))
    targets = [math.log(ref[i * k + k // 2]) for i in range(n)]
    pool = sorted((candidate(rng) for _ in range(n * k)), key=lambda c: c[0])
    logs = [math.log(c) for c, _ in pool]
    picked, lo = [], 0
    for i, t in enumerate(targets):
        hi = len(pool) - (n - i)  # leave a candidate for each later target
        j = min(max(bisect.bisect_left(logs, t, lo, hi + 1), lo), hi)
        if j > lo and t - logs[j - 1] <= logs[j] - t:
            j -= 1
        picked.append(pool[j][1])
        lo = j + 1
    return picked


def log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def as_int(v) -> int:
    """A JSON integer, which the CLI writes as a decimal string when large.

    Long strings are parsed in chunks, so no conversion limit is touched.
    """
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if not isinstance(v, str):
        raise TypeError(f"not an integer: {v!r}")
    neg = v.startswith("-")
    digits = v[1:] if neg else v
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {v[:40]!r}")
    out = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        out = out * 10 ** len(chunk) + int(chunk)
    return -out if neg else out


def quantile_summary(values) -> dict:
    """min, p50, p90 and max of a list of numbers (empty gives {})."""
    if not values:
        return {}
    s = sorted(values)
    return {"min": s[0], "p50": s[len(s) // 2], "p90": s[min(len(s) - 1, (9 * len(s)) // 10)],
            "max": s[-1]}


def cli_call(prog, argv: list[str]) -> tuple[int, str]:
    """Run ``quadform.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def _payload(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# -- pell -----------------------------------------------------------------


def pell_cost(d: int) -> tuple[int, float]:
    """(period, cost) of sqrt(d)'s continued fraction.  A query costs a
    fixed amount (argument parsing, JSON), a step per orbit point over the
    whole period (twice round when it is odd), and big-integer work that
    grows as bits(t)^1.6; the weights were fitted to measured times.
    bits(t) is summed in floating point from the convergent ratios
    h_i / h_(i-1) = a_i + h_(i-2) / h_(i-1)."""
    a0 = math.isqrt(d)
    p, q, a = 0, 1, a0
    ratio, bits, n = float(a0), math.log2(a0), 0
    while True:
        p = a * q - p
        q = (d - p * p) // q
        n += 1
        if q == 1:
            steps = n if n % 2 == 0 else 2 * n
            return n, 100 + steps + (bits * steps / n) ** 1.6 / 300
        a = (a0 + p) // q
        ratio = a + 1 / ratio
        bits += math.log2(ratio)


def pell_solution(d: int) -> tuple[int, int]:
    """Fundamental solution of t^2 - d*u^2 = 1: the convergent of sqrt(d)
    that ends its period, or its doubled period when the period is odd."""
    a0 = math.isqrt(d)
    p, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    period = None
    i = 0
    while True:
        p = a * q - p
        q = (d - p * p) // q
        if q == 1 and period is None:
            period = i + 1
        if period is not None and i + 1 == (period if period % 2 == 0 else 2 * period):
            return h, k
        a = (a0 + p) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        i += 1


@dataclass(frozen=True)
class PellInput:
    D: int
    period: int
    t: int
    u: int


class Pell:
    """`quadform pell D --json` with D log-uniform in [1e4, 1e8].

    Each query is one long orbit on big integers with a heavy-tailed period;
    the largest answers exceed 4300 digits and meet the CLI's rendering
    limit, which counts as a failure.
    """

    name = "pell"
    round_size = 10
    pass_size = 200
    pool_factor = 25
    ok_codes = (0,)

    def candidate(self, rng):
        while True:
            d = log_uniform(rng, 1e4, 1e8)
            if not is_square(d):
                period, cost = pell_cost(d)
                return cost, (d, period)

    def generate(self, seed: int) -> list[PellInput]:
        rng = random.Random(f"pell:{seed}")
        picked = stratified(rng, random.Random("pell:reference"), self.candidate,
                            self.pass_size, self.pool_factor)
        return [PellInput(d, period, *pell_solution(d)) for d, period in picked]

    def warmup(self) -> list[PellInput]:
        return [PellInput(d, pell_cost(d)[0], *pell_solution(d)) for d in (61, 109, 541)]

    def prepare(self, prog, inp: PellInput):
        return ["pell", str(inp.D), "--json"]

    def query(self, prog, argv):
        return cli_call(prog, argv)

    def check(self, prog, inp: PellInput, args, out):
        code, text = out
        if code not in self.ok_codes:
            return "exit", f"exit code {code}", None
        res = _payload(text)["result"]
        if (as_int(res["t"]), as_int(res["u"])) != (inp.t, inp.u):
            return "wrong", f"pell {inp.D}: wrong (t, u)", None
        return None, None, None

    def describe(self, inputs, details) -> dict:
        return {"period_length": quantile_summary([i.period for i in inputs]),
                "t_bits": quantile_summary([i.t.bit_length() for i in inputs])}


# -- solve ----------------------------------------------------------------


def act_triple(f: tuple[int, int, int], m) -> tuple[int, int, int]:
    """Right substitution of the form [a, b, c] (a*X^2 + 2b*X*Y + c*Y^2) by
    the matrix ((p, q), (r, s))."""
    a, b, c = f
    (p, q), (r, s) = m
    return (a * p * p + 2 * b * p * r + c * r * r,
            a * p * q + b * (p * s + q * r) + c * r * s,
            a * q * q + 2 * b * q * s + c * s * s)


def factorize(n: int) -> list[tuple[int, int]]:
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def sqrt_count(delta: int, m: int) -> int:
    """Number of n in [0, |m|) with n^2 = delta (mod |m|), prime power by
    prime power (the counts multiply by the Chinese remainder theorem)."""
    count = 1
    for p, e in factorize(m):
        pe = p ** e
        if p != 2 and delta % p:
            roots = 1 + (1 if pow(delta, (p - 1) // 2, p) == 1 else -1)
        else:
            step = p if delta % p == 0 else 1  # p | delta forces p | n
            roots = sum(1 for n in range(0, pe, step) if (n * n - delta) % pe == 0)
        count *= roots
        if count == 0:
            break
    return count


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


@dataclass(frozen=True)
class SolveInput:
    D: int
    form: tuple[int, int, int]
    m: int
    planted: tuple[int, int] | None  # (x0, y0) with f(x0, y0) = m, if built that way
    residues: int


class Solve:
    """`quadform solve D a b c m --bound 1000000 --json` with disc
    log-uniform in [1e2, 1e5].

    Half the targets are f(x0, y0) for a random coprime (x0, y0) with
    |x0|, |y0| <= 1000 and are kept to |m| <= 1e6, the random half's range,
    because the residue scan is linear in |m|; the other half have |m|
    log-uniform in [1e2, 1e6], so exit 1 (NO_SOLUTIONS) is common.
    """

    name = "solve"
    round_size = 25
    pass_size = 300
    pool_factor = 12
    ok_codes = (0, 1)
    bound = 1_000_000

    def _form(self, rng):
        while True:
            d = log_uniform(rng, 1e2, 1e5)
            if not is_square(d):
                break
        r = math.isqrt(d)
        b = rng.randint(-r, r)
        n = b * b - d
        a = rng.choice(_divisors(n)) * rng.choice((1, -1))
        return d, (a, b, n // a)

    def _planted(self, rng):
        while True:
            d, f = self._form(rng)
            for _ in range(100):
                x0 = rng.choice((1, -1)) * log_uniform(rng, 1, 1001)
                y0 = rng.choice((1, -1)) * log_uniform(rng, 1, 1001)
                if math.gcd(x0, y0) != 1:
                    continue
                m = f[0] * x0 * x0 + 2 * f[1] * x0 * y0 + f[2] * y0 * y0
                if abs(m) <= 10**6:
                    return self._candidate(d, f, m, (x0, y0))

    def _random(self, rng):
        d, f = self._form(rng)
        m = rng.choice((1, -1)) * log_uniform(rng, 1e2, 1e6)
        return self._candidate(d, f, m, None)

    @staticmethod
    def _candidate(d: int, f, m: int, planted):
        """(cost, input).  The residue scan is linear in |m|; each residue
        found then costs an equivalence test, a walk around a cycle about as
        long as the period of sqrt(d) (300 scan steps per cycle step,
        measured)."""
        residues = sqrt_count(d, m)
        cost = abs(m) + 300 * residues * pell_cost(d)[0]
        return cost, SolveInput(d, f, m, planted, residues)

    def generate(self, seed: int) -> list[SolveInput]:
        rng = random.Random(f"solve:{seed}")
        half = self.pass_size // 2
        reference = random.Random("solve:reference")
        planted = stratified(rng, reference, self._planted, half, self.pool_factor)
        unplanted = stratified(rng, reference, self._random, self.pass_size - half,
                               self.pool_factor)
        # alternate the halves, each in ascending cost
        return [inp for pair in zip(planted, unplanted) for inp in pair]

    def warmup(self) -> list[SolveInput]:
        return [SolveInput(2, (1, 0, -2), 7, (3, 1), sqrt_count(2, 7)),
                SolveInput(2, (1, 0, -2), 5, None, sqrt_count(2, 5))]

    def prepare(self, prog, inp: SolveInput):
        a, b, c = inp.form
        return ["solve", str(inp.D), str(a), str(b), str(c), str(inp.m),
                "--bound", str(self.bound), "--json"]

    def query(self, prog, argv):
        return cli_call(prog, argv)

    def check(self, prog, inp: SolveInput, args, out):
        code, text = out
        if code not in self.ok_codes:
            return "exit", f"exit code {code}", None
        f = inp.form
        classes = _payload(text)["result"]["classes"]
        if (code == 0) != bool(classes):
            return "wrong", f"exit {code} with {len(classes)} classes", None
        found = set()
        for cls in classes:
            base = [[as_int(v) for v in row] for row in cls["base_matrix"]]
            auto = [[as_int(v) for v in row] for row in cls["automorph"]]
            attached = tuple(as_int(v) for v in cls["attached"])
            for mat in (base, auto):
                if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] != 1:
                    return "wrong", "substitution with determinant != 1", None
            if act_triple(f, base) != attached or attached[0] != inp.m:
                return "wrong", "base matrix does not carry f to the attached form", None
            if act_triple(f, auto) != f:
                return "wrong", "automorph does not fix f", None
            for x, y in cls["solutions"]:
                x, y = as_int(x), as_int(y)
                if f[0] * x * x + 2 * f[1] * x * y + f[2] * y * y != inp.m or math.gcd(x, y) != 1:
                    return "wrong", f"({x}, {y}) is not a proper solution", None
                found.add((x, y))
        if inp.planted is not None and inp.planted not in found:
            return "wrong", f"planted solution {inp.planted} missing", None
        return None, None, len(classes)

    def describe(self, inputs, details) -> dict:
        classes = [c for c in details if c is not None]
        return {"disc": quantile_summary([i.D for i in inputs]),
                "abs_m": quantile_summary([abs(i.m) for i in inputs]),
                "residues": quantile_summary([i.residues for i in inputs]),
                "planted_share": sum(i.planted is not None for i in inputs) / len(inputs),
                "represented_share": (sum(c > 0 for c in classes) / len(classes)
                                      if classes else None)}


# -- words ----------------------------------------------------------------
#
# A point is (P, Q, k, D), meaning (P + sqrt(N))/Q with N = k*k*D, k > 0 and
# Q | N - P^2; both continued-fraction moves keep that shape.


def point(p: int, q: int, r: int, d: int) -> tuple[int, int, int, int]:
    """(p + q*sqrt(d))/r with q != 0, r != 0, in (P, Q, k, D) form."""
    if q < 0:
        p, q, r = -p, -q, -r
    return p * abs(r), r * abs(r), q * abs(r), d


def floor_point(x) -> int:
    p, q, k, d = x
    s = math.isqrt(k * k * d)
    return (p + s) // q if q > 0 else -((p + s) // -q) - 1


def descend(x):
    """1/(x - floor(x)), the derivative step."""
    p, q, k, d = x
    a = floor_point(x)
    p2 = a * q - p
    return p2, (k * k * d - p2 * p2) // q, k, d


def ascend(x, a: int):
    """a + 1/x, the Mobius action of [[a, 1], [1, 0]]."""
    p, q, k, d = x
    q2 = (k * k * d - p * p) // q
    return a * q2 - p, q2, k, d


def orbit_length(x) -> int:
    """Number of distinct complete quotients on the orbit of x."""
    seen = set()
    while x not in seen:
        seen.add(x)
        x = descend(x)
    return len(seen)


def mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_det(m) -> int:
    (a, b), (c, d) = m
    return a * d - b * c


def sign_class(m):
    """The representative of {m, -m} whose first nonzero entry is positive."""
    flat = m[0] + m[1]
    first = next(v for v in flat if v != 0)
    return m if first > 0 else tuple(tuple(-v for v in row) for row in m)


def random_point(rng, d: int, span: int = 9):
    u_num, u_den = rng.randint(-span, span), rng.randint(1, span)
    v_num = 0
    while v_num == 0:
        v_num = rng.randint(-span, span)
    v_den = rng.randint(1, span)
    # u + v*sqrt(d) = (u_num*v_den + v_num*u_den*sqrt(d)) / (u_den*v_den)
    return point(u_num * v_den, v_num * u_den, u_den * v_den, d)


def random_word(rng, x, max_len: int = 30, span: int = 9):
    """A random arrow word from x: ascending steps attach a partial quotient
    (only from points > 1), descending steps peel one off.  Returns the
    word's matrix and its endpoint."""
    m = ((1, 0), (0, 1))
    cur = x
    for _ in range(rng.randint(0, max_len)):
        if floor_point(cur) >= 1 and rng.random() < 0.5:
            a = 0
            while a == 0:
                a = rng.randint(-span, span)
            m = mat_mul(((a, 1), (1, 0)), m)
            cur = ascend(cur, a)
        else:
            a = floor_point(cur)
            m = mat_mul(((0, 1), (1, -a)), m)
            cur = descend(cur)
    return m, cur


def _entries(pmat):
    """The entries of a library PMat's representative, as nested tuples."""
    m = pmat.rep
    return (m.p, m.q), (m.r, m.s)


@dataclass(frozen=True)
class WordsInput:
    x: tuple
    w1: tuple
    y: tuple
    w2: tuple
    z: tuple
    orbits: tuple[int, int, int]


class Words:
    """Library calls m1 = normal_form(w1, x), m2 = normal_form(w2, y),
    compose(m2, m1), on random points of sqrt-degree {2, 3, 5, 13, 61} and
    random words of length <= 30: many short orbits on small integers."""

    name = "words"
    round_size = 25
    pass_size = 300
    pool_factor = 20
    deltas = (2, 3, 5, 13, 61)

    def candidate(self, rng):
        x = random_point(rng, rng.choice(self.deltas))
        w1, y = random_word(rng, x)
        w2, z = random_word(rng, y)
        lx, ly, lz = orbit_length(x), orbit_length(y), orbit_length(z)
        # Each normal form walks both orbits and multiplies prefix matrices
        # whose entries grow along them: a fixed cost, a step per orbit
        # point, and a quadratic term (weights fitted to measured times).
        cost = 10 + lx + 2 * ly + lz + 0.002 * ((lx + ly) ** 2 + (ly + lz) ** 2)
        return cost, WordsInput(x, w1, y, w2, z, (lx, ly, lz))

    def generate(self, seed: int) -> list[WordsInput]:
        rng = random.Random(f"words:{seed}")
        return stratified(rng, random.Random("words:reference"), self.candidate,
                          self.pass_size, self.pool_factor)

    def warmup(self) -> list[WordsInput]:
        rng = random.Random("words:warmup")
        return [self.candidate(rng)[1] for _ in range(3)]

    def prepare(self, prog, inp: WordsInput):
        def lib_point(v):
            p, q, k, d = v
            return prog.exact.qi_make(p, k, q, d)

        def lib_mat(m):
            return prog.lattice.Mat2(*m[0], *m[1])

        return lib_mat(inp.w1), lib_point(inp.x), lib_mat(inp.w2), lib_point(inp.y), lib_point(inp.z)

    def query(self, prog, args):
        w1, x, w2, y, _ = args
        g = prog.groupoid
        m1 = g.normal_form(w1, x)
        m2 = g.normal_form(w2, y)
        return m1, m2, g.compose(m2, m1)

    def check(self, prog, inp: WordsInput, args, out):
        _, x, _, y, z = args
        m1, m2, m21 = out
        w21 = mat_mul(inp.w2, inp.w1)
        for m, w, src, tgt in ((m1, inp.w1, x, y), (m2, inp.w2, y, z), (m21, w21, x, z)):
            if m.source != src or m.target != tgt:
                return "wrong", "morphism endpoints differ from the word's", None
            if mat_det(w) != (-1) ** (m.i + m.j):
                return "wrong", f"det {mat_det(w)} != (-1)^({m.i}+{m.j})", None
        if _entries(m1.mat) != sign_class(inp.w1) or _entries(m2.mat) != sign_class(inp.w2):
            return "wrong", "normal form matrix differs from the word's", None
        if _entries(prog.groupoid.morphism_matrix(m21)) != sign_class(w21):
            return "wrong", "composite word evaluates to another matrix", None
        return None, None, (m1.i, m1.j, m2.i, m2.j)

    def describe(self, inputs, details) -> dict:
        ij = [d for d in details if d is not None]
        return {"orbit_length": quantile_summary([n for i in inputs for n in i.orbits]),
                "nf_i_plus_j": quantile_summary([d[0] + d[1] for d in ij] + [d[2] + d[3] for d in ij]),
                "nf_both_sides_share": (sum((d[0] > 0 and d[1] > 0) + (d[2] > 0 and d[3] > 0)
                                            for d in ij) / (2 * len(ij)) if ij else None)}


WORKLOADS = {w.name: w for w in (Pell(), Solve(), Words())}
