import ast
import math
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quadform import (
    AdditiveIntegers,
    ComposeMismatch,
    DiscriminantMismatch,
    Form,
    InternalLimit,
    Mat2,
    Morphism,
    PMat,
    ProjectiveMatrices,
    act,
    compose,
    cycle_loop,
    derivative,
    equivalent_sl,
    free_extend,
    generator_matrix,
    hom_base,
    hom_in_H,
    identity_morphism,
    invert,
    mobius_apply,
    morphism_matrix,
    normal_form,
    orbit,
    qi_make,
)
from quadform.groupoid import ORBIT_CACHE_SIZE, _orbit_cached
from helpers import (
    SRC_DIR,
    _prefix_products,
    normal_form_candidates,
    orbit_by_derivative,
    parity_components,
    random_morphism,
    random_point,
    random_word,
    run_python,
)

SQRT2 = qi_make(0, 1, 1, 2)
SILVER = qi_make(1, 1, 1, 2)  # 1 + sqrt2
PRE2 = qi_make(-1, -1, 3, 13)  # preperiod 2 (a negative quotient), cycle 5
PRE1_61 = qi_make(2, 3, 7, 61)  # preperiod 1, cycle 76


# -- derivative and generators ------------------------------------------------


def test_derivative_examples():
    assert derivative(SQRT2) == (1, SILVER)
    assert derivative(SILVER) == (2, SILVER)
    assert derivative(qi_make(-1, -1, 3, 13)) == (-2, qi_make(5, 1, 4, 13))


def test_derivative_maps_back_and_exceeds_one():
    rng = random.Random(7)
    for _ in range(200):
        x = random_point(rng, rng.choice([2, 3, 5, 13, 61]))
        a, xp = derivative(x)
        assert xp > 1
        assert mobius_apply(generator_matrix(a), xp) == x


def test_generator_matrix_examples():
    assert generator_matrix(1) == Mat2(1, 1, 1, 0)
    assert generator_matrix(0) == Mat2(0, 1, 1, 0)
    assert generator_matrix(-2) == Mat2(-2, 1, 1, 0)
    assert generator_matrix(5).det == -1


# -- orbits --------------------------------------------------------------------


def test_orbit_sqrt2():
    orb = orbit(SQRT2)
    assert orb.preperiod == (SQRT2,)
    assert orb.cycle == (SILVER,)
    assert orb.quotients == (1, 2)


def test_orbit_sqrt13():
    orb = orbit(qi_make(0, 1, 1, 13))
    assert orb.pre_len == 1
    assert orb.cycle_len == 5
    assert orb.quotients == (3, 1, 1, 1, 1, 6)


def test_orbit_purely_periodic():
    orb = orbit(SILVER)
    assert orb.preperiod == ()
    assert orb.cycle == (SILVER,)


def test_orbit_structure_invariants():
    rng = random.Random(99)
    for _ in range(60):
        x = random_point(rng, rng.choice([2, 3, 5, 13]))
        orb = orbit(x)
        # cycle entries pairwise distinct, none in the preperiod
        assert len(set(orb.cycle)) == orb.cycle_len
        assert not set(orb.cycle) & set(orb.preperiod)
        # derivative of the last cycle entry closes the loop
        assert derivative(orb.cycle[-1])[1] == orb.cycle[0]
        # cumulative matrices reconstruct the start point
        prefixes = _prefix_products(orb, orb.length)
        for k in range(orb.length):
            assert mobius_apply(prefixes[k], orb.point_at(k)) == x
        # the product-tree loop matrix is the one the prefixes give
        assert orb.loop_matrix == prefixes[-1] * prefixes[orb.pre_len].inv()
        # every complete quotient after the first step exceeds 1
        for p in orb.cycle:
            assert p > 1


def test_orbit_cap_trips():
    with pytest.raises(InternalLimit):
        orbit(qi_make(0, 1, 1, 9973), cap=2)


@st.composite
def walk_starts(draw):
    """(p + q*sqrt(delta))/r entered with a common factor, either sign of q
    and r, |q| > 1 and delta up to 1e6."""
    delta = draw((st.integers(2, 1000) | st.integers(10**5, 10**6)).filter(
        lambda d: math.isqrt(d) ** 2 != d))
    k, p = draw(st.integers(1, 6)), draw(st.integers(-1000, 1000))
    q = draw(st.sampled_from([-3, -2, 2, 3]))
    r = draw(st.integers(1, 8)) * draw(st.sampled_from([-1, 1]))
    return qi_make(k * p, k * q, k * r, delta)


@given(walk_starts())
@settings(deadline=None, max_examples=60)
def test_orbit_matches_a_walk_by_derivative(x):
    cap = 20000
    ref = orbit_by_derivative(x, cap)
    if ref is None:
        with pytest.raises(InternalLimit, match=f"exceeded {cap} steps"):
            orbit(x, cap)
    else:
        orb = orbit(x, cap)
        assert (orb.quotients, orb.pre_len, orb.preperiod, orb.cycle) == ref
        # the cap admits an orbit of exactly cap points and names the next one
        assert orbit(x, orb.length) == orb
        with pytest.raises(InternalLimit) as err:
            orbit(x, orb.length - 1)
        assert str(err.value) == f"orbit of {ref[3][-1]} exceeded {orb.length - 1} steps"


def test_walks_through_one_cycle_share_their_pairs():
    sqrt13 = qi_make(0, 1, 1, 13)
    home = orbit(sqrt13)
    cycle = home.keys[home.pre_len:]
    for k, x in enumerate(home.cycle):
        orb = orbit(x)
        assert (orb.pre_len, orb.keys) == (0, cycle[k:] + cycle[:k])
        m = hom_base(x, sqrt13)
        assert (m.i, m.j) == (0, home.pre_len + k)
    # a preperiodic point onto the same cycle
    y = mobius_apply(Mat2(7, 3, 2, 1), sqrt13)
    orb = orbit(y)
    assert orb.pre_len > 1 and sorted(orb.keys[orb.pre_len:]) == sorted(cycle)
    first = next(i for i, key in enumerate(orb.keys) if key in home.keys)
    m = hom_base(y, sqrt13)
    assert (m.i, m.j) == (first, home.keys.index(orb.keys[first]))
    assert orb.point_at(m.i) == home.point_at(m.j)


# -- hom sets --------------------------------------------------------------------


def test_hom_base_examples():
    m = hom_base(SQRT2, SILVER)
    assert (m.i, m.j) == (1, 0)
    assert m.mat == PMat(Mat2(0, 1, 1, -1))
    assert mobius_apply(m.mat, SQRT2) == SILVER

    assert hom_base(SQRT2, SQRT2).is_identity

    x = qi_make(0, -1, 1, 13)
    y = qi_make(3, 1, 2, 13)
    assert hom_base(x, y) is None


def test_hom_base_none_confirmed_by_reachability_oracle():
    # bounded BFS over generator substitutions: the corresponding forms
    # [1,0,-13] and [-2,3,2] are not connected at either parity
    label = parity_components([(1, 0, -13), (-2, 3, 2)], coef_cap=300, span=9)
    for par in (0, 1):
        assert label[((1, 0, -13), 0)] != label[((-2, 3, 2), par)]


def test_hom_base_mixed_delta():
    with pytest.raises(DiscriminantMismatch):
        hom_base(SQRT2, qi_make(0, 1, 1, 3))


def test_hom_exists_iff_cycles_intersect():
    rng = random.Random(5)
    for _ in range(80):
        x = random_point(rng, 13)
        y = random_point(rng, 13)
        m = hom_base(x, y)
        meets = bool(set(orbit(x).cycle) & set(orbit(y).cycle))
        assert (m is not None) == meets
        if m is not None:
            assert mobius_apply(m.mat, x) == y


def test_hom_in_H_examples():
    assert hom_in_H(SQRT2, SQRT2).is_identity

    m = hom_in_H(SQRT2, SILVER)
    assert (m.i, m.j) == (1, 1)
    assert m.mat == PMat(Mat2(1, 1, 0, 1))
    assert m.mat.det == 1

    assert hom_in_H(qi_make(0, -1, 1, 13), qi_make(3, 1, 2, 13)) is None


def test_hom_in_H_even_cycle_obstruction():
    # sqrt3 = [1; 1,2 repeating]: cycle length 2, so a det -1 base morphism
    # cannot be repaired
    sqrt3 = qi_make(0, 1, 1, 3)
    assert orbit(sqrt3).cycle_len == 2
    tail = derivative(sqrt3)[1]
    base = hom_base(sqrt3, tail)
    assert base.mat.det == -1
    assert hom_in_H(sqrt3, tail) is None
    # but a two-step shift is back in H
    tail2 = derivative(tail)[1]
    m = hom_in_H(sqrt3, tail2)
    assert m is not None and m.mat.det == 1


# -- normal form -------------------------------------------------------------------


def test_normal_form_identity():
    m = normal_form(Mat2.identity(), SILVER)
    assert m.is_identity and m.source == m.target == SILVER


def test_normal_form_single_generator():
    m = normal_form(Mat2(1, 1, 1, 0), SILVER)
    assert (m.i, m.j) == (0, 1)
    assert m.target == SQRT2


def test_normal_form_double_loop():
    m = normal_form(Mat2(5, 2, 2, 1), SILVER)
    assert (m.i, m.j) == (0, 2)
    assert m.target == SILVER
    assert generator_matrix(2) * generator_matrix(2) == Mat2(5, 2, 2, 1)


def test_normal_form_matches_word_matrix():
    rng = random.Random(31)
    for _ in range(60):
        x = random_point(rng, rng.choice([2, 5, 13]))
        word, endpoint = random_word(rng, x, max_len=14)
        m = normal_form(PMat(word), x)
        assert m.source == x and m.target == endpoint
        assert morphism_matrix(m) == PMat(word)
        assert m.mat.det == (-1) ** (m.i + m.j)


def test_normal_form_uniqueness_window():
    rng = random.Random(32)
    for _ in range(25):
        x = random_point(rng, rng.choice([2, 3, 5]))
        word, _ = random_word(rng, x, max_len=10)
        m = normal_form(PMat(word), x)
        cands = normal_form_candidates(PMat(word), x, 2 * (m.i + m.j))
        assert cands == [(m.i, m.j)]


@pytest.mark.parametrize("x", [SILVER, SQRT2, PRE2, PRE1_61],
                         ids=["pure", "sqrt2", "pre2", "pre1_61"])
@pytest.mark.parametrize("k", [1, -1, 37, -37, 300, -300])
@pytest.mark.parametrize("sign", [1, -1])
def test_normal_form_cycle_loop_powers(x, k, sign):
    orb = orbit(x)
    pre, turns = orb.pre_len, abs(k) * orb.cycle_len
    g = orb.loop_matrix ** k
    m = normal_form(g if sign > 0 else -g, x)
    assert (m.i, m.j) == ((pre, pre + turns) if k > 0 else (pre + turns, pre))
    assert m.source == m.target == x
    assert m.mat == PMat(g)


@pytest.mark.parametrize("k", [1, -1, 2, -5, 37, -37])
def test_normal_form_word_and_loop_power(k):
    rng = random.Random(1000 + k)
    for _ in range(8):
        x = random_point(rng, rng.choice([2, 3, 13]))
        word, endpoint = random_word(rng, x, max_len=12)
        # wind at the target after the word, or at the source before it
        for g in (orbit(endpoint).loop_matrix ** k * word, word * orbit(x).loop_matrix ** k):
            m = normal_form(g, x)
            assert m.source == x and m.target == endpoint
            assert morphism_matrix(m) == m.mat == PMat(g)


# -- morphism algebra ----------------------------------------------------------------


def test_morphism_matrix_examples():
    assert morphism_matrix(identity_morphism(SQRT2)) == PMat.identity()
    down = hom_base(SQRT2, SILVER)  # (1, 0)
    assert morphism_matrix(down) == PMat(Mat2(0, 1, 1, -1))
    loop2 = normal_form(Mat2(5, 2, 2, 1), SILVER)  # (0, 2)
    assert morphism_matrix(loop2) == PMat(Mat2(5, 2, 2, 1))


def test_compose_inverse_pair_cancels():
    down = hom_base(SQRT2, SILVER)
    assert compose(down, invert(down)).is_identity
    assert compose(invert(down), down).is_identity


def test_compose_loops_stack():
    loop = normal_form(Mat2(2, 1, 1, 0), SILVER)  # (0, 1) self-loop
    twice = compose(loop, loop)
    assert (twice.i, twice.j) == (0, 2)
    assert twice.mat == PMat(Mat2(5, 2, 2, 1))


def test_compose_mixed_example():
    down = hom_base(SQRT2, SILVER)          # (1, 0) from sqrt2
    loop = normal_form(Mat2(2, 1, 1, 0), SILVER)  # (0, 1) at 1+sqrt2
    m = compose(loop, down)
    assert (m.i, m.j) == (1, 1)
    assert m.mat == PMat(Mat2(1, 1, 0, 1))


def test_compose_endpoint_mismatch():
    loop = normal_form(Mat2(2, 1, 1, 0), SILVER)
    down = hom_base(SQRT2, SILVER)
    with pytest.raises(ComposeMismatch):
        compose(down, loop)  # loop ends at 1+sqrt2, down starts at sqrt2


def test_compose_agrees_with_normal_form_of_product():
    rng = random.Random(77)
    for _ in range(60):
        x = random_point(rng, rng.choice([2, 3, 13]))
        m1 = random_morphism(rng, x, max_len=10)
        m2 = random_morphism(rng, m1.target, max_len=10)
        quick = compose(m2, m1)
        slow = normal_form(m2.mat.rep * m1.mat.rep, x)
        assert (quick.i, quick.j, quick.mat, quick.target) == \
            (slow.i, slow.j, slow.mat, slow.target)


def test_compose_associative_identity_involution():
    rng = random.Random(78)
    for _ in range(40):
        x = random_point(rng, rng.choice([2, 5]))
        m1 = random_morphism(rng, x, max_len=8)
        m2 = random_morphism(rng, m1.target, max_len=8)
        m3 = random_morphism(rng, m2.target, max_len=8)
        assert compose(m3, compose(m2, m1)) == compose(compose(m3, m2), m1)
        assert compose(m1, identity_morphism(x)) == m1
        assert compose(identity_morphism(m1.target), m1) == m1
        assert invert(invert(m1)) == m1
        assert compose(m1, invert(m1)).is_identity


def test_invert_examples():
    assert invert(identity_morphism(SQRT2)).is_identity
    down = hom_base(SQRT2, SILVER)
    up = invert(down)
    assert (up.i, up.j) == (0, 1)
    assert (up.source, up.target) == (SILVER, SQRT2)
    loop2 = normal_form(Mat2(5, 2, 2, 1), SILVER)
    rev = invert(loop2)
    assert (rev.i, rev.j) == (2, 0)
    assert rev.mat == PMat(Mat2(1, -2, -2, 5))


# -- certificates ----------------------------------------------------------------------
# Every check in the library is a real check that raises InternalLimit, so
# python -O runs the same library.


def test_no_assert_statement_in_the_library():
    for path in sorted((SRC_DIR / "quadform").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"assert in {path.name} at lines {lines}"


SQRT2_LOOP = Mat2(1, 2, 1, 1)  # the primitive cycle loop at sqrt2, determinant -1


def test_morphism_takes_its_endpoints_from_its_orbits():
    orb = orbit(SQRT2)
    m = Morphism(1, 2, PMat(SQRT2_LOOP), orb, orb)
    assert m == cycle_loop(SQRT2)
    assert (m.source, m.target) == (SQRT2, SQRT2)
    assert hash(m) == hash((m.source, m.target, m.i, m.j, m.mat))
    assert repr(m) == ("Morphism(source=QuadIrr(delta=2, p=0, q=1, r=1), "
                       "target=QuadIrr(delta=2, p=0, q=1, r=1), "
                       "i=1, j=2, mat=PMat(rep=Mat2(p=1, q=2, r=1, s=1)))")
    down = hom_base(SQRT2, SILVER)
    assert (down.source, down.target) == (SQRT2, SILVER)
    assert (invert(down).source, invert(down).target) == (SILVER, SQRT2)


@pytest.mark.parametrize("i, j, mat", [
    (-1, 0, PMat.identity()),                # negative step count
    (1, 0, PMat.identity()),                 # the orbits do not meet there
    (2, 3, PMat(SQRT2_LOOP)),                # not reduced: (1, 2) meets one step earlier
    (0, 0, PMat(SQRT2_LOOP ** 2)),           # empty word carrying a loop's matrix
    (1, 2, PMat(SQRT2_LOOP ** 2)),           # wrong determinant for the word
    (1, 2, PMat(Mat2(1, 1, 1, 0))),          # right determinant, wrong action
], ids=["negative", "no meeting", "unreduced", "empty word", "determinant", "action"])
def test_morphism_rejects_a_corrupted_word(i, j, mat):
    orb = orbit(SQRT2)
    with pytest.raises(InternalLimit, match="certificate"):
        Morphism(i, j, mat, orb, orb)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_corrupted_morphism_is_rejected_under_python_O(flags):
    code = ("from quadform import InternalLimit, Mat2, Morphism, PMat, orbit, qi_make\n"
            "o = orbit(qi_make(0, 1, 1, 2))\n"
            "try:\n"
            "    Morphism(0, 0, PMat(Mat2(3, 4, 2, 3)), o, o)\n"
            "except InternalLimit as e:\n"
            "    print(type(e).__name__, e)\n")
    proc = run_python(*flags, "-c", code)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("InternalLimit morphism")
    assert proc.stdout.rstrip().endswith("failed its certificate")


# -- cycle loops -----------------------------------------------------------------------


def test_cycle_loop_shape():
    loop = cycle_loop(SQRT2)
    orb = orbit(SQRT2)
    assert (loop.i, loop.j) == (orb.pre_len, orb.pre_len + orb.cycle_len)
    assert loop.source == loop.target == SQRT2
    double = cycle_loop(SQRT2, 2)
    assert double.mat == PMat(loop.mat.rep * loop.mat.rep)


def test_cycle_loop_builds_no_prefix_matrices():
    # sqrt(1000003): preperiod 1, a cycle of 458 steps
    x = qi_make(0, 1, 1, 10**6 + 3)
    loop = cycle_loop(x)
    orb = orbit(x)
    assert orb.pre_len == 1 and orb.cycle_len == 458
    prefixes = _prefix_products(orb, orb.length)
    assert loop.mat == PMat(prefixes[-1] * prefixes[orb.pre_len].inv())


def test_long_orbit_equivalence_and_normal_form():
    # sqrt(43461196): preperiod 1, a cycle of 15740 steps
    delta = 43461196
    f = Form(1, 0, -delta)
    g = act(f, Mat2(2, 1, 3, 2))
    t0 = time.perf_counter()
    h = equivalent_sl(f, g)
    x = qi_make(0, 1, 1, delta)
    nf = normal_form(orbit(x).loop_matrix ** 2, x)
    dt = time.perf_counter() - t0
    assert act(f, h) == g
    assert (nf.i, nf.j) == (1, 31481)
    assert dt < 5, f"runtime {dt:.2f}s exceeds budget 5s"


def test_orbit_cache_is_bounded():
    # each cap is its own cache key, so this asks for more orbits than fit
    _orbit_cached.cache_clear()
    try:
        for cap in range(10, 10 + ORBIT_CACHE_SIZE + 50):
            orbit(SQRT2, cap)
        info = _orbit_cached.cache_info()
        assert info.maxsize == ORBIT_CACHE_SIZE
        assert info.currsize == ORBIT_CACHE_SIZE
    finally:
        _orbit_cached.cache_clear()


# -- free extension ----------------------------------------------------------------------


def test_free_extend_step_counts():
    target = AdditiveIntegers()
    assert free_extend(target, identity_morphism(SQRT2)) == 0
    loop2 = normal_form(Mat2(5, 2, 2, 1), SILVER)
    assert free_extend(target, loop2) == 2
    down = hom_base(SQRT2, SILVER)  # (1, 0)
    assert free_extend(target, down) == -1


def test_free_extend_recovers_matrix():
    rng = random.Random(55)
    target = ProjectiveMatrices()
    for _ in range(40):
        x = random_point(rng, rng.choice([2, 13]))
        m = random_morphism(rng, x, max_len=10)
        assert free_extend(target, m) == morphism_matrix(m) == m.mat


def test_free_extend_functorial():
    rng = random.Random(56)
    targets = (AdditiveIntegers(), ProjectiveMatrices())
    for _ in range(30):
        x = random_point(rng, rng.choice([2, 5, 13]))
        m1 = random_morphism(rng, x, max_len=8)
        m2 = random_morphism(rng, m1.target, max_len=8)
        for t in targets:
            assert free_extend(t, compose(m2, m1)) == \
                t.compose(free_extend(t, m2), free_extend(t, m1))
