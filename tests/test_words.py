import copy
import gc
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from sturmrep.dynamics import fixed_point_params, fixed_point_stream
from sturmrep.errors import DomainError, FieldMismatchError
from sturmrep.exactfield import QuadExt
from sturmrep import words
from sturmrep.morphisms import BinaryMorphism, Generator, compose, is_primitive_block, parse_genword
from sturmrep.representation import rep
from sturmrep.sqroot import iter_square_roots, square_root_stream
from sturmrep.words import (
    LOWER,
    UPPER,
    ParamVector,
    PrefixStream,
    SlopeIntercept,
    iet_code,
    iet_stream,
    mechanical,
    mechanical_stream,
    params_of,
    _most_steps,
)

from oracles import (
    iet_oracle,
    mechanical_letters_at,
    mechanical_oracle,
    most_steps_by_search,
    substitute,
    surd_sign,
    word_stream,
)

SQRT3_OVER_3 = QuadExt(0, 1, 3, 3)
HALF = QuadExt(1, 0, 2)
FIB_ALPHA = QuadExt(3, -1, 2, 5)  # (3-sqrt(5))/2


def test_mechanical_known_prefix():
    si = SlopeIntercept(SQRT3_OVER_3, SQRT3_OVER_3)
    assert mechanical(si, 5) == "10101"


def test_mechanical_zero_intercept_starts_with_zero():
    for alpha in (SQRT3_OVER_3, FIB_ALPHA, QuadExt(1, 1, 5, 2)):
        assert mechanical(SlopeIntercept(alpha, QuadExt(0)), 1) == "0"


def test_mechanical_fibonacci_prefix():
    si = SlopeIntercept(FIB_ALPHA, FIB_ALPHA)
    assert mechanical(si, 10) == "0100101001"


def test_slope_intercept_holds_its_params():
    # the vector params_of built from the fields, once, at construction
    for alpha, delta, kind, rho in (
        (SQRT3_OVER_3, SQRT3_OVER_3, LOWER, SQRT3_OVER_3),
        (FIB_ALPHA, QuadExt(1, 0, 3), UPPER, QuadExt(1, 0, 3)),
        (FIB_ALPHA, QuadExt(1), UPPER, QuadExt(1)),
        (SQRT3_OVER_3, QuadExt(0), LOWER, QuadExt(0)),
        (SQRT3_OVER_3, QuadExt(0), UPPER, QuadExt(1)),  # zero upper intercept: rho = l0+l1
    ):
        si = SlopeIntercept(alpha, delta, kind)
        fresh = ParamVector(1 - alpha, alpha, rho, kind)
        assert params_of(si) is si.params
        assert si.params == fresh and si.params.pairs == fresh.pairs
        # params is derived: a pickled or copied value builds it again
        for y in (pickle.loads(pickle.dumps(si)), copy.copy(si), copy.deepcopy(si)):
            assert y == si and y.params == fresh and y.params.pairs == fresh.pairs
            assert repr(y) == repr(si) and "params" not in repr(y)


def test_slope_and_intercept_from_two_fields_raise_at_construction():
    with pytest.raises(FieldMismatchError, match=r"^cannot mix sqrt\(3\) with sqrt\(2\)$"):
        SlopeIntercept(QuadExt(0, 1, 2, 2), SQRT3_OVER_3)
    # the range checks come first, with their own text
    with pytest.raises(DomainError, match="^intercept out of range$"):
        SlopeIntercept(QuadExt(0, 1, 2, 2), SQRT3_OVER_3 + 1)


def _frac(x: QuadExt) -> QuadExt:
    return x - x.floor()


@pytest.mark.parametrize("kind", (LOWER, UPPER))
def test_mechanical_matches_bruteforce_oracle(kind):
    # (alpha, delta, letters) over rational, irrational and boundary
    # intercepts; at delta = frac(-k*alpha) the point alpha*k + delta is an
    # integer, where the lower and upper codings differ
    cases = []
    rng = random.Random(5)
    for _ in range(10):
        m = rng.choice((2, 3, 5, 7))
        raw = (rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9))
        alpha = _frac(QuadExt(*raw, m))
        cases.append((alpha, QuadExt(rng.randint(0, 6), 0, 7), 300))
    rng = random.Random(8)
    for _ in range(8):
        m = rng.choice((2, 3, 5, 7, 13))
        alpha = _frac(QuadExt(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), m))
        y = QuadExt(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), m)
        edges = [QuadExt(0), _frac(y), _frac(alpha * -rng.randint(1, 200))]
        if kind == UPPER:
            edges.append(QuadExt(1))
        cases += [(alpha, delta, 300) for delta in edges]
    for alpha, delta, n in cases:
        want = mechanical_oracle(
            (alpha.a, alpha.b, alpha.c), (delta.a, delta.b, delta.c), alpha.m, n, kind
        )
        assert mechanical(SlopeIntercept(alpha, delta, kind), n) == want
        # the upper coding runs on (0, l0+l1], where the point 0 is l0+l1 = 1
        rho = QuadExt(1) if kind == UPPER and delta == 0 else delta
        assert iet_code(ParamVector(1 - alpha, alpha, rho, kind), n) == want


@pytest.mark.parametrize("kind", (LOWER, UPPER))
def test_iet_equals_mechanical_for_interior_intercepts(kind):
    # mechanical runs on the iet engine, so both are held to the oracle too
    rng = random.Random(3)
    for _ in range(5):
        m = rng.choice((2, 3, 5, 7, 13))
        x = QuadExt(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), m)
        alpha = _frac(x)
        delta = QuadExt(rng.randint(1, 7), 0, 8)
        w = iet_code(ParamVector(1 - alpha, alpha, delta, kind), 1000)
        assert w == mechanical(SlopeIntercept(alpha, delta, kind), 1000)
        assert w == mechanical_oracle(
            (alpha.a, alpha.b, alpha.c), (delta.a, delta.b, delta.c), alpha.m, 1000, kind
        )


def test_rational_slope_rejected():
    with pytest.raises(DomainError):
        SlopeIntercept(QuadExt(1, 0, 2), QuadExt(0))
    v = ParamVector(QuadExt(0, 1, 1, 2), QuadExt(0, 1, 1, 2), QuadExt(0))
    for n in (0, 5):
        with pytest.raises(DomainError):
            iet_code(v, n)
    with pytest.raises(DomainError):
        iet_stream(v)
    # l0/l1 = 5/6 with both lengths irrational and no common denominator
    v = ParamVector(QuadExt(1, 1, 3, 2), QuadExt(2, 2, 5, 2), QuadExt(0))
    with pytest.raises(DomainError, match="rational slope"):
        iet_stream(v)


def test_lower_upper_disagree_on_at_most_two_adjacent_positions():
    rng = random.Random(11)
    for _ in range(6):
        m = rng.choice((2, 3, 5, 13))
        x = QuadExt(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), m)
        alpha = x - x.floor()
        y = QuadExt(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), m)
        delta = y - y.floor()
        lower = mechanical(SlopeIntercept(alpha, delta, LOWER), 10_000)
        upper = mechanical(SlopeIntercept(alpha, delta, UPPER), 10_000)
        diffs = [i for i in range(10_000) if lower[i] != upper[i]]
        assert len(diffs) <= 2
        if len(diffs) == 2:
            assert diffs[1] == diffs[0] + 1


def test_iet_known_prefix():
    v = ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, SQRT3_OVER_3)
    assert iet_code(v, 20) == "10101101010110101011"


def test_iet_scale_invariance():
    v = ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, SQRT3_OVER_3)
    for factor in (2, Fraction(7, 3), QuadExt(5, 0, 4)):
        scaled = ParamVector(v.l0 * factor, v.l1 * factor, v.rho * factor)
        assert iet_code(scaled, 500) == iet_code(v, 500)


def test_letter_frequency_three_distance_bound():
    v = ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, QuadExt(1, 0, 3))
    n = 10_000
    w = iet_code(v, n)
    gap = w.count("1") - v.l1 / (v.l0 + v.l1) * n
    assert -2 <= gap <= 2


def test_param_vector_domains():
    a = SQRT3_OVER_3
    total = QuadExt(1)
    ParamVector(1 - a, a, QuadExt(0), LOWER)
    ParamVector(1 - a, a, total, UPPER)
    with pytest.raises(DomainError):
        ParamVector(1 - a, a, total, LOWER)
    with pytest.raises(DomainError):
        ParamVector(1 - a, a, QuadExt(0), UPPER)
    with pytest.raises(DomainError):
        ParamVector(a - 1, a, QuadExt(0), LOWER)
    # l0 + l1 = 1 is rational, so only the field join sees the sqrt(2) rho
    with pytest.raises(FieldMismatchError, match=r"cannot mix sqrt\(2\) with sqrt\(3\)"):
        ParamVector(1 - a, a, QuadExt(0, 1, 2, 2), LOWER)


@st.composite
def param_cases(draw):
    # (a, b, c) triples for (a + b*sqrt(m))/c with zero, negative and
    # rational parts; rho also on both ends of [0, l0+l1]
    m = draw(st.sampled_from((2, 3, 5, 7)))
    part = st.tuples(st.integers(-6, 6), st.just(0) | st.integers(-4, 4), st.integers(1, 6))
    (a0, b0, c0), (a1, b1, c1) = l0, l1 = draw(part), draw(part)
    total = (a0 * c1 + a1 * c0, b0 * c1 + b1 * c0, c0 * c1)
    rho = draw(st.sampled_from(((0, 0, 1), total)) | part)
    return m, l0, l1, rho, draw(st.sampled_from((LOWER, UPPER)))


@settings(max_examples=400)
@given(param_cases())
def test_param_vector_accepts_exactly_the_oracle_domain(case):
    m, l0, l1, rho, kind = case
    (a0, b0, c0), (a1, b1, c1), (ar, br, cr) = l0, l1, rho
    at = surd_sign(ar, br, m)
    # sign of rho - (l0 + l1), over the denominator c0*c1*cr
    gap = surd_sign(ar * c0 * c1 - (a0 * c1 + a1 * c0) * cr,
                    br * c0 * c1 - (b0 * c1 + b1 * c0) * cr, m)
    inside = at >= 0 and gap < 0 if kind == LOWER else at > 0 and gap <= 0
    ok = surd_sign(a0, b0, m) > 0 and surd_sign(a1, b1, m) > 0 and inside
    args = [QuadExt(a, b, c, m) for a, b, c in (l0, l1, rho)]
    if ok:
        assert ParamVector(*args, kind).rho == args[2]
    else:
        with pytest.raises(DomainError):
            ParamVector(*args, kind)


def test_streams_are_replayable_and_buffered():
    v = ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, SQRT3_OVER_3)
    s = iet_stream(v)
    assert s.prefix(10) == s.prefix(10)
    assert s.prefix(5) == s.prefix(10)[:5]
    assert iet_stream(v).prefix(30) == s.prefix(30)
    assert s.slice(3, 8) == s.prefix(8)[3:8]
    assert s[4] == s.prefix(5)[4]
    m = mechanical_stream(SlopeIntercept(SQRT3_OVER_3, SQRT3_OVER_3))
    assert m.prefix(20) == s.prefix(20)
    s.prefix(10)
    for bad in (lambda: s[-1], lambda: s.slice(-3, 4), lambda: s.slice(5, 2),
                lambda: s.prefix(-1), lambda: iet_code(v, -1),
                lambda: mechanical(SlopeIntercept(SQRT3_OVER_3, SQRT3_OVER_3), -1)):
        with pytest.raises(ValueError):
            bad()
    assert s.slice(4, 4) == "" and s.prefix(0) == ""


def test_word_stream_repeats():
    assert word_stream("01").prefix(5) == "01010"
    with pytest.raises(ValueError):
        word_stream("")


@pytest.mark.parametrize("read", (
    lambda s: s.prefix(3),
    lambda s: s.slice(1, 3),
    lambda s: s[2],
    lambda s: s.slice(5, 9),
))
def test_reading_past_the_end_of_a_finite_stream_raises_domain_error(read):
    s = PrefixStream(iter(["0", "1"]))
    with pytest.raises(DomainError, match="the stream has only 2 letters"):
        read(s)
    # the letters it has stay readable, and so does its end
    assert s.prefix(2) == "01" and s[1] == "1" and s.slice(2, 2) == ""
    assert list(s.blocks()) == ["01"]


def test_a_finite_stream_read_inside_a_generator_raises_domain_error():
    # a bare StopIteration here would turn into RuntimeError
    def reads(stream):
        yield stream.prefix(3)

    with pytest.raises(DomainError, match="3 needed"):
        next(reads(PrefixStream(iter(["01"]))))
    image = BinaryMorphism("0", "11").apply(PrefixStream(iter(["01"])))
    assert image.prefix(3) == "011"
    with pytest.raises(DomainError, match="the stream has only 3 letters"):
        image.prefix(4)


def test_a_non_ascii_letter_raises_domain_error_naming_it():
    # letters are buffered one byte each, so a prefix has its n letters
    with pytest.raises(DomainError, match="^non-ASCII letter 'é' in a stream$"):
        PrefixStream(iter(["é0"])).prefix(2)
    s = PrefixStream(iter(["01", "0é", "1"]))
    assert s.prefix(2) == "01"
    with pytest.raises(DomainError, match="'é'"):
        s.prefix(3)
    # a block of 256 letters ending in one: before, a cut through its bytes
    image = BinaryMorphism("10", "1").apply(PrefixStream(iter(["0" * 255 + "é"])))
    with pytest.raises(DomainError, match="'é'"):
        image.prefix(400)


@st.composite
def most_steps_cases(draw):
    """(u, v, m, strict) with v > 0 and pairs of both signs, rational ones
    among them, and u near a multiple of v, where strict decides."""
    m = draw(st.sampled_from((2, 3, 5, 7, 13, 1_000_003)))
    big = st.integers(-10**draw(st.integers(1, 30)), 10**draw(st.integers(1, 30)))
    va, vb = draw(big), draw(st.one_of(st.just(0), big))
    assume((va, vb) != (0, 0))
    if surd_sign(va, vb, m) < 0:
        va, vb = -va, -vb
    k = draw(st.integers(-10**12, 10**12))
    ua, ub = draw(st.sampled_from((
        (draw(big), draw(st.one_of(st.just(0), big))),
        (k * va, k * vb),
        (k * va + draw(st.integers(-2, 2)), k * vb + draw(st.integers(-2, 2))),
    )))
    return ua, ub, va, vb, m, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(most_steps_cases())
def test_most_steps_matches_certified_search(case):
    # the engine's floors for its seek, partial quotients and heads
    assert _most_steps(*case) == most_steps_by_search(*case)


FIELDS = (2, 3, 5, 7, 13)


@st.composite
def iet_vectors(draw):
    """2iet vectors with slopes near 0, 1 and 1/2 among others, rho on the
    interval ends and on an orbit point that hits one, and scalings that
    make l0 + l1 irrational."""
    m = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from((LOWER, UPPER)))

    def unit():
        x = QuadExt(draw(st.integers(-30, 30)), draw(st.integers(1, 9)),
                    draw(st.integers(1, 30)), m)
        return x - x.floor()

    base, squeeze = unit(), draw(st.integers(1, 500))
    alpha = draw(st.sampled_from((
        base,
        base / squeeze,  # q = floor(l0/l1) up to about 10^3
        1 - base / squeeze,
        HALF + (base - HALF) / (squeeze + 2),  # slope in (1/3, 2/3), q = 1
    )))
    rho = draw(st.sampled_from((
        QuadExt(1) if kind == UPPER else QuadExt(0),
        1 - alpha,  # rho = l0
        QuadExt(draw(st.integers(1, 7)), 0, 8),
        unit(),
        _frac(alpha * -draw(st.integers(1, 300))),
    )))
    scale = draw(st.sampled_from((
        QuadExt(1),
        QuadExt(draw(st.integers(1, 9)), 0, draw(st.integers(1, 9))),
        QuadExt(draw(st.integers(2, 9)), draw(st.sampled_from((-1, 1))), draw(st.integers(1, 5)), m),
    )))
    assume(scale > 0)
    return ParamVector((1 - alpha) * scale, alpha * scale, rho * scale, kind)


@st.composite
def fixed_point_vectors(draw):
    word = tuple(draw(st.lists(st.sampled_from(tuple(Generator)), min_size=2, max_size=8)))
    assume(is_primitive_block(*rep(word).named()[:4]))
    return fixed_point_params(word)


def _triple(x: QuadExt) -> tuple[int, int, int]:
    return x.a, x.b, x.c


@settings(max_examples=150, deadline=None)
@given(st.one_of(iet_vectors(), fixed_point_vectors()))
def test_iet_code_matches_step_oracle(v):
    n = 3000
    m = next(x.m for x in (v.l0, v.l1, v.rho) if x.m is not None)
    want = iet_oracle(_triple(v.l0), _triple(v.l1), _triple(v.rho), m, n, v.boundary)
    assert iet_code(v, n) == want


@st.composite
def small_quotient_vectors(draw):
    """Vectors whose slopes have small partial quotients, so that the engine
    takes several Euclid steps: frac((p + sqrt(m))/r) or one minus it, or
    the fixed-point vector of a primitive word; both kinds, and rho on an
    interval end, on an orbit point of one, or inside."""
    if draw(st.booleans()):
        return draw(fixed_point_vectors())
    m = draw(st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)))
    kind = draw(st.sampled_from((LOWER, UPPER)))
    alpha = _frac(QuadExt(draw(st.integers(-20, 20)), 1, draw(st.integers(1, 6)), m))
    if draw(st.booleans()):
        alpha = 1 - alpha
    rho = draw(st.sampled_from((
        QuadExt(1) if kind == UPPER else QuadExt(0),
        1 - alpha,
        _frac(alpha * -draw(st.integers(1, 10_000))),
        QuadExt(draw(st.integers(1, 6)), 0, 7),
    )))
    return ParamVector(1 - alpha, alpha, rho, kind)


@settings(max_examples=60, deadline=None)
@given(small_quotient_vectors(), st.integers(20_000, 60_000))
def test_euclid_levels_match_step_oracle(v, n):
    m = next(x.m for x in (v.l0, v.l1, v.rho) if x.m is not None)
    want = iet_oracle(_triple(v.l0), _triple(v.l1), _triple(v.rho), m, n, v.boundary)
    assert iet_code(v, n) == want


@pytest.mark.parametrize("kind", (LOWER, UPPER))
def test_huge_partial_quotient_below_the_first_level(kind):
    # alpha = [0; 2, N, 2, 2, ...], N = 10**12: after one Euclid step with
    # q = 1 the exchange has q = N - 1, so runs of about 10**12 copies of
    # 10 (or 01) lie one level down.  With gamma = 1 - 2*alpha and delta =
    # gamma/2 a doubled letter stands at 0 and the next at position far
    beta = QuadExt(10**12 - 1, 1, 1, 2)  # [N; 2, 2, ...]
    alpha = 1 / (2 + 1 / beta)
    gamma = 1 - 2 * alpha
    far = 2 * (1 / (2 * gamma)).floor() + 1
    for a, d in ((alpha, gamma / 2), (1 - alpha, 1 - gamma / 2)):
        si = SlopeIntercept(a, d, kind)
        t0 = time.perf_counter()
        got = mechanical(si, 80)
        near = mechanical_stream(si).slice(far - 32, far + 32)
        assert time.perf_counter() - t0 < 2.0
        assert got == mechanical_oracle(_triple(a), _triple(d), 2, 80, kind)
        assert got[0] == got[1] and got[1] != got[2]
        want = mechanical_letters_at(_triple(a), _triple(d), 2, kind, range(far - 32, far + 32))
        assert near == want and want[32] == want[33]


def _thue_morse():
    # one letter per step
    i = 0
    while True:
        yield str(bin(i).count("1") % 2)
        i += 1


CHUNKED_STREAMS = {
    "iet": lambda: iet_stream(ParamVector(1 - FIB_ALPHA, FIB_ALPHA, QuadExt(1, 0, 3), UPPER)),
    "iet_long_runs": lambda: iet_stream(
        ParamVector(SQRT3_OVER_3 / 40, 1 - SQRT3_OVER_3 / 40, HALF, LOWER)),
    "morphism": lambda: compose(parse_genword("GD'DG'")).apply(
        mechanical_stream(SlopeIntercept(SQRT3_OVER_3, HALF))),
    "square_root": lambda: square_root_stream(fixed_point_stream(parse_genword("DGG"))),
    "word": lambda: word_stream("0110100"),
    "thue_morse": lambda: PrefixStream(_thue_morse()),
    "thue_morse_image": lambda: BinaryMorphism("01", "1").apply(PrefixStream(_thue_morse())),
}


@pytest.mark.parametrize("name", sorted(CHUNKED_STREAMS))
def test_reads_do_not_depend_on_block_boundaries(name):
    make, n, rng = CHUNKED_STREAMS[name], 700, random.Random(19)
    whole = make().prefix(n)
    assert len(whole) == n
    s = make()
    assert "".join(s[i] for i in range(n)) == whole
    s, parts, i = make(), [], 0
    while i < n:
        j = min(n, i + rng.randint(0, 40))
        parts.append(s.slice(i, j))
        i = j
    assert "".join(parts) == whole
    assert "".join(islice(make().blocks(), n))[:n] == whole
    s = make()
    for _ in range(60):  # random positions, in random order
        i = rng.randrange(n)
        j = min(n, i + rng.randint(0, 40))
        assert s.slice(i, j) == whole[i:j]
    assert s.prefix(n) == whole


def test_a_read_ahead_is_handed_on_in_bounded_blocks():
    # after a long read-ahead, a morphic image and a square scan take the
    # letters they read, not a copy of the whole buffer
    s = fixed_point_stream(parse_genword("DGG"))
    s.prefix(10**6)
    phi = compose(parse_genword("DGG"))
    tracemalloc.start()
    try:
        image = phi.apply(s).prefix(10)
        root = next(iter_square_roots(s))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image == s.prefix(10) and root == "10"
    assert peak < 100_000
    blocks = list(islice(s.blocks(), 50))
    assert max(map(len, blocks)) == 256 and "".join(blocks) == s.prefix(50 * 256)


@settings(max_examples=100, deadline=None)
@given(iet_vectors(), st.integers(0, 10**5))
def test_seek_slices_equal_prefix_slices(v, i):
    assert iet_stream(v).slice(i, i + 64) == iet_code(v, i + 64)[i:]


@pytest.mark.parametrize("kind", (LOWER, UPPER))
def test_seek_onto_interval_ends(kind):
    # with rho = frac(-j*alpha) the orbit point of letter j is 0, that is
    # l0+l1 for the upper kind, and that of letter j-1 is l0; a fresh
    # stream seeks for starts over 512
    for j in (600, 777, 4999, 20_000):
        v = ParamVector(1 - FIB_ALPHA, FIB_ALPHA, _frac(FIB_ALPHA * -j), kind)
        word = iet_code(v, j + 64)
        for i in (j - 1, j):
            assert iet_stream(v).slice(i, j + 64) == word[i:]


FAR = 10**12


@pytest.mark.parametrize("kind", (LOWER, UPPER))
def test_far_mechanical_slice_matches_oracle(kind):
    # the last intercept puts alpha*FAR + delta on an integer, where the two
    # kinds differ
    root2 = QuadExt(-1, 1, 1, 2)
    cases = [(FIB_ALPHA, QuadExt(1, 0, 3)), (root2, _frac(QuadExt(0, 1, 7, 2))),
             (SQRT3_OVER_3, _frac(SQRT3_OVER_3 * -FAR))]
    for alpha, delta in cases:
        t0 = time.perf_counter()
        got = mechanical_stream(SlopeIntercept(alpha, delta, kind)).slice(FAR, FAR + 64)
        assert time.perf_counter() - t0 < 2.0
        want = mechanical_letters_at(
            _triple(alpha), _triple(delta), alpha.m, kind, range(FAR, FAR + 64))
        assert got == want


@pytest.mark.parametrize("kind", (LOWER, UPPER))
def test_huge_run_length_costs_only_the_letters_read(kind):
    # slopes sqrt(2)/10**12 and its complement give runs of about 7*10**11
    # equal letters; each intercept puts the isolated letter first and again
    # near position second, which the slice straddles, so the work must
    # follow the letters read, not the run length
    small, eps = QuadExt(0, 1, 10**12, 2), QuadExt(1, 0, 10**12)
    second = ((1 + eps) / small).floor()  # ceil - 1, as the ratio is irrational
    for alpha, delta in ((small, 1 - eps), (1 - small, eps)):
        si = SlopeIntercept(alpha, delta, kind)
        t0 = time.perf_counter()
        got = mechanical(si, 80)
        far = mechanical_stream(si).slice(second - 32, second + 32)
        assert time.perf_counter() - t0 < 2.0
        assert got == mechanical_oracle(_triple(alpha), _triple(delta), 2, 80, kind)
        assert got[0] != got[1]
        want = mechanical_letters_at(
            _triple(alpha), _triple(delta), 2, kind, range(second - 32, second + 32))
        assert far == want and len(set(want)) == 2


def test_prefix_after_far_slice():
    v = ParamVector(1 - FIB_ALPHA, FIB_ALPHA, QuadExt(2, 0, 7), UPPER)
    s = iet_stream(v)
    far = s.slice(FAR, FAR + 64)
    assert s.prefix(300) == iet_code(v, 300)
    assert s[FAR + 5] == far[5]
    assert s.slice(FAR + 10, FAR + 20) == far[10:20]
    assert s.slice(100, 400) == iet_code(v, 400)[100:]
    assert iet_stream(v).slice(FAR, FAR + 64) == far


# -- one letter source per vector ---------------------------------------------

NEAR = 2900  # near reads stay inside the oracle prefix


@st.composite
def shared_reads(draw):
    """A mechanical sequence (its SlopeIntercept and (a, b, c) triples) and
    reads on handles of its one vector: new handles by iet_stream and
    mechanical_stream, prefixes, slices near the buffer and far past it,
    single letters, steps of blocks() iterators kept open across the other
    reads, and morphic images."""
    m = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from((LOWER, UPPER)))
    alpha = _frac(QuadExt(draw(st.integers(-30, 30)), draw(st.integers(1, 9)),
                          draw(st.integers(1, 30)), m))
    delta = draw(st.sampled_from((
        QuadExt(1) if kind == UPPER else QuadExt(0),
        QuadExt(draw(st.integers(1, 7)), 0, 8),
        _frac(alpha * -draw(st.integers(1, 2000))),
        _frac(QuadExt(draw(st.integers(-9, 9)), draw(st.integers(1, 9)), 7, m)),
    )))
    reads = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(("iet_stream", "mechanical_stream"))),
        st.tuples(st.just("prefix"), st.integers(0, 99), st.integers(0, NEAR)),
        st.tuples(st.just("near"), st.integers(0, 99), st.integers(0, NEAR - 64),
                  st.integers(0, 64)),
        st.tuples(st.just("far"), st.integers(0, 99), st.integers(NEAR, 10**12),
                  st.integers(0, 64)),
        st.tuples(st.just("letter"), st.integers(0, 99), st.integers(0, NEAR)),
        st.tuples(st.just("blocks"), st.integers(0, 99), st.integers(1, 3)),
        st.tuples(st.just("apply"), st.integers(0, 99), st.text("01", min_size=1, max_size=3),
                  st.text("01", min_size=1, max_size=3), st.integers(0, NEAR)),
    ), min_size=1, max_size=30))
    return SlopeIntercept(alpha, delta, kind), reads


@settings(max_examples=80, deadline=None)
@given(shared_reads())
def test_interleaved_handles_of_one_vector_match_floor_oracle(case):
    si, reads = case
    a, d, m, kind = _triple(si.alpha), _triple(si.delta), si.alpha.m, si.kind
    want = mechanical_oracle(a, d, m, NEAR + 64, kind)
    handles = [iet_stream(si.params), mechanical_stream(si)]
    open_blocks = {}  # handle index -> (its blocks() iterator, letters handed on)
    for op, *args in reads:
        if op == "iet_stream":
            handles.append(iet_stream(si.params))
            continue
        if op == "mechanical_stream":
            handles.append(mechanical_stream(si))
            continue
        k = args[0] % len(handles)
        h = handles[k]
        if op == "prefix":
            assert h.prefix(args[1]) == want[: args[1]]
        elif op == "near":
            i, j = args[1], args[1] + args[2]
            assert h.slice(i, j) == want[i:j]
        elif op == "far":
            i, j = args[1], args[1] + args[2]
            assert h.slice(i, j) == mechanical_letters_at(a, d, m, kind, range(i, j))
        elif op == "letter":
            assert h[args[1]] == want[args[1]]
        elif op == "blocks":
            it, done = open_blocks.get(k) or (h.blocks(), 0)
            for _ in range(args[1]):
                if done + 256 > len(want):
                    break
                block = next(it)
                assert 0 < len(block) <= 256 and block == want[done : done + len(block)]
                done += len(block)
            open_blocks[k] = (it, done)
        else:  # apply
            image0, image1, n = args[1:]
            image = BinaryMorphism(image0, image1).apply(h).prefix(n)
            assert image == substitute(image0, image1, want[:n])[:n]


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts the runs of the 2iet engine that streams start."""
    runs = []
    engine = words._iet_letters

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(words, "_iet_letters", counted)
    return runs


def test_one_engine_run_per_vector_and_one_per_seek(engine_runs):
    # the four reads of one op of the streams benchmark, on one vector
    si = SlopeIntercept(SQRT3_OVER_3, QuadExt(1, 0, 3))
    v, n = si.params, 1500
    word = mechanical(si, n)
    assert iet_code(params_of(si), n) == word
    phi = compose(parse_genword("DGG'D"))
    assert phi.apply(iet_stream(v)).prefix(n) == phi.apply(word)[:n]
    far = mechanical_stream(si).slice(n, n + 64)  # next to the buffer: it extends
    assert len(engine_runs) == 1
    assert far == iet_code(v, n + 64)[n:] and len(engine_runs) == 1
    # a seek runs an engine of its own and leaves the shared buffer a prefix
    assert iet_stream(v).slice(10**6, 10**6 + 64) == mechanical_letters_at(
        _triple(si.alpha), _triple(si.delta), si.alpha.m, LOWER, range(10**6, 10**6 + 64))
    assert len(engine_runs) == 2 and engine_runs[1][2] == 10**6
    assert mechanical(si, 3000) == iet_code(v, 3000) and len(engine_runs) == 2
    # an equal vector is another vector, with a source of its own
    assert iet_code(ParamVector(v.l0, v.l1, v.rho), 100) == word[:100]
    assert len(engine_runs) == 3


def test_dropped_vectors_free_their_letters_without_gc():
    # the engine frame holds the vector's pairs, not the vector, so nothing
    # cycles back to the buffer: refcounting alone frees it
    def read(k):
        si = SlopeIntercept(_frac(SQRT3_OVER_3 * (k + 2)), QuadExt(k, 0, 9))
        assert len(mechanical(si, 10**5)) == 10**5
        blocks = iet_stream(si.params).blocks()
        next(blocks)  # a handle and a reader left open, dropped with the vector
        return si, blocks

    read(0)  # first-use state of the modules
    gc.disable()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        kept = [read(k) for k in range(1, 6)]
        held = tracemalloc.get_traced_memory()[0] - baseline
        del kept
        left = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held > 5 * 10**5  # five buffers of 10^5 letters while the vectors live
    assert left < 20_000


def test_copies_of_a_vector_start_with_a_fresh_source():
    v = ParamVector(1 - FIB_ALPHA, FIB_ALPHA, QuadExt(1, 0, 3), UPPER)
    s = iet_stream(v)
    word = s.prefix(700)
    for y in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert y == v and hash(y) == hash(v) and repr(y) == repr(v)
        assert "_letters" not in repr(y) and y.pairs == v.pairs
        t = iet_stream(y)
        assert t._buffer is not s._buffer and len(t._buffer) == 0
        assert t.prefix(700) == word
    assert iet_stream(v)._buffer is s._buffer


def test_a_read_interrupted_in_the_engine_leaves_iet_stream_working(monkeypatch):
    si = SlopeIntercept(SQRT3_OVER_3, QuadExt(1, 0, 3), UPPER)
    v, n = si.params, 4000
    want = mechanical_oracle(_triple(si.alpha), _triple(si.delta), 3, n, UPPER)
    s = iet_stream(v)
    assert s.prefix(100) == want[:100]
    sign, calls = words.surd_sign, []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return sign(*args)

    monkeypatch.setattr(words, "surd_sign", interrupted)
    with pytest.raises(KeyboardInterrupt):
        s.prefix(n)
    monkeypatch.undo()
    # the interrupted source has ended; the next handle reads a new one
    assert iet_stream(v).prefix(n) == want
    assert mechanical(si, n) == want and mechanical_stream(si).slice(n - 64, n) == want[-64:]
