import random
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from sturmrep.dynamics import fixed_point_params, fixed_point_stream
from sturmrep.errors import DomainError, FieldMismatchError
from sturmrep.exactfield import HALF, QuadExt
from sturmrep.morphisms import BinaryMorphism, Generator, compose, parse_genword
from sturmrep.representation import rep
from sturmrep.sqroot import square_root_stream
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
)

from oracles import iet_oracle, mechanical_letters_at, mechanical_oracle, word_stream

SQRT3_OVER_3 = QuadExt(0, 1, 3, 3)
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
        assert iet_code(v.scaled(factor), 500) == iet_code(v, 500)


def test_letter_frequency_three_distance_bound():
    v = ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, QuadExt(1, 0, 3))
    n = 10_000
    w = iet_code(v, n)
    gap = w.count("1") - v.slope * n
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


def test_streams_are_replayable_and_buffered():
    v = ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, SQRT3_OVER_3)
    s = iet_stream(v)
    assert s.prefix(10) == s.prefix(10)
    assert s.prefix(5) == s.prefix(10)[:5]
    assert s.restart().prefix(30) == s.prefix(30)
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


def test_stream_iteration_matches_prefix():
    s = word_stream("0110")
    out = []
    for i, ch in enumerate(s):
        if i == 9:
            break
        out.append(ch)
    assert "".join(out) == s.prefix(9)


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
    assume(rep(word).block().is_primitive())
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
    "thue_morse": lambda: PrefixStream(_thue_morse),
    "thue_morse_image": lambda: BinaryMorphism("01", "1").apply(PrefixStream(_thue_morse)),
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
    assert "".join(islice(make(), n)) == whole
    assert "".join(islice(make().blocks(), n))[:n] == whole
    s = make()
    for _ in range(60):  # random positions, in random order
        i = rng.randrange(n)
        j = min(n, i + rng.randint(0, 40))
        assert s.slice(i, j) == whole[i:j]
    assert s.prefix(n) == whole


@settings(max_examples=100, deadline=None)
@given(iet_vectors(), st.integers(0, 5000))
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
    second = ((1 + eps) / small).ceil() - 1
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
    assert s.restart().slice(FAR, FAR + 64) == far
