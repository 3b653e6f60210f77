import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sturmrep.errors import DomainError, FieldMismatchError
from sturmrep.exactfield import QuadExt
from sturmrep.words import (
    LOWER,
    UPPER,
    ParamVector,
    SlopeIntercept,
    frequency_gap,
    iet_code,
    iet_stream,
    is_palindrome,
    mechanical,
    mechanical_stream,
    mirror,
    word_stream,
)

from oracles import mechanical_oracle

SQRT3_OVER_3 = QuadExt(0, 1, 3, 3)
FIB_ALPHA = QuadExt(3, -1, 2, 5)  # (3-sqrt(5))/2

binary_words = st.text(alphabet="01", max_size=40)


def test_palindromes():
    assert is_palindrome("1010101")
    assert is_palindrome("")
    assert not is_palindrome("10")


def test_mirror():
    assert mirror("001") == "100"
    assert mirror("") == ""


@given(binary_words)
def test_mirror_involution_and_palindrome_law(w):
    assert mirror(mirror(w)) == w
    assert is_palindrome(w) == (mirror(w) == w)


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
    assert frequency_gap(w, v.slope) <= 2


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
