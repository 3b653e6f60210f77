import itertools
import random
import threading
import time
import tracemalloc

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import sturmrep
from sturmrep.dynamics import (
    dekking_mirror,
    dominant_eigen,
    fixed_point_params,
    fixed_point_stream,
    image_params,
    iterate_fixed_point,
    params_of,
    yasutomi_check,
    yasutomi_condition,
)
from sturmrep.errors import DomainError, FieldMismatchError, NotPrimitiveError
from sturmrep.exactfield import QuadExt
from sturmrep.morphisms import (
    D, DT, G, GT, BinaryMorphism, Generator, RunWord, compose, parse_genword
)
from sturmrep.representation import decompose, rep
from sturmrep.words import (
    LOWER,
    UPPER,
    ParamVector,
    SlopeIntercept,
    iet_code,
    iet_stream,
)

from oracles import (
    CLASS_TABLE,
    RHO_EQ_0,
    RHO_EQ_L0,
    RHO_EQ_L0_PLUS_L1,
    RHO_EQ_L1,
    UNCONSTRAINED,
    eigen_by_field_ops,
    fixed_point_by_iteration,
    intercept_class,
    square_free_oracle,
    substitute,
    yasutomi_by_field_ops,
)

SQRT3_OVER_3 = QuadExt(0, 1, 3, 3)
DG2 = parse_genword("DGG")
DG2_PREFIX = "10101101010110101011010110101011010101101010110101101010"


def _random_word(rng, alphabet=(G, GT, D, DT), lo=1, hi=9, primitive=True):
    while True:
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        if not primitive:
            return w
        if any(g in (G, GT) for g in w) and any(g in (D, DT) for g in w):
            return w


def test_params_of():
    alpha = SQRT3_OVER_3
    si = SlopeIntercept(alpha, alpha, LOWER)
    assert params_of(si) == ParamVector(1 - alpha, alpha, alpha, LOWER)
    assert params_of(SlopeIntercept(alpha, QuadExt(0), UPPER)) == ParamVector(
        1 - alpha, alpha, QuadExt(1), UPPER
    )
    assert params_of(SlopeIntercept(alpha, QuadExt(0), LOWER)) == ParamVector(
        1 - alpha, alpha, QuadExt(0), LOWER
    )
    assert params_of is sturmrep.params_of is sturmrep.words.params_of
    # slope sqrt(2)/2 with intercept sqrt(3)/3: no single field codes it
    with pytest.raises(FieldMismatchError, match=r"cannot mix sqrt\(3\) with sqrt\(2\)"):
        iet_code(params_of(SlopeIntercept(QuadExt(0, 1, 2, 2), alpha)), 60)


def test_image_params_generator_rows():
    alpha = SQRT3_OVER_3
    rho = QuadExt(1, 0, 5)
    v = ParamVector(1 - alpha, alpha, rho, LOWER)
    g_image = image_params((G,), v)
    assert (g_image.l0, g_image.l1, g_image.rho) == (QuadExt(1), alpha, rho)
    dt_image = image_params((DT,), v)
    assert (dt_image.l0, dt_image.l1, dt_image.rho) == (1 - alpha, QuadExt(1), rho)
    gt_image = image_params((GT,), v)
    assert gt_image.rho == rho + alpha
    d_image = image_params((D,), v)
    assert d_image.rho == rho + 1 - alpha
    assert image_params((), v) == v


def test_dominant_eigen_dg2():
    eigen = dominant_eigen(DG2)
    assert eigen.eigenvalue == QuadExt(2, 1, 1, 3)
    assert eigen.field == 3
    v = eigen.vector
    assert v.l0 == QuadExt(3, -1, 3, 3)
    assert v.l1 == SQRT3_OVER_3
    assert v.rho == SQRT3_OVER_3
    assert v.boundary == LOWER


def test_dominant_eigen_trace3():
    for text in ("GD", "DG"):
        eigen = dominant_eigen(parse_genword(text))
        assert eigen.eigenvalue == QuadExt(3, 1, 2, 5)
    # letter-count check for GD: images 010 and 01
    assert compose(parse_genword("GD")).incidence().entries() == (2, 1, 1, 1)


def test_dominant_eigen_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        dominant_eigen(parse_genword("GG"))
    with pytest.raises(NotPrimitiveError):
        dominant_eigen(())


def test_eigen_equation_and_unit_property():
    rng = random.Random(17)
    for _ in range(40):
        word = _random_word(rng)
        eigen = dominant_eigen(word)
        lam, v = eigen.eigenvalue, eigen.vector
        assert lam * lam.conjugate() == 1
        assert lam > 1
        assert v.l0 + v.l1 == 1
        image = rep(word).apply((v.l0, v.l1, v.rho))
        assert image == (lam * v.l0, lam * v.l1, lam * v.rho)
        # spectrum: the block trace p gives the other eigenvalues 1, conj
        a, _, _, d, _, _ = rep(word).named()
        p = a + d
        assert lam * lam - p * lam + 1 == 0


def test_fixed_point_known_prefix_both_routes():
    v = fixed_point_params(DG2)
    assert iet_code(v, 56) == DG2_PREFIX
    phi = compose(DG2)
    assert iterate_fixed_point(phi, "1", 56) == DG2_PREFIX
    assert fixed_point_by_iteration(phi.image0, phi.image1, "1", 56) == DG2_PREFIX
    assert fixed_point_stream(DG2).prefix(56) == DG2_PREFIX


def test_fixed_point_invariance_random():
    rng = random.Random(23)
    for _ in range(15):
        word = _random_word(rng)
        stream = fixed_point_stream(word)
        phi = compose(word)
        assert phi.apply(stream).prefix(2000) == stream.prefix(2000)


def test_iterate_fixed_point_rejects_wrong_letter():
    phi = compose(DG2)  # both images start with 1
    with pytest.raises(DomainError):
        iterate_fixed_point(phi, "0", 10)


def test_iterate_fixed_point_rejects_a_stuck_prefix():
    # 0 -> 01 -> 01 -> ...: the first image grows, the next round does not
    phi = BinaryMorphism("01", "")
    assert iterate_fixed_point(phi, "0", 2) == "01"
    with pytest.raises(DomainError, match="no expanding fixed point"):
        iterate_fixed_point(phi, "0", 5)


def test_iterate_fixed_point_rejects_a_negative_length():
    # s[:n] would give "10" for n = -3
    with pytest.raises(ValueError, match="non-negative"):
        iterate_fixed_point(compose(DG2), "1", -3)


@pytest.mark.parametrize("genword", ("DGG", "GD", "G'D'GGD", "DG'DDG'G'"))
def test_iterate_fixed_point_squares_nothing_for_a_prefix_within_one_image(genword, monkeypatch):
    phi = compose(parse_genword(genword))
    first = fixed_point_stream(parse_genword(genword))[0]
    calls = []
    square = BinaryMorphism.__mul__
    monkeypatch.setattr(BinaryMorphism, "__mul__", lambda a, b: calls.append(1) or square(a, b))
    image = phi.apply(first)
    for n in range(len(image) + 1):
        assert iterate_fixed_point(phi, first, n) == image[:n]
    assert calls == []
    # a longer prefix does square
    iterate_fixed_point(phi, first, 200)
    assert calls


def test_fixed_point_by_iteration_raises_on_a_stuck_prefix():
    # phi("01") = "01", so the oracle's prefix never grows; a thread bounds
    # the wait, since an oracle that loops would not return
    raised = []

    def run():
        try:
            fixed_point_by_iteration("01", "", "0", 5)
        except ValueError as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=1)
    assert not worker.is_alive() and raised
    assert fixed_point_by_iteration("01", "", "0", 2) == "01"


@pytest.mark.parametrize(
    "image0, image1, start",
    [
        ("1", "0", "0"),  # "0", "1", "0", ...: the prefix alternates
        ("10", "1", "0"),  # longer, but "10" does not begin with "0"
        ("", "1", "01"),  # the prefix shrinks
    ],
)
def test_fixed_point_by_iteration_raises_where_the_prefix_does_not_grow(image0, image1, start):
    # a thread bounds the wait, as for the stuck prefix
    raised = []

    def run():
        try:
            fixed_point_by_iteration(image0, image1, start, 5)
        except ValueError as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=1)
    assert not worker.is_alive() and raised


@pytest.mark.parametrize("first", ("01", "", "x", "0 "))
def test_iterate_fixed_point_rejects_a_first_letter_that_is_not_one_letter(first):
    # "01" gave 010010101001..., where the fixed point of GD is 010010100100...
    with pytest.raises(ValueError, match="first letter"):
        iterate_fixed_point(compose(parse_genword("GD")), first, 30)


def _iterated_or_none(image0: str, image1: str, first: str, n: int) -> str | None:
    """fixed_point_by_iteration, or None where iterating from first never
    reaches n letters.  With phi(a) = a v, phi^(m+1)(a) = phi^m(a) phi^m(v).
    If phi(v) is non-empty, v holds a, which every phi^m(a) keeps, or v is
    a power of b and phi(b) holds a or b, which its powers keep; so the
    prefix grows for ever, and it is stuck exactly when phi(phi(a)) =
    phi(a)."""
    once = substitute(image0, image1, first)
    if not once.startswith(first) or len(once) < 2:
        return None
    if substitute(image0, image1, once) == once and n > len(once):
        return None
    return fixed_point_by_iteration(image0, image1, first, n)


images = st.text(alphabet="01", max_size=6)


@settings(max_examples=300, deadline=None)
@given(images, images, st.sampled_from("01"), st.integers(0, 5000))
@example("01", "1", "0", 5000)  # expanding, not primitive: 0 1^m after m rounds
@example("010", "", "0", 5000)
@example("01", "", "0", 3)
def test_iterate_fixed_point_on_any_morphism_matches_the_oracle(image0, image1, first, n):
    want = _iterated_or_none(image0, image1, first, n)
    phi = BinaryMorphism(image0, image1)
    if want is None:
        with pytest.raises(DomainError, match="no expanding fixed point"):
            iterate_fixed_point(phi, first, n)
    else:
        assert iterate_fixed_point(phi, first, n) == want


def _traced_iteration(phi, first, n):
    tracemalloc.start()
    try:
        got = iterate_fixed_point(phi, first, n)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text", ("GD", "DGG"))
def test_iterate_fixed_point_to_a_million_letters(text):
    # GD has the smallest eigenvalue of the monoid, phi^2 for the golden
    # ratio phi, so its images grow slowest; peaks ran about 2 bytes per letter
    word = parse_genword(text)
    n = 10**6
    stream = fixed_point_stream(word)
    want = stream.prefix(n)
    got, peak = _traced_iteration(compose(word), stream[0], n)
    assert got == want
    assert peak < 6 * n


def test_iterate_fixed_point_ends_near_n_when_one_image_outgrows_the_other():
    # psi = phi^4 maps 0 to 781 letters and 1 to "1": rounds sized by the
    # shorter image wrote about 3 * 10^8 letters for 10^6
    n = 10**6
    got, peak = _traced_iteration(BinaryMorphism("000001", "1"), "0", n)
    assert got == fixed_point_by_iteration("000001", "1", "0", n)
    assert peak < 6 * n


def _primitive(word) -> bool:
    return bool({G, GT} & set(word)) and bool({D, DT} & set(word))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from((G, GT, D, DT)), min_size=2, max_size=8).filter(_primitive),
    st.integers(0, 5000),
)
def test_iterate_fixed_point_matches_stream_and_oracle(word, n):
    # one pass over each letter gives the prefix of full re-iteration
    word = tuple(word)
    stream = fixed_point_stream(word)
    phi = compose(word)
    first = stream[0]
    got = iterate_fixed_point(phi, first, n)
    assert got == stream.prefix(n)
    assert got == fixed_point_by_iteration(phi.image0, phi.image1, first, n)


@pytest.mark.parametrize("n", (0, 1, 2, 3, 4, 7, 100, 4999))
def test_iterate_fixed_point_with_an_empty_image(n):
    # 0 -> 010 while 1 vanishes: every round still grows the prefix
    phi = BinaryMorphism("010", "")
    got = iterate_fixed_point(phi, "0", n)
    assert got == fixed_point_by_iteration("010", "", "0", n)
    assert got == ("010" * n)[:n]


def _assert_eigen_matches_oracle(word):
    eigen = dominant_eigen(word)
    lam, x, y, z, boundary, field = eigen_by_field_ops(rep(word).rows)
    v = eigen.vector
    assert (eigen.eigenvalue, eigen.field) == (lam, field)
    assert (v.l0, v.l1, v.rho, v.boundary) == (x, y, z, boundary)
    # the eigenvalue, the fields built from the pairs and Yasutomi's slope
    # and intercept skip the radicand test: each must be the value that
    # QuadExt(...) builds from its parts
    report = yasutomi_check(eigen)
    for got, want in (
        (eigen.eigenvalue, lam), (v.l0, x), (v.l1, y), (v.rho, z), (report.alpha, y), (report.delta, z)
    ):
        public = QuadExt(got.a, got.b, got.c, got.m)
        assert got == want == public and hash(got) == hash(public) and repr(got) == repr(public)


def test_dominant_eigen_matches_field_ops_oracle_on_short_words():
    words = [
        w
        for k in range(2, 6)
        for w in itertools.product((G, GT, D, DT), repeat=k)
        if _primitive(w)
    ]
    assert len(words) == 1240
    for word in words:
        _assert_eigen_matches_oracle(word)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from((G, GT, D, DT)), min_size=2, max_size=64).filter(_primitive))
def test_dominant_eigen_matches_field_ops_oracle_on_random_words(word):
    _assert_eigen_matches_oracle(tuple(word))


def test_intercept_class_examples():
    assert intercept_class(["D", "G", "G"]) == (RHO_EQ_L1,)
    assert intercept_class(["G'", "D'"]) == (RHO_EQ_L0,)
    assert intercept_class(["G", "D'"]) == (RHO_EQ_0,)
    assert intercept_class(["G'", "D"]) == (RHO_EQ_L0_PLUS_L1,)
    assert intercept_class(["G", "D", "G'"]) == (UNCONSTRAINED,)
    # overlapping one-letter alphabets report every applicable constraint
    assert intercept_class(["G", "G"]) == (RHO_EQ_L1, RHO_EQ_0)
    assert intercept_class([]) == (
        RHO_EQ_L0_PLUS_L1,
        RHO_EQ_L1,
        RHO_EQ_L0,
        RHO_EQ_0,
    )


def test_intercept_class_agrees_with_eigenvector():
    # dominant_eigen puts the fixed point of a word inside a two-generator
    # alphabet at the intercept that the alphabet forces
    rng = random.Random(31)
    for tag, alphabet in CLASS_TABLE:
        for _ in range(8):
            word = _random_word(rng, alphabet=tuple(map(Generator, alphabet)), lo=2, hi=8)
            assert tag in intercept_class([g.value for g in word])
            v = dominant_eigen(word).vector
            expected = {
                RHO_EQ_L0_PLUS_L1: v.l0 + v.l1,
                RHO_EQ_L1: v.l1,
                RHO_EQ_L0: v.l0,
                RHO_EQ_0: QuadExt(0),
            }[tag]
            assert v.rho == expected
            assert v.boundary == (UPPER if tag == RHO_EQ_L0_PLUS_L1 else LOWER)


def test_dekking_mirror_mapping():
    assert dekking_mirror(parse_genword("GD'")) == parse_genword("G'D")
    assert dekking_mirror(parse_genword("GGD'")) == parse_genword("G'G'D")
    with pytest.raises(DomainError):
        dekking_mirror(parse_genword("GD"))


def test_dekking_mirror_maps_runs():
    # a RunWord is mapped run by run, so an exponent of 10^18 costs nothing
    t0 = time.perf_counter()
    mirror = dekking_mirror(RunWord(((G, 10**18), (DT, 1))))
    assert time.perf_counter() - t0 < 0.01
    assert mirror == RunWord(((GT, 10**18), (D, 1)))
    rng = random.Random(44)
    for _ in range(20):
        word = decompose(rep(_random_word(rng, (G, DT), lo=0, hi=12, primitive=False)))
        mirror = dekking_mirror(word)
        assert type(mirror) is RunWord and tuple(mirror) == dekking_mirror(tuple(word))
    for word in (RunWord(((G, 2), (D, 1))), parse_genword("GD")):
        with pytest.raises(DomainError, match="^word must stay in {G, D'}, found D$"):
            dekking_mirror(word)


def test_dekking_mirror_fixes_upper_sequence():
    rng = random.Random(41)
    for _ in range(8):
        word = _random_word(rng, alphabet=(G, DT), lo=2, hi=7)
        v = dominant_eigen(word).vector
        assert v.rho == 0
        eta = compose(dekking_mirror(word))
        upper = iet_stream(ParamVector(v.l0, v.l1, QuadExt(1), UPPER))
        assert eta.apply(upper).prefix(2000) == upper.prefix(2000)


def test_dekking_pair_same_morphism():
    rng = random.Random(43)
    for _ in range(8):
        word = _random_word(rng, alphabet=(GT, DT), lo=2, hi=7)
        v = dominant_eigen(word).vector
        assert v.rho == v.l0
        phi = compose(word)
        for boundary in (LOWER, UPPER):
            stream = iet_stream(ParamVector(v.l0, v.l1, v.rho, boundary))
            assert phi.apply(stream).prefix(2000) == stream.prefix(2000)
        # the two orientations really are distinct sequences
        low = iet_code(ParamVector(v.l0, v.l1, v.rho, LOWER), 400)
        up = iet_code(ParamVector(v.l0, v.l1, v.rho, UPPER), 400)
        assert low != up


def test_yasutomi_for_fixed_points():
    assert yasutomi_check(dominant_eigen(DG2)).ok
    rng = random.Random(47)
    for _ in range(30):
        word = _random_word(rng)
        report = yasutomi_check(dominant_eigen(word))
        assert report.ok and report.same_field and report.conjugate_in_bounds
        assert report.slope_conjugate_outside


def test_yasutomi_rejections():
    alpha = QuadExt(0, 1, 2, 2)  # sqrt(2)/2
    other_field = QuadExt(0, 1, 3, 3)
    report = yasutomi_condition(alpha, other_field)
    assert not report.ok and not report.same_field
    # same field but conjugate far outside the bounds
    delta = QuadExt(-2, 2, 1, 2)  # 2*sqrt(2)-2, conjugate -2*sqrt(2)-2
    report = yasutomi_condition(alpha, delta)
    assert not report.ok and report.same_field and not report.conjugate_in_bounds
    assert "same_field=yes" in str(report)
    assert "ok=no" in str(report)
    # the conjugate of the slope in (0, 1): the characteristic word of
    # (2+sqrt(2))/5, alpha' about 0.117, and alpha' = (4-sqrt(2))/20 about
    # 0.129.  No non-trivial morphism fixes either, though both pass the
    # field and intercept clauses
    for alpha, delta in (
        ("(2+1*sqrt(2))/5", "(2+1*sqrt(2))/5"),
        ("(4+1*sqrt(2))/20", "(9-3*sqrt(2))/17"),
    ):
        report = yasutomi_condition(QuadExt.parse(alpha), QuadExt.parse(delta))
        assert report.same_field and report.conjugate_in_bounds
        assert not report.slope_conjugate_outside and not report.ok
        assert "slope_conjugate_outside=no" in str(report)


yasutomi_fields = (2, 3, 5, 7, 13)
yasutomi_values = st.builds(
    QuadExt,
    st.integers(-40, 40),
    st.integers(-9, 9),
    st.integers(1, 24),
    st.sampled_from(yasutomi_fields),
)


@settings(max_examples=400)
@given(yasutomi_values, yasutomi_values, st.sampled_from(("free", "rational", "alpha", "coslope")))
@example(QuadExt(0, 1, 2, 2), QuadExt(0, 1, 3, 3), "free")  # mismatched fields
@example(QuadExt(1, 0, 3), QuadExt(1, 1, 2, 5), "free")  # rational alpha
@example(QuadExt(1, 1, 4, 13), QuadExt(1, 0, 2), "rational")
def test_yasutomi_condition_matches_field_ops(alpha, delta, tie):
    # delta is drawn freely, made rational, or put on either bound, where
    # its conjugate equals that of alpha or of 1 - alpha
    if tie == "rational":
        delta = QuadExt(delta.a, 0, delta.c)
    elif tie == "alpha":
        delta = alpha
    elif tie == "coslope":
        delta = 1 - alpha
    report = yasutomi_condition(alpha, delta)
    assert (
        report.same_field, report.conjugate_in_bounds, report.slope_conjugate_outside
    ) == yasutomi_by_field_ops(alpha, delta)
    assert report.ok == (
        report.same_field and report.conjugate_in_bounds and report.slope_conjugate_outside
    )
    assert report.alpha is alpha and report.delta is delta


def test_eigen_data_for_large_traces():
    rng = random.Random(101)
    word = tuple(rng.choice((G, D, GT, DT)) for _ in range(40))
    if not any(g in (G, GT) for g in word):
        word += (G,)
    if not any(g in (D, DT) for g in word):
        word += (D,)
    eigen = dominant_eigen(word)
    a, _, _, d, _, _ = rep(word).named()
    assert a + d > 2**20
    assert eigen.eigenvalue * eigen.eigenvalue.conjugate() == 1
    v = eigen.vector
    image = rep(word).apply((v.l0, v.l1, v.rho))
    assert image == (eigen.eigenvalue * v.l0, eigen.eigenvalue * v.l1, eigen.eigenvalue * v.rho)


def test_eigen_field_and_value_against_sympy():
    # 60-80 letters give traces of 35-50 bits; p^2-4 is factored by sympy
    rng = random.Random(23)
    for _ in range(10):
        word = _random_word(rng, lo=60, hi=80)
        a, _, _, d, _, _ = rep(word).named()
        p = a + d
        assert 35 <= p.bit_length() <= 50
        eigen = dominant_eigen(word)
        f, m = square_free_oracle(p * p - 4)
        assert eigen.field == m
        # f*sqrt(m) is sqrt(p^2-4), with m square-free so sympy keeps it whole
        lam = eigen.eigenvalue
        got = (lam.a + lam.b * sympy.sqrt(lam.m)) / lam.c
        assert sympy.expand(got - (p + f * sympy.sqrt(m)) / 2) == 0
