import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sturmrep.errors import DomainError, MembershipError, ParseError
from sturmrep.exactfield import QuadExt
from sturmrep.morphisms import D, DT, G, GT, Mat2, RunWord, compose, format_genword, parse_genword
from sturmrep.representation import (
    Mat3,
    check_membership,
    cone_contains,
    decompose,
    rep,
    rep_exchange,
)

from oracles import decompose_by_peeling, rep_by_products

ALL = (G, GT, D, DT)
genwords = st.lists(st.sampled_from(ALL), max_size=12).map(tuple)
# words with long runs of one generator, so that decompose takes large quotients
runs = st.tuples(st.sampled_from(ALL), st.integers(1, 1000)).map(lambda gk: (gk[0],) * gk[1])
runwords = st.lists(st.one_of(genwords, runs), max_size=6).map(lambda parts: sum(parts, ()))
# rep builds leaves of 256 generators: lengths next to a multiple of 256
# put a leaf boundary at the end of the word, or one letter either side of
# it; those next to a multiple of 64, the leaf size of earlier versions,
# stay as cases
lengths = st.one_of(
    st.integers(0, 3000),
    st.builds(lambda k, d: 256 * k + d, st.integers(1, 12), st.sampled_from((-1, 0, 1))),
    st.builds(lambda k, d: 64 * k + d, st.integers(1, 46), st.sampled_from((-1, 0, 1))),
)
randomwords = st.builds(
    lambda n, seed: tuple(random.Random(seed).choices(ALL, k=n)), lengths, st.integers(0, 2**32)
)
longwords = st.one_of(randomwords, runwords)


def tokens(word):
    return [g.value for g in word]


def assert_maximal_runs(word):
    assert all(type(k) is int and k >= 1 for _, k in word.runs)
    assert all(g is not h for (g, _), (h, _) in zip(word.runs, word.runs[1:]))

R_GT = ((1, 1, 0), (0, 1, 0), (0, 1, 1))
R_G = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
R_DT = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
R_D = ((1, 0, 0), (1, 1, 0), (1, 0, 1))


def test_generator_matrices():
    assert rep((GT,)).rows == R_GT
    assert rep((G,)).rows == R_G
    assert rep((DT,)).rows == R_DT
    assert rep((D,)).rows == R_D


def test_rep_examples():
    assert rep(parse_genword("DGG")).rows == ((1, 2, 0), (1, 3, 0), (1, 2, 1))
    assert rep(parse_genword("GDG'")) == rep(parse_genword("G'D'G"))
    assert rep(parse_genword("G'D'D'G")).rows == ((3, 4, 0), (2, 3, 0), (2, 3, 1))
    assert rep(()) == Mat3.identity()


@settings(deadline=None)
@given(longwords, longwords)
def test_rep_is_a_homomorphism(w1, w2):
    assert rep(w1 + w2) == rep(w1) * rep(w2)


@settings(deadline=None, max_examples=60)
@given(longwords)
def test_rep_matches_bruteforce_product(w):
    assert rep(w).rows == rep_by_products(tokens(w))


def test_rep_at_leaf_boundaries():
    rng = random.Random(8)
    for n in (63, 64, 65, 127, 128, 129, 64 * 7 + 1, 255, 256, 257, 511, 512, 513, 256 * 7 + 1):
        w = tuple(rng.choices(ALL, k=n))
        assert rep(w).rows == rep_by_products(tokens(w))
        assert rep(iter(w)) == rep(list(w)) == rep(w)


def lane_bits(n):
    # the lane width of rep's packed leaf of n generators
    return n * 7 // 10 + 1


def fibonacci(k):
    a, b = 0, 1  # F(0), F(1)
    for _ in range(k):
        a, b = b, a + b
    return a


def block_max(rows):
    return max(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


@pytest.mark.parametrize(
    "text",
    ["GD'" * 128, "G'D" * 128, "D" * 256, "G'" * 256, "GD'" * 32, "G'D" * 32, "D" * 64, "G'" * 64],
)
def test_rep_of_extreme_leaves(text):
    # one full leaf whose entries grow fastest, or whose third row does:
    # no packed column may carry from one entry into the next
    w = parse_genword(text)
    assert len(w) in (256, 64)
    rows = rep(w).rows
    assert rows == rep_by_products(tokens(w))
    assert max(max(r) for r in rows) < 2 ** lane_bits(len(w))


def test_rep_reaches_the_lane_bound():
    # the block of a word of n generators has entries at most F(n+1), and
    # GD'GD'... reaches it: a lane one bit narrower than lane_bits(n)
    # carries at n = 7, where F(8) = 21 needs 5 bits
    for n in range(7):
        for w in product(ALL, repeat=n):
            rows = rep(w).rows
            assert rows == rep_by_products(tokens(w))
            assert block_max(rows) <= fibonacci(n + 1)
    for n in range(257):
        w = ((G, DT) * 128)[:n]
        rows = rep(w).rows
        assert rows == rep_by_products(tokens(w))
        assert block_max(rows) == fibonacci(n + 1) < 2 ** lane_bits(n)


def test_rep_of_a_long_word_stays_fast():
    # column additions alone are quadratic in the entries' bit size (several
    # seconds here); the product tree over 256-letter leaves keeps this well
    # under the bound
    rng = random.Random(13)
    w = tuple(rng.choices(ALL, k=3 * 10**5))
    start = time.perf_counter()
    matrix = rep(w)
    assert time.perf_counter() - start < 2.0
    cut = rng.randrange(len(w) + 1)
    assert matrix == rep(w[:cut]) * rep(w[cut:])
    assert check_membership(matrix)


@pytest.mark.parametrize("k", range(7))
def test_generator_power_closed_forms(k):
    assert rep((GT,) * k).rows == ((1, k, 0), (0, 1, 0), (0, k, 1))
    assert rep((G,) * k).rows == ((1, k, 0), (0, 1, 0), (0, 0, 1))
    assert rep((DT,) * k).rows == ((1, 0, 0), (k, 1, 0), (0, 0, 1))
    assert rep((D,) * k).rows == ((1, 0, 0), (k, 1, 0), (k, 0, 1))


@pytest.mark.parametrize("k", range(6))
def test_matrix_relations(k):
    left = rep((GT,) + (DT,) * k + (G,))
    assert left == rep((G,) + (D,) * k + (GT,))
    assert left.rows == ((k + 1, k + 2, 0), (k, k + 1, 0), (k, k + 1, 1))
    right = rep((DT,) + (GT,) * k + (D,))
    assert right == rep((D,) + (G,) * k + (DT,))
    assert right.rows == ((k + 1, k, 0), (k + 2, k + 1, 0), (k + 1, k, 1))


def test_exchange_matrix():
    ex = rep_exchange()
    assert ex.rows == ((0, 1, 0), (1, 0, 0), (1, 1, -1))
    assert ex * ex == Mat3.identity()
    assert ex.det() == 1
    alpha = QuadExt(0, 1, 3, 3)
    delta = QuadExt(1, 0, 4)
    image = ex.apply((1 - alpha, alpha, delta))
    assert image == (alpha, 1 - alpha, 1 - delta)


def test_mat3_text_round_trip():
    m = rep(parse_genword("DGG"))
    assert str(m) == "[[1,2,0],[1,3,0],[1,2,1]]"
    assert Mat3.parse(str(m)) == m
    for bad in ("[[1,2],[3,4]]", "[[1,2,0],[1,3,0]]", "nope", "[[1.5,0,0],[0,1,0],[0,0,1]]"):
        with pytest.raises(ParseError):
            Mat3.parse(bad)


def test_cone_examples():
    assert cone_contains("C1", (1, 1, 2))
    assert not cone_contains("C1", (1, 1, 3))
    assert cone_contains("C2", (1, -1, 0))
    assert not cone_contains("C2", (1, 1, 0))
    assert cone_contains("C3", (0, 0, 5))
    assert not cone_contains("C3", (0, 0, -1))
    with pytest.raises(ValueError):
        cone_contains("C4", (0, 0, 0))


def _random_cone_point(rng, cone):
    x = Fraction(rng.randint(0, 40), rng.randint(1, 9))
    y = Fraction(rng.randint(0, 40), rng.randint(1, 9))
    t = Fraction(rng.randint(0, 100), 100)
    if cone == "C1":
        return (x, y, t * (x + y))
    if cone == "C2":
        y = -y
        return (x, y, y + t * (x - y))
    return (Fraction(0), Fraction(0), x)


def test_cone_invariance():
    rng = random.Random(9)
    for _ in range(40):
        w = tuple(rng.choice(ALL) for _ in range(rng.randint(0, 10)))
        matrix = rep(w)
        inverse = matrix.inverse()
        for _ in range(15):
            p1 = _random_cone_point(rng, "C1")
            p2 = _random_cone_point(rng, "C2")
            p3 = _random_cone_point(rng, "C3")
            assert cone_contains("C1", matrix.apply(p1))
            assert cone_contains("C2", inverse.apply(p2))
            assert cone_contains("C3", matrix.apply(p3))


def test_membership_examples():
    assert check_membership(Mat3(((1, 2, 0), (1, 3, 0), (1, 2, 1)))).ok
    verdict = check_membership(Mat3(((1, 1, 0), (0, 1, 0), (0, 2, 1))))
    assert not verdict.ok and verdict.certificate == "F<B+D"
    assert check_membership(Mat3.identity()).ok


def test_membership_certificates_in_order():
    cases = [
        ((((1, 0, 1), (0, 1, 0), (0, 0, 1))), "third column != (0,0,1)"),
        ((((1, 0, 0), (0, 1, -1), (0, 0, 1))), "third column != (0,0,1)"),
        ((((1, 0, 0), (0, 1, 0), (0, 0, 2))), "third column != (0,0,1)"),
        ((((1, -1, 0), (0, 1, 0), (0, 0, 1))), "entries >= 0"),
        ((((2, 1, 0), (1, 2, 0), (0, 0, 1))), "AD-BC=1"),
        ((((1, 1, 0), (1, 2, 0), (2, 0, 1))), "E<A+C"),
        ((((1, 1, 0), (1, 2, 0), (0, 3, 1))), "F<B+D"),
        ((((2, 1, 0), (3, 2, 0), (4, 0, 1))), "-C<=CF-DE"),
        ((((2, 3, 0), (1, 2, 0), (0, 4, 1))), "CF-DE<D"),
    ]
    for rows, certificate in cases:
        verdict = check_membership(Mat3(rows))
        assert not verdict.ok
        assert verdict.certificate == certificate
        with pytest.raises(MembershipError) as err:
            decompose(Mat3(rows))
        assert err.value.certificate == certificate


def test_companion_inequality_holds_for_members():
    rng = random.Random(4)
    for _ in range(300):
        w = tuple(rng.choice(ALL) for _ in range(rng.randint(0, 12)))
        a, b, c, d, e, f = rep(w).named()
        assert e < a + c and f < b + d
        assert -c <= c * f - d * e < d
        assert -a < a * f - b * e <= b


def test_decompose_examples():
    assert format_genword(decompose(Mat3(((1, 2, 0), (1, 3, 0), (1, 2, 1))))) == "DGG"
    assert decompose(Mat3.identity()).runs == () and not decompose(Mat3.identity())
    assert format_genword(decompose(rep((GT,)))) == "G'"
    # the last run, at C = 0 or at B = 0
    assert format_genword(decompose(Mat3(((1, 3, 0), (0, 1, 0), (0, 2, 1))))) == "GG'G'"
    assert format_genword(decompose(Mat3(((1, 0, 0), (3, 1, 0), (1, 0, 1))))) == "D'D'D"
    assert decompose(Mat3(((1, 0, 0), (10**5, 1, 0), (0, 0, 1)))).runs == ((DT, 10**5),)


def test_decompose_entered_at_a_d_step():
    # B < D: the first G-step has q = 0, and F >= D would give i = 1 but
    # for the clamp, so it must add no run
    m = rep(parse_genword("DG'"))
    assert m.named() == (1, 1, 1, 2, 1, 2)
    assert decompose(m).runs == ((D, 1), (GT, 1))
    for text in ("DGG'", "D'G", "D'DG'GD", "DD'D'GG'G'D", "D'" * 5 + "G'" * 7 + "D"):
        m = rep(parse_genword(text))
        a, b, c, d, e, f = m.named()
        assert 0 < b < d and c > 0
        word = decompose(m)
        assert rep(word) == m
        assert word.runs[0][0] in (D, DT)
        assert tokens(word) == decompose_by_peeling(m.rows)


def test_decompose_rejects_non_members_with_certificate():
    with pytest.raises(MembershipError) as err:
        decompose(Mat3(((1, 1, 0), (0, 1, 0), (0, 2, 1))))
    assert err.value.certificate == "F<B+D"
    assert "membership failed: F<B+D" in str(err.value)


@pytest.mark.parametrize("lead", ["", "D"], ids=["G-step first", "q=0 first"])
@pytest.mark.parametrize("period", ["GD", "G'D'", "GD'", "G'D"])
def test_decompose_of_unit_quotients_matches_peeling(period, lead):
    # every Euclid quotient is 1, so every step before the last run is a
    # divmod step with q = 1, primed and unprimed alike; a leading D makes
    # B < D, so the first G-step has q = 0.  At k = 3000 the entries have
    # 1254 digits
    for k in [*range(201), 3000]:
        matrix = rep(parse_genword(lead + period * k))
        word = decompose(matrix)
        assert tokens(word) == decompose_by_peeling(matrix.rows)
        assert rep(word) == matrix
        assert all(e == 1 for _, e in word.runs)


# a member's entry moved by a small step, or E or F pushed to its bound
mutations = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 8), st.sampled_from((-2, -1, 1, 2))),
    st.tuples(st.sampled_from(("bound_e", "bound_f")), st.integers(-1, 3)),
)


def mutated(rows, mutation):
    rows = [list(r) for r in rows]
    kind, *rest = mutation
    if kind == "add":
        cell, delta = rest
        rows[cell // 3][cell % 3] += delta
    elif kind == "bound_e":
        rows[2][0] = rows[0][0] + rows[1][0] + rest[0]
    else:
        rows[2][1] = rows[0][1] + rows[1][1] + rest[0]
    return Mat3(rows)


@settings(deadline=None)
@given(st.one_of(genwords, longwords), mutations)
def test_decompose_certificate_is_check_membership_s(w, mutation):
    # decompose reads the certificate off the rows itself, with no
    # Membership built: the two must name the same first violation
    matrix = mutated(rep(w).rows, mutation)
    verdict = check_membership(matrix)
    if verdict:
        assert verdict == check_membership(Mat3.identity()) and verdict.certificate is None
        assert rep(decompose(matrix)) == matrix
    else:
        with pytest.raises(MembershipError) as err:
            decompose(matrix)
        assert err.value.certificate == verdict.certificate


@settings(deadline=None, max_examples=60)
@given(longwords)
def test_derived_matrices_equal_their_publicly_built_twins(w):
    # rep's leaves, Mat3 products and inverses skip Mat3(...): each must be
    # the matrix the checking constructor gives, rows of tuples of ints
    twin = Mat3(rep_by_products(tokens(w)))
    half = len(w) // 2
    derived = (rep(w), rep(w[:half]) * rep(w[half:]), twin.inverse().inverse())
    for m in derived:
        assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
        assert type(m.rows) is tuple and all(type(r) is tuple and len(r) == 3 for r in m.rows)
        assert all(type(x) is int for r in m.rows for x in r)


@given(genwords)
def test_decompose_round_trip(w):
    matrix = rep(w)
    word = decompose(matrix)
    assert rep(word) == matrix
    assert compose(word) == compose(w)


@settings(deadline=None)
@given(runwords)
def test_decompose_matches_peeling_oracle(w):
    matrix = rep(w)
    word = decompose(matrix)
    assert [g.value for g in word] == decompose_by_peeling(matrix.rows)
    assert rep(word) == matrix


@settings(deadline=None)
@given(longwords)
def test_decompose_matches_peeling_oracle_on_long_words(w):
    # random words take many Euclid steps with small quotients, as the
    # factoring of a long product does; run words take a few large ones
    matrix = rep(w)
    word = decompose(matrix)
    assert type(word) is RunWord
    assert_maximal_runs(word)
    assert [g.value for g in word] == decompose_by_peeling(matrix.rows)


@settings(deadline=None)
@given(st.one_of(genwords, runwords, longwords))
def test_decompose_returns_maximal_runs(w):
    matrix = rep(w)
    word = decompose(matrix)
    assert_maximal_runs(word)
    peeled = decompose_by_peeling(matrix.rows)
    assert [g.value for g in word] == peeled
    assert len(word) == len(peeled)
    assert rep(word) == matrix
    again = decompose(Mat3(matrix.rows))
    assert again is not word and again == word and hash(again) == hash(word)


def test_decompose_matches_peeling_oracle_on_every_small_member():
    # every block with entries <= 12 and every third row its cone admits,
    # so each quotient and clamp case of a Euclid step meets small values
    members = [
        Mat3(((a, b, 0), (c, d, 0), (e, f, 1)))
        for a, b, c, d in product(range(13), repeat=4)
        if a * d - b * c == 1
        for e in range(a + c)
        for f in range(b + d)
        if -c <= c * f - d * e < d
    ]
    assert len(members) == 3191
    for m in members:
        assert tokens(decompose(m)) == decompose_by_peeling(m.rows)


def decompose_traced(matrix):
    """(word, seconds, tracemalloc peak in bytes) of one decompose."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        word = decompose(matrix)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return word, elapsed, peak


@pytest.mark.parametrize("n", [3 * 10**6, 2**256], ids=["3e6", "2^256"])
def test_decompose_of_a_long_run_keeps_one_pair(n):
    # one token per generator took 48 MB at n = 3*10^6, and no memory holds 2^256
    word, elapsed, peak = decompose_traced(Mat3(((1, 0, 0), (n, 1, 0), (0, 0, 1))))
    assert word.runs == ((DT, n),) and word
    assert elapsed < 2.0 and peak < 100_000
    if n > sys.maxsize:
        with pytest.raises(OverflowError):
            len(word)
        with pytest.raises(OverflowError):
            next(iter(word))


@pytest.mark.parametrize("seed", range(3))
def test_decompose_factors_256_bit_members(seed):
    # many small quotients from random tokens, then few large ones from
    # runs too long to write out; products of run matrices stand in for rep
    rng = random.Random(seed)
    matrix = rep(rng.choices(ALL, k=600))
    big = Mat3.identity()
    while max(map(max, big.rows)) < 2**256:
        big = big * rep((rng.choice(ALL),)) ** rng.randrange(1, 2**48)
    for m in (matrix, big):
        assert max(map(max, m.rows)).bit_length() > 256
        word, elapsed, peak = decompose_traced(m)
        assert elapsed < 2.0 and peak < 100_000
        assert_maximal_runs(word)
        product_of_runs = Mat3.identity()
        for g, k in word.runs:
            product_of_runs = product_of_runs * rep((g,)) ** k
        assert product_of_runs == m


def test_faithfulness_small_scale():
    by_matrix = {}
    by_morphism = {}
    for n in range(6):
        for w in product(ALL, repeat=n):
            matrix, morphism = rep(w), compose(w)
            assert by_matrix.setdefault(matrix, morphism) == morphism
            assert by_morphism.setdefault(morphism, matrix) == matrix
    assert len(by_matrix) == len(by_morphism)


def test_inverse_closed_form():
    assert rep((G,)).inverse().rows == ((1, -1, 0), (0, 1, 0), (0, 0, 1))
    m = Mat3(((1, 2, 0), (1, 3, 0), (1, 2, 1)))
    assert m.inverse().rows == ((3, -2, 0), (-1, 1, 0), (-1, 0, 1))
    assert Mat3.identity().inverse() == Mat3.identity()
    assert rep_exchange().inverse() == rep_exchange()


@given(st.one_of(genwords, runwords))
def test_inverse_really_inverts(w):
    # members, and their products with the exchange matrix (outside the
    # monoid shape) on either side
    x = rep_exchange()
    for m in (rep(w), rep(w) * x, x * rep(w), x * rep(w) * x):
        assert m * m.inverse() == Mat3.identity()
        assert m.inverse() * m == Mat3.identity()


def test_inverse_shape_errors():
    # the shape is no condition: a determinant-1 matrix outside it inverts,
    # and so does a determinant -1 one
    m = Mat3(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    assert m.inverse().rows == ((1, 0, -1), (0, 1, 0), (0, 0, 1))
    swap = Mat3(((0, 1, 0), (1, 0, 0), (0, 0, 1))) * rep(parse_genword("DGG"))
    assert swap.det() == -1
    for m in (m, swap):
        assert m * m.inverse() == m.inverse() * m == Mat3.identity()
    # any determinant other than 1 or -1 has no integer inverse
    for rows in (((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((2, 1, 0), (1, 2, 0), (0, 0, 1))):
        with pytest.raises(DomainError, match="no integer inverse"):
            Mat3(rows).inverse()


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
        ((1, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1, 0)),
    ],
)
def test_mat3_needs_3x3_rows(rows):
    with pytest.raises(ValueError) as info:
        Mat3(rows)
    assert str(info.value) == "need 3x3 rows"


@pytest.mark.parametrize(
    "bad", [1.5, Fraction(3, 2), Fraction(1), True, False, 1.0, "1", None], ids=repr
)
def test_mat3_and_mat2_take_int_entries_only(bad):
    # a float or Fraction entry once made a "member" that decompose failed
    # on; a bool is refused too, as parse_int_rows refuses JSON true
    for i in range(9):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        rows[i // 3][i % 3] = bad
        with pytest.raises(TypeError, match="matrix entries must be int"):
            Mat3(rows)
    for i in range(4):
        entries = [1, 0, 0, 1]
        entries[i] = bad
        with pytest.raises(TypeError, match="matrix entries must be int"):
            Mat2(*entries)


def test_non_integer_matrices_are_refused_before_any_check_reads_them():
    # unchecked, the first passed check_membership and ended decompose in an
    # AssertionError, and the float block was primitive
    with pytest.raises(TypeError):
        check_membership(Mat3(((1.5, 0.5, 0), (1, 1, 0), (0, 0, 1))))
    with pytest.raises(TypeError):
        Mat3(((Fraction(3, 2), Fraction(1, 2), 0), (1, 1, 0), (0, 0, 1)))
    with pytest.raises(TypeError):
        Mat2(1.5, 0.5, 1, 1)
    # an int subclass other than bool is no int either
    with pytest.raises(TypeError):
        Mat3(((1, 0, 0), (0, 1, 0), (0, 0, type("Int", (int,), {})(1))))


def test_mat3_rows_as_lists_are_rows_as_tuples():
    rows = ((1, 2, 0), (1, 3, 0), (1, 2, 1))
    listed = Mat3([list(r) for r in rows])
    assert listed == Mat3(rows)
    assert hash(listed) == hash(Mat3(rows))
    assert listed.rows == rows and all(type(r) is tuple for r in listed.rows)


def test_det():
    assert Mat3.identity().det() == 1
    assert rep_exchange().det() == 1
    assert Mat3(((2, 0, 0), (0, 3, 0), (0, 0, 4))).det() == 24


def test_round_trip_survives_machine_word_overflow():
    # entries of a 300-generator product far exceed 64-bit range
    rng = random.Random(99)
    word = tuple(rng.choice(ALL) for _ in range(300))
    matrix = rep(word)
    assert max(max(r) for r in matrix.rows) > 2**64
    assert check_membership(matrix).ok
    again = decompose(matrix)
    assert len(again) == len(word)  # the relations preserve word length
    assert rep(again) == matrix
