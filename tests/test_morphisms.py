import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sturmrep.errors import CyclicMorphismError, DomainError, ParseError
from sturmrep.morphisms import (
    D,
    DT,
    G,
    GT,
    EXCHANGE,
    IDENTITY,
    BinaryMorphism,
    Mat2,
    compose,
    conjugates_of,
    format_genword,
    gen_morphism,
    parse_genword,
    power,
    right_conjugate_step,
    rightmost_conjugate,
)
from sturmrep.representation import rep

from oracles import (
    compose_by_substitution,
    conjugates_by_third_rows,
    fixed_point_by_iteration,
    substitute,
    word_stream,
)

ALL = (G, GT, D, DT)
genwords = st.lists(st.sampled_from(ALL), max_size=10).map(tuple)
runs = st.tuples(st.sampled_from(ALL), st.integers(1, 1000)).map(lambda gk: (gk[0],) * gk[1])
randomwords = st.builds(
    lambda n, seed: tuple(random.Random(seed).choices(ALL, k=n)),
    st.integers(0, 3000),
    st.integers(0, 2**32),
)


def within_oracle_budget(word, budget=10**6):
    """Longest suffix of word on which compose_by_substitution writes at
    most budget letters in all, counting the letters of each image as the
    generators act from the right."""
    counts = ((1, 0), (0, 1))  # (zeros, ones) in the images of 0 and 1
    written = 0
    for i in range(len(word) - 1, -1, -1):
        if word[i] in (G, GT):  # 1 -> 01 or 10: each 1 adds a 0
            counts = tuple((z + o, o) for z, o in counts)
        else:  # 0 -> 10 or 01: each 0 adds a 1
            counts = tuple((z, z + o) for z, o in counts)
        written += sum(map(sum, counts))
        if written > budget:
            return word[i + 1 :]
    return word


# random words and runs of up to 1000 copies of one generator, cut so that
# the oracle's work, and with it the images, stays under about 10^6 letters
budgetwords = st.lists(st.one_of(genwords, runs, randomwords), max_size=6).map(
    lambda parts: within_oracle_budget(sum(parts, ()))
)


def test_generator_images():
    assert gen_morphism(G) == BinaryMorphism("0", "01")
    assert gen_morphism(GT) == BinaryMorphism("0", "10")
    assert gen_morphism(D) == BinaryMorphism("10", "1")
    assert gen_morphism(DT) == BinaryMorphism("01", "1")


def test_compose_examples():
    assert compose(parse_genword("DGG")) == BinaryMorphism("10", "10101")
    assert compose(()) == IDENTITY
    assert compose(parse_genword("GDG'")) == compose(parse_genword("G'D'G"))


@pytest.mark.parametrize("k", range(6))
def test_presentation_relations(k):
    assert compose((G,) + (D,) * k + (GT,)) == compose((GT,) + (DT,) * k + (G,))
    assert compose((D,) + (G,) * k + (DT,)) == compose((DT,) + (GT,) * k + (D,))


def test_genword_text_round_trip():
    for text in ("", "DGG", "G'D'G", "GDG'D'", "D'D'G'G"):
        assert format_genword(parse_genword(text)) == text
    assert parse_genword(" DGG ") == (D, G, G)


@pytest.mark.parametrize(
    "text, rest",
    [("GXD", "XD"), ("'G", "'G"), ("G''", "'"), ("D G", " G"), ("G'D'x", "x"), ("g", "g")],
)
def test_genword_parse_error_names_the_first_bad_token(text, rest):
    with pytest.raises(ParseError) as info:
        parse_genword(text)
    assert str(info.value) == f"bad generator token at {rest!r}"


@given(randomwords)
def test_genword_text_round_trip_on_long_words(word):
    text = format_genword(word)
    assert parse_genword(text) == word
    assert parse_genword(f" {text}\n") == word


def test_apply():
    phi = BinaryMorphism("10", "10101")
    assert phi.apply("10") == "1010110"
    assert phi("10") == "10101" + "10"
    assert IDENTITY.apply("0110") == "0110"
    assert EXCHANGE.apply("0110") == "1001"
    with pytest.raises(KeyError):
        phi.apply("102")


def test_apply_stream_is_lazy_and_consistent():
    phi = compose(parse_genword("DGG"))
    src = word_stream("10")
    out = phi.apply(src)
    assert out.prefix(14) == phi.apply(src.prefix(4))[:14]
    assert out.prefix(7) == phi.apply("10")


def test_morphism_text_round_trip():
    phi = BinaryMorphism("10", "10101")
    assert BinaryMorphism.parse(str(phi)) == phi
    assert str(phi) == "0->10,1->10101"
    with pytest.raises(ParseError):
        BinaryMorphism.parse("0:10,1:1")


def test_incidence():
    assert compose(parse_genword("DGG")).incidence() == Mat2(1, 2, 1, 3)
    assert IDENTITY.incidence() == Mat2.identity()
    assert gen_morphism(G).incidence() == gen_morphism(GT).incidence()
    assert gen_morphism(D).incidence() == gen_morphism(DT).incidence()


@given(genwords, genwords)
def test_incidence_is_multiplicative(w1, w2):
    assert compose(w1 + w2).incidence() == compose(w1).incidence() * compose(w2).incidence()


@given(genwords)
def test_image_lengths_from_incidence(w):
    phi = compose(w)
    matrix = phi.incidence()
    assert len(phi.image0) == matrix.a + matrix.c
    assert len(phi.image1) == matrix.b + matrix.d


def test_primitivity():
    assert Mat2(1, 2, 1, 3).is_primitive()
    assert not Mat2(1, 1, 0, 1).is_primitive()
    assert not Mat2(0, 1, 1, 0).is_primitive()


@given(genwords)
def test_primitivity_iff_both_letter_kinds(w):
    has_g = any(g in (G, GT) for g in w)
    has_d = any(g in (D, DT) for g in w)
    assert compose(w).incidence().is_primitive() == (has_g and has_d)


def test_right_conjugate_step():
    assert right_conjugate_step(gen_morphism(GT)) == gen_morphism(G)
    assert right_conjugate_step(BinaryMorphism("10", "10101")) is None
    assert right_conjugate_step(IDENTITY) is None
    with pytest.raises(CyclicMorphismError):
        right_conjugate_step(BinaryMorphism("0", "00"))


def test_rightmost_conjugate():
    assert rightmost_conjugate(gen_morphism(GT)) == gen_morphism(G)
    phi = BinaryMorphism("10", "10101")
    assert rightmost_conjugate(phi) == phi
    with pytest.raises(CyclicMorphismError):
        rightmost_conjugate(BinaryMorphism("0101", "01"))


@given(genwords)
def test_rightmost_matches_step_iteration(w):
    phi = compose(w)
    cur = phi
    while True:
        nxt = right_conjugate_step(cur)
        if nxt is None:
            break
        cur = nxt
    assert rightmost_conjugate(phi) == cur
    assert rightmost_conjugate(cur) == cur  # idempotent
    assert cur.image0[-1] != cur.image1[-1]


def test_conjugates_counts():
    family = conjugates_of(Mat2(1, 2, 1, 3))
    assert len(family) == 6
    assert family == [
        BinaryMorphism("01", "01011"),
        BinaryMorphism("01", "01101"),
        BinaryMorphism("01", "10101"),
        BinaryMorphism("10", "10101"),
        BinaryMorphism("10", "10110"),
        BinaryMorphism("10", "11010"),
    ]
    assert conjugates_of(Mat2.identity()) == [IDENTITY]
    assert conjugates_of(Mat2(1, 1, 0, 1)) == [gen_morphism(G), gen_morphism(GT)]


def test_conjugates_match_the_third_rows_on_every_small_matrix():
    matrices = conjugate_count = 0
    for n in range(2, 41):
        for a in range(1, n):
            for b in range(n - a):
                for c in range(n - a - b):
                    d = n - a - b - c
                    if a * d - b * c != 1:
                        continue
                    family = conjugates_of(Mat2(a, b, c, d))
                    expected = conjugates_by_third_rows(a, b, c, d)
                    assert [(phi.image0, phi.image1) for phi in family] == expected
                    matrices += 1
                    conjugate_count += len(family)
    assert (matrices, conjugate_count) == (489, 12621)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.sampled_from(ALL), max_size=14).map(tuple))
def test_conjugates_match_the_third_rows_on_word_incidences(w):
    phi = compose(w)
    matrix = phi.incidence()
    assume(sum(matrix.entries()) <= 600)
    family = conjugates_of(matrix)
    assert [(psi.image0, psi.image1) for psi in family] == conjugates_by_third_rows(
        *matrix.entries()
    )
    assert phi in family


def test_conjugates_share_incidence_and_rightmost():
    matrix = Mat2(2, 3, 3, 5)
    family = conjugates_of(matrix)
    assert len(set(family)) == 2 + 3 + 3 + 5 - 1
    assert all(phi.incidence() == matrix for phi in family)
    assert len({rightmost_conjugate(phi) for phi in family}) == 1


def test_conjugates_rejects_bad_matrices():
    with pytest.raises(DomainError):
        conjugates_of(Mat2(1, 1, 1, 1))
    with pytest.raises(DomainError):
        conjugates_of(Mat2(2, -1, -1, 1))


def test_conjugation_witness_words():
    # the step output psi is a right conjugate of phi: w*phi(a) = psi(a)*w
    phi = BinaryMorphism("01", "01101")
    psi = right_conjugate_step(phi)
    w = phi.image0[-1]
    for a in ("0", "1"):
        assert w + phi.apply(a) == psi.apply(a) + w


def test_identity_and_exchange_are_acyclic():
    assert not IDENTITY.is_cyclic()
    assert not EXCHANGE.is_cyclic()
    assert BinaryMorphism("0101", "01").is_cyclic()


def test_morphism_power():
    phi = compose(parse_genword("DGG"))
    assert phi**0 == IDENTITY
    assert phi**2 == phi * phi
    assert (phi**2).image0 == substitute(phi.image0, phi.image1, phi.image0)
    rng = random.Random(4)
    words = [parse_genword("DGG"), ()] + [
        tuple(rng.choice(ALL) for _ in range(rng.randint(1, 5))) for _ in range(6)
    ]
    for w in words:
        want = IDENTITY
        for k in range(8):
            assert compose(w) ** k == want
            want = want * compose(w)
    for b in ((1, 2, 1, 3), (2, 1, 1, 1), (0, 1, 1, 0), (3, -1, 4, 2)):
        want = Mat2.identity()
        for k in range(8):
            assert Mat2(*b) ** k == want
            want = want * Mat2(*b)
    for g in ALL:
        for k in range(8):
            assert rep((g,) * k) == rep((g,)) ** k
    for x in (phi, Mat2(1, 2, 1, 3), rep((D,))):
        with pytest.raises(ValueError):
            x ** -1


def test_power_builds_no_factor_past_the_result():
    built = []

    class Exp:  # stands for x**e; a product adds exponents
        def __init__(self, e):
            self.e = e

        def __mul__(self, other):
            built.append(self.e + other.e)
            return Exp(self.e + other.e)

    for k in range(1, 100):
        built.clear()
        assert power(Exp(1), k, Exp(0)).e == k
        assert max(built) == k
        assert len(built) <= 2 * k.bit_length()


def test_fixed_point_iteration_oracle_agreement():
    phi = compose(parse_genword("DGG"))
    by_hand = fixed_point_by_iteration(phi.image0, phi.image1, "1", 200)
    s = "1"
    while len(s) < 200:
        s = phi.apply(s)
    assert s[:200] == by_hand


@settings(deadline=None, max_examples=40)
@given(budgetwords)
def test_compose_matches_substitution_oracle(w):
    phi = compose(w)
    assert (phi.image0, phi.image1) == compose_by_substitution([g.token for g in w])


def test_compose_random_associativity():
    rng = random.Random(2)
    for _ in range(50):
        w = tuple(rng.choice(ALL) for _ in range(rng.randint(0, 8)))
        cut = rng.randint(0, len(w))
        assert compose(w) == compose(w[:cut]) * compose(w[cut:])
