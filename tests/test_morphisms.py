import os
import random
import subprocess
import sys
import time
from itertools import product
from math import gcd
from pathlib import Path

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
    RunWord,
    _christoffel,
    compose,
    conjugates_of,
    format_genword,
    is_primitive_block,
    parse_genword,
    power,
    rightmost_conjugate,
)
from sturmrep.representation import decompose, rep
from sturmrep.words import PrefixStream

from oracles import (
    christoffel_by_floors,
    compose_by_substitution,
    conjugates_by_third_rows,
    fixed_point_by_iteration,
    parse_genword_by_regex,
    right_conjugate_step,
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
    assert compose((G,)) == BinaryMorphism("0", "01")
    assert compose((GT,)) == BinaryMorphism("0", "10")
    assert compose((D,)) == BinaryMorphism("10", "1")
    assert compose((DT,)) == BinaryMorphism("01", "1")


def test_compose_examples():
    assert compose(parse_genword("DGG")) == BinaryMorphism("10", "10101")
    assert compose(()) == IDENTITY
    assert compose(parse_genword("GDG'")) == compose(parse_genword("G'D'G"))
    # any iterable of generators: a list, a generator expression
    assert compose([D, G, G]) == compose(g for g in (D, G, G)) == BinaryMorphism("10", "10101")
    with pytest.raises(KeyError) as info:
        compose([D, "G", G])
    assert info.value.args == ("G",)


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
    [("GXD", "XD"), ("'G", "'G"), ("G''", "'"), ("D G", " G"), ("G'D'x", "x"), ("g", "g"),
     # a typed g or d, which the letter lookup would read as G' or D'
     ("Gd", "d"), ("G'g", "g"), (" d ", "d"), ("GDd'", "d'"), ("DgG", "gG")],
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


@st.composite
def run_words(draw):
    """RunWords of up to eight maximal runs with exponents up to 300."""
    gens = draw(st.lists(st.sampled_from(ALL), max_size=8))
    gens = [g for i, g in enumerate(gens) if i == 0 or g != gens[i - 1]]
    return RunWord(tuple((g, draw(st.integers(1, 300))) for g in gens))


@given(st.one_of(run_words(), randomwords))
def test_format_genword_matches_the_per_token_join(word):
    assert format_genword(word) == "".join(g.value for g in word)


@st.composite
def composable_run_words(draw, budget=10**5):
    """RunWords whose images stay under `budget` letters: a run of k
    multiplies the total length by at most k + 1, so each exponent is drawn
    within what the runs before it leave of that budget."""
    gens = draw(st.lists(st.sampled_from(ALL), max_size=8))
    gens = [g for i, g in enumerate(gens) if i == 0 or g != gens[i - 1]]
    pairs, size = [], 2
    for g in gens:
        k = draw(st.integers(1, max(1, min(300, budget // size - 1))))
        pairs.append((g, k))
        size *= k + 1
    return RunWord(tuple(pairs))


@given(composable_run_words())
def test_compose_of_runs_matches_the_per_token_loop(word):
    # a run of k against k runs of one
    assert compose(word) == compose(tuple(word))


def test_compose_of_a_long_run_is_one_repetition():
    # a concatenation per generator copies the growing image 10^6 times
    k = 10**6
    t0 = time.perf_counter()
    phi = compose(RunWord(((D, 1), (G, k), (D, 1))))
    assert time.perf_counter() - t0 < 1
    y = "10" * k + "1"
    assert phi == BinaryMorphism(y + "10", y)


@pytest.mark.parametrize(
    "runs, error",
    [
        (((G, -1), (D, 2)), ValueError),
        (((G, 0),), ValueError),
        (((G, 1), (G, 1)), ValueError),
        (((D, 3), (DT, 1), (DT, 2)), ValueError),
        (((G, 1.0),), TypeError),
        (((G, True),), TypeError),
        (((G, "2"),), TypeError),
        ((("G", 1),), TypeError),
        (((G,),), TypeError),
        (((G, 1, 1),), TypeError),
        (([G, 1],), TypeError),
        ((G,), TypeError),
    ],
    ids=repr,
)
def test_run_word_refuses_runs_that_are_not_maximal_or_positive(runs, error):
    # unchecked, ((G, -1), (D, 2)) would compose to the morphism of DD and
    # have len 1, and ((G, 1), (G, 1)) would differ from ((G, 2),)
    with pytest.raises(error):
        RunWord(runs)


def test_run_word_takes_any_iterable_of_runs_and_stores_a_tuple():
    runs = [(G, 2), (DT, 10**30), (G, 1)]
    word = RunWord(iter(runs))
    assert word.runs == tuple(runs) and type(word.runs) is tuple
    assert word == RunWord(tuple(runs)) and RunWord(()).runs == ()
    assert RunWord(((G, 2),)) == decompose(rep((G, G)))


def test_format_genword_of_a_long_run_is_one_repetition():
    t0 = time.perf_counter()
    text = format_genword(RunWord(((DT, 10**7),)))
    assert time.perf_counter() - t0 < 0.5
    assert len(text) == 2 * 10**7 and text[:4] == "D'D'" and text.strip("D'") == ""


@st.composite
def genword_texts(draw):
    """Text over the token characters, their lower-case look-alikes, a stray
    letter and whitespace; or a long valid word, padded, with up to three
    of those characters spliced in at one place."""
    if draw(st.booleans()):
        return draw(st.text(alphabet="GD'gdX \t\n", max_size=30))
    text = format_genword(draw(randomwords))
    k = draw(st.integers(0, len(text)))
    junk = draw(st.text(alphabet="GD'gdX \t\n", max_size=3))
    pad = draw(st.text(alphabet=" \t\n", max_size=2))
    return pad + text[:k] + junk + text[k:] + pad


@given(genword_texts())
def test_parse_genword_matches_regex_oracle(text):
    try:
        want = parse_genword_by_regex(text)
    except ParseError as err:
        with pytest.raises(ParseError) as info:
            parse_genword(text)
        assert str(info.value) == str(err)
    else:
        assert parse_genword(text) == want


def test_apply():
    phi = BinaryMorphism("10", "10101")
    assert phi.apply("10") == "10101" + "10" == "1010110"
    assert IDENTITY.apply("0110") == "0110"
    assert EXCHANGE.apply("0110") == "1001"
    with pytest.raises(KeyError):
        phi.apply("102")


binary_words = st.text(alphabet="01", max_size=60)
short_images = st.text(alphabet="01", max_size=6)


@given(binary_words, short_images, short_images, st.lists(st.integers(0, 60), max_size=8))
def test_apply_matches_substitute_oracle(w, image0, image1, cuts):
    # the str path, and the stream path over the word cut into blocks at
    # random points (empty blocks included)
    phi = BinaryMorphism(image0, image1)
    want = substitute(image0, image1, w)
    assert phi.apply(w) == want
    bounds = [0, *sorted(min(c, len(w)) for c in cuts), len(w)]
    src = PrefixStream(iter([w[i:j] for i, j in zip(bounds, bounds[1:])]))
    if not (image0 or image1):
        with pytest.raises(DomainError):
            phi.apply(src)
        return
    out = phi.apply(src)
    assert out.prefix(len(want)) == want
    with pytest.raises(DomainError):
        out.prefix(len(want) + 1)


@pytest.mark.parametrize("word, bad", [("102", "2"), ("2", "2"), ("0120", "2"), ("01a2", "a")])
def test_apply_names_the_first_non_binary_letter(word, bad):
    # "2" is the placeholder of the replace passes, so it is refused too
    with pytest.raises(KeyError) as info:
        BinaryMorphism("10", "1").apply(word)
    assert info.value.args == (bad,)


def test_apply_stream_raises_on_reading_a_non_binary_block():
    out = BinaryMorphism("10", "1").apply(PrefixStream(iter(["01", "0x1", "0"])))
    assert out.prefix(3) == "101"
    with pytest.raises(KeyError) as info:
        out.prefix(4)
    assert info.value.args == ("x",)


def test_apply_stream_is_lazy_and_consistent():
    phi = compose(parse_genword("DGG"))
    src = word_stream("10")
    out = phi.apply(src)
    assert out.prefix(14) == phi.apply(src.prefix(4))[:14]
    assert out.prefix(7) == phi.apply("10")


def test_erasing_morphism_on_a_stream_returns_within_2_s():
    # a child process, so that a morphism reading empty blocks forever is
    # killed at the timeout instead of holding the test run
    child = (
        "from sturmrep.dynamics import fixed_point_stream\n"
        "from sturmrep.errors import DomainError\n"
        "from sturmrep.morphisms import BinaryMorphism, parse_genword\n"
        "from sturmrep.words import PrefixStream\n"
        "s = fixed_point_stream(parse_genword('DGG'))\n"
        "print(BinaryMorphism('', '1').apply(s).prefix(5))\n"
        "try:\n"
        "    BinaryMorphism('', '').apply(s).prefix(1)\n"
        "except DomainError as e:\n"
        "    print('DomainError:', e)\n"
        # a stream without params ending in the erased letter
        "try:\n"
        "    BinaryMorphism('', '1').apply(PrefixStream(iter(lambda: '0', None))).prefix(1)\n"
        "except DomainError as e:\n"
        "    print('DomainError:', e)\n"
        # up to the bound, a run of erased letters still maps
        "print(BinaryMorphism('', '1').apply(PrefixStream(iter(['0' * 9999 + '1']))).prefix(1))\n"
        "print(BinaryMorphism('0', '').apply(PrefixStream(iter(['1'] * 10000 + ['0'])))[0])\n"
        # a fixed point with runs of 12 001 zeros has params: no cap
        "s = fixed_point_stream(parse_genword('G' * 12000 + 'D'))\n"
        "print(BinaryMorphism('', '1').apply(s).prefix(3))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=2
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "11111\nDomainError: an erasing morphism maps every stream to the empty word\n"
        "DomainError: more than 10000 letters in a row map to the empty word\n"
        "1\n0\n111\n"
    )


def test_morphism_text_round_trip():
    phi = BinaryMorphism("10", "10101")
    assert BinaryMorphism.parse(str(phi)) == phi
    assert str(phi) == "0->10,1->10101"
    with pytest.raises(ParseError):
        BinaryMorphism.parse("0:10,1:1")


@pytest.mark.parametrize("bad", ["a01", "0a1", "01a", "2", "01\n", " 0", "0 1"])
def test_morphism_images_must_be_binary_words(bad):
    for images in ((bad, "1"), ("0", bad), (bad, bad)):
        with pytest.raises(ValueError, match="images must be binary words"):
            BinaryMorphism(*images)


@pytest.mark.parametrize("images", [(["0"], ["1"]), (("0",), ("1",)), (b"0", b"1"), ("0", ["1"])])
def test_morphism_images_must_be_str(images):
    # lists and tuples of "0" and "1" have the counts of a binary word
    with pytest.raises(TypeError):
        BinaryMorphism(*images)


def test_empty_images_are_accepted():
    assert str(BinaryMorphism("", "1")) == "0->,1->1"
    assert str(BinaryMorphism("01", "")) == "0->01,1->"
    assert str(BinaryMorphism("", "")) == "0->,1->"


def test_incidence():
    assert compose(parse_genword("DGG")).incidence() == Mat2(1, 2, 1, 3)
    assert IDENTITY.incidence() == Mat2.identity()
    assert compose((G,)).incidence() == compose((GT,)).incidence()
    assert compose((D,)).incidence() == compose((DT,)).incidence()


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
    assert is_primitive_block(*Mat2(1, 2, 1, 3).entries())
    assert not is_primitive_block(*Mat2(1, 1, 0, 1).entries())
    assert not is_primitive_block(*Mat2(0, 1, 1, 0).entries())


@given(genwords)
def test_primitivity_iff_both_letter_kinds(w):
    has_g = any(g in (G, GT) for g in w)
    has_d = any(g in (D, DT) for g in w)
    assert is_primitive_block(*compose(w).incidence().entries()) == (has_g and has_d)


def test_right_conjugate_step():
    # the oracle that rightmost_conjugate is held to
    assert right_conjugate_step("0", "10") == ("0", "01")  # G' to G
    assert right_conjugate_step("10", "10101") is None
    assert right_conjugate_step("0", "1") is None
    with pytest.raises(ValueError):
        right_conjugate_step("0", "00")


def test_rightmost_conjugate():
    assert rightmost_conjugate(compose((GT,))) == compose((G,))
    phi = BinaryMorphism("10", "10101")
    assert rightmost_conjugate(phi) == phi
    with pytest.raises(CyclicMorphismError):
        rightmost_conjugate(BinaryMorphism("0101", "01"))


@given(genwords)
def test_rightmost_matches_step_iteration(w):
    phi = compose(w)
    cur = (phi.image0, phi.image1)
    while (nxt := right_conjugate_step(*cur)) is not None:
        cur = nxt
    rightmost = rightmost_conjugate(phi)
    assert (rightmost.image0, rightmost.image1) == cur
    assert rightmost_conjugate(rightmost) == rightmost  # idempotent
    assert cur[0][-1] != cur[1][-1]


def test_rightmost_conjugate_of_every_short_morphism_within_fine_wilf():
    # by Fine and Wilf, images that do not commute share at most
    # n0 + n1 - gcd(n0, n1) - 1 final letters read cyclically
    words = ["".join(p) for n in range(1, 7) for p in product("01", repeat=n)]
    morphisms = [BinaryMorphism(u, v) for u in words for v in words]
    morphisms = [phi for phi in morphisms if not phi.is_cyclic()]
    assert len(morphisms) == 15666
    at_bound = 0
    for phi in morphisms:
        n0, n1 = len(phi.image0), len(phi.image1)
        bound = n0 + n1 - gcd(n0, n1) - 1
        cur, steps = (phi.image0, phi.image1), 0
        while (nxt := right_conjugate_step(*cur)) is not None:
            cur, steps = nxt, steps + 1
        assert steps <= bound
        assert rightmost_conjugate(phi) == BinaryMorphism(*cur)
        at_bound += steps == bound
    assert at_bound == 210


def test_christoffel_word_by_placed_ones_matches_the_floors():
    for n in range(1, 201):
        for ones in range(n + 1):
            assert _christoffel(n, ones) == christoffel_by_floors(n, ones)


def _same_morphism(got, want):
    assert type(got) is BinaryMorphism
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


@settings(deadline=None, max_examples=50)
@given(budgetwords, genwords, genwords)
def test_derived_morphisms_equal_their_publicly_built_twins(w, u, v):
    # compose, products and conjugates build their images from binary words
    # and skip the check of BinaryMorphism(...): each must equal its twin
    # from the checking constructor
    twin = BinaryMorphism(*compose_by_substitution([g.value for g in w]))
    _same_morphism(compose(w), twin)
    _same_morphism(compose(decompose(rep(w))), twin)  # a RunWord, one copy per run
    phi, psi = compose(u), compose(v)
    _same_morphism(phi * psi, BinaryMorphism(*compose_by_substitution([g.value for g in u + v])))
    _same_morphism(phi**3, BinaryMorphism(*compose_by_substitution([g.value for g in u * 3])))
    for chi in conjugates_of(phi.incidence()):
        _same_morphism(chi, BinaryMorphism(chi.image0, chi.image1))
    if not phi.is_cyclic():
        chi = rightmost_conjugate(phi)
        _same_morphism(chi, BinaryMorphism(chi.image0, chi.image1))


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
    assert conjugates_of(Mat2(1, 1, 0, 1)) == [compose((G,)), compose((GT,))]


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
    psi = BinaryMorphism(*right_conjugate_step(phi.image0, phi.image1))
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
@given(st.one_of(budgetwords, composable_run_words(budget=4000)))
def test_compose_matches_substitution_oracle(w):
    # token tuples and RunWords, whose runs compose by one repetition each
    phi = compose(w)
    assert (phi.image0, phi.image1) == compose_by_substitution([g.value for g in w])


def test_compose_random_associativity():
    rng = random.Random(2)
    for _ in range(50):
        w = tuple(rng.choice(ALL) for _ in range(rng.randint(0, 8)))
        cut = rng.randint(0, len(w))
        assert compose(w) == compose(w[:cut]) * compose(w[cut:])
