import random
import time
from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from sturmrep import verify
from sturmrep.dynamics import fixed_point_params, fixed_point_stream
from sturmrep.errors import (
    NotCharacteristicError,
    NotPrimitiveError,
    ScanBoundError,
)
from sturmrep.exactfield import HALF, QuadExt
from sturmrep.morphisms import (
    D,
    G,
    BinaryMorphism,
    Mat2,
    compose,
    parse_genword,
    rightmost_conjugate,
)
from sturmrep.representation import rep
from sturmrep.sqroot import (
    SquareDecomposition,
    iter_square_roots,
    shortest_square_prefix,
    sqrt_fixing_morphism,
    square_decomposition,
    square_root_stream,
)
from sturmrep.words import (
    LOWER,
    ParamVector,
    PrefixStream,
    SlopeIntercept,
    iet_stream,
    mechanical_stream,
)

from oracles import (
    fixed_point_by_iteration,
    mechanical_oracle,
    naive_shortest_square_root,
    naive_square_roots,
    word_stream,
)

DG2 = parse_genword("DGG")
SQRT3_OVER_3 = QuadExt(0, 1, 3, 3)

# Greedy roots of the DG^2 fixed point, frozen from the brute-force string
# scan in oracles.naive_square_roots and confirmed below against the
# mechanical sequence with intercept 1/2 and against the fixing morphism.
DG2_ROOTS_16 = ["10", "1", "01", "0110101", "10", "101", "01", "10",
                "101", "0110101", "0110101", "10", "101", "01", "10", "1"]
DG2_SQRT_58 = "1010101101011010101101010110101011010110101011010101101010"

PSI = BinaryMorphism("1010101", "1010101101011010101")


def test_shortest_square_prefix_examples():
    stream = fixed_point_stream(DG2)
    assert shortest_square_prefix(stream) == "10"
    # after consuming the first block 10.10 the next root is 1
    roots = iter_square_roots(stream)
    assert next(roots) == "10"
    assert next(roots) == "1"
    assert shortest_square_prefix(word_stream("0")) == "0"


def _thue_morse():
    i = 0
    while True:
        yield str(bin(i).count("1") % 2)
        i += 1


def test_scan_bound_error():
    # Thue-Morse has no square prefix at all
    with pytest.raises(ScanBoundError):
        shortest_square_prefix(PrefixStream(_thue_morse), scan_bound=64)
    # the worst case of the scan: every root length up to the bound; a
    # window that grew by one block per miss took 30 s at 3*10^4
    start = time.perf_counter()
    with pytest.raises(ScanBoundError, match="root length <= 10000"):
        shortest_square_prefix(PrefixStream(_thue_morse))
    with pytest.raises(ScanBoundError, match="root length <= 100000"):
        shortest_square_prefix(PrefixStream(_thue_morse), scan_bound=10**5)
    assert time.perf_counter() - start < 2


def test_negative_scan_bound_is_rejected():
    for read in (
        lambda s: shortest_square_prefix(s, scan_bound=-1),
        lambda s: next(iter_square_roots(s, scan_bound=-1)),
        lambda s: square_root_stream(s, scan_bound=-1).prefix(1),
    ):
        with pytest.raises(ValueError, match="scan_bound must be non-negative"):
            read(fixed_point_stream(DG2))


def test_shortest_square_prefix_matches_naive_scan():
    # a periodic stream with a random period u has a root of length at most
    # |u|, so roots of every length up to 300 reach the doubling windows
    rng = random.Random(23)
    for _ in range(200):
        u = "".join(rng.choice("01") for _ in range(rng.randint(1, 300)))
        want = naive_shortest_square_root(u * 3)
        assert shortest_square_prefix(word_stream(u)) == want
        with pytest.raises(ScanBoundError):
            shortest_square_prefix(word_stream(u), scan_bound=len(want) - 1)


def test_square_root_length_exhaustive():
    # every binary word s of up to 16 letters whose proper prefixes start
    # with no square, as the whole stream, with the bound that fits in s
    words = [""]
    while words:
        w = words.pop()
        for s in (w + "0", w + "1"):
            want = next((k for k in range(1, len(s) // 2 + 1) if s[:k] == s[k : 2 * k]), 0)
            stream = PrefixStream(lambda: iter([s]))
            if want:
                assert shortest_square_prefix(stream, scan_bound=len(s) // 2) == s[:want]
            else:
                with pytest.raises(ScanBoundError):
                    shortest_square_prefix(stream, scan_bound=len(s) // 2)
                if len(s) < 16:
                    words.append(s)


def _recut(base: PrefixStream, widths: list[int]) -> PrefixStream:
    # the letters of base in blocks of the given widths, cycled
    def blocks():
        letters = iter(base.restart())
        for width in cycle(widths):
            yield "".join(islice(letters, width))

    return PrefixStream(blocks)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from((G, D)), min_size=2, max_size=6)
        .filter(lambda word: {G, D} <= set(word))
        .map(lambda word: fixed_point_stream(tuple(word))),
        st.text("01", min_size=1, max_size=200).map(word_stream),
    ),
    st.lists(st.integers(1, 200), min_size=1, max_size=20),
)
def test_roots_do_not_depend_on_block_cuts(base, widths):
    # a periodic root is at most 200 letters, so 20 roots fit in 8000
    u = base.prefix(8000)
    want = naive_square_roots(u, 20)
    read_ahead = base.restart()
    read_ahead.prefix(8000)  # its blocks() then starts with one 8000-letter block
    for stream in (_recut(base, widths), read_ahead):
        assert list(islice(iter_square_roots(stream), 20)) == want


def test_dg2_root_sequence_and_sqrt_prefix():
    stream = fixed_point_stream(DG2)
    roots = iter_square_roots(stream)
    assert [next(roots) for _ in range(16)] == DG2_ROOTS_16
    assert square_root_stream(fixed_point_stream(DG2)).prefix(58) == DG2_SQRT_58


def test_dg2_roots_match_naive_oracle():
    u = fixed_point_stream(DG2).prefix(4000)
    assert naive_square_roots(u, 16) == DG2_ROOTS_16


def test_pinned_sqrt_example_matches_oracles():
    # expected values from string substitution and the oracles alone: the
    # greedy roots of the DG^2 fixed point, the fixed point of its fixing
    # morphism psi, and the mechanical word of slope sqrt(3)/3, intercept 1/2
    u = fixed_point_by_iteration("10", "10101", "1", 4000)
    roots = naive_square_roots(u, 20)
    assert verify.PINNED_ROOT_LIST == ",".join(roots[:16])
    greedy = "".join(roots)[:58]
    psi_fixed = fixed_point_by_iteration("1010101", "1010101101011010101", "1", 58)
    mech = mechanical_oracle((0, 1, 3), (1, 0, 2), 3, 58)
    assert len(greedy) == 58
    assert verify.PINNED_SQRT_58 == greedy == psi_fixed == mech


def test_sqrt_equals_mechanical_with_intercept_one_half():
    # three independent routes to the same sequence
    sqrt_stream = square_root_stream(fixed_point_stream(DG2))
    mech = mechanical_stream(SlopeIntercept(SQRT3_OVER_3, HALF, LOWER))
    assert sqrt_stream.prefix(400) == mech.prefix(400)
    psi_fixed = "1"
    while len(psi_fixed) < 400:
        psi_fixed = PSI.apply(psi_fixed)
    assert psi_fixed[:400] == sqrt_stream.prefix(400)


def test_block_minimality_and_root_alphabet():
    rng = random.Random(7)
    for _ in range(6):
        while True:
            word = tuple(rng.choice((G, D)) for _ in range(rng.randint(2, 6)))
            if {G, D} <= set(word):
                break
        u = fixed_point_stream(word).prefix(3000)
        pos, roots = 0, []
        for w in iter_square_roots(iet_stream(fixed_point_params(word))):
            if pos + 2 * len(w) > 2000:
                break
            # no strictly shorter square starts here
            for shorter in range(1, len(w)):
                assert u[pos:pos + shorter] != u[pos + shorter:pos + 2 * shorter]
            assert u[pos:pos + len(w)] == u[pos + len(w):pos + 2 * len(w)]
            roots.append(w)
            pos += 2 * len(w)
        assert len(set(roots)) <= 6


def test_square_decomposition_object():
    dec = square_decomposition(fixed_point_stream(DG2), 4)
    assert dec == SquareDecomposition(("10", "1", "01", "0110101"))
    assert str(dec) == "10^2 1^2 01^2 0110101^2"
    blocks = "".join(w + w for w in dec.roots)
    assert blocks == fixed_point_stream(DG2).prefix(len(blocks))
    assert set(dec.roots) == {"10", "1", "01", "0110101"}


def test_sqrt_fixing_morphism_dg2():
    result = sqrt_fixing_morphism(DG2)
    assert result.power == 2
    assert result.morphism == PSI
    assert rep(result.genword).rows == ((3, 8, 0), (4, 11, 0), (3, 9, 1))
    text = str(result)
    assert "psi: 0->1010101,1->1010101101011010101" in text
    assert "k: 2" in text


def test_sqrt_morphism_small_powers():
    # M mod 2 = identity at k = 1
    assert sqrt_fixing_morphism(parse_genword("GGDD")).power == 1
    # M = [[1,1],[1,2]] mod 2 needs k = 3
    assert sqrt_fixing_morphism(parse_genword("DG")).power == 3


MOD2_TABLE = {
    # residue class of M mod 2 -> smallest k with (1,1)(M^k - I) even
    (1, 0, 0, 1): 1,
    (0, 1, 1, 0): 1,
    (1, 0, 1, 1): 2,
    (1, 1, 0, 1): 2,
    (1, 1, 1, 0): 3,
    (0, 1, 1, 1): 3,
}


def test_mod2_power_table():
    # the six unimodular residue classes, used as the oracle for k
    rng = random.Random(13)
    seen = set()
    for _ in range(400):
        while True:
            word = tuple(rng.choice((G, D)) for _ in range(rng.randint(2, 9)))
            if {G, D} <= set(word):
                break
        m = compose(word).incidence()
        cls = tuple(x % 2 for x in m.entries())
        assert cls in MOD2_TABLE
        seen.add(cls)
        assert sqrt_fixing_morphism(word).power == MOD2_TABLE[cls]
    assert len(seen) >= 4


def test_mod2_classes_are_complete():
    residues = set()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if (a * d - b * c) % 2 == 1:
                        residues.add((a, b, c, d))
    assert residues == set(MOD2_TABLE)
    for cls, k in MOD2_TABLE.items():
        m = Mat2(*cls)
        for j in range(1, k + 1):
            power = m**j
            even = (power.a + power.c - 1) % 2 == 0 and (
                power.b + power.d - 1
            ) % 2 == 0
            assert even == (j == k)


def test_sqrt_morphism_rejections():
    with pytest.raises(NotPrimitiveError):
        sqrt_fixing_morphism(parse_genword("GG"))
    with pytest.raises(NotCharacteristicError) as err:
        sqrt_fixing_morphism(parse_genword("G'D"))
    assert "E=" in str(err.value) or "F=" in str(err.value)


def test_sqrt_theorem_properties_random():
    rng = random.Random(29)
    for _ in range(6):
        while True:
            word = tuple(rng.choice((G, D)) for _ in range(rng.randint(2, 7)))
            if {G, D} <= set(word):
                break
        result = sqrt_fixing_morphism(word)
        psi = result.morphism
        assert psi.image0 == psi.image0[::-1] and len(psi.image0) % 2 == 1
        assert psi.image1 == psi.image1[::-1] and len(psi.image1) % 2 == 1
        power = compose(word) ** result.power
        assert psi.incidence() == power.incidence()
        assert rightmost_conjugate(psi) == rightmost_conjugate(power)
        roots = square_root_stream(fixed_point_stream(word))
        assert psi.apply(roots).prefix(1500) == roots.prefix(1500)


def test_sqrt_parameter_route():
    # square root of any Sturmian stream has intercept (1-alpha+delta)/2
    rng = random.Random(37)
    for _ in range(5):
        m = rng.choice((2, 3, 5))
        x = QuadExt(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), m)
        alpha = x - x.floor()
        delta = QuadExt(rng.randint(0, 7), 0, 8)
        v = ParamVector(1 - alpha, alpha, delta, LOWER)
        routed = ParamVector(1 - alpha, alpha, (1 - alpha + delta) / 2, LOWER)
        assert square_root_stream(iet_stream(v)).prefix(1000) == iet_stream(
            routed
        ).prefix(1000)


def test_sqrt_morphism_eigenvector_is_half():
    # dominant eigenvector of the fixing morphism is (1-alpha, alpha, 1/2)
    rng = random.Random(41)
    for _ in range(5):
        while True:
            word = tuple(rng.choice((G, D)) for _ in range(rng.randint(2, 6)))
            if {G, D} <= set(word):
                break
        alpha = fixed_point_params(word).l1
        result = sqrt_fixing_morphism(word)
        v = fixed_point_params(result.genword)
        assert (v.l0, v.l1, v.rho) == (1 - alpha, alpha, HALF)
