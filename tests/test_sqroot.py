import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from itertools import chain, cycle, islice, product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sturmrep import verify
from sturmrep.dynamics import fixed_point_params, fixed_point_stream
from sturmrep.errors import DomainError, NotPrimitiveError, ScanBoundError
from sturmrep.exactfield import QuadExt
from sturmrep.morphisms import (
    D,
    DT,
    G,
    GT,
    BinaryMorphism,
    Mat2,
    compose,
    format_genword,
    parse_genword,
    rightmost_conjugate,
)
from sturmrep.representation import rep
from sturmrep.sqroot import (
    SquareDecomposition,
    iter_square_roots,
    sqrt_fixing_morphism,
    square_decomposition,
    square_root_stream,
)
from sturmrep.words import (
    LOWER,
    UPPER,
    ParamVector,
    PrefixStream,
    SlopeIntercept,
    iet_stream,
    mechanical_stream,
)

from oracles import (
    fixed_point_by_iteration,
    mat_mul_3,
    mechanical_letters_at,
    mechanical_oracle,
    naive_shortest_square_root,
    naive_square_roots,
    rep_by_products,
    word_stream,
)
from test_words import FIELDS, fixed_point_vectors, iet_vectors

DG2 = parse_genword("DGG")
SQRT3_OVER_3 = QuadExt(0, 1, 3, 3)
HALF = QuadExt(1, 0, 2)

# Greedy roots of the DG^2 fixed point, frozen from the brute-force string
# scan in oracles.naive_square_roots and confirmed below against the
# mechanical sequence with intercept 1/2 and against the fixing morphism.
DG2_ROOTS_16 = ["10", "1", "01", "0110101", "10", "101", "01", "10",
                "101", "0110101", "0110101", "10", "101", "01", "10", "1"]
DG2_SQRT_58 = "1010101101011010101101010110101011010110101011010101101010"

PSI = BinaryMorphism("1010101", "1010101101011010101")


def test_shortest_square_prefix_examples():
    stream = fixed_point_stream(DG2)
    assert next(iter_square_roots(stream)) == "10"
    # after consuming the first block 10.10 the next root is 1
    roots = iter_square_roots(stream)
    assert next(roots) == "10"
    assert next(roots) == "1"
    assert next(iter_square_roots(word_stream("0"))) == "0"


def _thue_morse():
    i = 0
    while True:
        yield str(bin(i).count("1") % 2)
        i += 1


def test_scan_bound_error():
    # Thue-Morse has no square prefix at all
    with pytest.raises(ScanBoundError):
        next(iter_square_roots(PrefixStream(_thue_morse()), scan_bound=64))
    # and so has no root stream; it is scanned at the default bound
    with pytest.raises(ScanBoundError, match="root length <= 10000"):
        square_root_stream(PrefixStream(_thue_morse())).prefix(1)
    # the worst case of the scan: every root length up to the bound; a
    # window that grew by one block per miss took 30 s at 3*10^4
    start = time.perf_counter()
    with pytest.raises(ScanBoundError, match="root length <= 10000"):
        next(iter_square_roots(PrefixStream(_thue_morse())))
    with pytest.raises(ScanBoundError, match="root length <= 100000"):
        next(iter_square_roots(PrefixStream(_thue_morse()), scan_bound=10**5))
    assert time.perf_counter() - start < 2


def test_scan_bound_caps_work_not_valid_roots():
    # slope (sqrt(2)-1)/128 = [0; 309, 51, ...] and rho = l0: the stream
    # starts with a square whose root has 309*51 + 1 letters, past the
    # default bound
    l0 = QuadExt(129, -1, 128, 2)
    v = ParamVector(l0, QuadExt(-1, 1, 128, 2), l0)
    with pytest.raises(ScanBoundError, match="root length <= 15759"):
        next(iter_square_roots(iet_stream(v), 15_759))
    root = next(iter_square_roots(iet_stream(v), 15_760))
    assert len(root) == 15_760 == 309 * 51 + 1
    # with no bound given, a stream with a vector is scanned uncapped
    assert next(iter_square_roots(iet_stream(v))) == root
    assert root == square_root_stream(iet_stream(v)).prefix(15_760)
    assert root == naive_shortest_square_root(iet_stream(v).prefix(2 * 15_760))


def test_square_blocks_past_the_old_default_bound():
    # G'^n D G^n D has roots of n+2 letters; n = 12000 failed at 10 000
    word = parse_genword("G'" * 12000 + "D" + "G" * 12000 + "D")
    dec = square_decomposition(fixed_point_stream(word), 3)
    assert [len(w) for w in dec.roots] == [12_002] * 3
    blocks = "".join(w + w for w in dec.roots)
    assert blocks == fixed_point_stream(word).prefix(len(blocks))


def _deep_slope(quotients: list[int], m: int) -> QuadExt:
    """1/(a1 + 1/(a2 + ... + frac(sqrt(m)))) for quotients a1, a2, ..."""
    x = QuadExt(-isqrt(m), 1, 1, m)
    for a in reversed(quotients):
        x = 1 / (a + x)
    return x


def test_uncapped_scan_is_linear_in_the_root():
    # slope [0; 400, 500, ...] and rho = l0 start with a root of
    # 400*500 + 1 letters; the doubling window reads a few times that
    alpha = _deep_slope([400, 500], 2)
    v = ParamVector(1 - alpha, alpha, 1 - alpha)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        root = next(iter_square_roots(iet_stream(v)))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0 and peak < 5_000_000
    assert len(root) == 200_001
    assert iet_stream(v).prefix(2 * len(root)) == root + root


@st.composite
def deep_quotient_vectors(draw):
    """2iet vectors whose slope has partial quotients up to 300, so that
    some roots pass 10^4 letters: slope 1/(a1 + 1/(a2 + 1/(a3 +
    frac(sqrt(m))))) or one minus it, both kinds, rho on an interval end,
    at l0 or at 1/2."""
    quotients = draw(st.lists(st.integers(1, 300), min_size=3, max_size=3))
    x = _deep_slope(quotients, draw(st.sampled_from(FIELDS)))
    alpha = draw(st.sampled_from((x, 1 - x)))
    kind = draw(st.sampled_from((LOWER, UPPER)))
    end = QuadExt(1) if kind == UPPER else QuadExt(0)
    return ParamVector(1 - alpha, alpha, draw(st.sampled_from((end, 1 - alpha, HALF))), kind)


_DEEP = _deep_slope([119, 208, 264], 2)


@settings(max_examples=60, deadline=None)
@given(deep_quotient_vectors())
@example(ParamVector(_DEEP, 1 - _DEEP, _DEEP, UPPER))  # first root 119*208 + 1 letters
def test_uncapped_scan_on_deep_quotients(v):
    roots = list(islice(iter_square_roots(iet_stream(v)), 20))
    assert roots == list(islice(iter_square_roots(iet_stream(v), 10**6), 20))
    first = len(roots[0])
    assert roots[0] == naive_shortest_square_root(iet_stream(v).prefix(2 * first))


def test_negative_scan_bound_is_rejected():
    with pytest.raises(ValueError, match="scan_bound must be non-negative"):
        next(iter_square_roots(fixed_point_stream(DG2), scan_bound=-1))


def test_a_finite_stream_that_ends_before_a_square_raises_domain_error():
    # the letters run out before any square prefix, well inside the bound
    with pytest.raises(DomainError, match=r"ends before a square prefix \(2 letters unread"):
        next(iter_square_roots(PrefixStream(iter(["01"]))))
    with pytest.raises(DomainError, match=r"ends before a square prefix \(5 letters unread"):
        square_decomposition(PrefixStream(iter(["0110", "1"])), 2)


def test_a_finite_stream_yields_its_squares_first():
    # the blocks of a finite stream end with its letters
    assert list(PrefixStream(iter(["0110", "1"])).blocks()) == ["0110", "1"]
    roots = iter_square_roots(PrefixStream(iter(["0", "0", "1010", "11"])))
    assert list(islice(roots, 3)) == ["0", "10", "1"]
    with pytest.raises(DomainError, match=r"ends before a square prefix \(0 letters unread"):
        next(roots)
    assert square_decomposition(PrefixStream(iter(["0101"])), 1).roots == ("01",)


def test_shortest_square_prefix_matches_naive_scan():
    # a periodic stream with a random period u has a root of length at most
    # |u|, so roots of every length up to 300 reach the doubling windows
    rng = random.Random(23)
    for _ in range(200):
        u = "".join(rng.choice("01") for _ in range(rng.randint(1, 300)))
        want = naive_shortest_square_root(u * 3)
        assert next(iter_square_roots(word_stream(u))) == want
        with pytest.raises(ScanBoundError):
            next(iter_square_roots(word_stream(u), scan_bound=len(want) - 1))


def test_square_root_length_exhaustive():
    # every binary word s of up to 16 letters whose proper prefixes start
    # with no square, as the whole stream, with the bound that fits in s
    words = [""]
    while words:
        w = words.pop()
        for s in (w + "0", w + "1"):
            want = next((k for k in range(1, len(s) // 2 + 1) if s[:k] == s[k : 2 * k]), 0)
            stream = PrefixStream(iter([s]))
            if want:
                assert next(iter_square_roots(stream, scan_bound=len(s) // 2)) == s[:want]
            else:
                with pytest.raises(ScanBoundError):
                    next(iter_square_roots(stream, scan_bound=len(s) // 2))
                if len(s) < 16:
                    words.append(s)


def _recut(base: PrefixStream, widths: list[int]) -> PrefixStream:
    # the letters of base in blocks of the given widths, cycled
    letters = chain.from_iterable(base.blocks())
    return PrefixStream("".join(islice(letters, width)) for width in cycle(widths))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from((G, D)), min_size=2, max_size=6)
        .filter(lambda word: {G, D} <= set(word))
        .map(lambda word: lambda: fixed_point_stream(tuple(word))),
        st.text("01", min_size=1, max_size=200).map(lambda u: lambda: word_stream(u)),
    ),
    st.lists(st.integers(1, 200), min_size=1, max_size=20),
)
def test_roots_do_not_depend_on_block_cuts(make, widths):
    # a periodic root is at most 200 letters, so 20 roots fit in 8000
    want = naive_square_roots(make().prefix(8000), 20)
    read_ahead = make()
    read_ahead.prefix(8000)  # its blocks() then cut the buffer, not the source
    for stream in (_recut(make(), widths), read_ahead):
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
    # independent routes to the same sequence: the root map, the scan, the
    # mechanical word and the fixed point of psi
    sqrt_stream = square_root_stream(fixed_point_stream(DG2))
    scan = PrefixStream(iter_square_roots(fixed_point_stream(DG2)))
    mech = mechanical_stream(SlopeIntercept(SQRT3_OVER_3, HALF, LOWER))
    assert sqrt_stream.prefix(400) == scan.prefix(400) == mech.prefix(400)
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
    # no roots at all would read as a decomposition that stopped early
    with pytest.raises(ValueError, match="non-negative"):
        square_decomposition(fixed_point_stream(DG2), -1)


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
    # fixed points that are not characteristic; k = 4 occurs only among them
    for text, k, genword in (
        ("G'D", 3, "G'DG'D'GD'"),
        ("D'GG", 1, "D'GG'"),
        ("DG'G", 4, "DG'GD'GGD'G'G'D'GG'"),
    ):
        result = sqrt_fixing_morphism(parse_genword(text))
        assert (result.power, format_genword(result.genword)) == (k, genword)
    # palindromic images are the characteristic case only
    assert str(sqrt_fixing_morphism(parse_genword("D'GG")).morphism) == "0->01,1->01101"


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
    # a fixed point that is not characteristic (E=2, C=1) is no rejection
    assert str(sqrt_fixing_morphism(parse_genword("G'D"))) == (
        "psi: 0->100101001001010010100,1->1001010010100\n"
        "k: 3\n"
        "genword: G'DG'D'GD'"
    )


def _primitive(word) -> bool:
    return bool({G, GT} & set(word)) and bool({D, DT} & set(word))


def _conjugated_power(word):
    """(k, rows) for the least k whose power of the word's matrix has an
    integral third row after conjugation by the root map, from the oracle's
    matrix products; rows is that conjugated power."""
    matrix = rep_by_products([g.value for g in word])
    power = matrix
    for k in range(1, 25):
        (a, b, _), (c, d, _), (e, f, _) = power
        if (a + e - 1) % 2 == 0 and (b + f) % 2 == 0:
            return k, ((a, b, 0), (c, d, 0), ((a + e - 1) // 2, (b + f) // 2, 1))
        power = mat_mul_3(power, matrix)
    raise AssertionError(f"no integral row up to k = 24: {format_genword(word)}")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((G, GT, D, DT)), min_size=2, max_size=8).filter(_primitive))
def test_sqrt_morphism_of_every_primitive_word(word):
    # the square-root theorem for any fixed point, characteristic or not
    word = tuple(word)
    result = sqrt_fixing_morphism(word)
    k, rows = _conjugated_power(word)
    assert 1 <= result.power <= 4
    assert result.power == k
    assert rep(result.genword).rows == rows
    assert result.morphism == result.morphism == compose(result.genword)
    roots = square_root_stream(fixed_point_stream(word))
    want = roots.prefix(1500)
    assert result.morphism.apply(roots).prefix(1500) == want
    assert PrefixStream(iter_square_roots(fixed_point_stream(word))).prefix(1500) == want


_NO_IMAGES_CHILD = """
import random, time, tracemalloc
from sturmrep.morphisms import D, DT, G, GT, parse_genword
from sturmrep.representation import rep
from sturmrep.sqroot import SqrtMorphism, sqrt_fixing_morphism

rng = random.Random(23)
drawn = tuple(rng.choice((G, GT, D, DT)) for _ in range(4096))
assert {G, GT} & set(drawn) and {D, DT} & set(drawn)
for word in (parse_genword("GD'" * 2048), drawn):
    tracemalloc.start()
    t0 = time.perf_counter()
    root = sqrt_fixing_morphism(word)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 2.0 and peak < 2**20, (elapsed, peak)
    assert sum(k for _, k in root.genword.runs) == root.power * len(word)
    assert rep(root.genword).named()[:4] == (rep(word) ** root.power).named()[:4]
assert "morphism" not in SqrtMorphism.__slots__
print("ok")
"""


def test_sqrt_fixing_morphism_builds_no_images():
    # psi's images have A+B+C+D letters: about 4e8 for a random word of 16
    # generators, and for (GD')^2048 (k = 3) a number of 8532 bits, so a
    # result that composed them would end in a MemoryError under the child's
    # 1 GiB of address space; the generator word of psi has power * n
    # generators, and its block is that of the power
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _NO_IMAGES_CHILD], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from((G, GT, D, DT)), min_size=2, max_size=8).filter(_primitive),
    st.lists(st.sampled_from((G, GT, D, DT)), min_size=1, max_size=6),
)
def test_square_root_stream_of_a_morphic_image_matches_naive_scan(w, u):
    # a morphic image has no parameter vector, so its roots come from the scan
    image = compose(u).apply(fixed_point_stream(tuple(w)))
    assert image.params is None
    text, roots, pos = image.prefix(4000), [], 0
    while sum(map(len, roots)) < 300:
        roots.append(naive_shortest_square_root(text, pos))
        pos += 2 * len(roots[-1])
    assert square_root_stream(image).prefix(300) == "".join(roots)[:300]


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(iet_vectors(), fixed_point_vectors()))
@example(ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, 0, LOWER))  # intercept 0
@example(ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, 1, UPPER))  # upper intercept 0 or 1
@example(ParamVector(1 - SQRT3_OVER_3, SQRT3_OVER_3, SQRT3_OVER_3, UPPER))
def test_square_root_map_matches_the_scan(v):
    # psi(l0, l1, rho) = (l0, l1, (rho+l0)/2) gives the greedy roots on both
    # kinds, with rho on the interval ends, rational, irrational, on an
    # orbit point that hits an end, and for fixed points.  A slope near 0
    # with rho = l0 can start with a root of over 10^4 letters
    scan = PrefixStream(iter_square_roots(iet_stream(v), scan_bound=10**6))
    assert square_root_stream(iet_stream(v)).prefix(600) == scan.prefix(600)


def test_far_root_slice_seeks():
    # the scan read every root before a slice: 4.3 s at offset 10^7
    far = 10**12
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        got = square_root_stream(fixed_point_stream(DG2)).slice(far, far + 64)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0 and peak < 100_000
    assert got == mechanical_letters_at((0, 1, 3), (1, 0, 2), 3, LOWER, range(far, far + 64))


def test_sqrt_morphism_eigenvector_is_psi_of_the_vector():
    # every primitive word of 2 to 5 generators: the fixing morphism's
    # fixed point has psi(l0, l1, rho) = (l0, l1, (rho+l0)/2) of the word's
    # fixed point.  Only the three values are compared: psi of an upper
    # vector with rho = l0+l1 keeps the kind, but the new fixed point is
    # lower
    words = [
        word
        for n in range(2, 6)
        for word in product((G, GT, D, DT), repeat=n)
        if _primitive(word)
    ]
    assert len(words) == 1240
    for word in words:
        v = fixed_point_params(word)
        w = fixed_point_params(sqrt_fixing_morphism(word).genword)
        assert (w.l0, w.l1, w.rho) == (v.l0, v.l1, (v.rho + v.l0) / 2), word
