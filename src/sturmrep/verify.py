"""Seeded verification suites behind the CLI `verify` subcommand.

One suite per acceptance-style property bundle.  All randomness flows from
a single 64-bit seed through random.Random (Mersenne Twister); sample i
draws from a sub-generator seeded by an LCG mix of (seed, i), so batches
are replayable and shardable.  Identical invocations print identical text.

A suite takes (samples, seed), returns the details of its PASS line and
raises SuiteFailure at the first property that fails; run_suite is the one
place that turns either outcome into a SuiteResult.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Iterator

from .dynamics import (
    dekking_mirror,
    dominant_eigen,
    fixed_point_params,
    fixed_point_stream,
    image_params,
    iterate_fixed_point,
    params_of,
    yasutomi_check,
)
from .exactfield import QuadExt, _Value
from .morphisms import (
    D,
    DT,
    G,
    GT,
    BinaryMorphism,
    GenWord,
    Generator,
    Mat2,
    compose,
    conjugates_of,
    format_genword,
    parse_genword,
    rightmost_conjugate,
)
from .representation import Mat3, check_membership, decompose, rep
from .sqroot import iter_square_roots, sqrt_fixing_morphism, square_root_stream
from .words import (
    LOWER,
    UPPER,
    ParamVector,
    PrefixStream,
    SlopeIntercept,
    iet_code,
    iet_stream,
)

ALL_GENERATORS = (G, GT, D, DT)

# pinned reference data for the DG^2 fixed point and its square root
DG2 = parse_genword("DGG")
DG2_PREFIX_56 = "10101101010110101011010110101011010101101010110101101010"
PINNED_ROOT_LIST = "10,1,01,0110101,10,101,01,10,101,0110101,0110101,10,101,01,10,1"
PINNED_SQRT_58 = "1010101101011010101101010110101011010110101011010101101010"
SQRT_PSI = BinaryMorphism("1010101", "1010101101011010101")

# sizes the suites check at
FAITHFUL_MAX_LEN = 7
ROUNDTRIP_MAX_LEN = 15
MUTATIONS = 200
COMMUTATION_FIELDS = (2, 3, 5, 7, 13)
CONJUGACY_MAX_SUM = 20
LETTERS = 2000
FIXED_POINT_LETTERS = 5000


class SuiteResult(_Value):
    __slots__ = _fields = ("name", "ok", "details")

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.details}"


class SuiteFailure(Exception):
    """The first failing property of a suite; its message is the details
    of the FAIL line."""


def _sub_seed(seed: int, index: int) -> int:
    return (seed * 6364136223846793005 + index * 1442695040888963407) % 2**64


def _samples(seed: int, n: int | None, offset: int = 0) -> Iterator[random.Random]:
    """Generators of samples offset, offset+1, ...: n of them, or without
    end when n is None."""
    indices = itertools.count(offset) if n is None else range(offset, offset + n)
    for i in indices:
        yield random.Random(_sub_seed(seed, i))


def random_genword(
    rng: random.Random,
    alphabet: Iterable[Generator] = ALL_GENERATORS,
    min_len: int = 0,
    max_len: int = 12,
    primitive: bool = False,
) -> GenWord:
    """Uniform letters, uniform length; with primitive=True the word is
    resampled until it contains a G-type and a D-type generator (the sharp
    primitivity test for this monoid)."""
    letters = tuple(alphabet)
    while True:
        n = rng.randint(min_len, max_len)
        word = tuple(rng.choice(letters) for _ in range(n))
        if not primitive:
            return word
        kinds = {g in (G, GT) for g in word}
        if kinds == {True, False}:
            return word


def random_slope(rng: random.Random, m: int) -> QuadExt:
    """Irrational alpha in (0,1) from Q(sqrt(m))."""
    q = rng.randint(1, 9)
    p = rng.randint(-9, 9)
    r = rng.randint(1, 9)
    x = QuadExt(p, q, r, m)
    return x - x.floor()


def random_intercept(rng: random.Random, m: int, kind: str) -> QuadExt:
    if rng.random() < 0.5:
        d = QuadExt(rng.randint(0, 7), 0, 8)
    else:
        x = QuadExt(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), m)
        d = x - x.floor()
    if kind == UPPER and rng.random() < 0.1:
        d = QuadExt(1)
    return d


# -- suites ------------------------------------------------------------------


def suite_relations(samples: int | None, seed: int) -> str:
    """Defining relations hold as morphisms and as matrices for k = 0..5."""
    for k in range(6):
        pairs = (
            ((G,) + (D,) * k + (GT,), (GT,) + (DT,) * k + (G,)),
            ((D,) + (G,) * k + (DT,), (DT,) + (GT,) * k + (D,)),
        )
        for w1, w2 in pairs:
            if compose(w1) != compose(w2) or rep(w1) != rep(w2):
                raise SuiteFailure(f"relation broken at k={k}")
    return "both families, k=0..5, words and matrices"


def suite_faithfulness(samples: int | None, seed: int) -> str:
    """Words of length <= FAITHFUL_MAX_LEN grouped by matrix are exactly the
    groups by morphism."""
    by_matrix: dict[Mat3, BinaryMorphism] = {}
    by_morphism: dict[BinaryMorphism, Mat3] = {}
    count = 0
    for n in range(FAITHFUL_MAX_LEN + 1):
        for word in itertools.product(ALL_GENERATORS, repeat=n):
            matrix, morphism = rep(word), compose(word)
            count += 1
            if by_matrix.setdefault(matrix, morphism) != morphism:
                raise SuiteFailure(f"one matrix, two morphisms: {matrix}")
            if by_morphism.setdefault(morphism, matrix) != matrix:
                raise SuiteFailure(f"one morphism, two matrices: {morphism}")
    ok = len(by_matrix) == len(by_morphism)
    details = (
        f"{count} words of length <= {FAITHFUL_MAX_LEN}, {len(by_matrix)} classes, "
        f"matrix<->morphism bijective: {ok}"
    )
    if not ok:
        raise SuiteFailure(details)
    return details


def _first_violation(rows) -> str | None:
    # independent restatement of the documented membership check order
    (a, b, z1), (c, d, z2), (e, f, z3) = rows
    if (z1, z2, z3) != (0, 0, 1):
        return "third column != (0,0,1)"
    if min(a, b, c, d, e, f) < 0:
        return "entries >= 0"
    if a * d - b * c != 1:
        return "AD-BC=1"
    if not e < a + c:
        return "E<A+C"
    if not f < b + d:
        return "F<B+D"
    if not -c <= c * f - d * e:
        return "-C<=CF-DE"
    if not c * f - d * e < d:
        return "CF-DE<D"
    return None


_MUTATION_TARGETS = frozenset({"AD-BC=1", "E<A+C", "F<B+D", "-C<=CF-DE", "CF-DE<D"})


def suite_roundtrip(samples: int | None, seed: int) -> str:
    """Membership and factorization round trip on random words, plus
    rejection certificates on mutated matrices."""
    n = samples if samples is not None else 1000
    for rng in _samples(seed, n):
        matrix = rep(random_genword(rng, max_len=ROUNDTRIP_MAX_LEN))
        if not check_membership(matrix):
            raise SuiteFailure(f"member rejected: {matrix}")
        if rep(decompose(matrix)) != matrix:
            raise SuiteFailure(f"round trip failed: {matrix}")
    made = 0
    for rng in _samples(seed, None, 10_000_000):
        if made == MUTATIONS:
            break
        rows = [list(r) for r in rep(random_genword(rng, max_len=10)).rows]
        i, j = rng.choice(((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)))
        rows[i][j] += rng.choice((-3, -2, -1, 1, 2, 3))
        expected = _first_violation(tuple(tuple(r) for r in rows))
        if expected not in _MUTATION_TARGETS:
            continue
        made += 1
        verdict = check_membership(Mat3(tuple(tuple(r) for r in rows)))
        if verdict.ok or verdict.certificate != expected:
            raise SuiteFailure(
                f"mutation certificate mismatch: got {verdict.certificate}, "
                f"expected {expected}"
            )
    return f"{n} round trips, {MUTATIONS} mutations rejected"


def suite_commutation(samples: int | None, seed: int) -> str:
    """Applying a morphism to a sequence matches coding the image
    parameters, letter for letter."""
    n = samples if samples is not None else 200
    for rng in _samples(seed, n):
        m = rng.choice(COMMUTATION_FIELDS)
        kind = rng.choice((LOWER, UPPER))
        si = SlopeIntercept(random_slope(rng, m), random_intercept(rng, m, kind), kind)
        v = params_of(si)
        word = random_genword(rng, max_len=10)
        symbolic = compose(word).apply(iet_stream(v)).prefix(LETTERS)
        geometric = iet_code(image_params(word, v), LETTERS)
        if symbolic != geometric:
            raise SuiteFailure(
                f"mismatch for {format_genword(word) or 'identity'} over sqrt({m})"
            )
    return f"{n} pairs over fields {COMMUTATION_FIELDS}, {LETTERS} letters"


def suite_fixed_points(samples: int | None, seed: int) -> str:
    """Known 56-letter prefix of the DG^2 fixed point via both routes, then
    fixed-point invariance and iteration agreement on random primitive words."""
    v = fixed_point_params(DG2)
    geometric = iet_code(v, 56)
    iterated = iterate_fixed_point(compose(DG2), geometric[0], 56)
    if geometric != DG2_PREFIX_56 or iterated != DG2_PREFIX_56:
        raise SuiteFailure("DG^2 pinned prefix mismatch")
    n = samples if samples is not None else 100
    for rng in _samples(seed, n):
        word = random_genword(rng, min_len=1, max_len=10, primitive=True)
        phi = compose(word)
        stream = fixed_point_stream(word)
        want = stream.prefix(FIXED_POINT_LETTERS)
        if phi.apply(stream).prefix(FIXED_POINT_LETTERS) != want:
            raise SuiteFailure(f"not invariant: {format_genword(word)}")
        if iterate_fixed_point(phi, want[0], FIXED_POINT_LETTERS) != want:
            raise SuiteFailure(f"iteration disagrees: {format_genword(word)}")
    return f"pinned prefix + {n} random primitive words, {FIXED_POINT_LETTERS} letters"


def suite_conjugacy(samples: int | None, seed: int) -> str:
    """Every unimodular non-negative 2x2 matrix with entry sum <=
    CONJUGACY_MAX_SUM has entry-sum-minus-one conjugates sharing one
    rightmost conjugate."""
    top = CONJUGACY_MAX_SUM
    checked = 0
    for a in range(0, top + 1):
        for b in range(0, top + 1 - a):
            for c in range(0, top + 1 - a - b):
                for d in range(0, top + 1 - a - b - c):
                    if a * d - b * c != 1:
                        continue
                    matrix = Mat2(a, b, c, d)
                    expected = a + b + c + d - 1
                    family = conjugates_of(matrix)
                    if len(family) != expected or len(set(family)) != expected:
                        raise SuiteFailure(f"wrong count for {matrix}")
                    if any(phi.incidence() != matrix for phi in family):
                        raise SuiteFailure(f"incidence drift for {matrix}")
                    if len({rightmost_conjugate(phi) for phi in family}) != 1:
                        raise SuiteFailure(f"no common rightmost for {matrix}")
                    checked += 1
    return f"{checked} matrices with entry sum <= {top}"


def suite_sqrt_example(samples: int | None, seed: int) -> str:
    """Pinned square-root example: root sequence, 58-letter prefix, fixing
    morphism.  The pinned strings are derived from the oracles alone in
    tests/test_sqroot.py."""
    stream = fixed_point_stream(DG2)
    it = iter_square_roots(stream)
    roots = [next(it) for _ in range(16)]
    roots_ok = ",".join(roots) == PINNED_ROOT_LIST
    sqrt58 = square_root_stream(stream).prefix(58)
    prefix_ok = sqrt58 == PINNED_SQRT_58
    result = sqrt_fixing_morphism(DG2)
    psi_ok = result.power == 2 and result.morphism == SQRT_PSI
    details = (
        f"root list {'ok' if roots_ok else 'MISMATCH (got ' + ','.join(roots) + ')'}; "
        f"58-prefix {'ok' if prefix_ok else 'MISMATCH (got ' + sqrt58 + ')'}; "
        f"psi/k {'ok' if psi_ok else 'MISMATCH'}"
    )
    if not (roots_ok and prefix_ok and psi_ok):
        raise SuiteFailure(details)
    return details


def suite_sqrt_theorem(samples: int | None, seed: int) -> str:
    """Square-root morphisms of random characteristic-fixing words are
    palindromic, odd, conjugate to the k-th power, and fix the root stream;
    the root map gives the root stream that the square scan does."""
    n = samples if samples is not None else 50
    for rng in _samples(seed, n):
        word = random_genword(rng, alphabet=(G, D), min_len=2, max_len=8, primitive=True)
        text = format_genword(word)
        a, b, c, d, e, f = rep(word).named()
        if e != c or f != d - 1:
            raise SuiteFailure(f"not characteristic: {text}")
        result = sqrt_fixing_morphism(word)
        psi = result.morphism
        im0, im1 = psi.image0, psi.image1
        if im0 != im0[::-1] or im1 != im1[::-1] or len(im0) % 2 == 0 or len(im1) % 2 == 0:
            raise SuiteFailure(f"images not odd palindromes: {text}")
        if not 1 <= result.power <= 3:
            raise SuiteFailure("power out of range")
        power = compose(word) ** result.power
        if psi.incidence() != power.incidence() or rightmost_conjugate(
            psi
        ) != rightmost_conjugate(power):
            raise SuiteFailure(f"not conjugate to power: {text}")
        root_stream = square_root_stream(fixed_point_stream(word))
        want = root_stream.prefix(LETTERS)
        scan = PrefixStream(iter_square_roots(fixed_point_stream(word)))
        if scan.prefix(LETTERS) != want:
            raise SuiteFailure(f"root map differs from the scan: {text}")
        if psi.apply(root_stream).prefix(LETTERS) != want:
            raise SuiteFailure(f"root stream not fixed: {text}")
    return f"{n} words over {{G,D}}, {LETTERS} letters"


def suite_yasutomi(samples: int | None, seed: int) -> str:
    """Eigen-parameters of random primitive words satisfy the quadratic-field
    and conjugate-bound conditions."""
    n = samples if samples is not None else 200
    for rng in _samples(seed, n):
        word = random_genword(rng, min_len=1, max_len=10, primitive=True)
        report = yasutomi_check(dominant_eigen(word))
        if not report.ok:
            raise SuiteFailure(f"{format_genword(word)}: {report}")
    return f"{n} random primitive words"


def suite_dekking(samples: int | None, seed: int) -> str:
    """Paired fixed points: words over {G',D'} fix both orientations of
    their sequence; mirrors of words over {G,D'} fix the upper zero-intercept
    sequence."""
    n = samples if samples is not None else 50
    for rng in _samples(seed, n):
        word = random_genword(rng, alphabet=(GT, DT), min_len=2, max_len=8, primitive=True)
        phi = compose(word)
        v = dominant_eigen(word).vector
        if v.rho != v.l0:
            raise SuiteFailure(f"rho != l0 over {{G',D'}}: {format_genword(word)}")
        for boundary in (LOWER, UPPER):
            stream = iet_stream(ParamVector(v.l0, v.l1, v.rho, boundary))
            if phi.apply(stream).prefix(LETTERS) != stream.prefix(LETTERS):
                raise SuiteFailure(
                    f"{boundary} orientation not fixed: {format_genword(word)}"
                )
    for rng in _samples(seed, n, 20_000_000):
        word = random_genword(rng, alphabet=(G, DT), min_len=2, max_len=8, primitive=True)
        eta = compose(dekking_mirror(word))
        v = dominant_eigen(word).vector
        if v.rho != 0:
            raise SuiteFailure(f"rho != 0 over {{G,D'}}: {format_genword(word)}")
        upper = iet_stream(ParamVector(v.l0, v.l1, QuadExt(1), UPPER))
        if eta.apply(upper).prefix(LETTERS) != upper.prefix(LETTERS):
            raise SuiteFailure(f"mirror does not fix upper: {format_genword(word)}")
    return f"2x{n} words, {LETTERS} letters"


SUITES: dict[str, Callable[[int | None, int], str]] = {
    "relations": suite_relations,
    "faithfulness": suite_faithfulness,
    "roundtrip": suite_roundtrip,
    "commutation": suite_commutation,
    "fixed-points": suite_fixed_points,
    "conjugacy": suite_conjugacy,
    "sqrt-example": suite_sqrt_example,
    "sqrt-theorem": suite_sqrt_theorem,
    "yasutomi": suite_yasutomi,
    "dekking": suite_dekking,
}


def run_suite(name: str, samples: int | None, seed: int) -> SuiteResult:
    try:
        return SuiteResult(name, True, SUITES[name](samples, seed))
    except SuiteFailure as failure:
        return SuiteResult(name, False, str(failure))
