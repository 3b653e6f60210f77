"""Seeded verification suites behind the CLI `verify` subcommand.

One suite per acceptance-style property bundle.  All randomness flows from
a single 64-bit seed through random.Random (Mersenne Twister); sample i
draws from a sub-generator seeded by an LCG mix of (seed, i), so batches
are replayable and shardable.  Identical invocations print identical text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

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
from .exactfield import QuadExt
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


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    details: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.details}"


def _sub_seed(seed: int, index: int) -> int:
    return (seed * 6364136223846793005 + index * 1442695040888963407) % 2**64


def _sample_rng(seed: int, index: int) -> random.Random:
    return random.Random(_sub_seed(seed, index))


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


def suite_relations(samples: int | None, seed: int) -> SuiteResult:
    """Defining relations hold as morphisms and as matrices for k = 0..5."""
    for k in range(6):
        pairs = (
            ((G,) + (D,) * k + (GT,), (GT,) + (DT,) * k + (G,)),
            ((D,) + (G,) * k + (DT,), (DT,) + (GT,) * k + (D,)),
        )
        for w1, w2 in pairs:
            if compose(w1) != compose(w2) or rep(w1) != rep(w2):
                return SuiteResult(
                    "relations", False, f"relation broken at k={k}"
                )
    return SuiteResult("relations", True, "both families, k=0..5, words and matrices")


def suite_faithfulness(samples: int | None, seed: int, max_len: int = 7) -> SuiteResult:
    """Words of length <= max_len grouped by matrix are exactly the groups
    by morphism."""
    by_matrix: dict[Mat3, BinaryMorphism] = {}
    by_morphism: dict[BinaryMorphism, Mat3] = {}
    count = 0
    stack = [(Mat3.identity(), BinaryMorphism("0", "1"), 0)]
    while stack:
        matrix, morphism, depth = stack.pop()
        count += 1
        seen = by_matrix.get(matrix)
        if seen is None:
            by_matrix[matrix] = morphism
        elif seen != morphism:
            return SuiteResult(
                "faithfulness", False, f"one matrix, two morphisms: {matrix}"
            )
        back = by_morphism.get(morphism)
        if back is None:
            by_morphism[morphism] = matrix
        elif back != matrix:
            return SuiteResult(
                "faithfulness", False, f"one morphism, two matrices: {morphism}"
            )
        if depth < max_len:
            for g in ALL_GENERATORS:
                stack.append(
                    (matrix * rep((g,)), morphism * compose((g,)), depth + 1)
                )
    ok = len(by_matrix) == len(by_morphism)
    return SuiteResult(
        "faithfulness",
        ok,
        f"{count} words of length <= {max_len}, {len(by_matrix)} classes, "
        f"matrix<->morphism bijective: {ok}",
    )


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


def suite_roundtrip(
    samples: int | None, seed: int, mutations: int = 200, max_len: int = 15
) -> SuiteResult:
    """Membership and factorization round trip on random words, plus
    rejection certificates on mutated matrices."""
    n = samples if samples is not None else 1000
    for i in range(n):
        rng = _sample_rng(seed, i)
        word = random_genword(rng, max_len=max_len)
        matrix = rep(word)
        if not check_membership(matrix):
            return SuiteResult("roundtrip", False, f"member rejected: {matrix}")
        if rep(decompose(matrix)) != matrix:
            return SuiteResult("roundtrip", False, f"round trip failed: {matrix}")
    made = 0
    attempt = 0
    while made < mutations:
        rng = _sample_rng(seed, 10_000_000 + attempt)
        attempt += 1
        word = random_genword(rng, max_len=10)
        rows = [list(r) for r in rep(word).rows]
        i, j = rng.choice(((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)))
        rows[i][j] += rng.choice((-3, -2, -1, 1, 2, 3))
        expected = _first_violation(tuple(tuple(r) for r in rows))
        if expected not in _MUTATION_TARGETS:
            continue
        made += 1
        verdict = check_membership(Mat3(tuple(tuple(r) for r in rows)))
        if verdict.ok or verdict.certificate != expected:
            return SuiteResult(
                "roundtrip",
                False,
                f"mutation certificate mismatch: got {verdict.certificate}, "
                f"expected {expected}",
            )
    return SuiteResult(
        "roundtrip", True, f"{n} round trips, {mutations} mutations rejected"
    )


COMMUTATION_FIELDS = (2, 3, 5, 7, 13)


def suite_commutation(
    samples: int | None, seed: int, letters: int = 2000
) -> SuiteResult:
    """Applying a morphism to a sequence matches coding the image
    parameters, letter for letter."""
    n = samples if samples is not None else 200
    for i in range(n):
        rng = _sample_rng(seed, i)
        m = rng.choice(COMMUTATION_FIELDS)
        kind = rng.choice((LOWER, UPPER))
        si = SlopeIntercept(random_slope(rng, m), random_intercept(rng, m, kind), kind)
        v = params_of(si)
        word = random_genword(rng, max_len=10)
        symbolic = compose(word).apply(iet_stream(v)).prefix(letters)
        geometric = iet_code(image_params(word, v), letters)
        if symbolic != geometric:
            return SuiteResult(
                "commutation",
                False,
                f"mismatch for {format_genword(word) or 'identity'} over sqrt({m})",
            )
    return SuiteResult(
        "commutation", True, f"{n} pairs over fields {COMMUTATION_FIELDS}, {letters} letters"
    )


def suite_fixed_points(
    samples: int | None, seed: int, letters: int = 5000
) -> SuiteResult:
    """Known 56-letter prefix of the DG^2 fixed point via both routes, then
    fixed-point invariance and iteration agreement on random primitive words."""
    v = fixed_point_params(DG2)
    geometric = iet_code(v, 56)
    iterated = iterate_fixed_point(compose(DG2), geometric[0], 56)
    if geometric != DG2_PREFIX_56 or iterated != DG2_PREFIX_56:
        return SuiteResult("fixed-points", False, "DG^2 pinned prefix mismatch")
    n = samples if samples is not None else 100
    for i in range(n):
        rng = _sample_rng(seed, i)
        word = random_genword(rng, min_len=1, max_len=10, primitive=True)
        phi = compose(word)
        stream = fixed_point_stream(word)
        want = stream.prefix(letters)
        if phi.apply(stream).prefix(letters) != want:
            return SuiteResult(
                "fixed-points", False, f"not invariant: {format_genword(word)}"
            )
        if iterate_fixed_point(phi, want[0], letters) != want:
            return SuiteResult(
                "fixed-points", False, f"iteration disagrees: {format_genword(word)}"
            )
    return SuiteResult(
        "fixed-points", True, f"pinned prefix + {n} random primitive words, {letters} letters"
    )


def suite_conjugacy(samples: int | None, seed: int, max_sum: int = 20) -> SuiteResult:
    """Every unimodular non-negative 2x2 matrix with entry sum <= max_sum
    has entry-sum-minus-one conjugates sharing one rightmost conjugate."""
    checked = 0
    for a in range(0, max_sum + 1):
        for b in range(0, max_sum + 1 - a):
            for c in range(0, max_sum + 1 - a - b):
                for d in range(0, max_sum + 1 - a - b - c):
                    if a * d - b * c != 1:
                        continue
                    matrix = Mat2(a, b, c, d)
                    expected = a + b + c + d - 1
                    family = conjugates_of(matrix)
                    if len(family) != expected or len(set(family)) != expected:
                        return SuiteResult(
                            "conjugacy", False, f"wrong count for {matrix}"
                        )
                    if any(phi.incidence() != matrix for phi in family):
                        return SuiteResult(
                            "conjugacy", False, f"incidence drift for {matrix}"
                        )
                    if len({rightmost_conjugate(phi) for phi in family}) != 1:
                        return SuiteResult(
                            "conjugacy", False, f"no common rightmost for {matrix}"
                        )
                    checked += 1
    return SuiteResult(
        "conjugacy", True, f"{checked} matrices with entry sum <= {max_sum}"
    )


def suite_sqrt_example(samples: int | None, seed: int) -> SuiteResult:
    """Pinned square-root example: root sequence, 58-letter prefix, fixing
    morphism.  The pinned strings are derived from the oracles alone in
    tests/test_sqroot.py."""
    stream = fixed_point_stream(DG2)
    it = iter_square_roots(stream)
    roots = [next(it) for _ in range(16)]
    roots_ok = ",".join(roots) == PINNED_ROOT_LIST
    sqrt58 = square_root_stream(stream.restart()).prefix(58)
    prefix_ok = sqrt58 == PINNED_SQRT_58
    result = sqrt_fixing_morphism(DG2)
    psi_ok = result.power == 2 and result.morphism == SQRT_PSI
    details = (
        f"root list {'ok' if roots_ok else 'MISMATCH (got ' + ','.join(roots) + ')'}; "
        f"58-prefix {'ok' if prefix_ok else 'MISMATCH (got ' + sqrt58 + ')'}; "
        f"psi/k {'ok' if psi_ok else 'MISMATCH'}"
    )
    return SuiteResult("sqrt-example", roots_ok and prefix_ok and psi_ok, details)


def suite_sqrt_theorem(
    samples: int | None, seed: int, letters: int = 2000
) -> SuiteResult:
    """Square-root morphisms of random characteristic-fixing words are
    palindromic, odd, conjugate to the k-th power, and fix the root stream."""
    n = samples if samples is not None else 50
    for i in range(n):
        rng = _sample_rng(seed, i)
        word = random_genword(rng, alphabet=(G, D), min_len=2, max_len=8, primitive=True)
        matrix = rep(word)
        a, b, c, d, e, f = matrix.named()
        if e != c or f != d - 1:
            return SuiteResult(
                "sqrt-theorem", False, f"not characteristic: {format_genword(word)}"
            )
        result = sqrt_fixing_morphism(word)
        psi = result.morphism
        im0, im1 = psi.image0, psi.image1
        if im0 != im0[::-1] or im1 != im1[::-1] or len(im0) % 2 == 0 or len(im1) % 2 == 0:
            return SuiteResult(
                "sqrt-theorem", False, f"images not odd palindromes: {format_genword(word)}"
            )
        if not 1 <= result.power <= 3:
            return SuiteResult("sqrt-theorem", False, "power out of range")
        power = compose(word) ** result.power
        if psi.incidence() != power.incidence() or rightmost_conjugate(
            psi
        ) != rightmost_conjugate(power):
            return SuiteResult(
                "sqrt-theorem", False, f"not conjugate to power: {format_genword(word)}"
            )
        root_stream = square_root_stream(fixed_point_stream(word))
        want = root_stream.prefix(letters)
        if psi.apply(root_stream).prefix(letters) != want:
            return SuiteResult(
                "sqrt-theorem", False, f"root stream not fixed: {format_genword(word)}"
            )
    return SuiteResult("sqrt-theorem", True, f"{n} words over {{G,D}}, {letters} letters")


def suite_yasutomi(samples: int | None, seed: int) -> SuiteResult:
    """Eigen-parameters of random primitive words satisfy the quadratic-field
    and conjugate-bound conditions."""
    n = samples if samples is not None else 200
    for i in range(n):
        rng = _sample_rng(seed, i)
        word = random_genword(rng, min_len=1, max_len=10, primitive=True)
        report = yasutomi_check(dominant_eigen(word))
        if not report.ok:
            return SuiteResult(
                "yasutomi", False, f"{format_genword(word)}: {report.as_text()}"
            )
    return SuiteResult("yasutomi", True, f"{n} random primitive words")


def suite_dekking(samples: int | None, seed: int, letters: int = 2000) -> SuiteResult:
    """Paired fixed points: words over {G',D'} fix both orientations of
    their sequence; mirrors of words over {G,D'} fix the upper zero-intercept
    sequence."""
    n = samples if samples is not None else 50
    for i in range(n):
        rng = _sample_rng(seed, i)
        word = random_genword(rng, alphabet=(GT, DT), min_len=2, max_len=8, primitive=True)
        phi = compose(word)
        eigen = dominant_eigen(word)
        v = eigen.vector
        if v.rho != v.l0:
            return SuiteResult(
                "dekking", False, f"rho != l0 over {{G',D'}}: {format_genword(word)}"
            )
        for boundary in (LOWER, UPPER):
            stream = iet_stream(ParamVector(v.l0, v.l1, v.rho, boundary))
            if phi.apply(stream).prefix(letters) != stream.prefix(letters):
                return SuiteResult(
                    "dekking",
                    False,
                    f"{boundary} orientation not fixed: {format_genword(word)}",
                )
    for i in range(n):
        rng = _sample_rng(seed, 20_000_000 + i)
        word = random_genword(rng, alphabet=(G, DT), min_len=2, max_len=8, primitive=True)
        eta = compose(dekking_mirror(word))
        v = dominant_eigen(word).vector
        if v.rho != 0:
            return SuiteResult(
                "dekking", False, f"rho != 0 over {{G,D'}}: {format_genword(word)}"
            )
        upper = iet_stream(ParamVector(v.l0, v.l1, QuadExt(1), UPPER))
        if eta.apply(upper).prefix(letters) != upper.prefix(letters):
            return SuiteResult(
                "dekking", False, f"mirror does not fix upper: {format_genword(word)}"
            )
    return SuiteResult("dekking", True, f"2x{n} words, {letters} letters")


SUITES: dict[str, Callable[[int | None, int], SuiteResult]] = {
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


def run_suites(
    names: Iterable[str], samples: int | None, seed: int
) -> list[SuiteResult]:
    return [SUITES[name](samples, seed) for name in names]
