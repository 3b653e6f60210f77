"""Reference checks for benchmark results, independent of the code under test.

Everything here works on plain integers, strings and tuples.  It restates the
generator definitions and the documented membership check order, and it
borrows the brute-force oracles of ``tests/oracles.py``.  Nothing in this
module imports ``sturmrep``, so a change under ``src/`` cannot make a wrong
result look right.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import (  # noqa: E402  (path set up above)
    fixed_point_by_iteration,
    mat_mul_3,
    mechanical_oracle,
    naive_square_roots,
    substitute,
    surd_floor,
    surd_sign,
)

# The four generators: images of 0 and 1, and their 3x3 representation.
IMAGES = {
    "G": ("0", "01"),
    "G'": ("0", "10"),
    "D": ("10", "1"),
    "D'": ("01", "1"),
}
MATRICES = {
    "G": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    "G'": ((1, 1, 0), (0, 1, 0), (0, 1, 1)),
    "D": ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    "D'": ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
}
IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
G_TYPE = frozenset({"G", "G'"})


def is_primitive(tokens) -> bool:
    """A word is primitive exactly when it holds a G-type and a D-type."""
    kinds = {t in G_TYPE for t in tokens}
    return kinds == {True, False}


def word_images(tokens) -> tuple[str, str]:
    """Images of 0 and 1 under the word; the leftmost generator acts last."""
    i0, i1 = "0", "1"
    for t in reversed(tokens):
        g0, g1 = IMAGES[t]
        i0, i1 = substitute(g0, g1, i0), substitute(g0, g1, i1)
    return i0, i1


def word_matrix(tokens):
    out = IDENTITY3
    for t in tokens:
        out = mat_mul_3(out, MATRICES[t])
    return out


def gen_power(token: str, k: int):
    """Closed form of the k-th power of a generator matrix."""
    if token == "G":
        return ((1, k, 0), (0, 1, 0), (0, 0, 1))
    if token == "G'":
        return ((1, k, 0), (0, 1, 0), (0, k, 1))
    if token == "D":
        return ((1, 0, 0), (k, 1, 0), (k, 0, 1))
    if token == "D'":
        return ((1, 0, 0), (k, 1, 0), (0, 0, 1))
    raise ValueError(f"unknown generator {token!r}")


def runs(tokens) -> list[tuple[str, int]]:
    return [(t, len(list(grp))) for t, grp in itertools.groupby(tokens)]


def runs_matrix(run_list):
    out = IDENTITY3
    for t, k in run_list:
        out = mat_mul_3(out, gen_power(t, k))
    return out


def block_trace(tokens) -> int:
    """Trace of the incidence block, from 2x2 products only."""
    a, b, c, d = 1, 0, 0, 1
    for t in tokens:
        if t in G_TYPE:  # right-multiply by [[1,1],[0,1]]
            b, d = a + b, c + d
        else:  # right-multiply by [[1,0],[1,1]]
            a, c = a + b, c + d
    return a + d


def first_violation(rows) -> str | None:
    """The documented membership check order, restated: shape, signs,
    determinant, E<A+C, F<B+D, -C<=CF-DE, CF-DE<D."""
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
    t = c * f - d * e
    if not -c <= t:
        return "-C<=CF-DE"
    if not t < d:
        return "CF-DE<D"
    return None


def mechanical_letters_at(alpha, delta, m: int, kind: str, positions) -> str:
    """Letters s(k) of the mechanical sequence at the given positions, each
    from two floors (ceilings for the upper kind) computed from scratch.
    alpha and delta are (a, b, c) triples meaning (a + b*sqrt(m))/c."""
    (a1, b1, c1), (a2, b2, c2) = alpha, delta
    c = c1 * c2

    def take(k):
        na, nb = a1 * k * c2 + a2 * c1, b1 * k * c2 + b2 * c1
        if kind == "lower":
            return surd_floor(na, nb, m, c)
        return -surd_floor(-na, -nb, m, c)

    return "".join(str(take(k + 1) - take(k)) for k in positions)


def mechanical_ok(word: str, alpha, delta, m: int, kind: str, prefix: int, sample) -> bool:
    """Prefix against mechanical_oracle, then sampled later positions."""
    head = min(prefix, len(word))
    if word[:head] != mechanical_oracle(alpha, delta, m, head, kind):
        return False
    positions = sorted(p for p in sample if p < len(word))
    got = "".join(word[p] for p in positions)
    return got == mechanical_letters_at(alpha, delta, m, kind, positions)


# -- exact arithmetic in Q(sqrt(m)) on Fraction pairs --------------------------


def surd(a: int, b: int, c: int) -> tuple[Fraction, Fraction]:
    return Fraction(a, c), Fraction(b, c)


def surd_mul(x, y, m: int):
    return x[0] * y[0] + x[1] * y[1] * m, x[0] * y[1] + x[1] * y[0]


def surd_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def surd_pair_sign(x, m: int) -> int:
    den = x[0].denominator * x[1].denominator
    return surd_sign(int(x[0] * den), int(x[1] * den), m)


def eigen_ok(tokens, lam, vector, m: int, in_bounds: bool) -> bool:
    """lam = (a + b*sqrt(m))/c is the larger root of X^2 - pX + 1 for the
    block trace p; the vector (l0, l1, rho) of (a, b, c) triples satisfies
    M v = lam v with l0 + l1 = 1, l0, l1 > 0 and 0 <= rho <= 1; in_bounds is
    the Galois-conjugate bound of the intercept between slope and co-slope."""
    a, b, c = lam
    p = block_trace(tokens)
    if m < 2 or b <= 0 or c <= 0:
        return False
    # (a + b r)^2 - p c (a + b r) + c^2 = 0 with r = sqrt(m), split by parts
    if a * a + b * b * m - p * a * c + c * c != 0 or 2 * a - p * c != 0:
        return False
    lam_s = surd(*lam)
    v = [surd(*t) for t in vector]
    rows = word_matrix(tokens)
    zero = (Fraction(0), Fraction(0))
    for row, vi in zip(rows, v):
        mv = zero
        for coef, vj in zip(row, v):
            mv = surd_add(mv, (coef * vj[0], coef * vj[1]))
        if mv != surd_mul(lam_s, vi, m):
            return False
    l0, l1, rho = v
    one = (Fraction(1), Fraction(0))
    if surd_add(l0, l1) != one:
        return False
    if surd_pair_sign(l0, m) <= 0 or surd_pair_sign(l1, m) <= 0:
        return False
    if surd_pair_sign(rho, m) < 0 or surd_pair_sign((rho[0] - 1, rho[1]), m) > 0:
        return False
    # conjugates: min(a', 1-a') <= d' <= max(a', 1-a') with a' = conj(l1)
    abar = (l1[0], -l1[1])
    cobar = (1 - abar[0], -abar[1])
    dbar = (rho[0], -rho[1])
    lo, hi = abar, cobar
    if surd_pair_sign((lo[0] - hi[0], lo[1] - hi[1]), m) > 0:
        lo, hi = hi, lo
    bounded = (
        surd_pair_sign((dbar[0] - lo[0], dbar[1] - lo[1]), m) >= 0
        and surd_pair_sign((hi[0] - dbar[0], hi[1] - dbar[1]), m) >= 0
    )
    return bounded == in_bounds and bounded


def incidence(image0: str, image1: str) -> tuple[int, int, int, int]:
    return image0.count("0"), image1.count("0"), image0.count("1"), image1.count("1")


def conjugates_ok(block, images) -> bool:
    """A + B + C + D - 1 morphisms, pairwise distinct, all with the given
    incidence matrix."""
    a, b, c, d = block
    return (
        len(images) == a + b + c + d - 1
        and len(set(images)) == len(images)
        and all(incidence(i0, i1) == block for i0, i1 in images)
    )


def mat2_power(block, k: int):
    a, b, c, d = 1, 0, 0, 1
    for _ in range(k):
        a, b, c, d = (
            a * block[0] + b * block[2],
            a * block[1] + b * block[3],
            c * block[0] + d * block[2],
            c * block[1] + d * block[3],
        )
    return a, b, c, d


def sqrt_morphism_ok(tokens, images, power: int, genword) -> bool:
    """psi has odd palindromic images, the incidence of the power-th power
    of the word, and is the morphism its own generator word names."""
    i0, i1 = images
    if not 1 <= power <= 3:
        return False
    if i0 != i0[::-1] or i1 != i1[::-1] or len(i0) % 2 == 0 or len(i1) % 2 == 0:
        return False
    rows = word_matrix(tokens)
    block = (rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    if incidence(i0, i1) != mat2_power(block, power):
        return False
    return word_images(genword) == (i0, i1)


def fixed_point_ok(tokens, prefix: str) -> bool:
    """prefix is a prefix of a fixed point of the word's morphism: its first
    letter starts its own image, and iteration from it reproduces it."""
    if not prefix:
        return False
    i0, i1 = word_images(tokens)
    x = prefix[0]
    img = i0 if x == "0" else i1
    if not img.startswith(x) or len(img) < 2:
        return False
    return fixed_point_by_iteration(i0, i1, x, len(prefix)) == prefix


def greedy_roots(text: str, letters: int) -> list[str]:
    """Greedy shortest-square roots of text until they hold at least
    `letters` letters; text must be long enough."""
    roots: list[str] = []
    total = 0
    pos = 0
    while total < letters:
        (root,) = naive_square_roots(text[pos:], 1)
        roots.append(root)
        total += len(root)
        pos += 2 * len(root)
    return roots


def fixed_point_roots(tokens, first: str, letters: int) -> list[str] | None:
    """Greedy square roots of the word's fixed point that begins with
    `first`, until they hold at least `letters` letters; None when no
    expanding fixed point begins with that letter."""
    i0, i1 = word_images(tokens)
    img = i0 if first == "0" else i1
    if not img.startswith(first) or len(img) < 2:
        return None
    length = 4 * letters + 64
    while True:
        text = fixed_point_by_iteration(i0, i1, first, length)
        try:
            return greedy_roots(text, letters)
        except AssertionError:  # the oracle ran off the end of text
            length *= 2


def square_roots_ok(tokens, first: str, root_prefix: str) -> bool:
    """root_prefix starts the square-root stream of the fixed point of the
    word that begins with `first`."""
    roots = fixed_point_roots(tokens, first, len(root_prefix))
    return roots is not None and "".join(roots)[: len(root_prefix)] == root_prefix
