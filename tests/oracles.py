"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written without the package's own
arithmetic: floors come from raw integer comparisons, sequences from the
defining formulas, squares from naive string scans, square-free parts from
sympy's factorization.  The two exceptions, eigen_by_field_ops and
yasutomi_by_field_ops, hold the package's closed-form eigenvector and its
integer-part Yasutomi test to QuadExt's field operations.  Two facts that
the package computes are stated here, and the tests hold the package to
them: the intercept that a two-generator alphabet forces (dominant_eigen)
and the one-letter right conjugation step (rightmost_conjugate).
"""

import re
from itertools import repeat
from math import isqrt


def int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


def surd_sign(a: int, b: int, m: int) -> int:
    """Sign of a + b*sqrt(m) by integer comparisons only."""
    if b == 0:
        return int_sign(a)
    if a == 0:
        return int_sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    d = a * a - b * b * m
    return int_sign(d) if a > 0 else -int_sign(d)


def surd_floor(a: int, b: int, m: int, c: int) -> int:
    """floor((a + b*sqrt(m))/c) for c > 0 via certified integer search."""
    assert c > 0
    if b == 0:
        return a // c
    r = isqrt(b * b * m)
    k = (a + (r if b > 0 else -(r + 1))) // c
    while surd_sign(a - (k + 1) * c, b, m) >= 0:
        k += 1
    while surd_sign(a - k * c, b, m) < 0:
        k -= 1
    return k


def most_steps_by_search(ua: int, ub: int, va: int, vb: int, m: int, strict: bool) -> int:
    """Largest k with k*v <= u (k*v < u when strict) for u = ua + ub*sqrt(m)
    and v = va + vb*sqrt(m) > 0, by galloping and bisection on sign tests
    of u - k*v only."""
    assert surd_sign(va, vb, m) > 0

    def fits(k):
        return surd_sign(ua - k * va, ub - k * vb, m) >= (1 if strict else 0)

    # fits is true up to the answer and false after it: bracket, then bisect
    lo, hi = (0, 1) if fits(0) else (-1, 0)
    while fits(hi):
        lo, hi = hi, 2 * hi
    while not fits(lo):
        lo, hi = 2 * lo, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def square_free_oracle(n: int) -> tuple[int, int]:
    """(f, m) with n = f*f*m and m square-free for n >= 1, read off the
    prime factorization of n."""
    # imported here: the benchmark's reference checks import this module,
    # and sympy would add about 0.3 s and 30 MB to each run's start
    from sympy import factorint

    f = m = 1
    for p, e in factorint(n).items():
        f *= p ** (e // 2)
        m *= p ** (e % 2)
    return f, m


def mechanical_oracle(alpha, delta, m: int, n: int, kind: str = "lower") -> str:
    """Mechanical sequence from the defining floor/ceiling differences.

    alpha and delta are (a, b, c) integer triples meaning (a + b*sqrt(m))/c;
    each letter recomputes both floors from scratch.
    """
    (a1, b1, c1), (a2, b2, c2) = alpha, delta
    c = c1 * c2
    out = []

    def take(k):
        # alpha*k + delta over the common denominator
        na, nb = a1 * k * c2 + a2 * c1, b1 * k * c2 + b2 * c1
        if kind == "lower":
            return surd_floor(na, nb, m, c)
        return -surd_floor(-na, -nb, m, c)

    prev = take(0)
    for k in range(1, n + 1):
        cur = take(k)
        out.append(str(cur - prev))
        prev = cur
    return "".join(out)


def mechanical_letters_at(alpha, delta, m: int, kind: str, positions) -> str:
    """Letters of the mechanical sequence at the given positions, each the
    difference of two floors (ceilings for the upper kind) of alpha*k +
    delta, recomputed for each letter; (a, b, c) triples as in
    mechanical_oracle."""
    (a1, b1, c1), (a2, b2, c2) = alpha, delta
    c = c1 * c2

    def take(k):
        na, nb = a1 * k * c2 + a2 * c1, b1 * k * c2 + b2 * c1
        if kind == "lower":
            return surd_floor(na, nb, m, c)
        return -surd_floor(-na, -nb, m, c)

    return "".join(str(take(k + 1) - take(k)) for k in positions)


def iet_oracle(l0, l1, rho, m: int, n: int, boundary: str = "lower") -> str:
    """First n letters of the coding of the orbit of rho under the exchange
    of [0,l0) and [l0,l0+l1) (lower), or of (0,l0] and (l0,l0+l1] (upper).

    l0, l1 and rho are (a, b, c) triples meaning (a + b*sqrt(m))/c; one step
    and one sign test per letter on the common-denominator numerators.
    """
    den = l0[2] * l1[2] * rho[2]
    (l0a, l0b), (l1a, l1b), (xa, xb) = (
        (a * (den // c), b * (den // c)) for a, b, c in (l0, l1, rho)
    )
    out = []
    for _ in range(n):
        d = surd_sign(xa - l0a, xb - l0b, m)
        if d < 0 or (boundary == "upper" and d == 0):
            out.append("0")
            xa, xb = xa + l1a, xb + l1b
        else:
            out.append("1")
            xa, xb = xa - l0a, xb - l0b
    return "".join(out)


def eigen_by_field_ops(rows) -> tuple:
    """(eigenvalue, x, y, z, boundary, field) of a primitive member's
    representation rows, by field operations on its dominant eigenvalue
    lam = (p + sqrt(p^2-4))/2, p the block trace: x = b/(b + lam - a) and
    y = 1 - x solve the top block row with x + y = 1, z = (e*x + f*y)/(lam - 1)
    the third; the radicand is read off sympy's factorization of p^2-4."""
    # imported here, as word_stream does
    from sturmrep.exactfield import QuadExt

    (a, b, _), (c, d, _), (e, f, _) = rows
    p = a + d
    r, m = square_free_oracle(p * p - 4)
    lam = QuadExt(p, r, 2, m)
    x = b / (b + lam - a)
    y = 1 - x
    z = (e * x + f * y) / (lam - 1)
    return lam, x, y, z, "upper" if z == 1 else "lower", m


def yasutomi_by_field_ops(alpha, delta) -> tuple[bool, bool, bool]:
    """(same_field, conjugate_in_bounds, slope_conjugate_outside) of
    Yasutomi's condition on two QuadExt values by field operations: the
    conjugates of alpha, 1 - alpha and delta, ordered and compared, and
    that of alpha compared with 0 and 1."""
    same = alpha.m is None or delta.m is None or alpha.m == delta.m
    abar = alpha.conjugate()
    outside = not 0 < abar < 1
    in_bounds = False
    if same:
        dbar = delta.conjugate()
        lo, hi = abar, 1 - abar
        if lo > hi:
            lo, hi = hi, lo
        in_bounds = lo <= dbar <= hi
    return same, in_bounds, outside


def substitute(image0: str, image1: str, w: str) -> str:
    return "".join(image1 if ch == "1" else image0 for ch in w)


def fixed_point_by_iteration(image0: str, image1: str, start: str, n: int) -> str:
    """First n letters of the limit of the iterated images of start.  Each
    iteration must give a longer word that begins with the one before, or
    ValueError is raised: a prefix that stays, shrinks or alternates would
    never reach n letters."""
    s = start
    while len(s) < n:
        t = substitute(image0, image1, s)
        if len(t) <= len(s) or not t.startswith(s):
            raise ValueError(f"the image {t!r} of {s!r} is not a longer word that begins with it")
        s = t
    return s[:n]


def word_stream(w: str):
    """Infinite periodic PrefixStream repeating w, one period per block."""
    # imported here: the oracles above stay loadable without the package,
    # which bench/reference.py relies on
    from sturmrep.words import PrefixStream

    if not w or set(w) - {"0", "1"}:
        raise ValueError("need a nonempty binary word")
    return PrefixStream(repeat(w))


def naive_shortest_square_root(s: str, start: int = 0) -> str:
    """Root of the shortest square prefix of s[start:], by direct scan."""
    length = 1
    while True:
        lo, mid, hi = start, start + length, start + 2 * length
        assert hi <= len(s), "oracle needs a longer prefix"
        if s[lo:mid] == s[mid:hi]:
            return s[lo:mid]
        length += 1


def naive_square_roots(s: str, count: int) -> list[str]:
    roots = []
    pos = 0
    for _ in range(count):
        w = naive_shortest_square_root(s, pos)
        roots.append(w)
        pos += 2 * len(w)
    return roots


def mat_mul_3(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


# The generators restated by token: their 3x3 representation rows and
# their images of 0 and 1.
GENERATOR_ROWS = {
    "G": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    "G'": ((1, 1, 0), (0, 1, 0), (0, 1, 1)),
    "D": ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    "D'": ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
}
GENERATOR_IMAGES = {"G": ("0", "01"), "G'": ("0", "10"), "D": ("10", "1"), "D'": ("01", "1")}


def rep_by_products(tokens) -> tuple:
    """Representation rows of a generator word: the ordered product of the
    generator matrices, one 3x3 product per token."""
    out = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for token in tokens:
        out = mat_mul_3(out, GENERATOR_ROWS[token])
    return out


def compose_by_substitution(tokens) -> tuple[str, str]:
    """Images of 0 and 1 under the morphism a generator word names: the
    rightmost generator acts first, each one by substitution."""
    x, y = "0", "1"
    for token in reversed(tokens):
        image0, image1 = GENERATOR_IMAGES[token]
        x, y = substitute(image0, image1, x), substitute(image0, image1, y)
    return x, y


# The intercept of the fixed point of a word that stays inside one of four
# two-generator alphabets, by token; the tokens are in the order the tests
# draw words from.
RHO_EQ_L0_PLUS_L1 = "rho_eq_l0_plus_l1"
RHO_EQ_L1 = "rho_eq_l1"
RHO_EQ_L0 = "rho_eq_l0"
RHO_EQ_0 = "rho_eq_0"
UNCONSTRAINED = "unconstrained"

CLASS_TABLE = (
    (RHO_EQ_L0_PLUS_L1, ("G'", "D")),
    (RHO_EQ_L1, ("G", "D")),
    (RHO_EQ_L0, ("G'", "D'")),
    (RHO_EQ_0, ("G", "D'")),
)


def intercept_class(tokens) -> tuple[str, ...]:
    """Intercept constraints forced by the two-generator alphabets that the
    tokens stay inside; all applicable constraints are reported (the
    alphabets overlap), and ("unconstrained",) when none applies."""
    alphabet = set(tokens)
    found = tuple(tag for tag, gens in CLASS_TABLE if alphabet <= set(gens))
    return found if found else (UNCONSTRAINED,)


def right_conjugate_step(image0: str, image1: str) -> tuple[str, str] | None:
    """One conjugation step to the right: when both images end with the
    same letter, move it to the front of both; None when the final letters
    differ.  Images that commute are refused, as the steps would not end."""
    if image0 + image1 == image1 + image0:
        raise ValueError(f"cyclic morphism 0->{image0},1->{image1}")
    if image0[-1] != image1[-1]:
        return None
    x = image0[-1]
    return x + image0[:-1], x + image1[:-1]


_GENWORD_RE = re.compile(r"(?:[GD]'?)*")
_TOKEN_RE = re.compile(r"[GD]'?")


def parse_genword_by_regex(text: str) -> tuple:
    """Generator word of the token text by two regexes: one match for the
    longest valid prefix, whose end is the first bad token, then one
    findall for the tokens, each looked up by its value."""
    # imported here: no other oracle needs the package
    from sturmrep.errors import ParseError
    from sturmrep.morphisms import Generator

    s = text.strip()
    end = _GENWORD_RE.match(s).end()
    if end < len(s):
        raise ParseError(f"bad generator token at {s[end:]!r}")
    return tuple(map(Generator, _TOKEN_RE.findall(s)))


_SWAP_TOKENS = {"G": "D'", "G'": "D", "D": "G'", "D'": "G"}


def decompose_by_peeling(rows) -> list[str]:
    """Generator tokens of a member matrix, one generator peeled per pass.

    The reference factorization: while C > 0 and B > 0, peel G' when
    C <= E and D <= F, else G; when A <= C and B <= D, conjugate by the
    letter swap (G <-> D', G' <-> D) and continue in the swapped frame.
    The input must be a member of the monoid.
    """
    (a, b, _), (c, d, _), (e, f, _) = rows
    tokens: list[str] = []
    swapped = False

    def emit(token: str, count: int = 1) -> None:
        tokens.extend([_SWAP_TOKENS[token] if swapped else token] * count)

    while True:
        if c == 0:
            emit("G", b - f)
            emit("G'", f)
            return tokens
        if b == 0:
            emit("D'", c - e)
            emit("D", e)
            return tokens
        if a >= c and b >= d:
            metric = a + c
            if c <= e and d <= f:
                emit("G'")
                a, b, e, f = a - c, b - d, e - c, f - d
            else:
                assert e < a and f < b, "peel guard violated"
                emit("G")
                a, b = a - c, b - d
            assert a + c < metric, "peel did not shrink the first column sum"
        else:
            assert a <= c and b <= d, "block dichotomy violated"
            a, b, c, d, e, f = d, c, b, a, f, e
            swapped = not swapped


def christoffel_by_floors(n: int, ones: int) -> str:
    """Lower Christoffel word of length n with the given number of ones,
    one letter per pair of floors: floor((i+1)*ones/n) - floor(i*ones/n)."""
    return "".join(str((i + 1) * ones // n - i * ones // n) for i in range(n))


def conjugates_by_third_rows(a: int, b: int, c: int, d: int) -> list[tuple[str, str]]:
    """Images of 0 and 1 of every monoid morphism with incidence matrix
    (a b; c d) and determinant 1, by the third-row definition: for each
    third-row sum s = 0, ..., a+b+c+d-2 the one member row is (E, s-E) with
    E = ceil((a*s - b)/(a + b)), and the member is factored by peeling and
    composed by substitution."""
    out = []
    for s in range(a + b + c + d - 1):
        e = -((b - a * s) // (a + b))
        rows = ((a, b, 0), (c, d, 0), (e, s - e, 1))
        out.append(compose_by_substitution(decompose_by_peeling(rows)))
    return out
