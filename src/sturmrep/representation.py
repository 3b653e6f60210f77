"""Faithful 3x3 integer-matrix representation of the special Sturmian monoid.

A represented morphism has the block shape

    ( A B 0 )
    ( C D 0 )      with  AD - BC = 1  and non-negative entries,
    ( E F 1 )

the top-left block being its incidence matrix.  Membership in the image
monoid is decided by two inequality pairs, and members factor back into
generator words by Euclid's algorithm on the block rows.
"""

from __future__ import annotations

from .errors import DomainError, MembershipError
from .exactfield import _Value
from .morphisms import D, DT, G, GT, GenWord, Generator, RunWord, parse_int_rows, power

Rows = tuple[tuple[int, int, int], ...]


class Mat3(_Value):
    """3x3 integer matrix as immutable rows.

    Mat3(rows) and Mat3.parse check the shape, three rows of three, and
    the entries, each an int (a bool raises TypeError too), and store the
    rows as tuples.  Products, inverses and rep's leaves, which the package
    builds as tuples of three tuples of ints, go through _of, which stores
    the rows as they are."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: Rows):
        try:
            (a, b, c), (d, e, f), (g, h, i) = rows
        except ValueError:
            raise ValueError("need 3x3 rows") from None
        if not (
            type(a) is int and type(b) is int and type(c) is int
            and type(d) is int and type(e) is int and type(f) is int
            and type(g) is int and type(h) is int and type(i) is int
        ):
            raise TypeError("matrix entries must be int")
        self._setters[0](self, ((a, b, c), (d, e, f), (g, h, i)))

    @classmethod
    def _of(cls, rows: Rows) -> Mat3:
        # rows the package built in shape: no check, no copy
        (put,) = cls._setters
        m = object.__new__(cls)
        put(m, rows)
        return m

    @classmethod
    def identity(cls) -> Mat3:
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def __mul__(self, other: Mat3) -> Mat3:
        """Matrix product, written out as nine sums of three terms; the
        rows are built in shape, so the result skips the constructor."""
        if not isinstance(other, Mat3):
            return NotImplemented
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        (p, q, r), (s, t, u), (v, w, x) = other.rows
        return Mat3._of(
            (
                (a * p + b * s + c * v, a * q + b * t + c * w, a * r + b * u + c * x),
                (d * p + e * s + f * v, d * q + e * t + f * w, d * r + e * u + f * x),
                (g * p + h * s + i * v, g * q + h * t + i * w, g * r + h * u + i * x),
            )
        )

    def __pow__(self, k: int) -> Mat3:
        return power(self, k, Mat3.identity())

    def det(self) -> int:
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def named(self) -> tuple[int, int, int, int, int, int]:
        """(A, B, C, D, E, F) of the monoid shape."""
        (a, b, _), (c, d, _), (e, f, _) = self.rows
        return a, b, c, d, e, f

    def inverse(self) -> Mat3:
        """Exact inverse of any integer matrix with determinant s = 1 or -1:
        the adjugate over s, which is the adjugate times s."""
        s = self.det()
        if s not in (1, -1):
            raise DomainError(f"no integer inverse: determinant {s}")
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return Mat3._of(
            (
                (s * (e * i - f * h), s * (c * h - b * i), s * (b * f - c * e)),
                (s * (f * g - d * i), s * (a * i - c * g), s * (c * d - a * f)),
                (s * (d * h - e * g), s * (b * g - a * h), s * (a * e - b * d)),
            )
        )

    def apply(self, vec):
        """Matrix times 3-vector; entries may be int, Fraction or QuadExt."""
        x, y, z = vec
        return tuple(p * x + q * y + t * z for p, q, t in self.rows)

    def __str__(self) -> str:
        return "[" + ",".join(f"[{a},{b},{c}]" for a, b, c in self.rows) + "]"

    @classmethod
    def parse(cls, text: str) -> Mat3:
        return cls(parse_int_rows(text, 3))


# Generators per leaf of rep's product tree.  Column additions cost one
# bignum addition per generator, so a long word alone would be quadratic in
# its entries' bit size; leaves keep the additions on small entries and
# leave the large ones to a few balanced Mat3 products.
_LEAF = 256


def _leaf(word: GenWord) -> Mat3:
    """rep of a word of at most _LEAF generators, by packed column additions.

    Each column is one int, A | C << w | E << 2w and B | D << w | F << 2w,
    with lanes of w = 7n//10 + 1 bits for a word of n generators, so that
    each generator is one addition.  The top lane, E or F, is never masked,
    so no lane carries into the next while A, B, C and D stay below 2**w,
    and they do: each generator adds one entry of each row, (A, B) and
    (C, D), to the other, starting from (1, 0) and (0, 1), so after j
    generators the larger entry of a row is at most the Fibonacci number
    F(j+1) and the smaller at most F(j) (F(0) = 0, F(1) = 1); and F(n+1)
    <= phi**n <= 2**(0.7n) < 2**w.  The bound is reached: the block of
    GD'GD'... with n generators has the entry F(n+1), so a lane one bit
    narrower carries at n = 7, where F(8) = 21 needs 5 bits.
    """
    w = len(word) * 7 // 10 + 1
    y1 = 1 << w  # 1 in the second-row lane
    e1 = 1 << (2 * w)  # 1 in the third-row lane
    x, y = 1, y1  # columns (1, 0, 0) and (0, 1, 0)
    for g in word:
        if g is G:
            y += x
        elif g is GT:
            y += x + e1
        elif g is DT:
            x += y
        elif g is D:
            x += y + e1
        else:
            raise KeyError(g)
    mask = y1 - 1
    cx, cy = x >> w, y >> w
    return Mat3._of(
        ((x & mask, y & mask, 0), (cx & mask, cy & mask, 0), (cx >> w, cy >> w, 1))
    )


def rep(word: GenWord) -> Mat3:
    """Representation matrix of a generator word: the ordered product of
    the generator matrices.

    Each leaf of up to 256 generators is built by column additions on
    (A, B, C, D, E, F): G adds column A,C,E to column B,D,F, G' also adds 1
    to F, D' adds column B,D,F to A,C,E, and D also adds 1 to E; the third
    column stays (0, 0, 1).  Each column is one packed int, so each
    generator is one addition, with lanes of 7n//10 + 1 bits for a leaf of
    n generators: its A, B, C and D are at most the Fibonacci number F(n+1)
    < 2**(7n//10 + 1), and E and F sit in the top lane, which is not masked
    (the proof is _leaf's docstring).  Neighbouring leaves are then
    multiplied pairwise, level by level, so the large entries meet in a
    balanced tree of Mat3 products.
    """
    word = tuple(word)
    if len(word) <= _LEAF:
        return _leaf(word)
    level = [_leaf(word[i : i + _LEAF]) for i in range(0, len(word), _LEAF)]
    while len(level) > 1:
        level = [
            level[i] * level[i + 1] if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
    return level[0]


def rep_exchange() -> Mat3:
    """Matrix acting on parameter vectors like the letter-exchange morphism:
    (l0, l1, rho) -> (l1, l0, l0+l1-rho)."""
    return Mat3(((0, 1, 0), (1, 0, 0), (1, 1, -1)))


# -- cones ---------------------------------------------------------------


def cone_contains(cone: str, vec) -> bool:
    """Exact test of the defining inequalities; vector entries may be int,
    Fraction or QuadExt."""
    x, y, z = vec
    if cone == "C1":
        return x >= 0 and y >= 0 and 0 <= z and z <= x + y
    if cone == "C2":
        return x >= 0 and y <= 0 and y <= z and z <= x
    if cone == "C3":
        return x == 0 and y == 0 and z >= 0
    raise ValueError(f"unknown cone {cone!r}")


# -- membership ------------------------------------------------------------


class Membership(_Value):
    """check_membership's first violated constraint, None for a member."""

    __slots__ = _fields = ("certificate",)
    ok = property(lambda verdict: verdict.certificate is None)

    def __bool__(self) -> bool:
        return self.ok


def _certificate(rows: Rows) -> str | None:
    # the first violated constraint of check_membership, None for a member
    (a, b, x), (c, d, y), (e, f, z) = rows
    if x != 0 or y != 0 or z != 1:
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
    # equivalent companion bound, implied for members; decompose relies on it
    assert -a < a * f - b * e <= b
    return None


def check_membership(matrix: Mat3) -> Membership:
    """Decide whether the matrix represents a morphism of the monoid.

    Checks, in order: block shape, non-negativity, determinant of the
    block, E < A+C, F < B+D, -C <= CF-DE < D.  The certificate names the
    first violated constraint.  Every matrix is checked in full, whoever
    built it.
    """
    return Membership(_certificate(matrix.rows))


def decompose(matrix: Mat3) -> RunWord:
    """Factor a member matrix into a generator word with rep(word) == matrix,
    returned as its maximal runs.

    Euclid's algorithm on the block rows, one quotient step per run while
    B > 0 and C > 0:
      G-step  ->  q = B//D, i = min(q, F//D): G'^i G^(q-i);
                  row 0 loses q*row 1, row 2 i*row 1
      D-step  ->  the mirror, q = C//A, i = min(q, E//A): D^i D'^(q-i)
    and then one last run:
      C = 0 ->  G^(B-F) G'^F
      B = 0 ->  D'^(C-E) D^E
    Within a run G' precedes G and D precedes D', so the word is the one
    that peeling one generator at a time gives: q = min(A//C, B//D) and
    i = min(q, E//C, F//D) in a G-step, the mirror minima in a D-step.
    Every step leaves a member, and its inequalities settle each minimum:
      AD - BC = 1   gives B/D < A/C and C/A < D/B, so B//D <= A//C and
                    C//A <= D//B: q takes one division;
      AD - BC = 1   with C > 0: B >= D forces AD >= 1 + CD, so A > C, and
                    B < D forces AD <= 1 + (D-1)C, so A <= C: B >= D picks
                    the G-step, B < D the D-step, and q >= 1 in both;
      CF - DE < D   gives kCD <= CF < (E+1)D for k = F//D, so F//D <= E//C;
      AF - BE > -A  gives kAB <= BE < (F+1)A for k = E//A, so E//A <= F//B.
    A G-step leaves B < D and a D-step leaves C < A, so A > C and B >= D:
    the steps alternate, and each loop turn takes a G-step and then a
    D-step.  A member with B < D enters at the D-step, since its G-step has
    q = 0 and i = 0 and changes nothing; the runs are maximal once empty
    ones are dropped.  The certificate of a non-member is
    check_membership's.  The word holds one (generator, exponent) pair per
    run, so its size follows the entries' bits; iterating it or taking its
    len raises OverflowError past sys.maxsize generators.
    """
    rows = matrix.rows
    cert = _certificate(rows)
    if cert is not None:
        raise MembershipError(cert)
    runs: list[tuple[Generator, int]] = []
    append = runs.append
    (a, b, _), (c, d, _), (e, f, _) = rows
    while b and c:
        q, b = divmod(b, d)
        i = f // d
        if i > q:
            i = q
        if i:
            append((GT, i))
            e, f = e - i * c, f - i * d
        if q > i:
            append((G, q - i))
        a -= q * c
        if not b:
            break
        assert a <= c, "block dichotomy violated"
        q, c = divmod(c, a)
        i = e // a
        if i > q:
            i = q
        if i:
            append((D, i))
            e, f = e - i * a, f - i * b
        if q > i:
            append((DT, q - i))
        d -= q * b
    if c == 0:
        # det forces A = D = 1 here, and the inequalities pin E = 0
        if b > f:
            append((G, b - f))
        if f:
            append((GT, f))
    else:
        if c > e:
            append((DT, c - e))
        if e:
            append((D, e))
    return RunWord._of(tuple(runs))
