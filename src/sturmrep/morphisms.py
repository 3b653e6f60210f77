"""The special Sturmian monoid: four elementary substitutions and their
compositions acting on binary words and streams.

Generator words read left to right but compose right to left: in the word
[f1, f2, f3] the leftmost generator is applied last.  Tokens use a prime
for the tilded variants, e.g. "G'D'G".
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass

from .errors import CyclicMorphismError, DomainError, ParseError
from .words import PrefixStream


class Generator(enum.Enum):
    G = "G"
    GT = "G'"
    D = "D"
    DT = "D'"

    @property
    def token(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"Generator.{self.name}"


G, GT, D, DT = Generator.G, Generator.GT, Generator.D, Generator.DT

GenWord = tuple[Generator, ...]

_WORD_RE = re.compile(r"(?:[GD]'?)*")
_TOKEN_RE = re.compile(r"[GD]'?")
_BY_TOKEN = {g.value: g for g in Generator}


def parse_genword(text: str) -> GenWord:
    s = text.strip()
    end = _WORD_RE.match(s).end()
    if end < len(s):
        raise ParseError(f"bad generator token at {s[end:]!r}")
    return tuple(map(_BY_TOKEN.__getitem__, _TOKEN_RE.findall(s)))


def format_genword(word: GenWord) -> str:
    return "".join(g.token for g in word)


def power(x, k: int, one):
    """x**k for an associative product with neutral element one, by
    square-and-multiply in O(log k) products.  No square is taken after the
    top bit, so no factor larger than x**k is built (a morphism's images
    grow like its dominant eigenvalue to the power)."""
    if k < 0:
        raise ValueError("negative power")
    out = one
    while True:
        if k & 1:
            out = out * x
        k >>= 1
        if not k:
            return out
        x = x * x


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix (a b; c d)."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> Mat2:
        return cls(1, 0, 0, 1)

    def __mul__(self, o: Mat2) -> Mat2:
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def __pow__(self, k: int) -> Mat2:
        return power(self, k, Mat2.identity())

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def entries(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def is_primitive(self) -> bool:
        # for a 2x2 non-negative matrix a positive square is the sharp test
        if min(self.entries()) < 0:
            return False
        sq = self * self
        return min(sq.entries()) > 0

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    @classmethod
    def parse(cls, text: str) -> Mat2:
        rows = parse_int_rows(text, 2)
        return cls(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def parse_int_rows(text: str, size: int) -> list[list[int]]:
    try:
        rows = json.loads(text.strip())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad matrix literal: {exc}") from None
    if (
        not isinstance(rows, list)
        or len(rows) != size
        or any(
            not isinstance(r, list)
            or len(r) != size
            # bool is a subclass of int, so JSON true/false need the exact type
            or any(type(x) is not int for x in r)
            for r in rows
        )
    ):
        raise ParseError(f"expected a {size}x{size} integer matrix")
    return rows


_MORPHISM_RE = re.compile(r"^0->([01]*),1->([01]*)$")


@dataclass(frozen=True)
class BinaryMorphism:
    """Substitution on {0,1} given by the images of the two letters."""

    image0: str
    image1: str

    def __post_init__(self):
        if set(self.image0 + self.image1) - {"0", "1"}:
            raise ValueError("images must be binary words")

    def apply(self, w):
        """Image of a finite word (str in, str out) or of a stream
        (PrefixStream in, lazily mapped PrefixStream out, one block of the
        input at a time)."""
        image = {"0": self.image0, "1": self.image1}.__getitem__
        if isinstance(w, str):
            return "".join(map(image, w))
        if isinstance(w, PrefixStream):
            return PrefixStream("".join(map(image, block)) for block in w.blocks())
        raise TypeError(f"cannot apply a morphism to {type(w).__name__}")

    def __call__(self, w):
        return self.apply(w)

    def __mul__(self, other: BinaryMorphism) -> BinaryMorphism:
        # composition: (self * other)(x) = self(other(x))
        if not isinstance(other, BinaryMorphism):
            return NotImplemented
        return BinaryMorphism(self.apply(other.image0), self.apply(other.image1))

    def __pow__(self, k: int) -> BinaryMorphism:
        return power(self, k, IDENTITY)

    def incidence(self) -> Mat2:
        """Letter-count matrix: row i, column j holds the number of
        occurrences of letter i in the image of letter j."""
        return Mat2(
            self.image0.count("0"),
            self.image1.count("0"),
            self.image0.count("1"),
            self.image1.count("1"),
        )

    def is_cyclic(self) -> bool:
        # two words commute iff both are powers of one primitive word
        return self.image0 + self.image1 == self.image1 + self.image0

    def __str__(self) -> str:
        return f"0->{self.image0},1->{self.image1}"

    @classmethod
    def parse(cls, text: str) -> BinaryMorphism:
        mt = _MORPHISM_RE.match(text.strip())
        if not mt:
            raise ParseError(f"not a morphism: {text!r}")
        return cls(mt.group(1), mt.group(2))


IDENTITY = BinaryMorphism("0", "1")
EXCHANGE = BinaryMorphism("1", "0")


def compose(word: GenWord) -> BinaryMorphism:
    """Morphism named by the generator word; the empty word is the identity.

    With images (x, y) so far, composing on the right with a generator
    concatenates them: G gives y = x+y, G' gives y = y+x, D gives x = y+x
    and D' gives x = x+y.  One concatenation per generator, one
    BinaryMorphism at the end.
    """
    x, y = "0", "1"
    for g in word:
        if g is G:
            y = x + y
        elif g is GT:
            y = y + x
        elif g is D:
            x = y + x
        elif g is DT:
            x = x + y
        else:
            raise KeyError(g)
    return BinaryMorphism(x, y)


def gen_morphism(g: Generator) -> BinaryMorphism:
    return compose((g,))


def right_conjugate_step(phi: BinaryMorphism) -> BinaryMorphism | None:
    """One conjugation step to the right: when both images end with the
    same letter, rotate it to the front; None when the morphism is already
    rightmost (distinct final letters)."""
    if phi.is_cyclic():
        raise CyclicMorphismError(f"cyclic morphism {phi}")
    i0, i1 = phi.image0, phi.image1
    if not i0 or not i1 or i0[-1] != i1[-1]:
        return None
    x = i0[-1]
    return BinaryMorphism(x + i0[:-1], x + i1[:-1])


def rightmost_conjugate(phi: BinaryMorphism) -> BinaryMorphism:
    """Fixed point of right_conjugate_step iteration.

    Each step rotates the shared final letter to the front of both images,
    so iterating is cyclic rotation; the closed form rotates once by the
    number of steps until the final letters disagree.
    """
    if phi.is_cyclic():
        raise CyclicMorphismError(f"cyclic morphism {phi}")
    i0, i1 = phi.image0, phi.image1
    n0, n1 = len(i0), len(i1)
    steps = 0
    while steps < n0 + n1 and i0[n0 - 1 - steps % n0] == i1[n1 - 1 - steps % n1]:
        steps += 1
    if steps >= n0 + n1:
        raise CyclicMorphismError(f"conjugation did not settle for {phi}")
    r0, r1 = steps % n0, steps % n1
    return BinaryMorphism(i0[n0 - r0 :] + i0[: n0 - r0], i1[n1 - r1 :] + i1[: n1 - r1])


def conjugates_of(matrix: Mat2) -> list[BinaryMorphism]:
    """All morphisms of the monoid with the given incidence matrix, in
    increasing order of the third-row sum s of their representations.

    They are the rotations of the lower Christoffel word p with a+b zeros
    and c+d ones, p[i] = floor((i+1)(c+d)/n) - floor(i(c+d)/n) for
    n = a+b+c+d: for s = 0, ..., n-2, phi(0)phi(1) is p read cyclically
    from letter s*k mod n, where k = a+c = |phi(0)|.  The tests hold this
    to the third-row definition, E = ceil((a*s - b)/(a + b)) and F = s-E.
    """
    a, b, c, d = matrix.entries()
    if min(a, b, c, d) < 0:
        raise DomainError("incidence matrices have non-negative entries")
    if matrix.det() != 1:
        raise DomainError("incidence matrix must have determinant 1")
    n, k, ones = a + b + c + d, a + c, c + d
    pp = "".join(str((i + 1) * ones // n - i * ones // n) for i in range(n)) * 2
    starts = (s * k % n for s in range(n - 1))
    return [BinaryMorphism(pp[t : t + k], pp[t + k : t + n]) for t in starts]
