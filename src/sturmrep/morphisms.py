"""The special Sturmian monoid: four elementary substitutions and their
compositions acting on binary words and streams.

Generator words read left to right but compose right to left: in the word
[f1, f2, f3] the leftmost generator is applied last.  Tokens use a prime
for the tilded variants, e.g. "G'D'G".
"""

from __future__ import annotations

import enum
import re
from itertools import chain, repeat, starmap
from operator import itemgetter
from typing import Iterator

from .errors import CyclicMorphismError, DomainError, ParseError
from .exactfield import _Value
from .words import DEFAULT_SCAN_BOUND, PrefixStream


class Generator(enum.Enum):
    G = "G"
    GT = "G'"
    D = "D"
    DT = "D'"

    def __repr__(self) -> str:
        return f"Generator.{self.name}"


G, GT, D, DT = Generator.G, Generator.GT, Generator.D, Generator.DT

GenWord = tuple[Generator, ...]


class RunWord(_Value):
    """Generator word held as its maximal runs ((generator, exponent), ...):
    every exponent is at least 1 and neighbouring generators differ.  It
    iterates as its generators, lazily, so it serves wherever a GenWord
    does; its size is that of the exponents' bits, not of its length.

    RunWord(runs) checks that each run is a Generator with an int exponent
    of at least 1 (a bool is refused) and that neighbouring generators
    differ, so one word has one RunWord.  decompose, which builds maximal
    runs, goes through _of, which stores them unchecked."""

    __slots__ = _fields = ("runs",)

    def __init__(self, runs: tuple[tuple[Generator, int], ...]):
        runs = tuple(runs)
        last = None
        for run in runs:
            if not (type(run) is tuple and len(run) == 2 and type(run[0]) is Generator
                    and type(run[1]) is int):
                raise TypeError(f"a run is a (Generator, int exponent) pair, not {run!r}")
            g, k = run
            if k < 1:
                raise ValueError(f"run exponents are at least 1, not {k}")
            if g is last:
                raise ValueError(f"neighbouring runs of {g.value}: the runs must be maximal")
            last = g
        self._setters[0](self, runs)

    @classmethod
    def _of(cls, runs: tuple[tuple[Generator, int], ...]) -> RunWord:
        # maximal runs the package built: no check
        (put,) = cls._setters
        word = object.__new__(cls)
        put(word, runs)
        return word

    def __iter__(self):
        return chain.from_iterable(starmap(repeat, self.runs))

    def __len__(self) -> int:
        return sum(k for _, k in self.runs)

    def __bool__(self) -> bool:
        # not by len, which overflows past sys.maxsize generators
        return bool(self.runs)


_WORD_RE = re.compile(r"(?:[GD]'?)*")
# one character per generator once each prime has joined its letter
_BY_CHAR = {"G": G, "g": GT, "D": D, "d": DT}


def parse_genword(text: str) -> GenWord:
    """Generators of the token text.  Valid text is G, D and primes, each
    prime after a letter, so none is left once G' and D' are one letter:
    the lookup of the letters refuses a prime alone or any other character,
    and only a typed g or d, which the lookup would read as G' or D', needs
    a test of its own."""
    s = text.strip()
    if "g" not in s and "d" not in s:
        chars = s.replace("G'", "g").replace("D'", "d")
        try:
            if len(chars) < 2:
                # itemgetter of one key returns the value, not a tuple
                return tuple(_BY_CHAR[ch] for ch in chars)
            return itemgetter(*chars)(_BY_CHAR)
        except KeyError:
            pass
    # only the failure path runs the regex, to name the first bad token
    end = _WORD_RE.match(s).end()
    raise ParseError(f"bad generator token at {s[end:]!r}")


def _runs(word: GenWord):
    # a RunWord's (generator, exponent) runs; runs of one for other words
    return word.runs if isinstance(word, RunWord) else zip(word, repeat(1))


def format_genword(word: GenWord) -> str:
    # one repeated token per run
    return "".join(g.value * k for g, k in _runs(word))


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


class Mat2(_Value):
    """2x2 integer matrix (a b; c d); Mat2(a, b, c, d) raises TypeError on
    an entry that is not an int (a bool included)."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
            raise TypeError("matrix entries must be int")
        put_a, put_b, put_c, put_d = self._setters
        put_a(self, a)
        put_b(self, b)
        put_c(self, c)
        put_d(self, d)

    def __mul__(self, o: Mat2) -> Mat2:
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def __pow__(self, k: int) -> Mat2:
        return power(self, k, Mat2(1, 0, 0, 1))

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    @classmethod
    def parse(cls, text: str) -> Mat2:
        rows = parse_int_rows(text, 2)
        return cls(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def is_primitive_block(a: int, b: int, c: int, d: int) -> bool:
    """Whether the integer matrix (a b; c d) is primitive: for a 2x2
    non-negative matrix a positive square is the sharp test."""
    return min(a, b, c, d) >= 0 and min(a * a + b * c, b * (a + d), c * (a + d), d * d + b * c) > 0


def parse_int_rows(text: str, size: int) -> list[list[int]]:
    import json  # here, so that only a matrix argument loads json

    try:
        rows = json.loads(text.strip())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad matrix literal: {exc}") from None
    except RecursionError:
        raise ParseError("bad matrix literal: nested too deeply") from None
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


class BinaryMorphism(_Value):
    """Substitution on {0,1} given by the images of the two letters.

    BinaryMorphism(image0, image1) and parse check that both images are
    binary words.  Morphisms the package derives from checked ones, by
    concatenating, rotating or slicing binary words (compose, products,
    conjugates), go through _of, which sets the images unchecked."""

    __slots__ = _fields = ("image0", "image1")

    def __init__(self, image0: str, image1: str):
        w = "".join((image0, image1))  # TypeError unless both are str
        # the guard of _image: two C-level counts take about a fifth of the
        # time of strip("01"), which tests each letter against a set; the
        # squares in iterate_fixed_point have images of up to 4095 letters
        if w.count("0") + w.count("1") != len(w):
            raise ValueError("images must be binary words")
        put0, put1 = self._setters
        put0(self, image0)
        put1(self, image1)

    @classmethod
    def _of(cls, image0: str, image1: str) -> BinaryMorphism:
        # images the package built from binary words: no check
        put0, put1 = cls._setters
        phi = object.__new__(cls)
        put0(phi, image0)
        put1(phi, image1)
        return phi

    def _image(self, w: str) -> str:
        if w.count("0") + w.count("1") != len(w):
            # only the failure path scans in Python, to name the first bad letter
            raise KeyError(next(ch for ch in w if ch not in "01"))
        # both images are binary, so "2" is free to hold the zeros
        return w.replace("0", "2").replace("1", self.image1).replace("2", self.image0)

    def _capped(self, blocks: Iterator[str]) -> Iterator[str]:
        # exactly one image is empty: a run of erased letters may never end
        erased = "1" if self.image0 else "0"
        run = 0  # erased letters in a row up to the end of the last block
        for block in blocks:
            image = self._image(block)
            # blocks() hands on at most 256 letters, so a run that passes the
            # bound starts in an earlier block or ends in a later one
            head = len(block) - len(block.lstrip(erased))
            if run + head > DEFAULT_SCAN_BOUND:
                raise DomainError(
                    f"more than {DEFAULT_SCAN_BOUND} letters in a row map to the empty word"
                )
            run = run + head if head == len(block) else len(block) - len(block.rstrip(erased))
            yield image

    def apply(self, w):
        """Image of a finite word (str in, str out) or of a stream
        (PrefixStream in, lazily mapped PrefixStream out, one block of the
        input at a time).

        A word is mapped by three C-level passes, w.replace("0", "2"),
        .replace("1", image1), .replace("2", image0), after one guard: its
        counts of "0" and "1" must add up to its length.  Any other letter,
        the placeholder "2" included, raises KeyError naming the first one;
        in a stream it raises when its block is read.  With exactly one
        empty image, a stream without params raises DomainError once more
        than DEFAULT_SCAN_BOUND letters in a row map to nothing; a stream
        with params is uncapped, as both letters recur in it."""
        if isinstance(w, str):
            return self._image(w)
        if isinstance(w, PrefixStream):
            if not (self.image0 or self.image1):
                raise DomainError("an erasing morphism maps every stream to the empty word")
            if w.params is None and not (self.image0 and self.image1):
                return PrefixStream(self._capped(w.blocks()))
            return PrefixStream(map(self._image, w.blocks()))
        raise TypeError(f"cannot apply a morphism to {type(w).__name__}")

    def __mul__(self, other: BinaryMorphism) -> BinaryMorphism:
        # composition: (self * other)(x) = self(other(x))
        if not isinstance(other, BinaryMorphism):
            return NotImplemented
        return BinaryMorphism._of(self._image(other.image0), self._image(other.image1))

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

    The word is read as runs, as format_genword reads it: a RunWord's own,
    and runs of one for any other iterable of generators.  With images
    (x, y) so far, composing on the right with a run concatenates them, as
    the generators of a run all add the image that they leave as it is:
    G^k gives y = x*k + y, G'^k gives y = y + x*k, D^k gives x = y*k + x
    and D'^k gives x = x + y*k.  A run costs one copy of its result, not
    one per generator, and one BinaryMorphism is built at the end.
    """
    x, y = "0", "1"
    for g, k in _runs(word):
        if g is G:
            y = x * k + y
        elif g is GT:
            y = y + x * k
        elif g is D:
            x = y * k + x
        elif g is DT:
            x = x + y * k
        else:
            raise KeyError(g)
    return BinaryMorphism._of(x, y)


def rightmost_conjugate(phi: BinaryMorphism) -> BinaryMorphism:
    """The right conjugate whose two images end with different letters.

    While both images end with one letter, moving it to the front of both
    gives a right conjugate, so repeating that is cyclic rotation; the
    closed form rotates once by the number of moves until the final letters
    disagree.  For images of n0 and n1 letters it is below
    n0 + n1 - gcd(n0, n1): by Fine and Wilf a word that long with periods
    n0 and n1 has period gcd(n0, n1), and both images would be powers of
    one word, so phi would be cyclic.
    """
    if phi.is_cyclic():
        raise CyclicMorphismError(f"cyclic morphism {phi}")
    i0, i1 = phi.image0, phi.image1
    n0, n1 = len(i0), len(i1)
    steps = 0
    while i0[n0 - 1 - steps % n0] == i1[n1 - 1 - steps % n1]:
        steps += 1
    r0, r1 = steps % n0, steps % n1
    return BinaryMorphism._of(i0[n0 - r0 :] + i0[: n0 - r0], i1[n1 - r1 :] + i1[: n1 - r1])


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
    n, k = a + b + c + d, a + c
    pp = _christoffel(n, c + d) * 2
    starts = (s * k % n for s in range(n - 1))
    return [BinaryMorphism._of(pp[t : t + k], pp[t + k : t + n]) for t in starts]


def _christoffel(n: int, ones: int) -> str:
    """Lower Christoffel word of length n with the given number of ones,
    p[i] = floor((i+1)*ones/n) - floor(i*ones/n) for 0 <= ones <= n.
    p[i] is 1 exactly when some multiple j*n lies in (i*ones, (i+1)*ones],
    that is i = ceil(j*n/ones) - 1 = (j*n - 1)//ones, for j = 1, ..., ones:
    each one is put in place, with no floor per letter."""
    word = bytearray(b"0" * n)
    for jn in range(n - 1, ones * n, n):  # j*n - 1
        word[jn // ones] = 49  # "1"
    return word.decode()
