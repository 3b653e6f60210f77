"""Square roots of Sturmian sequences.

The input stream is cut greedily into blocks w*w where each w*w is the
shortest square prefix of what remains; the square root is the stream of
the roots w.  For the fixed point of a characteristic-fixing morphism the
root stream is itself fixed by a palindromic morphism built from a small
power of the representation matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import NotCharacteristicError, NotPrimitiveError, ScanBoundError
from .morphisms import BinaryMorphism, GenWord, compose, format_genword
from .representation import Mat3, decompose, rep
from .words import PrefixStream

DEFAULT_SCAN_BOUND = 10_000
_SQUARE = re.compile(r"(.+?)\1")  # shortest square prefix, as a regex


def _square_root_length(s: str) -> int:
    """Length of the shortest w with s starting w*w, 0 when no square fits
    in s.  This is the Z-algorithm run over the first half of s: z[i] is
    the length of the longest common prefix of s and s[i:], and the first
    i with z[i] >= i is the answer, so z is capped there."""
    half = len(s) // 2
    z = [0] * (half + 1)
    left = right = 0
    for i in range(1, half + 1):
        k = min(right - i, z[i - left]) if i < right else 0
        while k < i and s[k] == s[i + k]:
            k += 1
        if k == i:
            return i
        z[i] = k
        if i + k > right:
            left, right = i, i + k
    return 0


def _shortest_square_at(stream: PrefixStream, offset: int, scan_bound: int) -> str:
    # roots up to 8 letters by one regex match on a 16-letter window; past
    # that the window doubles and gets one linear scan, the shortest first
    half = min(8, scan_bound)
    if square := _SQUARE.match(stream.slice(offset, offset + 2 * half)):
        return square[1]
    while half < scan_bound:
        half = min(2 * half, scan_bound)
        s = stream.slice(offset, offset + 2 * half)
        length = _square_root_length(s)
        if length:
            return s[:length]
    raise ScanBoundError(f"no square prefix with root length <= {scan_bound}")


def shortest_square_prefix(
    stream: PrefixStream, scan_bound: int = DEFAULT_SCAN_BOUND
) -> str:
    """Root w of the shortest prefix of the form w*w; roots longer than
    scan_bound are not searched and raise instead."""
    return _shortest_square_at(stream, 0, scan_bound)


def iter_square_roots(
    stream: PrefixStream, scan_bound: int = DEFAULT_SCAN_BOUND
) -> Iterator[str]:
    """Roots of the greedy square-block decomposition, in order.  Reads the
    stream through its buffer only, so the caller may keep using it."""
    offset = 0
    while True:
        root = _shortest_square_at(stream, offset, scan_bound)
        yield root
        offset += 2 * len(root)


def square_root_stream(
    stream: PrefixStream, scan_bound: int = DEFAULT_SCAN_BOUND
) -> PrefixStream:
    """Concatenation of the block roots as a lazy stream, a root per block."""
    return PrefixStream(lambda: iter_square_roots(stream, scan_bound))


@dataclass(frozen=True)
class SquareDecomposition:
    """Leading blocks of the greedy decomposition; each root's square is
    the shortest square prefix of the remaining sequence."""

    roots: tuple[str, ...]

    def reconstruct(self) -> str:
        return "".join(w + w for w in self.roots)

    def root_alphabet(self) -> frozenset[str]:
        return frozenset(self.roots)

    def __str__(self) -> str:
        return " ".join(f"{w}^2" for w in self.roots)


def square_decomposition(
    stream: PrefixStream, blocks: int, scan_bound: int = DEFAULT_SCAN_BOUND
) -> SquareDecomposition:
    it = iter_square_roots(stream, scan_bound)
    return SquareDecomposition(tuple(next(it) for _ in range(blocks)))


@dataclass(frozen=True)
class SqrtMorphism:
    """Fixing morphism of the square root: psi fixes the root stream of the
    fixed point, equals a conjugate of the k-th power of the input morphism,
    and has palindromic images of odd length."""

    morphism: BinaryMorphism
    power: int
    genword: GenWord

    def __str__(self) -> str:
        return (
            f"psi: {self.morphism}\n"
            f"k: {self.power}\n"
            f"genword: {format_genword(self.genword)}"
        )


def sqrt_fixing_morphism(word: GenWord) -> SqrtMorphism:
    """Construct the morphism fixing the square root of the characteristic
    fixed point of the given word.

    The third row of the representation must be (C, D-1), the signature of
    a characteristic fixed point.  Conjugating by the half-integer change
    of basis turns the third row of the k-th power into
    (1,1)(M^k - I)/2, kept as doubled integers until some k in {1,2,3}
    makes both entries even; that power lies in the represented monoid and
    decomposes into the generator word of psi.
    """
    matrix = rep(word)
    block = matrix.block()
    if not block.is_primitive():
        raise NotPrimitiveError(
            f"{format_genword(word) or 'identity'} is not primitive"
        )
    a, b, c, d, e, f = matrix.named()
    if e != c:
        raise NotCharacteristicError(f"fixed point not characteristic: E={e} != C={c}")
    if f != d - 1:
        raise NotCharacteristicError(
            f"fixed point not characteristic: F={f} != D-1={d - 1}"
        )
    power = block
    for k in (1, 2, 3):
        # doubled third row of the conjugated power
        t0 = power.a + power.c - 1
        t1 = power.b + power.d - 1
        if t0 % 2 == 0 and t1 % 2 == 0:
            lifted = Mat3(
                (
                    (power.a, power.b, 0),
                    (power.c, power.d, 0),
                    (t0 // 2, t1 // 2, 1),
                )
            )
            genword = decompose(lifted)
            return SqrtMorphism(compose(genword), k, genword)
        power = power * block
    raise AssertionError("no integral power with k <= 3; unreachable for det 1")
