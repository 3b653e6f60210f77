"""Square roots of Sturmian sequences.

The input stream is cut greedily into blocks w*w where each w*w is the
shortest square prefix of what remains; the square root is the stream of
the roots w.  The cut is one regex scan over one window of the stream's
blocks: each root is one regex match, shortest root first, at the current
position, and when the unread part of the window holds no square it grows
to twice its length, up to twice the scan bound.  For the fixed point of
a characteristic-fixing morphism the root stream is itself fixed by a
palindromic morphism built from a small power of the representation
matrix.
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


def shortest_square_prefix(
    stream: PrefixStream, scan_bound: int = DEFAULT_SCAN_BOUND
) -> str:
    """Root w of the shortest prefix of the form w*w; roots longer than
    scan_bound are not searched and raise instead."""
    return next(iter_square_roots(stream, scan_bound))


def iter_square_roots(
    stream: PrefixStream, scan_bound: int = DEFAULT_SCAN_BOUND
) -> Iterator[str]:
    """Roots of the greedy square-block decomposition, in order.  Reads the
    stream through its buffer only, so the caller may keep using it."""
    if scan_bound < 0:
        raise ValueError(f"scan_bound must be non-negative, got {scan_bound}")
    blocks = stream.blocks()
    window, pos = "", 0
    while True:
        # the lazy group tries roots shortest first, up to scan_bound letters
        if square := _SQUARE.match(window, pos, pos + 2 * scan_bound):
            yield square[1]
            pos = square.end()
            continue
        unread = len(window) - pos
        if unread >= 2 * scan_bound:
            raise ScanBoundError(f"no square prefix with root length <= {scan_bound}")
        # no root up to unread/2: double the unread part, so the failed
        # matches of a long search cost about as much as its last one
        want = min(max(16, 2 * unread), 2 * scan_bound)
        parts = [window[pos:]]
        while unread < want:
            parts.append(next(blocks))
            unread += len(parts[-1])
        window, pos = "".join(parts), 0


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
