"""Square roots of Sturmian sequences.

A Sturmian sequence is cut greedily into blocks w*w where each w*w is the
shortest square prefix of what remains; its square root is the stream of
the roots w.  For a 2iet stream with parameter vector (l0, l1, rho) the
root stream is the 2iet stream of psi(l0, l1, rho) = (l0, l1, (rho+l0)/2),
the square root map of Peltomaki and Whiteland, so no scan runs.  Other
streams, such as morphic images, and the blocks themselves come from one
regex scan over one window of the stream's blocks: each root is one regex
match, shortest root first, at the current position, and when the unread
part of the window holds no square it grows to twice its length.  Every
position of a Sturmian word begins one of the six minimal squares of its
slope (Saari, Everywhere alpha-repetitive sequences and Sturmian words,
2010), so only a stream without a parameter vector needs a scan bound.
The fixed point of every primitive morphism phi of the monoid has a root
stream fixed by a morphism of the monoid, the conjugate of phi^k by psi
for some k <= 4; for a characteristic fixed point its images are
palindromes of odd length.
"""

from __future__ import annotations

import re
import sys
from typing import Iterator

from .errors import DomainError, NotPrimitiveError, ScanBoundError
from .exactfield import _Value
from .morphisms import GenWord, compose, format_genword, is_primitive_block
from .representation import Mat3, decompose, rep
from .words import DEFAULT_SCAN_BOUND, PrefixStream, iet_stream

_SQUARE = re.compile(r"(.+?)\1")  # shortest square prefix, as a regex


def iter_square_roots(stream: PrefixStream, scan_bound: int | None = None) -> Iterator[str]:
    """Roots of the greedy square-block decomposition, in order.  Reads the
    stream through its buffer only, so the caller may keep using it.

    A root longer than scan_bound raises ScanBoundError, and a finite
    stream that ends before a square prefix raises DomainError.  With no
    bound, a stream with a parameter vector is uncapped (each of its
    positions begins a square, Saari 2010) and any other is capped at
    DEFAULT_SCAN_BOUND; a bound caps work, not which roots are valid."""
    if scan_bound is None:
        # no str holds more than sys.maxsize letters, so that bound caps nothing
        scan_bound = DEFAULT_SCAN_BOUND if stream.params is None else sys.maxsize
    if scan_bound < 0:
        raise ValueError(f"scan_bound must be non-negative, got {scan_bound}")
    blocks = stream.blocks()
    window, pos = "", 0
    while True:
        # the lazy group tries roots shortest first, up to scan_bound letters
        if square := _SQUARE.match(window, pos, min(pos + 2 * scan_bound, len(window))):
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
        while unread < want and (block := next(blocks, "")):
            parts.append(block)
            unread += len(block)
        if len(parts) == 1:
            raise DomainError(f"the stream ends before a square prefix ({unread} letters unread)")
        window, pos = "".join(parts), 0


def square_root_stream(stream: PrefixStream) -> PrefixStream:
    """Concatenation of the block roots as a lazy stream.  A 2iet stream
    gives the 2iet stream of psi of its parameter vector, with no scan or
    cap; any other stream is scanned at DEFAULT_SCAN_BOUND, a root per
    block (for longer roots use PrefixStream(iter_square_roots(s, bound)))."""
    v = stream.params
    if v is None:
        return PrefixStream(iter_square_roots(stream))
    # psi moves rho, not the intercept: for the upper kind rho = l0+l1
    # stands for intercept 0.  (l0, l1, (rho+l0)/2) over den is
    # (2 l0, 2 l1, rho+l0) over 2 den
    return iet_stream(v._image(((2, 0, 0), (0, 2, 0), (1, 0, 1)), 2))


class SquareDecomposition(_Value):
    """Leading blocks of the greedy decomposition; each root's square is
    the shortest square prefix of the remaining sequence."""

    __slots__ = _fields = ("roots",)

    def __str__(self) -> str:
        return " ".join(f"{w}^2" for w in self.roots)


def square_decomposition(stream: PrefixStream, blocks: int) -> SquareDecomposition:
    """The first blocks, uncapped for a stream with a parameter vector
    (every position begins a square, Saari 2010); see iter_square_roots."""
    if blocks < 0:
        raise ValueError("blocks must be non-negative")
    it = iter_square_roots(stream)
    return SquareDecomposition(tuple(next(it) for _ in range(blocks)))


class SqrtMorphism(_Value):
    """Fixing morphism of the square root: psi fixes the root stream of the
    fixed point and is the conjugate by the root map of the k-th power of
    the input morphism, k <= 4; genword, the RunWord decompose returns,
    defines it, and its images, palindromes of odd length when the fixed
    point is characteristic, are composed on each read of morphism."""

    __slots__ = _fields = ("power", "genword")
    morphism = property(lambda root: compose(root.genword))

    def __str__(self) -> str:
        return (
            f"psi: {self.morphism}\n"
            f"k: {self.power}\n"
            f"genword: {format_genword(self.genword)}"
        )


def sqrt_fixing_morphism(word: GenWord) -> SqrtMorphism:
    """The morphism fixing the square root of the fixed point of the given
    primitive word, as k and its generator word; no image is composed.

    The root map psi is the linear map with rows (1,0,0), (0,1,0),
    (1/2,0,1/2), so psi(v) is an eigenvector of psi M^k psi^-1 whenever v
    is one of M = rep(word).  That conjugate keeps the block of M^k and
    has third row ((A+E-1)/2, (B+F)/2) in the entries of M^k; the least k
    that makes the row integral gives a matrix of the monoid, and decompose
    factors it into the generator word of psi (for a characteristic fixed
    point, E = C and F = D-1, this is the row (1,1)(M^k - I)/2).  Modulo 2
    the row moves by an affine map of (Z/2)^2, an element of
    AGL(2,2) = S4, whose order is at most 4, so k <= 4.
    """
    matrix = rep(word)
    if not is_primitive_block(*matrix.named()[:4]):
        raise NotPrimitiveError(
            f"{format_genword(word) or 'identity'} is not primitive"
        )
    power = matrix
    for k in (1, 2, 3, 4):
        a, b, c, d, e, f = power.named()
        # doubled third row of the conjugated power
        t0, t1 = a + e - 1, b + f
        if t0 % 2 == 0 and t1 % 2 == 0:
            lifted = Mat3._of(((a, b, 0), (c, d, 0), (t0 // 2, t1 // 2, 1)))
            genword = decompose(lifted)
            return SqrtMorphism(k, genword)
        power = power * matrix
    raise AssertionError("no integral row with k <= 4; S4 has no larger order")
