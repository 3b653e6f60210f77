"""Binary words and one-sided infinite {0,1} sequences.

Finite words are plain str over "01".  Infinite sequences are PrefixStream
objects fed by iterators of str blocks of letters.  Their one engine is the
orbit coding of a two-interval exchange, run on denominator-cleared integer
pairs with exact sign tests, never floats: one test per run of the repeated
letter, blocks of about 64 letters, and a seek that starts the orbit at any
letter after one exact floor.  A mechanical sequence of slope alpha and
intercept delta is the coding of the parameter vector (1-alpha, alpha,
delta), see params_of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterator

from .errors import DomainError
from .exactfield import QuadExt, common_field, surd_sign

LOWER = "lower"
UPPER = "upper"


class PrefixStream:
    """Deterministic on-demand {0,1} sequence.

    factory() returns an iterator of str blocks, one letter or many per
    step.  Blocks are buffered whole as they are read, so prefix() is
    idempotent and several consumers may read one stream at independent
    positions; blocks() hands the letters on block by block, and restart()
    gives a fresh replay.  An optional seek(i) returns the blocks from
    letter i on: slice(i, j) with i over 512 letters past the buffer then
    costs j - i letters, and the buffer stays a prefix.
    """

    def __init__(self, factory: Callable[[], Iterator[str]],
                 seek: Callable[[int], Iterator[str]] | None = None):
        self._factory = factory
        self._seek = seek
        self._source = factory()
        self._buffer = bytearray()

    def _ensure(self, n: int) -> None:
        while len(self._buffer) < n:
            self._buffer += next(self._source).encode()

    def prefix(self, n: int) -> str:
        if n < 0:
            raise ValueError("length must be non-negative")
        self._ensure(n)
        return self._buffer[:n].decode()

    def slice(self, i: int, j: int) -> str:
        if not 0 <= i <= j:
            raise ValueError(f"slice needs 0 <= i <= j, got i={i}, j={j}")
        # a seek costs about 500 letters of the engine: nearer starts extend
        if self._seek is not None and i > len(self._buffer) + 512:
            return PrefixStream(partial(self._seek, i)).prefix(j - i)
        self._ensure(j)
        return self._buffer[i:j].decode()

    def __getitem__(self, i: int) -> str:
        if i < 0:
            raise ValueError("position must be non-negative")
        return self.slice(i, i + 1)

    def blocks(self) -> Iterator[str]:
        i = 0
        while True:
            self._ensure(i + 1)
            block = self._buffer[i:].decode()
            i += len(block)
            yield block

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self.blocks())

    def restart(self) -> PrefixStream:
        return PrefixStream(self._factory, self._seek)


def _as_field(x) -> QuadExt:
    v = QuadExt.coerce(x)
    if v is None:
        raise TypeError(f"expected a field element, got {type(x).__name__}")
    return v


@dataclass(frozen=True)
class SlopeIntercept:
    """Slope alpha in (0,1), irrational; intercept delta in [0,1) for the
    lower sequence, [0,1] for the upper one."""

    alpha: QuadExt
    delta: QuadExt
    kind: str = LOWER

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_field(self.alpha))
        object.__setattr__(self, "delta", _as_field(self.delta))
        if self.kind not in (LOWER, UPPER):
            raise ValueError(f"kind must be {LOWER!r} or {UPPER!r}")
        if self.alpha.is_rational:
            raise DomainError("rational slope generates a periodic sequence")
        if not (0 < self.alpha < 1):
            raise DomainError("slope must lie in (0,1)")
        hi_ok = self.delta <= 1 if self.kind == UPPER else self.delta < 1
        if not (0 <= self.delta and hi_ok):
            raise DomainError("intercept out of range")


@dataclass(frozen=True)
class ParamVector:
    """Interval lengths l0, l1 > 0 and starting point rho of a 2iet orbit.

    lower coding uses [0,l0) and [l0,l0+l1), so 0 <= rho < l0+l1;
    upper coding uses (0,l0] and (l0,l0+l1], so 0 < rho <= l0+l1.
    """

    l0: QuadExt
    l1: QuadExt
    rho: QuadExt
    boundary: str = LOWER

    def __post_init__(self):
        for name in ("l0", "l1", "rho"):
            object.__setattr__(self, name, _as_field(getattr(self, name)))
        if self.boundary not in (LOWER, UPPER):
            raise ValueError(f"boundary must be {LOWER!r} or {UPPER!r}")
        # l0 + l1 is rational for every params_of output, so the range test
        # below would let a rho from another field through
        common_field(self.rho, self.l0, self.l1)
        if not (self.l0 > 0 and self.l1 > 0):
            raise DomainError("interval lengths must be positive")
        total = self.l0 + self.l1
        if self.boundary == LOWER:
            ok = 0 <= self.rho < total
        else:
            ok = 0 < self.rho <= total
        if not ok:
            raise DomainError("starting point outside the exchanged intervals")

    @property
    def slope(self) -> QuadExt:
        return self.l1 / (self.l0 + self.l1)

    def scaled(self, factor) -> ParamVector:
        f = _as_field(factor)
        if not f > 0:
            raise DomainError("scaling factor must be positive")
        return ParamVector(self.l0 * f, self.l1 * f, self.rho * f, self.boundary)


def _repeated(letter: str, n: int) -> Iterator[str]:
    # n copies of letter in blocks of at most 64
    return (letter * min(64, n - i) for i in range(0, n, 64))


def _iet_letters(v: ParamVector, start: int = 0) -> Iterator[str]:
    # Integer pairs (a, b) stand for (a + b*sqrt(m))/den.  With l0 > l1 the
    # letter 1 is isolated and each 1 is followed by q or q+1 zeros, q =
    # floor(l0/l1), so one sign test decides a run.  For l1 > l0 the coding
    # of (l1, l0, l0+l1-rho), other boundary kind, is its letter exchange.
    l0, l1, x, upper = v.l0, v.l1, v.rho, v.boundary == UPPER
    total = l0 + l1
    if start:  # rotation by l1, into [0, total) or, upper, into (0, total]
        y = x + start * l1
        x = y - ((y / total).ceil() - 1 if upper else (y / total).floor()) * total
    zero, one = "0", "1"
    if l1 > l0:
        l0, l1, x, upper, zero, one = l1, l0, total - x, not upper, one, zero
    q = (l0 / l1).floor()
    # x codes 0 while x < l0 (x <= l0, upper): head zeros, each a step by l1
    steps = (l0 - x) / l1
    head = max(0, steps.floor() + 1 if upper else steps.ceil())
    yield from _repeated(zero, head)
    x += head * l1
    m = common_field(l0, l1, x)
    den = math.lcm(l0.c, l1.c, x.c)
    (l0a, l0b), (l1a, l1b), (xa, xb) = (
        (p.a * (den // p.c), p.b * (den // p.c)) for p in (l0, l1, x)
    )
    # from a 1 at x the next 1 is q zeros on, at x - l0 + q*l1, or q+1 when
    # x - t has sign < upper, t = 2*l0 - q*l1 (x < t, or x <= t); d is x - t
    da, db = xa - 2 * l0a + q * l1a, xb - 2 * l0b + q * l1b
    sa, sb = q * l1a - l0a, q * l1b - l0b
    tail = q if q >= 64 else 0  # a longer run ends in q zeros in pieces
    short, long = one + zero * (q - tail), one + zero * (q + 1 - tail)
    runs = range(max(1, 64 // (q + 1)))  # a block holds about 64 letters
    while True:
        block = []
        for _ in runs:
            if surd_sign(da, db, m) < upper:
                block.append(long)
                da, db = da + sa + l1a, db + sb + l1b
            else:
                block.append(short)
                da, db = da + sa, db + sb
        yield "".join(block)
        if tail:
            yield from _repeated(zero, tail)


def iet_stream(v: ParamVector) -> PrefixStream:
    if v.slope.is_rational:
        raise DomainError("rational slope generates a periodic sequence")
    engine = partial(_iet_letters, v)
    return PrefixStream(engine, engine)


def iet_code(v: ParamVector, n: int) -> str:
    """First n letters of the coding of the orbit of rho under the exchange
    of two intervals of lengths l0 and l1."""
    return iet_stream(v).prefix(n)


def params_of(si: SlopeIntercept) -> ParamVector:
    """Parameter vector of the mechanical sequence: (1-alpha, alpha, delta),
    except that a zero intercept means rho = l0+l1 for the upper sequence."""
    rho = QuadExt(1) if si.kind == UPPER and si.delta == 0 else si.delta
    return ParamVector(1 - si.alpha, si.alpha, rho, si.kind)


def mechanical_stream(si: SlopeIntercept) -> PrefixStream:
    return iet_stream(params_of(si))


def mechanical(si: SlopeIntercept, n: int) -> str:
    """First n letters of the mechanical sequence with the given slope,
    intercept and boundary kind."""
    return mechanical_stream(si).prefix(n)

