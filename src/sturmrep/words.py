"""Binary words and one-sided infinite {0,1} sequences.

Finite words are plain str over "01".  Infinite sequences are PrefixStream
objects produced by one engine, the orbit coding of a two-interval exchange
run on denominator-cleared integer pairs with exact sign tests, never
floats.  A mechanical sequence of slope alpha and intercept delta is the
coding of the parameter vector (1-alpha, alpha, delta), see params_of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import DomainError
from .exactfield import QuadExt, common_field, surd_sign

LOWER = "lower"
UPPER = "upper"


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def mirror(w: str) -> str:
    return w[::-1]


class PrefixStream:
    """Deterministic on-demand {0,1} sequence.

    Letters already produced are buffered, so prefix() is idempotent and
    several consumers may read one stream at independent positions.  Fresh
    replays come from restart().
    """

    def __init__(self, factory: Callable[[], Iterator[str]]):
        self._factory = factory
        self._source: Iterator[str] | None = None
        self._buffer: list[str] = []

    def _ensure(self, n: int) -> None:
        if self._source is None:
            self._source = self._factory()
        buf = self._buffer
        while len(buf) < n:
            buf.append(next(self._source))

    def prefix(self, n: int) -> str:
        if n < 0:
            raise ValueError("length must be non-negative")
        self._ensure(n)
        return "".join(self._buffer[:n])

    def slice(self, i: int, j: int) -> str:
        if not 0 <= i <= j:
            raise ValueError(f"slice needs 0 <= i <= j, got i={i}, j={j}")
        self._ensure(j)
        return "".join(self._buffer[i:j])

    def __getitem__(self, i: int) -> str:
        if i < 0:
            raise ValueError("position must be non-negative")
        self._ensure(i + 1)
        return self._buffer[i]

    def __iter__(self) -> Iterator[str]:
        i = 0
        while True:
            yield self[i]
            i += 1

    def restart(self) -> PrefixStream:
        return PrefixStream(self._factory)


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


def _iet_letters(v: ParamVector) -> Iterator[str]:
    # Orbit arithmetic runs on denominator-cleared integer pairs (a, b)
    # representing a + b*sqrt(m); one add and one sign test per letter.
    parts = (v.l0, v.l1, v.rho)
    m = common_field(*parts)
    den = math.lcm(*(p.c for p in parts))
    (l0a, l0b), (l1a, l1b), (xa, xb) = (
        (p.a * (den // p.c), p.b * (den // p.c)) for p in parts
    )
    upper = v.boundary == UPPER
    while True:
        d = surd_sign(xa - l0a, xb - l0b, m)
        in_first = d <= 0 if upper else d < 0
        if in_first:
            yield "0"
            xa += l1a
            xb += l1b
        else:
            yield "1"
            xa -= l0a
            xb -= l0b


def iet_stream(v: ParamVector) -> PrefixStream:
    if v.slope.is_rational:
        raise DomainError("rational slope generates a periodic sequence")
    return PrefixStream(lambda: _iet_letters(v))


def iet_code(v: ParamVector, n: int) -> str:
    """First n letters of the coding of the orbit of rho under the exchange
    of two intervals of lengths l0 and l1."""
    return iet_stream(v).prefix(n)


def params_of(si: SlopeIntercept) -> ParamVector:
    """Parameter vector of the mechanical sequence: (1-alpha, alpha, delta),
    except that a zero intercept means rho = l0+l1 for the upper sequence."""
    l0 = 1 - si.alpha
    rho = si.delta
    if si.kind == UPPER and si.delta == 0:
        rho = QuadExt(1)
    return ParamVector(l0, si.alpha, rho, si.kind)


def mechanical_stream(si: SlopeIntercept) -> PrefixStream:
    return iet_stream(params_of(si))


def mechanical(si: SlopeIntercept, n: int) -> str:
    """First n letters of the mechanical sequence with the given slope,
    intercept and boundary kind."""
    return mechanical_stream(si).prefix(n)


def word_stream(w: str) -> PrefixStream:
    """Infinite periodic stream repeating w; test helper surface."""
    if not w or set(w) - {"0", "1"}:
        raise ValueError("need a nonempty binary word")

    def gen():
        while True:
            yield from w

    return PrefixStream(gen)


def frequency_gap(w: str, slope: QuadExt) -> QuadExt:
    """|count of 1s - n*slope| for the n-letter word w, exact."""
    gap = w.count("1") - slope * len(w)
    return gap if gap.sign() >= 0 else -gap
