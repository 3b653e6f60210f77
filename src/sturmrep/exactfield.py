"""Exact arithmetic in real quadratic fields Q(sqrt(m)).

Every slope, intercept and eigenvalue in this package is a QuadExt: a value
(a + b*sqrt(m))/c held in canonical form and compared by exact integer sign
tests only.  Rationals are the b = 0 case and carry no field, so they mix
freely with any irrational operand.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FieldMismatchError, ParseError


def square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as f*f*m with m square-free; returns (f, m).

    Trial division; fine for the magnitudes that traces of generator-matrix
    products reach.
    """
    if n < 0:
        raise ValueError("radicand must be non-negative")
    if n == 0:
        return 0, 1
    f, m, d = 1, 1, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            f *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    return f, m * n


def surd_sign(a: int, b: int, m: int | None) -> int:
    """Sign of a + b*sqrt(m) for integers a, b and a square-free m >= 2;
    m is not read when b == 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs reduce to comparing a*a with b*b*m; equality is
    # impossible while m is square-free >= 2
    d = a * a - b * b * m
    assert d != 0
    s = (d > 0) - (d < 0)
    return s if a > 0 else -s


def surd_floor(a: int, b: int, m: int | None, c: int) -> int:
    """floor((a + b*sqrt(m))/c) for integers a, b, c > 0 and m as in
    surd_sign.  An isqrt estimate seeds the answer; exact sign tests
    certify and correct it."""
    if b == 0:
        return a // c
    r = math.isqrt(b * b * m)
    k = (a + (r if b > 0 else -(r + 1))) // c
    while surd_sign(a - (k + 1) * c, b, m) >= 0:
        k += 1
    while surd_sign(a - k * c, b, m) < 0:
        k -= 1
    return k


def common_field(*values: QuadExt) -> int | None:
    """Radicand shared by the irrational values, None when all are rational;
    values from two distinct fields raise FieldMismatchError."""
    m = None
    for v in values:
        if v.m is not None and v.m != m:
            if m is not None:
                raise FieldMismatchError(f"cannot mix sqrt({m}) with sqrt({v.m})")
            m = v.m
    return m


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_FULL_RE = re.compile(
    r"^\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)(?:/(\d+))?$"
)


class QuadExt:
    """Canonical (a + b*sqrt(m))/c: gcd(a,b,c) = 1, c > 0, and m is a
    square-free integer >= 2 present exactly when b != 0."""

    __slots__ = ("a", "b", "c", "m")

    def __init__(self, a: int, b: int = 0, c: int = 1, m: int | None = None):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        if b == 0:
            m = None
        elif m is None or m < 2 or math.isqrt(m) ** 2 == m:
            raise ValueError("irrational part needs a square-free radicand >= 2")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_radicand(cls, a: int, b: int, c: int, n: int) -> QuadExt:
        """Canonicalize (a + b*sqrt(n))/c for arbitrary n >= 0: square
        factors of n move into b, perfect squares collapse to a rational."""
        f, m = square_free_split(n)
        b = b * f
        if m == 1:
            return cls(a + b, 0, c)
        return cls(a, b, c, m)

    @staticmethod
    def coerce(value) -> "QuadExt | None":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, int):
            return QuadExt(value)
        if isinstance(value, Fraction):
            return QuadExt(value.numerator, 0, value.denominator)
        return None

    # -- inspection --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        return surd_sign(self.a, self.b, self.m)

    def floor(self) -> int:
        return surd_floor(self.a, self.b, self.m, self.c)

    def conjugate(self) -> QuadExt:
        if self.b == 0:
            return self
        return QuadExt(self.a, -self.b, self.c, self.m)

    # -- arithmetic ---------------------------------------------------------
    # an int operand n takes a fast path: self + n is (a + n*c + b*sqrt(m))/c,
    # with no QuadExt built for n

    def __add__(self, other):
        if isinstance(other, int):
            return QuadExt(self.a + other * self.c, self.b, self.c, self.m)
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        m = common_field(self, o)
        return QuadExt(
            self.a * o.c + o.a * self.c,
            self.b * o.c + o.b * self.c,
            self.c * o.c,
            m,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.c, self.m)

    def __sub__(self, other):
        if isinstance(other, int):
            return QuadExt(self.a - other * self.c, self.b, self.c, self.m)
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        if isinstance(other, int):
            return QuadExt(other * self.c - self.a, -self.b, self.c, self.m)
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadExt(self.a * other, self.b * other, self.c, self.m)
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        m = common_field(self, o)
        mm = m if m is not None else 0
        return QuadExt(
            self.a * o.a + self.b * o.b * mm,
            self.a * o.b + self.b * o.a,
            self.c * o.c,
            m,
        )

    __rmul__ = __mul__

    def _inverse(self) -> QuadExt:
        if self.sign() == 0:
            raise ZeroDivisionError("division by zero")
        if self.b == 0:
            return QuadExt(self.c, 0, self.a)
        # 1/x = c*(a - b*sqrt(m)) / (a^2 - b^2 m)
        norm = self.a * self.a - self.b * self.b * self.m
        return QuadExt(self.a * self.c, -self.b * self.c, norm, self.m)

    def __truediv__(self, other):
        if isinstance(other, int) and other:
            return QuadExt(self.a, self.b, self.c * other, self.m)
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.c == 1 and self.a == other
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.c, self.m) == (o.a, o.b, o.c, o.m)

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.m))

    def _cmp(self, other) -> int | None:
        # sign of self - other, both denominators positive; None when other
        # is no field element
        if isinstance(other, int):
            return surd_sign(self.a - other * self.c, self.b, self.m)
        o = self.coerce(other)
        if o is None:
            return None
        m = common_field(self, o)
        return surd_sign(self.a * o.c - o.a * self.c, self.b * o.c - o.b * self.c, m)

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def __bool__(self):
        return self.sign() != 0

    # -- text format ----------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        sign = "+" if self.b > 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}*sqrt({self.m}))/{self.c}"

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, {self.c}, {self.m})"

    @classmethod
    def parse(cls, text: str) -> QuadExt:
        """Inverse of str() on canonical forms; also accepts non-canonical
        input such as sqrt(12) or unreduced fractions and normalizes it."""
        s = text.strip()
        mt = _RAT_RE.match(s)
        if mt:
            den = int(mt.group(2)) if mt.group(2) else 1
            if den == 0:
                raise ParseError(f"zero denominator in {text!r}")
            return cls(int(mt.group(1)), 0, den)
        mt = _FULL_RE.match(s)
        if mt:
            a = int(mt.group(1))
            b = int(mt.group(3)) * (1 if mt.group(2) == "+" else -1)
            n = int(mt.group(4))
            den = int(mt.group(5)) if mt.group(5) else 1
            if den == 0:
                raise ParseError(f"zero denominator in {text!r}")
            return cls.from_radicand(a, b, den, n)
        raise ParseError(f"not a field element: {text!r}")


ZERO = QuadExt(0)
ONE = QuadExt(1)
HALF = QuadExt(1, 0, 2)
