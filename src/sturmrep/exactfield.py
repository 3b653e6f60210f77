"""Exact arithmetic in real quadratic fields Q(sqrt(m)).

Every slope, intercept and eigenvalue in this package is a QuadExt: a value
(a + b*sqrt(m))/c held in canonical form and compared by exact integer sign
tests only.  Rationals are the b = 0 case and carry no field, so they mix
freely with any irrational operand.  An operand may be an int, a Fraction
(or any rational with integer numerator and denominator) or a QuadExt;
each operator is one formula on its parts (a, b, c, m).
"""

from __future__ import annotations

import math
import re
from operator import attrgetter

from .errors import FieldMismatchError, ParseError


# steps from 7 through the residues 7, 11, 13, 17, 19, 23, 29, 31 mod 30:
# from 7 on they reach every number prime to 2, 3 and 5
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as f*f*m with m square-free; returns (f, m).

    The power of 2 goes first, read off the lowest set bit.  Then trial
    division by d = 3, 5 and the numbers from 7 on that are prime to 30,
    while d**3 is at most the cofactor left over; the bound is tested once
    per block of divisors, and a divisor tried past it keeps what follows
    true.  When the loop stops, no prime below d divides the cofactor (each
    was divided out, and every prime from 7 on is prime to 30) and d**3
    exceeds it, so the cofactor has at most two prime factors: it is 1, a
    prime p, a product p*q of distinct primes, or p*p.  One isqrt tells p*p
    apart.  The cost is about (8/30) n**(1/3) divisions, still exponential
    in the bit size of n.
    """
    if n < 0:
        raise ValueError("radicand must be non-negative")
    if n == 0:
        return 0, 1
    e = (n & -n).bit_length() - 1
    n >>= e
    f, m = 1 << (e // 2), 2 if e % 2 else 1
    d, steps = 3, (2, 2)  # 3, 5, then the wheel from 7
    while d * d * d <= n:
        for step in steps:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                f *= d ** (e // 2)
                if e % 2:
                    m *= d
            d += step
        steps = _WHEEL
    r = math.isqrt(n)
    if r * r == n:
        return f * r, m
    return f, m * n


def surd_sign(a: int, b: int, m: int | None) -> int:
    """Sign of a + b*sqrt(m) for integers a, b and a non-square m >= 2;
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
    # impossible while m is no square
    d = a * a - b * b * m
    assert d != 0
    s = (d > 0) - (d < 0)
    return s if a > 0 else -s


def surd_floor(a: int, b: int, m: int | None, c: int) -> int:
    """floor((a + b*sqrt(m))/c) for integers a, b, c > 0 and m as in
    surd_sign, by one isqrt.  For b != 0, s = sqrt(b*b*m) is irrational (m
    is no square: QuadExt refuses those), so r = isqrt(b*b*m) < s < r+1.
    An integer t is then <= a+s exactly when t <= a+r, and <= a-s exactly
    when t <= a-r-1: the multiples of c up to each are the same, so
    floor((a+s)/c) = (a+r)//c for b > 0 and floor((a-s)/c) = (a-r-1)//c for b < 0."""
    if b == 0:
        return a // c
    r = math.isqrt(b * b * m)
    return (a + r if b > 0 else a - r - 1) // c


def common_field(m: int | None, n: int | None) -> int | None:
    """Radicand shared by two operands, None when both are rational;
    radicands of two distinct fields raise FieldMismatchError."""
    if m is None or m == n:
        return n
    if n is None:
        return m
    raise FieldMismatchError(f"cannot mix sqrt({m}) with sqrt({n})")


def operand_parts(x) -> tuple[int, int, int, int | None] | None:
    """(a, b, c, m) of an int, QuadExt or rational operand, None for any
    other value; no QuadExt is built for a rational.  A rational is read by
    the numbers.Rational protocol, its integer numerator and denominator,
    so a Fraction needs no import here."""
    if isinstance(x, int):
        return x, 0, 1, None
    if isinstance(x, QuadExt):
        return x.a, x.b, x.c, x.m
    a, c = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if isinstance(a, int) and isinstance(c, int):
        return a, 0, c, None
    return None


def _put(x: QuadExt, a: int, b: int, c: int, m: int | None) -> None:
    # the canonical fields of (a + b*sqrt(m))/c, c != 0, set on x
    if c < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(a, b, c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    put_a, put_b, put_c, put_m = QuadExt._setters
    put_a(x, a)
    put_b(x, b)
    put_c(x, c)
    put_m(x, m if b else None)


def _quotient(a1, b1, c1, m1, a2, b2, c2, m2) -> QuadExt:
    # x/y = x*c2*(a2 - b2*sqrt(m))/(a2^2 - b2^2 m); the norm is 0 only at y = 0
    m = common_field(m1, m2)
    norm = a2 * a2 - b2 * b2 * (m or 0)
    if norm == 0:
        raise ZeroDivisionError("division by zero")
    return QuadExt._in_field(
        c2 * (a1 * a2 - b1 * b2 * (m or 0)), c2 * (b1 * a2 - a1 * b2), c1 * norm, m
    )


_PARSE_RE = re.compile(r"^(?:(-?\d+)|\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\))(?:/(\d+))?$")


class _Value:
    """Immutable value over the fields named in _fields, which a subclass
    also lists as slots: equal only to a value of the same class with equal
    fields, hashed and pickled by them, shown as Name(field=value, ...).

    A constructor writes each field once, through the setter of its slot
    descriptor, which skips the lookup by name of object.__setattr__; the
    setters are recorded once per class, in _setters, in the order of the
    __slots__ the class declares.  __setattr__ and __delattr__ raise for
    every slot."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the key of equality and hash: the one field's value or a tuple
        cls._key = property(attrgetter(*cls._fields))
        # a subclass that declares no slots of its own keeps its parent's
        slots = cls.__dict__.get("__slots__", ())
        if slots:
            cls._setters = tuple(cls.__dict__[name].__set__ for name in slots)

    def __init__(self, *values):
        # the fields in order, unchecked, for a class whose slots are its
        # fields; a class with checks writes its own
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for put, value in zip(self._setters, values):
            put(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class QuadExt(_Value):
    """(a + b*sqrt(m))/c with gcd(a,b,c) = 1, c > 0 and m >= 2 a non-square,
    present exactly when b != 0.

    QuadExt(a, b, c, m), parse and from_radicand check that a, b and c are
    each an int (a bool raises TypeError too), c != 0 and, for b != 0, the
    radicand; equality, hashing and arithmetic assume the square-free m
    that from_radicand and parse give.  A value the package derives in a
    field it has checked or derived, an operator result, a dominant
    eigenvalue or a field built from a parameter vector's pairs, goes
    through _in_field, which puts it in canonical form but does not test
    the radicand again."""

    __slots__ = _fields = ("a", "b", "c", "m")

    def __init__(self, a: int, b: int = 0, c: int = 1, m: int | None = None):
        if not (type(a) is int and type(b) is int and type(c) is int):
            raise TypeError("field element parts must be int")
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        # b == 0 exactly when the canonical b is
        if b and (m is None or m < 2 or math.isqrt(m) ** 2 == m):
            raise ValueError("irrational part needs a non-square radicand >= 2")
        _put(self, a, b, c, m)

    @classmethod
    def _in_field(cls, a: int, b: int, c: int, m: int | None) -> QuadExt:
        # c != 0, and m a radicand the package has checked or derived
        x = object.__new__(cls)
        _put(x, a, b, c, m)
        return x

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

    # -- inspection --------------------------------------------------------

    def sign(self) -> int:
        return surd_sign(self.a, self.b, self.m)

    def floor(self) -> int:
        return surd_floor(self.a, self.b, self.m, self.c)

    def conjugate(self) -> QuadExt:
        if self.b == 0:
            return self
        return QuadExt._in_field(self.a, -self.b, self.c, self.m)

    # -- arithmetic ---------------------------------------------------------
    # each operator is one formula on the parts (a, b, c, m) of its operand

    def __add__(self, other):
        p = operand_parts(other)
        if p is None:
            return NotImplemented
        a, b, c, m = p
        return QuadExt._in_field(
            self.a * c + a * self.c, self.b * c + b * self.c, self.c * c, common_field(self.m, m)
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._in_field(-self.a, -self.b, self.c, self.m)

    def __sub__(self, other):
        p = operand_parts(other)
        if p is None:
            return NotImplemented
        a, b, c, m = p
        return QuadExt._in_field(
            self.a * c - a * self.c, self.b * c - b * self.c, self.c * c, common_field(self.m, m)
        )

    def __rsub__(self, other):
        p = operand_parts(other)
        if p is None:
            return NotImplemented
        a, b, c, m = p
        return QuadExt._in_field(
            a * self.c - self.a * c, b * self.c - self.b * c, self.c * c, common_field(m, self.m)
        )

    def __mul__(self, other):
        p = operand_parts(other)
        if p is None:
            return NotImplemented
        a, b, c, m = p
        m = common_field(self.m, m)
        return QuadExt._in_field(
            self.a * a + self.b * b * (m or 0), self.a * b + self.b * a, self.c * c, m
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = operand_parts(other)
        if p is None:
            return NotImplemented
        return _quotient(self.a, self.b, self.c, self.m, *p)

    def __rtruediv__(self, other):
        p = operand_parts(other)
        if p is None:
            return NotImplemented
        return _quotient(*p, self.a, self.b, self.c, self.m)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        p = operand_parts(other)
        if p is None:
            return NotImplemented
        return (self.a, self.b, self.c, self.m) == p

    def __hash__(self):
        if self.b == 0:
            # equal to a Fraction (or an int), so hashed as one; imported
            # here, so that the package loads without fractions and decimal
            from fractions import Fraction

            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.m))

    def _cmp(self, other) -> int | None:
        # sign of self - other, both denominators positive; None when other
        # is no field element
        p = operand_parts(other)
        if p is None:
            return None
        a, b, c, m = p
        return surd_sign(self.a * c - a * self.c, self.b * c - b * self.c, common_field(self.m, m))

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
        mt = _PARSE_RE.match(text.strip())
        if mt is None:
            raise ParseError(f"not a field element: {text!r}")
        rat, a, sign, b, n, den = mt.groups()
        c = int(den or 1)
        if c == 0:
            raise ParseError(f"zero denominator in {text!r}")
        if rat is not None:
            return cls(int(rat), 0, c)
        return cls.from_radicand(int(a), int(b) if sign == "+" else -int(b), c, int(n))
