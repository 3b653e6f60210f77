"""Binary words and one-sided infinite {0,1} sequences.

Finite words are plain str over "01".  Infinite sequences are PrefixStream
objects fed by iterators of str blocks of letters.  Their one engine is the
orbit coding of a two-interval exchange, run on denominator-cleared integer
pairs with exact sign tests and floors, never floats.  The runs of the
repeated letter code the induced exchange (one Euclid step, or Rauzy
induction), so the engine goes down level by level, composing the run
words, until a run holds 64 letters or more; there one sign test decides a
run.  A parameter vector is those integer pairs, checked once: slopes
and intercepts, eigenvectors and the maps on vectors build it from pairs,
and each read of a QuadExt field builds it from them.  Each vector holds
one run of the engine, which all its streams read; a seek starts the
orbit at any letter after one exact floor.  A mechanical sequence of slope
alpha and intercept delta is the coding of the parameter vector
(1-alpha, alpha, delta), see params_of.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import DomainError
from .exactfield import QuadExt, _Value, common_field, operand_parts, surd_floor, surd_sign

LOWER = "lower"
UPPER = "upper"
_BLOCK = 256  # most letters per step of PrefixStream.blocks()
# Caps work on a stream without a vector, whose letters need not recur: the
# square scan (Thue-Morse has no square prefix) and a morphism with one
# empty image (an erased tail maps to nothing).
DEFAULT_SCAN_BOUND = 10_000


class PrefixStream:
    """Deterministic on-demand {0,1} sequence over source, an iterator of
    str blocks of ASCII letters, one letter or many per step; a non-ASCII
    letter raises DomainError naming it when its block is read.  Blocks are
    buffered whole as they are read, so prefix() is idempotent and several
    consumers may read one stream at independent positions; blocks() hands
    the letters on in blocks of at most 256.  params, read-only, is None
    but on the streams of iet_stream, which set it to the vector they code
    and share its buffer; with it, slice(i, j) with i over 512 letters past
    the buffer seeks to letter i on a source of its own and costs j - i
    letters, and the buffer stays a prefix.
    """

    __slots__ = ("_source", "_buffer", "_params")
    params = property(lambda stream: stream._params)

    def __init__(self, source: Iterator[str]):
        self._source = source
        self._buffer = bytearray()
        self._params = None

    def _fill(self, n: int) -> bool:
        # False when a finite source ends before the buffer holds n letters
        buffer = self._buffer
        try:
            while len(buffer) < n:
                block = next(self._source)
                # one byte per letter, so the buffer slices by letter; the
                # check costs less than encode("ascii")
                if not block.isascii():
                    bad = next(ch for ch in block if not ch.isascii())
                    raise DomainError(f"non-ASCII letter {bad!r} in a stream")
                buffer += block.encode()
        except StopIteration:
            return False
        return True

    def _ensure(self, n: int) -> None:
        if not self._fill(n):
            raise DomainError(f"the stream has only {len(self._buffer)} letters, {n} needed")

    def prefix(self, n: int) -> str:
        if n < 0:
            raise ValueError("length must be non-negative")
        self._ensure(n)
        return self._buffer[:n].decode()

    def slice(self, i: int, j: int) -> str:
        if not 0 <= i <= j:
            raise ValueError(f"slice needs 0 <= i <= j, got i={i}, j={j}")
        # a seek costs about 500 letters of the engine: nearer starts extend
        v = self._params
        if v is not None and i > len(self._buffer) + 512:
            return PrefixStream(_iet_letters(v.pairs, v.boundary, i)).prefix(j - i)
        self._ensure(j)
        return self._buffer[i:j].decode()

    def __getitem__(self, i: int) -> str:
        if i < 0:
            raise ValueError("position must be non-negative")
        return self.slice(i, i + 1)

    def blocks(self) -> Iterator[str]:
        # a bounded block: a consumer after a long read-ahead gets the
        # letters it reads, not the whole buffer
        i = 0
        while self._fill(i + 1):  # a finite source ends once its letters are handed on
            block = self._buffer[i : i + _BLOCK].decode()
            i += len(block)
            yield block


def _as_field(x) -> QuadExt:
    p = operand_parts(x)
    if p is None:
        raise TypeError(f"expected a field element, got {type(x).__name__}")
    # a QuadExt passes as it is: rebuilding it would repeat its canonical form
    return x if isinstance(x, QuadExt) else QuadExt(*p)


class SlopeIntercept(_Value):
    """Slope alpha in (0,1), irrational; intercept delta in [0,1) for the
    lower sequence, [0,1] for the upper one.  params is the ParamVector of
    its mechanical sequence (see params_of), built once from integer pairs
    after the checks, so a slope and an intercept from two fields raise
    FieldMismatchError here; it is derived, so equality, hash, repr and
    pickling read the three fields only."""

    _fields = ("alpha", "delta", "kind")
    __slots__ = (*_fields, "params")

    def __init__(self, alpha: QuadExt, delta: QuadExt, kind: str = LOWER):
        alpha, delta = _as_field(alpha), _as_field(delta)
        if kind not in (LOWER, UPPER):
            raise ValueError(f"kind must be {LOWER!r} or {UPPER!r}")
        a, b, c, m = alpha.a, alpha.b, alpha.c, alpha.m
        if b == 0:
            raise DomainError("rational slope generates a periodic sequence")
        if surd_sign(a, b, m) <= 0 or surd_sign(a - c, b, m) >= 0:
            raise DomainError("slope must lie in (0,1)")
        # 0 <= delta < 1, or delta <= 1 for the upper kind
        da, db, dc = delta.a, delta.b, delta.c
        upper = kind == UPPER
        if surd_sign(da, db, delta.m) < 0 or surd_sign(da - dc, db, delta.m) >= upper:
            raise DomainError("intercept out of range")
        put_alpha, put_delta, put_kind, put_params = self._setters
        put_alpha(self, alpha)
        put_delta(self, delta)
        put_kind(self, kind)
        # (1-alpha, alpha, delta) over lcm(c, dc); a zero intercept means
        # rho = l0+l1 for the upper sequence
        den = math.lcm(c, dc)
        k, kd = den // c, den // dc
        rho = (den, 0) if upper and da == db == 0 else (da * kd, db * kd)
        pairs = (common_field(delta.m, m), ((c - a) * k, -b * k), (a * k, b * k), rho)
        put_params(self, ParamVector._from_pairs(pairs, den, kind))


class ParamVector(_Value):
    """Interval lengths l0, l1 > 0 and starting point rho of a 2iet orbit.

    lower coding uses [0,l0) and [l0,l0+l1), so 0 <= rho < l0+l1;
    upper coding uses (0,l0] and (l0,l0+l1], so 0 < rho <= l0+l1.
    pairs is (m, l0, l1, rho) with each value an integer pair (a, b) for
    (a + b*sqrt(m))/den over one denominator den > 0, the seven integers
    without a common factor, so the pairs are canonical.  They are what
    the vector is built from, checked and coded, and all it stores: the
    domain checks, the 2iet engine and the maps on vectors (_image) read
    them, and each read of l0, l1 or rho builds that QuadExt from them.
    Equality, hash, repr, pickling and copies read the four fields.

    _letters holds the one letter source of its 2iet sequence and the
    buffer its streams share, which iet_stream makes on first use, so the
    sequence is coded once however many streams read it and its letters
    stay buffered as long as the vector lives.  Like pairs, it is no field,
    and a copy starts with none.
    """

    _fields = ("l0", "l1", "rho", "boundary")
    __slots__ = ("boundary", "pairs", "den", "_letters")
    l0 = property(lambda v: QuadExt(*v.pairs[1], v.den, v.pairs[0]))
    l1 = property(lambda v: QuadExt(*v.pairs[2], v.den, v.pairs[0]))
    rho = property(lambda v: QuadExt(*v.pairs[3], v.den, v.pairs[0]))

    def __init__(self, l0: QuadExt, l1: QuadExt, rho: QuadExt, boundary: str = LOWER):
        l0, l1, rho = _as_field(l0), _as_field(l1), _as_field(rho)
        if boundary not in (LOWER, UPPER):
            raise ValueError(f"boundary must be {LOWER!r} or {UPPER!r}")
        # l0 + l1 is rational for every params_of output, so the range test
        # below would let a rho from another field through
        m = common_field(common_field(rho.m, l0.m), l1.m)
        den = math.lcm(l0.c, l1.c, rho.c)
        pairs = [(p.a * (den // p.c), p.b * (den // p.c)) for p in (l0, l1, rho)]
        self._init_pairs((m, *pairs), den, boundary)

    @classmethod
    def _from_pairs(cls, pairs: tuple, den: int, boundary: str) -> ParamVector:
        # the vector of (m, l0, l1, rho) pairs over den != 0; the caller
        # passes a valid boundary and m, which is None only with no surd
        v = cls.__new__(cls)
        v._init_pairs(pairs, den, boundary)
        return v

    def _init_pairs(self, pairs: tuple, den: int, boundary: str) -> None:
        m, (l0a, l0b), (l1a, l1b), (xa, xb) = pairs
        # the pairs over the least positive den are those of the lcm of the
        # fields' canonical denominators
        g = math.gcd(den, l0a, l0b, l1a, l1b, xa, xb) * (1 if den > 0 else -1)
        if g != 1:
            den, l0a, l0b, l1a, l1b = den // g, l0a // g, l0b // g, l1a // g, l1b // g
            xa, xb = xa // g, xb // g
        if surd_sign(l0a, l0b, m) <= 0 or surd_sign(l1a, l1b, m) <= 0:
            raise DomainError("interval lengths must be positive")
        # 0 <= x < l0+l1, or 0 < x <= l0+l1 for the upper kind
        upper = boundary == UPPER
        if surd_sign(xa, xb, m) < upper or surd_sign(xa - l0a - l1a, xb - l0b - l1b, m) >= upper:
            raise DomainError("starting point outside the exchanged intervals")
        put_boundary, put_pairs, put_den, put_letters = self._setters
        put_boundary(self, boundary)
        put_pairs(self, (m, (l0a, l0b), (l1a, l1b), (xa, xb)))
        put_den(self, den)
        put_letters(self, None)  # (source, buffer), see iet_stream

    def _image(self, rows, scale: int = 1) -> ParamVector:
        # the integer rows (p, q, t) applied to (l0, l1, rho), over
        # scale * den, boundary kind unchanged
        m, (l0a, l0b), (l1a, l1b), (xa, xb) = self.pairs
        pairs = [(p * l0a + q * l1a + t * xa, p * l0b + q * l1b + t * xb) for p, q, t in rows]
        return ParamVector._from_pairs((m, *pairs), scale * self.den, self.boundary)


# the setter of the slot _letters, which a vector fills after its constructor
_PUT_LETTERS = ParamVector._setters[3]


def _repeated(word: str, n: int) -> Iterator[str]:
    # n copies of word in blocks of about 64 letters
    k = max(1, 64 // len(word))
    return (word * min(k, n - i) for i in range(0, n, k))


def _most_steps(ua: int, ub: int, va: int, vb: int, m: int, strict: bool) -> int:
    # the largest k with k*v <= u, or k*v < u when strict, for pairs (a, b)
    # standing for a + b*sqrt(m) and v > 0: one floor of u*conj(v)/norm(v)
    n, a, b = va * va - vb * vb * m, ua * va - ub * vb * m, ub * va - ua * vb
    if n < 0:
        n, a, b = -n, -a, -b
    return -surd_floor(-a, -b, m, n) - 1 if strict else surd_floor(a, b, m, n)


def _iet_letters(pairs: tuple, boundary: str, start: int = 0) -> Iterator[str]:
    # Integer pairs (a, b) stand for (a + b*sqrt(m))/den.  Each level codes
    # the exchange (l0, l1, x) with its letters standing for the words zero
    # and one.  For l1 > l0 the coding of (l1, l0, l0+l1-x), other boundary
    # kind, is its letter exchange.  With l0 > l1 each one is followed by q
    # or q+1 zeros, q = floor(l0/l1), and after a head of zeros these runs
    # code the exchange (r, l1-r, x-l0), r = l0 - q*l1, of the same kind.
    # It takes the vector's pairs, not the vector, which holds the source:
    # a frame holding the vector would make a cycle that only gc frees.
    m, (l0a, l0b), (l1a, l1b), (xa, xb) = pairs
    upper = boundary == UPPER
    if start:  # rotation by l1, into [0, total) or, upper, into (0, total]
        xa, xb = xa + start * l1a, xb + start * l1b
        k = _most_steps(xa, xb, l0a + l1a, l0b + l1b, m, upper)
        xa, xb = xa - k * (l0a + l1a), xb - k * (l0b + l1b)
    zero, one = "0", "1"
    while True:
        if surd_sign(l1a - l0a, l1b - l0b, m) > 0:
            l0a, l0b, l1a, l1b = l1a, l1b, l0a, l0b
            xa, xb = l0a + l1a - xa, l0b + l1b - xb
            upper, zero, one = not upper, one, zero
        q = _most_steps(l0a, l0b, l1a, l1b, m, False)
        # x codes zero while x < l0 (x <= l0, upper), each a step by l1
        head = _most_steps(l0a - xa, l0b - xb, l1a, l1b, m, not upper) + 1
        if head > 0:
            if head * len(zero) <= 64:  # the one block _repeated would yield
                yield zero * head
            else:
                yield from _repeated(zero, head)
            xa, xb = xa + head * l1a, xb + head * l1b
        if len(one) + q * len(zero) >= 64:  # every q >= 64 stops here
            break
        # one Euclid step: the runs one+zero*(q+1) and one+zero*q are the
        # letters of the next level
        ra, rb = l0a - q * l1a, l0b - q * l1b
        xa, xb, l0a, l0b, l1a, l1b = xa - l0a, xb - l0b, ra, rb, l1a - ra, l1b - rb
        zero, one = one + zero * (q + 1), one + zero * q
    # the deepest level: from a one at x the next one is q zeros on, at x -
    # l0 + q*l1, or q+1 when x - t has sign < upper, t = 2*l0 - q*l1; d is
    # x - t.  A run has 64 letters or more here, so it is a block by itself.
    da, db = xa - 2 * l0a + q * l1a, xb - 2 * l0b + q * l1b
    sa, sb = q * l1a - l0a, q * l1b - l0b
    tail = q if q >= 64 else 0  # a longer run ends in q zeros in pieces
    short, long = one + zero * (q - tail), one + zero * (q + 1 - tail)
    while True:
        if surd_sign(da, db, m) < upper:
            yield long
            da, db = da + sa + l1a, db + sb + l1b
        else:
            yield short
            da, db = da + sa, db + sb
        if tail:
            yield from _repeated(zero, tail)


def iet_stream(v: ParamVector) -> PrefixStream:
    """The coding of the orbit of rho under the exchange of two intervals
    of lengths l0 and l1, as a stream over the vector's one letter source.
    This is the one place that gives a stream its params and a buffer it
    shares: a read through one stream of the vector extends the buffer for
    all, so none runs the engine for letters another has read (nothing
    locks it: the library is single-threaded).  A source that has ended can
    only have been stopped by an exception in a read, such as
    KeyboardInterrupt; the next call starts a new one, and the streams of
    the old one stay as they were."""
    # the slope l1/(l0+l1) is rational when the numerators of l0 and l1 are
    # proportional
    _, (l0a, l0b), (l1a, l1b), _ = v.pairs
    if l0a * l1b == l0b * l1a:
        raise DomainError("rational slope generates a periodic sequence")
    letters = v._letters
    if letters is None or letters[0].gi_frame is None:  # none yet, or ended
        letters = (_iet_letters(v.pairs, v.boundary), bytearray())
        _PUT_LETTERS(v, letters)
    stream = PrefixStream(letters[0])
    stream._params, stream._buffer = v, letters[1]
    return stream


def iet_code(v: ParamVector, n: int) -> str:
    """First n letters of the coding of the orbit of rho under the exchange
    of two intervals of lengths l0 and l1."""
    return iet_stream(v).prefix(n)


def params_of(si: SlopeIntercept) -> ParamVector:
    """Parameter vector of the mechanical sequence: (1-alpha, alpha, delta),
    except that a zero intercept means rho = l0+l1 for the upper sequence.
    SlopeIntercept builds it once as si.params, which this returns."""
    return si.params


def mechanical_stream(si: SlopeIntercept) -> PrefixStream:
    return iet_stream(params_of(si))


def mechanical(si: SlopeIntercept, n: int) -> str:
    """First n letters of the mechanical sequence with the given slope,
    intercept and boundary kind."""
    return mechanical_stream(si).prefix(n)

