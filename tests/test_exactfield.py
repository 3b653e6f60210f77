import ast
import math
import operator
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from sympy import integer_nthroot, nextprime, prevprime

from sturmrep.errors import DomainError, FieldMismatchError, ParseError
from sturmrep import exactfield
from sturmrep.exactfield import QuadExt, square_free_split
from sturmrep.words import SlopeIntercept

from oracles import square_free_oracle, surd_floor, surd_sign

ZERO = QuadExt(0)
ONE = QuadExt(1)
HALF = QuadExt(1, 0, 2)
SQUARE_FREE = (2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 19)

values = st.builds(
    QuadExt,
    st.integers(-50, 50),
    st.integers(-12, 12),
    st.integers(1, 30),
    st.sampled_from(SQUARE_FREE),
)
rationals = st.builds(QuadExt, st.integers(-50, 50), st.just(0), st.integers(1, 30))
same_field = st.builds(
    lambda m, parts: [QuadExt(a, b, c, m) for (a, b, c) in parts],
    st.sampled_from(SQUARE_FREE),
    st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-9, 9), st.integers(1, 12)),
        min_size=2,
        max_size=2,
    ),
)


def test_canonical_form():
    x = QuadExt(2, 4, 6, 5)
    assert (x.a, x.b, x.c, x.m) == (1, 2, 3, 5)
    assert QuadExt(1, 0, -2).c == 2 and QuadExt(1, 0, -2).a == -1
    assert QuadExt(3, 0, 1, 7).m is None  # rationals drop the field


def test_golden_ratio_identities():
    golden = QuadExt(1, 1, 2, 5)
    assert golden + golden.conjugate() == 1
    assert golden * QuadExt(-1, 1, 2, 5) == 1


def test_division_by_back_multiplication():
    num = QuadExt(0, 1, 3, 3)
    den = QuadExt(3, -1, 3, 3)
    q = num / den
    assert q * den == num
    assert q == QuadExt(1, 1, 2, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 1, 1, 2) / ZERO
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 0)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        QuadExt(1, 1, 1, 2) + QuadExt(1, 1, 1, 3)
    # rationals are field-agnostic
    assert QuadExt(1, 1, 1, 2) + QuadExt(2, 0, 1) == QuadExt(3, 1, 1, 2)


def test_sign_examples():
    assert QuadExt(1, -1, 1, 2).sign() == -1
    assert ZERO.sign() == 0
    assert QuadExt(7, -5, 1, 2).sign() == -1  # 5^2*2 = 50 > 49
    assert QuadExt(7, -4, 1, 3).sign() == 1  # 49 > 48


def test_floor_examples():
    assert QuadExt(1, 1, 2, 5).floor() == 1
    assert QuadExt(-1, -1, 2, 5).floor() == -2
    assert QuadExt(0, 100, 7, 2).floor() == 20
    assert QuadExt(9, 0, 4).floor() == 2


@given(values)
def test_floor_is_certified(x):
    k = x.floor()
    assert (x - k).sign() >= 0
    assert (x - (k + 1)).sign() < 0


@given(values)
def test_floor_matches_oracle(x):
    assert x.floor() == surd_floor(x.a, x.b, x.m, x.c)


@given(st.integers(-10**40, 10**40), st.integers(-10**20, 10**20),
       st.sampled_from(SQUARE_FREE), st.integers(1, 10**30))
def test_surd_floor_matches_oracle(a, b, m, c):
    assert exactfield.surd_floor(a, b, m, c) == surd_floor(a, b, m, c)


def _pell_unit(m: int, n: int) -> tuple[int, int]:
    # (x, y) with x + y*sqrt(m) the n-th power of the least solution of
    # x*x - m*y*y = +-1, so that x - y*sqrt(m) is about 1/(2x)
    x1, y1 = next((x, y) for y in range(1, 200) for x in [math.isqrt(m * y * y + 1)]
                  if abs(x * x - m * y * y) == 1)
    x, y = 1, 0
    for _ in range(n):
        x, y = x * x1 + y * y1 * m, x * y1 + y * x1
    return x, y


@given(st.sampled_from(SQUARE_FREE), st.integers(1, 12), st.integers(-10**6, 10**6),
       st.integers(1, 10**30), st.sampled_from((-1, 1)), st.integers(-1, 1))
def test_surd_floor_near_integers(m, n, k, c, s, shift):
    # (a + b*sqrt(m))/c = k + (s*(x - y*sqrt(m)) + shift)/c lies within
    # 1/(2xc) of k + shift/c, on either side; a and b take both signs
    x, y = _pell_unit(m, n)
    a, b = k * c + s * x + shift, -s * y
    assert exactfield.surd_floor(a, b, m, c) == surd_floor(a, b, m, c)


@given(values)
def test_sign_matches_oracle(x):
    assert x.sign() == surd_sign(x.a, x.b, x.m)


def test_surd_sign_on_raw_pairs_near_zero():
    # the 2iet loop hands surd_sign unreduced integer pairs; Pell solutions
    # x*x - m*y*y = +-1 put a + b*sqrt(m) as close to 0 as integers allow
    for m in SQUARE_FREE:
        for n in range(1, 31):
            a, b = _pell_unit(m, n)
            for f in (1, 6, 10**12):
                for pa, pb in ((f * a, -f * b), (-f * a, f * b), (f * a, f * b), (0, -f * b)):
                    assert exactfield.surd_sign(pa, pb, m) == surd_sign(pa, pb, m)
    assert exactfield.surd_sign(-4, 0, None) == -1


@given(same_field)
def test_conjugation_is_a_homomorphism(pair):
    x, y = pair
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(values)
def test_conjugation_is_an_involution(x):
    assert x.conjugate().conjugate() == x


@given(rationals)
def test_conjugation_fixes_rationals(x):
    assert x.conjugate() == x


@pytest.mark.parametrize("p", range(3, 25))
def test_quadratic_units(p):
    lam = QuadExt.from_radicand(p, 1, 2, p * p - 4)
    assert lam * lam.conjugate() == 1
    assert lam * lam - p * lam + 1 == 0
    assert lam > 1


def test_normalize_radicand():
    assert QuadExt.from_radicand(0, 1, 2, 12) == QuadExt(0, 1, 1, 3)
    assert QuadExt.from_radicand(0, 1, 1, 4) == 2
    x = QuadExt.from_radicand(4, 2, 2, 12)
    assert (x.a, x.b, x.c, x.m) == (2, 2, 1, 3)
    assert (x - 2) * (x - 2) == 12  # confirm by squaring
    assert QuadExt.from_radicand(5, 3, 2, 0) == QuadExt(5, 0, 2)


@pytest.mark.parametrize("m", [0, 1, 4, 9, 16, 144, 10**20])
def test_perfect_square_radicand_is_rejected(m):
    # sqrt(4)/3 is the rational 2/3; as an irrational value it would compare
    # unequal to 2/3 and break the sign test that assumes sqrt(m) irrational
    with pytest.raises(ValueError, match="non-square radicand >= 2"):
        QuadExt(0, 1, 3, m)
    r = math.isqrt(m)
    assert QuadExt.from_radicand(0, 1, 3, m) == QuadExt(r, 0, 3)
    assert QuadExt.parse(f"(0+1*sqrt({m}))/3") == QuadExt(r, 0, 3)
    with pytest.raises(DomainError, match="rational slope"):
        SlopeIntercept(QuadExt.from_radicand(0, 1, 3, m), 0)


@given(st.integers(0, 10_000))
def test_square_free_split(n):
    f, m = square_free_split(n)
    assert f * f * m == n
    d = 2
    while d * d <= m:
        assert m % (d * d) != 0
        d += 1


def primes_around(x):
    """The prime below x, the least prime >= x and the prime above x."""
    return prevprime(x), nextprime(x - 1), nextprime(x)


def boundary_cases(bits):
    """n of about `bits` bits whose primes sit at the cube-root and
    square-root bounds of n, where the trial division stops."""
    n = 1 << bits
    cube, root = integer_nthroot(n, 3)[0], math.isqrt(n)
    for p in primes_around(cube):
        yield p * p
        yield p * p * p
        yield p * nextprime(n // p)
        yield p * prevprime(n // p)
        q = nextprime(p)
        yield p * p * q
        yield q * q * p
        yield p * q * nextprime(q)
        yield p * p * prevprime(n // (p * p))
    for p in primes_around(root):
        yield p * p
        yield p * nextprime(p)
        yield p * prevprime(p)
    for k in (1, 5, 12):
        for x in (math.isqrt(n >> k), integer_nthroot(n >> k, 3)[0]):
            for p in primes_around(x):
                yield (p * p) << k
    # the first prime at or above the cube root in each class the mod-30
    # wheel steps through, squared, cubed and times a cofactor prime
    for r in (1, 7, 11, 13, 17, 19, 23, 29):
        p = nextprime(cube - 1)
        while p % 30 != r:
            p = nextprime(p)
        yield p * p
        yield p * p * p
        yield p * prevprime(n // p)
    # high powers of the stripped primes 2, 3 and 5 times a prime near the
    # cube root, odd and even exponents, up to about n
    for q in (2, 3, 5):
        e = 1
        while q ** (e + 2) * cube <= n:
            e += 1
        for p in primes_around(cube):
            for k in (e - 1, e, e + 1):
                yield q**k * p
                yield q**k * p * p


@pytest.mark.parametrize("bits", [24, 36, 48])
def test_square_free_split_at_the_cube_root_bound(bits):
    for n in boundary_cases(bits):
        assert square_free_split(n) == square_free_oracle(n), n


def test_square_free_split_against_a_sieve():
    # (f, m) of every n up to 10^5 from its factorization by a
    # smallest-prime-factor sieve
    top = 10**5
    spf = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if spf[p] == p:
            for k in range(p * p, top + 1, p):
                if spf[k] == k:
                    spf[k] = p
    assert square_free_split(0) == (0, 1)
    for n in range(1, top + 1):
        f = m = 1
        k = n
        while k > 1:
            p, e = spf[k], 0
            while k % p == 0:
                k //= p
                e += 1
            f *= p ** (e // 2)
            m *= p ** (e % 2)
        assert square_free_split(n) == (f, m), n


def test_oracles_import_sympy_only_inside_the_oracles():
    # the benchmark's reference checks import tests/oracles.py, and a
    # module-level sympy import there cost each benchmark run about 0.3 s
    # and 30 MB of set-up
    tests = Path(__file__).resolve().parent
    child = f"import sys; sys.path.insert(0, {str(tests)!r}); import oracles; print('sympy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@given(st.integers(1, 2**40))
def test_square_free_split_matches_factorization(n):
    assert square_free_split(n) == square_free_oracle(n)


@given(values | rationals)
def test_parse_print_round_trip(x):
    assert QuadExt.parse(str(x)) == x


def test_parse_examples():
    assert QuadExt.parse("(0+1*sqrt(3))/3") == QuadExt(0, 1, 3, 3)
    assert QuadExt.parse("(1-1*sqrt(5))/2") == QuadExt(1, -1, 2, 5)
    assert QuadExt.parse("(0+1*sqrt(12))/2") == QuadExt(0, 1, 1, 3)
    assert QuadExt.parse("-7") == QuadExt(-7)
    assert QuadExt.parse("3/6") == HALF
    assert QuadExt.parse("(1+1*sqrt(2))") == QuadExt(1, 1, 1, 2)
    assert QuadExt.parse("007/014") == HALF
    assert QuadExt.parse("(1+1*sqrt(9))/2") == QuadExt(2)
    for bad in ("(1+1*sqrt(2))/0", "-3/0"):
        with pytest.raises(ParseError, match="^zero denominator in "):
            QuadExt.parse(bad)
    for bad in ("sqrt(2)", "(1+sqrt(2))/2", "1 + 2", "", "1/2/3", "(1+1*sqrt(2))/",
                "+1", "1/-2", "(1 + 1*sqrt(2))"):
        with pytest.raises(ParseError, match="^not a field element: "):
            QuadExt.parse(bad)


def test_ordering_and_arith_with_ints_and_fractions():
    x = QuadExt(1, 1, 2, 5)
    assert 1 < x < 2
    assert x + Fraction(1, 2) == QuadExt(2, 1, 2, 5)
    assert 2 * x - x == x
    assert (1 - x).sign() < 0
    assert 1 / QuadExt(2, 0, 1) == HALF
    assert sorted([x, ONE, ZERO]) == [ZERO, ONE, x]


comparable = (
    same_field
    | st.tuples(values, rationals).map(list)
    | st.tuples(rationals, values).map(list)
    | st.tuples(rationals, rationals).map(list)
    | values.map(lambda x: [x, x])
)


@given(comparable)
def test_ordering_matches_oracle_sign_of_difference(pair):
    x, y = pair
    m = x.m or y.m
    # x - y over the denominator x.c * y.c
    s = surd_sign(x.a * y.c - y.a * x.c, x.b * y.c - y.b * x.c, m)
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)


@given(values | rationals, st.integers(-60, 60), st.integers(1, 12))
def test_int_operands_equal_their_quadext(x, n, d):
    # an int or Fraction operand r goes through the same formula on parts as
    # the QuadExt of equal value, in both operand orders
    for r in (n, Fraction(n, d)):
        q = QuadExt(r.numerator, 0, r.denominator)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for args, qargs in (((x, r), (x, q)), ((r, x), (q, x))):
                if op is operator.truediv and qargs[1] == 0:
                    continue
                got, want = op(*args), op(*qargs)
                assert (got.a, got.b, got.c, got.m) == (want.a, want.b, want.c, want.m)
                assert hash(got) == hash(want)
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
            assert op(x, r) == op(x, q) and op(r, x) == op(q, x)
        if x == r:
            assert hash(x) == hash(r) == hash(q)
    for zero in (0, Fraction(0), ZERO):
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            x / zero
    if x == 0:
        for r in (n, Fraction(n, d), QuadExt(n)):
            with pytest.raises(ZeroDivisionError, match="^division by zero$"):
                r / x


def test_mixed_field_comparison_names_both_fields():
    x, y = QuadExt(1, 1, 1, 2), QuadExt(0, 1, 3, 3)
    for cmp in (lambda p, q: p < q, lambda p, q: p <= q,
                lambda p, q: p > q, lambda p, q: p >= q):
        with pytest.raises(FieldMismatchError, match=r"^cannot mix sqrt\(2\) with sqrt\(3\)$"):
            cmp(x, y)
        with pytest.raises(FieldMismatchError, match=r"^cannot mix sqrt\(3\) with sqrt\(2\)$"):
            cmp(y, x)


def test_hash_consistency_with_rationals():
    assert hash(QuadExt(4, 0, 2)) == hash(2) == hash(QuadExt(2))
    assert hash(QuadExt(1, 0, 2)) == hash(Fraction(1, 2))
    assert len({QuadExt(1, 1, 2, 5), QuadExt(2, 2, 4, 5)}) == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_unreduced_radicand_equals_its_square_free_form():
    # the constructor accepts any non-square radicand, but equality, hashing
    # and the field join compare radicands as written
    x, y = QuadExt(0, 1, 1, 8), QuadExt(0, 2, 1, 2)
    assert x == y
    assert hash(x) == hash(y)
    assert x + y == QuadExt(0, 4, 1, 2)



def test_no_float_in_the_library():
    # every decision is exact: no float literal, no float() or round(), math
    # only for integer routines, and no float-based module.  verify.py is
    # exempt: its 0.5 and 0.1 only draw random samples.
    math_ok = {"isqrt", "gcd", "lcm"}
    banned_modules = {"decimal", "cmath", "statistics"}
    sources = sorted(Path(exactfield.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        if path.name == "verify.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        for node in nodes:
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, float), f"{where}: float literal"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("float", "round"), f"{where}: {node.func.id}()"
            elif isinstance(node, ast.Import):
                assert not {a.name for a in node.names} & banned_modules, where
                assert all(a.asname is None for a in node.names if a.name == "math"), where
            elif isinstance(node, ast.ImportFrom):
                assert node.module not in banned_modules, where
                if node.module == "math":
                    assert {a.name for a in node.names} <= math_ok, where
        # math appears only as math.isqrt, math.gcd or math.lcm
        uses = [n for n in nodes if isinstance(n, ast.Name) and n.id == "math"]
        attrs = [n for n in nodes if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "math"]
        assert len(uses) == len(attrs), f"{path.name}: bare use of math"
        assert {n.attr for n in attrs} <= math_ok, path.name


FIELDS = (2, 3, 5, 7, 13)


@st.composite
def field_operands(draw):
    """Two operands over one of FIELDS: QuadExt values with any b, b = 0
    included, ints and Fractions, and a value with its own conjugate, so
    that some results fall back to the rationals."""
    m = draw(st.sampled_from(FIELDS))
    parts = st.tuples(st.integers(-30, 30), st.integers(-9, 9), st.integers(1, 12))
    x = QuadExt(*draw(parts), m)
    other = draw(
        st.one_of(
            parts.map(lambda p: QuadExt(*p, m)),
            st.just(x.conjugate()),
            st.integers(-30, 30),
            st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
        )
    )
    return m, x, other


def _parts(v):
    # (a, b, c) of an int, Fraction or QuadExt
    if isinstance(v, QuadExt):
        return v.a, v.b, v.c
    v = Fraction(v)
    return v.numerator, 0, v.denominator


def _by_public_constructor(op, x, y, m):
    # the unreduced formula of each operator on parts, built by QuadExt(...)
    (a1, b1, c1), (a2, b2, c2) = _parts(x), _parts(y)
    if op is operator.add:
        return QuadExt(a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2, m)
    if op is operator.sub:
        return QuadExt(a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, c1 * c2, m)
    if op is operator.mul:
        return QuadExt(a1 * a2 + b1 * b2 * m, a1 * b2 + b1 * a2, c1 * c2, m)
    norm = a2 * a2 - b2 * b2 * m
    return QuadExt(c2 * (a1 * a2 - b1 * b2 * m), c2 * (b1 * a2 - a1 * b2), c1 * norm, m)


def _same_value(got, want):
    assert type(got) is QuadExt
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


@given(field_operands())
def test_operator_results_equal_their_publicly_built_twins(operands):
    # operator results skip the radicand test of QuadExt(...): each must be
    # the canonical value that the checking constructor gives, b = 0
    # (and with it m = None) included
    m, x, y = operands
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for p, q in ((x, y), (y, x)):
            if op is operator.truediv and q == 0:
                continue
            _same_value(op(p, q), _by_public_constructor(op, p, q, m))
    _same_value(-x, QuadExt(-x.a, -x.b, x.c, m))
    _same_value(x.conjugate(), QuadExt(x.a, -x.b, x.c, m))


def test_the_public_constructor_refuses_a_missing_radicand_and_a_zero_denominator():
    for m in (None, -3):
        with pytest.raises(ValueError, match="^irrational part needs a non-square radicand >= 2$"):
            QuadExt(1, 1, 1, m)
    # the denominator is tested first, as before the radicand test moved
    # ahead of the canonical form
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        QuadExt(1, 1, 0, 4)
