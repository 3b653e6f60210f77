"""Fixed points of primitive morphisms of the monoid.

The parameter vector of the fixed point is the dominant eigenvector of the
representation matrix, solved symbolically over Q(sqrt(m)) and normalized
to l0 + l1 = 1 so that rho coincides with the intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NotPrimitiveError
from .exactfield import QuadExt, square_free_split
from .morphisms import (
    BinaryMorphism,
    D,
    DT,
    G,
    GT,
    GenWord,
    format_genword,
)
from .representation import rep
# params_of is re-exported: sturmrep.dynamics.params_of stays public
from .words import LOWER, UPPER, ParamVector, PrefixStream, iet_stream, params_of


def image_params(word: GenWord, v: ParamVector) -> ParamVector:
    """Parameter vector of the image sequence: the representation matrix
    applied to the vector, boundary kind unchanged."""
    x, y, z = rep(word).apply((v.l0, v.l1, v.rho))
    return ParamVector(x, y, z, v.boundary)


@dataclass(frozen=True)
class EigenData:
    """Dominant eigenvalue (a quadratic unit > 1), the eigenvector scaled to
    l0 + l1 = 1, and the square-free radicand of their field."""

    eigenvalue: QuadExt
    vector: ParamVector
    field: int


def dominant_eigen(word: GenWord) -> EigenData:
    matrix = rep(word)
    block = matrix.block()
    if not block.is_primitive():
        raise NotPrimitiveError(f"{format_genword(word) or 'identity'} is not primitive")
    a, b, c, d, e, f = matrix.named()
    p = a + d
    # eigenvalue root of X^2 - pX + 1; radicand p^2-4 = (p-2)(p+2)
    f1, m1 = square_free_split(p - 2)
    f2, m2 = square_free_split(p + 2)
    g = math.gcd(m1, m2)
    root_scale = f1 * f2 * g
    m = (m1 // g) * (m2 // g)
    assert m >= 2, "primitive trace must give an irrational unit"
    lam = QuadExt(p, root_scale, 2, m)
    # top block row: (a - lam) x + b y = 0, normalized to x + y = 1
    x = b / (b + lam - a)
    y = 1 - x
    z = (e * x + f * y) / (lam - 1)
    assert x.sign() > 0 and y.sign() > 0 and 0 <= z <= 1
    boundary = UPPER if z == 1 else LOWER
    return EigenData(lam, ParamVector(x, y, z, boundary), m)


def fixed_point_params(word: GenWord) -> ParamVector:
    """Parameter vector of the unique Sturmian sequence fixed by the
    morphism; upper boundary exactly when rho = l0+l1."""
    return dominant_eigen(word).vector


def fixed_point_stream(word: GenWord) -> PrefixStream:
    return iet_stream(fixed_point_params(word))


def iterate_fixed_point(phi: BinaryMorphism, first_letter: str, n: int) -> str:
    """Prefix of the fixed point of phi starting with first_letter, grown by
    iterating phi; requires phi(first_letter) to start with that letter and
    to be expanding."""
    stuck = f"no expanding fixed point starts with {first_letter!r} for {phi}"
    img = phi.apply(first_letter)
    if not img.startswith(first_letter) or len(img) < 2:
        raise DomainError(stuck)
    # k letters map to >= k * (shortest image) letters: s[:k] reaches n once len(s) >= k
    k = -(-n // (min(len(phi.image0), len(phi.image1)) or 1))
    s = first_letter
    while len(s) < n:
        grown = phi.apply(s[:k])
        # each round's prefix starts with the last one, so a round that does
        # not lengthen it leaves it stuck for good
        if len(grown) == len(s):
            raise DomainError(stuck)
        s = grown
    return s[:n]


RHO_EQ_L0_PLUS_L1 = "rho_eq_l0_plus_l1"
RHO_EQ_L1 = "rho_eq_l1"
RHO_EQ_L0 = "rho_eq_l0"
RHO_EQ_0 = "rho_eq_0"
UNCONSTRAINED = "unconstrained"

_CLASS_TABLE = (
    (RHO_EQ_L0_PLUS_L1, frozenset({GT, D})),
    (RHO_EQ_L1, frozenset({G, D})),
    (RHO_EQ_L0, frozenset({GT, DT})),
    (RHO_EQ_0, frozenset({G, DT})),
)


def intercept_class(word: GenWord) -> tuple[str, ...]:
    """Intercept constraints forced by the two-generator alphabet the word
    stays inside; all applicable constraints are reported (the alphabets
    overlap), and ("unconstrained",) when none applies."""
    alphabet = set(word)
    found = tuple(tag for tag, gens in _CLASS_TABLE if alphabet <= gens)
    return found if found else (UNCONSTRAINED,)


def dekking_mirror(word: GenWord) -> GenWord:
    """Tokenwise companion over {G', D} of a word over {G, D'}; it fixes the
    upper sequence with zero intercept paired with the word's lower one."""
    table = {G: GT, DT: D}
    bad = set(word) - set(table)
    if bad:
        raise DomainError(
            f"word must stay in {{G, D'}}, found {', '.join(g.token for g in sorted(bad, key=lambda x: x.name))}"
        )
    return tuple(table[g] for g in word)


@dataclass(frozen=True)
class YasutomiReport:
    ok: bool
    same_field: bool
    conjugate_in_bounds: bool
    alpha: QuadExt
    delta: QuadExt

    def __bool__(self) -> bool:
        return self.ok

    def as_text(self) -> str:
        lines = [
            f"alpha={self.alpha}",
            f"delta={self.delta}",
            f"same_field={'yes' if self.same_field else 'no'}",
            f"conjugate_in_bounds={'yes' if self.conjugate_in_bounds else 'no'}",
            f"ok={'yes' if self.ok else 'no'}",
        ]
        return "\n".join(lines)

    __str__ = as_text


def yasutomi_condition(alpha: QuadExt, delta: QuadExt) -> YasutomiReport:
    """Necessary condition for a lower sequence to be fixed by a primitive
    morphism: slope and intercept share one quadratic field, and the Galois
    conjugate of the intercept lies between those of the slope and co-slope.
    """
    same = alpha.m is None or delta.m is None or alpha.m == delta.m
    in_bounds = False
    if same:
        abar = alpha.conjugate()
        dbar = delta.conjugate()
        lo, hi = abar, 1 - abar
        if lo > hi:
            lo, hi = hi, lo
        in_bounds = lo <= dbar <= hi
    return YasutomiReport(same and in_bounds, same, in_bounds, alpha, delta)


def yasutomi_check(eigen: EigenData) -> YasutomiReport:
    v = eigen.vector
    return yasutomi_condition(v.l1, v.rho)
