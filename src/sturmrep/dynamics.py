"""Fixed points of primitive morphisms of the monoid.

The parameter vector of the fixed point is the dominant eigenvector of the
representation matrix, solved symbolically over Q(sqrt(m)) and normalized
to l0 + l1 = 1 so that rho coincides with the intercept.
"""

from __future__ import annotations

import math

from .errors import DomainError, NotPrimitiveError
from .exactfield import QuadExt, _Value, square_free_split, surd_sign
from .morphisms import (
    BinaryMorphism,
    D,
    DT,
    G,
    GT,
    GenWord,
    RunWord,
    _runs,
    format_genword,
    is_primitive_block,
)
from .representation import rep
# params_of is re-exported: sturmrep.dynamics.params_of stays public
from .words import LOWER, UPPER, ParamVector, PrefixStream, iet_stream, params_of


def image_params(word: GenWord, v: ParamVector) -> ParamVector:
    """Parameter vector of the image sequence: the representation matrix
    applied to the vector, boundary kind unchanged."""
    return v._image(rep(word).rows)


class EigenData(_Value):
    """Dominant eigenvalue (a quadratic unit > 1) and the eigenvector scaled
    to l0 + l1 = 1; field is the eigenvalue's square-free radicand."""

    __slots__ = _fields = ("eigenvalue", "vector")
    field = property(lambda eigen: eigen.eigenvalue.m)


def dominant_eigen(word: GenWord) -> EigenData:
    a, b, c, d, e, f = rep(word).named()
    if not is_primitive_block(a, b, c, d):
        raise NotPrimitiveError(f"{format_genword(word) or 'identity'} is not primitive")
    p = a + d
    # eigenvalue root of X^2 - pX + 1; radicand p^2-4 = (p-2)(p+2), no square as p >= 3
    f1, m1 = square_free_split(p - 2)
    f2, m2 = square_free_split(p + 2)
    g = math.gcd(m1, m2)
    r = f1 * f2 * g  # sqrt(p^2-4) = r sqrt(m)
    m = (m1 // g) * (m2 // g)
    lam = QuadExt(p, r, 2, m)
    # the top block row with x + y = 1 gives x = b/(b + lam - a), y = 1 - x,
    # and z = (f + (e-f)x)/(lam - 1); the conjugates of 2(b + lam - a) =
    # u + r sqrt(m) and 2(lam - 1) = w + r sqrt(m) clear the denominators,
    # so x, y and z are pairs over n (w^2 - r^2 m)
    u, w = 2 * b - 2 * a + p, p - 2
    n, nw = u * u - r * r * m, w * w - r * r * m
    za, zb = f * n + 2 * b * u * (e - f), -2 * b * r * (e - f)  # n (f + (e-f)x)
    za, zb = 2 * (za * w - zb * r * m), 2 * (zb * w - za * r)
    den = n * nw
    x = (2 * b * u * nw, -2 * b * r * nw)
    y = ((n - 2 * b * u) * nw, 2 * b * r * nw)
    boundary = UPPER if zb == 0 and za == den else LOWER
    return EigenData(lam, ParamVector._from_pairs((m, x, y, (za, zb)), den, boundary))


def fixed_point_params(word: GenWord) -> ParamVector:
    """Parameter vector of the unique Sturmian sequence fixed by the
    morphism; upper boundary exactly when rho = l0+l1."""
    return dominant_eigen(word).vector


def fixed_point_stream(word: GenWord) -> PrefixStream:
    return iet_stream(fixed_point_params(word))


def iterate_fixed_point(phi: BinaryMorphism, first_letter: str, n: int) -> str:
    """Prefix of the fixed point of phi starting with first_letter ("0" or
    "1"), grown by iterating phi; requires phi(first_letter) to start with
    that letter and to be expanding.

    The letters are mapped by psi = phi^(2^k), squared while both images
    are non-empty and the longer has under min(64, n) letters, so that each
    mapped letter copies a block and a prefix no longer than an image pays
    for no square; a square of images under 64 letters stays under 64^2.
    A round maps no more letters than the longer image of psi takes to n,
    so the prefix ends under n + 4096 letters, or under n + the longer
    image of phi where phi is not squared.  psi fixes the same word:
    phi(a) begins with a, so phi^(m+1)(a) begins with phi^m(a), and the
    words psi^m(a) = phi^(2^k m)(a) are a subsequence of these prefixes.
    With an empty image phi is kept, so that a prefix with phi(s) = s is
    still found stuck.
    """
    if n < 0:
        raise ValueError("length must be non-negative")
    if first_letter not in ("0", "1"):
        raise ValueError("first letter must be '0' or '1'")
    s = phi.apply(first_letter)
    if s.startswith(first_letter) and len(s) >= 2:
        psi = phi
        while psi.image0 and psi.image1 and max(len(psi.image0), len(psi.image1)) < min(64, n):
            psi = psi * psi
        # s = psi(s[:i]): a round maps the letters s[i:j] the last one added,
        # up to where their longest images would reach n, so s ends with
        # under n + longest letters; with none left (i == j) s is stuck,
        # and the loop breaks to the raise
        longest = max(len(psi.image0), len(psi.image1))
        s, i = psi.apply(first_letter), 1
        while len(s) < n:
            j = min(len(s), i - (len(s) - n) // longest)
            if i == j:
                break
            s += psi.apply(s[i:j])
            i = j
        else:
            return s[:n]
    raise DomainError(f"no expanding fixed point starts with {first_letter!r} for {phi}")


def dekking_mirror(word: GenWord) -> GenWord:
    """Tokenwise companion over {G', D} of a word over {G, D'}; it fixes the
    upper sequence with zero intercept paired with the word's lower one.  A
    RunWord is mapped run by run, as G -> G' and D' -> D keep runs maximal."""
    table = {G: GT, DT: D}
    runs = tuple(_runs(word))
    bad = {g for g, _ in runs} - table.keys()
    if bad:
        raise DomainError(
            f"word must stay in {{G, D'}}, found {', '.join(g.value for g in sorted(bad, key=lambda x: x.name))}"
        )
    if isinstance(word, RunWord):
        return RunWord._of(tuple((table[g], k) for g, k in runs))
    return tuple(table[g] for g, _ in runs)


class YasutomiReport(_Value):
    """The three clauses of yasutomi_condition; ok, their AND, is read off."""

    __slots__ = _fields = (
        "same_field", "conjugate_in_bounds", "slope_conjugate_outside", "alpha", "delta"
    )
    ok = property(lambda r: r.same_field and r.conjugate_in_bounds and r.slope_conjugate_outside)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        clauses = ("same_field", "conjugate_in_bounds", "slope_conjugate_outside", "ok")
        return "\n".join([f"alpha={self.alpha}", f"delta={self.delta}"] + [
            f"{name}={'yes' if getattr(self, name) else 'no'}" for name in clauses
        ])


def yasutomi_condition(alpha: QuadExt, delta: QuadExt) -> YasutomiReport:
    """Necessary condition for a lower sequence to be fixed by a primitive
    morphism: slope and intercept share one quadratic field, the Galois
    conjugate of the intercept lies between those of the slope and
    co-slope, and the conjugate of the slope lies outside (0, 1).

    With alpha = (a + b sqrt(m))/c and delta = (x + y sqrt(m))/z, the
    conjugate delta' lies between alpha' and 1 - alpha', in either order,
    exactly when (delta' - alpha') and (delta' - (1 - alpha')) do not have
    one strict sign.  Over the positive denominator cz these are
    (xc - az) + (bz - yc) sqrt(m) and (xc - (c - a)z) - (bz + yc) sqrt(m),
    and alpha' lies in (0, 1) exactly when a - b sqrt(m) > 0 and
    (a - c) - b sqrt(m) < 0: four surd_sign calls on integer parts, and no
    QuadExt is built.  A rational alpha is its own conjugate.
    """
    same = alpha.m is None or delta.m is None or alpha.m == delta.m
    a, b, c = alpha.a, alpha.b, alpha.c
    outside = surd_sign(a, -b, alpha.m) <= 0 or surd_sign(a - c, -b, alpha.m) >= 0
    in_bounds = False
    if same:
        m = alpha.m or delta.m
        x, y, z = delta.a, delta.b, delta.c
        in_bounds = (
            surd_sign(x * c - a * z, b * z - y * c, m)
            * surd_sign(x * c - (c - a) * z, -(b * z + y * c), m)
            <= 0
        )
    return YasutomiReport(same, in_bounds, outside, alpha, delta)


def yasutomi_check(eigen: EigenData) -> YasutomiReport:
    """yasutomi_condition on the slope l1 and the intercept rho of the
    eigenvector."""
    return yasutomi_condition(eigen.vector.l1, eigen.vector.rho)
