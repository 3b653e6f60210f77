import random

import pytest

import sturmrep
from sturmrep.dynamics import (
    RHO_EQ_0,
    RHO_EQ_L0,
    RHO_EQ_L0_PLUS_L1,
    RHO_EQ_L1,
    UNCONSTRAINED,
    dekking_mirror,
    dominant_eigen,
    fixed_point_params,
    fixed_point_stream,
    image_params,
    intercept_class,
    iterate_fixed_point,
    params_of,
    yasutomi_check,
    yasutomi_condition,
)
from sturmrep.errors import DomainError, FieldMismatchError, NotPrimitiveError
from sturmrep.exactfield import QuadExt
from sturmrep.morphisms import D, DT, G, GT, BinaryMorphism, compose, parse_genword
from sturmrep.representation import rep
from sturmrep.words import (
    LOWER,
    UPPER,
    ParamVector,
    SlopeIntercept,
    iet_code,
    iet_stream,
)

from oracles import fixed_point_by_iteration

SQRT3_OVER_3 = QuadExt(0, 1, 3, 3)
DG2 = parse_genword("DGG")
DG2_PREFIX = "10101101010110101011010110101011010101101010110101101010"


def _random_word(rng, alphabet=(G, GT, D, DT), lo=1, hi=9, primitive=True):
    while True:
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        if not primitive:
            return w
        if any(g in (G, GT) for g in w) and any(g in (D, DT) for g in w):
            return w


def test_params_of():
    alpha = SQRT3_OVER_3
    si = SlopeIntercept(alpha, alpha, LOWER)
    assert params_of(si) == ParamVector(1 - alpha, alpha, alpha, LOWER)
    assert params_of(SlopeIntercept(alpha, QuadExt(0), UPPER)) == ParamVector(
        1 - alpha, alpha, QuadExt(1), UPPER
    )
    assert params_of(SlopeIntercept(alpha, QuadExt(0), LOWER)) == ParamVector(
        1 - alpha, alpha, QuadExt(0), LOWER
    )
    assert params_of is sturmrep.params_of is sturmrep.words.params_of
    # slope sqrt(2)/2 with intercept sqrt(3)/3: no single field codes it
    with pytest.raises(FieldMismatchError, match=r"cannot mix sqrt\(3\) with sqrt\(2\)"):
        iet_code(params_of(SlopeIntercept(QuadExt(0, 1, 2, 2), alpha)), 60)


def test_image_params_generator_rows():
    alpha = SQRT3_OVER_3
    rho = QuadExt(1, 0, 5)
    v = ParamVector(1 - alpha, alpha, rho, LOWER)
    g_image = image_params((G,), v)
    assert (g_image.l0, g_image.l1, g_image.rho) == (QuadExt(1), alpha, rho)
    dt_image = image_params((DT,), v)
    assert (dt_image.l0, dt_image.l1, dt_image.rho) == (1 - alpha, QuadExt(1), rho)
    gt_image = image_params((GT,), v)
    assert gt_image.rho == rho + alpha
    d_image = image_params((D,), v)
    assert d_image.rho == rho + 1 - alpha
    assert image_params((), v) == v


def test_dominant_eigen_dg2():
    eigen = dominant_eigen(DG2)
    assert eigen.eigenvalue == QuadExt(2, 1, 1, 3)
    assert eigen.field == 3
    v = eigen.vector
    assert v.l0 == QuadExt(3, -1, 3, 3)
    assert v.l1 == SQRT3_OVER_3
    assert v.rho == SQRT3_OVER_3
    assert v.boundary == LOWER


def test_dominant_eigen_trace3():
    for text in ("GD", "DG"):
        eigen = dominant_eigen(parse_genword(text))
        assert eigen.eigenvalue == QuadExt(3, 1, 2, 5)
    # letter-count check for GD: images 010 and 01
    assert compose(parse_genword("GD")).incidence().entries() == (2, 1, 1, 1)


def test_dominant_eigen_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        dominant_eigen(parse_genword("GG"))
    with pytest.raises(NotPrimitiveError):
        dominant_eigen(())


def test_eigen_equation_and_unit_property():
    rng = random.Random(17)
    for _ in range(40):
        word = _random_word(rng)
        eigen = dominant_eigen(word)
        lam, v = eigen.eigenvalue, eigen.vector
        assert lam * lam.conjugate() == 1
        assert lam > 1
        assert v.l0 + v.l1 == 1
        image = rep(word).apply((v.l0, v.l1, v.rho))
        assert image == (lam * v.l0, lam * v.l1, lam * v.rho)
        # spectrum: the block trace p gives the other eigenvalues 1, conj
        p = rep(word).block().trace()
        assert lam * lam - p * lam + 1 == 0


def test_fixed_point_known_prefix_both_routes():
    v = fixed_point_params(DG2)
    assert iet_code(v, 56) == DG2_PREFIX
    phi = compose(DG2)
    assert iterate_fixed_point(phi, "1", 56) == DG2_PREFIX
    assert fixed_point_by_iteration(phi.image0, phi.image1, "1", 56) == DG2_PREFIX
    assert fixed_point_stream(DG2).prefix(56) == DG2_PREFIX


def test_fixed_point_invariance_random():
    rng = random.Random(23)
    for _ in range(15):
        word = _random_word(rng)
        stream = fixed_point_stream(word)
        phi = compose(word)
        assert phi.apply(stream).prefix(2000) == stream.prefix(2000)


def test_iterate_fixed_point_rejects_wrong_letter():
    phi = compose(DG2)  # both images start with 1
    with pytest.raises(DomainError):
        iterate_fixed_point(phi, "0", 10)


def test_iterate_fixed_point_rejects_a_stuck_prefix():
    # 0 -> 01 -> 01 -> ...: the first image grows, the next round does not
    phi = BinaryMorphism("01", "")
    assert iterate_fixed_point(phi, "0", 2) == "01"
    with pytest.raises(DomainError, match="no expanding fixed point"):
        iterate_fixed_point(phi, "0", 5)


def test_intercept_class_examples():
    assert intercept_class(DG2) == (RHO_EQ_L1,)
    assert intercept_class(parse_genword("G'D'")) == (RHO_EQ_L0,)
    assert intercept_class(parse_genword("GD'")) == (RHO_EQ_0,)
    assert intercept_class(parse_genword("G'D")) == (RHO_EQ_L0_PLUS_L1,)
    assert intercept_class(parse_genword("GDG'")) == (UNCONSTRAINED,)
    # overlapping one-letter alphabets report every applicable constraint
    assert intercept_class(parse_genword("GG")) == (RHO_EQ_L1, RHO_EQ_0)
    assert intercept_class(()) == (
        RHO_EQ_L0_PLUS_L1,
        RHO_EQ_L1,
        RHO_EQ_L0,
        RHO_EQ_0,
    )


def test_intercept_class_agrees_with_eigenvector():
    rng = random.Random(31)
    table = {
        RHO_EQ_L0_PLUS_L1: (GT, D),
        RHO_EQ_L1: (G, D),
        RHO_EQ_L0: (GT, DT),
        RHO_EQ_0: (G, DT),
    }
    for tag, alphabet in table.items():
        for _ in range(8):
            word = _random_word(rng, alphabet=alphabet, lo=2, hi=8)
            assert tag in intercept_class(word)
            v = dominant_eigen(word).vector
            expected = {
                RHO_EQ_L0_PLUS_L1: v.l0 + v.l1,
                RHO_EQ_L1: v.l1,
                RHO_EQ_L0: v.l0,
                RHO_EQ_0: QuadExt(0),
            }[tag]
            assert v.rho == expected
            assert v.boundary == (UPPER if tag == RHO_EQ_L0_PLUS_L1 else LOWER)


def test_dekking_mirror_mapping():
    assert dekking_mirror(parse_genword("GD'")) == parse_genword("G'D")
    assert dekking_mirror(parse_genword("GGD'")) == parse_genword("G'G'D")
    with pytest.raises(DomainError):
        dekking_mirror(parse_genword("GD"))


def test_dekking_mirror_fixes_upper_sequence():
    rng = random.Random(41)
    for _ in range(8):
        word = _random_word(rng, alphabet=(G, DT), lo=2, hi=7)
        v = dominant_eigen(word).vector
        assert v.rho == 0
        eta = compose(dekking_mirror(word))
        upper = iet_stream(ParamVector(v.l0, v.l1, QuadExt(1), UPPER))
        assert eta.apply(upper).prefix(2000) == upper.prefix(2000)


def test_dekking_pair_same_morphism():
    rng = random.Random(43)
    for _ in range(8):
        word = _random_word(rng, alphabet=(GT, DT), lo=2, hi=7)
        v = dominant_eigen(word).vector
        assert v.rho == v.l0
        phi = compose(word)
        for boundary in (LOWER, UPPER):
            stream = iet_stream(ParamVector(v.l0, v.l1, v.rho, boundary))
            assert phi.apply(stream).prefix(2000) == stream.prefix(2000)
        # the two orientations really are distinct sequences
        low = iet_code(ParamVector(v.l0, v.l1, v.rho, LOWER), 400)
        up = iet_code(ParamVector(v.l0, v.l1, v.rho, UPPER), 400)
        assert low != up


def test_yasutomi_for_fixed_points():
    assert yasutomi_check(dominant_eigen(DG2)).ok
    rng = random.Random(47)
    for _ in range(30):
        word = _random_word(rng)
        report = yasutomi_check(dominant_eigen(word))
        assert report.ok and report.same_field and report.conjugate_in_bounds


def test_yasutomi_rejections():
    alpha = QuadExt(0, 1, 2, 2)  # sqrt(2)/2
    other_field = QuadExt(0, 1, 3, 3)
    report = yasutomi_condition(alpha, other_field)
    assert not report.ok and not report.same_field
    # same field but conjugate far outside the bounds
    delta = QuadExt(-2, 2, 1, 2)  # 2*sqrt(2)-2, conjugate -2*sqrt(2)-2
    report = yasutomi_condition(alpha, delta)
    assert not report.ok and report.same_field and not report.conjugate_in_bounds
    assert "same_field=yes" in report.as_text()
    assert "ok=no" in str(report)


def test_eigen_data_for_large_traces():
    rng = random.Random(101)
    word = tuple(rng.choice((G, D, GT, DT)) for _ in range(40))
    if not any(g in (G, GT) for g in word):
        word += (G,)
    if not any(g in (D, DT) for g in word):
        word += (D,)
    eigen = dominant_eigen(word)
    assert rep(word).block().trace() > 2**20
    assert eigen.eigenvalue * eigen.eigenvalue.conjugate() == 1
    v = eigen.vector
    image = rep(word).apply((v.l0, v.l1, v.rho))
    assert image == (eigen.eigenvalue * v.l0, eigen.eigenvalue * v.l1, eigen.eigenvalue * v.rho)
