"""Parameter vectors built from integer pairs: SlopeIntercept, the dominant
eigenvector, the square root map psi and image_params build a ParamVector
from (m, l0, l1, rho) pairs over one denominator, and each read of a
QuadExt field builds it from them.  Each must equal the vector ParamVector
builds from the fields that QuadExt arithmetic gives, in every respect a
caller sees."""

import ast
import itertools
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sturmrep
from sturmrep.dynamics import dominant_eigen, image_params
from sturmrep.errors import DomainError, NotPrimitiveError
from sturmrep.exactfield import QuadExt
from sturmrep.morphisms import D, DT, G, GT, Mat2, format_genword, is_primitive_block
from sturmrep.representation import rep
from sturmrep.sqroot import sqrt_fixing_morphism, square_root_stream
from sturmrep.words import LOWER, UPPER, ParamVector, SlopeIntercept, iet_stream

from oracles import eigen_by_field_ops

FIELDS = (2, 3, 5, 7, 13)
GENERATORS = (G, GT, D, DT)


def _assert_same_vector(built: ParamVector, fields: ParamVector) -> None:
    # built comes from pairs, which are all it stores: each read of a field
    # builds a new QuadExt, canonical and equal to the field path's
    for name in ("l0", "l1", "rho"):
        x, again, want = getattr(built, name), getattr(built, name), getattr(fields, name)
        assert x is not again and x == again == want and repr(x) == repr(want)
        assert x.c > 0 and math.gcd(x.a, x.b, x.c) == 1 and (x.m is None) == (x.b == 0)
    pickled = pickle.dumps(built)
    assert built.pairs == fields.pairs and built.den == fields.den
    assert built == fields and hash(built) == hash(fields)
    assert repr(built) == repr(fields)
    assert pickle.loads(pickled) == fields
    assert iet_stream(built).prefix(500) == iet_stream(fields).prefix(500)
    # the same pairs over a multiple of den, negative too, give the vector
    m, *parts = built.pairs
    for k in (-3, 2):
        scaled = (m, *((a * k, b * k) for a, b in parts))
        assert ParamVector._from_pairs(scaled, built.den * k, built.boundary).pairs == built.pairs


def _unit(parts, m):
    # (a + b sqrt(m))/c moved into (0, 1) by its floor
    x = QuadExt(*parts, m)
    return x - x.floor()


surd_parts = st.tuples(st.integers(-50, 50), st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 40))
words = st.lists(st.sampled_from(GENERATORS), min_size=2, max_size=7).filter(
    lambda w: bool({G, GT} & set(w)) and bool({D, DT} & set(w))
)


@st.composite
def slope_intercepts(draw):
    m = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from((LOWER, UPPER)))
    alpha = _unit(draw(surd_parts), m)
    delta = draw(
        st.sampled_from((QuadExt(0), QuadExt(1, 0, 3)))
        | surd_parts.map(lambda p: _unit(p, m))
        | st.tuples(st.integers(0, 30), st.integers(31, 60)).map(lambda p: QuadExt(p[0], 0, p[1]))
    )
    if kind == UPPER and draw(st.booleans()):
        delta = 1 - delta  # (0, 1] for the upper kind
    return SlopeIntercept(alpha, delta, kind)


def _by_fields(si: SlopeIntercept) -> ParamVector:
    rho = QuadExt(1) if si.kind == UPPER and si.delta == 0 else si.delta
    return ParamVector(1 - si.alpha, si.alpha, rho, si.kind)


def _eigenvector_by_fields(word) -> ParamVector:
    _, x, y, z, boundary, _ = eigen_by_field_ops(rep(word).rows)
    return ParamVector(x, y, z, boundary)


def _psi_by_fields(v: ParamVector) -> ParamVector:
    return ParamVector(v.l0, v.l1, (v.rho + v.l0) / 2, v.boundary)


def _image_by_fields(word, v: ParamVector) -> ParamVector:
    return ParamVector(*rep(word).apply((v.l0, v.l1, v.rho)), v.boundary)


@settings(max_examples=150, deadline=None)
@given(slope_intercepts(), st.lists(st.sampled_from(GENERATORS), max_size=6))
def test_slope_intercept_vectors_and_their_images_match_the_field_path(si, word):
    _assert_same_vector(si.params, _by_fields(si))
    _assert_same_vector(square_root_stream(iet_stream(si.params)).params, _psi_by_fields(si.params))
    _assert_same_vector(image_params(word, si.params), _image_by_fields(word, si.params))


@settings(max_examples=150, deadline=None)
@given(words, st.lists(st.sampled_from(GENERATORS), max_size=4))
def test_eigenvectors_and_their_images_match_the_field_path(word, image_word):
    v, fields = dominant_eigen(word).vector, _eigenvector_by_fields(word)
    _assert_same_vector(v, fields)
    _assert_same_vector(square_root_stream(iet_stream(v)).params, _psi_by_fields(fields))
    _assert_same_vector(image_params(image_word, v), _image_by_fields(image_word, fields))


def test_not_primitive_exactly_when_the_block_is_not_primitive():
    # every word of at most 6 generators, the identity included
    primitive = 0
    for n in range(7):
        for word in itertools.product(GENERATORS, repeat=n):
            block = Mat2(*rep(word).named()[:4])
            square = block * block
            expected = min(block.entries()) >= 0 and min(square.entries()) > 0
            assert is_primitive_block(*block.entries()) == expected
            text = f"{format_genword(word) or 'identity'} is not primitive"
            for call in (dominant_eigen, sqrt_fixing_morphism):
                if expected:
                    call(word)
                else:
                    with pytest.raises(NotPrimitiveError) as info:
                        call(word)
                    assert str(info.value) == text
            primitive += expected
    assert primitive == 5208


R2 = QuadExt(0, 1, 1, 2)
LENGTHS = "interval lengths must be positive"
START = "starting point outside the exchanged intervals"
OUT_OF_DOMAIN = [
    ((QuadExt(0), R2, QuadExt(0), LOWER), LENGTHS),
    ((R2 - 2, R2, QuadExt(0), LOWER), LENGTHS),
    ((R2, 1 - R2, QuadExt(0), LOWER), LENGTHS),
    ((2 - R2, R2 - 1, -R2 / 7, LOWER), START),
    ((2 - R2, R2 - 1, QuadExt(1), LOWER), START),
    ((2 - R2, R2 - 1, QuadExt(0), UPPER), START),
    ((2 - R2, R2 - 1, R2 / 2 + QuadExt(1, 0, 3), UPPER), START),
]


@pytest.mark.parametrize("fields, message", OUT_OF_DOMAIN)
def test_out_of_domain_pairs_raise_the_field_path_messages(fields, message):
    *values, boundary = fields
    with pytest.raises(DomainError) as by_fields:
        ParamVector(*values, boundary)
    den = 3 * values[0].c * values[1].c * values[2].c
    for scale in (1, -1):
        pairs = (2, *((scale * x.a * den // x.c, scale * x.b * den // x.c) for x in values))
        with pytest.raises(DomainError) as by_pairs:
            ParamVector._from_pairs(pairs, scale * den, boundary)
        assert str(by_pairs.value) == str(by_fields.value) == message


def test_only_words_reads_the_pairs_of_a_vector():
    # how a ParamVector stores its values is known in words.py only: every
    # other module reads its fields or maps it through ParamVector._image
    sources = sorted(Path(sturmrep.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        if path.name == "words.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("pairs", "den"), f"{path.name}:{node.lineno}: .{node.attr}"
