"""Value semantics of the package's immutable records: equality within one
class, hashing, immutability, repr, pickling and deep copies.  The repr
strings are those the frozen dataclasses of earlier versions printed."""

import copy
import pickle

import pytest

from sturmrep import (
    UPPER,
    BinaryMorphism,
    EigenData,
    Mat2,
    Mat3,
    Membership,
    ParamVector,
    QuadExt,
    RunWord,
    SlopeIntercept,
    SqrtMorphism,
    SquareDecomposition,
    YasutomiReport,
    dominant_eigen,
    parse_genword,
)
from sturmrep.morphisms import D, DT, G, GT
from sturmrep.verify import SuiteResult

R2 = QuadExt(0, 1, 1, 2)
R3 = QuadExt(0, 1, 3, 3)
DGG_VECTOR = (QuadExt(3, -1, 3, 3), R3, R3)

# (class, constructor arguments, repr)
CASES = [
    (SlopeIntercept, (R2 - 1, QuadExt(1, 0, 3)),
     "SlopeIntercept(alpha=QuadExt(-1, 1, 1, 2), delta=QuadExt(1, 0, 3, None), kind='lower')"),
    (SlopeIntercept, (R2 - 1, 1, UPPER),
     "SlopeIntercept(alpha=QuadExt(-1, 1, 1, 2), delta=QuadExt(1, 0, 1, None), kind='upper')"),
    (ParamVector, (2 - R2, R2 - 1, QuadExt(1, 0, 2)),
     "ParamVector(l0=QuadExt(2, -1, 1, 2), l1=QuadExt(-1, 1, 1, 2), "
     "rho=QuadExt(1, 0, 2, None), boundary='lower')"),
    (ParamVector, (1, R2, 1, UPPER),
     "ParamVector(l0=QuadExt(1, 0, 1, None), l1=QuadExt(0, 1, 1, 2), "
     "rho=QuadExt(1, 0, 1, None), boundary='upper')"),
    (Mat2, (1, 2, 3, 4), "Mat2(a=1, b=2, c=3, d=4)"),
    (BinaryMorphism, ("01", "1"), "BinaryMorphism(image0='01', image1='1')"),
    (Mat3, (((1, 2, 0), (1, 3, 0), (1, 2, 1)),), "Mat3(rows=((1, 2, 0), (1, 3, 0), (1, 2, 1)))"),
    (Membership, (True,), "Membership(ok=True, certificate=None)"),
    (Membership, (False, "E<A+C"), "Membership(ok=False, certificate='E<A+C')"),
    (EigenData, (QuadExt(2, 1, 1, 3), ParamVector(*DGG_VECTOR), 3),
     "EigenData(eigenvalue=QuadExt(2, 1, 1, 3), vector=ParamVector(l0=QuadExt(3, -1, 3, 3), "
     "l1=QuadExt(0, 1, 3, 3), rho=QuadExt(0, 1, 3, 3), boundary='lower'), field=3)"),
    (YasutomiReport, (True, True, True, R3, R3),
     "YasutomiReport(ok=True, same_field=True, conjugate_in_bounds=True, "
     "alpha=QuadExt(0, 1, 3, 3), delta=QuadExt(0, 1, 3, 3))"),
    (SquareDecomposition, (("10", "1"),), "SquareDecomposition(roots=('10', '1'))"),
    (SqrtMorphism, (BinaryMorphism("1010101", "1010101101011010101"), 2, (D, G, G, DT, G, GT)),
     "SqrtMorphism(morphism=BinaryMorphism(image0='1010101', image1='1010101101011010101'), "
     "power=2, genword=(Generator.D, Generator.G, Generator.G, Generator.DT, Generator.G, "
     "Generator.GT))"),
    (SuiteResult, ("relations", True, "8 relations"),
     "SuiteResult(name='relations', ok=True, details='8 relations')"),
    (RunWord, (((D, 1), (G, 2), (DT, 2**70)),),
     "RunWord(runs=((Generator.D, 1), (Generator.G, 2), (Generator.DT, 1180591620717411303424)))"),
]
FIELDS = {
    SlopeIntercept: ("alpha", "delta", "kind"),
    ParamVector: ("l0", "l1", "rho", "boundary"),
    Mat2: ("a", "b", "c", "d"),
    BinaryMorphism: ("image0", "image1"),
    Mat3: ("rows",),
    Membership: ("ok", "certificate"),
    EigenData: ("eigenvalue", "vector", "field"),
    YasutomiReport: ("ok", "same_field", "conjugate_in_bounds", "alpha", "delta"),
    SquareDecomposition: ("roots",),
    SqrtMorphism: ("morphism", "power", "genword"),
    RunWord: ("runs",),
    SuiteResult: ("name", "ok", "details"),
}
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


def test_every_record_is_covered():
    assert {cls for cls, _, _ in CASES} == set(FIELDS)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, args, text):
    x, y = cls(*args), cls(*args)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, args, text):
    twin = type("Twin", (cls,), {"__slots__": ()})
    x, y = cls(*args), twin(*args)
    assert x != y and y != x and not x == y
    assert x != tuple(getattr(x, name) for name in FIELDS[cls])


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, text):
    x = cls(*args)
    for name in FIELDS[cls]:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, args, text):
    x = cls(*args)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text


def test_param_vector_equality_ignores_pairs():
    x, y = ParamVector(*DGG_VECTOR), ParamVector(*DGG_VECTOR)
    object.__setattr__(y, "pairs", None)
    assert x == y and hash(x) == hash(y)
    assert "pairs" not in repr(x)
    # the pairs are derived: a pickled vector computes them again
    assert pickle.loads(pickle.dumps(y)).pairs == x.pairs
    assert dominant_eigen(parse_genword("DGG")).vector == x


def test_quad_ext_pickles_and_stays_immutable():
    for x in (QuadExt(3, -1, 3, 3), QuadExt(1, 0, 2), QuadExt(7)):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is QuadExt and y == x and repr(y) == repr(x)
        with pytest.raises(AttributeError):
            x.a = 0
        with pytest.raises(AttributeError):
            del x.b


# the records' operators and checks that no other test reaches: (call, the
# value it returns or the exception it raises)
BRANCHES = {
    "QuadExt-neg": (lambda: -QuadExt(1, 2, 3, 5), QuadExt(-1, -2, 3, 5)),
    "QuadExt-bool-zero": (lambda: bool(QuadExt(0, 0, 7)), False),
    "QuadExt-bool-surd": (lambda: bool(R2 - 1), True),
    "YasutomiReport-bool": (lambda: bool(YasutomiReport(False, True, False, R3, R3)), False),
    "Mat2-str": (lambda: str(Mat2(1, 2, 3, 4)), "[[1,2],[3,4]]"),
    "SlopeIntercept-kind": (lambda: SlopeIntercept(R2 - 1, 0, kind="x"), ValueError),
    "ParamVector-boundary": (lambda: ParamVector(1, R2, 0, boundary="x"), ValueError),
    "SlopeIntercept-str-slope": (lambda: SlopeIntercept("x", 0), TypeError),
}


@pytest.mark.parametrize("call, want", BRANCHES.values(), ids=BRANCHES.keys())
def test_operators_and_argument_checks(call, want):
    if isinstance(want, type) and issubclass(want, Exception):
        with pytest.raises(want):
            call()
    else:
        got = call()
        assert got == want and type(got) is type(want)
