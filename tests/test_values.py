"""Value semantics of the package's immutable records: equality within one
class, hashing, immutability, repr, pickling and deep copies.  The repr
strings are those the frozen dataclasses of earlier versions printed, but
for EigenData, SqrtMorphism, Membership and YasutomiReport, which now hold
only what defines them and read the radicand, the images and the verdict
off it."""

import copy
import pickle

import pytest

from sturmrep import (
    LOWER,
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
from sturmrep.exactfield import _Value
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
    (Membership, (None,), "Membership(certificate=None)"),
    (Membership, ("E<A+C",), "Membership(certificate='E<A+C')"),
    (EigenData, (QuadExt(2, 1, 1, 3), ParamVector(*DGG_VECTOR)),
     "EigenData(eigenvalue=QuadExt(2, 1, 1, 3), vector=ParamVector(l0=QuadExt(3, -1, 3, 3), "
     "l1=QuadExt(0, 1, 3, 3), rho=QuadExt(0, 1, 3, 3), boundary='lower'))"),
    (YasutomiReport, (True, True, True, R3, R3),
     "YasutomiReport(same_field=True, conjugate_in_bounds=True, "
     "slope_conjugate_outside=True, alpha=QuadExt(0, 1, 3, 3), delta=QuadExt(0, 1, 3, 3))"),
    (SquareDecomposition, (("10", "1"),), "SquareDecomposition(roots=('10', '1'))"),
    (SqrtMorphism, (2, (D, G, G, DT, G, GT)),
     "SqrtMorphism(power=2, genword=(Generator.D, Generator.G, Generator.G, Generator.DT, "
     "Generator.G, Generator.GT))"),
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
    Membership: ("certificate",),
    EigenData: ("eigenvalue", "vector"),
    YasutomiReport: (
        "same_field", "conjugate_in_bounds", "slope_conjugate_outside", "alpha", "delta"
    ),
    SquareDecomposition: ("roots",),
    SqrtMorphism: ("power", "genword"),
    RunWord: ("runs",),
    SuiteResult: ("name", "ok", "details"),
}
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


def test_every_record_is_covered():
    assert {cls for cls, _, _ in CASES} == set(FIELDS)
    # QuadExt has tests of its own, here and in test_exactfield
    assert set(_Value.__subclasses__()) == set(FIELDS) | {QuadExt}
    # slots that hold no field, which the slot tests below reach as well;
    # a ParamVector stores its pairs, not its QuadExt fields
    assert set(ParamVector.__slots__) == {"boundary", "pairs", "den", "_letters"}
    assert "params" in SlopeIntercept.__slots__


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
        # a field with no slot (ParamVector's l0, l1 and rho) is built on
        # each read, so a later read is equal, not the same object
        view = isinstance(getattr(cls, name), property)
        assert getattr(x, name) == before if view else getattr(x, name) is before
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


def test_param_vector_fields_are_read_from_its_pairs():
    x, y = ParamVector(*DGG_VECTOR), ParamVector(*DGG_VECTOR)
    assert x == y and hash(x) == hash(y)
    assert "pairs" not in repr(x) and "den" not in repr(x)
    # every read builds the field again, equal and canonical each time
    for name, value in zip(("l0", "l1", "rho"), DGG_VECTOR):
        first, again = getattr(x, name), getattr(x, name)
        assert first is not again and first == again == value and repr(again) == repr(value)
    # the pairs are the state the fields are read from: pairs written under
    # a vector change its fields, its equality and its hash
    other = ParamVector(*DGG_VECTOR[:2], QuadExt(0))
    object.__setattr__(y, "pairs", other.pairs)
    assert (y.l0, y.l1, y.rho) == (other.l0, other.l1, other.rho)
    assert y == other and y != x and hash(y) == hash(other)
    # a pickled vector is built from its fields and computes the pairs again
    assert pickle.loads(pickle.dumps(x)).pairs == x.pairs
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
    "YasutomiReport-bool": (lambda: bool(YasutomiReport(True, False, True, R3, R3)), False),
    # ok is read off the certificate, so no verdict can be built beside one
    "Membership-no-ok": (lambda: Membership(True, "E<A+C"), TypeError),
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


ROWS = ((1, 2, 0), (1, 3, 0), (1, 2, 1))
# each private constructor, which writes its fields unchecked, with the
# public call that builds the same value: (private, public)
PRIVATE = {
    "BinaryMorphism._of": (
        lambda: BinaryMorphism._of("01", "1"), lambda: BinaryMorphism("01", "1")
    ),
    "Mat3._of": (lambda: Mat3._of(ROWS), lambda: Mat3(ROWS)),
    "Mat3-product": (lambda: Mat3(ROWS) * Mat3.identity(), lambda: Mat3([list(r) for r in ROWS])),
    "RunWord._of": (
        lambda: RunWord._of(((D, 1), (G, 2), (DT, 2**70))),
        lambda: RunWord(((D, 1), (G, 2), (DT, 2**70))),
    ),
    "QuadExt._in_field": (lambda: QuadExt._in_field(2, -4, -6, 3), lambda: QuadExt(2, -4, -6, 3)),
    "QuadExt._in_field-rational": (
        lambda: QuadExt._in_field(4, 0, 6, 3), lambda: QuadExt(4, 0, 6)
    ),
    "QuadExt-sum": (lambda: R2 + QuadExt(1, 0, 3), lambda: QuadExt(1, 3, 3, 2)),
    "ParamVector._from_pairs": (
        lambda: ParamVector._from_pairs((2, (4, -2), (-2, 2), (1, 0)), 2, LOWER),
        lambda: ParamVector(2 - R2, R2 - 1, QuadExt(1, 0, 2)),
    ),
    "SlopeIntercept.params": (
        lambda: SlopeIntercept(R2 - 1, 1, UPPER).params,
        lambda: ParamVector(2 - R2, R2 - 1, 1, UPPER),
    ),
    "EigenData-vector": (
        lambda: dominant_eigen(parse_genword("DGG")).vector,
        lambda: ParamVector(*DGG_VECTOR),
    ),
}


def slots_of(cls):
    # every slot of the class, its fields and the slots that hold no field
    return [name for k in cls.__mro__ for name in k.__dict__.get("__slots__", ())]


@pytest.mark.parametrize("private, public", PRIVATE.values(), ids=PRIVATE.keys())
def test_privately_built_values_equal_their_publicly_built_twins(private, public):
    x, y = private(), public()
    assert type(x) is type(y) and x == y and hash(x) == hash(y) and repr(x) == repr(y)
    for z in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(z) is type(y) and z == y and hash(z) == hash(y) and repr(z) == repr(y)
    # a slot that no setter wrote would raise AttributeError here
    for name in slots_of(type(x)):
        getattr(x, name)
    if isinstance(x, ParamVector):
        assert (x.pairs, x.den) == (y.pairs, y.den)


BUILT = {key: (lambda c=cls, a=args: c(*a)) for key, (cls, args, _) in zip(IDS, CASES)}
BUILT.update({name: private for name, (private, _) in PRIVATE.items()})
BUILT["QuadExt"] = lambda: QuadExt(3, -1, 3, 3)


@pytest.mark.parametrize("build", BUILT.values(), ids=BUILT.keys())
def test_every_slot_refuses_assignment_and_deletion(build):
    # the fields, and the slots that are no field: ParamVector's pairs, den
    # and _letters and SlopeIntercept's params
    x = build()
    for name in slots_of(type(x)):
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
