"""Exact arithmetic for Sturmian morphisms and their faithful 3x3 matrix
representation: compose and factor morphisms, decide matrix membership,
compute fixed-point parameters, enumerate conjugates, and build the
morphism fixing the square root of a primitive morphism's fixed point."""

from types import ModuleType as _ModuleType

from .errors import (
    CyclicMorphismError,
    DomainError,
    FieldMismatchError,
    MembershipError,
    NotPrimitiveError,
    ParseError,
    ScanBoundError,
)
from .exactfield import QuadExt, square_free_split
from .words import (
    LOWER,
    UPPER,
    ParamVector,
    PrefixStream,
    SlopeIntercept,
    iet_code,
    iet_stream,
    mechanical,
    mechanical_stream,
    params_of,
)
from .morphisms import (
    D,
    DT,
    G,
    GT,
    EXCHANGE,
    IDENTITY,
    BinaryMorphism,
    Generator,
    GenWord,
    Mat2,
    RunWord,
    compose,
    conjugates_of,
    format_genword,
    parse_genword,
    rightmost_conjugate,
)
from .representation import (
    Mat3,
    Membership,
    check_membership,
    cone_contains,
    decompose,
    rep,
    rep_exchange,
)
from .dynamics import (
    EigenData,
    YasutomiReport,
    dekking_mirror,
    dominant_eigen,
    fixed_point_params,
    fixed_point_stream,
    image_params,
    iterate_fixed_point,
    yasutomi_check,
    yasutomi_condition,
)
from .sqroot import (
    SqrtMorphism,
    SquareDecomposition,
    iter_square_roots,
    sqrt_fixing_morphism,
    square_decomposition,
    square_root_stream,
)

# the submodules are attributes too, but not names to import
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType)]
