"""Command-line surface.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 parse/usage error.  Output is plain text, one logical result per line,
byte-identical across identical invocations.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import dominant_eigen, fixed_point_stream
from .errors import DomainError, ParseError
from .exactfield import QuadExt
from .morphisms import (
    BinaryMorphism,
    Mat2,
    compose,
    conjugates_of,
    format_genword,
    parse_genword,
)
from .representation import Mat3, check_membership, decompose, rep
from .sqroot import (
    DEFAULT_SCAN_BOUND,
    square_decomposition,
    square_root_stream,
    sqrt_fixing_morphism,
)
from .words import LOWER, UPPER, SlopeIntercept, iet_stream, mechanical


def non_negative_int(text: str) -> int:
    """argparse type for sizes and counts."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmrep",
        description="Exact computations with Sturmian morphisms and their "
        "3x3 matrix representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="images of a generator word")
    p.add_argument("genword", help="token string over G, G', D, D', e.g. DGG")

    p = sub.add_parser("apply", help="apply a morphism to a word")
    p.add_argument("morphism", help="morphism as 0->10,1->10101")
    p.add_argument("word", help="binary word")

    p = sub.add_parser("rep", help="representation matrix of a generator word")
    p.add_argument("genword")

    p = sub.add_parser("decompose", help="factor a matrix into generators")
    p.add_argument("--matrix", required=True, help="[[A,B,0],[C,D,0],[E,F,1]]")

    p = sub.add_parser("membership", help="decide monoid membership of a matrix")
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("fixed-point", help="prefix of the fixed point of a word")
    p.add_argument("genword")
    p.add_argument("--length", type=non_negative_int, default=80)
    p.add_argument(
        "--show-params",
        action="store_true",
        help="also print the eigenvalue and parameter vector",
    )

    p = sub.add_parser("generate", help="prefix of a mechanical sequence")
    p.add_argument("--slope", required=True, help="field element, e.g. (0+1*sqrt(3))/3")
    p.add_argument("--intercept", required=True)
    p.add_argument("--kind", choices=(LOWER, UPPER), default=LOWER)
    p.add_argument("--length", type=non_negative_int, default=80)

    p = sub.add_parser("conjugates", help="all morphisms with a given incidence matrix")
    p.add_argument("--matrix", required=True, help="[[A,B],[C,D]]")

    p = sub.add_parser("sqrt", help="square root of the fixed point of a word")
    p.add_argument("--genword", required=True)
    p.add_argument("--length", type=non_negative_int, default=80)
    p.add_argument("--blocks", type=non_negative_int, default=0, help="print this many square blocks instead")
    p.add_argument("--scan-bound", type=non_negative_int, default=DEFAULT_SCAN_BOUND,
                   help="longest root the block scan of --blocks searches; --length reads no scan")

    p = sub.add_parser("sqrt-morphism", help="morphism fixing the square root")
    p.add_argument("genword")

    p = sub.add_parser("verify", help="run seeded verification suites")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--samples", type=non_negative_int, default=None)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd(args, out) -> int:
    if args.command == "compose":
        print(compose(parse_genword(args.genword)), file=out)
    elif args.command == "apply":
        phi = BinaryMorphism.parse(args.morphism)
        if set(args.word) - {"0", "1"}:
            raise ParseError(f"not a binary word: {args.word!r}")
        print(phi.apply(args.word), file=out)
    elif args.command == "rep":
        print(rep(parse_genword(args.genword)), file=out)
    elif args.command == "decompose":
        word = decompose(Mat3.parse(args.matrix))
        print(format_genword(word), file=out)
    elif args.command == "membership":
        verdict = check_membership(Mat3.parse(args.matrix))
        if verdict:
            print("member: true", file=out)
        else:
            print(f"member: false ({verdict.certificate})", file=out)
    elif args.command == "fixed-point":
        word = parse_genword(args.genword)
        eigen = dominant_eigen(word)
        if args.show_params:
            v = eigen.vector
            print(f"eigenvalue: {eigen.eigenvalue}", file=out)
            print(
                f"params: l0={v.l0} l1={v.l1} rho={v.rho} boundary={v.boundary}",
                file=out,
            )
        print(iet_stream(eigen.vector).prefix(args.length), file=out)
    elif args.command == "generate":
        si = SlopeIntercept(
            QuadExt.parse(args.slope), QuadExt.parse(args.intercept), args.kind
        )
        print(mechanical(si, args.length), file=out)
    elif args.command == "conjugates":
        for phi in conjugates_of(Mat2.parse(args.matrix)):
            print(phi, file=out)
    elif args.command == "sqrt":
        stream = fixed_point_stream(parse_genword(args.genword))
        if args.blocks > 0:
            print(square_decomposition(stream, args.blocks, args.scan_bound), file=out)
        else:
            print(square_root_stream(stream).prefix(args.length), file=out)
    elif args.command == "sqrt-morphism":
        print(sqrt_fixing_morphism(parse_genword(args.genword)), file=out)
    elif args.command == "verify":
        # imported here, so that no other command loads the suites
        from .verify import SUITES, run_suites

        if args.suite == "all":
            names = list(SUITES)
        elif args.suite in SUITES:
            names = [args.suite]
        else:
            raise ParseError(
                f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)} or all"
            )
        print(
            f"verify: seed={args.seed} samples={args.samples if args.samples is not None else 'default'} "
            "rng=MersenneTwister(random.Random) subseed=lcg(seed,index)",
            file=out,
        )
        results = run_suites(names, args.samples, args.seed)
        for result in results:
            print(result.line(), file=out)
        if not all(r.ok for r in results):
            return 1
    return 0


def run(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _cmd(args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
