"""The three workloads: seeded inputs, one composite op each, and its check.

Inputs are plain integers, strings and tuples drawn from the benchmark's own
generator, so a change under ``src/`` cannot alter the traffic.  Input i of a
run comes from ``random.Random("<workload>:<seed>:<i>")``; sizes are spread
evenly over their range by i and categorical choices cycle with i, so every
seed and every run length gets the same size mix.
Each op converts its input into library objects, runs the steps and returns
the results; ``check`` compares them with ``reference`` outside the timed
span and never calls the library.

The library is single-threaded and keeps no queues, so the ops have no
waiting time to report: the loop is closed with one caller.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference as ref

ROOT = ref.ROOT
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
TOKENS = ("G", "G'", "D", "D'")
FIELDS = (2, 3, 5, 7, 13)
KINDS = ("lower", "upper")


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def stratified(index: int, rng) -> float:
    """A point of [0, 1) that fills the interval evenly as index grows, with a
    seeded jitter, so every seed and run length sees the same size spread."""
    return (index * GOLDEN + rng.random() / 64) % 1.0


def random_word(rng, lo: int, hi: int, alphabet=TOKENS, primitive=False) -> tuple:
    while True:
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        if not primitive or ref.is_primitive(word):
            return word


def random_unit(rng, m: int) -> tuple[int, int, int]:
    """(a, b, c) with (a + b*sqrt(m))/c irrational in (0, 1)."""
    p, q, r = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9)
    return p - ref.surd_floor(p, q, m, r) * r, q, r


def random_intercept(rng, m: int, kind: str) -> tuple[int, int, int]:
    if kind == "upper" and rng.random() < 0.1:
        return 1, 0, 1
    if rng.random() < 0.5:
        return rng.randint(0, 7), 0, 8
    return random_unit(rng, m)


def quad(sr, t, m: int):
    a, b, c = t
    return sr.QuadExt(a, b, c, m if b else None)


def tokens_of(word) -> tuple:
    return tuple(g.value for g in word)


def quad_triple(x) -> tuple[int, int, int]:
    return x.a, x.b, x.c


class Steps:
    """Times the named steps of one op; with a tracer, each step and each
    layer span the op opens is also a span of the trace."""

    def __init__(self, workload: str, tracer=None, out_dir: Path | None = None):
        self.workload = workload
        self.tracer = tracer
        self.out_dir = out_dir
        self.durations: dict[str, list[float]] = {}

    @contextmanager
    def __call__(self, name: str):
        ctx = self.tracer.span(f"{self.workload}.{name}") if self.tracer else nullcontext()
        t0 = perf_counter()
        try:
            with ctx:
                yield
        finally:
            self.durations.setdefault(name, []).append(perf_counter() - t0)

    def span(self, name: str, letters: int = 0, inner: str | None = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, letters, inner)


class Workload:
    name = ""
    steps: tuple[str, ...] = ()
    min_ops = 100  # p90 keeps ten samples beyond it
    # Op time grows as (kernel time) ** speed_exponent when the host's speed
    # changes: the slope of log wall p50 on log kernel median over 20-35 runs
    # per workload on a 2-vCPU Xeon VM was 1.25-1.34 for in-process ops and
    # 0.9-1.2 for the cli children.
    speed_exponent = 1.25
    trace_ops = 0  # fixed op count of the traced run, so its counts repeat exactly
    sizes: dict = {}  # op sizes, recorded with the results

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, sr, x, step: Steps):
        raise NotImplementedError

    def check(self, x, out) -> bool:
        raise NotImplementedError


# -- streams ----------------------------------------------------------------------

STREAM_LETTERS = (512, 2048)  # n log-uniform in this range
GOLDEN = 0.6180339887498949
ORACLE_PREFIX = 256
SAMPLED_POSITIONS = 48
FAR_LETTERS = 64


@dataclass(frozen=True)
class StreamsInput:
    m: int
    alpha: tuple
    delta: tuple
    kind: str
    n: int
    sample: tuple
    morph: tuple
    fp_word: tuple
    roots: int
    iterate: int
    far: int


class Streams(Workload):
    """Mechanical and 2iet prefixes, a morphism applied to a stream, the
    square root and iteration of a fixed point, and a slice far out."""

    name = "streams"
    steps = ("mechanical", "iet_code", "apply_stream", "sqrt_stream", "iterate", "slice_far")
    trace_ops = 120
    sizes = {"letters_log_uniform": STREAM_LETTERS, "roots": "letters/2", "iterate": "8*letters",
             "far_slice": f"[letters, letters+{FAR_LETTERS})", "oracle_prefix": ORACLE_PREFIX}

    def make_input(self, index: int) -> StreamsInput:
        rng = op_rng(self.name, self.seed, index)
        m = FIELDS[index % len(FIELDS)]
        kind = KINDS[index % len(KINDS)]
        lo, hi = STREAM_LETTERS
        n = int(lo * (hi / lo) ** stratified(index, rng))
        sample = tuple(rng.randrange(ORACLE_PREFIX, n) for _ in range(SAMPLED_POSITIONS))
        return StreamsInput(
            m=m,
            alpha=random_unit(rng, m),
            delta=random_intercept(rng, m, kind),
            kind=kind,
            n=n,
            sample=sample,
            morph=random_word(rng, 1, 8),
            fp_word=random_word(rng, 2, 6, primitive=True),
            roots=n // 2,
            iterate=8 * n,
            far=n,
        )

    def run(self, sr, x: StreamsInput, step: Steps):
        with step("mechanical"):
            si = sr.SlopeIntercept(quad(sr, x.alpha, x.m), quad(sr, x.delta, x.m), x.kind)
            mech = sr.mechanical(si, x.n)
        with step("iet_code"):
            iet = sr.iet_code(sr.params_of(si), x.n)
        with step("apply_stream"):
            phi = sr.compose(sr.parse_genword("".join(x.morph)))
            with step.span("morphisms.BinaryMorphism.apply.stream_read", letters=x.n):
                image = phi.apply(sr.iet_stream(sr.params_of(si))).prefix(x.n)
        with step("sqrt_stream"):
            word = sr.parse_genword("".join(x.fp_word))
            stream = sr.fixed_point_stream(word)
            first = stream[0]
            with step.span("sqroot.square_root_stream.read", letters=x.roots,
                           inner="words.PrefixStream.slice"):
                roots = sr.square_root_stream(stream).prefix(x.roots)
        with step("iterate"):
            fixed = sr.iterate_fixed_point(sr.compose(word), first, x.iterate)
        with step("slice_far"):
            with step.span("words.slice_far", letters=FAR_LETTERS):
                far = sr.mechanical_stream(si).slice(x.far, x.far + FAR_LETTERS)
        return {
            "mech": mech,
            "iet": iet,
            "images": (phi.image0, phi.image1),
            "image": image,
            "first": first,
            "roots": roots,
            "fixed": fixed,
            "far": far,
        }

    def check(self, x: StreamsInput, out) -> bool:
        mech = out["mech"]
        i0, i1 = ref.word_images(x.morph)
        return (
            len(mech) == x.n
            and ref.mechanical_ok(mech, x.alpha, x.delta, x.m, x.kind, ORACLE_PREFIX, x.sample)
            and out["iet"] == mech
            and out["images"] == (i0, i1)
            and out["image"] == ref.substitute(i0, i1, mech)[: x.n]
            and ref.square_roots_ok(x.fp_word, out["first"], out["roots"])
            and len(out["roots"]) == x.roots
            and len(out["fixed"]) == x.iterate
            and out["fixed"][0] == out["first"]
            and ref.fixed_point_ok(x.fp_word, out["fixed"])
            and out["far"]
            == ref.mechanical_letters_at(
                x.alpha, x.delta, x.m, x.kind, range(x.far, x.far + FAR_LETTERS)
            )
        )


# -- algebra ----------------------------------------------------------------------

ROUNDTRIP_LEN = (120, 400)  # entries of about 60 to 230 bits
RUN_EXPONENT_DECADES = (2.0, 4.3)  # k log-uniform from 10^2 to 2*10^4
EIGEN_LEN = (8, 64)  # trial division stays tractable up to 64 letters


@dataclass(frozen=True)
class AlgebraInput:
    word: tuple
    mutation: tuple
    run_rows: tuple
    eigen_word: tuple
    block: tuple
    sqrt_word: tuple


def _mutated(rows, mutation):
    rows = [list(r) for r in rows]
    kind, *rest = mutation
    if kind == "add":
        r, c, delta = rest
        rows[r][c] += delta
    elif kind == "bound_e":  # E := A + C + extra
        rows[2][0] = rows[0][0] + rows[1][0] + rest[0]
    else:  # F := B + D + extra
        rows[2][1] = rows[0][1] + rows[1][1] + rest[0]
    return tuple(tuple(r) for r in rows)


class Algebra(Workload):
    """Representation round trips, rejected mutations, a long run through
    decompose, eigen data, conjugates and the square-root morphism."""

    name = "algebra"
    steps = ("roundtrip", "nonmember", "decompose_run", "eigen", "conjugates", "sqrt_morphism")
    trace_ops = 300
    sizes = {"roundtrip_generators": ROUNDTRIP_LEN, "run_exponent_log10": RUN_EXPONENT_DECADES,
             "eigen_letters": EIGEN_LEN}

    def make_input(self, index: int) -> AlgebraInput:
        rng = op_rng(self.name, self.seed, index)
        kinds = ("add", "add", "bound_e", "bound_f")
        kind = kinds[index % len(kinds)]
        if kind == "add":
            mutation = ("add", rng.randrange(3), rng.randrange(3), rng.choice((-2, -1, 1, 2)))
        else:
            mutation = (kind, rng.randint(0, 3))
        lo, hi = RUN_EXPONENT_DECADES
        k = int(10 ** (lo + (hi - lo) * stratified(index, rng)))
        runs = [(t, 1) for t in random_word(rng, 1, 4)]
        runs.append(("D'", k))
        runs += [(t, 1) for t in random_word(rng, 1, 4)]
        block_word = ref.word_matrix(random_word(rng, 2, 6, primitive=True))
        return AlgebraInput(
            word=random_word(rng, *ROUNDTRIP_LEN),
            mutation=mutation,
            run_rows=ref.runs_matrix(runs),
            eigen_word=random_word(rng, *EIGEN_LEN, primitive=True),
            block=(block_word[0][0], block_word[0][1], block_word[1][0], block_word[1][1]),
            sqrt_word=random_word(rng, 2, 6, alphabet=("G", "D"), primitive=True),
        )

    def run(self, sr, x: AlgebraInput, step: Steps):
        with step("roundtrip"):
            matrix = sr.rep(sr.parse_genword("".join(x.word)))
            member = sr.check_membership(matrix)
            factors = sr.decompose(matrix)
        with step("nonmember"):
            mutated = sr.Mat3(_mutated(matrix.rows, x.mutation))
            verdict = sr.check_membership(mutated)
            try:
                mutated_factors = sr.decompose(mutated)
                rejected = None
            except sr.MembershipError as exc:
                mutated_factors = None
                rejected = exc.certificate
        with step("decompose_run"):
            run_factors = sr.decompose(sr.Mat3(x.run_rows))
        with step("eigen"):
            eigen = sr.dominant_eigen(sr.parse_genword("".join(x.eigen_word)))
            report = sr.yasutomi_check(eigen)
        with step("conjugates"):
            family = sr.conjugates_of(sr.Mat2(*x.block))
        with step("sqrt_morphism"):
            root = sr.sqrt_fixing_morphism(sr.parse_genword("".join(x.sqrt_word)))
        return {
            "matrix": matrix,
            "member": member,
            "factors": factors,
            "verdict": verdict,
            "mutated_factors": mutated_factors,
            "rejected": rejected,
            "run_factors": run_factors,
            "eigen": eigen,
            "report": report,
            "family": family,
            "root": root,
        }

    def check(self, x: AlgebraInput, out) -> bool:
        rows = ref.word_matrix(x.word)
        if out["matrix"].rows != rows or (out["member"].ok, out["member"].certificate) != (True, None):
            return False
        if ref.word_matrix(tokens_of(out["factors"])) != rows:
            return False
        mutated = _mutated(rows, x.mutation)
        expected = ref.first_violation(mutated)
        verdict = (out["verdict"].ok, out["verdict"].certificate)
        if expected is None:
            mutated_ok = (
                verdict == (True, None)
                and out["mutated_factors"] is not None
                and ref.word_matrix(tokens_of(out["mutated_factors"])) == mutated
            )
        else:
            mutated_ok = verdict == (False, expected) and out["rejected"] == expected
        if not mutated_ok:
            return False
        if ref.runs_matrix(ref.runs(tokens_of(out["run_factors"]))) != x.run_rows:
            return False
        eigen, report = out["eigen"], out["report"]
        vector = tuple(quad_triple(v) for v in (eigen.vector.l0, eigen.vector.l1, eigen.vector.rho))
        if not report.ok or not ref.eigen_ok(
            x.eigen_word, quad_triple(eigen.eigenvalue), vector, eigen.field,
            report.conjugate_in_bounds,
        ):
            return False
        family = [(phi.image0, phi.image1) for phi in out["family"]]
        if not ref.conjugates_ok(x.block, family):
            return False
        root = out["root"]
        images = (root.morphism.image0, root.morphism.image1)
        return ref.sqrt_morphism_ok(x.sqrt_word, images, root.power, tokens_of(root.genword))


# -- cli --------------------------------------------------------------------------

CLI_KINDS = (
    "compose",
    "rep",
    "decompose",
    "membership",
    "fixed_point",
    "generate",
    "conjugates",
    "sqrt",
    "sqrt_morphism",
    "bad_input",
    "domain_error",
)


def _matrix_text(rows) -> str:
    return json.dumps([list(r) for r in rows], separators=(",", ":"))


def _field_text(t, m: int) -> str:
    a, b, c = t
    if b == 0:
        return str(a) if c == 1 else f"{a}/{c}"
    return f"({a}{'+' if b > 0 else '-'}{abs(b)}*sqrt({m}))/{c}"


@dataclass(frozen=True)
class CliInput:
    kind: str
    argv: tuple
    expect: tuple  # kind-specific reference data


class Cli(Workload):
    """One ``python -m sturmrep.cli`` child per op, one at a time."""

    name = "cli"
    speed_exponent = 1.0
    steps = CLI_KINDS
    trace_ops = 44
    sizes = {"kinds": CLI_KINDS}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def make_input(self, index: int) -> CliInput:
        rng = op_rng(self.name, self.seed, index)
        kind = CLI_KINDS[index % len(CLI_KINDS)]
        if kind == "compose":
            word = random_word(rng, 1, 6)
            return CliInput(kind, ("compose", "".join(word)), word)
        if kind == "rep":
            word = random_word(rng, 1, 12)
            return CliInput(kind, ("rep", "".join(word)), word)
        if kind == "decompose":
            rows = ref.word_matrix(random_word(rng, 1, 12))
            return CliInput(kind, ("decompose", "--matrix", _matrix_text(rows)), rows)
        if kind == "membership":
            rows = ref.word_matrix(random_word(rng, 1, 12))
            if rng.random() < 0.5:
                rows = _mutated(rows, ("add", rng.randrange(3), rng.randrange(3), rng.choice((-1, 1))))
            return CliInput(kind, ("membership", "--matrix", _matrix_text(rows)), rows)
        if kind == "fixed_point":
            word = random_word(rng, 2, 8, primitive=True)
            n = rng.randint(40, 200)
            return CliInput(kind, ("fixed-point", "".join(word), "--length", str(n)), (word, n))
        if kind == "generate":
            m = rng.choice(FIELDS)
            kind_ = rng.choice(KINDS)
            alpha, delta = random_unit(rng, m), random_intercept(rng, m, kind_)
            n = rng.randint(50, 300)
            argv = ("generate", "--slope", _field_text(alpha, m), "--intercept",
                    _field_text(delta, m), "--kind", kind_, "--length", str(n))
            return CliInput(kind, argv, (alpha, delta, m, kind_, n))
        if kind == "conjugates":
            rows = ref.word_matrix(random_word(rng, 2, 5, primitive=True))
            block = (rows[0][0], rows[0][1], rows[1][0], rows[1][1])
            text = f"[[{block[0]},{block[1]}],[{block[2]},{block[3]}]]"
            return CliInput(kind, ("conjugates", "--matrix", text), block)
        if kind == "sqrt":
            word = random_word(rng, 2, 6, primitive=True)
            blocks = rng.randint(3, 8)
            return CliInput(kind, ("sqrt", "--genword", "".join(word), "--blocks", str(blocks)),
                            (word, blocks))
        if kind == "sqrt_morphism":
            word = random_word(rng, 2, 5, alphabet=("G", "D"), primitive=True)
            return CliInput(kind, ("sqrt-morphism", "".join(word)), word)
        if kind == "bad_input":  # malformed text: exit code 2
            choices = (
                ("compose", "".join(random_word(rng, 1, 4)) + "X"),
                ("decompose", "--matrix", f"[[1,{rng.randint(0, 9)}],[0,1]]"),
                ("membership", "--matrix", "[[1,2,0],[1,3"),
                ("rep",),
                ("generate", "--slope", f"sqrt({rng.choice(FIELDS)})", "--intercept", "0"),
            )
            return CliInput(kind, choices[rng.randrange(len(choices))], (2,))
        # domain errors: well-formed input outside the domain, exit code 1
        q = rng.randint(2, 9)
        nonmember = ref.word_matrix(random_word(rng, 1, 8))
        nonmember = _mutated(nonmember, ("bound_e", rng.randint(0, 3)))
        choices = (
            ("generate", "--slope", f"{rng.randint(1, q - 1)}/{q}", "--intercept", "0"),
            ("decompose", "--matrix", _matrix_text(nonmember)),
            ("fixed-point", "".join(random_word(rng, 1, 6, alphabet=("G", "G'")))),
            ("conjugates", "--matrix", f"[[{q},{q}],[1,1]]"),
        )
        return CliInput(kind, choices[rng.randrange(len(choices))], (1,))

    def run(self, sr, x: CliInput, step: Steps):
        """Untraced: ``python -m sturmrep.cli``.  Traced: the same command
        line through cli_child.py, whose trace is merged into this one."""
        if step.tracer is None:
            argv = [sys.executable, "-m", "sturmrep.cli", *x.argv]
        else:
            stats_path = step.out_dir / "cli-child-trace.json"
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(stats_path), *x.argv]
        with step(x.kind):
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
            )
        if step.tracer is not None:
            step.tracer.merge(json.loads(stats_path.read_text()), step.tracer.op)
            stats_path.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, x: CliInput, out) -> bool:
        code, stdout, stderr = out
        if x.kind in ("bad_input", "domain_error"):
            return code == x.expect[0] and stdout == "" and stderr != ""
        if code != 0 or stderr != "":
            return False
        lines = stdout.splitlines()
        if x.kind == "compose":
            return lines == ["0->{},1->{}".format(*ref.word_images(x.expect))]
        if x.kind == "rep":
            return lines == [_matrix_text(ref.word_matrix(x.expect))]
        if x.kind == "decompose":
            return len(lines) == 1 and ref.word_matrix(_parse_tokens(lines[0])) == x.expect
        if x.kind == "membership":
            cert = ref.first_violation(x.expect)
            want = "member: true" if cert is None else f"member: false ({cert})"
            return lines == [want]
        if x.kind == "fixed_point":
            word, n = x.expect
            return len(lines) == 1 and len(lines[0]) == n and ref.fixed_point_ok(word, lines[0])
        if x.kind == "generate":
            alpha, delta, m, kind, n = x.expect
            return lines == [ref.mechanical_oracle(alpha, delta, m, n, kind)]
        if x.kind == "conjugates":
            images = [tuple(line[3:].split(",1->")) for line in lines]
            return ref.conjugates_ok(x.expect, images)
        if x.kind == "sqrt":
            word, blocks = x.expect
            if len(lines) != 1:
                return False
            parts = lines[0].split(" ")
            roots = [part.removesuffix("^2") for part in parts]
            if len(roots) != blocks or not all(p.endswith("^2") and p != "^2" for p in parts):
                return False
            return ref.fixed_point_roots(word, roots[0][0], len("".join(roots))) == roots
        if x.kind == "sqrt_morphism":
            if len(lines) != 3 or not lines[0].startswith("psi: 0->"):
                return False
            images = tuple(lines[0][len("psi: 0->"):].split(",1->"))
            power = int(lines[1].removeprefix("k: "))
            genword = _parse_tokens(lines[2].removeprefix("genword: "))
            return ref.sqrt_morphism_ok(x.expect, images, power, genword)
        return False


def _parse_tokens(text: str) -> tuple:
    out = []
    for ch in text:
        if ch == "'":
            out[-1] += "'"
        elif ch in "GD":
            out.append(ch)
        else:
            raise ValueError(f"bad generator text {text!r}")
    return tuple(out)


WORKLOADS = {w.name: w for w in (Streams, Algebra, Cli)}
