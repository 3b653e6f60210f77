import ast
import contextlib
import cProfile
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import sturmrep
from sturmrep import cli
from sturmrep.cli import run
from sturmrep.morphisms import G, Mat2, compose, conjugates_of, parse_genword
from sturmrep.representation import rep
from sturmrep.sqroot import sqrt_fixing_morphism

from oracles import mechanical_oracle

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_rep():
    code, out = capture(["rep", "DGG"])
    assert code == 0
    assert out == "[[1,2,0],[1,3,0],[1,2,1]]\n"


def test_compose():
    code, out = capture(["compose", "DGG"])
    assert code == 0
    assert out == "0->10,1->10101\n"


def test_apply():
    code, out = capture(["apply", "0->10,1->10101", "10"])
    assert code == 0
    assert out == "1010110\n"


def test_decompose_round_trip():
    import random

    rng = random.Random(6)
    words = ["G'D'GDD"] + [
        "".join(rng.choice(("G", "G'", "D", "D'")) for _ in range(rng.randint(0, 12)))
        for _ in range(20)
    ]
    for text in words:
        code, out = capture(["rep", text])
        assert code == 0
        code, word = capture(["decompose", "--matrix", out.strip()])
        assert code == 0
        code, out2 = capture(["rep", word.strip()])
        assert code == 0
        assert out2 == out


def test_decompose_rejects_with_diagnostic(capsys):
    code, _ = capture(["decompose", "--matrix", "[[1,1,0],[0,1,0],[0,2,1]]"])
    assert code == 1
    assert "membership failed: F<B+D" in capsys.readouterr().err


def test_decompose_refuses_to_print_more_than_10_7_generators():
    # D'^k for k = 10^23 (past sys.maxsize) and 2^62: each child has 2 s,
    # so building the text of the word would fail the test
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for k in (10**23, 2**62):
        done = subprocess.run(
            [sys.executable, "-m", "sturmrep.cli", "decompose",
             "--matrix", f"[[1,0,0],[{k},1,0],[0,0,1]]"],
            env=env, capture_output=True, text=True, timeout=2,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: the factorization has {k} generators, more than 10000000 can be printed\n"
        )
    assert capture(["decompose", "--matrix", "[[1,0,0],[10000001,1,0],[0,0,1]]"]) == (1, "")


def test_integers_of_any_length_keep_the_exit_codes():
    # each child starts with CPython's 4300-digit cap on int <-> str (from
    # 3.10.7), which the CLI lifts; the texts stay str in this process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(*argv):
        done = subprocess.run([sys.executable, "-m", "sturmrep.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=20)
        return done.returncode, done.stdout, done.stderr

    word = "GD'" * 12000
    code, matrix, err = child("rep", word)
    assert (code, err) == (0, "") and len(matrix) > 20000
    assert child("decompose", "--matrix", matrix.strip()) == (0, word + "\n", "")
    k = "1" + "0" * 5000
    assert child("decompose", "--matrix", f"[[1,0,0],[{k},1,0],[0,0,1]]") == (
        1, "", f"error: the factorization has {k} generators, more than 10000000 can be printed\n")
    assert child("membership", "--matrix", f"[[1,{k},0],[0,1,0],[0,0,1]]") == (
        0, "member: true\n", "")
    assert child("generate", "--slope", f"(0+1*sqrt(3))/{k}", "--intercept", "0",
                 "--length", "10") == (0, "0000000000\n", "")
    assert child("decompose", "--matrix", "[" * 100_000) == (
        2, "", "error: bad matrix literal: nested too deeply\n")


def test_membership_reports_both_ways():
    code, out = capture(["membership", "--matrix", "[[1,2,0],[1,3,0],[1,2,1]]"])
    assert code == 0 and out == "member: true\n"
    code, out = capture(["membership", "--matrix", "[[1,1,0],[0,1,0],[0,2,1]]"])
    assert code == 0 and out == "member: false (F<B+D)\n"


def test_parse_errors_exit_2(capsys):
    assert capture(["rep", "GXD"])[0] == 2
    assert capture(["decompose", "--matrix", "[[1,2],[3,4]]"])[0] == 2
    assert capture(["generate", "--slope", "nope", "--intercept", "0", "--length", "5"])[0] == 2
    assert capture(["apply", "0->10,1->1", "10x"])[0] == 2
    capsys.readouterr()
    # JSON true/false are not integer entries, although bool is an int
    for argv, size in (
        (["membership", "--matrix", "[[true,0,0],[0,true,0],[0,0,true]]"], 3),
        (["decompose", "--matrix", "[[true,0,0],[0,true,0],[0,0,true]]"], 3),
        (["membership", "--matrix", "[[false,0,0],[0,1,0],[0,0,1]]"], 3),
        (["conjugates", "--matrix", "[[true,true],[0,true]]"], 2),
    ):
        assert capture(argv) == (2, "")
        assert capsys.readouterr().err == f"error: expected a {size}x{size} integer matrix\n"
    # negative sizes are usage errors, with the offending flag on stderr
    for argv in (
        ["generate", "--slope", "(0+1*sqrt(2))/2", "--intercept", "0", "--length", "-5"],
        ["fixed-point", "DGG", "--length", "-3"],
        ["sqrt", "--genword", "DGG", "--length", "-3"],
        ["sqrt", "--genword", "DGG", "--blocks", "-2"],
        ["verify", "--suite", "roundtrip", "--samples", "-1"],
    ):
        assert capture(argv) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert err[-1].endswith(f"argument {argv[-2]}: must be non-negative, got {argv[-1]}")


def test_domain_errors_exit_1(capsys):
    # rational slope
    code, _ = capture(
        ["generate", "--slope", "1/2", "--intercept", "0", "--length", "5"]
    )
    assert code == 1
    # non-primitive fixed point
    assert capture(["fixed-point", "GG"])[0] == 1
    assert capture(["sqrt-morphism", "GG"])[0] == 1
    capsys.readouterr()
    # slope and intercept from two fields, also when no letter is asked for
    for length in ("60", "0"):
        code, out = capture(
            ["generate", "--slope", "(0+1*sqrt(2))/2", "--intercept",
             "(0+1*sqrt(3))/3", "--length", length]
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: cannot mix sqrt(3) with sqrt(2)\n"


def test_unknown_subcommand_exits_2(capsys):
    assert capture(["frobnicate"])[0] == 2
    assert capture(["rep", "DGG", "--bogus"])[0] == 2
    capsys.readouterr()


def test_generate():
    code, out = capture(
        [
            "generate",
            "--slope",
            "(0+1*sqrt(3))/3",
            "--intercept",
            "(0+1*sqrt(3))/3",
            "--length",
            "5",
        ]
    )
    assert code == 0 and out == "10101\n"
    code, out = capture(
        ["generate", "--slope", "(3-1*sqrt(5))/2", "--intercept", "0",
         "--kind", "upper", "--length", "10"]
    )
    assert code == 0
    assert len(out.strip()) == 10


def test_generate_with_a_61_bit_prime_radicand():
    # parsing factors the prime radicand 2^61-1: trial division to its
    # square root is about 7.6e8 divisions, to its cube root about 6.6e5
    m = 2**61 - 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "sturmrep.cli", "generate",
         "--slope", f"(0+1*sqrt({m}))/{2**31}", "--intercept", "0", "--length", "10"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == mechanical_oracle((0, 1, 2**31), (0, 0, 1), m, 10) + "\n"


def test_fixed_point():
    code, out = capture(["fixed-point", "DGG", "--length", "20"])
    assert code == 0 and out == "10101101010110101011\n"
    code, out = capture(["fixed-point", "DGG", "--length", "5", "--show-params"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eigenvalue: (2+1*sqrt(3))/1"
    assert lines[1].startswith("params: l0=(3-1*sqrt(3))/3 l1=(0+1*sqrt(3))/3")
    assert lines[2] == "10101"


def test_conjugates():
    code, out = capture(["conjugates", "--matrix", "[[1,1],[0,1]]"])
    assert code == 0
    assert out == "0->0,1->01\n0->0,1->10\n"


def _capped_child(*argv):
    # one CLI run in a child with 1 GiB of address space: output past the
    # cap, built in full, ends in a MemoryError traceback, not in a process
    # that takes the machine's memory
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "sturmrep.cli", *argv], env=env, preexec_fn=limit,
        capture_output=True, text=True, timeout=10,
    )


def test_compose_conjugates_and_sqrt_morphism_refuse_to_print_more_than_10_7_letters():
    # (GD')^k has A+B+C+D = F(2k+3) letters: 2.4e7 for k = 17, 4.5e13 for
    # k = 32; the family of a det-1 matrix of entry sum n has (n-1)*n
    # letters: 3163 is the least n past the cap, and the block of (GD')^12
    # has n = 196418.  The square-root morphism of (DGG)^12 (k = 1) is just
    # past the cap, that of (GD')^11 (k = 3) far past it
    block = Mat2(*rep(parse_genword("GD'" * 12)).named()[:4])
    cases = [
        (("compose", "GD'" * 17), "the morphism has 24157817 letters"),
        (("compose", "GD'" * 32), "the morphism has 44945570212853 letters"),
        (("conjugates", "--matrix", "[[1,0],[3161,1]]"), "the family has 10001406 letters"),
        (("conjugates", "--matrix", str(block)), f"the family has {196417 * 196418} letters"),
        (("sqrt-morphism", "DGG" * 12), "the morphism has 13623482 letters"),
        (("sqrt-morphism", "GD'" * 11), "the morphism has 117669030460994 letters"),
    ]
    for argv, text in cases:
        done = _capped_child(*argv)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {text}, more than 10000000 can be printed\n"
    # a parse error and the checks of conjugates_of and sqrt_fixing_morphism
    # come first
    assert _capped_child("compose", "GD'" * 32 + "X").returncode == 2
    assert _capped_child("sqrt-morphism", "GD'" * 11 + "X").returncode == 2
    for matrix, text in (("[[2,0],[3161,1]]", "incidence matrix must have determinant 1"),
                         ("[[-1,0],[3165,1]]", "incidence matrices have non-negative entries")):
        done = _capped_child("conjugates", "--matrix", matrix)
        assert (done.returncode, done.stderr) == (1, f"error: {text}\n")
    done = _capped_child("sqrt-morphism", "")
    assert (done.returncode, done.stderr) == (1, "error: identity is not primitive\n")


def test_compose_conjugates_and_sqrt_morphism_print_up_to_the_cap(monkeypatch):
    # just under the cap in a child: (GD')^16 has 9227465 letters, the
    # 3161 members of entry sum 3162 have 9995082, and the square-root
    # morphism of (GD')^5 has 3524578
    word = "GD'" * 16
    done = _capped_child("compose", word)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{compose(parse_genword(word))}\n"
    done = _capped_child("conjugates", "--matrix", "[[1,0],[3160,1]]")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [str(phi) for phi in conjugates_of(Mat2(1, 0, 3160, 1))]
    word = "GD'" * 5
    done = _capped_child("sqrt-morphism", word)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{sqrt_fixing_morphism(parse_genword(word))}\n"
    # at the cap exactly, in process: DGG has 7 letters, a family of entry
    # sum 4 has 12, and the square-root morphism of DGG has 7 + 19
    monkeypatch.setattr(cli, "MAX_PRINTED", 7)
    assert capture(["compose", "DGG"]) == (0, "0->10,1->10101\n")
    assert capture(["compose", "DGGG"])[0] == 1
    monkeypatch.setattr(cli, "MAX_PRINTED", 12)
    assert capture(["conjugates", "--matrix", "[[1,2],[0,1]]"]) == (
        0, "0->0,1->001\n0->0,1->010\n0->0,1->100\n"
    )
    assert capture(["conjugates", "--matrix", "[[1,1],[1,2]]"])[0] == 1
    monkeypatch.setattr(cli, "MAX_PRINTED", 26)
    assert capture(["sqrt-morphism", "DGG"]) == (0, f"{sqrt_fixing_morphism(parse_genword('DGG'))}\n")
    assert capture(["sqrt-morphism", "G'D"])[0] == 1


def test_sqrt_and_blocks():
    code, out = capture(["sqrt", "--genword", "DGG", "--length", "16"])
    assert code == 0 and out == "1010101101011010\n"
    code, out = capture(["sqrt", "--genword", "DGG", "--blocks", "4"])
    assert code == 0 and out == "10^2 1^2 01^2 0110101^2\n"


def test_sqrt_blocks_have_no_scan_bound(capsys):
    # every position of a Sturmian word begins a square, so the block scan
    # of a fixed point is uncapped: these roots passed the old 10 000-letter
    # default, and the option that set it is gone
    word = "G'" * 12000 + "D" + "G" * 12000 + "D"
    code, out = capture(["sqrt", "--genword", word, "--blocks", "3"])
    assert code == 0
    roots = [block.removesuffix("^2") for block in out.split()]
    assert [len(root) for root in roots] == [12002] * 3
    assert out == " ".join(f"{root}^2" for root in roots) + "\n"
    capsys.readouterr()
    assert capture(["sqrt", "--genword", "DGG", "--scan-bound", "1"]) == (2, "")
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --scan-bound 1\n")
    # the root stream comes from the parameter vector and reads no scan
    code, out = capture(["sqrt", "--genword", "DGG"])
    assert code == 0
    assert out == (
        "10101011010110101011010101101010110101101010110101011010101101011010101101010110\n")


def test_sqrt_morphism():
    code, out = capture(["sqrt-morphism", "DGG"])
    assert code == 0
    assert out.splitlines()[:2] == [
        "psi: 0->1010101,1->1010101101011010101",
        "k: 2",
    ]
    # a fixed point that is not characteristic has a fixing morphism too
    assert capture(["sqrt-morphism", "G'D"]) == (0, (
        "psi: 0->100101001001010010100,1->1001010010100\n"
        "k: 3\n"
        "genword: G'DG'D'GD'\n"
    ))


def test_verify_deterministic():
    args = ["verify", "--suite", "relations", "--seed", "7"]
    assert capture(args) == capture(args)
    code, out = capture(["verify", "--suite", "roundtrip", "--samples", "40", "--seed", "1"])
    assert code == 0
    assert "PASS roundtrip" in out
    assert capture(["verify", "--suite", "bogus"])[0] == 2


def test_verify_reports_the_first_failing_property(monkeypatch):
    import sturmrep.verify as verify

    real = verify.decompose
    # one generator too many: rep is faithful, so every round trip breaks
    monkeypatch.setattr(verify, "decompose", lambda matrix: (*real(matrix), G))
    result = verify.run_suite("roundtrip", 3, 0)
    assert not result.ok
    assert result.details.startswith("round trip failed: [[")
    code, out = capture(["verify", "--suite", "roundtrip", "--samples", "3"])
    assert code == 1
    assert out.splitlines()[1] == f"FAIL roundtrip: {result.details}"


def test_verify_header_records_seed():
    _, out = capture(["verify", "--suite", "relations", "--seed", "99"])
    assert out.splitlines()[0].startswith("verify: seed=99")


def test_only_verify_loads_the_suites():
    # a fresh interpreter, so that no earlier test has imported the suites
    child = (
        "import sys\n"
        "from sturmrep.cli import run\n"
        "code = run(['compose', 'DGG'])\n"
        "print(code, 'sturmrep.verify' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0->10,1->10101\n0 False\n", "")


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # -S: no site hooks, so only the package's own imports count
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import sturmrep\n"
        "print(sorted(m for m in sys.modules if m.startswith('sturmrep.')))\n"
        "import sturmrep.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'json', 'fractions', 'decimal')"
        " if m in sys.modules])\n"
        "print(len(sturmrep.__all__))\n"
        "print([n for n in sturmrep.__all__ if type(getattr(sturmrep, n)) is type(sys)])\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    eager = sorted(
        f"sturmrep.{path.stem}"
        for path in (ROOT / "src" / "sturmrep").glob("*.py")
        if path.stem not in ("__init__", "cli", "verify")
    )
    # the package imports every module but the entry point and the suites
    # eagerly, and its 58 public names leave out the private value base
    # and the submodules
    assert done.stdout.splitlines() == [str(eager), "[]", "58", "[]"]


def test_every_public_name_has_a_caller_in_the_library():
    # a public name is read somewhere in src/ besides its export; the names
    # left wait for the ROADMAP items that give them callers: EXCHANGE and
    # rep_exchange items 8 and 20, cone_contains items 4 and 12.  When
    # those land, this set shrinks
    read = set()
    for path in (ROOT / "src" / "sturmrep").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert set(sturmrep.__all__) - read == {"EXCHANGE", "rep_exchange", "cone_contains"}
    # each public method and class-level property of a public class, its
    # package bases' included, is called while the CLI transcript and
    # verify --suite all --seed 0 run: its own code object, so a method is
    # not taken for another class's method of the same name.  Those left,
    # by (class, name), with the reason each waits
    profile = cProfile.Profile()
    with contextlib.redirect_stderr(io.StringIO()), profile:
        for argv in [e["argv"] for e in json.loads(TRANSCRIPT.read_text())] + [
            ["verify", "--suite", "all", "--seed", "0"]
        ]:
            run(argv, out=io.StringIO())
    called = {entry.code for entry in profile.getstats()}
    kinds = (FunctionType, classmethod, staticmethod, property)
    methods = {
        (base.__name__, attr): (v.fget if isinstance(v, property) else getattr(v, "__func__", v))
        for cls in map(vars(sturmrep).get, sturmrep.__all__) if isinstance(cls, type)
        for base in cls.__mro__ if base.__module__.startswith("sturmrep")
        for attr, v in vars(base).items() if attr[0] != "_" and isinstance(v, kinds)
    }
    assert {key for key, f in methods.items() if f.__code__ not in called} == {
        ("Mat3", "inverse"),  # ROADMAP item 4
        ("Mat3", "apply"),  # ROADMAP item 4
        ("Mat3", "det"),  # ROADMAP item 4; inverse reads it
        ("QuadExt", "conjugate"),  # tests/oracles.py reads it
        ("EigenData", "field"),  # bench/workloads.py reads it, as item 1 will
        ("QuadExt", "sign"),  # QuadExt.__bool__ reads it, which no command takes
        ("Mat2", "identity"),  # Mat2.__pow__ reads it, which no command takes
        ("Mat3", "identity"),  # Mat3.__pow__ reads it, which no command takes
        ("PrefixStream", "slice"),  # __getitem__ and bench's far slice read it
    }


def record(argv, monkeypatch):
    """(exit code, stdout, stderr) of one in-process CLI run; usage text
    wraps at a fixed width."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def test_transcript_replays_byte_identical(monkeypatch):
    # recorded before the value classes left dataclasses; see record()
    entries = json.loads(TRANSCRIPT.read_text())
    assert {e["argv"][0] for e in entries if e["argv"]} == {
        "compose", "apply", "rep", "decompose", "membership", "fixed-point", "generate",
        "conjugates", "sqrt", "sqrt-morphism", "verify"}
    assert {e["exit"] for e in entries} == {0, 1, 2}
    changed = [
        e["argv"] for e in entries
        if record(e["argv"], monkeypatch) != (e["exit"], e["stdout"], e["stderr"])
    ]
    assert changed == []


def test_help_per_subcommand(capsys):
    assert capture(["--help"])[0] == 0
    for name in ("compose", "rep", "decompose", "membership", "fixed-point",
                 "generate", "conjugates", "sqrt", "sqrt-morphism", "verify", "apply"):
        assert capture([name, "--help"])[0] == 0
        capsys.readouterr()


def readme_examples():
    """(argv, expected lines, prefix only) for each `$ sturmrep ...` line in
    README's code blocks; a trailing `...` marks the lines as a prefix."""
    examples = []
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ sturmrep "):
            current = []
            examples.append((shlex.split(line)[2:], current))
        elif current is not None:
            current.append(line)
    return [
        (argv, lines[:-1], True) if lines[-1:] == ["..."] else (argv, lines, False)
        for argv, lines in examples
    ]


def test_readme_examples_match_output():
    examples = readme_examples()
    assert len(examples) == 11
    for argv, expected, prefix in examples:
        code, out = capture(argv)
        assert code == 0, argv
        lines = out.splitlines()
        if prefix:
            lines = lines[: len(expected)]
        assert lines == expected, argv
