import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

from sturmrep.cli import run
from sturmrep.morphisms import G

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
        ["sqrt", "--genword", "DGG", "--scan-bound", "-1"],
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
    assert capture(["sqrt-morphism", "G'D"])[0] == 1
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


def test_sqrt_and_blocks():
    code, out = capture(["sqrt", "--genword", "DGG", "--length", "16"])
    assert code == 0 and out == "1010101101011010\n"
    code, out = capture(["sqrt", "--genword", "DGG", "--blocks", "4"])
    assert code == 0 and out == "10^2 1^2 01^2 0110101^2\n"


def test_scan_bound_limits_only_the_block_scan(capsys):
    # the root stream of a fixed point comes from its parameter vector, so
    # no bound applies to it; the blocks still come from the scan
    code, out = capture(["sqrt", "--genword", "DGG", "--scan-bound", "1"])
    assert (code, out) == (0, capture(["sqrt", "--genword", "DGG"])[1])
    assert out == (
        "10101011010110101011010101101010110101101010110101011010101101011010101101010110\n")
    code, out = capture(["sqrt", "--genword", "DGG", "--blocks", "4", "--scan-bound", "1"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: no square prefix with root length <= 1\n"


def test_sqrt_morphism():
    code, out = capture(["sqrt-morphism", "DGG"])
    assert code == 0
    assert out.splitlines()[:2] == [
        "psi: 0->1010101,1->1010101101011010101",
        "k: 2",
    ]


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
    monkeypatch.setattr(verify, "decompose", lambda matrix: real(matrix) + (G,))
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
    assert len(examples) == 10
    for argv, expected, prefix in examples:
        code, out = capture(argv)
        assert code == 0, argv
        lines = out.splitlines()
        if prefix:
            lines = lines[: len(expected)]
        assert lines == expected, argv
