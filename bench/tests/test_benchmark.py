"""Tests of the benchmark itself: python -m pytest bench/tests"""

import argparse
import inspect
import json
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import sturmrep
import tracing
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def tiny_args(workload, trace):
    return argparse.Namespace(workload=workload, seed=3, seconds=0.05, trace=trace)


@pytest.fixture
def tiny(monkeypatch):
    """A few ops per phase and one set-up probe."""
    monkeypatch.setattr(workloads.Workload, "min_ops", 3)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "CLI_PROBES", 1)


def package_bindings():
    """Every attribute of every sturmrep module, and of every class they
    define, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "sturmrep" or name.startswith("sturmrep."):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
                if inspect.isclass(value) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_completes_without_failures(tiny, workload, trace):
    measure = run.per_layer if trace else run.end_to_end
    metrics, extra, attempted, failed, errors = measure(tiny_args(workload, trace))
    assert failed == 0, errors
    assert attempted >= 3
    declared = json.loads(BENCHMARK_JSON.read_text())["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())
        low, _, high = extra["speed_scale_min_median_max"]
        assert low * extra["wall_op_p50_ms"] <= metrics["op_p50_ms"][0] * (1 + 1e-9)
        assert metrics["op_p50_ms"][0] <= high * extra["wall_op_p50_ms"] * (1 + 1e-9)


def test_wrong_result_counts_as_failure(tiny, monkeypatch):
    real = sturmrep.mechanical

    def flipped(si, n):
        word = real(si, n)
        return ("1" if word[0] == "0" else "0") + word[1:]

    monkeypatch.setattr(sturmrep, "mechanical", flipped)
    _, extra, attempted, failed, errors = run.end_to_end(tiny_args("streams", 0))
    assert failed == attempted and extra["error_rate"] == 1.0
    assert errors and "wrong result" in errors[0]


def test_unexpected_exception_counts_as_failure(tiny, monkeypatch):
    def broken(matrix):
        raise RuntimeError("broken")

    monkeypatch.setattr(sturmrep, "decompose", broken)
    runner = run.Runner("algebra", 0)
    latencies, failed, _, _ = runner.loop(0.0, 2)
    assert runner.warm_failed == run.WARMUP_OPS and failed == len(latencies)


def test_wrong_exit_code_counts_as_failure():
    cli = workloads.Cli(0)
    x = next(x for x in map(cli.make_input, range(40)) if x.kind == "domain_error")
    assert not cli.check(x, (0, "", ""))
    assert not cli.check(x, (2, "", "error: x"))
    assert cli.check(x, (1, "", "error: x"))


def test_tracing_patches_importing_modules_and_restores_everything():
    import sturmrep.dynamics as dynamics
    import sturmrep.exactfield as exactfield
    import sturmrep.representation as representation
    import sturmrep.sqroot as sqroot

    before = package_bindings()
    originals = {
        "dynamics.square_free_split": exactfield.square_free_split,
        "dynamics.rep": representation.rep,
        "sqroot.decompose": representation.decompose,
        "sqroot.rep": representation.rep,
    }
    tracer = tracing.Tracer()
    algebra = workloads.Algebra(0)
    with tracing.installed(tracer):
        for qual, original in originals.items():
            mod = {"dynamics": dynamics, "sqroot": sqroot}[qual.split(".")[0]]
            assert getattr(mod, qual.split(".")[1]) is not original, qual
        out = algebra.run(sturmrep, algebra.make_input(0), workloads.Steps("algebra", tracer))
    assert package_bindings() == before
    assert algebra.check(algebra.make_input(0), out)
    assert tracer.stats["dynamics.dominant_eigen"].calls == 1
    assert tracer.stats["exactfield.square_free_split"].calls == 2
    assert tracer.stats["representation.Mat3.mul"].calls > 0
    # every span lies inside its parent's interval
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, _op, _name, t0, t1 in tracer.spans:
        if parent >= 0:
            assert by_id[parent][4] <= t0 <= t1 <= by_id[parent][5]
    for st in tracer.stats.values():
        assert st.self <= st.total + 1e-9


def test_inputs_depend_only_on_seed():
    for cls in (workloads.Streams, workloads.Algebra, workloads.Cli):
        a, b, c = cls(5), cls(5), cls(6)
        assert [a.make_input(i) for i in range(12)] == [b.make_input(i) for i in range(12)]
        assert [a.make_input(i) for i in range(12)] != [c.make_input(i) for i in range(12)]


def test_generator_powers_match_repeated_products():
    for token in ref.MATRICES:
        for k in range(6):
            assert ref.gen_power(token, k) == ref.word_matrix((token,) * k)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "streams", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
