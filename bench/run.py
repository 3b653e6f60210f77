"""Benchmark of the sturmrep library and CLI.

    python3 bench/run.py --workload {streams,algebra,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace {0,1}]

Run from anywhere inside a sturmrep checkout; the package is imported from
its ``src/`` and results are checked against ``tests/oracles.py`` and
``bench/reference.py``.  One workload runs in one single-threaded process as
a closed loop with one caller: the next op starts when the previous one has
returned and been checked.  Workloads (see workloads.py):

- streams: stream generation, morphisms on streams, square roots, iteration;
- algebra: 3x3 representation, membership, decompose, eigen data, conjugates;
- cli:     one ``python -m sturmrep.cli`` child per op, including bad input.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
setup_s (median over fresh processes of the time from process start to the
first timed op: interpreter, imports, inputs, warm-up), throughput_ops_s,
op_p50_ms, op_p90_ms and peak_rss_mb.  The op timings are given at a fixed
reference host speed: after each op a fixed integer kernel that does not use
sturmrep is timed, and each op latency is multiplied by KERNEL_REF_S over the
median kernel time within KERNEL_WINDOW_S of that op, raised to the
workload's speed_exponent.  On a shared host whose speed drifts by 20-40 %
within a run and from one run to the next this keeps runs of the same code
comparable; a change to sturmrep does not alter the kernel, so it still
shows in full.  setup_s is scaled by the plain ratio, each set-up time by the
kernel timed in its own process right after it.  The process and its
children keep to one CPU, so the kernel runs where the ops ran.  Wall-clock
figures and kernel medians are in the metadata.

Failed ops (an unexpected exception, a wrong result or a wrong exit code) are
counted in ``failed``; the error rate is failed/attempted.  With
``--trace 1`` an untraced phase and a traced phase run back to back and the
last line holds the per-layer metrics; spans go to ``.bench_out/``.
``--workload all`` runs each workload in its own process and prints a table.
The line before the result holds run metadata.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("streams", "algebra", "cli")
SETUP_PROBES = 7
WARMUP_OPS = 2
FIRST_BATCH = 16
OVERRUN = 3  # a run stops at OVERRUN * seconds even if min_ops is not reached
CLI_PROBES = 7
PROBE_KERNELS = 21
KERNEL_MODULUS = (1 << 521) - 1
# Timings read as if the kernel took this long: about its median on a 2-vCPU Xeon VM.
KERNEL_REF_S = 0.5e-3
KERNEL_WINDOW_S = 3.0  # host speed drifts within seconds; 3 s beat 6 s, 10 s and a whole run


def kernel_seconds() -> float:
    """Wall time of a fixed kernel of big-integer and small-integer
    arithmetic; it allocates no containers, so it never triggers the cyclic GC
    and its time depends on the host's speed alone."""
    t0 = time.perf_counter()
    big, small = 0x9E3779B97F4A7C15, 1
    for i in range(300):
        big = (big * big + i) % KERNEL_MODULUS
        small = (small * 1103515245 + 12345) & 0xFFFFFFFF
    return time.perf_counter() - t0


def speed_scales(kernel: list[tuple[float, float]], exponent: float) -> list[float]:
    """For each (time, kernel seconds) sample, KERNEL_REF_S over the median
    kernel time of the samples within KERNEL_WINDOW_S of it, to `exponent`."""
    times = [t for t, _ in kernel]
    return [
        (KERNEL_REF_S / statistics.median(k for _, k in kernel[
            bisect.bisect_left(times, t - KERNEL_WINDOW_S):
            bisect.bisect_right(times, t + KERNEL_WINDOW_S)])) ** exponent
        for t in times
    ]


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU, so that the
    kernel is timed on the CPU the ops and the cli children ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    for rel in ("src/sturmrep/__init__.py", "tests/oracles.py"):
        if not (ROOT / rel).is_file():
            die(f"{rel} not found under {ROOT}; run from a sturmrep checkout")


# -- one workload --------------------------------------------------------------------


class Runner:
    """Setup, measured loops and checks of one workload in this process."""

    def __init__(self, name: str, seed: int):
        sys.path.insert(0, str(ROOT / "src"))
        import sturmrep
        import workloads

        self.sr = sturmrep
        self.make_steps = workloads.Steps
        self.workload = workloads.WORKLOADS[name](seed)
        self.pending = [self.workload.make_input(i) for i in range(FIRST_BATCH)]
        self.errors: list[str] = []
        self.warm_failed = 0
        warm = self.make_steps(name)
        for j in range(WARMUP_OPS):
            if not self.attempt(self.workload.make_input(-1 - j), warm)[1]:
                self.warm_failed += 1

    def attempt(self, x, steps) -> tuple[float, bool]:
        """Run one op; returns its latency and whether its result checked."""
        t0 = time.perf_counter()
        try:
            out = self.workload.run(self.sr, x, steps)
        except Exception as exc:  # an op that raises is a failed op
            latency = time.perf_counter() - t0
            self.note(f"{type(exc).__name__}: {exc}", x)
            return latency, False
        latency = time.perf_counter() - t0
        try:
            ok = bool(self.workload.check(x, out))
        except Exception as exc:  # a result the check cannot read is wrong
            self.note(f"check raised {type(exc).__name__}: {exc}", x)
            return latency, False
        if not ok:
            self.note("wrong result", x)
        return latency, ok

    def note(self, what: str, x) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{what} on input {x!r}"[:2000])

    def loop(self, seconds: float, min_ops: int, tracer=None, ops: int | None = None):
        """Closed loop until `seconds` have passed and `min_ops` ops ran, or
        over exactly the first `ops` inputs when that is given.  The kernel
        is timed after each op, outside its latency, and kept with the time
        since the loop started."""
        steps = self.make_steps(self.workload.name, tracer, OUT)
        latencies: list[float] = []
        kernel: list[tuple[float, float]] = []
        failed = 0
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if ops is not None:
                done = len(latencies) >= ops
            else:
                done = elapsed >= seconds and len(latencies) >= min_ops
            if latencies and (done or elapsed >= OVERRUN * seconds):
                break
            x = self.pending[i] if i < len(self.pending) else self.workload.make_input(i)
            if tracer is None:
                latency, ok = self.attempt(x, steps)
            else:
                tracer.op = i
                with tracer.span(f"{self.workload.name}.op"):
                    latency, ok = self.attempt(x, steps)
            latencies.append(latency)
            kernel.append((time.perf_counter() - start, kernel_seconds()))
            failed += not ok
            i += 1
        return latencies, failed, steps.durations, kernel


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_probe(name: str, seed: int) -> None:
    Runner(name, seed)
    print("ready", flush=True)
    print(statistics.median(kernel_seconds() for _ in range(PROBE_KERNELS)), flush=True)


def probe_setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times from spawning a fresh process to its first timed op, and the
    median kernel time each of those processes measured right after."""
    times, kernels = [], []
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            die(f"setup probe for {name} failed with exit code {proc.returncode}")
        times.append(elapsed)
        kernels.append(float(rest))
    return times, kernels


def interpreter_ms() -> float:
    """Median wall time of ``python -c pass``."""
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- metadata ------------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )


def metadata(args, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "loop": "closed, one caller, single-threaded; no queues, so no wait times",
        **extra,
    }


# -- metrics -------------------------------------------------------------------------


def end_to_end(args) -> tuple[dict, dict, int, int, list[str]]:
    runner = Runner(args.workload, args.seed)
    first_op = time.perf_counter() - T_START
    wall, failed, steps, kernel = runner.loop(args.seconds, runner.workload.min_ops)
    rss = peak_rss_mb(args.workload)
    setups, probe_kernels = probe_setup_seconds(args.workload, args.seed)
    scales = speed_scales(kernel, runner.workload.speed_exponent)
    latencies = [t * k for t, k in zip(wall, scales)]
    p90, beyond = percentile(latencies, 0.9)
    metrics = {
        "setup_s": (statistics.median(
            t * KERNEL_REF_S / k for t, k in zip(setups, probe_kernels)), "s"),
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    attempted = len(latencies) + WARMUP_OPS
    failed += runner.warm_failed
    extra = {
        "ops": len(latencies),
        "warmup_ops": WARMUP_OPS,
        "p50_samples": len(latencies),
        "p90_samples": len(latencies),
        "p90_samples_beyond": beyond,
        "kernel_median_ms": statistics.median(k for _, k in kernel) * 1e3,
        "kernel_ref_ms": KERNEL_REF_S * 1e3,
        "kernel_window_s": KERNEL_WINDOW_S,
        "speed_exponent": runner.workload.speed_exponent,
        "speed_scale_min_median_max": [min(scales), statistics.median(scales), max(scales)],
        "wall_throughput_ops_s": len(wall) / sum(wall),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_op_p90_ms": percentile(wall, 0.9)[0] * 1e3,
        "error_rate": failed / attempted,
        "setup_probe_s": setups,
        "setup_probe_kernel_ms": [k * 1e3 for k in probe_kernels],
        "this_process_setup_s": first_op,
        "steps": {k: len(v) for k, v in steps.items()},
        "op_sizes": runner.workload.sizes,
    }
    return metrics, extra, attempted, failed, runner.errors


def per_layer(args) -> tuple[dict, dict, int, int, list[str]]:
    from tracing import Tracer, installed

    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    ops = runner.workload.trace_ops
    plain, plain_failed, steps, _ = runner.loop(args.seconds, 1, ops=ops)
    tracer = Tracer()
    with installed(tracer):  # the same inputs again, traced
        traced, traced_failed, _, _ = runner.loop(args.seconds, 1, tracer, ops=len(plain))
    overhead = (len(plain) / sum(plain)) / (len(traced) / sum(traced))
    cli = {}
    if args.workload == "cli":
        imports, commands = zip(*tracer.child_times)
        cli = {
            "interpreter_ms": interpreter_ms(),
            "import_ms": statistics.median(imports) * 1e3,
            "command_ms": statistics.median(commands) * 1e3,
        }
    metrics = layer_metrics(tracer, args.workload, steps, overhead, cli)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": tracer.spans,
    }))
    attempted = len(plain) + len(traced) + WARMUP_OPS
    failed = plain_failed + traced_failed + runner.warm_failed
    extra = {
        "untraced_ops": len(plain),
        "traced_ops": len(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "error_rate": failed / attempted,
        "size_samples": {k: {b: len(v) for b, v in d.items()} for k, d in tracer.sizes.items()},
    }
    return metrics, extra, attempted, failed, runner.errors


MODULES = ("exactfield", "words", "morphisms", "representation", "dynamics", "sqroot")


def layer_metrics(tracer, workload: str, steps: dict, overhead: float, cli: dict) -> dict:
    from tracing import Stat
    from workloads import WORKLOADS

    empty = Stat()

    def st(name: str) -> Stat:
        return tracer.stats.get(name, empty)

    def per_letter_us(name: str) -> float:
        s = st(name)
        return s.total / s.letters * 1e6 if s.letters else 0.0

    def bucket_median(name: str, bucket: str, scale: float) -> float:
        values = tracer.sizes.get(name, {}).get(bucket)
        return statistics.median(values) * scale if values else 0.0

    apply_, read = st("morphisms.BinaryMorphism.apply"), st("morphisms.BinaryMorphism.apply.stream_read")
    root_read = st("sqroot.square_root_stream.read")
    out = {
        "exactfield.square_free_split.calls": (st("exactfield.square_free_split").calls, "count"),
        "exactfield.square_free_split.self_s": (st("exactfield.square_free_split").self, "s"),
        "exactfield.square_free_split.max_ms": (st("exactfield.square_free_split").max * 1e3, "ms"),
        "exactfield.QuadExt.floor.calls": (st("exactfield.QuadExt.floor").calls, "count"),
        "exactfield.QuadExt.floor.self_s": (st("exactfield.QuadExt.floor").self, "s"),
        "exactfield.QuadExt.sign.calls": (st("exactfield.QuadExt.sign").calls, "count"),
        "exactfield.QuadExt.sign.self_s": (st("exactfield.QuadExt.sign").self, "s"),
        "words.mechanical.letters": (st("words.mechanical").letters, "count"),
        "words.mechanical.us_per_letter": (per_letter_us("words.mechanical"), "us"),
        "words.iet_code.letters": (st("words.iet_code").letters, "count"),
        "words.iet_code.us_per_letter": (per_letter_us("words.iet_code"), "us"),
    }
    for gen in ("mechanical", "iet_code"):
        for bucket in ("n_le_512", "n_le_1024", "n_gt_1024"):
            out[f"words.{gen}.us_per_letter.{bucket}"] = (
                bucket_median(f"words.{gen}", bucket, 1e6), "us")
    out.update({
        "words.PrefixStream.slice.self_s": (st("words.PrefixStream.slice").self, "s"),
        "words.slice_far.us_per_returned_letter": (per_letter_us("words.slice_far"), "us"),
        "morphisms.compose.self_s": (st("morphisms.compose").self, "s"),
        "morphisms.BinaryMorphism.apply.self_s": (apply_.self + read.self, "s"),
        "morphisms.BinaryMorphism.apply.letters": (apply_.letters + read.letters, "count"),
        "morphisms.conjugates_of.calls": (st("morphisms.conjugates_of").calls, "count"),
        "morphisms.conjugates_of.self_s": (st("morphisms.conjugates_of").self, "s"),
        "representation.rep.self_s": (st("representation.rep").self, "s"),
        "representation.Mat3.mul.calls": (st("representation.Mat3.mul").calls, "count"),
        "representation.check_membership.calls": (st("representation.check_membership").calls, "count"),
        "representation.check_membership.self_s": (st("representation.check_membership").self, "s"),
        "representation.decompose.calls": (st("representation.decompose").calls, "count"),
        "representation.decompose.self_s": (st("representation.decompose").self, "s"),
        "representation.decompose.tokens": (st("representation.decompose").letters, "count"),
    })
    for bucket in ("bits_le_16", "bits_le_64", "bits_gt_64"):
        out[f"representation.decompose.ms_per_op.{bucket}"] = (
            bucket_median("representation.decompose", bucket, 1e3), "ms")
    out["dynamics.dominant_eigen.self_s"] = (st("dynamics.dominant_eigen").self, "s")
    for bucket in ("trace_bits_le_16", "trace_bits_le_32", "trace_bits_gt_32"):
        out[f"dynamics.dominant_eigen.ms_per_op.{bucket}"] = (
            bucket_median("dynamics.dominant_eigen", bucket, 1e3), "ms")
    out.update({
        "dynamics.fixed_point_params.self_s": (st("dynamics.fixed_point_params").self, "s"),
        "dynamics.iterate_fixed_point.letters": (st("dynamics.iterate_fixed_point").letters, "count"),
        "dynamics.iterate_fixed_point.self_s": (st("dynamics.iterate_fixed_point").self, "s"),
        "sqroot.square_root_stream.us_per_letter": (per_letter_us("sqroot.square_root_stream.read"), "us"),
        "sqroot.scan_letters_per_root_letter": (
            root_read.inner / root_read.letters if root_read.letters else 0.0, "ratio"),
        "sqroot.sqrt_fixing_morphism.self_s": (st("sqroot.sqrt_fixing_morphism").self, "s"),
        "cli.interpreter_ms": (cli.get("interpreter_ms", 0.0), "ms"),
        "cli.import_ms": (cli.get("import_ms", 0.0), "ms"),
        "cli.command_ms": (cli.get("command_ms", 0.0), "ms"),
    })
    for module in MODULES:
        busy = sum(s.self for name, s in tracer.stats.items() if name.startswith(module + "."))
        out[f"{module}.self_s"] = (busy, "s")
    for name, cls in WORKLOADS.items():
        for step in cls.steps:
            values = steps.get(step) if name == workload else None
            out[f"{name}.{step}.op_p50_ms"] = (
                statistics.median(values) * 1e3 if values else 0.0, "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# -- entry points ----------------------------------------------------------------------


def run_one(args) -> int:
    measure = per_layer if args.trace else end_to_end
    metrics, extra, attempted, failed, errors = measure(args)
    for line in errors:
        print(f"bench: failed op: {line}", file=sys.stderr)
    print(json.dumps({"metadata": metadata(args, extra)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints one table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        status |= not result["correct"]
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
    for name, key, value, unit in rows:
        print(f"{name:8} {key:48} {value:>16.6g} {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    check_checkout()
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
