"""Run one ``sturmrep.cli`` command with the tracer installed.

    python bench/cli_child.py <trace-file> <cli arguments...>

Used by the traced run of the cli workload in place of
``python -m sturmrep.cli``: output and exit code are the command's own, and
the trace, with the import and command times, is written to <trace-file>
as JSON for the parent to merge.
"""

import time

T0 = time.perf_counter()
import sturmrep.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, installed  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with installed(tracer):
        t0 = time.perf_counter()
        code = sturmrep.cli.run(argv)
        command_s = time.perf_counter() - t0
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump({**tracer.dump(), "import_s": IMPORT_S, "command_s": command_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
