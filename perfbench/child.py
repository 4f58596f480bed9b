"""Runs one ``relpoisson`` command line under instrumentation.

    python3 perfbench/child.py spans|count SNAPSHOT -- ARGS...

The benchmark's traced ``cli`` passes start each command through this file
instead of ``python -m relpoisson.cli``.  ``spans`` installs the span
tracer after the import, ``count`` runs the command under the counting
profiler; either way the aggregate is written to SNAPSHOT as JSON and the
process exits with the command's own exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
from relpoisson import cli  # noqa: E402


def main(argv) -> int:
    mode, snapshot, separator, *args = argv
    if mode not in ("spans", "count") or separator != "--":
        raise SystemExit(__doc__)
    if mode == "spans":
        tracer = tracing.SpanTracer()
        tracer.install()
        try:
            code = cli.main(args)
        finally:
            tracer.uninstall()
        data = tracer.snapshot()
    else:
        codes = []
        data = tracing.count_fraction_ops(lambda: codes.append(cli.main(args)))
        code = codes[0]
    with open(snapshot, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
