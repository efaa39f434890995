"""Traced CLI process: install the tracer, then run ``sdgeom.cli``.

Usage: ``python cli_child.py TRACE_OUT CLI_ARG...``.  The command's output
and exit code are those of ``sdg``; the tracer's aggregates and kept spans go
to TRACE_OUT as JSON.
"""

import sys
import time

from tracer import Tracer, write


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import sdgeom.cli  # noqa: PLC0415 - import time is measured here
    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    code = tracer.run_op(0, argv[0], sdgeom.cli.run, argv)
    tracer.counters["import_s"] = import_s
    write(out_path, tracer.export(), tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
