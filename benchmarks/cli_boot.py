"""Run ``gmewit.cli`` with the benchmark's tracer installed.

    python3 cli_boot.py TRACE.json <gmewit arguments...>

Times the import of ``gmewit.cli`` and the command (entry to ``main`` until
exit), writes them with the trace to TRACE.json, and exits with the
command's own exit status.  Run with PYTHONPATH pointing at ``src``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import gmewit.cli  # noqa: E402

IMPORT_S = time.perf_counter() - START

from tracer import Tracer, install  # noqa: E402


def main() -> None:
    trace_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = 0
    t0 = time.perf_counter()
    try:
        gmewit.cli.main(args=args, prog_name="gmewit")
    except SystemExit as exc:
        code = exc.code
    finally:
        command_s = time.perf_counter() - t0
        with open(trace_path, "w") as fh:
            json.dump({"import_s": IMPORT_S, "command_s": command_s,
                       "summary": tracer.summary(), "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
