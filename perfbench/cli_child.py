"""Stand-in for the ``skewvn`` console script, with optional tracing.

    python3 perfbench/cli_child.py TRACE_JSON|- <skewvn arguments...>

Runs ``skewvn.cli.main`` exactly as the console script does.  Given a
TRACE_JSON path rather than ``-``, it first installs the per-layer wrappers
of tracing.py and writes the span totals there when main returns or
raises.  Exit code, stdout, stderr and tracebacks are those of the real
command.
"""

import json
import sys

import tracing


def run():
    out_path, argv = sys.argv[1], sys.argv[2:]
    if out_path == "-":
        from skewvn.cli import main

        return main(argv)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from skewvn.cli import main

    try:
        code = main(argv)
    finally:
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
