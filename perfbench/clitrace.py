"""Run one kummerlab subcommand with the tracer installed, as a child process.

usage: clitrace.py SPANS_PATH IMPORT_PATH SUBCOMMAND [ARGS...]

Writes the spans to SPANS_PATH and the seconds spent in ``import kummerlab``
to IMPORT_PATH, then exits with the subcommand's exit code.
"""

import sys
import time

start = time.perf_counter()
import kummerlab.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def main(argv):
    spans_path, import_path, *cli_argv = argv
    tracer = Tracer().install()
    try:
        code = kummerlab.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
        with open(import_path, "w") as fh:
            fh.write(repr(import_s))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
