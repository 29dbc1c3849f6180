"""Traced cli child: ``python bench/child.py SUMMARY_PATH ARGV...``.

Runs ``vesprod.cli.main(ARGV)`` once under the span tracer, exits with its
code, and writes the trace summary as JSON to SUMMARY_PATH.  Stdout is the
cli's own output, so it can be compared byte for byte.
"""

import json
import sys

import vesprod.cli

from tracer import Tracer


def _main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = vesprod.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main())
