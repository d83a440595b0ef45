"""Traced stand-in for ``python -m redblack``.

Usage: ``python3 perfbench/shim.py SPANS_FILE ARGS...``.  Records the time
from process start (``PERFBENCH_SPAWN_NS``, set by the parent just before it
spawned this process) until ``redblack.cli`` is imported, installs the span
wrappers, runs ``redblack.cli.main(ARGS)`` and writes the spans to SPANS_FILE.
"""

import os
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    tracer = Tracer()
    import redblack.cli

    tracer.record("cli.import", spawn_ns, time.monotonic_ns())
    tracer.install()
    try:
        return redblack.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
