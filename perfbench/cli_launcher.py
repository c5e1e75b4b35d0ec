"""Traced entry point for the cli workload.

    python3 cli_launcher.py SPAWN_TIME SPANS_FILE treelang-arguments...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so the ``cli.import``
span covers interpreter start plus ``import treelang.cli``.  The launcher
then installs the benchmark's wrappers, runs ``treelang.cli.main`` inside a
``cli.main`` span and writes every span to SPANS_FILE when it ends.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import treelang.cli  # noqa: E402

from tracing import Tracer  # noqa: E402

imported = time.perf_counter()


def main() -> int:
    spawned, spans_file, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.record("cli.import", spawned, imported)
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = treelang.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        Path(spans_file).write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
