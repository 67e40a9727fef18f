"""Child process of the benchmark: one ``tropifs`` CLI invocation.

    python3 bench/launch.py RECORD MODE [tropifs arguments...]

MODE is ``import`` (import ``tropifs.cli`` and exit), ``run`` (call
``tropifs.cli.main`` with the arguments), ``trace`` (the same under the span
tracer) or ``memory`` (spans with tracemalloc peaks).  RECORD receives, as JSON, the monotonic times at which the
import finished and ``main`` started and ended, and in the traced modes the
spans.  The process exits with ``main``'s exit code, as the ``tropifs``
script does.  ``src`` must be on ``PYTHONPATH``.
"""

import json
import sys
import time


def main() -> int:
    record_path, mode, *argv = sys.argv[1:]
    import tropifs.cli

    record = {"imported": time.monotonic()}
    code = 0
    if mode == "run":
        record["start"] = time.monotonic()
        code = tropifs.cli.main(argv)
        record["end"] = time.monotonic()
    elif mode in ("trace", "memory"):
        from tracer import Tracer

        tracer = Tracer(memory=mode == "memory")
        tracer.install()
        record["start"] = time.monotonic()
        code = tracer.run(tropifs.cli.main, argv)
        record["end"] = time.monotonic()
        record["trace"] = tracer.dump()
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
