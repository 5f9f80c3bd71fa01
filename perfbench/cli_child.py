"""Child process of the traced ``cli-oneshot`` run.

    python3 perfbench/cli_child.py --stats OUT.json <shrubs cli arguments>

Does what ``python -m shrubs.cli <arguments>`` does, and also times
``import shrubs.cli`` and ``shrubs.cli.main(argv)`` as the spans
``cli.import`` and ``cli.main``, with the library boundaries below them.
The spans and counters go to ``OUT.json`` for the parent to merge.
"""

import json
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--stats":
        print("usage: cli_child.py --stats OUT.json ARGS...", file=sys.stderr)
        return 2
    stats, argv = sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    start = time.perf_counter_ns()
    import shrubs.cli

    tracer.record("cli.import", start, time.perf_counter_ns())
    tracer.install()
    cli_main = tracer.wrap("cli.main", shrubs.cli.main)
    tracer.resume()
    try:
        code = cli_main(argv)
    finally:
        tracer.pause()
        sys.stdout.flush()
        with open(stats, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
