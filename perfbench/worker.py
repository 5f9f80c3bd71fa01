"""One run of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--spawned-at T]

Prints one JSON object.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, ``import shrubs`` and building the workload.
With ``--setup-only`` the process stops there.  With ``--trace`` the
library boundaries are wrapped and the spans are written to
``.perfbench/spans-<workload>.tsv`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import shrubs

    if Path(shrubs.__file__).resolve().parent != src / "shrubs":
        print(f"imported shrubs from {shrubs.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, ROOT, traced=args.trace)
    try:
        spawned = args.spawned_at if args.spawned_at is not None else time.monotonic()
        setup_s = time.monotonic() - spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            installed = tracer.install()
        raw = workloads.run(workload, args.seconds, tracer)
        if tracer is not None:
            for stats in getattr(workload, "child_stats", ()):
                with open(stats) as fh:
                    tracer.absorb(json.load(fh))
    finally:
        workload.close()

    result = workloads.summarize(raw)
    result["setup_s"] = setup_s
    result["failures"] = raw["failures"]
    if tracer is not None:
        if tracing.resolve("shrubs.cli", "main") is not None:
            installed += list(tracing.CLI_BOUNDARIES)
        result["installed"] = installed
        result["layers"] = tracer.summary()
        result["counters"] = tracer.counters
        result["caches"] = tracer.caches
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
