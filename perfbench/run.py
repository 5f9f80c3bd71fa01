"""Benchmark of the shrubs library: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
Each run starts the workload in a fresh process (``worker.py``) that drives
it as one client in a closed loop until its timed windows add up to
``--seconds`` at the reference speed (below), checking every output against
an oracle between operations.

``--trace 0`` prints the end-to-end metrics, measured untraced:

* ``setup_s`` -- process start to the first timed operation (interpreter,
  ``import shrubs``, building the workload); median of seven set-ups;
* ``ops_per_s`` -- operations per second of timed windows;
* ``latency_p50_ms`` and ``latency_tail_ms`` -- the median operation and the
  highest percentile with at least ten samples beyond it;
* ``peak_rss_mb`` -- ``ru_maxrss`` of the working process (of its children
  for ``cli-oneshot``), taken when the timed loop ends.

Every time is rescaled to the reference speed of ``pace.py``, measured
right before and after it, since the speed of a shared machine drifts
from one second to the next; the wall-clock figures are printed beside.

The failed share of operations is printed as ``fail_ratio`` and carried by
``attempted`` and ``failed`` in the result.

``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics: ``<layer>.calls``, ``.busy_s`` and ``.self_s`` per
boundary (wall clock), the cache and order-extraction counters, and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any other outcome
-- no library in ``src``, a crashed or hung worker -- exits non-zero
without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n6", "roundtrip", "orbit-n5", "cli-oneshot")
SETUPS = 7  # set-up-only workers per run, around the measured one
BUDGET_S = 170.0  # every worker of one call must end within this


class WorkerError(Exception):
    pass


def spawn(flags, deadline) -> dict:
    """Run ``worker.py`` with ``flags`` and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "worker.py"), *flags]
    command += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {err.strip()}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"worker printed no result: {err.strip()}") from None


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_time(flags, deadline):
    """One set-up in a fresh worker: wall-clock and rescaled seconds."""
    before = pace.probe()
    wall = spawn(flags + ["--setup-only"], deadline)["setup_s"]
    return wall, wall * 2 * pace.REFERENCE_NS / (before + pace.probe())


def end_to_end(args, deadline):
    flags = ["--workload", args.workload, "--seed", str(args.seed)]
    pace.warm_up()
    # set-ups before and after the measured run, so that one slow spell
    # of a shared machine does not set the median
    setups = [setup_time(flags, deadline) for _ in range(SETUPS // 2)]
    run = spawn(flags + ["--seconds", str(args.seconds)], deadline)
    setups += [setup_time(flags, deadline) for _ in range(SETUPS - SETUPS // 2)]
    wall = run["wall"]
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "ops_per_s": metric(run["ops_per_s"], "1/s"),
        "latency_p50_ms": metric(run["latency_p50_ms"], "ms"),
        "latency_tail_ms": metric(run["latency_tail_ms"], "ms"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall clock "
        f"{statistics.median(w for w, _ in setups):.4g} s",
        "ops_per_s": f"{run['ops']} ops in {run['timed_s']:.3f} s of timed windows; "
        f"wall clock {wall['ops_per_s']:.4g}/s in {wall['timed_s']:.3f} s",
        "latency_p50_ms": f"wall clock {wall['latency_p50_ms']:.4g} ms",
        "latency_tail_ms": f"p{run['tail_percentile']:.3f}, {run['tail_beyond']} of "
        f"{run['ops']} samples beyond; wall clock {wall['latency_tail_ms']:.4g} ms",
    }
    return [run], metrics, notes


def per_layer(args, deadline):
    flags = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    plain = spawn(flags, deadline)
    traced = spawn(flags + ["--trace"], deadline)
    metrics = {}
    for name in traced["installed"]:
        calls, busy, own = traced["layers"].get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.busy_s"] = metric(busy, "s")
        metrics[f"{name}.self_s"] = metric(own, "s")
    for name, (hits, misses) in sorted(traced["caches"].items()):
        metrics[name] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    counters = traced["counters"]
    if "mould.zinb_extract" in traced["installed"]:
        orders = counters["mould.zinb_extract.orders_out"]
        useful = counters["mould.zinb_extract.distinct_first"]
        metrics["mould.zinb_extract.orders_out"] = metric(orders, "count")
        metrics["mould.zinb_extract.useful_ratio"] = metric(useful / orders if orders else 0.0, "ratio")
    if "reconstruction.reconstruct" in traced["installed"]:
        rejected = counters["reconstruction.reconstruct.rejected"]
        metrics["reconstruction.reconstruct.rejected"] = metric(rejected, "count")
    slow = plain["ops_per_s"] / traced["ops_per_s"] - 1 if traced["ops_per_s"] else 0.0
    metrics["tracing.ops_per_s_untraced"] = metric(plain["ops_per_s"], "1/s")
    metrics["tracing.ops_per_s_traced"] = metric(traced["ops_per_s"], "1/s")
    metrics["tracing.overhead_ratio"] = metric(slow, "ratio")
    notes = {"tracing.overhead_ratio": "untraced over traced ops_per_s, minus 1"}
    return [plain, traced], metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "shrubs" / "__init__.py").is_file():
        print(f"no shrubs library under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        runs, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          "closed loop, one client")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':48s} {failed / attempted:>14.6g} ratio  "
          f"({failed} failed of {attempted} attempted)")
    for r in runs:
        for message in r["failures"]:
            print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
