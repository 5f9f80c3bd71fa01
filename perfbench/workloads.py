"""The benchmark's workloads, their oracles and the closed-loop runner.

Every workload is one client in a closed loop: the next operation starts
when the previous one has returned.  :func:`run` times each operation
alone; input generation and every oracle run between operations, outside
the timed windows.  A failed operation is a wrong result, an unexpected
exception or a missing expected rejection.

Library calls go through the module attributes (``mould.kappa``, not a
name bound at import), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from shrubs import anticyclic, core, errors, mould, operad, reconstruction, series_parallel, zinbiel

import pace
from inputs import count_compatible_orders, fresh_shrub, random_forest, random_shrub

# Unlabeled series-parallel posets on n points (OEIS A003430), an oracle for
# the number of shrubs up to isomorphism that shares no code with the library.
SERIES_PARALLEL_UNLABELED = (1, 1, 2, 5, 15, 48, 167, 629)


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _check_gamma(P, element):
    terms = element.terms()
    if any(c != 1 for _, c in terms):
        return "gamma has a coefficient other than 1"
    covers = {v: P.covers(v) for v in P.labels}
    roots = P.roots()
    for order, _ in terms:
        if sorted(order) != sorted(P.labels):
            return f"gamma term {order} is not an order of the labels"
        if any(v not in roots and not covers[v] & set(order[:k]) for k, v in enumerate(order)):
            return f"gamma term {order} is not a compatible order"
    expected = count_compatible_orders(P)
    if len(terms) != expected:
        return f"gamma has {len(terms)} orders, expected {expected}"
    return None


class Workload:
    """Defaults shared by the workloads.

    ``period`` is the number of operations whose mix repeats; a run stops
    only after a whole number of periods.  ``tail_percentile`` is the
    percentile reported as the tail latency, the highest whole one that a
    run has at least ten samples beyond.  A fixed one keeps the tail of
    two runs comparable when their lengths differ.
    """

    period = 1
    tail_percentile = 99.0

    def finish(self):
        """Oracle over the whole run, after the timed loop; a message or None."""
        return None

    def peak_rss_mb(self):
        return _peak_rss_mb()

    def close(self):
        pass


class Sweep(Workload):
    """``sweep-n6``: enumerate every shrub on ``1..n``, then per shrub its
    fraction, the fraction text and the canonical form; about one shrub in
    ``sample_every`` also runs decompose/evaluate, gamma and one compose."""

    name = "sweep-n6"
    MAX_Q = 3  # vertices of the shrub composed into a sampled one

    def __init__(self, seed, n=6, sample_every=25):
        self.rng = random.Random(seed)
        self.n = n
        self.sample_every = sample_every
        self.shrubs = None
        self.order = None
        self.position = 0
        self.done = None
        self.classes = set()
        self.kappa_due = []

    def prelude(self):
        return core.enumerate_shrubs_bruteforce(self.n)

    def check_prelude(self, out, err):
        if err is not None:
            return f"enumeration raised {err!r}"
        self.shrubs = out
        self.order = list(range(len(out)))
        self.rng.shuffle(self.order)
        self.done = bytearray(len(out))
        expected = series_parallel.count_series_parallel(self.n)
        if len(out) != expected:
            return f"{len(out)} shrubs enumerated, expected {expected}"
        return None

    def next_input(self):
        if not self.order:
            return None
        index = self.order[self.position % len(self.order)]
        self.position += 1
        sample = None
        if self.rng.random() < 1 / self.sample_every:
            P = self.shrubs[index]
            k = self.rng.randint(1, self.MAX_Q)
            Q = random_shrub(range(self.n + 1, self.n + k + 1), self.rng)
            sample = (self.rng.choice(P.labels), Q)
        return index, sample

    def op(self, item):
        index, sample = item
        P = self.shrubs[index]
        f = mould.fraction_of_shrub(P)
        text = mould.format_fraction(f)
        canon = P.canonical_form()
        extra = None
        if sample is not None:
            i, Q = sample
            extra = (
                operad.evaluate(operad.decompose(P)),
                zinbiel.gamma(P),
                operad.compose(P, i, Q),
            )
        return f, text, canon, extra

    def check(self, item, out, err):
        if err is not None:
            return f"raised {err!r}"
        index, sample = item
        P = self.shrubs[index]
        f, text, (canon, relabeling), extra = out
        if len(f.den) - len(f.num) != len(P):
            return f"fraction {text} has total degree other than -{len(P)}"
        if canon != P.relabel(relabeling) or canon.labels != tuple(range(1, len(P) + 1)):
            return "canonical form is not a relabeling of the shrub onto 1..n"
        self.done[index] = 1
        self.classes.add(canon)
        if extra is None:
            return None
        # the costlier oracles run on the sample only
        i, Q = sample
        back, element, composed = extra
        if mould.parse_fraction(text) != f:
            return f"fraction text {text!r} does not parse back"
        # kappa's cache would hold memory the timed path never uses, so this
        # check waits until the peak memory has been read
        self.kappa_due.append((index, text))
        if back != P:
            return "evaluate(decompose(P)) differs from P"
        bad = _check_gamma(P, element)
        if bad:
            return bad
        expected = f.compose_at(i, mould.fraction_of_shrub(Q), Q.labels)
        if mould.fraction_of_shrub(composed) != expected:
            return "the fraction of compose(P, i, Q) is not the composed fraction"
        return None

    def finish(self):
        if self.shrubs is None:
            return None
        for index, text in self.kappa_due:
            if mould.kappa(self.shrubs[index]) != mould.parse_fraction(text):
                return f"fraction_of_shrub differs from the compositional kappa at {text}"
        for index in range(len(self.shrubs)):
            if not self.done[index]:
                self.classes.add(self.shrubs[index].canonical_form()[0])
        expected = SERIES_PARALLEL_UNLABELED[self.n]
        if len(self.classes) != expected:
            return f"{len(self.classes)} isomorphism classes, expected {expected}"
        return None


class Roundtrip(Workload):
    """``roundtrip``: distinct shrubs given as fraction text, to be rebuilt.

    Inputs come in cycles of 75: 60 valid ones, twenty per size in
    rotation, whose order bins (:func:`inputs.order_bin`) follow
    ``BIN_QUOTAS``, and after every fourth a perturbed one that must be
    rejected.  Whole cycles keep the mix of cheap and costly inputs the
    same for every seed.  Every input has its own seeded label set
    (:func:`inputs.fresh_shrub`), so a faster program never runs out of
    distinct inputs and the caches keep missing.
    """

    name = "roundtrip"
    # p95 would fall among the three or four costliest inputs of a cycle,
    # so sparse there that a single operation sets it
    tail_percentile = 90.0
    # Valid inputs per order bin 0, 1, 2, ... in twenty of each size: near
    # the generator's own shares, the rarest bin rounded up to one.
    BIN_QUOTAS = {5: (6, 8, 5, 1), 6: (4, 4, 7, 4, 1), 7: (2, 3, 4, 6, 4, 1)}
    PERTURB_EVERY = 5

    def __init__(self, seed, quotas=None):
        self.rng = random.Random(seed)
        self.quotas = quotas or self.BIN_QUOTAS
        per_size = {sum(quota) for quota in self.quotas.values()}
        if len(per_size) != 1:
            raise ValueError("every size needs the same number of valid inputs")
        valid = len(self.quotas) * per_size.pop()
        self.period = valid + valid // (self.PERTURB_EVERY - 1)
        self.seen = set()
        self.slots = []

    def _cycle(self):
        per_size = []
        for n, quota in self.quotas.items():
            bins = [b for b, count in enumerate(quota) for _ in range(count)]
            self.rng.shuffle(bins)
            per_size.append([(n, b) for b in bins])
        valid = [slot for group in zip(*per_size) for slot in group]
        sizes = list(self.quotas)
        slots = []
        for k, slot in enumerate(valid):
            slots.append(slot)
            if k % (self.PERTURB_EVERY - 1) == self.PERTURB_EVERY - 2:
                slots.append((sizes[len(slots) % len(sizes)], None))
        return slots

    def next_input(self):
        if not self.slots:
            self.slots = self._cycle()[::-1]
        n, want_bin = self.slots.pop()
        perturbed = want_bin is None
        P = fresh_shrub(n, self.rng, self.seen, want_bin)
        if P is None:
            return None
        f = mould.fraction_of_shrub(P)
        if perturbed:
            # total degree -(n+1) instead of -n: certainly not a shrub fraction
            a, b = self.rng.sample(P.labels, 2)
            extra = mould.LinearForm.sum_of((a, b))
            f = mould.FactoredFraction(f.sign, f.scalar, f.num, f.den + (extra,))
        return P, n, mould.format_fraction(f), perturbed

    def op(self, item):
        _, n, text, _ = item
        return reconstruction.reconstruct(mould.parse_fraction(text), cap=n)

    def check(self, item, out, err):
        P, _, text, perturbed = item
        if perturbed:
            if isinstance(err, errors.NotInImage):
                return None
            return f"perturbed {text} gave {err!r} instead of NotInImage"
        if err is not None:
            return f"{text} raised {err!r}"
        if out != P:
            return f"{text} reconstructed to {out!r}, expected {P!r}"
        return None

class Orbit(Workload):
    """``orbit-n5``: orbit and orbit invariant of signed shrubs on ``1..n``,
    all in one process like a long session.

    The pool's shrubs are one fixed draw of the generator, three of the
    seven forests: the cost of an orbit differs more than tenfold between
    orbits, so drawing shrubs per seed would make the seed, not the
    program, set the figures.  The seed picks each shrub's sign and orders
    every round, a permutation of the pool; the work does not depend on it.
    The first visit of each orbit fills the caches and the later rounds hit
    them.
    """

    name = "orbit-n5"
    tail_percentile = 90.0  # the costliest orbit, warm, in runs of 100
    SHAPE_SEED = 0

    def __init__(self, seed, n=5, pool=7):
        shapes = random.Random(self.SHAPE_SEED)
        labels = range(1, n + 1)
        drawn = [random_forest(labels, shapes) for _ in range(pool // 2)]
        while len(drawn) < pool:
            P = random_shrub(labels, shapes)
            if not P.is_forest():
                drawn.append(P)
        self.rng = random.Random(seed)
        self.n = n
        self.pool = [anticyclic.SignedShrub(self.rng.choice((1, -1)), P) for P in drawn]
        self.period = pool
        self.round = []
        self._verdicts = {}

    def next_input(self):
        if not self.round:
            self.round = self.rng.sample(self.pool, len(self.pool))
        return self.round.pop()

    def op(self, x):
        return anticyclic.orbit(x, cap=self.n), anticyclic.orbit_invariant(x)

    def _forest_orbit(self, x):
        steps = []
        for i in range(self.n):
            sigma = list(range(self.n + 1))
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            steps.append(tuple(sigma))
        seen, frontier = {x}, [x]
        while frontier:
            new = []
            for y in frontier:
                for sigma in steps:
                    z = anticyclic.forest_act(sigma, y)
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
            frontier = new
        return seen

    def _verdict(self, x, orbit, invariant):
        if any(anticyclic.orbit_invariant(y) != invariant for y in orbit):
            return "orbit_invariant is not constant on the orbit"
        if x.shrub.is_forest() and self._forest_orbit(x) != set(orbit):
            return "orbit differs from the orbit under forest_act"
        return None

    def check(self, x, out, err):
        if err is not None:
            return f"raised {err!r}"
        orbit, invariant = out
        if x not in orbit:
            return "x is not in its own orbit"
        group_order = math.factorial(self.n + 1)
        if group_order % len(orbit):
            return f"orbit size {len(orbit)} does not divide {group_order}"
        # the remaining checks depend only on the orbit once x is in it; the
        # key holds the orbit's hash, not the orbit, so that the verdicts
        # keep no memory the program does not
        key = (x, hash(frozenset(orbit)), invariant)
        if key not in self._verdicts:
            self._verdicts[key] = self._verdict(x, orbit, invariant)
        return self._verdicts[key]

class CliOneshot(Workload):
    """``cli-oneshot``: ``shrubs fraction P.json`` then ``shrubs reconstruct
    F.txt``, each a fresh interpreter started from ``src``."""

    name = "cli-oneshot"
    tail_percentile = 80.0

    def __init__(self, seed, root, n=5, traced=False):
        self.rng = random.Random(seed)
        self.n = n
        self.root = Path(root)
        self.src = self.root / "src"
        self.workdir = self.root / ".perfbench" / f"cli-{time.time_ns()}"
        self.workdir.mkdir(parents=True)
        self.traced = traced
        self.child_stats = []

    def command(self, *argv):
        if self.traced:
            stats = self.workdir / f"child-{len(self.child_stats)}-{argv[0]}.json"
            self.child_stats.append(stats)
            child = self.root / "perfbench" / "cli_child.py"
            return [sys.executable, str(child), "--stats", str(stats), *argv]
        return [sys.executable, "-m", "shrubs.cli", *argv]

    def next_input(self):
        P = random_shrub(range(1, self.n + 1), self.rng)
        shrub_file = self.workdir / "P.json"
        shrub_file.write_text(P.to_json())
        return P, shrub_file, self.workdir / "F.txt"

    def op(self, item):
        _, shrub_file, fraction_file = item
        first = subprocess.run(
            self.command("fraction", str(shrub_file)),
            cwd=self.src, capture_output=True, text=True, timeout=60,
        )
        fraction_file.write_text(first.stdout)
        second = subprocess.run(
            self.command("reconstruct", str(fraction_file)),
            cwd=self.src, capture_output=True, text=True, timeout=60,
        )
        return first, second

    def check(self, item, out, err):
        P = item[0]
        if err is not None:
            return f"raised {err!r}"
        first, second = out
        if first.returncode or second.returncode:
            return f"exit codes {first.returncode}, {second.returncode}: {first.stderr}{second.stderr}"
        expected = mould.format_fraction(mould.fraction_of_shrub(P))
        if first.stdout.strip() != expected:
            return f"fraction printed {first.stdout.strip()!r}, expected {expected!r}"
        if second.stdout.strip() != P.to_json():
            return f"reconstruct printed {second.stdout.strip()!r}, expected {P.to_json()!r}"
        return None

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Roundtrip, Orbit, CliOneshot)}

# The reference speed is probed again after this much wall time.
PROBE_EVERY_NS = 25_000_000
# A run stops at this many times its timed budget of wall time.
WALL_LIMIT = 3


def make(name, seed, root, traced=False):
    if name == CliOneshot.name:
        return CliOneshot(seed, root, traced=traced)
    return WORKLOADS[name](seed)


def run(workload, seconds, tracer=None) -> dict:
    """Closed loop until the timed windows add up to ``seconds`` at the
    reference speed (:mod:`pace`) and the number of operations is a whole
    number of the workload's ``period``.  At the reference speed, the
    number of operations of a run does not follow the machine's drift.

    A program fast enough that input generation and the oracles dominate
    would stretch the run: after ``WALL_LIMIT`` times ``seconds`` of wall
    time the loop stops at the next whole period.  Times are kept both as
    measured and rescaled.

    Returns the raw measurements; :func:`summarize` turns them into metrics.
    """
    clock = time.perf_counter_ns
    budget = seconds * 1e9
    walls = array("q")  # per-operation wall-clock ns
    scaled = array("d")  # the same at the reference speed
    head = []  # the prelude's wall-clock and rescaled ns
    attempted = failed = 0
    failures = []
    speed = pace.Pace()

    def window(fn, *args):
        if tracer is not None:
            tracer.resume()
        start = clock()
        try:
            out, err = fn(*args), None
        except Exception as exc:  # a failed operation, reported by its check
            out, err = None, exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.pause()
        speed.add(elapsed)
        return out, err, elapsed

    def record(check, *args):
        nonlocal failed
        try:
            message = check(*args)
        except Exception as exc:  # a malformed output can break its oracle
            message = f"oracle raised {exc!r}"
        if message:
            failed += 1
            if len(failures) < 5:
                failures.append(message)

    prelude = getattr(workload, "prelude", None)
    if prelude is not None:
        out, err, elapsed = window(prelude)
        head = [elapsed, speed.settle()[0]]
        attempted += 1
        record(workload.check_prelude, out, err)
    started = clock()
    limit = WALL_LIMIT * budget
    while len(walls) % workload.period or (speed.total_ns() < budget and clock() - started < limit):
        item = workload.next_input()
        if item is None:
            attempted += 1
            record(lambda: "no fresh input could be drawn")
            break
        out, err, elapsed = window(workload.op, item)
        walls.append(elapsed)
        attempted += 1
        record(workload.check, item, out, err)
        if speed.since_probe_ns() >= PROBE_EVERY_NS:
            scaled.extend(speed.settle())
    scaled.extend(speed.settle())
    peak_rss = workload.peak_rss_mb()
    record(workload.finish)
    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "failures": failures,
        "prelude_ns": head,
        "latencies_ns": walls,
        "scaled_ns": scaled,
        "tail_percentile": workload.tail_percentile,
        "peak_rss_mb": peak_rss,
    }


def tail_rank(ops, percentile):
    """Index into ``ops`` sorted latencies of the tail latency: the given
    percentile when at least ten samples lie beyond it, else the highest
    percentile that has ten beyond (or the maximum, with ten or fewer)."""
    rank = min(ops - 1, math.ceil(ops * percentile / 100) - 1)
    return max(0, min(rank, ops - 11)) if ops > 10 else ops - 1


def _figures(latencies, prelude_ns, rank):
    latencies = sorted(latencies)
    ops = len(latencies)
    timed_s = (sum(latencies) + prelude_ns) / 1e9
    return {
        "timed_s": timed_s,
        "ops_per_s": ops / timed_s if timed_s else 0.0,
        "latency_p50_ms": statistics.median(latencies) / 1e6 if ops else 0.0,
        "latency_tail_ms": latencies[rank] / 1e6 if ops else 0.0,
    }


def summarize(raw) -> dict:
    """End-to-end figures of one run (all but the set-up time): those at the
    reference speed, and the wall-clock ones under ``wall``."""
    head = raw["prelude_ns"] or [0, 0.0]
    ops = len(raw["scaled_ns"])
    rank = tail_rank(ops, raw["tail_percentile"])
    return {
        "ops": ops,
        **_figures(raw["scaled_ns"], head[1], rank),
        "wall": _figures(raw["latencies_ns"], head[0], rank),
        "tail_percentile": 100.0 * (rank + 1) / ops if ops else 100.0,
        "tail_beyond": ops - 1 - rank,
        "peak_rss_mb": raw["peak_rss_mb"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "fail_ratio": raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0,
    }
