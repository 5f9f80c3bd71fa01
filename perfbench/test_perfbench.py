"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Each workload must run clean on the library as it is, and each oracle must
notice a result corrupted on purpose (monkeypatched here only).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shrubs import anticyclic, core, mould, operad, reconstruction, zinbiel  # noqa: E402


def tiny(name, seed=1, **kwargs):
    if name == "sweep-n6":
        return workloads.Sweep(seed, n=4, sample_every=1, **kwargs)
    if name == "roundtrip":
        return workloads.Roundtrip(seed, quotas={3: (1, 1), 4: (1, 1)}, **kwargs)
    if name == "orbit-n5":
        return workloads.Orbit(seed, n=3, pool=2, **kwargs)
    return workloads.CliOneshot(seed, ROOT, n=3, **kwargs)


def run_tiny(workload, seconds=0.3, tracer=None):
    try:
        return workloads.run(workload, seconds, tracer)
    finally:
        workload.close()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean(name):
    raw = run_tiny(tiny(name))
    assert raw["failed"] == 0, raw["failures"]
    summary = workloads.summarize(raw)
    assert summary["ops"] >= 1 and summary["ops_per_s"] > 0 and summary["peak_rss_mb"] > 0


def test_same_seed_same_inputs():
    first, second = tiny("roundtrip", seed=7), tiny("roundtrip", seed=7)
    assert [first.next_input()[2] for _ in range(12)] == [second.next_input()[2] for _ in range(12)]


def test_roundtrip_cycle_mix():
    w = tiny("roundtrip")
    items = [w.next_input() for _ in range(w.period)]
    assert w.period == 5 and sum(item[3] for item in items) == 1
    assert sorted(inputs.order_bin(P) for P, _, _, perturbed in items if not perturbed) == [0, 0, 1, 1]
    assert len({P for P, *_ in items}) == len(items)


def test_roundtrip_never_runs_out_of_rare_inputs():
    # on 1..5 only about 15 shrubs fall in bin 3, the rarest bin of a cycle;
    # a run of a much faster program needs one per cycle, hundreds in all
    import random

    rng, seen = random.Random(5), set()
    drawn = [inputs.fresh_shrub(5, rng, seen, want_bin=3) for _ in range(200)]
    assert None not in drawn and len(set(drawn)) == 200


def test_input_exhaustion_is_a_failure(monkeypatch):
    w = tiny("roundtrip")
    monkeypatch.setattr(w, "next_input", lambda: None)
    raw = run_tiny(w)
    assert raw["failed"] == 1 and raw["attempted"] == 1


def test_orbit_work_does_not_depend_on_seed():
    first, second = tiny("orbit-n5", seed=1), tiny("orbit-n5", seed=2)
    assert [x.shrub for x in first.pool] == [x.shrub for x in second.pool]


def test_peak_memory_is_read_before_the_kappa_check(monkeypatch):
    mould.kappa.cache_clear()
    w = tiny("sweep-n6")
    seen = []
    monkeypatch.setattr(w, "peak_rss_mb", lambda: seen.append(mould.kappa.cache_info().currsize) or 1.0)
    assert run_tiny(w)["failed"] == 0
    assert seen == [0] and mould.kappa.cache_info().currsize > 0


def test_pace_rescales_by_the_median_probe(monkeypatch):
    probes = iter([100, 400, 200, 300])
    monkeypatch.setattr(pace, "probe", lambda: next(probes))
    monkeypatch.setattr(pace, "warm_up", lambda: None)
    speed = pace.Pace()
    speed.add(10)
    assert speed.settle() == [10 * pace.REFERENCE_NS / 250]
    speed.add(10)
    speed.add(20)
    assert speed.settle() == [x * pace.REFERENCE_NS / 200 for x in (10, 20)]
    assert speed.settle() == []


def test_tail_rank_keeps_ten_samples_beyond():
    assert workloads.tail_rank(1000, 99.0) == 989  # p99, ten beyond
    assert workloads.tail_rank(500, 99.0) == 489  # p98 keeps ten beyond
    assert workloads.tail_rank(5, 99.0) == 4  # too few: the maximum


def test_generators_reach_forests_and_others():
    import random

    rng = random.Random(3)
    assert all(inputs.random_forest(range(1, 7), rng).is_forest() for _ in range(50))
    assert not all(inputs.random_shrub(range(1, 7), rng).is_forest() for _ in range(50))


def test_count_compatible_orders_matches_library():
    for P in core.enumerate_shrubs_bruteforce(4):
        assert inputs.count_compatible_orders(P) == len(zinbiel.compatible_orders(P))


# -- every oracle fails on a corrupted result ------------------------------


def _wrong_shrub(P):
    return operad.disjoint_union(P, inputs.single(99)) if 99 not in P else P


CORRUPTIONS = [
    ("sweep-n6", core, "enumerate_shrubs_bruteforce", lambda f: lambda n: f(n)[1:]),
    ("sweep-n6", mould, "fraction_of_shrub", lambda f: lambda P: f(P) * mould.FactoredFraction(num=[mould.LinearForm.sum_of(P.labels[:1])])),
    ("sweep-n6", mould, "format_fraction", lambda f: lambda x: f(x) + "(u1)"),
    ("sweep-n6", core.Shrub, "canonical_form", lambda f: lambda self: (self, {v: v for v in self.labels})),
    ("sweep-n6", mould, "kappa", lambda f: lambda P: f(P) * mould.FactoredFraction(num=[mould.LinearForm.sum_of(P.labels[:1])])),
    ("sweep-n6", operad, "evaluate", lambda f: lambda w: _wrong_shrub(f(w))),
    ("sweep-n6", zinbiel, "gamma", lambda f: lambda P: zinbiel.ZinbElement(P.labels, dict(f(P).terms()[1:]))),
    ("sweep-n6", operad, "compose", lambda f: lambda P, i, Q: _wrong_shrub(f(P, i, Q))),
    ("roundtrip", reconstruction, "reconstruct", lambda f: lambda x, cap=6: _wrong_shrub(f(x, cap))),
    ("roundtrip", reconstruction, "reconstruct", lambda f: lambda x, cap=6: inputs.single(1)),
    ("orbit-n5", anticyclic, "orbit", lambda f: lambda x, cap=5: f(x, cap)[:-1] if len(f(x, cap)) > 2 else f(x, cap)),
    ("orbit-n5", anticyclic, "orbit_invariant", lambda f: lambda x: anticyclic.OrbitInvariant(tuple(x.shrub.height_map.values()), ())),
]


@pytest.mark.parametrize("name, owner, attr, corrupt", CORRUPTIONS)
def test_oracle_catches(monkeypatch, name, owner, attr, corrupt):
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    raw = run_tiny(tiny(name))
    assert raw["failed"] > 0


def test_orbit_forest_oracle(monkeypatch):
    # padded with a shrub of another orbit, the orbit still contains x
    original = anticyclic.orbit
    stranger = anticyclic.SignedShrub(1, core.Shrub([1, 2, 3], {1: 0, 2: 0, 3: 0}, []))

    def padded(x, cap=5):
        return tuple(original(x, cap)) + (stranger,) * (stranger not in original(x, cap))

    monkeypatch.setattr(anticyclic, "orbit", padded)
    assert run_tiny(tiny("orbit-n5"))["failed"] > 0


@pytest.mark.parametrize("script", [
    "import sys; print('{}')",
    "import sys; sys.exit(3)",
])
def test_cli_oracle_catches(monkeypatch, script):
    monkeypatch.setattr(workloads.CliOneshot, "command", lambda self, *argv: [sys.executable, "-c", script])
    assert run_tiny(tiny("cli-oneshot"))["failed"] > 0


# -- tracing -----------------------------------------------------------------


def test_tracer_spans_and_counters():
    kappa = mould.kappa
    tracer = tracing.Tracer()
    installed = tracer.install()
    try:
        assert set(installed) == {name for name, _, _ in tracing.BOUNDARIES}
        assert reconstruction.kappa is not kappa and anticyclic.kappa is not kappa
        raw = run_tiny(tiny("orbit-n5"), tracer=tracer)
    finally:
        tracer.uninstall()
    assert mould.kappa is kappa and reconstruction.kappa is kappa and anticyclic.kappa is kappa
    assert raw["failed"] == 0
    layers = tracer.summary()
    for name in ("anticyclic.orbit", "anticyclic.act", "mould.kappa", "reconstruction.reconstruct"):
        calls, busy, own = layers[name]
        assert calls > 0 and 0 <= own <= busy
    _, orbit_busy, orbit_self = layers["anticyclic.orbit"]
    assert orbit_self < orbit_busy  # the act spans are its children
    assert set(tracer.caches) == {metric for metric, _, _ in tracing.CACHES}
    assert all(hits > 0 for hits, _ in tracer.caches.values())


def clear_caches():
    for _, module_name, candidates in tracing.CACHES:
        for attr in candidates:
            getattr(getattr(sys.modules[module_name], attr, None), "cache_clear", lambda: None)()


def test_tracer_extraction_counters():
    clear_caches()  # earlier tests rebuilt the same fractions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        raw = run_tiny(tiny("roundtrip"), tracer=tracer)
    finally:
        tracer.uninstall()
    assert raw["failed"] == 0
    assert tracer.counters["reconstruction.reconstruct.rejected"] > 0
    orders = tracer.counters["mould.zinb_extract.orders_out"]
    assert 0 < tracer.counters["mould.zinb_extract.distinct_first"] <= orders


def test_tracer_skips_removed_boundaries(monkeypatch):
    monkeypatch.delattr(mould, "zinb_extract")
    monkeypatch.delattr(core.Shrub, "canonical_form")
    tracer = tracing.Tracer()
    try:
        installed = tracer.install()
    finally:
        tracer.uninstall()
    assert "mould.zinb_extract" not in installed and "core.Shrub.canonical_form" not in installed
    assert "mould.kappa" in installed


def test_self_time():
    tracer = tracing.Tracer()
    tracer.spans.extend([(0, 0, 100, -1), (1, 10, 40, 0), (1, 50, 60, 0), (2, 12, 20, 1)])
    tracer.names.extend(["a", "b", "c"])
    assert tracer.summary() == {
        "a": [1, 100e-9, 60e-9],
        "b": [2, 40e-9, 32e-9],
        "c": [1, 8e-9, 8e-9],
    }


# -- the command --------------------------------------------------------------


def test_run_refuses_without_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, _, _ in tracing.BOUNDARIES:
        assert {f"{name}.calls", f"{name}.busy_s", f"{name}.self_s"} <= per_layer
    for name in tracing.CLI_BOUNDARIES:
        assert f"{name}.calls" in per_layer
    assert {metric for metric, _, _ in tracing.CACHES} <= per_layer
