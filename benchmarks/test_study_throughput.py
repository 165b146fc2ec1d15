"""Macro benchmark: sharded study runner throughput.

Measures end-to-end ``run_study`` throughput serial vs parallel and the
pipeline's shard scalability.  Two speedup numbers land in
``extra_info``:

* ``speedup_vs_serial`` — wall-clock, pool included.  Only meaningful on
  multi-core machines; a single-core container shows pool overhead.
* ``critical_path_speedup`` — serial pipeline time over the slowest
  4-way shard's time, with every shard run in-process.  This is the
  machine-independent measure of how well the sha256 partition divides
  the work (the wall-clock speedup an unloaded 4-core box approaches),
  and is asserted >= 1.5.
"""

import os
import time

import pytest

from repro.core.cache import StudyCache, dataset_diff
from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.study import run_study
from repro.netsim.faults import FAULT_PLANS
from repro.world import XL_SCALE, StudyScale, generate_world

SCALE = StudyScale(sample_fraction=0.3, probe_days=4,
                   observe_duration=1800.0, observe_poll_interval=300.0,
                   scan_budget=120)
SEED = 20220322

SMOKE = StudyScale(sample_fraction=0.05, probe_days=4,
                   observe_duration=1800.0, observe_poll_interval=300.0,
                   scan_budget=120)

#: Committed baseline: serial smoke-scale ``run_study`` wall seconds,
#: measured generously above what a loaded CI runner needs (a dev box
#: does it in ~0.2 s).  The guard fails at >2x this number — it exists
#: to catch order-of-magnitude hot-path regressions, not jitter.
SMOKE_BASELINE_SECONDS = 1.5

#: Same deal for the XL scale (~10x the smoke corpus; a dev box runs the
#: serial study in ~2 s on the columnar core).
XL_BASELINE_SECONDS = 10.0


def _timed_study(workers=None):
    world = generate_world(seed=SEED, scale=SCALE)
    start = time.perf_counter()
    _malnet, _campaign, datasets = run_study(world, workers=workers)
    return time.perf_counter() - start, datasets


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_study_throughput_serial(benchmark):
    elapsed, datasets = benchmark.pedantic(_timed_study, rounds=1,
                                           iterations=1)
    samples = len(datasets.profiles)
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["samples_per_second"] = round(samples / elapsed, 2)


def test_study_throughput_two_workers(benchmark):
    serial_elapsed, serial_datasets = _timed_study()
    elapsed, datasets = benchmark.pedantic(_timed_study, args=(2,),
                                           rounds=1, iterations=1)
    # the merged parallel output must be the serial output, bit for bit
    diff = dataset_diff(serial_datasets, datasets)
    assert diff is None, diff
    samples = len(datasets.profiles)
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["samples_per_second"] = round(samples / elapsed, 2)
    benchmark.extra_info["speedup_vs_serial"] = \
        round(serial_elapsed / elapsed, 2)
    benchmark.extra_info["cpus"] = _cpus()


def test_shard_critical_path_speedup(benchmark):
    """The 4-way partition must cut the slowest shard's work >= 1.5x."""
    world = generate_world(seed=SEED, scale=SCALE)
    start = time.perf_counter()
    MalNet(world).run()
    serial_elapsed = time.perf_counter() - start

    def shard_times() -> list[float]:
        times = []
        for index in range(4):
            shard_world = generate_world(seed=SEED, scale=SCALE)
            malnet = MalNet(shard_world, PipelineConfig(
                shard_index=index, shard_count=4))
            start = time.perf_counter()
            malnet.run()
            times.append(time.perf_counter() - start)
        return times

    times = benchmark.pedantic(shard_times, rounds=1, iterations=1)
    speedup = serial_elapsed / max(times)
    benchmark.extra_info["serial_seconds"] = round(serial_elapsed, 3)
    benchmark.extra_info["shard_seconds"] = [round(t, 3) for t in times]
    benchmark.extra_info["critical_path_speedup"] = round(speedup, 2)
    assert speedup >= 1.5, (
        f"4-way sharding only cut the critical path {speedup:.2f}x "
        f"(shard times: {times})")


def test_study_cache_warm_speedup(benchmark, tmp_path):
    """A warm cache hit must beat recomputing the study >= 10x."""
    cache = StudyCache(str(tmp_path / "study-cache"))

    world = generate_world(seed=SEED, scale=SCALE)
    start = time.perf_counter()
    _malnet, _campaign, cold_datasets = run_study(world, cache=cache)
    cold_elapsed = time.perf_counter() - start

    def warm():
        warm_world = generate_world(seed=SEED, scale=SCALE)
        start = time.perf_counter()
        _m, _c, datasets = run_study(warm_world, cache=cache)
        return time.perf_counter() - start, datasets

    warm_elapsed, warm_datasets = benchmark.pedantic(warm, rounds=1,
                                                     iterations=1)
    diff = dataset_diff(cold_datasets, warm_datasets)
    assert diff is None, diff
    assert cache.hits == 1
    speedup = cold_elapsed / warm_elapsed
    benchmark.extra_info["cold_seconds"] = round(cold_elapsed, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_elapsed, 4)
    benchmark.extra_info["warm_speedup"] = round(speedup, 1)
    assert speedup >= 10.0, (
        f"warm cache only {speedup:.1f}x faster than the cold run")


def test_serial_smoke_throughput_guard():
    """Cheap regression tripwire on the serial hot path.

    Runs everywhere (no benchmark plugin needed): the smoke-scale serial
    study must stay within 2x the committed baseline.
    """
    world = generate_world(seed=SEED, scale=SMOKE)
    start = time.perf_counter()
    run_study(world)
    elapsed = time.perf_counter() - start
    assert elapsed <= 2 * SMOKE_BASELINE_SECONDS, (
        f"serial smoke study took {elapsed:.2f}s — more than 2x the "
        f"committed {SMOKE_BASELINE_SECONDS}s baseline")


@pytest.mark.skipif(not os.environ.get("REPRO_XL"),
                    reason="XL stress bench; set REPRO_XL=1")
def test_xl_study_throughput_guard(benchmark):
    """XL-scale study under mild faults, 2 workers, with a time guard.

    This is the columnar core's stress setting: ~10x the smoke packet
    volume.  The serial run feeds the equality check; the benchmarked
    2-worker run must stay within 2x the committed XL baseline, and both
    throughput numbers land in ``BENCH_xl_*.json`` for the obs trendline.
    """
    def timed_xl(workers=None):
        world = generate_world(seed=SEED, scale=XL_SCALE)
        config = PipelineConfig(faults=FAULT_PLANS["mild"])
        start = time.perf_counter()
        _m, _c, datasets = run_study(world, config=config, workers=workers)
        return time.perf_counter() - start, datasets

    serial_elapsed, serial_datasets = timed_xl()
    elapsed, datasets = benchmark.pedantic(timed_xl, args=(2,),
                                           rounds=1, iterations=1)
    diff = dataset_diff(serial_datasets, datasets)
    assert diff is None, diff
    samples = len(datasets.profiles)
    benchmark.extra_info["scale"] = "xl"
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["serial_seconds"] = round(serial_elapsed, 3)
    benchmark.extra_info["samples_per_second"] = round(samples / elapsed, 2)
    benchmark.extra_info["cpus"] = _cpus()
    assert serial_elapsed <= 2 * XL_BASELINE_SECONDS, (
        f"serial XL study took {serial_elapsed:.2f}s — more than 2x the "
        f"committed {XL_BASELINE_SECONDS}s baseline")
