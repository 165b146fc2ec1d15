"""Macro benchmark: TCP peers vs local slots.

Runs the same sharded study through both kinds of coordinator peer —
two local slots (forked children on socketpairs) and two real ``repro
worker`` subprocess daemons over TCP — and lands both wall clocks plus
their ratio in ``extra_info``.  The hard assertions are the ones that
must never regress:

* byte-identity — the TCP run's datasets equal the local run's
  (which :mod:`tests.test_parallel` already pins to the serial run);
* the committed non-regression guard — the TCP study must stay
  within 2x :data:`DIST_BASELINE_SECONDS`.  The guard number includes
  daemon startup and two cold world generations; it exists to catch
  order-of-magnitude regressions (per-unit reconnects, lost
  heartbeats, frame churn), not scheduler jitter.

The socket-vs-local ratio is reported, not asserted: the local slots
start from the parent's world while the daemons must generate it, and
on a loaded single-core runner scheduler noise dominates either way.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.cache import dataset_diff
from repro.core.pipeline import PipelineConfig
from repro.core.study import run_study
from repro.netsim.faults import FAULT_PLANS
from repro.world import XL_SCALE, StudyScale, generate_world

SCALE = StudyScale(sample_fraction=0.3, probe_days=4,
                   observe_duration=1800.0, observe_poll_interval=300.0,
                   scan_budget=120)
SEED = 20220322
UNIT_COUNT = 8

#: Committed baseline: smoke-ish (0.3 fraction) TCP-peer study
#: wall seconds with 2 subprocess workers, daemon startup included (a
#: dev box does it in ~3 s).  The guard fails at >2x this number.
DIST_BASELINE_SECONDS = 12.0

#: Same deal at XL scale under mild faults (~10x the packet volume; a
#: dev box runs it in ~8 s).
DIST_XL_BASELINE_SECONDS = 30.0

_ANNOUNCE = re.compile(r"listening on ([\d.]+):(\d+)")


class _Fleet:
    """N ``repro worker`` daemons as real subprocesses."""

    def __init__(self, count: int):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.procs = []
        self.peers = []
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, env=env)
            self.procs.append(proc)
            match = _ANNOUNCE.search(proc.stdout.readline())
            assert match, "worker did not announce its address"
            self.peers.append(f"{match.group(1)}:{match.group(2)}")

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=10)


@pytest.fixture
def fleet():
    fleet = _Fleet(2)
    yield fleet
    fleet.stop()


def _timed_study(scale, config=None, **kwargs):
    world = generate_world(seed=SEED, scale=scale)
    start = time.perf_counter()
    _malnet, _campaign, datasets = run_study(world, config=config, **kwargs)
    return time.perf_counter() - start, datasets


def test_dist_throughput_socket_vs_local(benchmark, fleet):
    local_elapsed, local_datasets = _timed_study(
        SCALE, workers=2, unit_count=UNIT_COUNT)

    def socket_run():
        return _timed_study(SCALE, peers=fleet.peers, unit_count=UNIT_COUNT)

    elapsed, datasets = benchmark.pedantic(socket_run, rounds=1,
                                           iterations=1)
    assert not datasets.failed_shards
    diff = dataset_diff(local_datasets, datasets)
    assert diff is None, diff
    samples = len(datasets.profiles)
    benchmark.extra_info["transport"] = "socket"
    benchmark.extra_info["workers"] = 2
    benchmark.extra_info["units"] = UNIT_COUNT
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["samples_per_second"] = round(samples / elapsed, 2)
    benchmark.extra_info["local_slots_seconds"] = round(local_elapsed, 3)
    benchmark.extra_info["socket_seconds"] = round(elapsed, 3)
    benchmark.extra_info["socket_vs_local"] = \
        round(elapsed / local_elapsed, 2)
    assert elapsed <= 2 * DIST_BASELINE_SECONDS, (
        f"TCP-peer study took {elapsed:.2f}s — more than 2x the "
        f"committed {DIST_BASELINE_SECONDS}s baseline")


def test_dist_warm_worker_speedup(benchmark, fleet):
    """A second study against the same daemons reuses their cached
    worlds — the case cache-aware placement exists to win.  The speedup
    is reported for the trendline, not asserted (on a loaded runner the
    signal drowns in scheduler noise at smoke scale)."""
    cold_elapsed, cold_datasets = _timed_study(
        SCALE, peers=fleet.peers, unit_count=UNIT_COUNT)

    def warm_run():
        return _timed_study(SCALE, peers=fleet.peers, unit_count=UNIT_COUNT)

    warm_elapsed, warm_datasets = benchmark.pedantic(warm_run, rounds=1,
                                                     iterations=1)
    diff = dataset_diff(cold_datasets, warm_datasets)
    assert diff is None, diff
    benchmark.extra_info["cold_seconds"] = round(cold_elapsed, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_elapsed, 3)
    benchmark.extra_info["warm_speedup"] = \
        round(cold_elapsed / warm_elapsed, 2)


@pytest.mark.skipif(not os.environ.get("REPRO_XL"),
                    reason="XL stress bench; set REPRO_XL=1")
def test_xl_dist_throughput_guard(benchmark, fleet):
    """XL scale under mild faults over TCP peers."""
    config = PipelineConfig(faults=FAULT_PLANS["mild"])
    local_elapsed, local_datasets = _timed_study(
        XL_SCALE, config=config, workers=2, unit_count=UNIT_COUNT)

    def socket_run():
        return _timed_study(XL_SCALE, config=config, peers=fleet.peers,
                            unit_count=UNIT_COUNT)

    elapsed, datasets = benchmark.pedantic(socket_run, rounds=1,
                                           iterations=1)
    assert not datasets.failed_shards
    diff = dataset_diff(local_datasets, datasets)
    assert diff is None, diff
    samples = len(datasets.profiles)
    benchmark.extra_info["scale"] = "xl"
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["samples_per_second"] = round(samples / elapsed, 2)
    benchmark.extra_info["local_slots_seconds"] = round(local_elapsed, 3)
    benchmark.extra_info["socket_vs_local"] = \
        round(elapsed / local_elapsed, 2)
    assert elapsed <= 2 * DIST_XL_BASELINE_SECONDS, (
        f"XL TCP-peer study took {elapsed:.2f}s — more than 2x "
        f"the committed {DIST_XL_BASELINE_SECONDS}s baseline")
