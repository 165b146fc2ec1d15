"""Property tests for the fine-grained shard plan (DESIGN.md §9).

The distributed runner's correctness rests on two properties of the
sha256 unit partition:

* *stability*: a sample's unit is a pure function of ``(sha256,
  unit_count)`` — no corpus state, no scheduling state — so every
  occurrence of a hash lands in the same unit and dedup stays
  unit-local for **any** unit count;
* *schedule independence*: unit outputs are pure functions of
  ``(seed, scale, config, unit)``, and :meth:`Datasets.merge` is
  origin-driven — so any assignment of units to workers, any steal,
  any re-dispatch (attempt number included), and any merge grouping
  produce the same digest as the serial run.

These are exactly the degrees of freedom the coordinator exercises
(placement, stealing, lost-worker re-queues), checked here without a
socket in the loop so a failure points at the plan, not the transport.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.core.cache import dataset_diff
from repro.core.datasets import Datasets
from repro.core.parallel import execute_shard
from repro.core.pipeline import PipelineConfig
from repro.determinism import shard_of
from repro.dist.plan import TaskSpec, plan_fleet, world_key
from repro.netsim.faults import FAULT_PLANS

from .conftest import SMOKE

SEED = 1337
UNIT_COUNT = 4

PLANS = {"plain": None, "mild": FAULT_PLANS["mild"]}


def _config(plan_name):
    plan = PLANS[plan_name]
    return PipelineConfig() if plan is None else PipelineConfig(faults=plan)


@pytest.fixture(scope="module", params=sorted(PLANS))
def plan_name(request):
    return request.param


@pytest.fixture
def serial(plan_name, serial_reference):
    return serial_reference(SEED, SMOKE, _config(plan_name))[2]


@pytest.fixture(scope="module")
def world(shared_world):
    return shared_world(SEED, SMOKE)


@pytest.fixture(scope="module")
def unit_results(plan_name, world):
    """The four unit datasets, computed once per plan, in-process."""
    spec = TaskSpec(seed=SEED, scale=SMOKE, config=_config(plan_name),
                    shard_count=UNIT_COUNT)
    return [
        execute_shard(world, spec.config_for(unit), 0, False).datasets
        for unit in range(UNIT_COUNT)
    ]


def _diff_with_probing(unit_datasets, serial):
    """Merge unit outputs the way the runner does — the probing results
    (d_pc2) come from the parent, not the units — and diff the merge
    against the serial study."""
    merged = Datasets.merge(list(unit_datasets))
    merged.d_pc2 = list(serial.d_pc2)
    return dataset_diff(serial, merged)


# -- partition stability ------------------------------------------------------


def test_partition_covers_and_is_stable_across_unit_counts(serial):
    hashes = [p.sha256 for p in serial.profiles]
    assert hashes
    for count in (1, 2, 3, 5, 8, 13):
        first = [shard_of(sha256, count) for sha256 in hashes]
        again = [shard_of(sha256, count) for sha256 in hashes]
        # pure function of (sha256, count): no hidden state
        assert first == again
        assert all(0 <= unit < count for unit in first)
        # every hash is owned by exactly one unit; nothing lost
        by_unit: dict = {}
        for sha256, unit in zip(hashes, first):
            by_unit.setdefault(unit, []).append(sha256)
        assert sorted(h for block in by_unit.values() for h in block) == \
            sorted(hashes)


def test_world_key_is_stable_and_discriminating():
    key = world_key(SEED, SMOKE)
    assert key == world_key(SEED, SMOKE)
    assert key != world_key(SEED + 1, SMOKE)
    assert key != world_key(SEED, dataclasses.replace(
        SMOKE, sample_fraction=0.06))
    spec = TaskSpec(seed=SEED, scale=SMOKE, config=PipelineConfig(),
                    shard_count=UNIT_COUNT)
    assert spec.world_key == key


def test_default_unit_count_scales_with_the_fleet():
    """``plan_fleet`` sizes a fleet from its arguments alone: four units
    per TCP peer and one per local slot unless the run asks otherwise,
    and no fleet at all for a serial study."""
    assert plan_fleet(peers=["a:1"]) == (1, 4)
    assert plan_fleet(peers=["a:1", "b:2"]) == (2, 8)
    assert plan_fleet(workers=3) == (3, 3)
    assert plan_fleet(peers=["a:1"], unit_count=7) == (1, 7)
    assert plan_fleet() is None and plan_fleet(workers=0) is None


def test_a_serial_study_never_loads_the_runner():
    """Checking the fleet needs no runner: ``import repro`` and a serial
    study load neither the coordinator nor its connection machinery."""
    script = (
        "import sys\n"
        "import repro\n"
        "repro.run_study(repro.generate_world(scale=repro.SMOKE_SCALE))\n"
        "print(sorted({'repro.dist.coordinator', 'repro.dist.worker',\n"
        "              'multiprocessing.connection'} & set(sys.modules)))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert done.stdout.strip() == "[]"


# -- schedule independence ----------------------------------------------------

# worker groupings of the four units: the serial fleet, a balanced
# 2-worker split, a post-steal skewed split (worker 0 lost most of its
# queue), and the fully fanned-out fleet
GROUPINGS = [
    [[0, 1, 2, 3]],
    [[0, 3], [1, 2]],
    [[0], [1, 2, 3]],
    [[0], [1], [2], [3]],
]


@pytest.mark.parametrize("grouping", GROUPINGS,
                         ids=["w1", "w2-balanced", "w2-stolen", "w4"])
def test_any_worker_grouping_merges_to_the_serial_digest(
        grouping, unit_results, serial):
    """Per-worker partial merges, then the merge of merges — the shape
    a coordinator harvest has after any placement/steal schedule."""
    per_worker = [Datasets.merge([unit_results[u] for u in worker_units])
                  for worker_units in grouping]
    diff = _diff_with_probing(per_worker, serial)
    assert diff is None, diff


def test_harvest_order_does_not_matter(unit_results, serial):
    for order in ([3, 1, 0, 2], [2, 3, 0, 1], [1, 0, 3, 2]):
        shuffled = [unit_results[u] for u in order]
        diff = _diff_with_probing(shuffled, serial)
        assert diff is None, (order, diff)


def test_redispatch_attempt_does_not_change_the_bytes(plan_name, world,
                                                      unit_results, serial):
    """A re-queued unit runs with attempt+1 (and a steal twin with the
    original attempt): both must reproduce the first try's bytes."""
    spec = TaskSpec(seed=SEED, scale=SMOKE, config=_config(plan_name),
                    shard_count=UNIT_COUNT)
    retried = execute_shard(world, spec.config_for(2), 3, False).datasets
    diff = dataset_diff(unit_results[2], retried)
    assert diff is None, diff
    substituted = list(unit_results)
    substituted[2] = retried
    diff = _diff_with_probing(substituted, serial)
    assert diff is None, diff


def test_finer_units_merge_to_the_same_digest(plan_name, world, serial):
    """unit_count is a free parameter: 7 units == 4 units == serial."""
    spec = TaskSpec(seed=SEED, scale=SMOKE, config=_config(plan_name),
                    shard_count=7)
    units = [
        execute_shard(world, spec.config_for(unit), 0, False).datasets
        for unit in range(7)
    ]
    diff = _diff_with_probing(units, serial)
    assert diff is None, diff
