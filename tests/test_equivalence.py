"""The equivalence matrix: every way of running the study reproduces the
serial run, byte for byte.

Rows are inputs: scenario (plain, dga) × fault plan (none, mild, heavy)
at the smoke scale, and the same six rows at ``XL_SCALE`` when
``REPRO_XL=1`` is set.  Columns are ways of running the study.  Every
cell must equal its row's serial ``run_study`` (one shared reference per
row) under one oracle, :func:`~repro.core.cache.dataset_diff`, whose
text names the first differing record and field.  The serial column is
pinned to golden digests at smoke scale.

Every cell of a row runs on one generated world, the one its serial
reference ran on, and must leave it unchanged
(:func:`~tests.conftest.world_fingerprint`): a world is a value that
any number of runs share.
"""

import dataclasses
import os
import signal
import sys
import threading

import pytest

from repro.core.cache import (
    StudyCache,
    dataset_diff,
    dataset_digest,
    study_fingerprint,
)
from repro.core.parallel import ShardedStudyRunner
from repro.core.pipeline import PipelineConfig
from repro.core.study import DayRunner, run_study
from repro.netsim.faults import FAULT_PLANS
from repro.service import CheckpointStore, StudyService
from repro.world import XL_SCALE

from .conftest import SMOKE, spawn_fleet, stop_fleet, world_fingerprint

SEED = 20220322

FAULTS = {
    "none": None,
    "mild": PipelineConfig(faults=FAULT_PLANS["mild"]),
    "heavy": PipelineConfig(faults=FAULT_PLANS["heavy"]),
}

#: ``dataset_digest`` of each smoke row's serial study.  The plain values
#: predate the hot-path optimizations; recovered mild faults leave no
#: trace at smoke scale, so plain-mild equals plain-none.
GOLDEN = {
    ("plain", "none"):
        "8c5016ee222516adeade02048d2a7804b66842692b764217a0ad3655273d3e85",
    ("plain", "mild"):
        "8c5016ee222516adeade02048d2a7804b66842692b764217a0ad3655273d3e85",
    ("plain", "heavy"):
        "1492e3a37e318a6398404f090ac1bfc9750f59110ae28f0a60797d5e8babaadc",
    ("dga", "none"):
        "3e52bbb7ae38ef661500894d838d5140abf45b0600d1b178268005c061d83509",
    ("dga", "mild"):
        "940d48c78a37479130a2db33b3c7c59970eb4358ce0a58e41032f06ec9870682",
    ("dga", "heavy"):
        "e48174f8a9649a7a4e89da8d2c67bd2bc2f3e2bc6ae79c8395c0d1889a2d5c3e",
}


@dataclasses.dataclass(frozen=True)
class Row:
    """One input of the study: a scale, a scenario and a fault plan."""

    scale_name: str
    scenario: str
    faults: str

    @property
    def id(self) -> str:
        prefix = "" if self.scale_name == "smoke" else f"{self.scale_name}-"
        return f"{prefix}{self.scenario}-{self.faults}"

    @property
    def scale(self):
        base = SMOKE if self.scale_name == "smoke" else XL_SCALE
        return dataclasses.replace(base, dga=self.scenario == "dga")

    @property
    def config(self) -> PipelineConfig | None:
        return FAULTS[self.faults]


SCALE_NAMES = ("smoke", "xl") if os.environ.get("REPRO_XL") else ("smoke",)
ROWS = [Row(scale_name, scenario, faults)
        for scale_name in SCALE_NAMES
        for scenario in ("plain", "dga")
        for faults in FAULTS]


# -- the columns: ways of running the study ---------------------------------


def day_resume(row, world, request):
    """A restart after every study day: the day is appended to a journal,
    and a new runner on the same world replays the journal and runs the
    next day.  The finalized study compacts, and one more runner replays
    the snapshot."""
    store = CheckpointStore(str(request.getfixturevalue("tmp_path")))
    fingerprint = study_fingerprint(SEED, row.scale, row.config)

    def restarted():
        runner = DayRunner(world=world, config=row.config)
        runner.restore_state(store.load(fingerprint, runner.total_days))
        return runner

    runner = DayRunner(world=world, config=row.config)
    for day in range(runner.total_days):
        assert runner.run_next_day()["day"] == day
        store.save(fingerprint, runner.state())
        runner = restarted()
        assert runner.next_day == day + 1
    assert runner.pipeline_done
    runner.finalize()
    store.save(fingerprint, runner.state())
    runner = restarted()
    assert runner.finalized
    return runner.datasets


def service_restart(row, world, request):
    """A service ingests half the days; a second one resumes, ingests
    the rest and finalizes; a third resumes the finished study."""
    root = str(request.getfixturevalue("tmp_path"))

    def service():
        return StudyService(seed=SEED, scale=row.scale, config=row.config,
                            checkpoint_dir=root)

    first = service()
    half = first.runner.total_days // 2
    first.ingest_days(half)
    assert not first.resumed
    second = service()
    assert second.resumed and second.runner.next_day == half
    second.ingest_days(None)
    assert second.finalized
    third = service()
    assert third.resumed and third.finalized
    return third.runner.datasets


def cache_hit(row, world, request):
    """A cold run stores the study under a directory path; a warm run
    through a ``StudyCache`` on the same directory is served from it."""
    root = str(request.getfixturevalue("tmp_path") / "cache")
    run_study(world, config=row.config, cache=root)
    cache = StudyCache(root)
    _malnet, _campaign, datasets = run_study(world, config=row.config,
                                             cache=cache)
    assert (cache.hits, cache.misses) == (1, 0)
    return datasets


def slots(count):
    def run(row, world, request):
        return run_study(world, config=row.config, workers=count)[2]
    return run


def peers(row, world, request):
    """Eight units on two ``repro worker`` subprocesses."""
    fleet = request.getfixturevalue("worker_fleet")
    return run_study(world, config=row.config, peers=fleet,
                     unit_count=8)[2]


def slot_killed(row, world, request):
    """The child of ``local[0]`` is SIGKILLed as soon as ``start()``
    returns; its unit moves to the other slot."""
    start = ShardedStudyRunner.start
    runners = []

    def start_then_kill(runner):
        start(runner)
        os.kill(runner.peers[0].pid, signal.SIGKILL)
        runners.append(runner)
        return runner

    request.getfixturevalue("monkeypatch").setattr(
        ShardedStudyRunner, "start", start_then_kill)
    _malnet, _campaign, datasets = run_study(
        world, config=row.config, workers=2, unit_count=4)
    (runner,) = runners
    assert [lost["worker"] for lost in runner.lost_workers] == \
        ["local[0]"]
    return datasets


COLUMNS = {
    "day-resume": day_resume,
    "service-restart": service_restart,
    "cache-hit": cache_hit,
    "slots-1": slots(1),
    "slots-2": slots(2),
    "slots-4": slots(4),
    "peers": peers,
    "slot-killed": slot_killed,
}

#: day-resume restarts once per study day, so only the heavy rows run it
CELLS = [pytest.param(row, column, id=f"{row.id}-{column}")
         for row in ROWS for column in COLUMNS
         if column != "day-resume" or row.faults == "heavy"]


@pytest.mark.parametrize(
    "row", [row for row in ROWS if row.scale_name == "smoke"],
    ids=lambda row: row.id)
def test_serial_matches_golden(row, serial_reference):
    _malnet, _campaign, datasets = serial_reference(SEED, row.scale,
                                                    row.config)
    assert dataset_digest(datasets) == GOLDEN[row.scenario, row.faults]


@pytest.mark.parametrize("row, column", CELLS)
def test_cell_equals_serial(row, column, serial_reference, shared_world,
                            request):
    _malnet, _campaign, expected = serial_reference(SEED, row.scale,
                                                    row.config)
    world = shared_world(SEED, row.scale)
    actual = COLUMNS[column](row, world, request)
    assert actual.failed_shards == []
    diff = dataset_diff(expected, actual)
    assert diff is None, f"{column} differs from serial: {diff}"
    assert world_fingerprint(world) == shared_world.fingerprint(world), \
        f"{column} wrote into the shared world"


def test_concurrent_studies_share_one_world(serial_reference, shared_world):
    """Two studies at once on one world object, in two threads, each
    over the same ``repro worker`` daemon: one without faults, one under
    the heavy plan.  Each equals its serial reference, and the world is
    unchanged."""
    configs = {"none": FAULTS["none"], "heavy": FAULTS["heavy"]}
    expected = {name: serial_reference(SEED, SMOKE, config)[2]
                for name, config in configs.items()}
    world = shared_world(SEED, SMOKE)
    outcomes = {}

    def study(name):
        try:
            outcomes[name] = run_study(world, config=configs[name],
                                       peers=fleet)[2]
        except BaseException as exc:   # re-raised in the test's thread
            outcomes[name] = exc

    procs, fleet = spawn_fleet(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)     # interleave the two runs finely
    try:
        threads = [threading.Thread(target=study, args=(name,))
                   for name in configs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
        stop_fleet(procs)
    for name in configs:
        if isinstance(outcomes[name], BaseException):
            raise outcomes[name]
        diff = dataset_diff(expected[name], outcomes[name])
        assert diff is None, f"{name} run differs from serial: {diff}"
    assert world_fingerprint(world) == shared_world.fingerprint(world)
