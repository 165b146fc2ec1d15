"""Shared fixtures: generated worlds, serial reference studies and a
fleet of ``repro worker`` daemons.

Session-scoped because a study run is the expensive part; tests only read
from the results.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cache import study_fingerprint
from repro.core.study import run_study
from repro.world import SMOKE_SCALE, StudyScale, generate_world

#: the scale of every whole-study test
SMOKE = SMOKE_SCALE
MID = StudyScale(sample_fraction=0.3, probe_days=14,
                 observe_duration=2700.0, observe_poll_interval=300.0,
                 scan_budget=200)


@pytest.fixture(scope="session")
def smoke_world():
    return generate_world(seed=20220322, scale=SMOKE)


@pytest.fixture(scope="session")
def serial_reference():
    """``serial_reference(seed, scale, config=None)``: the serial
    ``run_study`` result ``(malnet, campaign, datasets)`` of one input.

    Each input runs once per session; every whole-study comparison
    checks its run against this reference with ``dataset_diff``.
    """
    studies = {}

    def reference(seed, scale, config=None):
        key = study_fingerprint(seed, scale, config, code="")
        if key not in studies:
            world = generate_world(seed=seed, scale=scale)
            studies[key] = run_study(world, config=config)
        return studies[key]

    return reference


@pytest.fixture(scope="session")
def smoke_study(serial_reference):
    malnet, campaign, datasets = serial_reference(20220322, SMOKE)
    return malnet.world, malnet, campaign, datasets


@pytest.fixture(scope="session")
def mid_world():
    return generate_world(seed=7, scale=MID)


@pytest.fixture(scope="session")
def mid_study(mid_world):
    malnet, campaign, datasets = run_study(mid_world)
    return mid_world, malnet, campaign, datasets


_ANNOUNCE = re.compile(r"listening on ([\d.]+):(\d+)")


def spawn_fleet(count):
    """``repro worker`` daemons as real subprocesses -> (procs, peers)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    procs, peers = [], []
    for _ in range(count):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env)
        procs.append(proc)
        match = _ANNOUNCE.search(proc.stdout.readline())
        assert match, "worker did not announce its address"
        peers.append(f"{match.group(1)}:{match.group(2)}")
    return procs, peers


def stop_fleet(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)
        proc.stdout.close()


@pytest.fixture(scope="session")
def worker_fleet():
    """Two ``python -m repro worker --port 0`` daemons: their addresses."""
    procs, peers = spawn_fleet(2)
    yield peers
    stop_fleet(procs)
