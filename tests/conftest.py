"""Shared fixtures: generated worlds, serial reference studies and a
fleet of ``repro worker`` daemons.

Session-scoped because a study run is the expensive part; tests only read
from the results.  A generated world is a value every run shares, so the
session worlds are shared too, and each must be unchanged at teardown
(:func:`world_fingerprint`).
"""

import enum
import hashlib
import os
import random
import re
import subprocess
import sys
import types
from array import array
from collections import deque
from pathlib import Path

import pytest

from repro.core.cache import study_fingerprint
from repro.core.pipeline import total_study_days
from repro.core.study import run_study
from repro.dist.plan import world_key
from repro.intel.vendors import VendorDirectory
from repro.netsim.internet import SECONDS_PER_DAY
from repro.world import SMOKE_SCALE, StudyScale, generate_world

#: the scale of every whole-study test
SMOKE = SMOKE_SCALE
MID = StudyScale(sample_fraction=0.3, probe_days=14,
                 observe_duration=2700.0, observe_poll_interval=300.0,
                 scan_budget=200)

#: the one declared cache on a world: the VT vendor memo of pure functions
_MEMO_ATTRS = {VendorDirectory: {"_tables", "_earliest"}}


def walk_world(world) -> tuple[list[str], list]:
    """Walk every attribute reachable from ``world``: returns the token
    stream :func:`world_fingerprint` hashes and every object the walk
    entered (anything but a primitive, a type, a function or a module).

    The walk reads ``__dict__``/``__slots__`` attributes and container
    items, not a pickle, so no pickling hook can hide state from it;
    random streams count by their state, arrays by their bytes.  Only
    the vendor memo (:data:`_MEMO_ATTRS`) is skipped.
    """
    tokens: list[str] = []
    seen: dict[int, int] = {}
    entered = []          # visited objects keep their ids unique

    def walk(obj):
        if isinstance(obj, (bytes, bytearray)):
            tokens.append("b" + hashlib.sha256(obj).hexdigest())
        elif obj is None or isinstance(obj, (bool, int, float, str,
                                             enum.Enum)):
            tokens.append(repr(obj))
        elif isinstance(obj, (type, types.FunctionType,
                              types.BuiltinFunctionType, types.ModuleType)):
            tokens.append("<%s>" % getattr(obj, "__qualname__", obj.__name__))
        elif id(obj) in seen:
            tokens.append("@%d" % seen[id(obj)])
        else:
            seen[id(obj)] = len(seen)
            entered.append(obj)
            tokens.append("<%s>" % type(obj).__qualname__)
            walk_items(obj)

    def walk_items(obj):
        if isinstance(obj, random.Random):
            walk(obj.getstate())
        elif isinstance(obj, array):
            walk(obj.tobytes())
        elif isinstance(obj, (list, tuple, deque)):
            for item in obj:
                walk(item)
        elif isinstance(obj, (set, frozenset)):
            for item in sorted(obj, key=repr):
                walk(item)
        elif isinstance(obj, (dict, types.MappingProxyType)):
            for key, value in obj.items():
                walk(key)
                walk(value)
        elif isinstance(obj, types.MethodType):
            walk(obj.__func__)
            walk(obj.__self__)
        else:
            attrs = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in [slots] if isinstance(slots, str) else slots:
                    if hasattr(obj, name) and name not in (
                            "__dict__", "__weakref__"):
                        attrs[name] = getattr(obj, name)
            for name in _MEMO_ATTRS.get(type(obj), ()):
                attrs.pop(name, None)
            for name in sorted(attrs):
                walk(name)
                walk(attrs[name])

    walk(world)
    return tokens, entered


def world_fingerprint(world) -> str:
    """sha256 over every attribute reachable from ``world``
    (:func:`walk_world`)."""
    tokens, _entered = walk_world(world)
    return hashlib.sha256("\x1f".join(tokens).encode()).hexdigest()


def phase_sim_seconds(telemetry, world, config=None) -> dict[str, float]:
    """The manifest's ``study.*`` sim seconds, checked against the work
    they cover: the pipeline phase spans the study's feed days and the
    probing phase the campaign window, whatever ran the study, and no
    span anywhere in the trace covers negative simulated time."""
    phases = {name: stat["sim_seconds"]
              for name, stat in telemetry.manifest["phases"].items()}
    assert phases == {
        "study.pipeline": total_study_days(config) * SECONDS_PER_DAY,
        "study.probing": world.scale.probe_days * SECONDS_PER_DAY,
    }
    stack = telemetry.tracer.tree()
    while stack:
        span = stack.pop()
        assert span["sim_seconds"] >= 0.0, span["name"]
        stack.extend(span.get("children", ()))
    return phases


class SharedWorlds:
    """One generated world per ``(seed, scale)``, shared by every test
    that asks for it and fingerprinted when generated."""

    def __init__(self):
        self._worlds = {}

    def __call__(self, seed, scale):
        key = world_key(seed, scale)
        if key not in self._worlds:
            world = generate_world(seed=seed, scale=scale)
            self._worlds[key] = (world, world_fingerprint(world))
        return self._worlds[key][0]

    def fingerprint(self, world) -> str:
        """The fingerprint ``world`` had when it was generated."""
        return self._worlds[world_key(world.seed, world.scale)][1]

    def written(self) -> list[str]:
        """Keys of the worlds whose fingerprint moved since generation."""
        return [key for key, (world, fingerprint) in self._worlds.items()
                if world_fingerprint(world) != fingerprint]


@pytest.fixture(scope="session")
def shared_world():
    """``shared_world(seed, scale)``: the session's world for one input.
    At teardown every world it handed out must be unchanged."""
    worlds = SharedWorlds()
    yield worlds
    assert worlds.written() == [], "a run wrote into a shared world"


@pytest.fixture(scope="session")
def smoke_world(shared_world):
    return shared_world(20220322, SMOKE)


@pytest.fixture(scope="session")
def serial_reference(shared_world):
    """``serial_reference(seed, scale, config=None)``: the serial
    ``run_study`` result ``(malnet, campaign, datasets)`` of one input.

    Each input runs once per session, on the shared world of its
    ``(seed, scale)``; every whole-study comparison checks its run
    against this reference with ``dataset_diff``.
    """
    studies = {}

    def reference(seed, scale, config=None):
        key = study_fingerprint(seed, scale, config, code="")
        if key not in studies:
            studies[key] = run_study(shared_world(seed, scale),
                                     config=config)
        return studies[key]

    return reference


@pytest.fixture(scope="session")
def smoke_study(serial_reference):
    malnet, campaign, datasets = serial_reference(20220322, SMOKE)
    return malnet.world, malnet, campaign, datasets


@pytest.fixture(scope="session")
def mid_world(shared_world):
    return shared_world(7, MID)


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
