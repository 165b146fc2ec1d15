"""The run flight recorder: manifest building, persistence, emission."""

import json

from repro.core.cache import StudyCache
from repro.core.study import run_study
from repro.obs import (
    build_manifest,
    create_telemetry,
    read_manifest,
    write_manifest,
)
from repro.obs.manifest import MANIFEST_NAME, MANIFEST_VERSION
from repro.world import SMOKE_SCALE, generate_world

from .conftest import phase_sim_seconds

SEED = 11


def test_build_manifest_defaults_and_round_trip(tmp_path):
    manifest = build_manifest(study={"seed": 1}, run={"wall_seconds": 0.5})
    assert manifest["manifest_version"] == MANIFEST_VERSION
    assert manifest["cache"] == {"enabled": False}
    assert manifest["shards"] == [] and manifest["quarantined"] == []
    assert "extra" not in manifest
    path = write_manifest(str(tmp_path), manifest)
    assert path.endswith(MANIFEST_NAME)
    assert read_manifest(str(tmp_path)) == manifest
    assert read_manifest(path) == manifest  # direct path also accepted


def test_run_study_attaches_manifest_serial_and_parallel():
    phases = {}
    for workers in (None, 2):
        telemetry = create_telemetry()
        world = generate_world(seed=SEED, scale=SMOKE_SCALE)
        run_study(world, telemetry=telemetry, workers=workers)
        manifest = telemetry.manifest
        # simulated time comes from the work, not from how the study ran
        phases[workers] = phase_sim_seconds(telemetry, world)
        assert manifest is not None
        assert manifest["study"]["seed"] == SEED
        assert manifest["study"]["workers"] == (workers or 0)
        assert len(manifest["study"]["code_fingerprint"]) == 64
        assert len(manifest["study"]["study_fingerprint"]) == 64
        assert manifest["run"]["cached"] is False
        assert manifest["run"]["wall_seconds"] > 0
        assert manifest["phases"]["study.pipeline"]["count"] == 1
        assert manifest["datasets"]["D-Samples"] > 0
        assert manifest["failed_shards"] == []
        if workers:
            shards = manifest["shards"]
            assert [s["shard"] for s in shards] == list(range(workers))
            assert all(s["wall_seconds"] > 0 for s in shards)
        else:
            assert manifest["shards"] == []
    assert phases[None] == phases[2]
    assert phases[None]["study.pipeline"] == 6648 * 3600.0
    assert phases[None]["study.probing"] == 96 * 3600.0


def test_manifest_emitted_for_cached_runs_too(tmp_path):
    cache_dir = str(tmp_path / "cache")

    def one_run():
        telemetry = create_telemetry()
        world = generate_world(seed=SEED, scale=SMOKE_SCALE)
        run_study(world, telemetry=telemetry, cache=cache_dir)
        return telemetry

    cold = one_run()
    assert cold.manifest["run"]["cached"] is False
    assert cold.manifest["cache"] == {
        "enabled": True, "hit": False, "hits": 0, "misses": 1, "rejected": 0}
    assert cold.metrics.value("study_cache_lookups_total", result="miss") == 1

    warm = one_run()
    assert warm.manifest["run"]["cached"] is True
    assert warm.manifest["cache"]["hit"] is True
    assert warm.manifest["cache"]["hits"] == 1
    assert warm.manifest["datasets"] == cold.manifest["datasets"]
    assert warm.metrics.value("study_cache_lookups_total", result="hit") == 1


def test_cache_lookup_counter_covers_rejected_entries(tmp_path):
    from repro.obs import MetricsRegistry

    cache = StudyCache(str(tmp_path))
    metrics = MetricsRegistry()
    cache.bind_metrics(metrics)
    assert cache.get("0" * 64) is None
    path = cache.path_for("1" * 64)
    with open(path, "wb") as fh:
        fh.write(b"corrupt entry, wrong magic and all")
    assert cache.get("1" * 64) is None
    assert metrics.value("study_cache_lookups_total", result="miss") == 1
    assert metrics.value("study_cache_lookups_total", result="rejected") == 1
    assert metrics.value("study_cache_lookups_total", result="hit") == 0
    assert (cache.hits, cache.misses, cache.rejected) == (0, 2, 1)


def test_manifest_records_quarantined_samples():
    from repro.core.pipeline import PipelineConfig
    from repro.netsim.faults import FAULT_PLANS

    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE_SCALE)
    config = PipelineConfig(faults=FAULT_PLANS["heavy"])
    _malnet, _campaign, datasets = run_study(world, config=config,
                                             telemetry=telemetry)
    expected = [p for p in datasets.profiles if p.quarantined]
    recorded = telemetry.manifest["quarantined"]
    assert [q["sha256"] for q in recorded] == [p.sha256 for p in expected]
    assert all(q["reason"] for q in recorded) or not recorded
    assert telemetry.manifest["study"]["faults"]["name"] == "heavy"


def test_write_persists_manifest_with_other_artifacts(tmp_path):
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE_SCALE)
    run_study(world, telemetry=telemetry, workers=2)
    paths = telemetry.write(str(tmp_path))
    assert sorted(paths) == ["events", "manifest", "prometheus",
                             "snapshot", "trace"]
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == json.loads(json.dumps(telemetry.manifest, default=str))
