"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.core.cache import StudyCache
from repro.core.pipeline import MalNet


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def refused_study(monkeypatch, *flags) -> str:
    """Run ``study`` with sharding flags the fleet check refuses;
    returns the exit text, having checked that no world was even
    generated (so no pipeline was built either)."""
    def no_world(*args, **kwargs):
        raise AssertionError("a refused study still generated a world")

    def no_study(*args, **kwargs):
        raise AssertionError("a refused study still built a pipeline")

    monkeypatch.setattr("repro.cli.generate_world", no_world)
    monkeypatch.setattr(MalNet, "__init__", no_study)
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--scale", "smoke", "study", *flags)
    return str(excinfo.value)


class TestStudyCommand:
    def test_study_prints_table1(self):
        code, text = run_cli("--scale", "smoke", "--seed", "3", "study")
        assert code == 0
        assert "Table 1" in text
        assert "D-Samples" in text and "D-DDOS" in text
        assert "dead-on-day-0" in text

    def test_seed_changes_output(self):
        _c, a = run_cli("--scale", "smoke", "--seed", "3", "study")
        _c, b = run_cli("--scale", "smoke", "--seed", "4", "study")
        assert a != b

    def test_seed_reproducible(self):
        _c, a = run_cli("--scale", "smoke", "--seed", "3", "study")
        _c, b = run_cli("--scale", "smoke", "--seed", "3", "study")
        assert a == b

    # the sharding flags are checked once, by plan_fleet, before the
    # world is generated; the CLI only turns its FleetError into a
    # usage exit

    def test_workers_and_peers_are_exclusive(self, monkeypatch):
        assert refused_study(monkeypatch, "--workers", "2",
                             "--peers", "127.0.0.1:9") == (
            "repro: workers and peers are exclusive: the peer list "
            "already decides where units run")

    def test_units_must_be_positive(self, monkeypatch):
        assert refused_study(monkeypatch, "--workers", "2",
                             "--units", "0") == \
            "repro: unit_count must be >= 1, got 0"

    def test_units_need_workers_or_peers(self, monkeypatch):
        # a serial study has no units: the flag must not be ignored
        assert refused_study(monkeypatch, "--units", "3") == (
            "repro: unit_count needs workers or peers: a serial study "
            "is not cut into units")

    def test_negative_workers_are_refused(self, monkeypatch):
        assert refused_study(monkeypatch, "--workers", "-1") == \
            "repro: workers must be >= 1, got -1"

    def test_peer_ports_must_be_in_range(self, monkeypatch):
        # getaddrinfo would wrap 99999 into another port and dial it
        for address in ("127.0.0.1:99999", "127.0.0.1:0"):
            assert refused_study(monkeypatch, "--peers", address) == \
                f"repro: --peers ports must be in 1-65535, got '{address}'"


#: (serial flags, extra flags of the sharded run); ``PEERS`` stands for
#: the session's two ``repro worker`` daemons.  Plain smoke studies
#: print the same under mild faults as under none, so only heavy faults
#: (or the dga scenario) show a fault plan lost on the way to the units.
SHARDED_STUDIES = [
    pytest.param(["--faults", "heavy"], ["--workers", "2"],
                 id="heavy-workers"),
    pytest.param(["--dga", "--faults", "mild"], ["--workers", "2"],
                 id="dga-mild-workers"),
    pytest.param([], ["--peers", "PEERS"], id="peers"),
    pytest.param(["--faults", "heavy"], ["--peers", "PEERS", "--units", "8"],
                 id="heavy-peers-units"),
]


class TestStudyFlagsReachTheRun:
    """A sharded or cached ``study`` prints exactly what the serial one
    prints, so every flag reaches the sharded run as it reaches the
    serial one."""

    @pytest.mark.parametrize("flags, sharding", SHARDED_STUDIES)
    def test_sharded_study_prints_the_serial_output(self, flags, sharding,
                                                    request):
        if "PEERS" in sharding:
            peers = ",".join(request.getfixturevalue("worker_fleet"))
            sharding = [peers if flag == "PEERS" else flag
                        for flag in sharding]
        code, serial = run_cli("--scale", "smoke", "study", *flags)
        assert code == 0
        code, sharded = run_cli("--scale", "smoke", "study", *flags,
                                *sharding)
        assert code == 0
        assert sharded == serial
        if "--dga" in flags:
            assert "DGA campaigns observed" in serial

    def test_cold_then_warm_cache_prints_the_serial_output(self, tmp_path,
                                                           monkeypatch):
        entries = []
        get = StudyCache.get

        def recording_get(cache, fingerprint):
            entries.append(get(cache, fingerprint))
            return entries[-1]

        monkeypatch.setattr(StudyCache, "get", recording_get)
        _code, serial = run_cli("--scale", "smoke", "study")
        argv = ("--scale", "smoke", "study", "--cache-dir", str(tmp_path))
        _code, cold = run_cli(*argv)
        _code, warm = run_cli(*argv)
        assert [entry is not None for entry in entries] == [False, True]
        assert cold == warm == serial


class TestReportCommand:
    def test_default_report(self):
        code, text = run_cli("--scale", "smoke", "report")
        assert code == 0
        assert "Table 1" in text

    def test_multiple_items(self):
        code, text = run_cli("--scale", "smoke", "report",
                             "--what", "table3", "fig4", "fig11")
        assert code == 0
        assert "Table 3" in text
        assert "Figure 4" in text and "#" in text
        assert "Figure 11" in text

    def test_rejects_unknown_item(self):
        with pytest.raises(SystemExit):
            run_cli("report", "--what", "fig99")


class TestRulesCommand:
    def test_all_rules(self):
        code, text = run_cli("--scale", "smoke", "rules")
        assert code == 0
        assert "-A OUTPUT -d" in text
        assert "alert tcp" in text
        assert "# c2 coverage: 100%" in text

    def test_single_technology(self):
        code, text = run_cli("--scale", "smoke", "rules", "--tech", "snort")
        assert code == 0
        assert "alert" in text
        assert "-A OUTPUT" not in text


class TestPcapCommand:
    def test_exports_readable_pcaps(self, tmp_path):
        code, text = run_cli("--scale", "smoke", "pcap",
                             "--out", str(tmp_path), "--limit", "3")
        assert code == 0
        pcaps = list(tmp_path.glob("*.pcap"))
        assert len(pcaps) == 3
        from repro.netsim.capture import Capture

        for path in pcaps:
            assert len(Capture.load(str(path))) > 0

    def test_traces_are_each_samples_own_analysis(self, tmp_path,
                                                  smoke_study):
        """A trace is its sample's analysis on its own stream at its
        analysis instant: re-analyzed in reverse export order it has the
        same bytes, and it starts on the day its profile was studied."""
        from repro.netsim.capture import Capture
        from repro.netsim.internet import SECONDS_PER_DAY

        code, _text = run_cli("--scale", "smoke", "pcap",
                              "--out", str(tmp_path), "--limit", "3")
        assert code == 0
        world, malnet, _campaign, datasets = smoke_study
        samples = {p.sample.sha256: p.sample for p in world.truth.all_samples}
        exported = [p for p in datasets.profiles
                    if p.activated and p.sha256 in samples][:3]
        assert len({p.day for p in exported}) > 1
        for profile in reversed(exported):
            report = malnet.activate(profile.sha256,
                                     samples[profile.sha256].data,
                                     malnet.analysis_instant(profile.day),
                                     scan_budget=60)
            path = tmp_path / f"{profile.sha256[:16]}.pcap"
            assert report.capture.to_pcap_bytes() == path.read_bytes()
            first = Capture.load(str(path)).packets[0].timestamp
            assert int((first - world.epoch) // SECONDS_PER_DAY) == \
                profile.day


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_unknown_scale(self):
        with pytest.raises(SystemExit):
            run_cli("--scale", "galactic", "study")


class TestTelemetryFlag:
    def test_study_writes_snapshot_events_and_prom(self, tmp_path):
        import json

        target = tmp_path / "telemetry"
        code, text = run_cli("--scale", "smoke", "--seed", "3",
                             "study", "--telemetry", str(target))
        assert code == 0
        assert f"# telemetry written to {target}" in text
        snapshot = json.loads((target / "snapshot.json").read_text())
        metrics = snapshot["metrics"]
        for counter in ("samples_collected", "samples_verified",
                        "samples_activated", "c2_liveness_probes"):
            assert metrics[counter]["series"], counter
        assert snapshot["spans"]["pipeline.run_day"]["count"] > 0
        assert snapshot["spans"]["sandbox.analyze"]["wall_seconds"] >= 0
        lines = (target / "events.jsonl").read_text().splitlines()
        assert lines and all(json.loads(line)["event"] for line in lines)
        prom = (target / "metrics.prom").read_text()
        assert "# TYPE samples_collected counter" in prom

    def test_study_output_unchanged_without_flag(self):
        _c, plain = run_cli("--scale", "smoke", "--seed", "3", "study")
        assert "telemetry" not in plain

    def test_report_accepts_flag(self, tmp_path):
        target = tmp_path / "t"
        code, _text = run_cli("--scale", "smoke", "report",
                              "--telemetry", str(target))
        assert code == 0
        assert (target / "snapshot.json").exists()


class TestStatsCommand:
    def test_renders_stage_and_counter_tables(self):
        code, text = run_cli("--scale", "smoke", "--seed", "3", "stats")
        assert code == 0
        assert "Pipeline stages" in text
        assert "pipeline.run_day" in text
        assert "sandbox.analyze" in text
        assert "Counters" in text
        assert "samples_collected" in text
        assert "c2_liveness_probes{outcome=live}" in text

    def test_renders_top_spans_and_histogram_quantiles(self):
        code, text = run_cli("--scale", "smoke", "--seed", "3", "stats")
        assert code == 0
        assert "Histograms" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "feed_latency_seconds" in text

    def test_bad_telemetry_path_fails_before_the_study(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "smoke", "stats", "--telemetry",
                  str(blocker / "x")], out=out)
        assert str(excinfo.value).startswith(
            f"repro: --telemetry '{blocker / 'x'}':")
        assert out.getvalue() == ""

    def test_honours_workers_flag(self):
        code, serial = run_cli("--scale", "smoke", "--seed", "3", "stats")
        code2, parallel = run_cli("--scale", "smoke", "--seed", "3",
                                  "stats", "--workers", "2")
        assert code == 0 and code2 == 0
        # the merged parallel run reports the same counter totals; its
        # stage table additionally carries the shard roots
        assert "shard[0]" in parallel and "shard[1]" in parallel
        counters = lambda text: [l for l in text.splitlines()
                                 if l.startswith(("samples_", "c2_", "ddos_"))]
        assert counters(parallel) == counters(serial)


class TestObsErrorHandling:
    """Bad artifact paths must produce a clear message, not a traceback."""

    def test_missing_directory(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("obs", "top", "/no/such/artifact/dir")
        assert "not a directory" in str(excinfo.value)
        assert "--telemetry" in str(excinfo.value)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("obs", "top", str(tmp_path))
        assert "is empty" in str(excinfo.value)

    def test_corrupt_snapshot(self, tmp_path):
        (tmp_path / "snapshot.json").write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            run_cli("obs", "top", str(tmp_path))
        assert "corrupt or incomplete artifact" in str(excinfo.value)

    def test_diff_checks_both_directories(self, tmp_path):
        good = tmp_path / "a"
        good.mkdir()
        (good / "snapshot.json").write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            run_cli("obs", "diff", str(good), str(tmp_path / "missing"))
        assert "not a directory" in str(excinfo.value)


class TestSamplesReport:
    def test_renders_per_c2_sample_table(self):
        code, text = run_cli("--scale", "smoke", "report",
                             "--what", "samples")
        assert code == 0
        assert "Samples per C2" in text
        assert "sha256" in text and "family" in text


class TestWorkerCommand:
    def test_heartbeat_interval_is_not_an_option(self, monkeypatch,
                                                 capsys):
        """The heartbeat cadence is a protocol constant: a daemon with
        its own could be lost by a coordinator expecting the default."""
        def no_daemon(*args, **kwargs):
            raise AssertionError("a worker daemon started")

        monkeypatch.setattr("repro.dist.worker.WorkerServer", no_daemon)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("worker", "--port", "0", "--heartbeat-interval", "20")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --heartbeat-interval 20" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags, error", [
        (["--port", "-1"], "argument --port: must be in 0-65535, got -1"),
        (["--port", "65536"],
         "argument --port: must be in 0-65535, got 65536"),
        (["--world-cache", "0"],
         "argument --world-cache: must be >= 1, got 0"),
    ], ids=["port-negative", "port-too-large", "world-cache-zero"])
    def test_bad_values_are_usage_errors(self, flags, error, monkeypatch,
                                         capsys):
        def no_daemon(*args, **kwargs):
            raise AssertionError("a worker daemon started")

        monkeypatch.setattr("repro.dist.worker.WorkerServer", no_daemon)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("worker", *flags)
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err


class TestServeAndQueryCommands:
    def test_serve_port_is_a_usage_error(self, monkeypatch, capsys):
        """A bad port fails before the service generates its world."""
        def no_service(*args, **kwargs):
            raise AssertionError("a service was built")

        monkeypatch.setattr("repro.service.StudyService", no_service)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("serve", "--port", "99999")
        assert excinfo.value.code == 2
        assert "argument --port: must be in 0-65535, got 99999" in \
            capsys.readouterr().err

    @pytest.fixture(scope="class")
    def daemon_url(self):
        import threading

        from repro.core.pipeline import PipelineConfig
        from repro.service import StudyService, build_server, serve_forever
        from repro.world import StudyScale

        scale = StudyScale(sample_fraction=0.05, probe_days=2,
                           observe_duration=1800.0,
                           observe_poll_interval=300.0, scan_budget=120)
        service = StudyService(seed=11, scale=scale,
                               config=PipelineConfig(study_days=60))
        server = build_server(service)
        thread = threading.Thread(target=serve_forever,
                                  args=(server, service), daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        thread.join(timeout=10)

    def test_ingest_then_status(self, daemon_url):
        code, text = run_cli("query", daemon_url, "ingest", "--days", "all")
        assert code == 0
        assert '"finalized": true' in text
        code, text = run_cli("query", daemon_url, "status")
        assert code == 0
        assert '"pipeline_done": true' in text

    def test_rules_are_raw_text(self, daemon_url):
        code, text = run_cli("query", daemon_url, "rules",
                             "--tech", "iptables")
        assert code == 0
        assert text == "" or text.lstrip().startswith("-A ")

    def test_profile_requires_sha256(self, daemon_url):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("query", daemon_url, "profile")
        assert "--sha256" in str(excinfo.value)

    def test_unknown_hash_is_a_clean_error(self, daemon_url):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("query", daemon_url, "profile", "--sha256", "ab" * 32)
        assert "404" in str(excinfo.value)

    def test_unreachable_service_is_a_clean_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("query", "http://127.0.0.1:9", "health")
        assert "cannot reach" in str(excinfo.value)

    def test_a_url_without_http_is_a_clean_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("query", "127.0.0.1:8321", "health")
        assert "http://" in str(excinfo.value)
