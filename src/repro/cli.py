"""Command-line interface: run studies, render reports, emit rules.

Usage (also via ``python -m repro``)::

    python -m repro study  --scale smoke --seed 7
    python -m repro study  --scale smoke --telemetry /tmp/telemetry
    python -m repro report --scale smoke --what table1 table3 fig4
    python -m repro rules  --scale smoke --tech iptables
    python -m repro pcap   --scale smoke --out /tmp/traces --limit 5
    python -m repro stats  --scale smoke --workers 2
    python -m repro obs top /tmp/telemetry
    python -m repro obs diff /tmp/runA /tmp/runB --threshold 0.2
    python -m repro serve  --scale smoke --port 8321 --checkpoint-dir /tmp/ckpt
    python -m repro query http://127.0.0.1:8321 ingest --days all
    python -m repro query http://127.0.0.1:8321 profile --sha256 <hash>
    python -m repro query http://127.0.0.1:8321 alerts

Scales: ``smoke`` (~70 samples, seconds), ``mid`` (~430), ``full`` (the
paper's 1447 samples, ~10 s), ``xl`` (~720 samples with smoke-sized
windows — the columnar-core stress setting).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .core import c2_analysis, ddos_analysis, exploit_analysis, ti_analysis
from .core.firewall import compile_rules, coverage_report
from .core.report import (
    render_cdf,
    render_heatmap,
    render_histogram,
    render_probe_matrix,
    render_table,
)
from .core.pipeline import PipelineConfig
from .core.study import run_study
from .dist.plan import FleetError, plan_fleet
from .netsim.faults import FAULT_PLANS
from .obs import NULL_TELEMETRY, Telemetry, analysis, create_telemetry
from .world import FULL_SCALE, SMOKE_SCALE, XL_SCALE, StudyScale, generate_world
from .world.calibration import ACTIVE_WEEKS

SCALES: dict[str, StudyScale] = {
    "smoke": SMOKE_SCALE,
    "mid": StudyScale(sample_fraction=0.3, probe_days=14),
    "full": FULL_SCALE,
    "xl": XL_SCALE,
}

REPORT_CHOICES = (
    "table1", "table2", "table3", "table4", "table7",
    "fig1", "fig2", "fig4", "fig5", "fig9", "fig10", "fig11",
    "samples", "dga-churn", "dga-evasion",
)

QUERY_CHOICES = (
    "status", "digest", "health", "profiles", "profile", "c2", "lifespans",
    "ddos", "exploits", "alerts", "rules", "metrics", "ingest", "finalize",
)


def _int_in(low: int, high: int | None = None):
    """An argparse ``type``: an integer in ``[low, high]`` (no upper
    bound when ``high`` is None); anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in {low}-{high}"
            raise argparse.ArgumentTypeError(
                f"must be {bounds}, got {value}")
        return value
    return parse


#: a port to listen on: 0 picks an ephemeral one
LISTEN_PORT = _int_in(0, 65535)


def _sample_rows(datasets, limit: int = 20) -> list[list]:
    """Per-C2 sample attribution rows (largest C2s first).

    Each sample hash on a C2 record is resolved through the O(1)
    ``profile_by_sha256`` index rather than scanning the profile list
    per hash."""
    rows: list[list] = []
    records = sorted(datasets.d_c2s.values(),
                     key=lambda r: (-r.distinct_samples, r.endpoint))
    for record in records:
        for sha256 in sorted(record.sample_hashes):
            profile = datasets.profile_by_sha256(sha256)
            if profile is None:
                continue
            rows.append([sha256[:12], profile.family_label or "?",
                         profile.day, record.endpoint,
                         len(profile.exploits), len(profile.attacks)])
            if len(rows) >= limit:
                return rows
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MalNet (IMC 2022) reproduction: run the study, "
                    "render its tables/figures, and emit firewall rules.",
    )
    parser.add_argument("--seed", type=int, default=20220322,
                        help="world seed (default: 20220322)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="study size (default: smoke)")
    sub = parser.add_subparsers(dest="command", required=True)

    def telemetry_flag(subparser):
        subparser.add_argument(
            "--telemetry", metavar="PATH", default=None,
            help="write snapshot.json / events.jsonl / metrics.prom "
                 "under this directory")

    def workers_flag(subparser):
        subparser.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="shard the daily pipeline over N worker processes "
                 "(default: in-process serial; results are identical)")

    def faults_flag(subparser):
        subparser.add_argument(
            "--faults", choices=sorted(FAULT_PLANS), default=None,
            help="inject deterministic faults (packet loss, feed outages, "
                 "sandbox crashes); results stay reproducible per seed")

    def cache_flag(subparser):
        subparser.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="persistent study cache: store/reuse results keyed by "
                 "(seed, scale, faults, config, code version); a hit "
                 "skips the run and returns identical datasets")

    def dga_flag(subparser):
        subparser.add_argument(
            "--dga", action="store_true",
            help="opt-in DGA scenario: DGA-capable families rotate "
                 "generated domains and a defender blocklist scores "
                 "queries in-line (see DESIGN.md §8)")

    def dist_flags(subparser):
        subparser.add_argument(
            "--peers", metavar="HOST:PORT,...", default=None,
            help="run the shard units on these repro worker daemons "
                 "instead of local --workers; results are byte-identical "
                 "either way (DESIGN.md §9)")
        subparser.add_argument(
            "--units", type=int, default=None, metavar="N",
            help="cut the corpus into N sha256 units (default: workers "
                 "locally, 4x the fleet over --peers); any N merges to "
                 "the same digest")

    study = sub.add_parser("study", help="run the study and print Table 1 + stats")
    telemetry_flag(study)
    workers_flag(study)
    faults_flag(study)
    cache_flag(study)
    dga_flag(study)
    dist_flags(study)

    report = sub.add_parser("report", help="render selected tables/figures")
    report.add_argument("--what", nargs="+", choices=REPORT_CHOICES,
                        default=["table1"], help="items to render")
    telemetry_flag(report)
    workers_flag(report)
    faults_flag(report)
    cache_flag(report)
    dga_flag(report)
    dist_flags(report)

    stats = sub.add_parser(
        "stats", help="run the study with telemetry on and print the "
                      "per-stage summary")
    telemetry_flag(stats)
    workers_flag(stats)
    faults_flag(stats)
    dist_flags(stats)

    worker = sub.add_parser(
        "worker", help="run a distributed study worker daemon that "
                       "executes shard units for a coordinator "
                       "(repro study --peers host:port,...)")
    worker.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    worker.add_argument("--port", type=LISTEN_PORT, default=0,
                        help="listen port (default: 0 = ephemeral; the "
                             "chosen port is announced on stdout)")
    worker.add_argument("--world-cache", type=_int_in(1), default=4,
                        metavar="N",
                        help="generated worlds kept warm "
                             "(default: 4)")

    obs = sub.add_parser(
        "obs", help="inspect telemetry artifact directories written by "
                    "--telemetry (no study is run)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_top = obs_sub.add_parser(
        "top", help="slowest pipeline stages of a finished run")
    obs_top.add_argument("dir", help="artifact directory")
    obs_top.add_argument("-n", type=int, default=10, metavar="N",
                         help="stages to show (default 10)")
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two runs; exits 1 when any counter, "
                     "histogram, or span moves beyond the threshold")
    obs_diff.add_argument("dir_a", help="baseline artifact directory")
    obs_diff.add_argument("dir_b", help="candidate artifact directory")
    obs_diff.add_argument("--threshold", type=float, default=0.25,
                          metavar="REL",
                          help="relative-change breach threshold "
                               "(default 0.25)")
    obs_diff.add_argument("--min-wall", type=float, default=0.05,
                          metavar="SEC",
                          help="ignore span wall deltas below this many "
                               "seconds (default 0.05)")
    obs_timeline = obs_sub.add_parser(
        "timeline", help="ASCII per-track timeline of trace.json")
    obs_timeline.add_argument("dir", help="artifact directory")
    obs_timeline.add_argument("--width", type=int, default=64,
                              help="bar width in characters (default 64)")
    obs_manifest = obs_sub.add_parser(
        "manifest", help="summarize a run's manifest.json")
    obs_manifest.add_argument("dir", help="artifact directory")
    obs_manifest.add_argument("--json", action="store_true",
                              help="dump the raw manifest document")

    rules = sub.add_parser("rules", help="compile firewall/IDS rules")
    rules.add_argument("--tech", choices=("iptables", "dnsmasq", "snort",
                                          "all"),
                       default="all", help="rule technology to emit")
    telemetry_flag(rules)

    pcap = sub.add_parser("pcap", help="export per-binary pcap traces")
    pcap.add_argument("--out", required=True, help="output directory")
    pcap.add_argument("--limit", type=int, default=10,
                      help="max binaries to export (default 10)")
    telemetry_flag(pcap)

    serve = sub.add_parser(
        "serve", help="run the study as a daemon: ingest feed days "
                      "incrementally and serve the JSON query API")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=LISTEN_PORT, default=8321,
                       help="bind port, 0 for ephemeral (default 8321)")
    serve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="persist a checkpoint after every ingested day; "
                            "a restart with the same study resumes from the "
                            "last completed day")
    serve.add_argument("--auto-ingest", type=float, default=None,
                       metavar="SECONDS",
                       help="simulated feed clock: ingest one day every "
                            "SECONDS without waiting for POST /ingest/day")
    serve.add_argument("--study-days", type=int, default=None, metavar="N",
                       help="truncate the study to its first N feed days")
    faults_flag(serve)
    telemetry_flag(serve)

    query = sub.add_parser(
        "query", help="query a running study service (repro serve)")
    query.add_argument("url", help="service base URL, "
                                   "e.g. http://127.0.0.1:8321")
    query.add_argument("what", choices=QUERY_CHOICES,
                       help="route to query")
    query.add_argument("--sha256", default=None,
                       help="binary hash for 'profile'")
    query.add_argument("--days", default="1",
                       help="days to ingest for 'ingest': a count or "
                            "'all' (default 1)")
    query.add_argument("--day", type=int, default=None,
                       help="filter 'profiles' to one study day")
    query.add_argument("--limit", type=int, default=None,
                       help="cap 'profiles' output")
    query.add_argument("--tech", choices=("iptables", "dnsmasq", "snort",
                                          "all"),
                       default="all", help="rule technology for 'rules'")
    query.add_argument("--timeout", type=float, default=30.0,
                       help="request timeout in seconds (default 30)")
    return parser


def _telemetry_for(
    args, always: bool = False,
) -> tuple[Telemetry, str | None]:
    """An enabled telemetry bundle when ``--telemetry PATH`` was given
    (or ``always``, for commands that read their own instruments).

    The output directory is created eagerly so a bad path fails before
    the study runs, not after."""
    path = getattr(args, "telemetry", None)
    if path is None:
        return (create_telemetry() if always else NULL_TELEMETRY), None
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"repro: --telemetry {path!r}: {exc}")
    return create_telemetry(), path


def _emit(out, telemetry: Telemetry, text: str, event: str, **fields) -> None:
    """CLI output: the rendered text goes to ``out``, a structured copy of
    the underlying fact goes to the event log."""
    print(text, file=out)
    telemetry.events.emit(event, **fields)


def _finish_telemetry(out, telemetry: Telemetry, path: str | None) -> None:
    if path is None:
        return
    paths = telemetry.write(path)
    print(f"# telemetry written to {path} "
          f"({', '.join(sorted(p.rsplit('/', 1)[-1] for p in paths.values()))})",
          file=out)


def _parse_peers(value: str | None) -> list[str] | None:
    """``"host:port,host:port"`` -> validated address list (or None)."""
    if not value:
        return None
    peers = []
    for address in value.split(","):
        address = address.strip()
        if not address:
            continue
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(
                f"repro: --peers entries must be host:port, got {address!r}")
        if not 1 <= int(port) <= 65535:
            raise SystemExit(
                f"repro: --peers ports must be in 1-65535, got {address!r}")
        peers.append(address)
    if not peers:
        raise SystemExit("repro: --peers is empty")
    return peers


def _run(args, telemetry: Telemetry = NULL_TELEMETRY) -> tuple:
    scale = SCALES[args.scale]
    if getattr(args, "dga", False):
        # the flag rides on the scale so parallel workers regenerating
        # the world from (seed, scale) build the same DGA campaigns
        scale = dataclasses.replace(scale, dga=True)
    peers = _parse_peers(getattr(args, "peers", None))
    workers = getattr(args, "workers", None)
    unit_count = getattr(args, "units", None)
    try:
        plan_fleet(workers, peers, unit_count)   # before the world exists
    except FleetError as exc:
        raise SystemExit(f"repro: {exc}")
    world = generate_world(seed=args.seed, scale=scale)
    config = None
    faults = getattr(args, "faults", None)
    if faults is not None:
        config = PipelineConfig(faults=FAULT_PLANS[faults])
    malnet, campaign, datasets = run_study(
        world, config=config, telemetry=telemetry, workers=workers,
        peers=peers, unit_count=unit_count,
        cache=getattr(args, "cache_dir", None))
    if datasets.failed_shards:
        print(f"# WARNING: partial results - shards {datasets.failed_shards} "
              "failed and were excluded from the merge", file=sys.stderr)
    return world, malnet, campaign, datasets


def _cmd_study(args, out) -> int:
    telemetry, telemetry_path = _telemetry_for(args)
    world, _malnet, campaign, datasets = _run(args, telemetry)
    summary = datasets.summary()
    rows = [[name, count] for name, count in summary.items()]
    _emit(out, telemetry,
          render_table(["dataset", "size"], rows, title="Table 1"),
          "cli.table1", sizes=dict(summary))
    dead = c2_analysis.dead_on_arrival_rate(datasets)
    _emit(out, telemetry, f"\ndead-on-day-0 C2 rate: {dead:.0%}",
          "cli.dead_on_arrival", rate=dead)
    repeat = campaign.repeat_response_rate()
    _emit(out, telemetry, f"probe repeat-response rate: {repeat:.0%}",
          "cli.repeat_response", rate=repeat)
    attack_types = sorted({r.attack_type for r in datasets.d_ddos})
    _emit(out, telemetry, f"attack types observed: {attack_types}",
          "cli.attack_types", types=attack_types)
    if getattr(args, "dga", False):
        clusters = c2_analysis.domain_churn_clusters(datasets)
        evasion = c2_analysis.block_evasion_rate(datasets)
        domains = sum(len(records) for records in clusters.values())
        _emit(out, telemetry,
              f"DGA campaigns observed: {len(clusters)} "
              f"({domains} rotated domains); "
              f"block-evasion rate: {evasion:.0%}",
              "cli.dga", campaigns=len(clusters), domains=domains,
              evasion=evasion)
    _finish_telemetry(out, telemetry, telemetry_path)
    return 0


def _cmd_report(args, out) -> int:
    telemetry, telemetry_path = _telemetry_for(args)
    world, _malnet, campaign, datasets = _run(args, telemetry)
    renderers = {
        "table1": lambda: render_table(
            ["dataset", "size"],
            [[k, v] for k, v in datasets.summary().items()], "Table 1"),
        "table2": lambda: render_table(
            ["AS", "ASN", "country", "#C2s"],
            [[r["as_name"], r["asn"], r["country"], r["c2_count"]]
             for r in c2_analysis.table2_rows(datasets, world.asdb)],
            "Table 2"),
        "table3": lambda: render_table(
            ["type", "same-day miss", "re-query miss", "n"],
            [[k, f"{v.same_day:.1%}", f"{v.recheck:.1%}", v.count]
             for k, v in ti_analysis.table3(datasets).items()], "Table 3"),
        "table4": lambda: render_table(
            ["vulnerability", "samples"],
            [[r.vulnerability.key, r.sample_count]
             for r in exploit_analysis.table4(datasets)], "Table 4"),
        "table7": lambda: render_table(
            ["vendor", "/1000"],
            [[n, c] for n, c in ti_analysis.table7(datasets, world.vt)[:20]],
            "Table 7"),
        "fig1": lambda: render_heatmap(
            c2_analysis.weekly_as_heatmap(datasets, world.asdb, ACTIVE_WEEKS),
            "Figure 1"),
        "fig2": lambda: render_cdf(
            c2_analysis.lifetime_cdf(datasets, dns=False), "Figure 2", "days"),
        "fig4": lambda: render_probe_matrix(
            campaign.response_matrix(), "Figure 4"),
        "fig5": lambda: render_cdf(
            c2_analysis.samples_per_c2_cdf(datasets, dns=False),
            "Figure 5", "#binaries"),
        "fig9": lambda: render_histogram(
            exploit_analysis.loader_frequencies(datasets), "Figure 9"),
        "fig10": lambda: render_histogram(
            {k: round(v * 100)
             for k, v in ddos_analysis.protocol_distribution(datasets).items()},
            "Figure 10 (%)"),
        "fig11": lambda: render_histogram(
            {f"{f}/{t}": n
             for (f, t), n in ddos_analysis.type_by_family(datasets).items()},
            "Figure 11"),
        "samples": lambda: render_table(
            ["sha256", "family", "day", "c2", "exploits", "attacks"],
            _sample_rows(datasets), "Samples per C2"),
        "dga-churn": lambda: render_cdf(
            c2_analysis.domain_churn_lifetime_cdf(datasets),
            "Domain-churn lifetime", "days"),
        "dga-evasion": lambda: (
            f"block-evasion rate: "
            f"{c2_analysis.block_evasion_rate(datasets):.1%} "
            f"(static-DNS baseline: "
            f"{1 - c2_analysis.dead_on_arrival_rate(datasets):.1%} live)"),
    }
    for what in args.what:
        _emit(out, telemetry, renderers[what](), "cli.render", what=what)
        print(file=out)
    _finish_telemetry(out, telemetry, telemetry_path)
    return 0


def _stage_table(snapshot: dict, n: int, title: str) -> str:
    """The ``n`` slowest stages of a telemetry snapshot, as a table."""
    rows = [[name, stat["count"], f"{stat['wall_seconds']:.3f}",
             f"{stat['sim_seconds'] / 3600.0:.1f}"]
            for name, stat in analysis.top_spans(snapshot, n)]
    return render_table(["stage", "calls", "wall s", "sim h"], rows,
                        title=title)


def _cmd_stats(args, out) -> int:
    """Run the study with telemetry on; render the per-stage summary."""
    telemetry, telemetry_path = _telemetry_for(args, always=True)
    _run(args, telemetry)
    snapshot = telemetry.snapshot()
    print(_stage_table(snapshot, len(snapshot["spans"]), "Pipeline stages"),
          file=out)
    print(file=out)
    counter_rows = [[name, int(value)] for name, value
                    in analysis.counter_series(snapshot).items()]
    print(render_table(["counter", "total"], counter_rows, title="Counters"),
          file=out)
    histogram_rows = [
        [name, value["count"]]
        + [f"{bound:g}" for bound
           in analysis.histogram_quantiles(value).values()]
        for name, value in analysis.histogram_series(snapshot).items()
    ]
    if histogram_rows:
        print(file=out)
        print(render_table(["histogram", "count", "p50", "p95", "p99"],
                           histogram_rows, title="Histograms"), file=out)
    _finish_telemetry(out, telemetry, telemetry_path)
    return 0


def _cmd_obs(args, out) -> int:
    """Dispatch the ``obs`` analysis group over an artifact directory."""
    from .obs.manifest import read_manifest

    # fail with a clear message before touching any artifact: every obs
    # subcommand reads directories written by --telemetry, and a typo'd
    # or empty path should not surface as a traceback
    directories = [d for d in (getattr(args, "dir", None),
                               getattr(args, "dir_a", None),
                               getattr(args, "dir_b", None)) if d]
    for directory in directories:
        if not os.path.isdir(directory):
            raise SystemExit(
                f"repro obs: {directory!r} is not a directory; expected "
                "an artifact directory written by --telemetry")
        if not os.listdir(directory):
            raise SystemExit(
                f"repro obs: {directory!r} is empty; run a study with "
                "--telemetry to populate it")
    try:
        if args.obs_command == "top":
            print(_stage_table(analysis.load_snapshot(args.dir), args.n,
                               f"Top {args.n} stages"), file=out)
            return 0
        if args.obs_command == "diff":
            lines, breaches = analysis.diff_runs(
                args.dir_a, args.dir_b, threshold=args.threshold,
                min_wall=args.min_wall)
            for line in lines:
                print(line, file=out)
            print(f"# {breaches} breach(es) beyond "
                  f"threshold {args.threshold:g}", file=out)
            return 1 if breaches else 0
        if args.obs_command == "timeline":
            for line in analysis.timeline(analysis.load_trace(args.dir),
                                          width=args.width):
                print(line, file=out)
            return 0
        # manifest
        manifest = read_manifest(args.dir)
        if args.json:
            import json

            print(json.dumps(manifest, indent=2, default=str), file=out)
        else:
            for line in analysis.describe_manifest(manifest):
                print(line, file=out)
        return 0
    except OSError as exc:
        raise SystemExit(f"repro obs: {exc}")
    except (ValueError, KeyError) as exc:
        # truncated JSON, a non-telemetry file, a snapshot missing keys —
        # name the problem instead of dumping a traceback
        raise SystemExit(
            f"repro obs: corrupt or incomplete artifact in "
            f"{' / '.join(directories)}: {exc}")


def _cmd_rules(args, out) -> int:
    telemetry, telemetry_path = _telemetry_for(args)
    _world, _malnet, _campaign, datasets = _run(args, telemetry)
    bundle = compile_rules(datasets)
    technology = None if args.tech == "all" else args.tech
    _emit(out, telemetry, bundle.render(technology), "cli.rules",
          technology=args.tech, rules=len(bundle.rules))
    report = coverage_report(datasets, bundle)
    _emit(out, telemetry,
          f"# c2 coverage: {report['c2_coverage']:.0%}; "
          f"binary coverage: {report['binary_coverage']:.0%}",
          "cli.rule_coverage", **report)
    _finish_telemetry(out, telemetry, telemetry_path)
    return 0


def _cmd_pcap(args, out) -> int:
    import os

    telemetry, telemetry_path = _telemetry_for(args)
    world, malnet, _campaign, datasets = _run(args, telemetry)
    os.makedirs(args.out, exist_ok=True)
    exported = 0
    # re-run the offline analysis for the first N profiled binaries, each
    # on its own stream at its analysis instant, and persist their
    # traffic as pcap files
    by_hash = {s.sample.sha256: s.sample for s in world.truth.all_samples}
    for profile in datasets.profiles:
        if exported >= args.limit:
            break
        sample = by_hash.get(profile.sha256)
        if sample is None or not profile.activated:
            continue
        report = malnet.activate(profile.sha256, sample.data,
                                 malnet.analysis_instant(profile.day),
                                 scan_budget=60)
        path = os.path.join(args.out, f"{profile.sha256[:16]}.pcap")
        report.capture.save(path)
        _emit(out, telemetry,
              f"{path}  ({len(report.capture)} packets, "
              f"family={profile.family_label})",
              "cli.pcap_trace", path=path, packets=len(report.capture),
              family=profile.family_label)
        exported += 1
    _emit(out, telemetry, f"# exported {exported} traces",
          "cli.pcap_done", exported=exported)
    _finish_telemetry(out, telemetry, telemetry_path)
    return 0


def _cmd_serve(args, out) -> int:
    """Run the ingestion daemon until SIGTERM/SIGINT."""
    from .service import StudyService, build_server, serve_forever

    # /metrics should never be empty
    telemetry, telemetry_path = _telemetry_for(args, always=True)
    config = PipelineConfig(
        faults=FAULT_PLANS[args.faults] if args.faults else None,
        study_days=args.study_days)
    service = StudyService(
        seed=args.seed, scale=SCALES[args.scale], config=config,
        telemetry=telemetry,
        checkpoint_dir=args.checkpoint_dir)
    try:
        server = build_server(service, host=args.host, port=args.port)
    except OSError as exc:
        raise SystemExit(f"repro serve: cannot bind "
                         f"{args.host}:{args.port}: {exc}")
    host, port = server.server_address[:2]

    def announce():
        # called once signal handlers are live: a client that reacts to
        # this line can already SIGTERM us safely
        print(f"# serving study (seed={args.seed}, scale={args.scale}, "
              f"day {service.runner.next_day}/{service.runner.total_days}"
              f"{', resumed' if service.resumed else ''}) "
              f"on http://{host}:{port}", file=out, flush=True)

    serve_forever(server, service, auto_ingest=args.auto_ingest,
                  ready=announce)
    print(f"# shutdown at day {service.runner.next_day}"
          f"/{service.runner.total_days}"
          + (", checkpoint flushed" if args.checkpoint_dir else ""),
          file=out)
    _finish_telemetry(out, telemetry, telemetry_path)
    return 0


def _cmd_query(args, out) -> int:
    """One request against a running service; JSON (or rule text) out."""
    import json

    from .service import ServiceError, StudyClient

    try:
        client = StudyClient(args.url, timeout=args.timeout)
    except ValueError as exc:  # not an http:// URL
        raise SystemExit(f"repro query: {exc}")
    with client:
        try:
            if args.what == "rules":
                technology = None if args.tech == "all" else args.tech
                print(client.rules(technology), file=out, end="")
                return 0
            if args.what == "metrics":
                print(client.metrics(), file=out, end="")
                return 0
            if args.what == "profile":
                if not args.sha256:
                    raise SystemExit("repro query: 'profile' needs --sha256")
                document = client.profile(args.sha256)
            elif args.what == "profiles":
                document = client.profiles(day=args.day, limit=args.limit)
            elif args.what == "ingest":
                days = args.days
                if days != "all":
                    try:
                        days = int(days)
                    except ValueError:
                        raise SystemExit(
                            f"repro query: --days must be an integer or "
                            f"'all', got {args.days!r}")
                document = client.ingest(days)
            else:
                document = {
                    "status": client.status,
                    "digest": client.digest,
                    "health": client.healthz,
                    "c2": client.c2s,
                    "lifespans": client.lifespans,
                    "ddos": client.ddos_summary,
                    "exploits": client.exploits_summary,
                    "alerts": client.alerts,
                    "finalize": client.finalize,
                }[args.what]()
            print(json.dumps(document, indent=2), file=out)
            return 0
        except ServiceError as exc:
            raise SystemExit(f"repro query: {exc}")


def _cmd_worker(args, out) -> int:
    """Run a ``repro worker`` daemon until SIGTERM/SIGINT.

    The announce line (``# worker listening on host:port``) is the
    machine-readable contract scripts parse when ``--port 0`` picks an
    ephemeral port.
    """
    import signal

    from .dist.worker import WorkerServer

    server = WorkerServer(host=args.host, port=args.port,
                          world_cache_limit=args.world_cache)

    def _stop(signum, _frame):
        print(f"# worker stopping on {signal.Signals(signum).name}",
              file=out, flush=True)
        server.shutdown()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(f"# worker listening on {server.host}:{server.port} "
          f"(pid {os.getpid()})", file=out, flush=True)
    server.serve_forever()
    print(f"# worker stopped after {server.tasks_run} unit task(s)",
          file=out, flush=True)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    commands = {
        "study": _cmd_study,
        "report": _cmd_report,
        "stats": _cmd_stats,
        "rules": _cmd_rules,
        "pcap": _cmd_pcap,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "worker": _cmd_worker,
    }
    try:
        return commands[args.command](args, out)
    except BrokenPipeError:
        # downstream closed the pipe early (grep -q, head); that is its
        # prerogative, not an error.  Point stdout at /dev/null so the
        # interpreter's exit flush does not raise a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
