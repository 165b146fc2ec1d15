"""The benchmark's three workloads: one unit of work each, and its check.

``batch-full``    the year-long study on the full corpus (1447 samples),
                  serial, one ``DayRunner`` day at a time
``service-xl``    the XL study (723 samples) ingested day by day through
                  the HTTP service, with a seeded closed-loop read mix
``sharded-full``  the full study over two forked workers,
                  ``run_study(world, workers=2)``

A unit generates its inputs from the world seed (and, for the service,
the request-mix seed), times set-up and the study in reference time
(see ``calibration.py``), and hands back the dataset digest and the
exact counts the caller checks.  With a :class:`SpanRecorder` it also
installs the wrappers that supply the per-layer numbers (``layers.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import random
import resource
import shutil
import tempfile
import threading
import time

from calibration import SETUP_WINDOW, WINDOW, Timeline, unpinned
from layers import HANDLE, route_key

import repro.core.study as study_mod
import repro.service.handlers as handlers_mod
import repro.service.server as server_mod
import repro.service.state as state_mod
import repro.world.generator as generator_mod
from repro.core import pipeline as pipeline_mod
from repro.core.cache import dataset_digest
from repro.core.datasets import Datasets
from repro.core.parallel import ShardedStudyRunner
from repro.core.pipeline import MalNet
from repro.feeds.virustotal import DETECTION_THRESHOLD
from repro.netsim.capture import columnar_stats
from repro.service.client import ServiceError, StudyClient
from repro.world.calibration import FULL_SCALE, XL_SCALE

__all__ = ["WORKLOADS", "UnitResult", "Context"]

#: service-xl cold-read mix, by weight.  There are no production logs to
#: replay, so the mix is synthetic: weighted toward the cheap per-sample
#: lookups a dashboard or a SOC script makes, with the heavy roll-ups
#: less often and the full digest rarely.
READ_MIX = (
    ("/profiles/<sha256>", 34),
    ("/profiles?day=", 16),
    ("/status", 14),
    ("/c2", 10),
    ("/summary/exploits", 8),
    ("/rules", 6),
    ("/c2/lifespans", 6),
    ("/summary/ddos", 5),
    ("/digest", 1),
)
#: shard workers take a kernel pass before every TICK_EVERY-th study day
TICK_EVERY = 4
#: cold reads drawn from READ_MIX after each day's ingest; one more cold
#: read plus its If-None-Match revalidation follows (1385 reads a unit)
READS_PER_DAY = 4


@dataclasses.dataclass(frozen=True)
class Context:
    """The inputs of one unit: its world (and request-mix) seed."""

    workload: str
    seed: int
    #: service-xl's request-mix seed; None for the studies
    mix_seed: int | None
    workdir: str
    #: position of the unit in its run; unit 0 also runs the restart check
    index: int = 0


@dataclasses.dataclass
class UnitResult:
    """One unit's timings (``(reference, raw)`` seconds) and outputs."""

    ctx: Context
    setup: tuple[float, float]
    study: tuple[float, float]
    digest: str
    counts: dict
    timeline: Timeline
    #: client latencies in ``(reference, raw)`` ms, by request kind
    latencies: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    #: layer numbers only the unit itself can see (traced units)
    layer: dict = dataclasses.field(default_factory=dict)
    #: service checkpoints left for the restart check, which then
    #: removes them
    checkpoint_dir: str | None = None


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (and of its reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _study_counts(datasets) -> dict:
    profiles = datasets.profiles
    return {
        "samples_profiled": len(profiles),
        "samples_activated": sum(1 for p in profiles if p.activated),
        "samples_quarantined": sum(1 for p in profiles if p.quarantined),
        "c2_records": len(datasets.d_c2s),
        "ddos_records": len(datasets.d_ddos),
        "exploit_records": len(datasets.d_exploits),
        "probe_observations": len(datasets.d_pc2),
        "failed_shards": len(datasets.failed_shards),
    }


def _netsim_rows(before: dict, layer: dict) -> dict:
    """Capture rows recorded since ``before``, an exact count.  The
    packets materialised meanwhile are a cost, not an output: they go to
    ``layer``."""
    after = columnar_stats()
    layer["netsim.packets_built"] = after["built"] - before["built"]
    return {"netsim_rows": after["rows"] - before["rows"]}


# -- per-layer wrappers -------------------------------------------------------


def _wrap_world(recorder) -> None:
    recorder.wrap(generator_mod, "generate_world", "world.generate")
    recorder.wrap(server_mod, "generate_world", "world.generate")


def _wrap_pipeline(recorder, runner, layer: dict) -> None:
    """Wrap the day loop's layers; counts land in ``layer``."""
    world = runner.world
    malnet = runner.front

    def count(key, n=1):
        layer[key] = layer.get(key, 0) + n

    def on_entries(result, args):
        count("feeds.pull_calls")
        count("feeds.entries", len(result))

    def on_scan(report, args):
        count("feeds.scans")
        if report.positives >= DETECTION_THRESHOLD:
            count("feeds.verified")

    def on_offline(report, args):
        count("sandbox.offline_calls")
        count("sandbox.activated", bool(report.activated))

    def on_probe(results, args):
        if recorder.inside("probing.run"):
            return  # the probing campaign's scans, not a liveness check
        count("sandbox.probe_calls")
        count("sandbox.probe_live", bool(results and results[0].engaged))

    def on_observe(report, args):
        count("sandbox.observe_calls")
        count("sandbox.connected", bool(report.connected))

    def on_probing(campaign, args):
        count("probing.observations", len(campaign.observations))

    for feed in (world.vt, world.bazaar):
        recorder.wrap(feed, "feed_between", "feeds.pull", on_entries)
    recorder.wrap(world.vt, "lookup_hash", "feeds.verify")
    recorder.wrap(world.vt, "scan", "feeds.verify", on_scan)
    recorder.wrap(malnet.sandbox, "analyze_offline", "sandbox.offline",
                  on_offline)
    recorder.wrap(malnet.sandbox, "probe_targets", "sandbox.liveness",
                  on_probe)
    recorder.wrap(malnet.sandbox, "observe_live", "sandbox.observe",
                  on_observe)
    for name in ("profile_stream", "rate_bursts", "verify_flooding",
                 "target_in_command_bytes"):
        recorder.wrap(pipeline_mod, name, "analysis.ddos_detect")
    recorder.wrap(malnet, "recheck_threat_intel", "intel.ti_recheck")
    recorder.wrap(runner, "run_next_day", "pipeline.day")
    recorder.wrap(runner, "complete_pipeline", "pipeline.complete")
    recorder.wrap(study_mod, "run_probing", "probing.run", on_probing)


def _wrap_parallel(recorder, layer: dict) -> None:
    def on_join(results, args):
        runner = args[0]
        layer["parallel.units"] = runner.shard_count
        layer["parallel.redispatches"] = runner.redispatches
        layer["parallel.result_bytes"] = sum(
            len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
            for r in results)

    def on_probing(campaign, args):
        layer["probing.observations"] = len(campaign.observations)

    recorder.wrap(ShardedStudyRunner, "start", "parallel.start")
    recorder.wrap(ShardedStudyRunner, "join", "parallel.join_wait", on_join)
    recorder.wrap(study_mod, "run_probing", "probing.run", on_probing)
    recorder.wrap(Datasets, "merge", "datasets.merge")
    recorder.wrap(study_mod, "merge_shard_telemetry", "obs.merge")


def _wrap_service(recorder, service, server, layer: dict) -> None:
    def on_pack(blob, args):
        layer["cache.pack_bytes"] = (layer.get("cache.pack_bytes", 0)
                                     + len(blob))

    def handle_name(args, kwargs):
        headers = args[4] if len(args) > 4 else kwargs.get("headers")
        return HANDLE + route_key(args[1], headers)

    api = server.RequestHandlerClass.api
    recorder.wrap(api, "handle", handle_name)
    recorder.wrap(handlers_mod, "encode", "service.encode")
    recorder.wrap(service.store, "save", "service.checkpoint")
    recorder.wrap(state_mod, "pack_entry", "cache.pack", on_pack)
    recorder.wrap(state_mod, "write_atomic", "cache.write")
    recorder.wrap(server_mod, "dataset_digest", "cache.digest")


# -- batch-full ---------------------------------------------------------------


def batch_full(ctx: Context, recorder=None) -> UnitResult:
    tl = Timeline()
    layer: dict = {}
    if recorder is not None:
        _wrap_world(recorder)
    tl.tick(SETUP_WINDOW)
    with tl.timed("setup", SETUP_WINDOW):
        world = generator_mod.generate_world(seed=ctx.seed, scale=FULL_SCALE)
    tl.tick(SETUP_WINDOW)
    runner = study_mod.DayRunner(world=world)
    if recorder is not None:
        _wrap_pipeline(recorder, runner, layer)
    rows = columnar_stats()
    while not runner.pipeline_done:
        tl.tick()
        if recorder is not None:
            recorder.rid = runner.next_day
        with tl.timed("study"):
            runner.run_next_day()
    tl.tick()
    with tl.timed("study"):
        runner.complete_pipeline()
        runner.run_probing_phase()
    tl.tick(2)
    datasets = runner.datasets
    counts = {**_study_counts(datasets), **_netsim_rows(rows, layer)}
    return UnitResult(
        ctx=ctx, setup=tl.total("setup"), study=tl.total("study"),
        digest=dataset_digest(datasets), counts=counts, timeline=tl,
        attempted=counts["samples_profiled"],
        failed=counts["samples_quarantined"], layer=layer)


# -- sharded-full -------------------------------------------------------------


class _ShardClock:
    """Reference time inside the forked shard workers.

    The work of ``run_study(world, workers=2)`` runs in two forked
    processes, one per vCPU, and the vCPUs drift independently; no
    kernel pass in the parent can describe them.  So the clock is
    installed on ``MalNet`` before the fork and the workers inherit it:
    each worker times its study days and its closing TI re-query on a
    :class:`Timeline` of its own, with a kernel pass before every
    ``TICK_EVERY``-th day, and writes the totals to a file of its own
    when it is done.  The parent reads the files back after the join.
    """

    def __init__(self, workdir: str):
        self.dir = tempfile.mkdtemp(prefix="shards-", dir=workdir)
        self._parent = os.getpid()
        self._tl = self._start = None
        self._originals = (MalNet.run_day, MalNet.complete)

    def _timeline(self) -> Timeline:
        if self._tl is None:
            if os.getpid() == self._parent:
                raise RuntimeError("shard clock used outside a worker")
            self._start = time.perf_counter()
            self._tl = Timeline()
        return self._tl

    def __enter__(self) -> "_ShardClock":
        clock = self
        run_day, complete = self._originals

        def timed_day(malnet, day):
            tl = clock._timeline()
            if day % TICK_EVERY == 0:
                tl.tick()
            with tl.timed("work"):
                return run_day(malnet, day)

        def timed_complete(malnet):
            tl = clock._timeline()
            tl.tick()
            with tl.timed("work"):
                result = complete(malnet)
            tl.tick(WINDOW)
            ref, raw = tl.total("work")
            path = os.path.join(clock.dir, f"{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump({"start": clock._start, "end": time.perf_counter(),
                           "ref": ref, "raw": raw,
                           "kernel_ms": tl.kernel_ms}, fh)
            return result

        MalNet.run_day, MalNet.complete = timed_day, timed_complete
        return self

    def __exit__(self, *exc) -> None:
        MalNet.run_day, MalNet.complete = self._originals

    def shards(self) -> list[dict]:
        """Each worker's totals; removes the files."""
        found = []
        for name in sorted(os.listdir(self.dir)):
            with open(os.path.join(self.dir, name)) as fh:
                found.append(json.load(fh))
        shutil.rmtree(self.dir, ignore_errors=True)
        return found


def sharded_full(ctx: Context, recorder=None) -> UnitResult:
    tl = Timeline()
    layer: dict = {}
    if recorder is not None:
        _wrap_world(recorder)
        _wrap_parallel(recorder, layer)
    tl.tick(SETUP_WINDOW)
    with tl.timed("setup", SETUP_WINDOW):
        world = generator_mod.generate_world(seed=ctx.seed, scale=FULL_SCALE)
    tl.tick(SETUP_WINDOW)
    rows = columnar_stats()
    with _ShardClock(ctx.workdir) as clock:
        with tl.timed("parent"), unpinned():
            _, _, datasets = study_mod.run_study(world, workers=2)
        tl.tick(WINDOW)
    (parent_ref, raw), = tl.reference("parent")
    shards = clock.shards()
    # the study ends when its last worker has handed in: its span is
    # worker time, the rest of the run (fork, result transfer, merge)
    # is the parent's, at the parent's factor
    last = max(shards, key=lambda s: s["end"], default=None)
    outside = raw - (last["end"] - last["start"] if last else 0.0)
    study = (outside * parent_ref / raw
             + max((s["ref"] for s in shards), default=0.0), raw)
    tl.kernel_ms.extend(k for s in shards for k in s["kernel_ms"])
    counts = {**_study_counts(datasets), **_netsim_rows(rows, layer)}
    failed = counts["samples_quarantined"] + counts["failed_shards"]
    return UnitResult(
        ctx=ctx, setup=tl.total("setup"), study=study,
        digest=dataset_digest(datasets), counts=counts, timeline=tl,
        attempted=counts["samples_profiled"], failed=failed, layer=layer)


# -- service-xl ---------------------------------------------------------------


class _Session:
    """One closed-loop client: one request in flight, one connection each."""

    def __init__(self, client, tl, rng, recorder):
        self.client = client
        self.tl = tl
        self.rng = rng
        self.recorder = recorder
        self.status: dict[str, int] = {}
        self.cacheable_reads = 0
        self.problems: list[str] = []
        self.requests = 0
        self.listed: list[str] = []
        self.days = 0

    def _count(self, status) -> None:
        key = f"status_{status}"
        self.status[key] = self.status.get(key, 0) + 1

    def send(self, kind: str, call):
        """Time one request; failures are counted, never raised."""
        self.requests += 1
        span = None
        if self.recorder is not None:
            self.recorder.rid = self.requests
            span = self.recorder.open("client.request")
            self.recorder.ambient = span
        try:
            with self.tl.timed(kind):
                result = call()
        except ServiceError as exc:
            self._count(exc.status or "error")
            self.problems.append(f"{kind}: {exc}")
            return None
        finally:
            if span is not None:
                self.recorder.ambient = None
                self.recorder.close(span)
        self._count(result[0] if isinstance(result, tuple) else 200)
        return result

    def cold_read(self, route: str) -> None:
        client = self.client
        if route != "/status":
            self.cacheable_reads += 1
        if route == "/profiles/<sha256>" and self.listed:
            sha = self.rng.choice(self.listed)
            self.send("query", lambda: client.profile(sha))
            return
        if route in ("/profiles/<sha256>", "/profiles?day="):
            day = self.rng.randrange(self.days)
            doc = self.send("query", lambda: client.profiles(day=day))
            if doc is not None:
                self.listed.extend(p["sha256"] for p in doc["profiles"])
            return
        call = {
            "/status": client.status,
            "/c2": client.c2s,
            "/summary/exploits": client.exploits_summary,
            "/rules": client.rules,
            "/c2/lifespans": client.lifespans,
            "/summary/ddos": client.ddos_summary,
            "/digest": client.digest,
        }[route]
        self.send("query", call)

    def revalidate(self, route: str) -> None:
        client = self.client
        self.cacheable_reads += 1
        fresh = self.send("query", lambda: client.conditional_get(route))
        if fresh is None:
            return
        answer = self.send("revalidate",
                           lambda: client.conditional_get(route, fresh[1]))
        if answer is not None and answer[0] != 304:
            self.problems.append(f"revalidate {route}: got {answer[0]}")

    def run_day(self) -> None:
        routes = [r for r, _ in READ_MIX]
        weights = [w for _, w in READ_MIX]
        self.send("ingest", lambda: self.client.ingest(1))
        self.days += 1
        for route in self.rng.choices(routes, weights, k=READS_PER_DAY):
            self.cold_read(route)
        self.revalidate(self.rng.choice(("/rules", "/c2")))


def service_xl(ctx: Context, recorder=None) -> UnitResult:
    tl = Timeline()
    layer: dict = {}
    # unit 0 leaves its checkpoints for the restart check, which runs
    # after the run's peak RSS is read (checks.check_resume)
    keep = recorder is None and ctx.index == 0
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=ctx.workdir)
    try:
        if recorder is not None:
            _wrap_world(recorder)
        tl.tick(SETUP_WINDOW)
        with tl.timed("setup", SETUP_WINDOW):
            service = server_mod.StudyService(
                ctx.seed, XL_SCALE, checkpoint_dir=ckpt_dir)
            server = server_mod.build_server(service, host="127.0.0.1",
                                             port=0)
        tl.tick(SETUP_WINDOW)
        if recorder is not None:
            _wrap_service(recorder, service, server, layer)
            _wrap_pipeline(recorder, service.runner, layer)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  name="perfbench-server")
        thread.start()
        rows = columnar_stats()
        try:
            client = StudyClient(
                f"http://127.0.0.1:{server.server_address[1]}")
            session = _Session(client, tl, random.Random(ctx.mix_seed),
                               recorder)
            total_days = service.runner.total_days
            for _ in range(total_days):
                tl.tick()
                session.run_day()
            tl.tick(2)
            final = session.send("check", client.digest) or {}
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30.0)
        problems = list(session.problems)
        if thread.is_alive():
            problems.append("server thread did not stop")
        if not final.get("finalized"):
            problems.append("study not finalized after the last ingest")
        datasets = service.runner.datasets
        counts = {**_study_counts(datasets), **_netsim_rows(rows, layer),
                  **session.status,
                  "requests": session.requests,
                  "etag_hits": session.status.get("status_304", 0),
                  "cacheable_reads": session.cacheable_reads,
                  "checkpoint_bytes": os.path.getsize(
                      service.store.path_for(service.fingerprint))}
    except BaseException:
        keep = False
        raise
    finally:
        if not keep:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    study = tuple(map(sum, zip(*(tl.total(kind) for kind in
                                 ("ingest", "query", "revalidate")))))
    latencies = {kind: [(ref * 1e3, raw * 1e3)
                        for ref, raw in tl.reference(kind)]
                 for kind in ("ingest", "query", "revalidate")}
    bad = sum(n for key, n in session.status.items()
              if key not in ("status_200", "status_304"))
    return UnitResult(
        ctx=ctx, setup=tl.total("setup"), study=study,
        digest=final.get("dataset_digest", ""), counts=counts, timeline=tl,
        latencies=latencies, attempted=session.requests,
        failed=bad + len(problems), problems=problems, layer=layer,
        checkpoint_dir=ckpt_dir if keep else None)


#: name -> (unit function, scale key of its serial reference digest)
WORKLOADS = {
    "batch-full": (batch_full, "full"),
    "service-xl": (service_xl, "xl"),
    "sharded-full": (sharded_full, "full"),
}
