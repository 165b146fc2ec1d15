"""The MalNet pipeline: daily collection → dynamic analysis → profiling.

This is the paper's methodology (section 2) end to end:

1. every day, pull the new binaries from VirusTotal and MalwareBazaar;
2. keep MIPS 32B ELF files corroborated by >= 5 AV engines;
3. label the family with crowd YARA rules, falling back to AVClass2;
4. activate each binary in the CnCHunter sandbox (closed world), detect
   the referred C2 endpoint, and extract exploits with the handshaker;
5. check whether the C2 is live *today* by weaponizing the binary against
   its own C2, and query the VT threat-intel feeds;
6. for live C2s of the attack families, listen in restricted mode for two
   hours and record DDoS commands plus the generated attack traffic;
7. re-query threat intel months later (May 7, 2022) for Table 3.

The output is :class:`~repro.core.datasets.Datasets`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis.ddos_detect import (
    profile_stream,
    rate_bursts,
    target_in_command_bytes,
    verify_flooding,
)
from ..binary.elf import ARCH_MACHINES, is_supported_elf
from ..botnet.exploits import classify_exploit, extract_downloader, extract_loader
from ..botnet.families import ATTACK_FAMILIES, dga_domains
from ..determinism import shard_of, stable_seed
from ..feeds.avclass import label_sample
from ..feeds.virustotal import DETECTION_THRESHOLD
from ..netsim.addresses import ip_to_int, is_ip_literal
from ..netsim.capture import columnar_stats
from ..netsim.faults import FaultInjector, FaultPlan, FeedUnavailable, \
    SandboxCrash
from ..obs import LATENCY_BUCKETS, NULL_TELEMETRY, Telemetry
from ..netsim.internet import SECONDS_PER_DAY, STUDY_EPOCH, VirtualInternet
from ..sandbox.qemu import EmulationError, MipsEmulator
from ..sandbox.sandbox import CncHunterSandbox, SANDBOX_IP
from ..world.calibration import ACTIVE_WEEKS, MAY_7_2022
from ..world.generator import ANALYSIS_HOUR_OFFSET, World
from .datasets import Datasets, ExploitRecord
from .journal import StudyState
from .profiles import AttackObservation, BinaryNetworkProfile, ExploitObservation

#: attempts at a feed pull that hits an outage window before the day is
#: left to backfill (control-plane retries: the simulation clock stays)
FEED_ATTEMPTS = 3
#: attempts at a sandbox activation that crashes before quarantine
ACTIVATION_ATTEMPTS = 3
#: weaponized liveness probes of a C2 before it counts as dead
LIVENESS_ATTEMPTS = 2
#: simulation seconds between two weaponized liveness probes of a C2
LIVENESS_SPACING = 4 * 3600.0


@dataclass
class PipelineConfig:
    """Operational knobs of the daily loop."""

    study_days: int | None = None      # default: the full active window
    #: CPU architectures the sandbox supports (§6d extension); the paper's
    #: study is MIPS-only
    architectures: tuple[str, ...] = ("mips",)
    #: sandbox activation rate (§6f: the paper measures ~0.90); ablation
    #: knob for the "execution infrastructure" argument of §3.3
    activation_rate: float = 0.90
    #: sharded execution (repro.core.parallel): this pipeline only analyzes
    #: samples whose sha256 maps to ``shard_index`` of ``shard_count``
    shard_index: int = 0
    shard_count: int = 1
    #: deterministic fault plan (repro.netsim.faults); None = reliable world
    faults: FaultPlan | None = None


def total_study_days(config: PipelineConfig | None = None) -> int:
    """Number of daily iterations a study runs for this config.

    The default covers the active weeks plus the reporting tail:
    campaign samples keep surfacing for a few weeks after their C2's
    week, and feeds add up to a day of latency.
    """
    config = config or PipelineConfig()
    if config.study_days is not None:
        return config.study_days
    return ACTIVE_WEEKS * 7 + 60


class MalNet:
    """Orchestrates the daily measurement over a generated world.

    The world is read-only here.  Everything the run writes is its own:
    the traffic engines (:meth:`engine`: one per unit of work, each with
    its clock, stream, fault and metrics bindings over the world's
    network), the sandbox, the fault injector and the datasets.  So any
    number of ``MalNet`` runs can share one world, sequentially or at
    once.
    """

    def __init__(self, world: World, config: PipelineConfig | None = None,
                 telemetry: Telemetry | None = None):
        self.world = world
        self.config = config or PipelineConfig()
        self.datasets = Datasets()
        self.telemetry = telemetry or NULL_TELEMETRY
        metrics = self.telemetry.metrics
        # fault layer: bind one injector to every hook point.  All of its
        # decisions derive from (world seed, entity, time slot), so shard
        # workers and the serial loop agree on every injected failure.
        self.faults: FaultInjector | None = None
        if self.config.faults is not None and self.config.faults.enabled:
            self.faults = FaultInjector(
                self.config.faults, world.seed,
                counter=metrics.counter(
                    "fault_injections", "injected fault decisions that fired",
                    labelnames=("kind",)),
            )
        self._machines = frozenset(
            ARCH_MACHINES[arch] for arch in self.config.architectures
        )
        self.sandbox = CncHunterSandbox(
            emulator=MipsEmulator(
                activation_rate=self.config.activation_rate,
                machines=self._machines,
            ),
            telemetry=self.telemetry,
        )
        self.sandbox.faults = self.faults
        self._seen_hashes: set[str] = set()
        #: per-feed backfill cursor: start of the earliest window whose
        #: pull has not succeeded yet (outage days are re-covered by the
        #: next successful pull instead of being silently lost)
        self._feed_cursor: dict[str, float] = {}
        self._m_collected = metrics.counter(
            "samples_collected", "samples surviving the daily dedup/ELF filter")
        self._m_verified = metrics.counter(
            "samples_verified", "samples corroborated by >= 5 AV engines")
        self._m_activated = metrics.counter(
            "samples_activated", "samples exhibiting behavior in the sandbox")
        self._m_skipped = metrics.counter(
            "samples_skipped", "samples dropped before profiling",
            labelnames=("reason",))
        self._m_emulation_errors = metrics.counter(
            "emulation_errors", "binaries QEMU could not load at all")
        self._m_liveness = metrics.counter(
            "c2_liveness_probes", "day-0 weaponized C2 liveness checks",
            labelnames=("outcome",))
        self._m_c2_records = metrics.counter(
            "c2_records", "C2 endpoint records added to D-C2s")
        self._m_exploit_records = metrics.counter(
            "exploit_records", "exploit observations added to D-Exploits")
        self._m_ddos_records = metrics.counter(
            "ddos_records", "DDoS command observations added to D-DDOS")
        self._m_quarantined = metrics.counter(
            "samples_quarantined",
            "samples whose analysis raised and was contained",
            labelnames=("error",))
        self._m_retries = metrics.counter(
            "pipeline_retries", "retries of fallible pipeline operations",
            labelnames=("stage",))
        # allocation-path telemetry for the columnar packet core.  The
        # underlying tallies live in a module-level dict (the hot loops
        # can't afford a labelled-counter call per packet), so the
        # pipeline snapshots it at construction and publishes deltas —
        # a worker process therefore reports only its own shard's work.
        self._m_columnar = metrics.counter(
            "capture_columnar_total",
            "columnar capture rows appended / packets materialized",
            labelnames=("event",))
        self._columnar_base = columnar_stats()
        # pre-seed every known label so zero-valued series still show up
        # in ``repro stats`` / ``obs diff`` output
        for event in self._columnar_base:
            self._m_columnar.labels(event=event)

    def engine(self, when: float, label: str, *parts) -> VirtualInternet:
        """A traffic engine of its own for one unit of work at ``when``,
        its stream derived from ``(label, world seed, *parts)`` only: a
        sample's live analysis is ``("internet", sha256)``, a probe slot
        ``("probe-slot", slot)``."""
        return VirtualInternet(
            self.world.network,
            random.Random(stable_seed(label, self.world.seed, *parts)),
            faults=self.faults, metrics=self.telemetry.metrics, start=when)

    def analysis_instant(self, day: int) -> float:
        """When the sandboxes analyze the samples collected on ``day``."""
        return self.world.epoch + day * SECONDS_PER_DAY + ANALYSIS_HOUR_OFFSET

    @property
    def window(self) -> tuple[float, float]:
        """The simulated interval of the study's feed days."""
        return (self.world.epoch, self.world.epoch
                + total_study_days(self.config) * SECONDS_PER_DAY)

    def activate(self, sha256: str, data: bytes, when: float,
                 scan_budget: int, attempt: int = 0):
        """One offline activation of a sample at ``when``.

        MalNet ran four sandboxes in parallel (§2.2), so no binary's
        analysis may depend on what ran before it: each call draws from
        a fresh stream derived from ``(world seed, sha256)``, the same in
        any shard, on a retried attempt and in an exported trace.
        """
        return self.sandbox.analyze_offline(
            data, random.Random(stable_seed("sandbox", self.world.seed,
                                            sha256)),
            when, scan_budget=scan_budget, sha256=sha256, attempt=attempt)

    def _drain_alloc_stats(self) -> None:
        """Publish columnar capture deltas since the last drain."""
        columnar = columnar_stats()
        for event, total in columnar.items():
            delta = total - self._columnar_base[event]
            if delta:
                self._m_columnar.labels(event=event).inc(delta)
        self._columnar_base = columnar

    # -- public API --------------------------------------------------------------

    def run(self) -> Datasets:
        """Run the full daily study and the final TI re-query."""
        for day in range(total_study_days(self.config)):
            self.run_day(day)
        return self.complete()

    def complete(self) -> Datasets:
        """Finish a day-by-day run: the TI re-query plus telemetry drain.

        Separated from :meth:`run` so day-granular execution (see
        :class:`~repro.core.study.DayRunner`) performs the exact same
        closing steps the monolithic loop does.
        """
        self.recheck_threat_intel()
        self._drain_alloc_stats()
        return self.datasets

    def state(self) -> StudyState:
        """The cross-day pipeline state, by reference (not a copy).

        These three items are the *only* state a study day leaves behind
        that later days read: the dedup set, the per-feed backfill
        cursors, and the accumulated datasets.  Everything else consumed
        by a sample's analysis is built from ``(world seed, sha256)`` on
        the spot (:meth:`activate`, :meth:`engine`), which is the same
        property the sharded runner relies on — so a fresh ``MalNet``
        on the same (or a regenerated) world plus this state continues a
        study byte-identically.
        """
        return StudyState(total_days=total_study_days(self.config),
                          datasets=self.datasets,
                          seen_hashes=self._seen_hashes,
                          feed_cursor=self._feed_cursor)

    def restore_state(self, state: StudyState) -> None:
        """Adopt the cross-day state of an earlier (partial) run."""
        self._seen_hashes = state.seen_hashes
        self._feed_cursor = state.feed_cursor
        self.datasets = state.datasets

    def run_day(self, day: int) -> list[BinaryNetworkProfile]:
        """Collect and analyze everything published on one study day."""
        with self.telemetry.tracer.span("pipeline.run_day", day=day) as span:
            day_start = self.world.epoch + day * SECONDS_PER_DAY
            day_end = day_start + SECONDS_PER_DAY
            span.set_sim(day_start, day_end)
            entries = self._collect(day_start, day_end)
            profiles: list[BinaryNetworkProfile] = []
            for sha256, data, published, source in entries:
                profile = self._analyze_binary(sha256, data, published, day,
                                               source)
                if profile is not None:
                    profiles.append(profile)
                    self.datasets.profiles.append(profile)
            span.set_attribute("collected", len(entries))
            span.set_attribute("profiled", len(profiles))
            if entries:
                self.telemetry.events.emit(
                    "pipeline.day", day=day,
                    collected=len(entries), profiled=len(profiles),
                )
            self._drain_alloc_stats()
        return profiles

    def recheck_threat_intel(self, when: float = MAY_7_2022) -> None:
        """The second VT query of section 2.3 (May 7th, 2022)."""
        with self.telemetry.tracer.span("pipeline.recheck_ti") as span:
            span.set_sim(when, when)  # one query at one instant
            for record in self.datasets.d_c2s.values():
                record.vt_malicious_recheck = self.world.vt.is_malicious(
                    record.endpoint, when
                )

    # -- collection ------------------------------------------------------------------

    def _collect(
        self, start: float, end: float
    ) -> list[tuple[str, bytes, float, str]]:
        """Daily pull from both feeds: shard filter, dedup, MIPS filter.

        The feeds index entries by sha256, so the digest rides along from
        here instead of being recomputed downstream (``_verify_and_label``
        and the sandbox used to re-hash every binary up to three times).
        """
        candidates: dict[str, tuple[bytes, float, set[str]]] = {}
        for entry in self._pull_feed(self.world.vt, start, end):
            candidates[entry.sample.sha256] = (
                entry.sample.data, entry.published, {"virustotal"}
            )
        for entry in self._pull_feed(self.world.bazaar, start, end):
            existing = candidates.get(entry.sample.sha256)
            if existing is None:
                candidates[entry.sample.sha256] = (
                    entry.sample.data, entry.published, {"malwarebazaar"}
                )
            else:
                existing[2].add("malwarebazaar")
        shard_count = self.config.shard_count
        collected: list[tuple[str, bytes, float, str]] = []
        for sha256, (data, published, sources) in sorted(candidates.items()):
            if (shard_count > 1
                    and shard_of(sha256, shard_count) != self.config.shard_index):
                continue  # another sandbox's sample (parallel-shard model)
            if sha256 in self._seen_hashes:
                self._m_skipped.labels(reason="duplicate").inc()
                continue
            if not is_supported_elf(data, self._machines):
                self._m_skipped.labels(reason="unsupported-elf").inc()
                continue
            self._seen_hashes.add(sha256)
            source = "both" if len(sources) == 2 else sources.pop()
            collected.append((sha256, data, published, source))
        self._m_collected.inc(len(collected))
        return collected

    def _pull_feed(self, service, start: float, end: float) -> list:
        """One feed's daily pull, with retries and outage backfill.

        A pull that hits an outage window is retried a few times
        (control-plane retries: the simulation clock does not move); if
        every attempt fails the window is left uncovered and the next
        successful pull widens its window back to the cursor, so entries
        published during an outage surface late instead of never.
        """
        name = service.feed_name
        # setdefault, not get: if the very first pull fails, the cursor
        # must already mark its window as uncovered or day 0 is lost
        window_start = self._feed_cursor.setdefault(name, start)
        for attempt in range(FEED_ATTEMPTS):
            try:
                entries = service.feed_between(window_start, end,
                                               attempt=attempt,
                                               faults=self.faults)
            except FeedUnavailable:
                if attempt + 1 < FEED_ATTEMPTS:
                    self._m_retries.labels(stage="feed").inc()
                continue
            if entries:
                latency = self.telemetry.metrics.histogram(
                    "feed_latency_seconds",
                    "submission-to-publication latency seen by the daily "
                    "pull", labelnames=("feed",), buckets=LATENCY_BUCKETS,
                ).labels(feed=name)
                for entry in entries:
                    latency.observe(entry.published - entry.submitted)
            if window_start < start:
                self.telemetry.events.emit(
                    "pipeline.feed_backfill", feed=name,
                    recovered=len(entries),
                    window_days=(end - window_start) / SECONDS_PER_DAY,
                )
            self._feed_cursor[name] = end
            return entries
        self.telemetry.events.warning(
            "pipeline.feed_outage", feed=name,
            day=int((start - self.world.epoch) // SECONDS_PER_DAY),
        )
        return []

    def _verify_and_label(self, sha256: str, now: float) -> tuple[bool, str | None, str]:
        """>=5-engine corroboration plus YARA/AVClass2 family labeling."""
        entry = self.world.vt.lookup_hash(sha256)
        if entry is None:
            return False, None, ""
        report = self.world.vt.scan(entry.sample, now)
        if report.positives < DETECTION_THRESHOLD:
            return False, None, ""
        if report.yara_families:
            return True, report.yara_families[0], "yara"
        family = label_sample(report.engine_labels)
        return True, family, "avclass" if family else ""

    # -- per-binary analysis -------------------------------------------------------------

    def _analyze_binary(
        self, sha256: str, data: bytes, published: float, day: int, source: str
    ) -> BinaryNetworkProfile | None:
        """Analyze one sample, containing any per-sample failure.

        The paper's fleet lost individual sandbox runs routinely; one
        malformed IoC string or crashed activation must cost one sample,
        not the study day.  Any exception escaping the analysis quarantines
        the sample: a stub profile records the failure, telemetry counts
        it, and the day's remaining samples proceed.
        """
        try:
            return self._analyze_binary_inner(sha256, data, published, day,
                                              source)
        except EmulationError:
            # passed the cheap header filter but is not actually loadable
            # (corrupt sections, stripped behavior); skipped, like any
            # sample QEMU cannot boot
            self._m_emulation_errors.inc()
            self.telemetry.events.warning(
                "pipeline.emulation_error", day=day, sha256=sha256,
            )
            return None
        except Exception as exc:
            error = type(exc).__name__
            self._m_quarantined.labels(error=error).inc()
            self.telemetry.events.warning(
                "pipeline.sample_quarantined", day=day, sha256=sha256,
                error=error, detail=str(exc),
            )
            return BinaryNetworkProfile(
                sha256=sha256, published=published, day=day, source=source,
                quarantined=True, quarantine_reason=f"{error}: {exc}",
            )

    def _activate_with_retries(self, sha256: str, data: bytes, when: float):
        """Sandbox activation with bounded retries on transient crashes.

        Every attempt draws a fresh copy of the sample's stream, so a
        recovered transient crash leaves no trace in the datasets — the
        property the fault-determinism tests pin down.
        """
        for attempt in range(ACTIVATION_ATTEMPTS):
            try:
                return self.activate(sha256, data, when,
                                     self.world.scale.scan_budget, attempt)
            except SandboxCrash:
                if attempt + 1 >= ACTIVATION_ATTEMPTS:
                    raise
                self._m_retries.labels(stage="sandbox").inc()

    def _analyze_binary_inner(
        self, sha256: str, data: bytes, published: float, day: int, source: str
    ) -> BinaryNetworkProfile | None:
        when = self.analysis_instant(day)
        is_malware, family_label, label_source = self._verify_and_label(
            sha256, when)
        if not is_malware:
            self._m_skipped.labels(reason="unverified").inc()
            return None
        self._m_verified.inc()
        report = self._activate_with_retries(sha256, data, when)
        if report.activated:
            self._m_activated.inc()
        profile = BinaryNetworkProfile(
            sha256=report.sha256, published=published, day=day, source=source,
            family_label=family_label, label_source=label_source,
            activated=report.activated, is_p2p=report.is_p2p,
        )
        if not report.activated:
            return profile
        self._record_exploits(profile, report, day)
        if report.is_p2p or not report.has_c2:
            return profile
        self._record_c2(profile, report, data, day, when)
        return profile

    def _record_exploits(self, profile, report, day: int) -> None:
        profile.scan_ports = report.scan_ports
        # a bot sends a handful of distinct payloads to hundreds of
        # victims: classify each distinct payload once, at its first
        # victim, which is also where its vulnerability is first seen
        first: dict[bytes, int] = {}        # payload -> its first port
        for (_target, port), payload in report.exploits.items():
            first.setdefault(payload, port)
        seen: set[str] = set()
        for payload, port in first.items():
            vuln = classify_exploit(payload)
            if vuln is None or vuln.key in seen:
                continue
            seen.add(vuln.key)
            observation = ExploitObservation(
                vuln_key=vuln.key,
                loader=extract_loader(payload),
                downloader=extract_downloader(payload),
                port=port,
                payload=payload,
            )
            profile.exploits.append(observation)
            self._m_exploit_records.inc()
            self.datasets.d_exploits.append(ExploitRecord(
                sha256=profile.sha256, vuln_key=vuln.key,
                loader=observation.loader, downloader=observation.downloader,
                day=day,
            ))

    @staticmethod
    def _resolve_endpoint(internet: VirtualInternet, endpoint: str,
                          dga_seed: int = 0,
                          dga_family: str = "") -> int | None:
        """Resolve an IoC string to a routable address, via live DNS."""
        now = internet.clock.now
        if dga_seed:
            # a DGA binary walks today's candidate list, so probing its C2
            # must too: a blocked or registrar-lost name is evaded, not
            # fatal, as long as any candidate still resolves
            day = int((now - STUDY_EPOCH) // SECONDS_PER_DAY)
            for domain in dga_domains(dga_seed, dga_family, day):
                address = internet.resolver.resolve(domain, now=now)
                if address is not None:
                    return address
            return None
        if is_ip_literal(endpoint):
            return ip_to_int(endpoint)
        return internet.resolver.resolve(endpoint, now=now)

    def _record_c2(self, profile, report, data: bytes, day: int,
                   when: float) -> None:
        endpoint = report.c2_endpoint
        is_dns = not is_ip_literal(endpoint)
        profile.c2_endpoint = endpoint
        profile.c2_port = report.c2_port
        profile.c2_is_dns = is_dns
        profile.vt_flagged_day0 = self.world.vt.is_malicious(endpoint, when)

        if endpoint not in self.datasets.d_c2s:
            self._m_c2_records.inc()
            self.telemetry.events.emit(
                "pipeline.new_c2", day=day, endpoint=endpoint,
                port=report.c2_port, family=profile.family_label,
            )
        record = self.datasets.c2_record(endpoint, report.c2_port, is_dns,
                                         origin=(day, profile.sha256))
        if report.dga_seed:
            # every binary of a rotating-domain campaign recovers the same
            # schedule seed, which links its daily endpoints together
            profile.dga_seed = report.dga_seed
            if not record.churn_key:
                record.churn_key = str(report.dga_seed)
        record.sample_hashes.add(profile.sha256)
        if profile.family_label:
            record.family_labels.add(profile.family_label)
        record.first_day = min(record.first_day, day)
        record.last_day = max(record.last_day, day)
        record.first_seen = min(record.first_seen, profile.published)
        record.last_seen = max(record.last_seen, profile.published)
        if record.vt_malicious_day0 is False and profile.vt_flagged_day0:
            record.vt_malicious_day0 = True
        if report.c2_candidates and report.c2_candidates[0].confidence >= 1.0:
            record.protocol_verified = True

        # the live half of the analysis runs on the sample's own engine
        internet = self.engine(when, "internet", profile.sha256)
        live = self._check_liveness(internet, data, endpoint, report.c2_port,
                                    sha256=profile.sha256,
                                    dga_seed=report.dga_seed,
                                    dga_family=report.dga_family)
        self._m_liveness.labels(outcome="live" if live else "dead").inc()
        profile.c2_live_on_day0 = live
        if live:
            record.live_observations += 1
            if profile.family_label in ATTACK_FAMILIES:
                self._observe_attacks(internet, profile, record, data)

    def _check_liveness(self, internet: VirtualInternet, data: bytes,
                        endpoint: str, port: int, sha256: str | None = None,
                        dga_seed: int = 0, dga_family: str = "") -> bool:
        """Weaponized probe of the binary's own C2 (with 4h retries)."""
        for attempt in range(LIVENESS_ATTEMPTS):
            address = self._resolve_endpoint(internet, endpoint, dga_seed,
                                             dga_family)
            if address is not None:
                results = self.sandbox.probe_targets(
                    data, [(address, port)], internet, sha256=sha256)
                if results and results[0].engaged:
                    return True
            if attempt + 1 < LIVENESS_ATTEMPTS:
                self._m_retries.labels(stage="liveness").inc()
                internet.clock.advance(LIVENESS_SPACING)
        return False

    def _observe_attacks(self, internet: VirtualInternet, profile, record,
                         data: bytes) -> None:
        """Two-hour restricted-mode session on a live C2 (section 2.5)."""
        records_before = len(self.datasets.d_ddos)
        live_report = self.sandbox.observe_live(
            data, internet,
            duration=self.world.scale.observe_duration,
            poll_interval=self.world.scale.observe_poll_interval,
            sha256=profile.sha256,
        )
        if not live_report.connected:
            return
        # origin sequence: fixes the creation order of this session's new
        # records inside the global (day, sha256) order for the shard merge
        seq = 0
        profiled = profile_stream(live_report.server_stream)
        bursts = rate_bursts(
            live_report.contained, SANDBOX_IP,
            c2_hosts={live_report.c2_host},
        )
        burst_targets = {burst.target for burst in bursts}
        for item in profiled:
            # manual verification (a): the bot flooded the commanded target
            verified = verify_flooding(
                item.command, live_report.contained, SANDBOX_IP
            )
            ddos = self.datasets.ddos_record(
                record.endpoint, item.family_profile, item.command,
                when=live_report.capture.packets[-1].timestamp
                if len(live_report.capture) else 0.0,
                origin=(profile.day, profile.sha256, seq),
            )
            seq += 1
            ddos.sample_hashes.add(profile.sha256)
            ddos.verified = ddos.verified or verified
            record.issued_attack = True
            profile.attacks.append(AttackObservation(
                command=item.command, family_profile=item.family_profile,
                when=ddos.when, verified=verified,
            ))
        # behavioral heuristic (b): bursts not explained by a profile
        profiled_targets = {item.command.target_ip for item in profiled}
        for burst in bursts:
            if burst.target in profiled_targets:
                continue
            if not target_in_command_bytes(burst.target,
                                           live_report.server_stream):
                continue  # cannot attribute to a C2 command: discard
            # heuristic detection with unknown verb: record as generic UDP
            from ..botnet.protocols.base import AttackCommand

            command = AttackCommand("udp", burst.target, 0, 60)
            ddos = self.datasets.ddos_record(
                record.endpoint, "heuristic", command, when=burst.start,
                origin=(profile.day, profile.sha256, seq),
            )
            seq += 1
            ddos.sample_hashes.add(profile.sha256)
            ddos.via_heuristic = True
            record.issued_attack = True
            profile.attacks.append(AttackObservation(
                command=command, family_profile="heuristic",
                when=burst.start, verified=True, via_heuristic=True,
            ))
        new_records = len(self.datasets.d_ddos) - records_before
        if new_records:
            self._m_ddos_records.inc(new_records)
            self.telemetry.events.emit(
                "pipeline.ddos_observed", endpoint=record.endpoint,
                commands=new_records,
            )
