"""The CnCHunter-style sandbox: the two execution modes of section 2.1.

Mode 1 (*offline analysis*): activate a binary against a fake Internet,
capture its traffic, detect its referred C2 endpoint, and extract exploit
payloads with the handshaker.

Mode 2 (*weaponized probing*): reuse an activated binary as a scanner —
point its C2 connection at arbitrary ``ip:port`` targets and see which
engage, i.e. answer with application bytes (live C2 discovery).

A third entry point, :meth:`CncHunterSandbox.observe_live`, implements the
DDoS eavesdropping setup of section 2.5: connect the malware to its real
C2, allow *only* C2 traffic out (SNORT containment), and record both the
commands and the attack traffic the bot generates in response.

The sandbox keeps no run state: each call is handed the stream and the
instant (offline) or the traffic engine (live) of the unit of work it
serves, so one sandbox serves a whole run in any order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..analysis.c2_detect import (
    C2Candidate,
    detect_c2_flows,
    detect_p2p,
    resolve_endpoint_name,
)
from ..botnet.protocols.base import AttackCommand
from ..netsim.addresses import ip_to_int
from ..netsim.capture import Capture
from ..netsim.faults import SandboxCrash
from ..netsim.internet import VirtualInternet
from ..obs import NULL_TELEMETRY, Telemetry
from .handshaker import Handshaker
from .inetsim import FakeInternetAdapter
from .qemu import ActivationError, EmulationError, EmulatedProcess, MipsEmulator
from .snort import EgressPolicy, FilteredAdapter, PolicyMode, SnortIds

#: default sandbox host address (the infected "device")
SANDBOX_IP = ip_to_int("100.64.13.37")


class LiveInternetAdapter:
    """Bot-facing adapter over the real (virtual) Internet."""

    def __init__(self, internet: VirtualInternet, bot_ip: int):
        self.internet = internet
        self.bot_ip = bot_ip

    def tcp_connect(self, dst: int, port: int, trace: Capture | None = None):
        return self.internet.tcp_connect(self.bot_ip, dst, port, trace)

    def send_datagram(self, pkt, trace: Capture | None = None) -> None:
        self.internet.send_datagram(pkt, trace)

    def dns_lookup(self, name: str, trace: Capture | None = None) -> int | None:
        response = self.internet.dns_lookup(self.bot_ip, name, trace)
        return response.addresses[0] if response.addresses else None

    def clock_now(self) -> float:
        return self.internet.clock.now


@dataclass
class OfflineReport:
    """Output of the closed-world analysis of one binary."""

    sha256: str
    activated: bool
    capture: Capture = field(default_factory=Capture)
    c2_candidates: list[C2Candidate] = field(default_factory=list)
    c2_endpoint: str | None = None      # IP literal or domain
    c2_port: int | None = None
    is_p2p: bool = False
    #: the handshaker's victims: ``(target, port)`` -> the latest
    #: payload that victim received, in order of first contact
    exploits: dict[tuple[int, int], bytes] = field(default_factory=dict)
    scan_ports: list[int] = field(default_factory=list)
    yara_input: bytes = b""
    #: DGA schedule seed recovered from the binary's config (0 = none);
    #: this is how defenders link a campaign's rotating domains together
    dga_seed: int = 0
    #: config family of a DGA binary (the schedule is per-family)
    dga_family: str = ""

    @property
    def has_c2(self) -> bool:
        return self.c2_endpoint is not None


@dataclass
class ProbeResult:
    """One weaponized probe of an ip:port target."""

    target: int
    port: int
    engaged: bool
    response: bytes = b""


@dataclass
class LiveReport:
    """Output of a restricted-mode live C2 session."""

    sha256: str
    connected: bool
    c2_host: int | None = None
    c2_port: int | None = None
    server_stream: bytes = b""
    commands: list[AttackCommand] = field(default_factory=list)
    capture: Capture = field(default_factory=Capture)
    contained: Capture = field(default_factory=Capture)
    alerts: int = 0


class CncHunterSandbox:
    """Orchestrates emulation, containment and the two execution modes."""

    def __init__(
        self,
        bot_ip: int = SANDBOX_IP,
        emulator: MipsEmulator | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.bot_ip = bot_ip
        self.emulator = emulator or MipsEmulator()
        self.telemetry = telemetry or NULL_TELEMETRY
        #: optional fault injector (repro.netsim.faults): transient
        #: activation crashes, retried by the pipeline
        self.faults = None
        metrics = self.telemetry.metrics
        self._m_activations = metrics.counter(
            "sandbox_activations", "offline activation attempts by outcome",
            labelnames=("outcome",))
        self._m_handshaker = metrics.counter(
            "handshaker_captures", "exploit payloads captured by the handshaker")
        self._m_probe_attempts = metrics.counter(
            "probe_attempts", "weaponized C2 probes sent", labelnames=("port",))
        self._m_probe_responses = metrics.counter(
            "probe_responses", "weaponized C2 probes that engaged",
            labelnames=("port",))

    # -- mode 1: offline analysis ------------------------------------------------

    def analyze_offline(self, data: bytes, rng: random.Random, when: float,
                        scan_budget: int = 120, sha256: str | None = None,
                        attempt: int = 0) -> OfflineReport:
        """Closed-world activation at ``when``, drawing from ``rng``: C2
        detection and exploit extraction.

        The crash check sits before any emulation or RNG draw, so a
        crashed attempt consumes nothing, and a retry on a fresh copy of
        the stream replays the exact analysis a first try would have run.
        """
        if self.faults is not None and sha256 is not None \
                and self.faults.sandbox_crash(sha256, attempt):
            self._m_activations.labels(outcome="crashed").inc()
            raise SandboxCrash(
                f"sandbox crashed activating {sha256[:12]} "
                f"(attempt {attempt})")
        with self.telemetry.tracer.span("sandbox.analyze") as span:
            try:
                process = self.emulator.run(data, self.bot_ip, sha256=sha256)
            except EmulationError:
                self._m_activations.labels(outcome="unloadable").inc()
                raise
            except ActivationError:
                self._m_activations.labels(outcome="evaded").inc()
                return OfflineReport(
                    sha256=sha256 or hashlib.sha256(data).hexdigest(),
                    activated=False, yara_input=data,
                )
            self._m_activations.labels(outcome="activated").inc()
            span.set_attribute("sha256", process.sha256)
            report = OfflineReport(sha256=process.sha256, activated=True,
                                   yara_input=data)
            c2_end = self._run_c2_phase(process, report, rng, when)
            self._run_exploit_phase(process, report, rng, scan_budget,
                                    c2_end)
            self._m_handshaker.inc(len(report.exploits))
        return report

    def _run_c2_phase(self, process: EmulatedProcess, report: OfflineReport,
                      rng: random.Random, when: float) -> float:
        """Fake-Internet C2 phase; returns the time of its last packet."""
        fake = FakeInternetAdapter(self.bot_ip, rng, base_time=when)
        bot = process.bot
        report.dga_seed = bot.config.dga_seed
        if report.dga_seed:
            report.dga_family = bot.family.name
        if bot.config.is_p2p:
            bot.p2p_bootstrap(fake, report.capture)
        else:
            session = bot.connect_c2(fake, report.capture)
            if session is not None:
                for _ in range(3):
                    bot.poll_c2(session)
        # fold fake conversations into the capture-derived flow analysis
        report.c2_candidates = detect_c2_flows(report.capture, self.bot_ip)
        report.is_p2p = detect_p2p([pkt.payload for pkt in fake.datagrams])
        if report.c2_candidates and not report.is_p2p:
            best = report.c2_candidates[0]
            report.c2_endpoint = resolve_endpoint_name(best, fake.name_bindings)
            report.c2_port = best.port
        return fake.last_timestamp

    def _run_exploit_phase(
        self, process: EmulatedProcess, report: OfflineReport,
        rng: random.Random, scan_budget: int, start: float,
    ) -> None:
        if process.bot.config.is_p2p:
            return
        # the scan rows continue the C2 phase's clock, so the capture (and
        # the pcap written from it) runs forward in time
        handshaker = Handshaker(self.bot_ip, rng, trace=report.capture,
                                base_time=start)
        handshaker.scan(process.bot, scan_budget)
        report.exploits = handshaker.victims
        report.scan_ports = handshaker.popular_ports()

    # -- mode 2: weaponized probing ------------------------------------------------

    def probe_targets(
        self, data: bytes, targets: list[tuple[int, int]],
        internet: VirtualInternet, trace: Capture | None = None,
        sha256: str | None = None,
    ) -> list[ProbeResult]:
        """Weaponize the binary to probe ip:port targets for live C2s."""
        for _ip, port in targets:
            self._m_probe_attempts.labels(port=port).inc()
        try:
            process = self.emulator.run(data, self.bot_ip, sha256=sha256)
        except ActivationError:
            return [ProbeResult(ip, port, False) for ip, port in targets]
        adapter = LiveInternetAdapter(internet, self.bot_ip)
        results: list[ProbeResult] = []
        for ip, port in targets:
            bot = process.bot
            bot.reset_stream()  # fresh stream per probe
            session = bot.connect_c2(adapter, trace, override_target=(ip, port))
            if session is None:
                results.append(ProbeResult(ip, port, False))
                continue
            response = bot.server_bytes + session.recv()
            session.close()
            if response:
                self._m_probe_responses.labels(port=port).inc()
            results.append(
                ProbeResult(ip, port, engaged=bool(response), response=response)
            )
        return results

    # -- live observation (restricted mode) ------------------------------------------

    def observe_live(
        self,
        data: bytes,
        internet: VirtualInternet,
        duration: float = 2 * 3600.0,
        poll_interval: float = 60.0,
        max_attack_packets: int = 400,
        sha256: str | None = None,
    ) -> LiveReport:
        """Run the malware against its real C2 with C2-only egress."""
        if sha256 is None:
            sha256 = hashlib.sha256(data).hexdigest()
        with self.telemetry.tracer.span("sandbox.observe_live",
                                        sha256=sha256) as span:
            start = internet.clock.now
            report = self._observe_live(data, internet, sha256, duration,
                                        poll_interval, max_attack_packets)
            span.set_sim(start, internet.clock.now)
        return report

    def _observe_live(
        self, data: bytes, internet: VirtualInternet, sha256: str,
        duration: float, poll_interval: float, max_attack_packets: int,
    ) -> LiveReport:
        try:
            process = self.emulator.run(data, self.bot_ip, sha256=sha256)
        except ActivationError:
            return LiveReport(sha256=sha256, connected=False)
        report = LiveReport(sha256=process.sha256, connected=False)
        live = LiveInternetAdapter(internet, self.bot_ip)
        bot = process.bot
        c2_ip = bot.resolve_c2(live, report.capture)
        if c2_ip is None or not bot.config.c2_port:
            return report
        ids = SnortIds(EgressPolicy(PolicyMode.C2_ONLY, frozenset({c2_ip})))
        filtered = FilteredAdapter(live, ids, trace=report.capture)
        session = bot.connect_c2(
            filtered, report.capture, override_target=(c2_ip, bot.config.c2_port)
        )
        if session is None:
            return report
        report.connected = True
        report.c2_host = c2_ip
        report.c2_port = bot.config.c2_port
        executed: set[tuple] = set()
        deadline = internet.clock.now + duration
        while internet.clock.now < deadline:
            commands = bot.poll_c2(session)
            for command in commands:
                key = (command.method, command.target_ip, command.target_port,
                       command.duration)
                if key in executed:
                    continue
                executed.add(key)
                report.commands.append(command)
                bot.execute_attack(
                    filtered, command, start_time=internet.clock.now,
                    trace=None, max_packets=max_attack_packets,
                )
                internet.clock.advance(min(command.duration, 30.0))
            internet.clock.advance(poll_interval)
        report.server_stream = bot.server_bytes
        report.contained = ids.contained
        report.alerts = len(ids.alerts)
        session.close()
        return report
