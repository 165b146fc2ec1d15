"""The D-PC2 active-probing campaign (section 2.3b).

Probe 6 subnets on 12 historically malicious ports, every 4 hours for two
weeks, using two weaponized samples (one Gafgyt, one Mirai).  The
methodology's containment rules apply: only send the C2 "call-home" to
hosts that listen on a port, and skip hosts presenting a well-known
service banner (section 2.6).

Discovered C2s then keep being probed each slot, producing the per-slot
engagement matrix behind Figure 4.  Each slot runs on a traffic engine
of its own, starting at the slot's instant with a stream derived from
``(world seed, slot)``: the campaign observes the same whether or not
anything ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..netsim.addresses import Subnet
from ..netsim.internet import SECONDS_PER_DAY, Network, TimeWheel, \
    VirtualInternet
from ..netsim.packet import Protocol
from ..obs import NULL_TELEMETRY, Telemetry
from ..sandbox.sandbox import CncHunterSandbox
from ..world.calibration import (
    PROBE_INTERVAL_HOURS,
    PROBE_PORTS,
)
from .datasets import ProbeObservation

#: banner prefixes of well-known benign services the probing filters out
WELL_KNOWN_BANNERS = (b"HTTP/1.0 200 OK\r\nServer: Apache",
                      b"HTTP/1.1 200 OK\r\nServer: Apache",
                      b"Server: nginx", b"220 ProFTPD")


@dataclass
class ProbingCampaign:
    """Runs the subnet-probing study and collects D-PC2."""

    network: Network
    #: a slot's traffic engine: ``engine(when, "probe-slot", slot)``
    #: (:meth:`repro.core.pipeline.MalNet.engine`)
    engine: Callable[..., VirtualInternet]
    sandbox: CncHunterSandbox
    subnets: list[Subnet]
    sample_binaries: list[bytes]      # the two weaponized samples
    start: float
    days: int = 14
    ports: tuple[int, ...] = PROBE_PORTS
    #: hours between probes; the paper uses 4 — the ablation bench shows
    #: what a lazier prober would mismeasure
    interval_hours: int = PROBE_INTERVAL_HOURS
    observations: list[ProbeObservation] = field(default_factory=list)
    #: (address, port) pairs confirmed as C2s at least once
    discovered: set[tuple[int, int]] = field(default_factory=set)
    telemetry: Telemetry = NULL_TELEMETRY
    #: time wheel over the inverted listener index: (host, port) pairs
    #: worth scanning, bucketed by the probe slots their online window
    #: overlaps — listener bindings, banners, and lifetimes are static
    #: world state, so this is built once
    _scan_wheel: TimeWheel | None = field(default=None, repr=False,
                                          compare=False)
    #: response_matrix memo, keyed by observation/discovery counts
    _matrix_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def slots_per_day(self) -> int:
        return 24 // self.interval_hours

    @property
    def total_slots(self) -> int:
        return self.days * self.slots_per_day

    @property
    def window(self) -> tuple[float, float]:
        """The simulated interval the campaign probes."""
        return self.start, self.start + self.days * SECONDS_PER_DAY

    # -- scanning -------------------------------------------------------------

    def _build_scan_index(self) -> list:
        """Host/port pairs that could ever answer a probe.

        The naive scan is O(subnets x hosts x ports) *per slot* with a
        dict lookup per (host, port); almost all of it misses — probe
        /24s are mostly unallocated space.  Listeners, banners, and the
        banner filter are static, so we invert once: per slot only the
        surviving pairs' online windows need checking.
        """
        index = []
        for subnet in self.subnets:
            for address in subnet.hosts():
                host = self.network.host(address)
                if host is None:
                    continue
                for port in self.ports:
                    listener = host.listener(Protocol.TCP, port)
                    if listener is None:
                        continue
                    if any(listener.banner.startswith(b)
                           for b in WELL_KNOWN_BANNERS if listener.banner):
                        continue  # filtered: well-known service (section 2.6)
                    index.append((address, port, host))
        return index

    def _build_scan_wheel(self) -> TimeWheel:
        """Bucket the scan index by the probe slots each host is online.

        Checking ``is_online`` across the whole index every slot is
        O(index) of misses — most C2s live a few hours out of a two-week
        campaign.  Host lifetimes are static, so each index entry is
        registered under only the slots overlapping its online window
        (clamped to the campaign span; downloader hosts are open-ended).
        Entries are inserted in scan-index order, so per-slot candidates
        keep the order the full scan produced.
        """
        wheel = TimeWheel(self.interval_hours * 3600.0)
        horizon = self.window[1]
        for entry in self._build_scan_index():
            _address, _port, host = entry
            begin = max(host.online_from, self.start)
            end = min(host.online_until, horizon)
            if end > begin:
                wheel.add_window(begin, end, entry)
        return wheel

    def _listening_targets(self, now: float) -> list[tuple[int, int]]:
        """SYN-scan the subnets: hosts listening on a probe port now."""
        if self._scan_wheel is None:
            self._scan_wheel = self._build_scan_wheel()
        return [(address, port)
                for address, port, host in self._scan_wheel.items_at(now)
                if host.is_online(now)]

    def _probe_slot(self, slot: int) -> None:
        with self.telemetry.tracer.span("probing.slot", slot=slot) as span:
            slot_seconds = self.interval_hours * 3600.0
            when = self.start + slot * slot_seconds
            span.set_sim(when, when + slot_seconds)
            internet = self.engine(when, "probe-slot", slot)
            # probe every open target with both weaponized samples; targets we
            # already identified as C2s are probed even if currently silent
            targets = set(self._listening_targets(when)) | self.discovered
            engaged_now: set[tuple[int, int]] = set()
            for binary in self.sample_binaries:
                results = self.sandbox.probe_targets(binary, sorted(targets),
                                                     internet)
                for result in results:
                    if result.engaged:
                        engaged_now.add((result.target, result.port))
            newly_found = engaged_now - self.discovered
            for address, port in sorted(self.discovered | engaged_now):
                self.observations.append(ProbeObservation(
                    c2_address=address, c2_port=port, slot=slot, when=when,
                    engaged=(address, port) in engaged_now,
                ))
            self.discovered |= engaged_now
            span.set_attribute("targets", len(targets))
            span.set_attribute("engaged", len(engaged_now))
            metrics = self.telemetry.metrics
            metrics.counter(
                "probe_slot_engagements", "per-slot engaged C2 probes"
            ).inc(len(engaged_now))
            metrics.gauge(
                "probing_discovered_c2s", "C2s the campaign has confirmed"
            ).set(len(self.discovered))
            if newly_found:
                self.telemetry.events.emit(
                    "probing.discovered", slot=slot, count=len(newly_found),
                )

    def run(self) -> list[ProbeObservation]:
        """Execute the full campaign; returns the D-PC2 observations."""
        for slot in range(self.total_slots):
            self._probe_slot(slot)
        return self.observations

    # -- views -----------------------------------------------------------------

    def response_matrix(self) -> dict[tuple[int, int], list[bool]]:
        """Per-C2 probe-response series (Figure 4's rows).

        Slots before a server's discovery are padded as non-responses so
        every row spans the full campaign.

        The matrix is memoized on the observation/discovery counts (both
        append-only), since the summary views rebuild it per call.
        """
        state = (len(self.observations), len(self.discovered))
        if self._matrix_cache is not None and self._matrix_cache[0] == state:
            return self._matrix_cache[1]
        matrix: dict[tuple[int, int], list[bool]] = {
            key: [False] * self.total_slots for key in self.discovered
        }
        for obs in self.observations:
            key = (obs.c2_address, obs.c2_port)
            if key in matrix:
                matrix[key][obs.slot] = obs.engaged
        self._matrix_cache = (state, matrix)
        return matrix

    def repeat_response_rate(self) -> float:
        """P(response at slot k+1 | response at slot k) across servers.

        The paper's headline: 91% of the time a server does NOT respond to
        a second probe 4 hours after a successful one, i.e. this is ~0.09.
        """
        successes = 0
        repeats = 0
        for series in self.response_matrix().values():
            for now, nxt in zip(series, series[1:]):
                if now:
                    successes += 1
                    if nxt:
                        repeats += 1
        if successes == 0:
            return 0.0
        return repeats / successes

    def any_full_day_response(self) -> bool:
        """Did any server respond to all six probes of one day? (paper: no)"""
        per_day = self.slots_per_day
        for series in self.response_matrix().values():
            for day in range(self.days):
                window = series[day * per_day:(day + 1) * per_day]
                if len(window) == per_day and all(window):
                    return True
        return False
