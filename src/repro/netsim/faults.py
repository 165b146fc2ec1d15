"""Deterministic fault injection: the hostile-Internet layer.

The real MalNet ran for a year against elusive C2 servers (§3.2), feeds
with latency and outages, and sandboxes that crash.  Our closed world is
perfectly reliable, so the pipeline's resilience paths — retries, feed
backfill, per-sample quarantine, shard re-dispatch — would otherwise
never be exercised.  This module makes the world flaky *on purpose*,
without giving up the reproduction's hard invariant that the merged
parallel output is byte-identical to the serial run.

Every fault decision is a pure function of ``(world seed, entity,
time-slot)`` via :func:`repro.determinism.stable_unit` — never of an RNG
stream or of call order.  Two processes that ask "does this SYN to host H
at time T get dropped?" always agree, which is what lets a fault plan ride
under the sharded runner unchanged.

A :class:`FaultPlan` is declarative configuration (picklable, carried on
``PipelineConfig``); a :class:`FaultInjector` binds a plan to a world seed
and answers the per-event questions.  Hook points:

* :meth:`VirtualInternet.tcp_connect <repro.netsim.internet.VirtualInternet.tcp_connect>`
  — per-host SYN-drop windows and background connection timeouts;
* :meth:`VirtualInternet.send_datagram` — per-host packet-loss windows;
* :class:`~repro.netsim.dns.Resolver` — transient SERVFAIL slots;
* the feeds — whole-day outages (with deterministic retry recovery) and
  latency-spike days that defer entries to a later pull;
* :meth:`CncHunterSandbox.analyze_offline
  <repro.sandbox.sandbox.CncHunterSandbox.analyze_offline>` — transient
  activation crashes, retried by the pipeline;
* :func:`repro.core.parallel.execute_shard` — injected worker
  crashes/hangs for chaos-testing the runner's re-dispatch path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..determinism import stable_unit

__all__ = [
    "FAULT_PLANS",
    "FaultInjector",
    "FaultPlan",
    "FeedUnavailable",
    "InjectedFault",
    "SandboxCrash",
    "WorkerCrash",
]


class InjectedFault(RuntimeError):
    """Base class for failures raised by the fault layer."""


class FeedUnavailable(InjectedFault):
    """A feed pull attempt hit an outage window."""


class SandboxCrash(InjectedFault):
    """The sandbox failed to come up for an activation attempt."""


class WorkerCrash(InjectedFault):
    """A shard worker process was told to die mid-study (chaos hook)."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault configuration; all rates are probabilities.

    The plan itself carries no randomness — a :class:`FaultInjector`
    derives every decision from ``(seed, entity, time-slot)``.  Frozen and
    picklable so it can ride on ``PipelineConfig`` into worker processes.
    """

    name: str = "custom"
    #: seconds per time slot for windowed decisions (default: one hour)
    slot_seconds: float = 3600.0
    # -- network ---------------------------------------------------------
    #: chance a (host, slot) is inside a SYN-drop window
    syn_drop_window_rate: float = 0.0
    #: per-connection drop probability within an active window
    syn_drop_rate: float = 0.0
    #: background connection-timeout probability (any host, any time)
    connect_timeout_rate: float = 0.0
    #: chance a (host, slot) is inside a packet-loss window
    packet_loss_window_rate: float = 0.0
    #: per-datagram loss probability within an active window
    packet_loss_rate: float = 0.0
    #: per-(name, slot) chance the resolver answers SERVFAIL
    dns_servfail_rate: float = 0.0
    # -- feeds -----------------------------------------------------------
    #: chance a (feed, day) starts in an outage
    feed_outage_rate: float = 0.0
    #: chance each retry attempt still finds the feed down
    feed_retry_still_down: float = 0.5
    #: chance a (feed, day) is a latency-spike day
    feed_spike_rate: float = 0.0
    #: max extra publication delay on a spike day (seconds)
    feed_spike_max_delay: float = 0.0
    # -- sandbox ---------------------------------------------------------
    #: per-(sha256, attempt) chance an activation attempt crashes
    sandbox_crash_rate: float = 0.0
    # -- chaos hooks for the sharded runner ------------------------------
    #: shard indexes whose workers crash (first ``crash_attempts`` tries)
    crash_shards: tuple[int, ...] = ()
    crash_attempts: int = 1
    #: shard indexes whose workers hang (first ``hang_attempts`` tries)
    hang_shards: tuple[int, ...] = ()
    hang_attempts: int = 1
    hang_seconds: float = 30.0

    @property
    def enabled(self) -> bool:
        return bool(
            self.syn_drop_window_rate or self.connect_timeout_rate
            or self.packet_loss_window_rate or self.dns_servfail_rate
            or self.feed_outage_rate or self.feed_spike_rate
            or self.sandbox_crash_rate or self.crash_shards
            or self.hang_shards
        )


#: Presets selectable with ``--faults`` on the CLI.  "mild" keeps every
#: degradation path warm without drowning the study; "heavy" is the chaos
#: setting, where faults leave a trace in the datasets.
FAULT_PLANS: dict[str, FaultPlan] = {
    "mild": FaultPlan(
        name="mild",
        syn_drop_window_rate=0.05, syn_drop_rate=0.5,
        connect_timeout_rate=0.01,
        packet_loss_window_rate=0.05, packet_loss_rate=0.2,
        dns_servfail_rate=0.02,
        feed_outage_rate=0.05, feed_retry_still_down=0.4,
        feed_spike_rate=0.05, feed_spike_max_delay=12 * 3600.0,
        sandbox_crash_rate=0.02,
    ),
    "heavy": FaultPlan(
        name="heavy",
        syn_drop_window_rate=0.15, syn_drop_rate=0.7,
        connect_timeout_rate=0.03,
        packet_loss_window_rate=0.15, packet_loss_rate=0.4,
        dns_servfail_rate=0.08,
        feed_outage_rate=0.15, feed_retry_still_down=0.6,
        feed_spike_rate=0.15, feed_spike_max_delay=24 * 3600.0,
        sandbox_crash_rate=0.08,
    ),
}

_DAY = 86400.0


class FaultInjector:
    """Binds a :class:`FaultPlan` to a world seed and answers per-event
    fault questions deterministically.

    Optionally counts fired injections into a labelled telemetry counter
    (``fault_injections{kind=...}``) — the counter only ever observes
    decisions that *fired*, so a disabled plan costs nothing.
    """

    def __init__(self, plan: FaultPlan, seed: int, counter=None):
        self.plan = plan
        self.seed = seed
        self._counter = counter
        # memo for per-(entity, slot) window decisions: the hot loops ask
        # the same question for every packet in a slot (is this host in a
        # loss window? is this feed's day an outage?), the answers are
        # pure functions of (seed, entity, slot), and plan rates are
        # frozen — so one sha256 draw per window block replaces one per
        # event, with a byte-identical decision stream
        self._window_memo: dict[tuple, bool] = {}

    def _unit(self, kind: str, *parts) -> float:
        return stable_unit("fault", kind, self.seed, *parts)

    def _slot(self, now: float) -> int:
        return int(now // self.plan.slot_seconds)

    def _window(self, kind: str, entity, slot: int, rate: float) -> bool:
        """Memoized windowed decision: ``unit(kind, entity, slot) < rate``."""
        key = (kind, entity, slot)
        memo = self._window_memo
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = self._unit(kind, entity, slot) < rate
        return hit

    def _fired(self, kind: str) -> bool:
        if self._counter is not None:
            self._counter.labels(kind=kind).inc()
        return True

    # -- network ---------------------------------------------------------

    def connection_fails(self, host: int, now: float) -> bool:
        """SYN to ``host`` at ``now`` is lost (window drop or timeout)."""
        plan = self.plan
        if plan.syn_drop_window_rate and (
            self._window("syn-window", host, self._slot(now),
                         plan.syn_drop_window_rate)
            and self._unit("syn-drop", host, int(now * 1000))
            < plan.syn_drop_rate
        ):
            return self._fired("syn_drop")
        if plan.connect_timeout_rate and (
            self._unit("timeout", host, int(now * 1000))
            < plan.connect_timeout_rate
        ):
            return self._fired("connect_timeout")
        return False

    def packet_lost(self, host: int, when: float) -> bool:
        """A datagram to ``host`` stamped at ``when`` is dropped."""
        plan = self.plan
        if not plan.packet_loss_window_rate:
            return False
        if not self._window("loss-window", host, self._slot(when),
                            plan.packet_loss_window_rate):
            return False
        if self._unit("loss", host, int(when * 1000)) < plan.packet_loss_rate:
            return self._fired("packet_loss")
        return False

    def dns_servfail(self, name: str, now: float) -> bool:
        """The backbone resolver SERVFAILs ``name`` in this slot."""
        plan = self.plan
        if plan.dns_servfail_rate and self._window(
            "servfail", name.lower(), self._slot(now),
            plan.dns_servfail_rate,
        ):
            return self._fired("dns_servfail")
        return False

    # -- feeds -----------------------------------------------------------

    def feed_unavailable(self, feed: str, when: float, attempt: int) -> bool:
        """Pull attempt ``attempt`` of ``feed`` around ``when`` fails.

        Attempt 0 fails iff the day is an outage day; each further attempt
        independently stays down with ``feed_retry_still_down`` — so a
        retry policy with a few attempts usually recovers the pull, and
        the rare day where every attempt fails exercises the backfill
        path (the next successful pull widens its window).
        """
        plan = self.plan
        if not plan.feed_outage_rate:
            return False
        day = int(when // _DAY)
        if not self._window("feed-outage", feed, day,
                            plan.feed_outage_rate):
            return False
        if attempt > 0 and self._unit("feed-retry", feed, day, attempt) \
                >= plan.feed_retry_still_down:
            return False
        return self._fired("feed_outage")

    def feed_delay(self, feed: str, sha256: str, published: float) -> float:
        """Extra publication-visibility delay for one feed entry."""
        plan = self.plan
        if not plan.feed_spike_rate:
            return 0.0
        day = int(published // _DAY)
        if not self._window("feed-spike-day", feed, day,
                            plan.feed_spike_rate):
            return 0.0
        return plan.feed_spike_max_delay * self._unit("feed-spike", feed,
                                                      sha256)

    # -- sandbox ---------------------------------------------------------

    def sandbox_crash(self, sha256: str, attempt: int) -> bool:
        """Activation attempt ``attempt`` of ``sha256`` crashes."""
        plan = self.plan
        if plan.sandbox_crash_rate and (
            self._unit("sandbox-crash", sha256, attempt)
            < plan.sandbox_crash_rate
        ):
            return self._fired("sandbox_crash")
        return False

    # -- chaos hooks for the sharded runner ------------------------------

    def worker_crashes(self, shard_index: int, attempt: int) -> bool:
        return (shard_index in self.plan.crash_shards
                and attempt < self.plan.crash_attempts)

    def worker_hangs(self, shard_index: int, attempt: int) -> bool:
        return (shard_index in self.plan.hang_shards
                and attempt < self.plan.hang_attempts)
