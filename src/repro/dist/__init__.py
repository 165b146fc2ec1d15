"""Sharded study execution: the runner, its workers, the wire.

A sharded study has one engine, :class:`ShardedStudyRunner` (also
importable from :mod:`repro.core.parallel`), and two kinds of peer
behind it: local slots (forked children of the study process) and
``repro worker`` daemons over TCP.

``wire.py``
    length-prefixed framed messages, reusing the checksummed
    ``pack_entry``/``unpack_entry`` encoding from :mod:`repro.core.cache`,
    and the heartbeat cadence both ends of a connection share
``plan.py``
    the fine-grained shard plan — world cache keys and the task spec
    every unit's frame carries
``coordinator.py``
    the runner and :func:`plan_fleet`, the one check of a run's
    ``workers``/``peers``/``unit_count``; local slots and TCP peers,
    cache-aware unit placement, adaptive work stealing, one failure
    model (EOF, heartbeat, a ``failed`` frame, a hang past
    ``SHARD_TIMEOUT``) and one re-dispatch budget per unit
``worker.py``
    the ``repro worker`` task loop — served by a local slot's child on a
    socketpair, or by the TCP daemon — executing shard units against a
    warm world cache

The deterministic-merge invariant — serial output byte-identical to any
merged parallel output — is unchanged: units are sha256-partitioned, so
any placement, steal, or re-dispatch schedule merges to the same digest.
"""

from .coordinator import FleetError, ShardedStudyRunner, plan_fleet
from .plan import TaskSpec, world_key
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "FleetError",
    "ShardedStudyRunner",
    "TaskSpec",
    "WireError",
    "plan_fleet",
    "recv_frame",
    "send_frame",
    "world_key",
]
