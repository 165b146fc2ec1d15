"""Sharded study execution: the coordinator, its workers, the wire.

The sharded runner (:mod:`repro.core.parallel`) has one engine, the
coordinator, and two kinds of peer behind it: local slots (forked
children of the study process) and ``repro worker`` daemons over TCP.

``wire.py``
    length-prefixed framed messages, reusing the checksummed
    ``pack_entry``/``unpack_entry`` encoding from :mod:`repro.core.cache`,
    and the heartbeat cadence both ends of a connection share
``plan.py``
    the fine-grained shard plan — sha256 unit partitioning, world cache
    keys, default unit counts
``coordinator.py``
    local slots and TCP peers, cache-aware unit placement, adaptive
    work stealing, one failure model (EOF, heartbeat, a ``failed``
    frame, a hang past ``SHARD_TIMEOUT``) and one re-dispatch budget
    per unit
``worker.py``
    the ``repro worker`` task loop — served by a local slot's child on a
    socketpair, or by the TCP daemon — executing shard units against a
    warm world cache

The deterministic-merge invariant — serial output byte-identical to any
merged parallel output — is unchanged: units are sha256-partitioned, so
any placement, steal, or re-dispatch schedule merges to the same digest.
"""

from .coordinator import Coordinator
from .plan import TaskSpec, default_unit_count, world_key
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "Coordinator",
    "TaskSpec",
    "WireError",
    "default_unit_count",
    "recv_frame",
    "send_frame",
    "world_key",
]
