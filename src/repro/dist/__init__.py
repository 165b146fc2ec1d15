"""Sharded study execution: the runner, its workers, the wire.

A sharded study has one engine,
:class:`~repro.dist.coordinator.ShardedStudyRunner` (also importable
from :mod:`repro.core.parallel`), and two kinds of peer behind it: local
slots (forked children of the study process) and ``repro worker``
daemons over TCP.  The package re-exports nothing: a serial study
imports :mod:`.plan` alone, and the runner, with its sockets and
process machinery, loads only when a sharded run starts.

``plan.py``
    :func:`~repro.dist.plan.plan_fleet`, the one check of a run's
    ``workers``/``peers``/``unit_count``, and the fine-grained shard
    plan — world cache keys and the task spec every unit's frame carries
``wire.py``
    length-prefixed framed messages, reusing the checksummed
    ``pack_entry``/``unpack_entry`` encoding from :mod:`repro.core.cache`,
    and the heartbeat cadence both ends of a connection share
``coordinator.py``
    the runner: local slots and TCP peers, cache-aware unit placement,
    adaptive work stealing, one failure model (EOF, heartbeat, a
    ``failed`` frame, a hang past ``SHARD_TIMEOUT``) and one
    re-dispatch budget per unit
``worker.py``
    the ``repro worker`` task loop — served by a local slot's child on a
    socketpair, or by the TCP daemon — executing shard units against a
    warm world cache

The deterministic-merge invariant — serial output byte-identical to any
merged parallel output — is unchanged: units are sha256-partitioned, so
any placement, steal, or re-dispatch schedule merges to the same digest.
"""
