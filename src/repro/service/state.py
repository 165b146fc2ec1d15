"""Persistent study checkpoints for the ingestion daemon.

One checkpoint file per study, keyed by the same
:func:`~repro.core.cache.study_fingerprint` the study cache uses — so a
change to seed, scale, config, fault plan, or *code* changes the key and
an old checkpoint is simply never found, the exact invalidation model
that keeps the cache honest.  The file is rewritten atomically after
every ingested day (the entry framing and atomic-write helpers are
shared with :class:`~repro.core.cache.StudyCache`), so a killed daemon
always restarts from the last *completed* day: a checkpoint is either
the previous complete one or the new complete one, never a torn write.

The checkpoint body is :meth:`DayRunner.state_snapshot
<repro.core.study.DayRunner.state_snapshot>` — the dedup set, feed
cursors, and datasets, plus the probing results once finalized — and
the first day of every rule the service has shipped.
World content is never stored; a resumed runner regenerates it from
``(seed, scale)``.
"""

from __future__ import annotations

import dataclasses
import os

from ..core.cache import pack_entry, unpack_entry, write_atomic

__all__ = ["StudyCheckpoint", "CheckpointStore"]


@dataclasses.dataclass
class StudyCheckpoint:
    """One study's resumable progress.

    The header fields mirror the snapshot so progress can be reported
    without interpreting ``state``; ``state`` itself is the
    ``DayRunner.state_snapshot()`` dict handed back to
    ``DayRunner.restore_state()`` on resume.  ``rule_days`` is the
    service's first day of each ``(technology, text)`` rule.
    """

    fingerprint: str
    next_day: int
    total_days: int
    finalized: bool
    state: dict
    rule_days: dict = dataclasses.field(default_factory=dict)


class CheckpointStore:
    """On-disk checkpoint store keyed by study fingerprint.

    Reads are paranoid the same way :class:`StudyCache` reads are: any
    anomaly (missing file, corruption, version skew, fingerprint
    mismatch) loads as ``None`` and the daemon starts the study from
    day 0.  ``loads`` / ``rejected`` count outcomes for telemetry.
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.loads = 0
        self.rejected = 0

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{fingerprint}.ckpt")

    def load(self, fingerprint: str) -> StudyCheckpoint | None:
        """The latest checkpoint for ``fingerprint``, or None on doubt."""
        try:
            with open(self.path_for(fingerprint), "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        entry = unpack_entry(blob, StudyCheckpoint)
        if entry is None or entry.fingerprint != fingerprint:
            self.rejected += 1
            return None
        self.loads += 1
        return entry

    def save(self, checkpoint: StudyCheckpoint) -> str:
        """Atomically persist ``checkpoint``; returns the entry path."""
        path = self.path_for(checkpoint.fingerprint)
        write_atomic(path, pack_entry(checkpoint))
        return path
