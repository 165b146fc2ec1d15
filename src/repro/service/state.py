"""Persistent study checkpoints for the ingestion daemon: day journals.

One journal file per study (:mod:`repro.core.journal`), keyed by the
same :func:`~repro.core.cache.study_fingerprint` the study cache uses —
so a change to seed, scale, config, fault plan, or *code* changes the
key and an old journal is simply never found, the exact invalidation
model that keeps the cache honest.

After every ingested day the service appends one record holding only
what that day added or touched; nothing is rewritten and nothing is
fsynced.  A killed daemon therefore loses at most the day in flight:
:meth:`CheckpointStore.load` replays the journal up to its last
complete record and drops a torn tail, which the next append truncates.
When the study is finalized the journal is compacted, atomically, into
one snapshot record; that file is also a study-cache entry.  Nothing
here unpickles anything.
"""

from __future__ import annotations

import os

# perfbench wraps these two names by attribute until ROADMAP item 5
from ..core.cache import pack_entry, write_atomic  # noqa: F401
from ..core.journal import JournalError, JournalWriter, StudyState, replay

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """On-disk day journals keyed by study fingerprint.

    :meth:`load` replays a journal and :meth:`save` extends it; the
    store remembers, per fingerprint, how far the file on disk goes.
    ``loads`` counts journals resumed, ``rejected`` counts journals
    discarded or cut back to their last complete record.
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.loads = 0
        self.rejected = 0
        self._writers: dict[str, JournalWriter] = {}

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{fingerprint}.ckpt")

    def load(self, fingerprint: str,
             total_days: int | None = None) -> StudyState | None:
        """The journaled state of ``fingerprint``'s study.

        None when there is no journal or it holds no complete day.
        Raises :class:`~repro.core.journal.JournalError` when the file is
        not this study's journal (foreign, corrupt header, pre-journal
        format, another study length); the next :meth:`save` replaces it.
        """
        self._writers[fingerprint] = JournalWriter(fingerprint)
        try:
            with open(self.path_for(fingerprint), "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            state, end = replay(blob, fingerprint, total_days)
        except JournalError:
            self.rejected += 1
            raise
        self._writers[fingerprint] = JournalWriter(fingerprint, state, end)
        if end != len(blob):
            self.rejected += 1
        if state.next_day == 0 and not state.finalized:
            return None
        self.loads += 1
        return state

    def save(self, fingerprint: str, state: StudyState) -> str:
        """Bring the journal up to ``state``; returns its path.

        Appends one record covering the days run since the last save
        (after truncating a torn tail), or, for a finalized ``state``,
        compacts the journal into its snapshot.  A no-op when the
        journal already holds ``state``.
        """
        path = self.path_for(fingerprint)
        writer = self._writers.setdefault(fingerprint,
                                          JournalWriter(fingerprint))
        blob = writer.records(state)
        if not blob:
            return path
        if state.finalized:
            write_atomic(path, blob)
        elif writer.offset:
            with open(path, "r+b") as fh:
                fh.truncate(writer.offset)      # drop a torn tail
                fh.seek(writer.offset)
                fh.write(blob)
        else:
            os.makedirs(self.root, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(blob)
        writer.commit()
        return path
