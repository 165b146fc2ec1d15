"""Shared daily-pull window selection for the sample feeds.

Both feeds answer ``feed_between(start, end)`` with the entries whose
publication instant falls in the window.  When the caller passes its
run's fault injector (:mod:`repro.netsim.faults`) the pull becomes a
fallible operation: an outage window makes the attempt raise
:class:`FeedUnavailable` (the pipeline retries and, failing that,
backfills on the next successful pull), and entries on latency-spike
days carry a deterministic extra delay, so they surface in a later window
instead of their own.
"""

from __future__ import annotations

from ..netsim.faults import FeedUnavailable

__all__ = ["pull_window"]


def pull_window(service, start: float, end: float, attempt: int,
                faults=None) -> list:
    """Select ``service._feed`` entries visible in ``[start, end)``.

    ``service`` provides ``_feed`` (entries with ``published`` and
    ``sample``) and ``feed_name``; ``faults`` is the pulling run's
    injector, if any.
    """
    if faults is None:
        return [e for e in service._feed if start <= e.published < end]
    if faults.feed_unavailable(service.feed_name, end, attempt):
        raise FeedUnavailable(
            f"{service.feed_name} pull failed (attempt {attempt})")
    name = service.feed_name
    selected = []
    for entry in service._feed:
        visible = entry.published + faults.feed_delay(
            name, entry.sample.sha256, entry.published)
        if start <= visible < end:
            selected.append(entry)
    return selected
