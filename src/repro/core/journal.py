"""The study journal: an append-only, typed, pickle-free study record.

One journal file holds what a study leaves behind that a restart cannot
re-derive (:class:`StudyState`): the cross-day pipeline state (the
sha256 dedup set, the feed cursors and the datasets), the service's
first day of every firewall rule and, once finalized, the probing
campaign's discovery set.  World content is never stored; a resumed
runner regenerates it from ``(seed, scale)``.

The study service appends one record per ingested day, holding only
what that day added or touched, and compacts the file into a single
snapshot record when the study is finalized.  A finalized file is also
a :class:`~repro.core.cache.StudyCache` entry: the two stores share this
one format.

File layout::

    file     := "RPJN" | version u8 | header | span* | snapshot?
    record   := length u32 (big-endian) | sha256(body) | body
    header   := {"kind": "header", "fingerprint": ..., "total_days": ...}
    span     := {"kind": "span", "first_day": a, "next_day": b, ...}
    snapshot := {"kind": "snapshot", ...}

A body is UTF-8 JSON.  Spans must arrive in sequence: each starts at the
day the previous one ended (the first at day 0) and covers the days
``[first_day, next_day)`` -- one day per record in the service, which
saves after every day.  A snapshot is the finalized study and ends the
file.  :func:`replay` stops at the first short, corrupt or
out-of-sequence record and reports where the good prefix ends, so a
writer killed mid-append costs at most the day in flight and the next
append truncates the torn tail.

Every record type has an explicit codec with a fixed field list: bytes
travel as hex, sets as sorted lists, tuples as lists, and floats exactly
(``repr`` round-trips; ``±inf`` and ``nan`` as strings).  Ints stay ints
and floats stay floats, because the digest tells them apart.  Decoding
checks the type of every field and raises :class:`JournalError`; it
never builds an object a field list does not name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import struct
import typing

from ..botnet.protocols.base import AttackCommand
from .datasets import C2Record, Datasets, DdosRecord, ExploitRecord, \
    ProbeObservation
from .profiles import AttackObservation, BinaryNetworkProfile, \
    ExploitObservation

__all__ = ["JournalError", "JournalWriter", "StudyState", "encode_study",
           "replay"]

MAGIC = b"RPJN"
#: bumped whenever a record's meaning changes; byte 4 of every file
FORMAT_VERSION = 1
_PREFIX = MAGIC + bytes([FORMAT_VERSION])
_FRAME = struct.Struct(">I32s")


class JournalError(ValueError):
    """A journal, or a record of one, that cannot be trusted."""


@dataclasses.dataclass
class StudyState:
    """Everything a study leaves behind that a restart cannot re-derive.

    :meth:`DayRunner.state <repro.core.study.DayRunner.state>` builds one
    from live references, not copies, so the journal reads a day's
    changes in place; :func:`replay` builds a fresh one that a new
    runner adopts.  ``campaign.observations`` is ``datasets.d_pc2``
    (probing extends an empty ``d_pc2`` with them), so it is stored once.
    """

    total_days: int
    datasets: Datasets = dataclasses.field(default_factory=Datasets)
    #: first study day not yet executed
    next_day: int = 0
    seen_hashes: set = dataclasses.field(default_factory=set)
    feed_cursor: dict = dataclasses.field(default_factory=dict)
    #: (technology, text) -> first day the service shipped the rule
    rule_days: dict = dataclasses.field(default_factory=dict)
    #: the probing campaign's discovery set; None until finalized
    discovered: set | None = None

    @property
    def finalized(self) -> bool:
        return self.discovered is not None


# -- field codecs ------------------------------------------------------------
#
# A field kind has ``encode``, from the field value to JSON (None: JSON
# carries the value as is), and ``decode``, which checks a JSON value and
# returns the field value or raises JournalError.


class _Kind(typing.NamedTuple):
    encode: typing.Callable | None
    decode: typing.Callable


def _exact(kind: type) -> _Kind:
    def decode(value):
        if type(value) is not kind:
            raise JournalError(f"expected {kind.__name__}, "
                               f"got {type(value).__name__}")
        return value
    return _Kind(None, decode)


STR = _exact(str)
INT = _exact(int)
BOOL = _exact(bool)


def _optional(kind) -> _Kind:
    encode, decode = kind.encode, kind.decode
    return _Kind(None if encode is None
                 else (lambda value: None if value is None
                       else encode(value)),
                 lambda value: None if value is None else decode(value))


def _encode_number(value):
    return value if math.isfinite(value) else repr(value)


def _decode_number(value):
    if type(value) is int or type(value) is float:
        return value
    if value in ("inf", "-inf", "nan"):
        return float(value)
    raise JournalError(f"expected a number, got {type(value).__name__}")


#: a float field; an int stored in one stays an int
NUMBER = _Kind(_encode_number, _decode_number)


def _decode_hex(value) -> bytes:
    try:
        return bytes.fromhex(STR.decode(value))
    except ValueError as exc:
        raise JournalError(f"bad hex: {exc}") from None


HEX = _Kind(bytes.hex, _decode_hex)


def _decode_list(decode, value) -> list:
    if type(value) is not list:
        raise JournalError(f"expected list, got {type(value).__name__}")
    return [decode(item) for item in value]


def _list(kind) -> _Kind:
    encode, decode = kind.encode, kind.decode
    return _Kind(None if encode is None
                 else (lambda values: [encode(item) for item in values]),
                 lambda value: _decode_list(decode, value))


def _decode_scalar(value):
    if type(value) is int or type(value) is str:
        return value
    raise JournalError(f"expected int or str, got {type(value).__name__}")


#: a set of strings, stored sorted
STR_SET = _Kind(sorted, lambda value: set(_decode_list(STR.decode, value)))
#: a creation-order key such as ``(day, sha256)`` or ``(day, sha256, seq)``
ORIGIN = _Kind(list,
               lambda value: tuple(_decode_list(_decode_scalar, value)))


class _Record:
    """One record type: its class and fixed field list, in JSON order.

    A record is also a field kind, for records nested in records.
    """

    def __init__(self, cls: type, fields: list[tuple[str, _Kind]]):
        self.cls = cls
        self.fields = [(name, kind.encode, kind.decode)
                       for name, kind in fields]

    def encode(self, obj) -> list:
        return [getattr(obj, name) if encode is None
                else encode(getattr(obj, name))
                for name, encode, _decode in self.fields]

    def decode(self, value):
        if type(value) is not list or len(value) != len(self.fields):
            raise JournalError(f"{self.cls.__name__}: expected a list of "
                               f"{len(self.fields)} fields")
        kwargs = {}
        for (name, _encode, decode), item in zip(self.fields, value):
            try:
                kwargs[name] = decode(item)
            except JournalError as exc:
                raise JournalError(
                    f"{self.cls.__name__}.{name}: {exc}") from None
        try:
            return self.cls(**kwargs)
        except ValueError as exc:   # AttackCommand.__post_init__ checks
            raise JournalError(f"{self.cls.__name__}: {exc}") from None

    def decode_list(self, value) -> list:
        return _decode_list(self.decode, value)


COMMAND = _Record(AttackCommand, [
    ("method", STR), ("target_ip", INT), ("target_port", INT),
    ("duration", INT),
])
EXPLOIT_OBSERVATION = _Record(ExploitObservation, [
    ("vuln_key", STR), ("loader", _optional(STR)),
    ("downloader", _optional(STR)), ("port", INT), ("payload", HEX),
])
ATTACK_OBSERVATION = _Record(AttackObservation, [
    ("command", COMMAND), ("family_profile", STR), ("when", NUMBER),
    ("verified", BOOL), ("via_heuristic", BOOL),
])
PROFILE = _Record(BinaryNetworkProfile, [
    ("sha256", STR), ("published", NUMBER), ("day", INT), ("source", STR),
    ("family_label", _optional(STR)), ("label_source", STR),
    ("activated", BOOL), ("is_p2p", BOOL),
    ("c2_endpoint", _optional(STR)), ("c2_port", _optional(INT)),
    ("c2_is_dns", BOOL), ("c2_live_on_day0", BOOL),
    ("vt_flagged_day0", BOOL), ("dga_seed", INT),
    ("exploits", _list(EXPLOIT_OBSERVATION)), ("scan_ports", _list(INT)),
    ("attacks", _list(ATTACK_OBSERVATION)),
    ("quarantined", BOOL), ("quarantine_reason", STR),
])
C2 = _Record(C2Record, [
    ("endpoint", STR), ("port", INT), ("is_dns", BOOL),
    ("family_labels", STR_SET), ("sample_hashes", STR_SET),
    ("first_day", INT), ("last_day", INT),
    ("first_seen", NUMBER), ("last_seen", NUMBER),
    ("live_observations", INT), ("vt_malicious_day0", BOOL),
    ("vt_malicious_recheck", BOOL), ("protocol_verified", BOOL),
    ("issued_attack", BOOL), ("origin", ORIGIN), ("churn_key", STR),
])
PROBE = _Record(ProbeObservation, [
    ("c2_address", INT), ("c2_port", INT), ("slot", INT), ("when", NUMBER),
    ("engaged", BOOL), ("family_profile", STR),
])
EXPLOIT = _Record(ExploitRecord, [
    ("sha256", STR), ("vuln_key", STR), ("loader", _optional(STR)),
    ("downloader", _optional(STR)), ("day", INT),
])
DDOS = _Record(DdosRecord, [
    ("c2_endpoint", STR), ("family", STR), ("command", COMMAND),
    ("when", NUMBER), ("sample_hashes", STR_SET), ("verified", BOOL),
    ("via_heuristic", BOOL), ("origin", ORIGIN),
])
#: every record type, for the tests that pin field lists to dataclasses
RECORDS = (COMMAND, EXPLOIT_OBSERVATION, ATTACK_OBSERVATION, PROFILE, C2,
           PROBE, EXPLOIT, DDOS)


def _encode_cursors(cursors: dict) -> dict:
    return {name: _encode_number(at) for name, at in cursors.items()}


def _decode_cursors(value) -> dict:
    if type(value) is not dict:
        raise JournalError("cursors: expected an object")
    return {name: _decode_number(at) for name, at in value.items()}


def _encode_rules(items) -> list:
    return [[technology, text, day] for (technology, text), day in items]


def _decode_rule(item) -> tuple:
    if type(item) is not list or len(item) != 3:
        raise JournalError("rules: expected [technology, text, day]")
    technology, text, day = item
    return (STR.decode(technology), STR.decode(text)), INT.decode(day)


def _decode_probe_target(item) -> tuple:
    if type(item) is not list or len(item) != 2:
        raise JournalError("discovered: expected [address, port]")
    return INT.decode(item[0]), INT.decode(item[1])


# -- record framing ----------------------------------------------------------


def _frame(body: dict) -> bytes:
    payload = json.dumps(body, separators=(",", ":"),
                         allow_nan=False).encode()
    return _FRAME.pack(len(payload), hashlib.sha256(payload).digest()) \
        + payload


def _read_record(blob: bytes, offset: int) -> tuple[dict | None, int]:
    """``(body, end)`` of the record at ``offset``; ``(None, offset)`` if
    it is short, fails its checksum or is not a JSON object."""
    start = offset + _FRAME.size
    if start > len(blob):
        return None, offset
    length, digest = _FRAME.unpack_from(blob, offset)
    end = start + length
    if end > len(blob):
        return None, offset
    payload = blob[start:end]
    if hashlib.sha256(payload).digest() != digest:
        return None, offset
    try:
        body = json.loads(payload.decode())
    except (ValueError, RecursionError):
        return None, offset
    return (body, end) if type(body) is dict else (None, offset)


def _fields(body: dict, kind: str, names: tuple[str, ...]) -> list:
    """The values of a record's fields, which must be exactly ``names``."""
    if body.keys() != {"kind", *names}:
        raise JournalError(f"{kind} record: expected fields "
                           f"{', '.join(names)}")
    return [body[name] for name in names]


# -- the three record kinds --------------------------------------------------

_HEADER = ("fingerprint", "total_days")
_SPAN = ("first_day", "next_day", "profiles", "exploits", "c2s", "ddos",
         "seen", "cursors", "rules")
_SNAPSHOT = ("profiles", "c2s", "probes", "exploits", "ddos", "discovered",
             "rules")


def _header(fingerprint: str, total_days: int) -> bytes:
    return _PREFIX + _frame({"kind": "header", "fingerprint": fingerprint,
                             "total_days": total_days})


def _snapshot(state: StudyState) -> bytes:
    datasets = state.datasets
    return _frame({
        "kind": "snapshot",
        "profiles": [PROFILE.encode(p) for p in datasets.profiles],
        "c2s": [C2.encode(r) for r in datasets.d_c2s.values()],
        "probes": [PROBE.encode(o) for o in datasets.d_pc2],
        "exploits": [EXPLOIT.encode(r) for r in datasets.d_exploits],
        "ddos": [DDOS.encode(r) for r in datasets.d_ddos],
        "discovered": sorted([address, port]
                             for address, port in state.discovered),
        "rules": _encode_rules(state.rule_days.items()),
    })


def _decode_snapshot(body: dict, total_days: int) -> StudyState:
    profiles, c2s, probes, exploits, ddos, discovered, rules = \
        _fields(body, "snapshot", _SNAPSHOT)
    datasets = Datasets(
        profiles=PROFILE.decode_list(profiles),
        d_c2s={record.endpoint: record for record in C2.decode_list(c2s)},
        d_pc2=PROBE.decode_list(probes),
        d_exploits=EXPLOIT.decode_list(exploits),
        d_ddos=DDOS.decode_list(ddos))
    return StudyState(
        total_days=total_days, datasets=datasets, next_day=total_days,
        rule_days=dict(_decode_list(_decode_rule, rules)),
        discovered=set(_decode_list(_decode_probe_target, discovered)))


@dataclasses.dataclass
class _Span:
    """A decoded span record, checked whole before any of it applies."""

    first_day: int
    next_day: int
    profiles: list
    exploits: list
    c2s: list
    ddos: list
    seen: set
    cursors: dict
    rules: list


def _decode_span(body: dict) -> _Span:
    first, end, profiles, exploits, c2s, ddos, seen, cursors, rules = \
        _fields(body, "span", _SPAN)
    return _Span(INT.decode(first), INT.decode(end),
                 PROFILE.decode_list(profiles),
                 EXPLOIT.decode_list(exploits), C2.decode_list(c2s),
                 DDOS.decode_list(ddos), STR_SET.decode(seen),
                 _decode_cursors(cursors), _decode_list(_decode_rule, rules))


def _apply_span(state: StudyState, span: _Span, ddos_at: dict) -> None:
    """Fold one decoded span into ``state``; cannot fail half way."""
    datasets = state.datasets
    datasets.profiles.extend(span.profiles)
    datasets.d_exploits.extend(span.exploits)
    for record in span.c2s:     # an upsert keeps the dict's order
        datasets.d_c2s[record.endpoint] = record
    for record in span.ddos:
        at = ddos_at.get(record.origin)
        if at is None:
            ddos_at[record.origin] = len(datasets.d_ddos)
            datasets.d_ddos.append(record)
        else:
            datasets.d_ddos[at] = record
    state.seen_hashes |= span.seen
    state.feed_cursor = span.cursors
    state.rule_days.update(span.rules)
    state.next_day = span.next_day


def encode_study(fingerprint: str, state: StudyState) -> bytes:
    """A whole journal file holding one finalized study: the header and a
    snapshot record.  It is both a compacted journal and a cache entry."""
    if not state.finalized:
        raise ValueError("only a finalized study compacts to a snapshot")
    return _header(fingerprint, state.total_days) + _snapshot(state)


def replay(blob: bytes, fingerprint: str,
           total_days: int | None = None) -> tuple[StudyState, int]:
    """Replay a journal: ``(state, end)`` after its last good record.

    ``end`` is the offset just past that record; ``end < len(blob)``
    means a torn or corrupt tail was dropped.  Raises
    :class:`JournalError` when the file is not a journal of this
    ``fingerprint`` (and, if given, of ``total_days`` days).
    """
    if not blob.startswith(_PREFIX):
        raise JournalError("not a study journal of format version "
                           f"{FORMAT_VERSION}")
    body, offset = _read_record(blob, len(_PREFIX))
    if body is None or body.get("kind") != "header":
        raise JournalError("journal header is torn or corrupt")
    found, days = _fields(body, "header", _HEADER)
    if found != fingerprint:
        raise JournalError("journal belongs to another study")
    if type(days) is not int or days < 0 or \
            (total_days is not None and days != total_days):
        raise JournalError(f"journal covers {days!r} study days, "
                           f"not {total_days}")
    state = StudyState(total_days=days)
    ddos_at: dict = {}
    while not state.finalized:
        body, end = _read_record(blob, offset)
        if body is None:
            break
        try:
            if body.get("kind") == "span":
                span = _decode_span(body)
                if not state.next_day == span.first_day < span.next_day \
                        <= days:
                    break
                _apply_span(state, span, ddos_at)
            elif body.get("kind") == "snapshot":
                state = _decode_snapshot(body, days)
            else:
                break
        except JournalError:
            break
        offset = end
    return state, offset


class JournalWriter:
    """What one journal already holds, so that the next record carries
    only what changed since.

    The writer does no IO.  :meth:`records` returns the bytes that bring
    the journal up to a live :class:`StudyState`; once the caller has
    put them on disk it calls :meth:`commit`.  A write that fails is
    simply not committed: the next call covers its days as well, and
    the caller truncates the file to :attr:`offset` first.
    """

    def __init__(self, fingerprint: str, state: StudyState | None = None,
                 offset: int = 0):
        self.fingerprint = fingerprint
        #: end of the last record on disk (0: nothing usable on disk)
        self.offset = offset
        self.next_day = 0
        self.finalized = False
        self._profiles = self._exploits = self._rules = 0
        self._seen: set[str] = set()
        self._pending = None
        if state is not None:
            self._mark(state, state.seen_hashes)

    def _mark(self, state: StudyState, seen) -> None:
        self.next_day = state.next_day
        self.finalized = state.finalized
        self._profiles = len(state.datasets.profiles)
        self._exploits = len(state.datasets.d_exploits)
        self._rules = len(state.rule_days)
        self._seen |= seen

    def records(self, state: StudyState) -> bytes:
        """The bytes that bring the journal up to ``state``.

        Empty when there is nothing new.  For a finalized ``state`` it is
        a whole compacted file (:func:`encode_study`) to write in place
        of the journal; otherwise one span record covering the days run
        since the last commit, to append at :attr:`offset` (after a
        header when the journal is empty).

        A span holds the profiles and exploit rows appended since, the
        C2 records those days touched and the DDoS records on them, the
        newly seen hashes, the feed cursors and the new rule first-days.
        The pipeline sets ``last_day`` right after it looks a C2 record
        up, and every later change to that record or its DDoS records
        happens in the same call, so ``last_day`` in the span's days
        finds every record the days touched.
        """
        self._pending = None
        if self.finalized or (state.next_day == self.next_day
                              and not state.finalized):
            return b""
        if state.finalized:
            blob = encode_study(self.fingerprint, state)
            self._pending = (state, frozenset(), len(blob))
            return blob
        datasets = state.datasets
        first = self.next_day
        c2s = [r for r in datasets.d_c2s.values() if r.last_day >= first]
        endpoints = {r.endpoint for r in c2s}
        seen = state.seen_hashes - self._seen
        blob = _frame({
            "kind": "span", "first_day": first, "next_day": state.next_day,
            "profiles": [PROFILE.encode(p)
                         for p in datasets.profiles[self._profiles:]],
            "exploits": [EXPLOIT.encode(r)
                         for r in datasets.d_exploits[self._exploits:]],
            "c2s": [C2.encode(r) for r in c2s],
            "ddos": [DDOS.encode(r) for r in datasets.d_ddos
                     if r.c2_endpoint in endpoints],
            "seen": sorted(seen),
            "cursors": _encode_cursors(state.feed_cursor),
            "rules": _encode_rules(itertools.islice(
                state.rule_days.items(), self._rules, None)),
        })
        if not self.offset:
            blob = _header(self.fingerprint, state.total_days) + blob
        self._pending = (state, seen, self.offset + len(blob))
        return blob

    def commit(self) -> None:
        """The bytes of the last :meth:`records` call are on disk."""
        if self._pending is not None:
            state, seen, self.offset = self._pending
            self._pending = None
            self._mark(state, seen)
