"""Persistent, content-addressed cache of completed studies.

A study's output is a pure function of ``(seed, scale, PipelineConfig)``
— the invariant the sharded runner and the fault layer keep — plus the
code that computes it.
:class:`StudyCache` exploits this: :func:`study_fingerprint` hashes all
four ingredients (the fault plan rides along inside the config, the
code version is a digest over the ``repro`` package sources), and the
cache stores the finished study's :class:`Datasets` together with the
probing campaign's discovery set under that fingerprint.  A hit
reconstructs the exact bytes a fresh run would produce; any change to
seed, scale, faults, config, or code changes the fingerprint and misses.

An entry is a finalized study journal (:mod:`repro.core.journal`): a
versioned header naming the fingerprint, then one sha256-framed snapshot
record in an explicit JSON codec — the same file a finalized service
checkpoint holds.  Reads treat *any* mismatch — truncation, corruption,
foreign or pre-journal files, a study that is not finalized — as a miss
and fall through to recompute; writes are atomic (temp file +
``os.replace``) so a crashed writer never leaves a half-entry behind.

:func:`pack_entry`/:func:`unpack_entry` are the checksummed pickle
envelope of the distributed runner's wire frames
(:mod:`repro.dist.wire`); nothing on disk uses them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile

from .journal import JournalError, StudyState, encode_study, replay
from .pipeline import PipelineConfig

__all__ = ["StudyCache", "dataset_diff", "dataset_digest",
           "code_fingerprint", "study_fingerprint",
           "pack_entry", "unpack_entry", "write_atomic"]

#: wire envelope layout: magic + 1-byte format version + payload sha256
_MAGIC = b"RPSC"
_FORMAT_VERSION = 1
_HEADER_LEN = len(_MAGIC) + 1 + hashlib.sha256().digest_size

_CODE_FINGERPRINT: str | None = None


# -- canonical digests -------------------------------------------------------


#: the exact types :func:`_canon` returns unchanged
_PLAIN = frozenset({str, int, bool, type(None)})

#: dataclass type -> (its name, the names of its compared fields): a
#: memo of a pure function of the type, filled the first time
#: :func:`_canon` meets an instance of it
_COMPARED: dict[type, tuple[str, tuple[str, ...]]] = {}


def _canon(value):
    """The canonical JSON-able form of ``value``: a dataclass becomes
    ``{"__type__": name, field: ...}`` over its compared fields, a dict
    a list of ``[key, value]`` pairs, a set a sorted list, a tuple a
    list, bytes hex text and a float its ``repr``.

    Dispatch is on the exact type, and a primitive field or list item is
    kept inline without a call.  Any other type (a namedtuple, an
    ``IntEnum``, a dataclass met for the first time) takes the
    ``isinstance`` chain of :func:`_canon_subclass`.
    """
    kind = type(value)
    if kind in _PLAIN:
        return value
    compared = _COMPARED.get(kind)
    if compared is not None:
        name, fields = compared
        canon = {"__type__": name}
        for attr in fields:
            item = getattr(value, attr)
            canon[attr] = item if type(item) in _PLAIN else _canon(item)
        return canon
    if kind is list or kind is tuple:
        return [item if type(item) in _PLAIN else _canon(item)
                for item in value]
    if kind is dict:
        return [[_canon(key), _canon(item)] for key, item in value.items()]
    if kind is float:
        return repr(value)
    if kind is set or kind is frozenset:
        return sorted([_canon(item) for item in value])
    if kind is bytes:
        return value.hex()
    return _canon_subclass(value)


def _canon_subclass(value):
    """:func:`_canon` of a value whose exact type it does not dispatch."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = type(value)
        _COMPARED[kind] = (kind.__name__, tuple(
            f.name for f in dataclasses.fields(value) if f.compare))
        return _canon(value)
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return repr(value)
    return value


def _canon_text(canonical) -> str:
    return json.dumps(canonical, separators=(",", ":"), sort_keys=False)


def dataset_digest(datasets) -> str:
    """Canonical sha256 over a :class:`Datasets` (or any dataclass tree).

    Stable across processes and ``PYTHONHASHSEED`` values: sets are
    sorted, floats use ``repr``, and non-compare fields (caches, indexes)
    are excluded — two equal datasets always digest identically.  This is
    the byte-identity oracle of the golden tests; :func:`dataset_diff`
    explains a mismatch.
    """
    return hashlib.sha256(_canon_text(_canon(datasets)).encode()).hexdigest()


#: the fields that name a record of each dataset in :func:`dataset_diff`
_RECORD_KEYS = {
    "profiles": ("sha256", "day"),
    "d_c2s": ("endpoint",),
    "d_exploits": ("sha256", "vuln_key"),
    "d_ddos": ("origin",),
    "d_pc2": ("c2_address", "c2_port", "slot"),
}


def _short(value, width: int = 60) -> str:
    """A canonical value for a report line: long strings cut to 8 chars."""
    if isinstance(value, str) and len(value) > 16:
        return repr(value[:8] + "…")
    if isinstance(value, list):
        text = "[" + ", ".join(_short(item) for item in value) + "]"
    else:
        text = repr(value)
    return text if len(text) <= width else text[:width - 1] + "…"


def _first_difference(expected, actual) -> tuple[str, object, object]:
    """``(path, expected, actual)`` at the first differing canonical leaf."""
    if isinstance(expected, dict) and isinstance(actual, dict) \
            and expected.keys() == actual.keys():
        for key in expected:
            if _canon_text(expected[key]) != _canon_text(actual[key]):
                path, left, right = _first_difference(expected[key],
                                                      actual[key])
                return f".{key}{path}", left, right
    if isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual):
        for index, (left, right) in enumerate(zip(expected, actual)):
            if _canon_text(left) != _canon_text(right):
                path, left, right = _first_difference(left, right)
                return f"[{index}]{path}", left, right
    return "", expected, actual


def _records(name: str, rows: list) -> list[tuple[str, str, object]]:
    """``(identity, label, body)`` of each canonical record of a dataset."""
    if name == "d_c2s":     # a dict: [endpoint, record] pairs
        rows = [record for _endpoint, record in rows]
    fields = _RECORD_KEYS[name]
    return [(_canon_text([row[f] for f in fields]),
             " ".join(f"{f}={_short(row[f])}" for f in fields), row)
            for row in rows]


def _record_difference(name: str, expected: list, actual: list) -> str:
    """Name the first record of one dataset where the two runs part."""
    left, right = _records(name, expected), _records(name, actual)
    counts = f"({len(left)} vs {len(right)} records)"
    left_ids = {identity for identity, _label, _body in left}
    right_ids = {identity for identity, _label, _body in right}
    for index in range(max(len(left), len(right))):
        mine = left[index] if index < len(left) else None
        theirs = right[index] if index < len(right) else None
        if mine and theirs and mine[0] == theirs[0] \
                and _canon_text(mine[2]) == _canon_text(theirs[2]):
            continue
        if theirs is None or (mine and mine[0] not in right_ids):
            return f"{name}[{index}] ({mine[1]}): only in expected {counts}"
        if mine is None or theirs[0] not in left_ids:
            return f"{name}[{index}] ({theirs[1]}): only in actual {counts}"
        if mine[0] != theirs[0]:
            return (f"{name}[{index}]: order differs: expected "
                    f"({mine[1]}), actual ({theirs[1]})")
        path, was, now = _first_difference(mine[2], theirs[2])
        return (f"{name}[{index}] ({mine[1]}){path}: "
                f"{_short(was)} != {_short(now)}")
    return f"{name}: differs"


def dataset_diff(expected, actual) -> str | None:
    """The first difference between two :class:`Datasets`, or None.

    None exactly when both digest alike (:func:`dataset_digest`): it
    walks the same canonical form, so fields with ``compare=False`` are
    invisible to both.  Otherwise one line names the dataset, the record
    by its key (:data:`_RECORD_KEYS`) and the field, with both values
    truncated, e.g. ``d_ddos[3] (origin=[25, '55e3e238…', 0]).verified:
    True != False``.  A record present on one side only reads ``only in
    expected``/``only in actual``; records present on both sides at
    different positions read as an order difference.
    """
    left, right = _canon(expected), _canon(actual)
    if _canon_text(left) == _canon_text(right):
        return None
    if isinstance(left, dict) and isinstance(right, dict) \
            and left.keys() == right.keys():
        for name in left:
            if name in _RECORD_KEYS \
                    and _canon_text(left[name]) != _canon_text(right[name]):
                return _record_difference(name, left[name], right[name])
    path, was, now = _first_difference(left, right)
    return f"{path.lstrip('.') or 'value'}: {_short(was)} != {_short(now)}"


def code_fingerprint() -> str:
    """sha256 over the ``repro`` package sources (memoized per process).

    A cached study must never survive a code change — the whole point of
    the optimization PRs is that behavior is a function of the sources.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        hasher = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                hasher.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as fh:
                    hasher.update(fh.read())
        _CODE_FINGERPRINT = hasher.hexdigest()
    return _CODE_FINGERPRINT


def study_fingerprint(seed: int, scale, config: PipelineConfig | None = None,
                      code: str | None = None) -> str:
    """Content address of one study: (seed, scale, config, code version).

    ``config=None`` fingerprints identically to an explicit default
    ``PipelineConfig()`` — they run the same study.  The fault plan is a
    dataclass field of the config, so it is part of the address
    automatically.
    """
    ingredients = {
        "seed": seed,
        "scale": _canon(scale),
        "config": _canon(config or PipelineConfig()),
        "code": code if code is not None else code_fingerprint(),
    }
    text = json.dumps(ingredients, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- the wire envelope --------------------------------------------------------
#
# One pickled message framed as magic + format version + payload sha256 +
# pickle.  Only the distributed runner's wire frames use it; study files
# are journals (:mod:`repro.core.journal`).


def pack_entry(entry: object) -> bytes:
    """Frame one picklable object as a self-verifying blob."""
    payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    return (_MAGIC + bytes([_FORMAT_VERSION])
            + hashlib.sha256(payload).digest() + payload)


def unpack_entry(blob: bytes, expect: type = object):
    """Verify and unpickle a :func:`pack_entry` blob.

    Returns ``None`` on *any* anomaly — bad magic, version skew,
    checksum mismatch, unpicklable payload, or a payload that is not an
    ``expect`` instance.
    """
    if len(blob) <= _HEADER_LEN or not blob.startswith(_MAGIC):
        return None
    if blob[len(_MAGIC)] != _FORMAT_VERSION:
        return None
    checksum = blob[len(_MAGIC) + 1:_HEADER_LEN]
    payload = blob[_HEADER_LEN:]
    if hashlib.sha256(payload).digest() != checksum:
        return None
    try:
        entry = pickle.loads(payload)
    except Exception:
        return None
    return entry if isinstance(entry, expect) else None


def write_atomic(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via temp file + ``os.replace``."""
    root = os.path.dirname(path) or "."
    os.makedirs(root, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# -- the cache ---------------------------------------------------------------


class StudyCache:
    """On-disk study store keyed by :func:`study_fingerprint`.

    An entry is a finalized study journal (:func:`encode_study`).
    ``hits`` / ``misses`` / ``rejected`` count lookups for telemetry and
    tests; ``rejected`` counts entries that existed but failed
    verification (and were treated as misses).
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self._lookups = None

    def bind_metrics(self, metrics) -> None:
        """Mirror lookups into ``study_cache_lookups_total{result=...}``.

        One increment per :meth:`get` — ``result`` is ``hit``, ``miss``,
        or ``rejected`` (an entry that existed but failed verification).
        The plain integer attributes keep counting either way.
        """
        self._lookups = metrics.counter(
            "study_cache_lookups_total",
            "study cache lookups by result (hit/miss/rejected)",
            labelnames=("result",))

    def _count(self, result: str) -> None:
        if self._lookups is not None:
            self._lookups.labels(result=result).inc()

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{fingerprint}.study")

    def get(self, fingerprint: str) -> StudyState | None:
        """The cached study for ``fingerprint``, or None on any doubt."""
        try:
            with open(self.path_for(fingerprint), "rb") as fh:
                blob = fh.read()
        except OSError:
            self.misses += 1
            self._count("miss")
            return None
        try:
            state, end = replay(blob, fingerprint)
        except JournalError:
            state = None
        if state is None or not state.finalized or end != len(blob):
            self.rejected += 1
            self.misses += 1
            self._count("rejected")
            return None
        self.hits += 1
        self._count("hit")
        return state

    def put(self, fingerprint: str, state: StudyState) -> str:
        """Atomically persist a finalized study; returns the entry path."""
        path = self.path_for(fingerprint)
        write_atomic(path, encode_study(fingerprint, state))
        return path
