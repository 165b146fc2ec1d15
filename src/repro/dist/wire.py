"""Framed message transport for the distributed runner.

Every message on a coordinator↔worker connection is one *frame*: a
4-byte big-endian payload length followed by the payload produced by
:func:`repro.core.cache.pack_entry` — a self-describing,
sha256-checksummed pickle envelope (``RPSC`` magic + format version +
payload digest + pickle).  A truncated, corrupted, or version-skewed
frame never deserializes into a half-right object, it surfaces as
:class:`WireError`.

Message catalogue (all frames are dicts with a ``"type"`` key; a
frame carries only the fields its receiver reads)::

    hello       coordinator -> worker   {protocol}
    hello-ack   worker -> coordinator   {protocol, worker, warm}
    task        coordinator -> worker   {unit, attempt, spec: TaskSpec}
    heartbeat   worker -> coordinator   {}               (while executing)
    result      worker -> coordinator   {unit, result: ShardResult, warm}
    failed      worker -> coordinator   {unit, error}
    shutdown    coordinator -> worker   {}               (close connection)

A result's try and wall time ride on the :class:`ShardResult` itself
(``attempt``, ``wall_seconds``).  The heartbeat cadence is part of the
protocol: a worker sends one every :data:`HEARTBEAT_INTERVAL` seconds
while it executes a unit, and the coordinator loses a busy worker after
:func:`heartbeat_timeout` seconds of silence, a fixed number of missed
heartbeats, so the two ends cannot disagree.

Two consumption styles: blocking :func:`recv_frame` for the worker's
one-connection-per-thread loop, and the incremental :class:`FrameDecoder`
for the coordinator's single-threaded loop, which asks
``multiprocessing.connection.wait`` on each tick which connections are
readable; there a single ``recv`` may deliver half a frame or three of
them.
"""

from __future__ import annotations

import socket
import struct

from ..core.cache import pack_entry, unpack_entry

__all__ = ["FrameDecoder", "HEARTBEAT_INTERVAL", "HEARTBEAT_MISSES",
           "PROTOCOL_VERSION", "WireError", "heartbeat_timeout",
           "recv_frame", "send_frame"]

#: bumped whenever a message's meaning changes; hello/hello-ack carry it
PROTOCOL_VERSION = 3

#: seconds between two heartbeats of a worker executing a unit
HEARTBEAT_INTERVAL = 0.5
#: heartbeats in a row a busy worker may miss before it is lost
HEARTBEAT_MISSES = 30

#: refuse absurd frame lengths before allocating (a corrupt header would
#: otherwise ask for gigabytes); a smoke-scale ShardResult is ~100 KiB
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">I")


def heartbeat_timeout() -> float:
    """Seconds of silence after which the coordinator loses a busy
    worker: :data:`HEARTBEAT_MISSES` missed heartbeats.  Computed per
    call, so a patched interval or miss count takes effect at once."""
    return HEARTBEAT_MISSES * HEARTBEAT_INTERVAL


class WireError(RuntimeError):
    """A frame that cannot be trusted: truncation, corruption, overflow,
    or a protocol version this build does not speak."""


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` and write one length-prefixed frame."""
    blob = pack_entry(message)
    if len(blob) > MAX_FRAME_BYTES:  # pragma: no cover - absurd payload
        raise WireError(f"frame of {len(blob)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte ceiling")
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def _decode(blob: bytes) -> dict:
    message = unpack_entry(blob, dict)
    if message is None:
        raise WireError("frame failed checksum/format validation")
    return message


def recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a frame
    boundary, :class:`WireError` on EOF mid-read."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if not chunks:
                return None
            raise WireError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Blocking read of one frame; ``None`` on clean EOF."""
    header = recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if not 0 < length <= MAX_FRAME_BYTES:
        raise WireError(f"frame header announces {length} bytes")
    blob = recv_exact(sock, length)
    if blob is None:
        raise WireError("connection closed between header and payload")
    return _decode(blob)


class FrameDecoder:
    """Incremental frame reassembly for non-blocking sockets.

    Feed whatever ``recv`` returned; complete messages come back in
    arrival order, partial frames are buffered until the next feed.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages: list[dict] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack(self._buffer[:_HEADER.size])
            if not 0 < length <= MAX_FRAME_BYTES:
                raise WireError(f"frame header announces {length} bytes")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            blob = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            messages.append(_decode(blob))
