"""Mirai's binary C2 protocol.

Modeled on the leaked Mirai source (``bot/main.c`` and ``cnc/main.go``):

* **Check-in** — the bot opens a TCP connection and sends the 4-byte
  handshake ``00 00 00 01``, then a 1-byte source-id length and the id.
* **Keepalive** — every minute both sides exchange a 2-byte length-prefixed
  ping (length 0).
* **Attack command** — the CNC pushes a length-prefixed binary structure::

      u16  total length (of everything that follows)
      u32  duration (seconds)
      u8   attack id
      u8   target count
      per target: u32 ipv4, u8 cidr prefix
      u8   flag count
      per flag: u8 key, u8 value length, value bytes

  Flag key 7 is ``port`` in the original source; we encode the target port
  there, as real Mirai CNCs do.

The module gives both halves (bot codec and CNC codec) plus the stream
profiler MalNet uses to find DDoS commands in captured traffic.
"""

from __future__ import annotations

import struct

from .base import (
    AttackCommand,
    METHOD_STOMP,
    METHOD_SYN,
    METHOD_TLS,
    METHOD_UDP,
    METHOD_VSE,
    ProtocolError,
)

HANDSHAKE = b"\x00\x00\x00\x01"
KEEPALIVE = b"\x00\x00"

#: Attack ids from the leaked source (vector table in attack.c), reduced to
#: the methods observed in the paper.  Id 6 (GREIP) et al. are decoded but
#: mapped to their closest observed method.
ATTACK_IDS: dict[int, str] = {
    0: METHOD_UDP,      # ATK_VEC_UDP
    1: METHOD_VSE,      # ATK_VEC_VSE
    3: METHOD_SYN,      # ATK_VEC_SYN
    5: METHOD_STOMP,    # ATK_VEC_ACK_STOMP
    33: METHOD_TLS,     # custom variant id observed in modern forks
}
METHOD_IDS = {method: attack_id for attack_id, method in ATTACK_IDS.items()}

FLAG_PORT = 7  # ATK_OPT_DPORT in the leaked source


def encode_checkin(bot_id: bytes = b"") -> bytes:
    """Bot hello: handshake word plus optional source id."""
    if len(bot_id) > 255:
        raise ProtocolError("bot id too long")
    return HANDSHAKE + bytes([len(bot_id)]) + bot_id


def decode_checkin(data: bytes) -> bytes:
    """Parse a bot hello; returns the bot id (may be empty)."""
    if len(data) < 5 or data[:4] != HANDSHAKE:
        raise ProtocolError("bad mirai handshake")
    id_len = data[4]
    if len(data) < 5 + id_len:
        raise ProtocolError("truncated bot id")
    return data[5 : 5 + id_len]


def encode_attack(command: AttackCommand) -> bytes:
    """CNC-side encoding of an attack command."""
    try:
        attack_id = METHOD_IDS[command.method]
    except KeyError:
        raise ProtocolError(
            f"mirai cannot encode method {command.method!r}"
        ) from None
    port_value = str(command.target_port).encode("ascii")
    body = struct.pack("!IBB", command.duration, attack_id, 1)
    body += struct.pack("!IB", command.target_ip, 32)
    body += bytes([1])  # one flag
    body += bytes([FLAG_PORT, len(port_value)]) + port_value
    return struct.pack("!H", len(body)) + body


def _decode_body(body: bytes) -> AttackCommand:
    """Decode the body of a complete attack frame."""
    if len(body) < 6:
        raise ProtocolError("mirai attack body too short")
    duration, attack_id, target_count = struct.unpack("!IBB", body[:6])
    offset = 6
    if target_count < 1:
        raise ProtocolError("no targets")
    targets: list[int] = []
    for _ in range(target_count):
        if offset + 5 > len(body):
            raise ProtocolError("truncated target list")
        ip, _prefix = struct.unpack("!IB", body[offset : offset + 5])
        targets.append(ip)
        offset += 5
    if offset >= len(body):
        raise ProtocolError("missing flag count")
    flag_count = body[offset]
    offset += 1
    port = 0
    for _ in range(flag_count):
        if offset + 2 > len(body):
            raise ProtocolError("truncated flag")
        key, value_len = body[offset], body[offset + 1]
        offset += 2
        if offset + value_len > len(body):
            raise ProtocolError("truncated flag value")
        value = body[offset : offset + value_len]
        offset += value_len
        if key == FLAG_PORT:
            try:
                port = int(value.decode("ascii"))
            except ValueError as exc:
                raise ProtocolError("bad port flag") from exc
    method = ATTACK_IDS.get(attack_id)
    if method is None:
        raise ProtocolError(f"unknown mirai attack id {attack_id}")
    return AttackCommand(
        method=method, target_ip=targets[0], target_port=port, duration=duration
    )


def _malformed(length: int, head: bytes) -> bool:
    """Whether a frame whose length word says ``length``, of whose body
    only ``head`` has arrived, is malformed whatever the rest holds.

    True only when :func:`_decode_body` would reject the whole body at
    a field that has arrived, or at one the length rules out: a body
    too short for the fixed fields, an unknown attack id (its check
    comes last, after checks that can only reject too), no target, or
    no room for the targets and the flag count.
    """
    if length < 6:
        return True
    if len(head) > 4 and head[4] not in ATTACK_IDS:
        return True
    return len(head) > 5 and (head[5] == 0 or 6 + 5 * head[5] >= length)


def decode_attack(data: bytes) -> tuple[AttackCommand, int]:
    """Decode one attack command; returns (command, bytes_consumed)."""
    if len(data) < 2:
        raise ProtocolError("short mirai frame")
    (length,) = struct.unpack("!H", data[:2])
    if length == 0:
        raise ProtocolError("keepalive, not an attack")
    if len(data) < 2 + length:
        raise ProtocolError("truncated mirai frame")
    return _decode_body(data[2 : 2 + length]), 2 + length


def decode_stream(
    server_stream: bytes, start: int = 0,
) -> tuple[list[AttackCommand], int, list[AttackCommand]]:
    """Walk the frame stream from ``start``, :func:`extract_commands`'s
    way; returns ``(settled, offset, tail)``.

    The walk skips keepalives, decodes every well-formed attack and
    resynchronizes past anything else by sliding one byte.  A frame cut
    off by the end of the stream is skipped like a malformed one, and
    that verdict is the only one that depends on where the stream ends.
    So the walk is final up to the first such frame that the bytes
    which did arrive do not already make malformed: ``offset`` is that
    frame's, ``settled`` holds the commands before it and ``tail`` those
    after it, which the next bytes may change.  Without such a frame,
    ``offset`` is where the walk stopped and ``tail`` is empty.  Resume
    a growing stream by passing ``offset`` back as ``start``.
    """
    commands: list[AttackCommand] = []
    settled: tuple[int, int] | None = None
    offset = start
    end = len(server_stream)
    while offset + 2 <= end:
        length = server_stream[offset] << 8 | server_stream[offset + 1]
        if length == 0:  # keepalive frame
            offset += 2
            continue
        body = offset + 2
        if body + length > end:
            if settled is None and not _malformed(
                    length, server_stream[body : body + 6]):
                settled = offset, len(commands)
            offset += 1  # resync
            continue
        try:
            command = _decode_body(server_stream[body : body + length])
        except ProtocolError:
            offset += 1  # resync
            continue
        commands.append(command)
        offset = body + length
    cut, count = settled if settled is not None else (offset, len(commands))
    return commands[:count], cut, commands[count:]


def extract_commands(server_stream: bytes) -> list[AttackCommand]:
    """Profile a captured server→bot byte stream for attack commands.

    This is MalNet's Mirai profiler: it walks the length-prefixed frame
    stream, skipping keepalives, and decodes every well-formed attack.
    Garbage prefixes (e.g. partial capture) make it resynchronize by
    sliding one byte.
    """
    settled, _offset, tail = decode_stream(server_stream)
    return settled + tail


def is_checkin(client_stream: bytes) -> bool:
    """Does a captured bot→server stream begin with the Mirai hello?"""
    return client_stream.startswith(HANDSHAKE)
