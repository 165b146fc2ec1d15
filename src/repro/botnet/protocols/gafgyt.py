"""Gafgyt's text-based C2 protocol.

Modeled on the public Gafgyt/BASHLITE source: newline-terminated ASCII.

* Bot check-in: ``BUILD <arch>`` then periodic ``PING`` which the server
  answers with ``PONG``.
* Broadcast commands from the server start with ``!*``::

      !* UDP <ip> <port> <time> [...]
      !* STD <ip> <port> <time>
      !* VSE <ip> <port> <time>
      !* SCANNER ON|OFF
      !* KILLATTK

The profiler extracts DDoS commands from the server→bot text stream; the
paper builds this profile from the malware's published source (2.5a).
"""

from __future__ import annotations

from .base import (
    AttackCommand,
    METHOD_STD,
    METHOD_UDP,
    METHOD_VSE,
    ProtocolError,
)
from ...netsim.addresses import AddressError, int_to_ip, ip_to_int

CHECKIN = b"BUILD MIPS\n"
PING = b"PING\n"
PONG = b"PONG\n"

_VERB_TO_METHOD = {
    "UDP": METHOD_UDP,
    "STD": METHOD_STD,
    "VSE": METHOD_VSE,
}
_METHOD_TO_VERB = {method: verb for verb, method in _VERB_TO_METHOD.items()}


def encode_attack(command: AttackCommand) -> bytes:
    """Server-side line for an attack command."""
    verb = _METHOD_TO_VERB.get(command.method)
    if verb is None:
        raise ProtocolError(f"gafgyt cannot encode method {command.method!r}")
    return (
        f"!* {verb} {int_to_ip(command.target_ip)} "
        f"{command.target_port} {command.duration}\n"
    ).encode("ascii")


def decode_attack_line(line: str) -> AttackCommand | None:
    """Decode one ``!*`` line; None for non-attack commands (SCANNER etc.)."""
    parts = line.strip().split()
    if len(parts) < 2 or parts[0] != "!*":
        raise ProtocolError(f"not a gafgyt broadcast: {line!r}")
    verb = parts[1].upper()
    method = _VERB_TO_METHOD.get(verb)
    if method is None:
        return None  # KILLATTK, SCANNER ON, etc.
    if len(parts) < 5:
        raise ProtocolError(f"short {verb} command: {line!r}")
    try:
        target_ip = ip_to_int(parts[2])
        port = int(parts[3])
        duration = int(parts[4])
    except (AddressError, ValueError) as exc:
        raise ProtocolError(f"bad {verb} operands: {line!r}") from exc
    return AttackCommand(
        method=method, target_ip=target_ip, target_port=port, duration=duration
    )


def _decode_lines(data: bytes) -> list[AttackCommand]:
    commands: list[AttackCommand] = []
    for raw_line in data.split(b"\n"):
        line = raw_line.decode("ascii", "replace").strip()
        if not line.startswith("!*"):
            continue
        try:
            command = decode_attack_line(line)
        except ProtocolError:
            continue
        if command is not None:
            commands.append(command)
    return commands


def decode_stream(
    server_stream: bytes, start: int = 0,
) -> tuple[list[AttackCommand], int, list[AttackCommand]]:
    """Decode the lines from ``start``; returns ``(settled, offset, tail)``.

    A line is final once its ``\\n`` has arrived: ``offset`` is just
    past the last one, ``settled`` holds the commands of the lines before
    it and ``tail`` those of the unterminated rest, which the next bytes
    may extend.  Resume a growing stream by passing ``offset`` back as
    ``start``.
    """
    cut = server_stream.rfind(b"\n", start) + 1 or start
    return (_decode_lines(server_stream[start:cut]), cut,
            _decode_lines(server_stream[cut:]))


def extract_commands(server_stream: bytes) -> list[AttackCommand]:
    """Profile a captured server→bot text stream for attack commands."""
    settled, _offset, tail = decode_stream(server_stream)
    return settled + tail


def is_checkin(client_stream: bytes) -> bool:
    """Does a captured bot→server stream look like a Gafgyt check-in?"""
    head = client_stream[:64].upper()
    return head.startswith(b"BUILD") or head.startswith(b"PING")
