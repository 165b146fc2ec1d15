"""Daddyl33t's text-based C2 protocol.

The paper had no source for this family and reverse engineered the traffic
(section 2.5a).  The dialect we reproduce matches the artifacts named in
section 5.1: ``UDPRAW``, ``HYDRASYN``, ``TLS``, ``NURSE`` (BLACKNURSE) and
``NFOV6`` commands, plus a login banner exchange.

Wire format: CRLF-terminated ASCII.  The bot logs in with
``login <user> <pass>``; the server pushes attack lines of the form::

    .<VERB> <ip> <port> <time>

BLACKNURSE targets ICMP so its port operand is ``0``; ``NFOV6`` carries a
custom payload marker and targets UDP port 238 (section 5.1).
"""

from __future__ import annotations

from .base import (
    AttackCommand,
    METHOD_BLACKNURSE,
    METHOD_HYDRASYN,
    METHOD_NFO,
    METHOD_TLS,
    METHOD_UDPRAW,
    ProtocolError,
)
from ...netsim.addresses import AddressError, int_to_ip, ip_to_int

LOGIN = b"login daddy l33t\r\n"
WELCOME = b"***** daddyl33t botnet *****\r\n"

_VERB_TO_METHOD = {
    "UDPRAW": METHOD_UDPRAW,
    "HYDRASYN": METHOD_HYDRASYN,
    "TLS": METHOD_TLS,
    "NURSE": METHOD_BLACKNURSE,
    "NFOV6": METHOD_NFO,
}
_METHOD_TO_VERB = {method: verb for verb, method in _VERB_TO_METHOD.items()}

#: NFO attacks carry a fixed custom payload towards UDP port 238 (§5.1).
NFO_PORT = 238


def encode_attack(command: AttackCommand) -> bytes:
    verb = _METHOD_TO_VERB.get(command.method)
    if verb is None:
        raise ProtocolError(f"daddyl33t cannot encode method {command.method!r}")
    return (
        f".{verb} {int_to_ip(command.target_ip)} "
        f"{command.target_port} {command.duration}\r\n"
    ).encode("ascii")


def decode_attack_line(line: str) -> AttackCommand:
    parts = line.strip().split()
    if not parts or not parts[0].startswith("."):
        raise ProtocolError(f"not a daddyl33t command: {line!r}")
    verb = parts[0][1:].upper()
    method = _VERB_TO_METHOD.get(verb)
    if method is None:
        raise ProtocolError(f"unknown daddyl33t verb: {verb!r}")
    if len(parts) < 4:
        raise ProtocolError(f"short {verb} command: {line!r}")
    try:
        target_ip = ip_to_int(parts[1])
        port = int(parts[2])
        duration = int(parts[3])
    except (AddressError, ValueError) as exc:
        raise ProtocolError(f"bad {verb} operands: {line!r}") from exc
    return AttackCommand(
        method=method, target_ip=target_ip, target_port=port, duration=duration
    )


def _decode_lines(data: bytes) -> list[AttackCommand]:
    commands: list[AttackCommand] = []
    for raw_line in data.replace(b"\r", b"\n").split(b"\n"):
        line = raw_line.decode("ascii", "replace").strip()
        if not line.startswith("."):
            continue
        try:
            commands.append(decode_attack_line(line))
        except ProtocolError:
            continue
    return commands


def decode_stream(
    server_stream: bytes, start: int = 0,
) -> tuple[list[AttackCommand], int, list[AttackCommand]]:
    """Decode the lines from ``start``; returns ``(settled, offset, tail)``.

    The profiler ends a line at a ``\\r`` as at a ``\\n``, so a line is
    final once either has arrived: ``offset`` is just past the last one,
    ``settled`` holds the commands of the lines before it and ``tail``
    those of the unterminated rest.  Resume a growing stream by passing
    ``offset`` back as ``start``.
    """
    cut = max(server_stream.rfind(b"\r", start),
              server_stream.rfind(b"\n", start)) + 1 or start
    return (_decode_lines(server_stream[start:cut]), cut,
            _decode_lines(server_stream[cut:]))


def extract_commands(server_stream: bytes) -> list[AttackCommand]:
    """Profile a captured server→bot text stream for attack commands."""
    settled, _offset, tail = decode_stream(server_stream)
    return settled + tail


def is_checkin(client_stream: bytes) -> bool:
    return client_stream[:32].lower().startswith(b"login ")
