"""Tsunami/Kaiten IRC C2 dialect.

Tsunami's distinction in the study is its IRC transport (Table 6).  The
bot registers with ``NICK``/``USER``, joins a channel, and receives
commands as ``PRIVMSG`` lines.  Attack verbs follow the classic Kaiten
style (``UDP <ip> <port> <secs>``).  MalNet does not build a dedicated
Tsunami DDoS profiler in the paper (only Mirai/Gafgyt/Daddyl33t get
profiles); Tsunami attacks, if any, are caught by the behavioral
heuristic — we mirror that split, but still implement enough IRC to
activate the samples in the sandbox.
"""

from __future__ import annotations

import random

from .base import AttackCommand, METHOD_UDP, ProtocolError
from ...netsim.addresses import AddressError, int_to_ip, ip_to_int

DEFAULT_CHANNEL = "#iot"


def encode_register(nick: str) -> bytes:
    """Bot registration burst: NICK, USER, JOIN."""
    if not nick or " " in nick:
        raise ProtocolError(f"bad nick {nick!r}")
    return (
        f"NICK {nick}\r\n"
        f"USER {nick} localhost localhost :{nick}\r\n"
        f"JOIN {DEFAULT_CHANNEL}\r\n"
    ).encode("ascii")


def random_nick(rng: random.Random) -> str:
    """Kaiten-style random nick."""
    return "MIPS|" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))


def encode_welcome(server_name: str = "irc.c2") -> bytes:
    return f":{server_name} 001 bot :Welcome\r\n".encode("ascii")


def encode_ping(token: str = "c2") -> bytes:
    return f"PING :{token}\r\n".encode("ascii")


def encode_pong(token: str = "c2") -> bytes:
    return f"PONG :{token}\r\n".encode("ascii")


def encode_attack(command: AttackCommand, channel: str = DEFAULT_CHANNEL) -> bytes:
    """Attack order as a channel PRIVMSG (Kaiten verb style)."""
    if command.method != METHOD_UDP:
        raise ProtocolError(f"tsunami only launches UDP floods, not {command.method}")
    return (
        f":op PRIVMSG {channel} :UDP {int_to_ip(command.target_ip)} "
        f"{command.target_port} {command.duration}\r\n"
    ).encode("ascii")


def _decode_lines(data: bytes) -> list[AttackCommand]:
    commands: list[AttackCommand] = []
    for raw in data.split(b"\r\n"):
        line = raw.decode("ascii", "replace")
        if "PRIVMSG" not in line or " :" not in line:
            continue
        text = line.split(" :", 1)[1]
        parts = text.split()
        if len(parts) != 4 or parts[0].upper() != "UDP":
            continue
        try:
            commands.append(
                AttackCommand(
                    method=METHOD_UDP,
                    target_ip=ip_to_int(parts[1]),
                    target_port=int(parts[2]),
                    duration=int(parts[3]),
                )
            )
        except (AddressError, ValueError):
            continue
    return commands


def decode_stream(
    server_stream: bytes, start: int = 0,
) -> tuple[list[AttackCommand], int, list[AttackCommand]]:
    """Decode the lines from ``start``; returns ``(settled, offset, tail)``.

    A line is final once its ``\\r\\n`` has arrived (a ``\\r`` alone may
    be the first half of one): ``offset`` is just past the last
    ``\\r\\n``, ``settled`` holds the commands of the lines before it and
    ``tail`` those of the unterminated rest.  Resume a growing stream by
    passing ``offset`` back as ``start``.
    """
    last = server_stream.rfind(b"\r\n", start)
    cut = last + 2 if last >= 0 else start
    return (_decode_lines(server_stream[start:cut]), cut,
            _decode_lines(server_stream[cut:]))


def extract_commands(server_stream: bytes) -> list[AttackCommand]:
    """Parse PRIVMSG attack orders out of a server→bot IRC stream."""
    settled, _offset, tail = decode_stream(server_stream)
    return settled + tail


def is_checkin(client_stream: bytes) -> bool:
    head = client_stream[:64].upper()
    return head.startswith(b"NICK ") or b"\r\nUSER " in head
