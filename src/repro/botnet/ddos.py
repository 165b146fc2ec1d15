"""DDoS attack traffic generators — the 8 attack types of section 5.1.

Each generator turns an :class:`AttackCommand` into the packet stream a
bot would emit, reproducing the distinguishing behaviors the paper
describes per type (payloads, source-port strategies, protocol choice).
Packet counts are capped (the sandbox contains attacks anyway, section
2.6) but timestamps keep the real emission *rate*, because MalNet's
behavioral heuristic triggers on >100 packets/second (section 2.5b).
"""

from __future__ import annotations

import random
import string

from ..netsim.addresses import ephemeral_port
from ..netsim.packet import (
    ACK, PSH, RST, SYN, Packet, icmp_packet, tcp_packet, udp_packet,
)
from .protocols.base import (
    AttackCommand,
    METHOD_BLACKNURSE,
    METHOD_HYDRASYN,
    METHOD_NFO,
    METHOD_STD,
    METHOD_STOMP,
    METHOD_SYN,
    METHOD_TLS,
    METHOD_UDP,
    METHOD_UDPRAW,
    METHOD_VSE,
)

#: Nominal emission rate of a flooding bot (packets/second).  Far above
#: the 100 pps detection threshold, as in real attacks.
FLOOD_PPS = 1000.0

#: "TSource Engine Query" — the exact VSE amplification probe, from the
#: Valve Source Engine protocol (and the leaked Mirai source).
VSE_PROBE = b"\xff\xff\xff\xffTSource Engine Query\x00"

#: NFO attacks use a custom payload towards UDP port 238 (section 5.1).
NFO_PAYLOAD = b"NFOV6" + b"\x00" * 27


class AttackVariant:
    """Per-variant knobs the paper observed (section 5.1).

    * Mirai UDP: some variants keep one source port, others rotate.
    * Mirai SYN: (a) multi sport / one dport, (b) multi sport / multi dport.
    """

    def __init__(self, rotate_source_ports: bool = False,
                 rotate_dest_ports: bool = False):
        self.rotate_source_ports = rotate_source_ports
        self.rotate_dest_ports = rotate_dest_ports


def generate_attack(
    command: AttackCommand,
    bot_ip: int,
    rng: random.Random,
    start_time: float,
    max_packets: int = 400,
    variant: AttackVariant | None = None,
) -> list[Packet]:
    """Emit the (capped) packet stream for one attack command."""
    variant = variant or AttackVariant()
    builders = {
        METHOD_UDP: _udp_flood,
        METHOD_UDPRAW: _udp_flood,
        METHOD_SYN: _syn_flood,
        METHOD_HYDRASYN: _syn_flood,
        METHOD_TLS: _tls_attack,
        METHOD_BLACKNURSE: _blacknurse,
        METHOD_STOMP: _stomp,
        METHOD_VSE: _vse,
        METHOD_STD: _std,
        METHOD_NFO: _nfo,
    }
    builder = builders[command.method]
    count = min(max_packets, int(command.duration * FLOOD_PPS))
    return builder(command, bot_ip, rng, start_time, count, variant)


def _times(start: float, count: int):
    interval = 1.0 / FLOOD_PPS
    return (start + i * interval for i in range(count))


def _udp_flood(command, bot_ip, rng, start, count, variant):
    """UDP flood: continuous packets, null-byte payload (all 3 families)."""
    fixed_sport = ephemeral_port(rng)
    packets = []
    for ts in _times(start, count):
        sport = ephemeral_port(rng) if variant.rotate_source_ports else fixed_sport
        packets.append(
            udp_packet(bot_ip, command.target_ip, sport, command.target_port,
                       b"\x00", timestamp=ts)
        )
    return packets


def _syn_flood(command, bot_ip, rng, start, count, variant):
    """SYN flood: first-handshake packets from many source ports."""
    packets = []
    for ts in _times(start, count):
        dport = (
            rng.randrange(1, 65536) if variant.rotate_dest_ports
            else command.target_port
        )
        packets.append(
            tcp_packet(bot_ip, command.target_ip, ephemeral_port(rng), dport,
                       SYN, seq=rng.randrange(1, 2**32),
                       timestamp=ts)
        )
    return packets


def _tls_attack(command, bot_ip, rng, start, count, variant):
    """TLS exhaustion.

    Daddyl33t flavor: repeated encoded messages at a UDP port (DTLS-ish).
    Mirai flavor: TCP handshake, chunked large message, RST, repeat.  The
    choice follows ``variant.rotate_source_ports`` being False (daddyl33t
    keeps one socket) vs True (Mirai re-opens).
    """
    packets = []
    if not variant.rotate_source_ports:
        sport = ephemeral_port(rng)
        blob = bytes(rng.randrange(256) for _ in range(48))
        for ts in _times(start, count):
            packets.append(
                udp_packet(bot_ip, command.target_ip, sport, command.target_port,
                           b"\x16\xfe\xfd" + blob, timestamp=ts)
            )
        return packets
    # Mirai TCP mode: handshake + chunked client-hello-like blob + RST
    per_round = 8
    rounds = max(1, count // per_round)
    interval = 1.0 / FLOOD_PPS
    ts = start
    for _ in range(rounds):
        sport = ephemeral_port(rng)
        seq = rng.randrange(1, 2**32)
        packets.append(tcp_packet(bot_ip, command.target_ip, sport,
                                  command.target_port, SYN, seq=seq,
                                  timestamp=ts)); ts += interval
        packets.append(tcp_packet(bot_ip, command.target_ip, sport,
                                  command.target_port, ACK,
                                  seq=seq + 1, timestamp=ts)); ts += interval
        for chunk in range(per_round - 3):
            payload = b"\x16\x03\x01" + bytes(rng.randrange(256) for _ in range(64))
            packets.append(
                tcp_packet(bot_ip, command.target_ip, sport, command.target_port,
                           PSH | ACK, payload,
                           seq=seq + 1 + chunk * 67, timestamp=ts))
            ts += interval
        packets.append(tcp_packet(bot_ip, command.target_ip, sport,
                                  command.target_port, RST,
                                  timestamp=ts)); ts += interval
    return packets


def _blacknurse(command, bot_ip, rng, start, count, variant):
    """BLACKNURSE: unsolicited ICMP type 3 (code 3) floods (daddyl33t)."""
    return [
        icmp_packet(bot_ip, command.target_ip, icmp_type=3, icmp_code=3,
                    payload=bytes(28), timestamp=ts)
        for ts in _times(start, count)
    ]


def _stomp(command, bot_ip, rng, start, count, variant):
    """STOMP: TCP handshake then junk STOMP frames."""
    packets = []
    sport = ephemeral_port(rng)
    seq = rng.randrange(1, 2**32)
    interval = 1.0 / FLOOD_PPS
    ts = start
    packets.append(tcp_packet(bot_ip, command.target_ip, sport,
                              command.target_port, SYN, seq=seq,
                              timestamp=ts)); ts += interval
    packets.append(tcp_packet(bot_ip, command.target_ip, sport,
                              command.target_port, ACK, seq=seq + 1,
                              timestamp=ts)); ts += interval
    offset = 0
    for _ in range(max(0, count - 2)):
        junk = "".join(rng.choice(string.ascii_letters) for _ in range(32))
        frame = f"SEND\ndestination:/queue/x\n\n{junk}\x00".encode("ascii")
        packets.append(
            tcp_packet(bot_ip, command.target_ip, sport, command.target_port,
                       PSH | ACK, frame,
                       seq=seq + 1 + offset, timestamp=ts))
        offset += len(frame)
        ts += interval
    return packets


def _vse(command, bot_ip, rng, start, count, variant):
    """VSE: TSource Engine Query floods at a game server (UDP)."""
    sport = ephemeral_port(rng)
    return [
        udp_packet(bot_ip, command.target_ip, sport, command.target_port,
                   VSE_PROBE, timestamp=ts)
        for ts in _times(start, count)
    ]


def _std(command, bot_ip, rng, start, count, variant):
    """STD: one random string generated once, then flooded (Gafgyt)."""
    text = "".join(rng.choice(string.ascii_lowercase) for _ in range(32))
    payload = text.encode("ascii")
    sport = ephemeral_port(rng)
    return [
        udp_packet(bot_ip, command.target_ip, sport, command.target_port,
                   payload, timestamp=ts)
        for ts in _times(start, count)
    ]


def _nfo(command, bot_ip, rng, start, count, variant):
    """NFO: custom payload at UDP port 238 of the target (daddyl33t)."""
    sport = ephemeral_port(rng)
    return [
        udp_packet(bot_ip, command.target_ip, sport, 238, NFO_PAYLOAD,
                   timestamp=ts)
        for ts in _times(start, count)
    ]
