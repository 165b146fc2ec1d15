"""Bot runtime: the behavior a malware binary exhibits when activated.

The sandbox's "QEMU emulation" of a synthetic sample boils down to driving
one of these: a :class:`Bot` is constructed from the binary's recovered
:class:`~repro.binary.config.BotConfig` and then performs the family's
observable network behavior — C2 check-in and keepalive, proliferation
scanning with credential/exploit delivery, P2P bootstrap for Mozi/Hajime,
and DDoS execution when commanded.

All C2, P2P and attack I/O goes through a :class:`NetworkAdapter` so the
sandbox can interpose: fake the Internet entirely (observe mode) or
redirect C2 traffic to arbitrary probe targets (weaponized mode,
CnCHunter's MITM trick).  Proliferation scanning is drawn in batches —
:meth:`Bot.scan_targets` and :meth:`Bot.attack_payloads` — that the
handshaker of section 2.4 consumes one burst at a time.
"""

from __future__ import annotations

import random
from typing import Protocol as TypingProtocol

from ..binary.config import BotConfig
from ..determinism import draw_pairs
from ..netsim.addresses import ephemeral_port, ip_to_int, is_reserved
from ..netsim.capture import Capture
from ..netsim.internet import SECONDS_PER_DAY, STUDY_EPOCH
from ..netsim.packet import Packet, udp_packet
from .ddos import AttackVariant, generate_attack
from .exploits import EXPLOIT_INDEX, vulnerability_for_index
from .families import C2Dialect, Family, dga_domains, get_family
from .protocols import daddyl33t, gafgyt, irc, mirai, p2p
from .protocols.base import AttackCommand

TELNET_PORTS = (23, 2323)

#: Classic Mirai credential dictionary (excerpt) used on telnet scans.
TELNET_CREDENTIALS = (
    (b"root", b"xc3511"),
    (b"root", b"vizxv"),
    (b"admin", b"admin"),
    (b"root", b"default"),
    (b"support", b"support"),
)

#: what a bot sends to a victim port it carries no exploit for
_PROBE = (b"GET / HTTP/1.0\r\n\r\n",)

#: each C2 dialect's resumable stream decoder (a P2P bot has no C2)
_DECODERS = {
    C2Dialect.MIRAI_BINARY: mirai.decode_stream,
    C2Dialect.GAFGYT_TEXT: gafgyt.decode_stream,
    C2Dialect.DADDYL33T_TEXT: daddyl33t.decode_stream,
    C2Dialect.IRC: irc.decode_stream,
}


class BotSession(TypingProtocol):
    """The connection handle a :class:`NetworkAdapter` returns."""

    def send(self, data: bytes) -> None: ...
    def recv(self) -> bytes: ...
    def close(self) -> None: ...


class NetworkAdapter(TypingProtocol):
    """The bot's view of the network; implemented by the sandbox."""

    def tcp_connect(
        self, dst: int, port: int, trace: Capture | None = None
    ) -> BotSession | None: ...

    def send_datagram(self, pkt: Packet, trace: Capture | None = None) -> None: ...

    def dns_lookup(self, name: str, trace: Capture | None = None) -> int | None: ...

    def clock_now(self) -> float: ...


class Bot:
    """Family behavior model driven by a recovered bot config."""

    def __init__(self, config: BotConfig, bot_ip: int, rng: random.Random):
        self.config = config
        self.family: Family = get_family(config.family)
        self.bot_ip = bot_ip
        self.rng = rng
        self._server_bytes = b""
        self._decode = _DECODERS.get(self.family.dialect)
        #: the commands before the stream's settled offset, and that offset
        self._settled: list[AttackCommand] = []
        self._settled_at = 0
        self._bot_id = bytes(
            rng.choice(b"abcdefghijklmnopqrstuvwxyz") for _ in range(8)
        )
        # scan-path caches: the port list and the per-port payload options
        # are pure functions of the (immutable) config, so they are
        # computed once per bot instead of once per target
        self._scan_ports: list[int] | None = None
        self._payload_table: dict[int, tuple[tuple[bytes, ...], int]] = {}
        #: the DGA candidate that last resolved (diagnostics/tests)
        self.last_dga_domain: str | None = None

    # -- C2 interaction -------------------------------------------------------

    def resolve_c2(self, adapter: NetworkAdapter, trace: Capture | None = None) -> int | None:
        """Resolve the configured C2 endpoint to an address."""
        if self.config.uses_dga:
            return self._resolve_dga(adapter, trace)
        if not self.config.c2_host:
            return None
        if not self.config.uses_dns:
            return ip_to_int(self.config.c2_host)
        return adapter.dns_lookup(self.config.c2_host, trace)

    def _resolve_dga(self, adapter: NetworkAdapter, trace: Capture | None) -> int | None:
        """Walk today's generated candidates until one resolves.

        The candidate list is a pure function of (schedule seed, family,
        day) — the same list the operator drew registrations from — so a
        blocked or registrar-lost name just moves the bot to the next
        candidate: block evasion in one loop.
        """
        day = int((adapter.clock_now() - STUDY_EPOCH) // SECONDS_PER_DAY)
        for domain in dga_domains(self.config.dga_seed, self.family.name, day):
            address = adapter.dns_lookup(domain, trace)
            if address is not None:
                self.last_dga_domain = domain
                return address
        return None

    def checkin_payload(self) -> bytes:
        """The first application bytes the bot sends after connecting."""
        dialect = self.family.dialect
        if dialect == C2Dialect.MIRAI_BINARY:
            return mirai.encode_checkin(self._bot_id)
        if dialect == C2Dialect.GAFGYT_TEXT:
            return gafgyt.CHECKIN
        if dialect == C2Dialect.DADDYL33T_TEXT:
            return daddyl33t.LOGIN
        if dialect == C2Dialect.IRC:
            return irc.encode_register(irc.random_nick(self.rng))
        raise ValueError(f"{self.family.name} has no C2 check-in")

    def keepalive_payload(self) -> bytes:
        dialect = self.family.dialect
        if dialect == C2Dialect.MIRAI_BINARY:
            return mirai.KEEPALIVE
        if dialect == C2Dialect.GAFGYT_TEXT:
            return gafgyt.PING
        if dialect == C2Dialect.DADDYL33T_TEXT:
            return b"pong\r\n"
        if dialect == C2Dialect.IRC:
            return irc.encode_pong()
        raise ValueError(f"{self.family.name} has no C2 keepalive")

    def connect_c2(
        self, adapter: NetworkAdapter, trace: Capture | None = None,
        override_target: tuple[int, int] | None = None,
    ) -> BotSession | None:
        """Connect and check in; ``override_target`` is the MITM hook."""
        if override_target is not None:
            c2_ip, c2_port = override_target
        else:
            c2_ip = self.resolve_c2(adapter, trace)
            c2_port = self.config.c2_port
            if c2_ip is None or not c2_port:
                return None
        session = adapter.tcp_connect(c2_ip, c2_port, trace)
        if session is None:
            return None
        session.send(self.checkin_payload())
        self._server_bytes += session.recv()
        return session

    def poll_c2(self, session: BotSession) -> list[AttackCommand]:
        """One keepalive round-trip; returns every command in the server
        stream accumulated so far, not only the new ones (a caller that
        acts on the commands de-duplicates them)."""
        session.send(self.keepalive_payload())
        self._server_bytes += session.recv()
        return self.decode_commands()

    def decode_commands(self) -> list[AttackCommand]:
        """Bot-side decode of everything the server has sent so far.

        Only the bytes past the stream's settled offset are decoded: up
        to that offset the dialect's parse is final, whatever bytes
        arrive next, so the commands before it are kept from the last
        decode.  The result equals the dialect's ``extract_commands`` on
        the whole stream.
        """
        decode = self._decode
        if decode is None:
            return []
        settled, self._settled_at, tail = decode(self._server_bytes,
                                                 self._settled_at)
        self._settled += settled
        return self._settled + tail

    @property
    def server_bytes(self) -> bytes:
        """Raw server→bot stream accumulated so far (for the profilers)."""
        return self._server_bytes

    def reset_stream(self) -> None:
        """Forget accumulated server bytes (fresh probe in weaponized mode)."""
        self._server_bytes = b""
        self._settled = []
        self._settled_at = 0

    # -- P2P ------------------------------------------------------------------

    def p2p_bootstrap(self, adapter: NetworkAdapter, trace: Capture | None = None) -> int:
        """Emit DHT queries to the configured bootstrap peers."""
        sent = 0
        my_id = p2p.node_id(self.rng)
        for peer in self.config.p2p_bootstrap:
            host, _, port_text = peer.partition(":")
            port = int(port_text) if port_text else p2p.MOZI_BOOTSTRAP_PORT
            target = ip_to_int(host)
            payload = p2p.encode_find_node(my_id, p2p.node_id(self.rng))
            adapter.send_datagram(
                udp_packet(self.bot_ip, target, ephemeral_port(self.rng), port, payload),
                trace,
            )
            sent += 1
        return sent

    # -- proliferation ----------------------------------------------------------

    def scan_port_list(self) -> list[int]:
        """The (cached) port mix this bot scans.

        Mirai-style bots always scan telnet; exploit-armed bots also scan
        each vulnerability's service port.
        """
        ports = self._scan_ports
        if ports is None:
            ports = list(self.config.scan_ports) or list(TELNET_PORTS)
            for index in self.config.exploit_ids:
                vuln = EXPLOIT_INDEX.get(index)
                if vuln is not None and vuln.port not in ports:
                    ports.append(vuln.port)
            self._scan_ports = ports
        return ports

    def scan_targets(self, count: int) -> list[tuple[int, int]]:
        """Pick ``count`` random (ip, port) scan targets in one batch.

        Per target: an address, redrawn until it is routable, then a
        port — the draws of ``randrange(0x01000000, 0xDF000000)`` and
        ``choice(ports)``, made word by word by
        :func:`~repro.determinism.draw_pairs`.
        """
        return draw_pairs(self.rng, count, 0x01000000, 0xDF000000,
                          is_reserved, self.scan_port_list())

    def payload_options(self, port: int) -> tuple[tuple[bytes, ...], int]:
        """``(options, width)``: the payloads the bot picks from once a
        victim on ``port`` accepts.

        Telnet ports get a credential attempt; exploit ports get the
        exploit request of an armed vulnerability on that port (bots
        cycle through every exploit they carry for a service, so victims
        on a shared port see each of them over time); any other port a
        bare GET probe.  The pick is ``options[rng._randbelow(width)]``,
        i.e. ``choice(options)``, which draws even from one option; width
        0 sends the lone probe without a draw.  Entries are pure
        functions of the (immutable) config, built once per port.
        """
        entry = self._payload_table.get(port)
        if entry is None:
            if port in TELNET_PORTS:
                options = tuple(user + b"\r\n" + password + b"\r\n"
                                for user, password in TELNET_CREDENTIALS)
            else:
                downloader = self.config.downloader or self.config.c2_host
                loader = self.config.loader_name or "bot.sh"
                armed = [vulnerability_for_index(index)
                         for index in self.config.exploit_ids
                         if index in EXPLOIT_INDEX]
                options = tuple(vuln.build_payload(downloader, loader)
                                for vuln in armed if vuln.port == port)
            entry = (options, len(options)) if options else (_PROBE, 0)
            self._payload_table[port] = entry
        return entry

    def attack_payloads(self, ports: list[int]) -> list[bytes]:
        """What the bot sends to each victim accepting on ``ports``: its
        pick from :meth:`payload_options`, drawn in order."""
        table = self._payload_table
        options_for = self.payload_options
        randbelow = self.rng._randbelow
        payloads: list[bytes] = []
        append = payloads.append
        for port in ports:
            options, width = table.get(port) or options_for(port)
            append(options[randbelow(width)] if width else options[0])
        return payloads

    # -- attacks -----------------------------------------------------------------

    def execute_attack(
        self,
        adapter: NetworkAdapter,
        command: AttackCommand,
        start_time: float,
        trace: Capture | None = None,
        max_packets: int = 400,
    ) -> int:
        """Launch a commanded DDoS attack; returns packets emitted."""
        variant = AttackVariant(
            rotate_source_ports=self.variant_rotates_ports(),
            rotate_dest_ports=self.config.variant.endswith(".b"),
        )
        packets = generate_attack(
            command, self.bot_ip, self.rng, start_time, max_packets, variant
        )
        for pkt in packets:
            adapter.send_datagram(pkt, trace)
        return len(packets)

    def variant_rotates_ports(self) -> bool:
        """Mirai ``.b``-style variants rotate source ports (section 5.1)."""
        return self.family.name == "mirai" and self.config.variant.endswith(".b")
