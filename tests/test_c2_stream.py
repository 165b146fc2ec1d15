"""A bot decodes its C2 stream incrementally, and exactly.

``Bot.poll_c2`` returns every command in the server stream so far.  It
decodes only what arrived after the stream's settled offset, so after
every poll its answer must equal the dialect profiler run over the
whole prefix received (``extract_commands(prefix)``), whatever bytes
arrive and wherever the chunks split them: inside a Mirai length word,
between an IRC line's ``\\r`` and ``\\n``, mid-line, in garbage.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.binary.config import BotConfig
from repro.botnet.bot import Bot
from repro.botnet.protocols import daddyl33t, gafgyt, irc, mirai
from repro.botnet.protocols.base import AttackCommand

#: family -> (dialect module, methods its server encodes, what else its
#: server sends: keepalive answers and banners)
DIALECTS = {
    "mirai": (mirai, ("udp", "vse", "syn", "stomp", "tls"),
              (mirai.KEEPALIVE, mirai.HANDSHAKE)),
    "gafgyt": (gafgyt, ("udp", "std", "vse"),
               (gafgyt.PONG, b"!* SCANNER ON\n", b"!* KILLATTK\n")),
    "daddyl33t": (daddyl33t, ("udpraw", "hydrasyn", "tls", "blacknurse",
                              "nfo"),
                  (daddyl33t.WELCOME, b"auth ok\r\n")),
    "tsunami": (irc, ("udp",), (irc.encode_welcome(), irc.encode_ping())),
}

#: bytes that make a text stream's garbage look almost like a command
TOKENS = (b"\r", b"\n", b"\r\n", b" ", b"!*", b"!* UDP ", b".", b".TLS ",
          b":op PRIVMSG #iot :UDP ", b"1.2.3.4 ", b"80 ", b"60", b"\x00",
          b"\x00\x00", b"\x00\x10", b"\xff")


def commands(methods):
    return st.builds(
        AttackCommand,
        method=st.sampled_from(methods),
        target_ip=st.integers(0, 2**32 - 1),
        target_port=st.integers(0, 0xFFFF),
        duration=st.integers(1, 2**32 - 1),
    )


def pieces(family):
    module, methods, chatter = DIALECTS[family]
    encoded = commands(methods).map(module.encode_attack)
    return st.one_of(
        encoded,
        st.sampled_from(chatter),
        st.binary(max_size=16),
        st.lists(st.sampled_from(TOKENS), max_size=6).map(b"".join),
        # a frame or line cut short, as a truncated capture ends
        encoded.flatmap(lambda frame: st.integers(0, len(frame) - 1).map(
            lambda cut: frame[:cut])),
        # a lone \r inside a frame or line: a line end only to Daddyl33t
        encoded.flatmap(lambda frame: st.integers(0, len(frame)).map(
            lambda at: frame[:at] + b"\r" + frame[at:])),
    )


@st.composite
def chunked_streams(draw, family):
    stream = b"".join(draw(st.lists(pieces(family), max_size=12)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    bounds = [0, *cuts, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


class ScriptedSession:
    """A BotSession whose server sends one scripted chunk per poll."""

    def __init__(self, chunks):
        self._chunks = iter(chunks)

    def send(self, data):
        pass

    def recv(self):
        return next(self._chunks, b"")

    def close(self):
        pass


def outcome(call):
    """What a decode gives: its commands, or the type it raised."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "raised", type(exc)


def assert_polls_exact(family, chunks):
    module = DIALECTS[family][0]
    bot = Bot(BotConfig(family=family), 1, random.Random(0))
    session = ScriptedSession(chunks)
    for _chunk in chunks:
        got = outcome(lambda: bot.poll_c2(session))
        want = outcome(lambda: module.extract_commands(bot.server_bytes))
        assert got == want, bot.server_bytes


@pytest.mark.parametrize("family", sorted(DIALECTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_incremental_poll_equals_whole_prefix_decode(family, data):
    assert_polls_exact(family, data.draw(chunked_streams(family)))


MIRAI_UDP = mirai.encode_attack(AttackCommand("udp", 0x01020304, 80, 60))
MIRAI_SYN = mirai.encode_attack(AttackCommand("syn", 0x05060708, 443, 30))
IRC_UDP = irc.encode_attack(AttackCommand("udp", 0x01020304, 80, 60))
GAFGYT_UDP = gafgyt.encode_attack(AttackCommand("udp", 0x01020304, 80, 60))
DADDY_TLS = daddyl33t.encode_attack(AttackCommand("tls", 0x01020304, 443, 60))


@pytest.mark.parametrize("family, chunks", [
    # a Mirai frame cut inside its length word, alone and after a
    # keepalive, then completed with the next frame in the same chunk
    ("mirai", [MIRAI_UDP[:1], MIRAI_UDP[1:]]),
    ("mirai", [mirai.KEEPALIVE + MIRAI_UDP[:1], MIRAI_UDP[1:] + MIRAI_SYN]),
    # the rest of a frame after a resync-worthy garbage byte
    ("mirai", [b"\x07" + MIRAI_UDP[:5], MIRAI_UDP[5:], MIRAI_SYN[:2], b""]),
    # an IRC line split between its \r and its \n
    ("tsunami", [IRC_UDP[:-1], IRC_UDP[-1:]]),
    ("tsunami", [irc.encode_ping() + IRC_UDP[:-1], b"\n" + IRC_UDP]),
    # ... and a lone \r that a later byte shows is inside a line
    ("tsunami", [IRC_UDP[:-3] + b"\r", IRC_UDP[-3:]]),
    # a text line whose duration grows when the rest of it arrives
    ("gafgyt", [GAFGYT_UDP[:-2], GAFGYT_UDP[-2:]]),
    # Daddyl33t ends a line at a lone \r as at a \n
    ("daddyl33t", [DADDY_TLS[:-1], b"\n" + DADDY_TLS[:-2], b"\r"]),
], ids=["mirai-length-word", "mirai-after-keepalive", "mirai-resync",
        "irc-cr-lf", "irc-cr-lf-then-line", "irc-lone-cr",
        "gafgyt-line-grows",
        "daddyl33t-lone-cr"])
def test_incremental_poll_at_split_points(family, chunks):
    assert_polls_exact(family, chunks)
