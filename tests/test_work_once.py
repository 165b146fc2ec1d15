"""A sample's analysis does each piece of its work once.

Structural guards, counted by wrappers installed for one smoke study:
no TCP flag is tested or composed through the ``IntFlag`` enum, no VT
engine label is built (YARA tags every verified sample, so AVClass2
never reads one), and each sample the pipeline analyses has its ELF
parsed and its config unpacked once, however many sandbox modes run it.
A bot's polls decode each byte of its C2 stream about once, however
long the session.  Each guard first checks that its wrapper sees what
it counts.
"""

import collections
import random

import pytest

from repro.binary.config import BotConfig
from repro.botnet import bot as bot_module
from repro.botnet.bot import Bot
from repro.botnet.c2server import C2Server
from repro.botnet.families import get_family
from repro.botnet.protocols.base import AttackCommand
from repro.core.cache import dataset_diff
from repro.core.study import DayRunner
from repro.feeds import virustotal
from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.netsim.internet import Listener, Network, VirtualInternet
from repro.netsim.packet import Protocol, TcpFlags
from repro.sandbox import qemu
from repro.sandbox.qemu import MipsEmulator
from repro.sandbox.sandbox import LiveInternetAdapter
from repro.world import SMOKE_SCALE


def counting(counts, name, func):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)
    return wrapper


@pytest.fixture(scope="module")
def counted_study(smoke_world):
    """A smoke study run with the counting wrappers: ``(datasets,
    pipeline counts, whole-study counts, distinct samples analysed in
    the pipeline phase)``."""
    counts = collections.Counter()
    analysed = set()
    run = MipsEmulator.run

    def recording_run(self, data, bot_ip, sha256=None):
        analysed.add(sha256)
        return run(self, data, bot_ip, sha256=sha256)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpFlags, "__and__",
                      counting(counts, "and", TcpFlags.__and__))
        patch.setattr(TcpFlags, "__or__",
                      counting(counts, "or", TcpFlags.__or__))
        patch.setattr(virustotal, "_engine_label",
                      counting(counts, "label", virustotal._engine_label))
        patch.setattr(qemu, "unpack_config",
                      counting(counts, "unpack", qemu.unpack_config))
        patch.setattr(MipsEmulator, "run", recording_run)
        # the wrappers see what they count
        assert TcpFlags.SYN & TcpFlags.ACK == 0
        assert TcpFlags.SYN | TcpFlags.ACK == 0x12
        assert counts == {"and": 1, "or": 1}
        counts.clear()

        runner = DayRunner(smoke_world)
        runner.run_remaining_days()
        runner.complete_pipeline()
        pipeline = collections.Counter(counts)
        analysed_in_pipeline = len(analysed)
        runner.run_probing_phase()
        whole = collections.Counter(counts)
        # reading a report's labels does build them
        sample = smoke_world.truth.all_samples[0].sample
        assert smoke_world.vt.scan(sample, 0.0).detections
        assert counts["label"] > whole["label"]
    return runner.datasets, pipeline, whole, analysed_in_pipeline


def test_the_wrapped_study_is_the_study(counted_study, serial_reference):
    datasets = counted_study[0]
    _malnet, _campaign, expected = serial_reference(20220322, SMOKE_SCALE)
    diff = dataset_diff(expected, datasets)
    assert diff is None, diff


def test_no_tcp_flag_goes_through_the_enum(counted_study):
    _datasets, _pipeline, whole, _analysed = counted_study
    assert whole["and"] == 0
    assert whole["or"] == 0


def test_no_engine_label_is_built(counted_study):
    _datasets, _pipeline, whole, _analysed = counted_study
    assert whole["label"] == 0


def test_one_config_unpack_per_analysed_sample(counted_study):
    _datasets, pipeline, _whole, analysed = counted_study
    assert analysed > 50
    assert pipeline["unpack"] == analysed


BOT_IP = ip_to_int("198.51.100.77")
C2_IP = ip_to_int("203.0.113.10")
TARGET = ip_to_int("192.0.2.50")
C2_PORT = 1312

#: an attack each family's server can encode
METHODS = {"mirai": "syn", "gafgyt": "std", "daddyl33t": "hydrasyn",
           "tsunami": "udp"}


@pytest.mark.parametrize("family", sorted(METHODS))
def test_polls_decode_each_stream_byte_about_once(family, monkeypatch):
    handed = []
    for dialect, decode in list(bot_module._DECODERS.items()):
        def measured(stream, start, decode=decode):
            handed.append(len(stream) - start)
            return decode(stream, start)
        monkeypatch.setitem(bot_module._DECODERS, dialect, measured)
    network = Network()
    network.add_host(BOT_IP, "sandbox")
    server = C2Server(get_family(family))
    network.add_host(C2_IP, "c2").bind(
        Listener(port=C2_PORT, protocol=Protocol.TCP, service=server))
    internet = VirtualInternet(network, random.Random(8))
    issued = [AttackCommand(METHODS[family], TARGET, 80, 30 + index)
              for index in range(10)]
    for index, command in enumerate(issued):
        server.schedule_attack(internet.clock.now + 1200.0 * index, command)
    bot = Bot(BotConfig(family=family, c2_host=int_to_ip(C2_IP),
                        c2_port=C2_PORT), BOT_IP, random.Random(9))
    session = bot.connect_c2(LiveInternetAdapter(internet, BOT_IP))
    for _ in range(200):
        commands = bot.poll_c2(session)
        internet.clock.advance(60.0)
    assert commands == issued
    assert len(handed) == 200
    assert sum(handed) <= 2 * len(bot.server_bytes)
