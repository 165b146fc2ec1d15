"""Adversarial-input tests: every decoder fails *cleanly* on junk.

The pipeline feeds untrusted bytes (feed downloads, captured payloads,
C2 streams, study journals) into parsers; none of them may raise
anything but their own error type, hang, or succeed on garbage in
dangerous ways.
"""

import bisect
import copy
import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.binary.config import BotConfig, ConfigError, unpack_config
from repro.binary.elf import ElfError, ElfImage
from repro.botnet.protocols import daddyl33t, gafgyt, irc, mirai, p2p
from repro.botnet.protocols.base import ProtocolError
from repro.core import journal as journal_module
from repro.core.cache import dataset_diff, dataset_digest
from repro.core.journal import JournalError, replay
from repro.core.pipeline import PipelineConfig
from repro.core.study import DayRunner
from repro.netsim.capture import CaptureError, PcapReader
from repro.netsim.dns import DnsError, decode_message
from repro.netsim.packet import PacketError, decode_packet
from repro.service import CheckpointStore
from repro.world import SMOKE_SCALE, generate_world

junk = st.binary(min_size=0, max_size=512)


class TestPacketFuzz:
    @given(junk)
    def test_decode_packet_never_crashes(self, data):
        try:
            decode_packet(data)
        except PacketError:
            pass

    @given(junk)
    def test_decode_with_valid_prefix(self, data):
        # a correct version/IHL byte must not bypass validation
        try:
            decode_packet(b"\x45" + data)
        except PacketError:
            pass


class TestPcapFuzz:
    @given(junk)
    def test_reader_never_crashes(self, data):
        import io

        try:
            list(PcapReader(io.BytesIO(data)))
        except CaptureError:
            pass

    @given(junk)
    def test_reader_with_valid_magic(self, data):
        import io
        import struct

        header = struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        try:
            list(PcapReader(io.BytesIO(header + data)))
        except (CaptureError, PacketError):
            pass


class TestElfFuzz:
    @given(junk)
    def test_parse_never_crashes(self, data):
        try:
            ElfImage.parse(data)
        except ElfError:
            pass

    @given(junk)
    def test_parse_with_magic_prefix(self, data):
        try:
            ElfImage.parse(b"\x7fELF\x01\x02\x01" + data)
        except ElfError:
            pass


class TestConfigFuzz:
    @given(junk)
    def test_unpack_never_crashes(self, data):
        try:
            unpack_config(data)
        except ConfigError:
            pass

    @given(junk)
    def test_decode_with_magic_prefix(self, data):
        try:
            BotConfig.decode(b"BCFG" + data)
        except ConfigError:
            pass


class TestDnsFuzz:
    @given(junk)
    def test_decode_message_never_crashes(self, data):
        try:
            decode_message(data)
        except DnsError:
            pass


class TestProtocolFuzz:
    """The stream profilers are *total*: garbage yields an empty list."""

    @given(junk)
    def test_mirai_profiler_total(self, data):
        assert isinstance(mirai.extract_commands(data), list)

    @given(junk)
    def test_gafgyt_profiler_total(self, data):
        assert isinstance(gafgyt.extract_commands(data), list)

    @given(junk)
    def test_daddyl33t_profiler_total(self, data):
        assert isinstance(daddyl33t.extract_commands(data), list)

    @given(junk)
    def test_irc_profiler_total(self, data):
        assert isinstance(irc.extract_commands(data), list)

    @given(junk)
    def test_bdecode_never_crashes(self, data):
        try:
            p2p.bdecode(data)
        except ProtocolError:
            pass

    @given(junk)
    def test_dht_classifier_total(self, data):
        assert isinstance(p2p.is_dht_query(data), bool)

    @given(junk)
    def test_mirai_checkin_decode(self, data):
        try:
            mirai.decode_checkin(data)
        except ProtocolError:
            pass


class TestClassifierFuzz:
    @given(junk)
    def test_exploit_classifier_total(self, data):
        from repro.botnet.exploits import classify_exploit, extract_loader

        classify_exploit(data)  # returns Vulnerability | None
        extract_loader(data)    # returns str | None

    @given(junk)
    def test_strings_extraction_total(self, data):
        from repro.binary.strings import extract_ips, extract_strings

        assert isinstance(extract_strings(data), list)
        assert isinstance(extract_ips(data), list)

    @given(junk)
    def test_ddos_profile_stream_total(self, data):
        from repro.analysis.ddos_detect import profile_stream

        assert isinstance(profile_stream(data), list)


class TestJournalFuzz:
    """The study journal's reader: a real smoke journal, cut or mutated,
    replays a prefix of whole days or raises JournalError — never another
    exception, a hang, or a half-applied day."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        return _smoke_journal(tmp_path_factory.mktemp("journal"))

    def test_every_cut_replays_the_last_complete_day(self, journal):
        blob, ends, days = journal.blob, journal.ends, journal.days
        for cut in range(len(blob) + 1):
            if cut < ends[0]:
                with pytest.raises(JournalError):
                    replay(blob[:cut], FINGERPRINT)
                continue
            state, end = replay(blob[:cut], FINGERPRINT)
            day = bisect.bisect_right(ends, cut) - 1
            assert (state.next_day, end) == (day, ends[day]), cut
            assert _canonical(state) == days[day], \
                (cut, dataset_diff(journal.datasets[day], state.datasets))

    @pytest.mark.parametrize("day", [3, 16, 21])
    def test_an_append_after_a_cut_continues_the_journal(self, journal,
                                                         tmp_path, day):
        """Cut inside the record of ``day``: the restart replays the days
        before it, truncates the tail, and its append of ``day`` replays
        like the uncut journal."""
        store = CheckpointStore(str(tmp_path))
        with open(store.path_for(FINGERPRINT), "wb") as fh:
            fh.write(journal.blob[:journal.ends[day + 1] - 5])
        runner = DayRunner(world=journal.world, config=JOURNAL_CONFIG)
        runner.restore_state(store.load(FINGERPRINT, runner.total_days))
        assert runner.next_day == day
        runner.run_next_day()
        store.save(FINGERPRINT, runner.state())
        with open(store.path_for(FINGERPRINT), "rb") as fh:
            blob = fh.read()
        assert blob == journal.blob[:journal.ends[day + 1]]

    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_byte_flips_replay_a_prefix_or_fail_typed(self, journal, flips):
        blob = bytearray(journal.blob)
        for position, mask in flips:
            blob[position % len(blob)] ^= mask
        try:
            state, end = replay(bytes(blob), FINGERPRINT)
        except JournalError:
            return
        assert journal.ends[state.next_day] == end
        assert _canonical(state) == journal.days[state.next_day]

    @given(st.binary(min_size=1, max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_junk_suffix_is_dropped(self, journal, junk):
        state, end = replay(journal.blob + junk, FINGERPRINT)
        assert end == len(journal.blob)
        assert _canonical(state) == journal.days[-1]


#: the first days of the smoke study: C2 records from day 15, DDoS
#: records from day 16 and exploit rows from day 21
JOURNAL_CONFIG = PipelineConfig(study_days=22)
FINGERPRINT = "f" * 64


@dataclasses.dataclass
class _Journal:
    world: object
    blob: bytes
    #: ends[k]: end offset of the record of day k - 1 (ends[0]: header)
    ends: list
    #: canonical state after k days, and the datasets themselves
    days: list
    datasets: list


def _canonical(state) -> tuple:
    """The state's datasets digest, dedup set and feed cursors."""
    return (dataset_digest(state.datasets), sorted(state.seen_hashes),
            dict(state.feed_cursor))


def _smoke_journal(root) -> _Journal:
    world = generate_world(seed=20220322, scale=SMOKE_SCALE)
    runner = DayRunner(world=world, config=JOURNAL_CONFIG)
    store = CheckpointStore(str(root))
    header = journal_module._header(FINGERPRINT, runner.total_days)
    ends, days, datasets = [len(header)], [_canonical(runner.state())], \
        [copy.deepcopy(runner.datasets)]
    while not runner.pipeline_done:
        runner.run_next_day()
        path = store.save(FINGERPRINT, runner.state())
        ends.append(os.path.getsize(path))
        days.append(_canonical(runner.state()))
        datasets.append(copy.deepcopy(runner.datasets))
    with open(path, "rb") as fh:
        blob = fh.read()
    return _Journal(world, blob, ends, days, datasets)
