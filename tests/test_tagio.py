import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bunchlidar import tagio
from bunchlidar.correlator import CorrelationConfig, cross_correlate
from bunchlidar.photonsim import EventStream


def make_streams(times_by_channel, duration_s=None):
    all_times = [t for times in times_by_channel for t in times]
    if duration_s is None:
        duration_s = (max(all_times) if all_times else 0) / 1e12
    return [
        EventStream(ch, np.asarray(sorted(times), dtype=np.int64), duration_s)
        for ch, times in enumerate(times_by_channel)
    ]


@st.composite
def stream_pairs(draw):
    resolution = draw(st.sampled_from([1, 25, 2000]))
    n0 = draw(st.integers(min_value=0, max_value=120))
    n1 = draw(st.integers(min_value=0, max_value=120))
    grid = st.integers(min_value=0, max_value=10**6)
    t0 = sorted(draw(st.lists(grid, min_size=n0, max_size=n0)))
    t1 = sorted(draw(st.lists(grid, min_size=n1, max_size=n1)))
    # force shared timestamps across channels to exercise tie ordering
    if t0 and t1:
        t1[0] = t0[0]
    return resolution, [[t * resolution for t in t0], [t * resolution for t in t1]]


_RECORD_DTYPE = np.dtype(
    [("time", "<u8"), ("channel", "u1"), ("flags", "u1"), ("padding", "u1", (6,))]
)


def encode_tags_reference(streams, resolution_ps, rounding):
    """Reference encoder: one structured record per event, merged, rounded,
    then sorted again; returns the file's bytes.

    ``ticks + resolution_ps // 2`` wraps within one step of 2**63, so callers
    keep times well below that.
    """
    ticks = np.concatenate([s.times for s in streams])
    channels = np.concatenate([np.full(len(s), i, dtype=np.uint8) for i, s in enumerate(streams)])
    order = np.lexsort((channels, ticks))
    ticks, channels = ticks[order], channels[order]
    inexact = ticks % resolution_ps != 0
    if inexact.any() and rounding == "exact":
        raise tagio.UnrepresentableTimeError(
            f"time {int(ticks[np.argmax(inexact)])} ps is not a multiple of {resolution_ps} ps "
            "(use rounding='round')"
        )
    records = np.zeros(ticks.size, dtype=_RECORD_DTYPE)
    records["time"] = (ticks + resolution_ps // 2) // resolution_ps
    records["channel"] = channels
    records["flags"][inexact] = 1
    records = records[np.lexsort((records["channel"], records["time"]))]
    header = bytearray(tagio.HEADER_SIZE)
    header[0:8] = tagio.MAGIC
    header[8:12] = tagio.VERSION.to_bytes(4, "little")
    header[12:20] = resolution_ps.to_bytes(8, "little")
    header[20:22] = len(streams).to_bytes(2, "little")
    return bytes(header) + records.tobytes()


@st.composite
def encoder_cases(draw):
    """Streams of 1 or 2 channels whose ticks crowd within a few resolution
    steps, with cross-channel ties; ``on_grid`` cases let exact mode write."""
    resolution = draw(st.sampled_from([1, 2, 25, 2000]))
    rounding = draw(st.sampled_from(["exact", "round"]))
    on_grid = draw(st.booleans())
    step = resolution if on_grid else 1
    tick = st.integers(min_value=0, max_value=40 * resolution // step).map(lambda k: k * step)
    times = [sorted(draw(st.lists(tick, max_size=60))) for _ in range(draw(st.integers(1, 2)))]
    if len(times) == 2 and times[0]:
        times[1] = sorted(times[1] + draw(st.lists(st.sampled_from(times[0]), max_size=5)))
    return resolution, rounding, [EventStream(ch, t) for ch, t in enumerate(times)]


def write_raw_records(path, records, resolution_ps=1, channel_count=2):
    """A binary tag file of unchecked ``(time, channel | flags << 8)`` records."""
    header = tagio._HEADER.pack(tagio.MAGIC, tagio.VERSION, resolution_ps, channel_count, b"")
    path.write_bytes(header + np.asarray(records, dtype="<u8").reshape(-1, 2).tobytes())


def write_raw_text(path, rows, resolution_ps=1, channel_count=2):
    """A text tag file of unchecked ``(ticks_ps, channel)`` rows."""
    header = f"# resolution_ps={resolution_ps}\n# channels={channel_count}\n"
    path.write_text(header + "".join(f"{t},{ch}\n" for t, ch in rows))


class TestEncoderMatchesReference:
    @given(encoder_cases())
    @settings(max_examples=300, deadline=None)
    def test_bytes_or_error_match(self, case):
        import tempfile, os

        resolution, rounding, streams = case
        try:
            expected = encode_tags_reference(streams, resolution, rounding)
        except tagio.TagFileError as exc:
            with pytest.raises(type(exc)) as err:
                tagio.write_tags(streams, resolution, os.devnull, rounding=rounding)
            assert str(err.value) == str(exc)
            return
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.bin")
            tagio.write_tags(streams, resolution, path, rounding=rounding)
            with open(path, "rb") as f:
                assert f.read() == expected


class TestBinaryRoundTrip:
    def test_empty_streams_header_only(self, tmp_path):
        path = tmp_path / "empty.bin"
        tagio.write_tags(make_streams([[], []], duration_s=0.0), 1, path)
        assert path.stat().st_size == tagio.HEADER_SIZE
        streams, header = tagio.read_tags(path)
        assert header == {"resolution_ps": 1, "channel_count": 2}
        assert [len(s) for s in streams] == [0, 0]

    def test_single_event_resolution_scaling(self, tmp_path):
        path = tmp_path / "one.bin"
        tagio.write_tags(make_streams([[2000]]), 2000, path)
        raw = path.read_bytes()
        time_field = int.from_bytes(raw[tagio.HEADER_SIZE : tagio.HEADER_SIZE + 8], "little")
        assert time_field == 1
        streams, _ = tagio.read_tags(path)
        assert streams[0].times.tolist() == [2000]

    @given(stream_pairs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_identity(self, case):
        import tempfile, os

        resolution, times = case
        streams = make_streams(times)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.bin")
            tagio.write_tags(streams, resolution, path)
            back, header = tagio.read_tags(path)
            assert header["resolution_ps"] == resolution
            assert len(back) == len(streams)
            for original, loaded in zip(streams, back):
                assert np.array_equal(original.times, loaded.times)
            # a second write of the loaded streams is byte-identical
            path2 = os.path.join(d, "t2.bin")
            tagio.write_tags(back, resolution, path2)
            assert Path(path).read_bytes() == Path(path2).read_bytes()

    def test_large_simulated_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        streams = make_streams(
            [sorted(rng.integers(0, 10**10, 300_000).tolist()) for _ in range(2)]
        )
        path = tmp_path / "big.bin"
        tagio.write_tags(streams, 1, path)
        back, _ = tagio.read_tags(path)
        for original, loaded in zip(streams, back):
            assert np.array_equal(original.times, loaded.times)

    def test_read_peak_memory_bounded(self, tmp_path):
        # the reader decodes views of the file's bytes; beyond them it holds
        # one validity temporary at a time and the returned channels
        rng = np.random.default_rng(16)
        streams = [EventStream(ch, np.sort(rng.integers(0, 10**12, 500_000))) for ch in (0, 1)]
        path = tmp_path / "big.bin"
        tagio.write_tags(streams, 1, path)
        del streams
        tracemalloc.start()
        try:
            tagio.read_tags(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * path.stat().st_size

    def test_exact_mode_rejects_offgrid(self, tmp_path):
        with pytest.raises(tagio.UnrepresentableTimeError):
            tagio.write_tags(make_streams([[1001]]), 2000, tmp_path / "x.bin")

    def test_rounding_mode_flags_records(self, tmp_path):
        path = tmp_path / "r.bin"
        tagio.write_tags(make_streams([[1001, 4000]]), 2000, path, rounding="round")
        raw = path.read_bytes()
        flags = [raw[tagio.HEADER_SIZE + 16 * i + 9] for i in range(2)]
        assert flags == [1, 0]
        streams, _ = tagio.read_tags(path)
        assert streams[0].times.tolist() == [2000, 4000]

    @pytest.mark.parametrize("resolution, tick, expected", [
        (2, 2**63 - 1, None),
        (2, 2**63 - 3, 2**63 - 2),
        (2000, (2**63 - 1) // 2000 * 2000 + 1000, None),
        (2000, (2**63 - 1) // 2000 * 2000 + 999, (2**63 - 1) // 2000 * 2000),
        (25, 2**63 - 1, (2**63 - 1) // 25 * 25),
    ])
    def test_round_mode_near_tick_max(self, tmp_path, resolution, tick, expected):
        # a time that rounds past 2**63 - 1 ps is refused, not wrapped into a
        # file that read_tags rejects
        path = tmp_path / "t.bin"
        streams = [EventStream(0, [tick])]
        if expected is None:
            with pytest.raises(tagio.UnrepresentableTimeError):
                tagio.write_tags(streams, resolution, path, rounding="round")
            assert not path.exists()
        else:
            tagio.write_tags(streams, resolution, path, rounding="round")
            assert tagio.read_tags(path)[0][0].times.tolist() == [expected]

    def test_three_channels_rejected(self, tmp_path):
        streams = make_streams([[1], [2], [3]])
        with pytest.raises(tagio.TagFileError):
            tagio.write_tags(streams, 1, tmp_path / "x.bin")
        with pytest.raises(tagio.TagFileError):
            tagio.write_text_tags(streams, 1, tmp_path / "x.txt")

    def test_unsupported_resolution_rejected(self, tmp_path):
        with pytest.raises(tagio.TagFileError):
            tagio.write_tags(make_streams([[1]]), 3, tmp_path / "x.bin")


@pytest.mark.parametrize("last", [2**53 + 1, 2**62 + 1, 2**63 - 2])
def test_full_tick_range_reads_back_exactly(tmp_path, last):
    times = [[0, last - 3, last], [1, last - 1]]
    streams = [EventStream(ch, np.array(t, dtype=np.int64)) for ch, t in enumerate(times)]
    tagio.write_tags(streams, 1, tmp_path / "t.bin")
    tagio.write_text_tags(streams, 1, tmp_path / "t.txt")
    for loaded, _ in (tagio.read_tags(tmp_path / "t.bin"), tagio.read_text_tags(tmp_path / "t.txt")):
        assert [s.times.tolist() for s in loaded] == times
        assert [s.duration_ticks for s in loaded] == [last, last - 1]


@st.composite
def raw_record_cases(draw):
    """Records that may break the channel or order rules, with times near 0
    and near the top of the 64-bit picosecond range at the drawn resolution."""
    resolution = draw(st.sampled_from([1, 2, 25, 2000, 10**12]))
    channel_count = draw(st.integers(1, 2))
    top = (2**63 - 1) // resolution
    time = st.one_of(st.integers(0, 20), st.integers(top - 20, top))
    times = sorted(draw(st.lists(time, max_size=12)))
    if len(times) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(times) - 2))
        times[i], times[i + 1] = times[i + 1], times[i]
    channel = st.one_of(st.integers(0, channel_count - 1), st.integers(0, 255))
    channels = draw(st.lists(channel, min_size=len(times), max_size=len(times)))
    return resolution, channel_count, list(zip(times, channels))


@given(raw_record_cases())
@settings(max_examples=200, deadline=None)
def test_text_and_binary_decode_alike(tmp_path_factory, case):
    # the same records read back the same, or fail with the same class at the same record
    resolution, channel_count, records = case
    directory = tmp_path_factory.mktemp("same")
    binary, text = directory / "t.bin", directory / "t.txt"
    write_raw_records(binary, records, resolution, channel_count)
    write_raw_text(text, [(t * resolution, ch) for t, ch in records], resolution, channel_count)
    try:
        streams, header = tagio.read_tags(binary)
    except tagio.TagFileError as exc:
        with pytest.raises(type(exc)) as err:
            tagio.read_text_tags(text)
        record = (exc.offset - tagio.HEADER_SIZE) // tagio.RECORD_SIZE
        assert str(err.value).startswith(f"line {record + 3}: ")
        return
    text_streams, text_header = tagio.read_text_tags(text)
    assert text_header == header
    assert [s.times.tolist() for s in text_streams] == [s.times.tolist() for s in streams]
    assert [s.duration_ticks for s in text_streams] == [s.duration_ticks for s in streams]


class TestHeaderValidation:
    def _write_reference(self, tmp_path, resolution=1, channels=2):
        path = tmp_path / "ref.bin"
        times = [[0, 5 * resolution, 9 * resolution], [2 * resolution]]
        tagio.write_tags(make_streams(times[:channels]), resolution, path)
        return path

    def test_bad_magic_offset_zero(self, tmp_path):
        path = self._write_reference(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(tagio.BadMagicError) as err:
            tagio.read_tags(path)
        assert "offset 0" in str(err.value)

    def test_header_fuzz_single_bit_flips_all_rejected(self, tmp_path):
        # every single-bit corruption of the 32-byte header must be detected
        for resolution in (1, 25, 2000):
            for channels in (1, 2):
                path = self._write_reference(tmp_path, resolution, channels)
                pristine = path.read_bytes()
                for byte_index in range(tagio.HEADER_SIZE):
                    for bit in range(8):
                        corrupted = bytearray(pristine)
                        corrupted[byte_index] ^= 1 << bit
                        path.write_bytes(bytes(corrupted))
                        with pytest.raises(tagio.TagFileError):
                            tagio.read_tags(path)

    def test_truncated_record(self, tmp_path):
        path = self._write_reference(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(tagio.TruncatedRecordError) as err:
            tagio.read_tags(path)
        assert err.value.offset is not None

    def test_time_regression_detected(self, tmp_path):
        path = self._write_reference(tmp_path)
        raw = bytearray(path.read_bytes())
        # overwrite the second record's time with zero minus... swap times
        raw[tagio.HEADER_SIZE + 16 : tagio.HEADER_SIZE + 24] = (10**5).to_bytes(8, "little")
        raw[tagio.HEADER_SIZE + 32 : tagio.HEADER_SIZE + 40] = (1).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(tagio.TimeOrderError):
            tagio.read_tags(path)

    def test_bad_record_channel(self, tmp_path):
        path = self._write_reference(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[tagio.HEADER_SIZE + 8] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(tagio.RecordFieldError) as err:
            tagio.read_tags(path)
        assert f"offset {tagio.HEADER_SIZE + 8}" in str(err.value)

    def test_nonzero_record_padding(self, tmp_path):
        path = self._write_reference(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[tagio.HEADER_SIZE + 12] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(tagio.RecordFieldError):
            tagio.read_tags(path)

    @pytest.mark.parametrize("edits, offset", [
        # bad padding in record 0, bad channel in record 3: channel is checked first
        ({12: 1, 3 * 16 + 8: 7}, 3 * 16 + 8),
        # bad flags and bad padding in record 1: flags are checked first
        ({16 + 9: 0x80, 16 + 10: 1}, 16 + 9),
    ], ids=["channel-before-earlier-padding", "flags-before-padding"])
    def test_record_error_order(self, tmp_path, edits, offset):
        path = self._write_reference(tmp_path)
        raw = bytearray(path.read_bytes())
        for index, value in edits.items():
            raw[tagio.HEADER_SIZE + index] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(tagio.RecordFieldError) as err:
            tagio.read_tags(path)
        assert err.value.offset == tagio.HEADER_SIZE + offset

    @pytest.mark.parametrize("times, error, record", [
        # a time at or above 2**63 is compared as u64, not wrapped negative
        ([5, 2**63 + 10, 2**63 + 5], tagio.TimeOrderError, 2),
        ([5, 2**63], tagio.RecordFieldError, 1),
    ], ids=["regress-above-2**63", "overflow-at-2**63"])
    def test_times_above_int64_range(self, tmp_path, times, error, record):
        path = tmp_path / "x.bin"
        write_raw_records(path, [(t, 0) for t in times])
        with pytest.raises(error) as err:
            tagio.read_tags(path)
        assert err.value.offset == tagio.HEADER_SIZE + 16 * record

    def test_overflow_names_first_record_past_range(self, tmp_path):
        # at 2 ps per tick both times lie past 2**63 - 1 ps: record 0 is named
        path = tmp_path / "x.bin"
        write_raw_records(path, [(2**62, 0), (2**62 + 1, 0)], resolution_ps=2)
        with pytest.raises(tagio.RecordFieldError, match="overflows") as err:
            tagio.read_tags(path)
        assert err.value.offset == tagio.HEADER_SIZE

    def test_every_record_field_byte_value(self, tmp_path):
        # each value of each of bytes 8..15 of a record: valid only for channel
        # 0..1, flags 0..1 and zero padding, else an error at the field's offset
        pristine = self._write_reference(tmp_path).read_bytes()
        path = tmp_path / "x.bin"
        record = tagio.HEADER_SIZE + 2 * 16
        for byte in range(8, 16):
            field_offset = min(byte, 10)
            for value in range(256):
                raw = bytearray(pristine)
                raw[record + byte] = value
                path.write_bytes(bytes(raw))
                if value < 2 and byte < 10 or value == 0:
                    tagio.read_tags(path)
                    continue
                with pytest.raises(tagio.RecordFieldError) as err:
                    tagio.read_tags(path)
                assert err.value.offset == record + field_offset


class TestTextFormat:
    def test_simple_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# resolution_ps=1\n1000,0\n")
        streams, header = tagio.read_text_tags(path)
        assert header["resolution_ps"] == 1
        assert streams[0].times.tolist() == [1000]

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# resolution_ps=25\n")
        streams, _ = tagio.read_text_tags(path)
        assert all(len(s) == 0 for s in streams)

    def test_non_utf8_names_file_and_byte_offset(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"# resolution_ps=1\n1000,0\n\xe9,1\n")
        with pytest.raises(tagio.TextFormatError, match=r"t\.txt: not UTF-8 text at offset 25") as info:
            tagio.read_text_tags(path)
        assert info.value.offset == 25

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# resolution_ps=1\n1000,0\nnonsense\n")
        with pytest.raises(tagio.TextFormatError) as err:
            tagio.read_text_tags(path)
        assert "line 3" in str(err.value)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1000,0\n")
        with pytest.raises(tagio.TextFormatError):
            tagio.read_text_tags(path)

    @pytest.mark.parametrize("body, error, line, message", [
        ("0,0\n100,1\n50,0\n", tagio.TimeOrderError, 5, "record times regress"),
        ("0,0\n10,2\n", tagio.RecordFieldError, 4, "record channel 2 >= channel count 2"),
        ("0,0\n\n10,1\n15,0\n", tagio.TextFormatError, 6, "not a multiple of resolution 10"),
        ("0,0\n-10,1\n", tagio.TextFormatError, 4, "time -10 outside"),
        ("0,0\n9223372036854775810,1\n", tagio.TextFormatError, 4, "outside 0..9223372036854775807"),
        ("0,0\n10,256\n", tagio.TextFormatError, 4, "channel 256 outside 0..255"),
    ], ids=["regress", "channel-count", "off-grid-after-blank", "negative", "above-2**63-1",
            "channel-not-u8"])
    def test_record_fault_names_line(self, tmp_path, body, error, line, message):
        # record rules raise the binary reader's classes; fields no record holds are text errors
        path = tmp_path / "t.txt"
        path.write_text(f"# resolution_ps=10\n# channels=2\n{body}")
        with pytest.raises(error) as err:
            tagio.read_text_tags(path)
        assert str(err.value).startswith(f"line {line}: ")
        assert message in str(err.value)
        assert err.value.offset is None

    def test_undeclared_channel_count_is_capped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# resolution_ps=1\n0,0\n1,5\n")
        with pytest.raises(tagio.RecordFieldError, match="^line 3: record channel 5 >= channel count 2$"):
            tagio.read_text_tags(path)

    @given(stream_pairs())
    @settings(max_examples=30, deadline=None)
    def test_binary_text_binary_bit_identical(self, case):
        import tempfile, os

        resolution, times = case
        streams = make_streams(times)
        with tempfile.TemporaryDirectory() as d:
            binary1 = os.path.join(d, "a.bin")
            text = os.path.join(d, "a.txt")
            binary2 = os.path.join(d, "b.bin")
            tagio.write_tags(streams, resolution, binary1)
            loaded, header = tagio.read_tags(binary1)
            tagio.write_text_tags(loaded, header["resolution_ps"], text)
            reloaded, header2 = tagio.read_text_tags(text)
            tagio.write_tags(reloaded, header2["resolution_ps"], binary2)
            assert Path(binary1).read_bytes() == Path(binary2).read_bytes()


class TestQuantizationCommutesWithBinning:
    def test_two_ns_file_matches_prequantized_histogram(self, tmp_path):
        # rounding times to a 2 ns grid then binning at 2 ns equals binning the
        # pre-quantized in-memory streams (bin width is a grid multiple)
        rng = np.random.default_rng(40)
        duration = 1e-4
        raw = [
            np.sort(rng.integers(0, int(duration * 1e12), 20_000)).astype(np.int64)
            for _ in range(2)
        ]
        streams = [EventStream(ch, t, duration) for ch, t in enumerate(raw)]
        path = tmp_path / "q.bin"
        tagio.write_tags(streams, 2000, path, rounding="round")
        loaded, _ = tagio.read_tags(path)

        quantized = [
            EventStream(ch, (t + 1000) // 2000 * 2000, duration) for ch, t in enumerate(raw)
        ]
        config = CorrelationConfig(2000, -100_000, 100_000)
        from_file = cross_correlate(loaded[0], loaded[1], config)
        in_memory = cross_correlate(quantized[0], quantized[1], config)
        assert np.array_equal(from_file.counts, in_memory.counts)
