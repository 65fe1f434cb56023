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
