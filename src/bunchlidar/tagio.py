"""Bit-exact binary and text interchange formats for timestamp streams.

Binary layout (little-endian throughout):

    header, 32 bytes:
        offset  0: magic, 8 bytes, b"BLTTAG01"
        offset  8: version, u32, must be 1
        offset 12: resolution_ps, u64, tick size in picoseconds
        offset 20: channel_count, u16
        offset 22: reserved, 10 zero bytes
    records, 16 bytes each, in global time order (ties by channel ascending):
        offset +0: time, u64, units of resolution_ps
        offset +8: channel, u8
        offset +9: flags, u8 (bit 0: time was rounded at write; others zero)
        offset +10: padding, 6 zero bytes
    so a record is two little-endian u64 words: the time, then
    ``channel | flags << 8`` with the padding above bit 16.

The version-1 profile is deliberately strict so that any single corrupted
header bit is detected: resolution_ps must be 1, 2, or 25 times a power of
ten (1 ps internal, 25 ps for 40 GSPS sampling, 2 ns FPGA class, and decade
multiples), and channel_count must be 1 or 2 (this is a two-detector
instrument format). Every reserved byte must be zero.

The text twin is line-oriented: a ``# resolution_ps=N`` header followed by
``ticks_ps,channel`` rows of the records the binary writer's exact mode makes,
lossless both ways (text has no flag column, and a time off the grid is refused).

Both writers share one encoder and both readers one decoder, each working in
chunks of ``_CHUNK_RECORDS`` records: beyond the streams they write or return,
the writers and the binary reader hold O(chunk) memory (the text reader, a
debug path, parses its whole file first). A writer makes every refusal before
it opens the file, then merges the two sorted channels one horizon at a time.
The decoder checks each chunk, order across chunk boundaries included, and
raises the file's first fault in this order: a bad channel, flags or padding
is a ``RecordFieldError``, then a regress a ``TimeOrderError``, then a time
past 2**63 - 1 ps a ``RecordFieldError``; each names its first record, by byte
offset in a binary file and by ``line N`` in a text file. The binary reader
reads one reused chunk at a time and puts the times straight into the
returned channels, its only copies of them (a pipe is read whole first);
``read_tags`` decodes text instead when the first byte is '#'. A text field
that fits no record (not an integer, a time outside 0..2**63 - 1 ps or off
the resolution grid, a channel outside 0..255) is a ``TextFormatError``.
"""

from __future__ import annotations

import io
import itertools
import struct

import numpy as np

from .photonsim import EventStream
from .quantities import UserError, _TICK_MAX

MAGIC = b"BLTTAG01"
VERSION = 1
_HEADER = struct.Struct("<8sIQH10s")  # magic, version, resolution_ps, channel_count, reserved
HEADER_SIZE = _HEADER.size
# a record's time word, then its second word whole and, overlaid, its channel and flags bytes
_RECORD = np.dtype({"names": ["time", "fields", "channel", "flags"],
                    "formats": ["<u8", "<u8", "u1", "u1"], "offsets": [0, 8, 8, 9]})
RECORD_SIZE = _RECORD.itemsize

SUPPORTED_RESOLUTIONS = frozenset(m * 10**k for m in (1, 2, 25) for k in range(13))
MAX_CHANNELS = 2
_FLAG_ROUNDED = 0x01
_FIELDS_MASK = np.uint64(2**64 - 1 - (_FLAG_ROUNDED << 8))  # record word 1, all but flag bit 0
_ROUNDED_WORD = np.uint64(_FLAG_ROUNDED << 8)  # record word 1 of a rounded channel-0 record
_CHUNK_RECORDS = 1 << 16  # records per encoder or decoder step: 1 MiB of records


class TagFileError(UserError, ValueError):
    """Malformed tag file; ``offset`` is the first offending byte offset, if any."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} at offset {offset}")
        self.offset = offset


class BadMagicError(TagFileError):
    pass


class HeaderFieldError(TagFileError):
    pass


class TruncatedRecordError(TagFileError):
    pass


class RecordFieldError(TagFileError):
    pass


class TimeOrderError(TagFileError):
    pass


class UnrepresentableTimeError(TagFileError):
    """A time off the resolution grid in exact mode, or past 2**63 - 1 ps once rounded."""


class TextFormatError(TagFileError):
    """Malformed text tag file; message names the line number."""


def _rounded(ticks, resolution_ps: int):
    """(grid ticks rounded half up, whether each was off the grid) of a tick
    or an array of ticks, without forming ticks + resolution // 2, which could wrap;
    on the 1 ps grid, where no tick is off it, (ticks, None) with no arithmetic."""
    if resolution_ps == 1:
        return ticks, None
    time, remainder = divmod(ticks, resolution_ps)
    return time + (2 * remainder >= resolution_ps), remainder != 0


def _first_off_grid(times, resolution_ps: int):
    """The first time of a sorted stream that is off the grid, or None."""
    for lo in range(0, times.size, _CHUNK_RECORDS):
        chunk = times[lo : lo + _CHUNK_RECORDS]
        off = np.flatnonzero(chunk % resolution_ps)
        if off.size:
            return int(chunk[off[0]])
    return None


def checked_resolution(resolution_ps) -> int:
    """``resolution_ps`` as an int, refused unless a tag file can carry it."""
    resolution_ps = int(resolution_ps)
    if resolution_ps not in SUPPORTED_RESOLUTIONS:
        raise TagFileError(f"unsupported resolution {resolution_ps} ps "
                           "(must be 1, 2, or 25 times a power of ten)")
    return resolution_ps


def _encodable(streams, resolution_ps, rounding: str) -> int:
    """The checked resolution of ``write_tags``' arguments: every refusal is
    made here, before a file is opened."""
    resolution_ps = checked_resolution(resolution_ps)
    if not 1 <= len(streams) <= MAX_CHANNELS:
        raise TagFileError(
            f"version-{VERSION} files carry 1 to {MAX_CHANNELS} channels, got {len(streams)}"
        )
    if rounding not in ("exact", "round"):
        raise TagFileError(f"rounding must be 'exact' or 'round', got {rounding!r}")
    if rounding == "exact" and resolution_ps != 1:
        off_grid = [_first_off_grid(s.times, resolution_ps) for s in streams]
        off_grid = [t for t in off_grid if t is not None]
        if off_grid:
            raise UnrepresentableTimeError(
                f"time {min(off_grid)} ps is not a multiple of {resolution_ps} ps "
                "(use rounding='round')"
            )
    # rounding is monotone: a stream's last time rounds to its largest tick
    largest = max((_rounded(int(s.times[-1]), resolution_ps)[0] for s in streams if len(s)),
                  default=0)
    if largest > _TICK_MAX // resolution_ps:
        raise UnrepresentableTimeError(
            f"a time rounds to {largest * resolution_ps} ps, beyond 64-bit picosecond ticks"
        )
    return resolution_ps


def _encode(streams, resolution_ps: int):
    """The records of ``_encodable`` streams in file order, one horizon at a
    time: ``(k, 2)`` arrays of each record's two words, k <= 2 * _CHUNK_RECORDS,
    each overwritten by the next."""
    a = streams[0].times
    b = streams[-1].times if len(streams) == 2 else a[:0]
    words = np.empty((2 * _CHUNK_RECORDS, 2), "<u8")
    i = j = 0
    while i < a.size or j < b.size:
        ta, fa = _rounded(a[i : i + _CHUNK_RECORDS], resolution_ps)
        tb, fb = _rounded(b[j : j + _CHUNK_RECORDS], resolution_ps)
        # a chunk that stops short of its stream's end is known up to its last
        # tick, the horizon; channel 0 comes first at a tick both channels hold
        if i + ta.size < a.size and not (j + tb.size < b.size and tb[-1] < ta[-1]):
            tb = tb[: np.searchsorted(tb, ta[-1], side="left")]  # channel 0 may go on at ta[-1]
        elif j + tb.size < b.size:
            ta = ta[: np.searchsorted(ta, tb[-1], side="right")]
        i, j = i + ta.size, j + tb.size
        # a stable sort of two sorted runs merges them, channel 0 first on a tie
        ticks = np.concatenate((ta, tb))
        order = np.argsort(ticks, kind="stable")
        chunk = words[: ticks.size]
        chunk[:, 0] = ticks[order]
        chunk[:, 1] = order >= ta.size
        if fa is not None:  # a grid coarser than 1 ps: flag the rounded times
            chunk[:, 1] |= np.concatenate((fa[: ta.size], fb[: tb.size]))[order] * _ROUNDED_WORD
        yield chunk


def write_tags(streams, resolution_ps: int, path, rounding: str = "exact") -> None:
    """Write streams to a single binary tag file at the given tick size.

    ``rounding='exact'`` refuses times that are not exact multiples of the
    resolution; ``rounding='round'`` rounds half up and sets flag bit 0 on
    each affected record. A time whose rounded tick count times the
    resolution exceeds 2**63 - 1 ps is refused in either mode. A refused
    write leaves the path as it was.
    """
    resolution_ps = _encodable(streams, resolution_ps, rounding)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, resolution_ps, len(streams), b""))
        for chunk in _encode(streams, resolution_ps):
            f.write(chunk)


def _decode(chunks, n: int, resolution_ps: int, channel_count: int, line_of=None):
    """(streams, header) of n records in file order, given as ``_RECORD``
    chunks, each of which may be overwritten once the next is taken.

    Checks channel, flags, padding, time order, then the 64-bit tick range,
    and raises the fault that comes first in that order over the whole file,
    at its first record: its field's byte offset, or record i's line
    ``line_of(i)``. The times go straight into one array of n: channel 0
    from the front, channel 1 from the back, turned round at the end.
    """
    times_out = np.empty(n, np.int64)
    front, back, done, last = 0, n, 0, 0
    top = np.uint64(_TICK_MAX // resolution_ps)  # a Python int would compare as float64
    faults = {}  # rank in the order above -> the first (error, message, record, byte) of its kind
    order_rank, range_rank = 3, 4  # after channel, flags and padding
    for records in chunks:
        fields, times = records["fields"], records["time"]
        # Masking out the one legal flag bit leaves a value below channel_count
        # exactly when channel, flags and padding are all valid.
        if ((fields & _FIELDS_MASK) >= channel_count).any():
            channels, flags = records["channel"], records["flags"]
            for rank, (byte, value, bad, message) in enumerate((
                (8, channels, channels >= channel_count, "record channel {v} >= channel count {n}"),
                (9, flags, flags > _FLAG_ROUNDED, "record flags 0x{v:02x} has reserved bits set"),
                (10, fields, fields >> 16 != 0, "record padding bytes are not zero"),
            )):
                if rank not in faults and bad.any():
                    i = int(np.argmax(bad))
                    message = message.format(v=int(value[i]), n=channel_count)
                    faults[rank] = (RecordFieldError, message, done + i, byte)
        if order_rank not in faults:
            regress = times[1:] < times[:-1]  # u64 neighbours: no cast, no wrap
            if times[0] < last or regress.any():  # the chunk before ended at last
                i = 0 if times[0] < last else int(np.argmax(regress)) + 1
                faults[order_rank] = (TimeOrderError, "record times regress", done + i, 0)
            elif range_rank not in faults and times[-1] > top:
                i = int(np.searchsorted(times, top, side="right"))
                message = "event time overflows 64-bit picosecond ticks"
                faults[range_rank] = (RecordFieldError, message, done + i, 0)
        last = times[-1]
        if not faults:  # checked: each channel is 0 or 1, each time below 2**63
            ones = records["channel"].view(bool)
            k = int(np.count_nonzero(ones))
            head = times_out[front : front + times.size - k]
            tail = times_out[back - k : back][::-1]
            for part, where in ((head, ~ones), (tail, ones)):
                np.compress(where, times.view("<i8"), out=part)
                if resolution_ps != 1:
                    part *= resolution_ps
            front, back = front + head.size, back - k
        done += times.size
    if faults:
        error, message, index, byte = faults[min(faults)]
        if line_of is None:
            raise error(message, offset=HEADER_SIZE + RECORD_SIZE * index + byte)
        raise error(f"line {line_of(index)}: {message}")
    lo, hi = front, n
    while hi - lo > 1:  # channel 1 came in reversed: turn it round a chunk at a time
        c = min(_CHUNK_RECORDS, (hi - lo) // 2)
        head = times_out[lo : lo + c].copy()
        times_out[lo : lo + c] = times_out[hi - c : hi][::-1]
        times_out[hi - c : hi] = head[::-1]
        lo, hi = lo + c, hi - c
    cut = (times_out[:front], times_out[front:])[:channel_count]
    streams = [EventStream(ch, t) for ch, t in enumerate(cut)]
    return streams, {"resolution_ps": resolution_ps, "channel_count": channel_count}


def _read_chunks(f, n: int):
    """The n records that follow the header in open file f, read into one reused chunk."""
    raw = np.empty(min(n, _CHUNK_RECORDS) * RECORD_SIZE, np.uint8)
    for lo in range(0, n, _CHUNK_RECORDS):
        size = min(n - lo, _CHUNK_RECORDS) * RECORD_SIZE
        got = f.readinto(raw[:size])
        if got != size:
            raise TruncatedRecordError("file shrank while read",
                                       offset=HEADER_SIZE + lo * RECORD_SIZE + got)
        yield raw[:size].view(_RECORD)


def read_tags(path):
    """Read and validate a tag file: text (``read_text_tags``) if its first
    byte is '#', else binary.

    Returns (streams, header): per-channel sorted ``EventStream`` objects in
    picosecond ticks (time * resolution_ps), each lasting to its latest event
    (files do not carry the acquisition duration), and a dict with
    ``resolution_ps`` and ``channel_count``. The path is opened once, so it
    may be a pipe.
    """
    with open(path, "rb") as file:
        # the decoder takes the record count first, from the size: a pipe is read whole for it
        f = file if file.seekable() else io.BytesIO(file.read())
        if f.read(1) == b"#":  # a text file opens with its '#' header block
            f.seek(0)
            return _text_tags(f.read(), path)
        size = f.seek(0, io.SEEK_END)
        f.seek(0)
        data = f.read(HEADER_SIZE)
        if not MAGIC.startswith(data[:len(MAGIC)]):  # a prefix of the magic is a short header
            raise BadMagicError("bad magic", offset=0)
        if len(data) < HEADER_SIZE:
            raise TruncatedRecordError(
                f"header needs {HEADER_SIZE} bytes, file has {len(data)}", offset=len(data)
            )
        _, version, resolution_ps, channel_count, reserved = _HEADER.unpack(data)
        if version != VERSION:
            raise HeaderFieldError(f"unsupported version {version}", offset=8)
        if resolution_ps not in SUPPORTED_RESOLUTIONS:
            raise HeaderFieldError(f"unsupported resolution {resolution_ps} ps", offset=12)
        if not 1 <= channel_count <= MAX_CHANNELS:
            raise HeaderFieldError(f"channel count {channel_count} outside 1..{MAX_CHANNELS}",
                                   offset=20)
        if any(reserved):
            bad = len(reserved) - len(reserved.lstrip(b"\0"))
            raise HeaderFieldError("nonzero reserved byte", offset=22 + bad)

        n, trailing = divmod(size - HEADER_SIZE, RECORD_SIZE)
        if trailing:
            raise TruncatedRecordError(
                f"trailing {trailing} bytes are not a full record", offset=size - trailing
            )
        return _decode(_read_chunks(f, n), n, resolution_ps, channel_count)


def write_text_tags(streams, resolution_ps: int, path) -> None:
    """Write the newline-delimited debug twin: ``ticks_ps,channel`` rows.

    The rows are the records ``write_tags`` would write in exact mode, so a
    time off the resolution grid is refused.
    """
    resolution_ps = _encodable(streams, resolution_ps, "exact")
    with open(path, "w", newline="\n") as f:
        f.write(f"# resolution_ps={resolution_ps}\n")
        f.write(f"# channels={len(streams)}\n")
        for chunk in _encode(streams, resolution_ps):  # exact: the second word is the channel
            ticks = (chunk[:, 0] * np.uint64(resolution_ps)).tolist()
            f.writelines(f"{t},{ch}\n" for t, ch in zip(ticks, chunk[:, 1].tolist()))


def read_text_tags(path):
    """Read the text format; returns (streams, header) like ``read_tags``.

    Leading ``# key=value`` lines are metadata; ``resolution_ps`` is required,
    ``channels`` is optional (inferred from the data when absent).
    """
    with open(path, "rb") as f:
        return _text_tags(f.read(), path)


def _text_tags(data: bytes, path):
    """``read_text_tags`` of the bytes ``data`` read from ``path``."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise TextFormatError(f"{path}: not UTF-8 text", offset=exc.start) from None
    meta = {}
    body_start = 0
    for line in lines:
        if not line.startswith("#"):
            break
        body_start += 1
        key, eq, value = line.lstrip("#").partition("=")
        if eq:
            meta[key.strip()] = value.strip()

    def header(key, allowed):
        try:
            value = int(meta[key])
        except (KeyError, ValueError):
            value = None
        if value not in allowed:
            raise TextFormatError(f"header '# {key}=N' missing or unsupported: {meta.get(key)!r}")
        return value

    resolution_ps = header("resolution_ps", SUPPORTED_RESOLUTIONS)
    channel_count = header("channels", range(1, MAX_CHANNELS + 1)) if "channels" in meta else None

    def line_of(i):  # record i is the ith nonblank line after the header
        body = (n for n, line in enumerate(lines[body_start:], body_start + 1) if line.strip())
        return next(itertools.islice(body, i, None))

    ticks, channels = [], []
    try:
        for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
            if line.strip():
                t, ch = line.split(",")
                ticks.append(int(t))
                channels.append(int(ch))
    except ValueError:
        raise TextFormatError(
            f"line {lineno}: expected integers 'ticks_ps,channel', got {line!r}"
        ) from None
    # each field must fit its record word: a 63-bit picosecond time, a u8 channel
    for name, values, top in (("time", ticks, _TICK_MAX), ("channel", channels, 0xFF)):
        if values and not 0 <= min(values) <= max(values) <= top:
            i = next(i for i, v in enumerate(values) if not 0 <= v <= top)
            raise TextFormatError(f"line {line_of(i)}: {name} {values[i]} outside 0..{top}")
    records = np.zeros(len(ticks), _RECORD)
    records["time"], off_grid = np.divmod(ticks, resolution_ps)
    records["channel"] = channels
    if off_grid.any():
        i = int(np.argmax(off_grid != 0))
        raise TextFormatError(f"line {line_of(i)}: time {ticks[i]} "
                              f"is not a multiple of resolution {resolution_ps}")
    if channel_count is None:
        channel_count = min(max(channels, default=0) + 1, MAX_CHANNELS)
    chunks = (records[lo : lo + _CHUNK_RECORDS] for lo in range(0, records.size, _CHUNK_RECORDS))
    return _decode(chunks, records.size, resolution_ps, channel_count, line_of)
