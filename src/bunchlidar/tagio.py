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
``ticks_ps,channel`` rows of the records the binary writer's round mode makes,
lossless both ways for times on the resolution grid (text has no flag column).

Both writers share one encoder and both readers one decoder, so a record rule
is checked once: a bad channel, flags or padding, or a time past 2**63 - 1 ps,
is a ``RecordFieldError`` and a regress a ``TimeOrderError``, named by byte
offset in a binary file and by ``line N`` in a text file; the range fault names
the first record past 2**63 - 1 ps. The binary reader decodes views of the
file's bytes: its only copies of the times are the returned channels. A text
field that fits no record (not an integer, a time outside 0..2**63 - 1 ps or
off the resolution grid, a channel outside 0..255) is a ``TextFormatError``.
"""

from __future__ import annotations

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


def _encode(streams, resolution_ps, rounding: str):
    """(resolution_ps, records) for ``write_tags``' arguments: the checked
    resolution and a ``_RECORD`` array in file order."""
    resolution_ps = int(resolution_ps)
    if resolution_ps not in SUPPORTED_RESOLUTIONS:
        raise TagFileError(
            f"unsupported resolution {resolution_ps} ps "
            "(must be 1, 2, or 25 times a power of ten)"
        )
    if not 1 <= len(streams) <= MAX_CHANNELS:
        raise TagFileError(
            f"version-{VERSION} files carry 1 to {MAX_CHANNELS} channels, got {len(streams)}"
        )
    if rounding not in ("exact", "round"):
        raise TagFileError(f"rounding must be 'exact' or 'round', got {rounding!r}")
    ticks = np.concatenate([stream.times for stream in streams])
    time, remainder = np.divmod(ticks, resolution_ps)
    inexact = remainder != 0
    if rounding == "exact" and inexact.any():
        raise UnrepresentableTimeError(
            f"time {int(ticks[inexact].min())} ps is not a multiple of {resolution_ps} ps "
            "(use rounding='round')"
        )
    # half up without forming ticks + resolution // 2, which could wrap
    time += 2 * remainder >= resolution_ps
    del ticks, remainder  # the sort and the records below are the encoder's peak
    largest = int(time.max(initial=0))
    if largest > _TICK_MAX // resolution_ps:
        raise UnrepresentableTimeError(
            f"a time rounds to {largest * resolution_ps} ps, beyond 64-bit picosecond ticks"
        )
    order = np.argsort(time, kind="stable")  # ties stay in channel order
    records = np.zeros(time.size, _RECORD)
    records["time"] = time[order]
    records["channel"] = order >= len(streams[0])  # at most two channels
    records["flags"] = inexact[order]  # _FLAG_ROUNDED where rounded
    return resolution_ps, records


def write_tags(streams, resolution_ps: int, path, rounding: str = "exact") -> None:
    """Write streams to a single binary tag file at the given tick size.

    ``rounding='exact'`` refuses times that are not exact multiples of the
    resolution; ``rounding='round'`` rounds half up and sets flag bit 0 on
    each affected record. A time whose rounded tick count times the
    resolution exceeds 2**63 - 1 ps is refused in either mode.
    """
    resolution_ps, records = _encode(streams, resolution_ps, rounding)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, resolution_ps, len(streams), b""))
        f.write(records)


def _decode(records, resolution_ps: int, channel_count: int, line_of=None):
    """(streams, header) of a ``_RECORD`` array in file order.

    Checks channel, flags, padding, time order, then the 64-bit tick range. A
    fault names its field's byte offset, or record i's line ``line_of(i)``.
    """

    def fault(error, message, index, byte=0):
        if line_of is None:
            return error(message, offset=HEADER_SIZE + RECORD_SIZE * int(index) + byte)
        return error(f"line {line_of(int(index))}: {message}")

    fields, channels, flags = records["fields"], records["channel"], records["flags"]
    # Masking out the one legal flag bit leaves a value below channel_count
    # exactly when channel, flags and padding are all valid.
    if ((fields & _FIELDS_MASK) >= channel_count).any():
        for byte, value, bad, message in (
            (8, channels, channels >= channel_count, "record channel {v} >= channel count {n}"),
            (9, flags, flags > _FLAG_ROUNDED, "record flags 0x{v:02x} has reserved bits set"),
            (10, fields, fields >> 16 != 0, "record padding bytes are not zero"),
        ):
            if bad.any():  # the first faulty field in this order is named
                i = np.argmax(bad)
                message = message.format(v=int(value[i]), n=channel_count)
                raise fault(RecordFieldError, message, i, byte)
    times = records["time"]
    regress = times[1:] < times[:-1]  # u64 neighbours: no cast, no wrap
    if regress.any():
        raise fault(TimeOrderError, "record times regress", np.argmax(regress) + 1)
    top = np.uint64(_TICK_MAX // resolution_ps)  # a Python int would compare as float64
    if times.size and times[-1] > top:
        raise fault(RecordFieldError, "event time overflows 64-bit picosecond ticks",
                    np.searchsorted(times, top, side="right"))
    cut = (times[channels == ch].view(np.int64) for ch in range(channel_count))  # the only copies
    streams = [EventStream(ch, np.multiply(t, resolution_ps, out=t)) for ch, t in enumerate(cut)]
    return streams, {"resolution_ps": resolution_ps, "channel_count": channel_count}


def read_tags(path):
    """Read and validate a binary tag file.

    Returns (streams, header): per-channel sorted ``EventStream`` objects in
    picosecond ticks (time * resolution_ps), each lasting to its latest event
    (files do not carry the acquisition duration), and a dict with
    ``resolution_ps`` and ``channel_count``.
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(MAGIC):
        raise BadMagicError("bad magic", offset=0)
    if len(data) < HEADER_SIZE:
        raise TruncatedRecordError(
            f"header needs {HEADER_SIZE} bytes, file has {len(data)}", offset=len(data)
        )
    _, version, resolution_ps, channel_count, reserved = _HEADER.unpack_from(data)
    if version != VERSION:
        raise HeaderFieldError(f"unsupported version {version}", offset=8)
    if resolution_ps not in SUPPORTED_RESOLUTIONS:
        raise HeaderFieldError(f"unsupported resolution {resolution_ps} ps", offset=12)
    if not 1 <= channel_count <= MAX_CHANNELS:
        raise HeaderFieldError(f"channel count {channel_count} outside 1..{MAX_CHANNELS}", offset=20)
    if any(reserved):
        bad = len(reserved) - len(reserved.lstrip(b"\0"))
        raise HeaderFieldError("nonzero reserved byte", offset=22 + bad)

    trailing = (len(data) - HEADER_SIZE) % RECORD_SIZE
    if trailing:
        raise TruncatedRecordError(
            f"trailing {trailing} bytes are not a full record", offset=len(data) - trailing
        )
    return _decode(np.frombuffer(data, _RECORD, offset=HEADER_SIZE), resolution_ps, channel_count)


def write_text_tags(streams, resolution_ps: int, path) -> None:
    """Write the newline-delimited debug twin: ``ticks_ps,channel`` rows.

    The rows are the records ``write_tags`` would write in round mode; text
    has no flag column, so a rounded time is not marked.
    """
    resolution_ps, records = _encode(streams, resolution_ps, "round")
    ticks = (records["time"] * np.uint64(resolution_ps)).tolist()
    channels = records["channel"].tolist()
    with open(path, "w", newline="\n") as f:
        f.write(f"# resolution_ps={resolution_ps}\n")
        f.write(f"# channels={len(streams)}\n")
        f.writelines(f"{t},{ch}\n" for t, ch in zip(ticks, channels))


def read_text_tags(path):
    """Read the text format; returns (streams, header) like ``read_tags``.

    Leading ``# key=value`` lines are metadata; ``resolution_ps`` is required,
    ``channels`` is optional (inferred from the data when absent).
    """
    with open(path, "rb") as f:
        data = f.read()
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
    return _decode(records, resolution_ps, channel_count, line_of)
