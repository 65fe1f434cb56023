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
"""

from __future__ import annotations

import struct

import numpy as np

from .photonsim import EventStream
from .quantities import _TICK_MAX

MAGIC = b"BLTTAG01"
VERSION = 1
_HEADER = struct.Struct("<8sIQH10s")  # magic, version, resolution_ps, channel_count, reserved
HEADER_SIZE = _HEADER.size
RECORD_SIZE = 16

SUPPORTED_RESOLUTIONS = frozenset(m * 10**k for m in (1, 2, 25) for k in range(13))
MAX_CHANNELS = 2
_FLAG_ROUNDED = 0x01
_FIELDS_MASK = np.uint64(2**64 - 1 - (_FLAG_ROUNDED << 8))  # record word 1, all but flag bit 0


class TagFileError(ValueError):
    """Malformed tag file; ``offset`` is the first offending byte offset."""

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


def _split_channels(ticks, channels, resolution_ps, channel_count):
    """(streams, header) of checked records; each stream's duration is its last tick."""
    streams = [EventStream(ch, ticks[channels == ch]) for ch in range(channel_count)]
    return streams, {"resolution_ps": resolution_ps, "channel_count": channel_count}


def _encode(streams, resolution_ps, rounding: str):
    """(resolution_ps, records) for ``write_tags``' arguments: the checked
    resolution and an ``(n, 2)`` ``<u8`` array of records in file order."""
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
    times, fields, off_grid = [], [], []
    for channel, stream in enumerate(streams):
        time, remainder = np.divmod(stream.times, resolution_ps)
        inexact = remainder != 0
        if inexact.any():  # the stream is sorted, so this is its smallest off-grid tick
            off_grid.append(int(stream.times[np.argmax(inexact)]))
        # half up without forming ticks + resolution // 2, which could wrap
        time += 2 * remainder >= resolution_ps
        times.append(time)
        fields.append((inexact * np.uint16(_FLAG_ROUNDED)) << 8 | channel)  # flags << 8 | channel
    if off_grid and rounding == "exact":
        raise UnrepresentableTimeError(
            f"time {min(off_grid)} ps is not a multiple of {resolution_ps} ps "
            "(use rounding='round')"
        )
    # rounding is monotone, so each stream stays sorted: its last time is its
    # largest, and one sort of the rounded times gives the global order
    largest = max((int(t[-1]) for t in times if t.size), default=0)
    if largest > _TICK_MAX // resolution_ps:
        raise UnrepresentableTimeError(
            f"a time rounds to {largest * resolution_ps} ps, beyond 64-bit picosecond ticks"
        )
    times, fields = np.concatenate(times), np.concatenate(fields)
    order = np.lexsort((fields & 0xFF, times))  # ties by channel ascending
    records = np.empty((times.size, 2), dtype="<u8")
    records[:, 0] = times[order]
    records[:, 1] = fields[order]
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


def read_tags(path):
    """Read and validate a binary tag file.

    Returns (streams, header) where streams are per-channel sorted
    ``EventStream`` objects in picosecond ticks (time * resolution_ps) and
    header is a dict with ``resolution_ps`` and ``channel_count``. Each
    stream's duration is its latest event time, exactly (files do not carry
    the acquisition duration).
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
    records = np.frombuffer(data, dtype="<u8", offset=HEADER_SIZE).reshape(-1, 2)
    # Masking out the one legal flag bit leaves a value below channel_count
    # exactly when channel, flags and padding are all valid.
    fields = records[:, 1]
    if ((fields & _FIELDS_MASK) >= channel_count).any():
        _raise_record_field_error(fields, channel_count)
    times = records[:, 0]
    ticks = times.astype(np.int64)
    regress = np.diff(ticks) < 0
    if regress.any():
        first = int(np.argmax(regress)) + 1
        raise TimeOrderError("record times regress", offset=HEADER_SIZE + RECORD_SIZE * first)
    if times.size and int(times.max()) * resolution_ps > _TICK_MAX:
        raise RecordFieldError(
            "event time overflows 64-bit picosecond ticks",
            offset=HEADER_SIZE + RECORD_SIZE * int(np.argmax(times)),
        )
    ticks *= resolution_ps
    return _split_channels(ticks, fields & 0xFF, resolution_ps, channel_count)


def _raise_record_field_error(fields, channel_count: int):
    """Raise the first bad channel, else the first bad flags, else the first bad padding."""
    channels = fields & 0xFF
    bad_channel = channels >= channel_count
    if bad_channel.any():
        first = int(np.argmax(bad_channel))
        raise RecordFieldError(
            f"record channel {int(channels[first])} >= channel count {channel_count}",
            offset=HEADER_SIZE + RECORD_SIZE * first + 8,
        )
    flags = fields >> 8 & 0xFF
    bad_flags = (flags & (0xFF ^ _FLAG_ROUNDED)) != 0
    if bad_flags.any():
        first = int(np.argmax(bad_flags))
        raise RecordFieldError(
            f"record flags 0x{int(flags[first]):02x} has reserved bits set",
            offset=HEADER_SIZE + RECORD_SIZE * first + 9,
        )
    first = int(np.argmax(fields >> 16 != 0))
    raise RecordFieldError(
        "record padding bytes are not zero",
        offset=HEADER_SIZE + RECORD_SIZE * first + 10,
    )


def write_text_tags(streams, resolution_ps: int, path) -> None:
    """Write the newline-delimited debug twin: ``ticks_ps,channel`` rows.

    The rows are the records ``write_tags`` would write in round mode; text
    has no flag column, so a rounded time is not marked.
    """
    resolution_ps, records = _encode(streams, resolution_ps, "round")
    ticks = (records[:, 0] * np.uint64(resolution_ps)).tolist()
    channels = (records[:, 1] & 0xFF).tolist()
    with open(path, "w", newline="\n") as f:
        f.write(f"# resolution_ps={resolution_ps}\n")
        f.write(f"# channels={len(streams)}\n")
        f.writelines(f"{t},{ch}\n" for t, ch in zip(ticks, channels))


def read_text_tags(path):
    """Read the text format; returns (streams, header) like ``read_tags``.

    Leading ``# key=value`` lines are metadata; ``resolution_ps`` is required,
    ``channels`` is optional (inferred from the data when absent).
    """
    with open(path, "r", newline="") as f:
        lines = f.read().splitlines()
    meta = {}
    body_start = 0
    for line in lines:
        if not line.startswith("#"):
            break
        body_start += 1
        key, eq, value = line.lstrip("#").partition("=")
        if eq:
            meta[key.strip()] = value.strip()
    if "resolution_ps" not in meta:
        raise TextFormatError("line 1: missing '# resolution_ps=N' header")
    try:
        resolution_ps = int(meta["resolution_ps"])
    except ValueError:
        raise TextFormatError(f"line 1: bad resolution {meta['resolution_ps']!r}") from None
    if resolution_ps not in SUPPORTED_RESOLUTIONS:
        raise TextFormatError(f"line 1: unsupported resolution {resolution_ps} ps")
    declared_channels = None
    if "channels" in meta:
        try:
            declared_channels = int(meta["channels"])
        except ValueError:
            raise TextFormatError(f"bad channels header {meta['channels']!r}") from None
        if not 1 <= declared_channels <= MAX_CHANNELS:
            raise TextFormatError(f"channels {declared_channels} outside 1..{MAX_CHANNELS}")
    ticks, channels = [], []
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TextFormatError(f"line {lineno}: expected 'ticks_ps,channel', got {line!r}")
        try:
            t = int(parts[0])
            ch = int(parts[1])
        except ValueError:
            raise TextFormatError(f"line {lineno}: non-integer field in {line!r}") from None
        if t < 0:
            raise TextFormatError(f"line {lineno}: negative time {t}")
        if t > _TICK_MAX:
            raise TextFormatError(f"line {lineno}: time {t} overflows 64-bit picosecond ticks")
        if not 0 <= ch < MAX_CHANNELS:
            raise TextFormatError(f"line {lineno}: channel {ch} outside 0..{MAX_CHANNELS - 1}")
        if ticks and t < ticks[-1]:
            raise TextFormatError(f"line {lineno}: time {t} regresses")
        if t % resolution_ps != 0:
            raise TextFormatError(
                f"line {lineno}: time {t} is not a multiple of resolution {resolution_ps}"
            )
        ticks.append(t)
        channels.append(ch)
    inferred = max(channels, default=0) + 1
    channel_count = declared_channels if declared_channels is not None else inferred
    if inferred > channel_count:
        raise TextFormatError(
            f"channel {inferred - 1} exceeds declared channel count {channel_count}"
        )
    ticks, channels = np.asarray(ticks, dtype=np.int64), np.asarray(channels, dtype=np.uint8)
    return _split_channels(ticks, channels, resolution_ps, channel_count)
