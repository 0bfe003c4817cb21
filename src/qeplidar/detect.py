"""Detector response and the on-disk time-tag stream format.

Detection = efficiency thinning + Gaussian timing jitter + uniform dark
counts, producing integer-ps tags.  Dead time is non-paralyzable and acts
once on each merged channel, in one pass over its sorted tags
(`apply_dead_time`).

Wire format (little-endian, byte offsets in parentheses):
  magic  "QTT1"                      (0,  4 bytes)
  version u16                        (4,  2 bytes)
  repetition period, rounded ps, u64 (6,  8 bytes)
  record count u64                   (14, 8 bytes)
  scenario fingerprint               (22, 32 bytes)
  records: channel u8 + timestamp i64, timestamp-sorted (54 + 9*i)
Channels: 0 = REF, 1 = HERALD, 2 = PROBE.  A CSV mirror with header
"channel,timestamp_ps" is written for plotting tools.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .model import PS_PER_S, fwhm_to_sigma

MAGIC = b"QTT1"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sHQQ32s")

CH_REF = 0
CH_HERALD = 1
CH_PROBE = 2

_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp", "<i8")])


class TagFormatError(ValueError):
    """Malformed tag-stream file; the message carries the byte offset."""


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detector model.

    quantum_efficiency defaults to 1 because the channel loss coefficients
    already absorb detector efficiency; jitter is Gaussian FWHM in ps.
    """

    quantum_efficiency: float = 1.0
    jitter_fwhm_ps: float = 0.0
    dark_rate_per_s: float = 0.0
    dead_time_ps: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise ValueError("quantum efficiency must be in [0, 1]")
        if self.jitter_fwhm_ps < 0:
            raise ValueError("jitter FWHM must be non-negative")
        if self.dark_rate_per_s < 0:
            raise ValueError("dark rate must be non-negative")
        if self.dead_time_ps < 0:
            raise ValueError("dead time must be non-negative")


@dataclass
class TagStream:
    """Time-sorted detection events of one measurement configuration."""

    channels: np.ndarray          # uint8
    timestamps: np.ndarray        # int64, non-decreasing
    duration_ps: int
    fingerprint: bytes = b"\x00" * 32
    period_ps_rounded: int = 0

    def __post_init__(self):
        self.channels = np.ascontiguousarray(self.channels, dtype=np.uint8)
        self.timestamps = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        if self.channels.shape != self.timestamps.shape:
            raise ValueError("channel and timestamp arrays must match in length")
        if self.timestamps.size and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if len(self.fingerprint) != 32:
            raise ValueError("fingerprint must be 32 bytes")
        if self.timestamps.size:
            self.duration_ps = int(max(self.duration_ps, self.timestamps[-1]))

    def __len__(self):
        return self.timestamps.size

    def channel_times(self, channel: int) -> np.ndarray:
        return self.timestamps[self.channels == channel]


def apply_dead_time(timestamps: np.ndarray, dead_time_ps: float) -> np.ndarray:
    """Non-paralyzable dead time over sorted int64 tags.

    The first tag is kept; a later tag is kept iff it comes more than
    dead_time_ps after the last kept tag, so a gap of exactly dead_time_ps
    is dropped.  One pass, linear in the tag count however long a burst is.
    dead_time_ps <= 0 is the off switch and returns the input unchanged.
    """
    if dead_time_ps <= 0 or timestamps.size == 0:
        return timestamps
    kept = array("q")
    keep = kept.append
    last = -math.inf
    for t in memoryview(timestamps):
        if t - last > dead_time_ps:
            keep(t)
            last = t
    return np.frombuffer(kept, dtype=np.int64)


def detect_channel(true_arrivals_ps, spec: DetectorSpec, duration_ps: float,
                   generator: np.random.Generator) -> np.ndarray:
    """Turn true arrival times into detector tags (sorted int64 ps).

    Thinning, jitter, and dark-count draws all come from `generator`, so a
    component detected once can be reused verbatim across measurement
    configurations (common random numbers).  Negative tags are clipped to
    0.  spec.dead_time_ps is not applied here: dead time acts on the merged
    channel (`apply_dead_time`).
    """
    arrivals = np.asarray(true_arrivals_ps, dtype=np.float64)
    if spec.quantum_efficiency < 1.0 and arrivals.size:
        arrivals = arrivals[generator.random(arrivals.size) < spec.quantum_efficiency]
    n_dark = generator.poisson(spec.dark_rate_per_s * duration_ps / PS_PER_S)
    if n_dark:
        darks = generator.uniform(0.0, duration_ps, n_dark)
        arrivals = np.concatenate([arrivals, darks])
    if spec.jitter_fwhm_ps > 0 and arrivals.size:
        arrivals = arrivals + generator.normal(
            0.0, fwhm_to_sigma(spec.jitter_fwhm_ps), arrivals.size)
    tags = np.rint(arrivals).astype(np.int64)
    tags[tags < 0] = 0
    tags.sort(kind="stable")
    return tags


def merge_streams(per_channel: dict, duration_ps: float,
                  fingerprint: bytes = b"\x00" * 32,
                  period_ps_rounded: int = 0) -> TagStream:
    """K-way merge of per-channel sorted tags into one TagStream.

    Equal timestamps order by channel id (REF < HERALD < PROBE).
    """
    chans = []
    times = []
    for ch, ts in sorted(per_channel.items()):
        ts = np.asarray(ts, dtype=np.int64)
        if ts.size and np.any(np.diff(ts) < 0):
            raise ValueError(f"channel {ch} tags are not sorted")
        chans.append(np.full(ts.size, ch, dtype=np.uint8))
        times.append(ts)
    if not times:
        ch_all = np.empty(0, dtype=np.uint8)
        ts_all = np.empty(0, dtype=np.int64)
    else:
        ch_all = np.concatenate(chans)
        ts_all = np.concatenate(times)
        order = np.lexsort((ch_all, ts_all))
        ch_all = ch_all[order]
        ts_all = ts_all[order]
    return TagStream(ch_all, ts_all, int(duration_ps), fingerprint,
                     period_ps_rounded)


def write_tags(stream: TagStream, path) -> None:
    records = np.empty(len(stream), dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    records["timestamp"] = stream.timestamps
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, stream.period_ps_rounded,
                             len(stream), stream.fingerprint))
        fh.write(records.tobytes())


def read_tags(path) -> TagStream:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER.size:
        raise TagFormatError(f"truncated header: {len(raw)} bytes at offset 0")
    magic, version, period, count, fingerprint = HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise TagFormatError(f"bad magic {magic!r} at offset 0")
    if version != FORMAT_VERSION:
        raise TagFormatError(f"unsupported version {version} at offset 4")
    body = raw[HEADER.size:]
    expected = count * _RECORD_DTYPE.itemsize
    if len(body) != expected:
        raise TagFormatError(
            f"truncated records: expected {expected} bytes, got {len(body)} "
            f"at offset {HEADER.size}")
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    ts = records["timestamp"]
    if ts.size:
        bad = np.flatnonzero(np.diff(ts) < 0)
        if bad.size:
            offset = HEADER.size + int(bad[0] + 1) * _RECORD_DTYPE.itemsize
            raise TagFormatError(f"unsorted payload at offset {offset}")
    bad = np.flatnonzero(records["channel"] > CH_PROBE)
    if bad.size:
        offset = HEADER.size + int(bad[0]) * _RECORD_DTYPE.itemsize
        raise TagFormatError(f"unknown channel id in payload at offset {offset}")
    duration = int(ts[-1]) if ts.size else 0
    return TagStream(records["channel"].copy(), ts.copy(), duration,
                     fingerprint, int(period))


def write_tags_csv(stream: TagStream, path) -> None:
    with open(path, "w") as fh:
        fh.write("channel,timestamp_ps\n")
        for ch, ts in zip(stream.channels, stream.timestamps):
            fh.write(f"{ch},{ts}\n")

