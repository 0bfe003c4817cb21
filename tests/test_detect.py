import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qeplidar import rng
from qeplidar.detect import (
    CH_HERALD,
    CH_PROBE,
    CH_REF,
    DetectorSpec,
    TagFormatError,
    TagStream,
    apply_dead_time,
    detect_channel,
    merge_streams,
    read_tags,
    write_tags,
    write_tags_csv,
)
from qeplidar.model import fwhm_to_sigma, sigma_to_fwhm

SEED = 7


def _gen(component=rng.COMP_JITTER_PROBE_SIGNAL, seed=SEED):
    return rng.component_generator(seed, component)


# ---------------------------------------------------------------------------
# detect_channel


def test_ideal_detector_is_identity():
    arrivals = np.array([10.2, 55.7, 100.0])
    spec = DetectorSpec()
    tags = detect_channel(arrivals, spec, 1000.0, _gen())
    assert np.array_equal(tags, np.array([10, 56, 100]))


def test_thinning_statistics():
    n = 10 ** 6
    spec = DetectorSpec(quantum_efficiency=0.37)
    tags = detect_channel(np.linspace(0, 1e9, n), spec, 1e9 + 1, _gen(seed=1))
    assert abs(tags.size - 0.37 * n) <= 3 * math.sqrt(n * 0.37 * 0.63)


def test_jitter_distribution_fwhm():
    n = 10 ** 6
    fwhm = 89.9
    true = np.full(n, 5_000_000.0)
    spec = DetectorSpec(jitter_fwhm_ps=fwhm)
    tags = detect_channel(true, spec, 10_000_000.0, _gen())
    spread = tags.astype(np.float64) - 5_000_000.0
    measured = sigma_to_fwhm(spread.std())
    assert measured == pytest.approx(fwhm, rel=0.02)
    # normality: third and fourth moments consistent with a Gaussian
    z = spread / spread.std()
    assert abs(np.mean(z ** 3)) < 0.02
    assert abs(np.mean(z ** 4) - 3.0) < 0.05


def test_dark_count_statistics():
    spec = DetectorSpec(dark_rate_per_s=1000.0)
    tags = detect_channel(np.empty(0), spec, 10e12, _gen())
    assert abs(tags.size - 10_000) <= 300


def test_negative_tags_clipped_to_zero():
    spec = DetectorSpec(jitter_fwhm_ps=200.0)
    tags = detect_channel(np.zeros(10_000), spec, 1000.0, _gen())
    assert tags.min() == 0
    # about half the jittered tags fall below 0 and are clipped, not dropped
    assert np.count_nonzero(tags == 0) > tags.size // 3


def test_output_sorted():
    gen = _gen()
    arrivals = gen.uniform(0, 1e9, 50_000)
    spec = DetectorSpec(jitter_fwhm_ps=66.43, dark_rate_per_s=100.0)
    tags = detect_channel(arrivals, spec, 1e9, _gen())
    assert np.all(np.diff(tags) >= 0)


def test_zero_dead_time_preserves_counts():
    arrivals = np.sort(_gen().uniform(0, 1e8, 10_000))
    spec = DetectorSpec()
    tags = detect_channel(arrivals, spec, 1e8, _gen())
    assert tags.size == arrivals.size


def test_dead_time_greedy_filter():
    ts = np.array([0, 5, 10, 15, 100, 111, 113, 125], dtype=np.int64)
    kept = apply_dead_time(ts, 12.0)
    assert kept.tolist() == [0, 15, 100, 113]
    # reference greedy implementation
    ref = []
    last = -np.inf
    for t in ts:
        if t - last > 12.0:
            ref.append(t)
            last = t
    assert kept.tolist() == ref


@given(st.lists(st.integers(0, 2000), min_size=0, max_size=300),
       st.floats(0.0, 50.0))
@settings(max_examples=200)
def test_dead_time_matches_reference(times, dead):
    ts = np.sort(np.asarray(times, dtype=np.int64))
    kept = apply_dead_time(ts, dead)
    if dead <= 0:  # zero dead time is the documented "off" switch
        assert np.array_equal(kept, ts)
        return
    ref = []
    last = -np.inf
    for t in ts:
        if t - last > dead:
            ref.append(int(t))
            last = t
    assert kept.tolist() == ref


# Sorted tags built from gaps: 0 gives duplicates, and an integer dead time
# often equals a gap exactly.  The offset keeps differences exact at large
# absolute times.
@given(st.integers(0, 10 ** 14),
       st.lists(st.integers(0, 60), min_size=0, max_size=300),
       st.one_of(st.integers(-5, 60).map(float),
                 st.floats(-5.0, 60.0, allow_nan=False)))
@settings(max_examples=300)
def test_dead_time_properties(offset, gaps, dead):
    ts = offset + np.cumsum(np.asarray(gaps, dtype=np.int64))
    kept = apply_dead_time(ts, dead)
    if dead <= 0 or ts.size == 0:
        assert np.array_equal(kept, ts)
        return
    assert kept.dtype == np.int64
    assert kept[0] == ts[0]
    assert not Counter(kept.tolist()) - Counter(ts.tolist())
    assert np.all(np.diff(kept) > dead)
    dropped = Counter(ts.tolist()) - Counter(kept.tolist())
    for t in dropped:
        last_kept = kept[np.searchsorted(kept, t, side="right") - 1]
        assert t - last_kept <= dead


def test_dead_time_single_burst():
    # tags every tau/2: the follower at exactly tau is dropped, so every
    # third tag is kept
    tau = 100
    ts = np.arange(200_000, dtype=np.int64) * (tau // 2)
    assert np.array_equal(apply_dead_time(ts, float(tau)), ts[::3])


# ---------------------------------------------------------------------------
# merge_streams


def test_merge_single_channel():
    ts = np.array([1, 5, 9], dtype=np.int64)
    stream = merge_streams({CH_PROBE: ts}, 100)
    assert np.array_equal(stream.timestamps, ts)
    assert np.all(stream.channels == CH_PROBE)


def test_merge_interleaves_and_orders_by_channel():
    stream = merge_streams({CH_PROBE: np.array([5, 10]),
                            CH_REF: np.array([5, 20]),
                            CH_HERALD: np.array([5])}, 100)
    assert stream.timestamps.tolist() == [5, 5, 5, 10, 20]
    assert stream.channels.tolist() == [CH_REF, CH_HERALD, CH_PROBE,
                                        CH_PROBE, CH_REF]


def test_merge_conserves_counts():
    gen = _gen()
    chans = {ch: np.sort(gen.integers(0, 10 ** 9, 200_000)) for ch in (0, 1, 2)}
    stream = merge_streams(chans, 10 ** 9)
    assert len(stream) == 600_000
    for ch, ts in chans.items():
        assert np.array_equal(np.sort(stream.channel_times(ch)), np.sort(ts))


def test_merge_rejects_unsorted():
    with pytest.raises(ValueError, match="not sorted"):
        merge_streams({CH_PROBE: np.array([5, 1])}, 10)


# ---------------------------------------------------------------------------
# File format


def _random_stream(n=1000, seed=3):
    gen = _gen(seed=seed)
    ts = np.sort(gen.integers(0, 10 ** 12, n))
    ch = gen.integers(0, 3, n).astype(np.uint8)
    order = np.lexsort((ch, ts))
    return TagStream(ch[order], ts[order], 10 ** 12,
                     hashlib.sha256(b"scenario").digest(), 51894)


def test_round_trip_empty(tmp_path):
    stream = TagStream(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64),
                       0, b"\x00" * 32, 0)
    path = tmp_path / "empty.qtt"
    write_tags(stream, path)
    back = read_tags(path)
    assert len(back) == 0


def test_round_trip_bit_exact(tmp_path):
    stream = _random_stream(10 ** 6)
    path = tmp_path / "tags.qtt"
    write_tags(stream, path)
    back = read_tags(path)
    assert np.array_equal(back.timestamps, stream.timestamps)
    assert np.array_equal(back.channels, stream.channels)
    assert back.fingerprint == stream.fingerprint
    assert back.period_ps_rounded == stream.period_ps_rounded
    # serialize again: byte-identical files
    path2 = tmp_path / "tags2.qtt"
    write_tags(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_corrupted_magic_rejected(tmp_path):
    stream = _random_stream(10)
    path = tmp_path / "tags.qtt"
    write_tags(stream, path)
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(TagFormatError, match="magic"):
        read_tags(path)


def test_truncated_payload_reports_offset(tmp_path):
    stream = _random_stream(10)
    path = tmp_path / "tags.qtt"
    write_tags(stream, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(TagFormatError, match="offset"):
        read_tags(path)


def test_unknown_channel_reports_offset(tmp_path):
    stream = _random_stream(10)
    path = tmp_path / "tags.qtt"
    write_tags(stream, path)
    raw = bytearray(path.read_bytes())
    # channel bytes of records 3 and 6; the first bad record is reported
    raw[54 + 9 * 3] = 7
    raw[54 + 9 * 6] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(TagFormatError,
                       match=f"unknown channel id.* offset {54 + 9 * 3}$"):
        read_tags(path)


def test_unsorted_payload_rejected(tmp_path):
    stream = _random_stream(10)
    path = tmp_path / "tags.qtt"
    write_tags(stream, path)
    raw = bytearray(path.read_bytes())
    # swap the first two records' timestamps by rewriting both records
    rec = 54
    first = raw[rec:rec + 9]
    second = raw[rec + 9:rec + 18]
    if np.frombuffer(first[1:], dtype="<i8")[0] != \
            np.frombuffer(second[1:], dtype="<i8")[0]:
        raw[rec:rec + 9] = second
        raw[rec + 9:rec + 18] = first
        path.write_bytes(bytes(raw))
        with pytest.raises(TagFormatError, match="unsorted"):
            read_tags(path)


def test_csv_mirror(tmp_path):
    stream = _random_stream(500)
    path = tmp_path / "tags.csv"
    write_tags_csv(stream, path)
    header = path.read_text().splitlines()[0]
    assert header == "channel,timestamp_ps"
    back = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                      ndmin=2)
    assert np.array_equal(back[:, 1], stream.timestamps)
    assert np.array_equal(back[:, 0], stream.channels)


def test_stream_invariants():
    with pytest.raises(ValueError, match="non-decreasing"):
        TagStream(np.array([0, 1], dtype=np.uint8),
                  np.array([10, 5], dtype=np.int64), 100)
    with pytest.raises(ValueError, match="fingerprint"):
        TagStream(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64),
                  0, b"short")
