"""The loop forms of select_samples, gap_areas, generate_trace,
generate_population and its range check, l1_sensitivity, the Laplace draws,
the epsilon sweep's trials, the VR sweep's rates, the wire codec, the CSV
loaders (trace, population and x,y) and writer and the per-message
transmission, and the whole-array forms of select_samples, reconstruct and
gap_areas, kept as reference oracles: the columnar and blocked versions must
give the same output. Also the Laplace density, distribution function and
privacy-ratio check, which the tests use and the package does not."""
import contextlib
import csv
import math
import re
import struct
import warnings
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioht_pipeline import experiments, inference, pipeline
from ioht_pipeline import trace as trace_module
from ioht_pipeline.crypto import (
    FORMAT_VERSION,
    HEADER_LEN,
    MAGIC,
    RECORD_DTYPE,
    RECORD_LEN,
    SUITES,
    decrypt,
    encrypt,
    frame_records,
    read_frames,
    transmitted_records,
)
from ioht_pipeline.dp import (
    AGGREGATES,
    QUERY_FIELDS,
    DpParams,
    DpQuery,
    evaluate_query,
    l1_sensitivity,
    laplace_noise,
    noisy_query,
    perturb_series,
)
from ioht_pipeline.experiments import (
    SWEEP_BLOCK_DRAWS,
    EpsilonSweepRow,
    VrSweepRow,
    run_epsilon_sweep,
    run_vr_sweep,
)
from ioht_pipeline.inference import (
    BLOCK_SAMPLES,
    REASON_ANCHOR,
    REASON_BEACON,
    REASON_CODES,
    REASON_NAMES,
    REASON_VARIANCE,
    RECON_MODES,
    InferenceConfig,
    TransmissionSet,
    compute_metrics,
    gap_areas,
    reconstruct,
    select_samples,
)
from ioht_pipeline.pipeline import (
    HOP_GATEWAY_EDGE,
    HOP_SENSOR_GATEWAY,
    HopLog,
    PipelineConfig,
    _transmit,
)
from ioht_pipeline.trace import (
    _LOCATOR_BLOCK_ROWS,
    _READ_BLOCK_BYTES,
    BT_MEAN,
    BT_STD,
    HR_MEAN,
    HR_STD,
    KIND_CODES,
    KINDS,
    POPULATION_DTYPE,
    UNIT_CODES,
    UNITS,
    SyntheticSpec,
    Trace,
    TraceError,
    as_population,
    generate_population,
    generate_trace,
    load_csv,
    load_population_csv,
    load_xy_csv,
    save_csv,
)


def select_samples_loop(trace, config):
    """(index, reason) pairs kept by the variance-rate rule, one sample at a time."""
    n = len(trace)
    if n == 0:
        return ()
    v = trace.values
    reasons: dict[int, str] = {}
    thresh = np.abs(v) * config.vr
    for i in range(1, n - 1):
        if abs(v[i] - v[i + 1]) > thresh[i] or abs(v[i - 1] - v[i]) > thresh[i]:
            reasons[i] = REASON_VARIANCE
    reasons.setdefault(0, REASON_ANCHOR)
    reasons.setdefault(n - 1, REASON_ANCHOR)
    if config.beacon_period is not None:
        for i in range(0, n, config.beacon_period):
            reasons.setdefault(i, REASON_BEACON)
    return tuple((i, reasons[i]) for i in sorted(reasons))


def gap_areas_loop(trace, recon):
    """(s_upper, s_lower) accumulated segment by segment."""
    times = trace.times.astype(np.float64)
    d = trace.values - np.asarray(recon)
    s_upper = 0.0
    s_lower = 0.0
    for i in range(len(d) - 1):
        t0, t1 = times[i], times[i + 1]
        d0, d1 = d[i], d[i + 1]
        if d0 * d1 >= 0:
            area = 0.5 * (abs(d0) + abs(d1)) * (t1 - t0)
            if d0 > 0 or d1 > 0:
                s_upper += area
            else:
                s_lower += area
        else:
            tz = t0 + (t1 - t0) * d0 / (d0 - d1)
            first = 0.5 * abs(d0) * (tz - t0)
            second = 0.5 * abs(d1) * (t1 - tz)
            if d0 > 0:
                s_upper += first
                s_lower += second
            else:
                s_lower += first
                s_upper += second
    return float(s_upper), float(s_lower)


def select_samples_whole(trace, config):
    """(indices, codes) of the variance-rate rule over the whole array at once."""
    n = len(trace)
    v = trace.values
    reason = np.full(n, -1, dtype=np.int8)  # -1: dropped
    if config.beacon_period is not None:
        reason[::config.beacon_period] = REASON_CODES[REASON_BEACON]
    reason[:1] = reason[-1:] = REASON_CODES[REASON_ANCHOR]
    step = np.abs(np.diff(v))
    thresh = np.abs(v[1:-1]) * config.vr
    reason[1:-1][(step[1:] > thresh) | (step[:-1] > thresh)] = REASON_CODES[REASON_VARIANCE]
    kept = np.flatnonzero(reason >= 0)
    return kept, reason[kept].astype(np.uint8)


def reconstruct_whole(trace, tx, mode):
    """The reconstruction over the whole array at once."""
    times, values, idx = trace.times, trace.values, tx.indices
    if mode == "linear":
        recon = np.interp(times, times[idx], values[idx])
    else:
        positions = np.searchsorted(idx, np.arange(len(trace)), side="right") - 1
        positions = np.clip(positions, 0, len(idx) - 1)
        recon = values[idx[positions]]
    recon[idx] = values[idx]
    return recon


def gap_areas_whole(trace, recon):
    """(s_upper, s_lower) from whole-array segment areas and one cumsum each."""
    times = trace.times.astype(np.float64)
    d = trace.values - recon
    t0, t1, d0, d1 = times[:-1], times[1:], d[:-1], d[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whole = 0.5 * (np.abs(d0) + np.abs(d1)) * (t1 - t0)
        cross = np.flatnonzero(~(d0 * d1 >= 0))
        c0, c1, s0, s1 = d0[cross], d1[cross], t0[cross], t1[cross]
        tz = s0 + (s1 - s0) * c0 / (c0 - c1)
        first = 0.5 * np.abs(c0) * (tz - s0)
        second = 0.5 * np.abs(c1) * (s1 - tz)
    above = (d0 > 0) | (d1 > 0)
    upper = np.where(above, whole, 0.0)
    lower = np.where(above, 0.0, whole)
    starts_above = c0 > 0
    upper[cross] = np.where(starts_above, first, second)
    lower[cross] = np.where(starts_above, second, first)
    return float(np.cumsum(upper)[-1]), float(np.cumsum(lower)[-1])


def run_vr_sweep_loop(trace, vr_grid, beacon_period):
    """run_vr_sweep one rate at a time, through the one-rate functions."""
    if len(trace) < 3:
        raise ValueError("vr sweep needs a trace of length >= 3")
    rows = []
    for vr in vr_grid:
        tx = select_samples(trace, InferenceConfig(vr=vr, beacon_period=beacon_period))
        recon = reconstruct(trace, tx)
        m = compute_metrics(trace, tx, recon)
        rows.append(VrSweepRow(**vars(m), vr=vr))
    return rows


def generate_trace_loop(spec):
    """(times, values) lists drawn one sample and one normal at a time."""
    rng = np.random.default_rng(spec.seed)
    times, values = [], []
    ar = 0.0
    for i in range(spec.n):
        t = i * spec.period
        drift = spec.drift_amplitude * math.sin(2.0 * math.pi * t / 86400.0)
        if spec.noise_scale > 0:
            ar = 0.9 * ar + rng.normal(0.0, spec.noise_scale)
        times.append(t)
        values.append(spec.baseline + drift + ar)
    return times, values


def generate_population_loop(n, seed):
    """(id, gender, body_temperature, heart_rate) rows drawn one person at a
    time, each checked by `person_check_loop`."""
    if n < 0:
        raise TraceError("n must be >= 0")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        hr = min(max(rng.normal(HR_MEAN, HR_STD), 40.0), 140.0)
        bt = min(max(rng.normal(BT_MEAN, BT_STD), 30.0), 45.0)
        gender = "female" if rng.random() < 0.5 else "male"
        records.append(person_check_loop(f"p{i:04d}", gender, bt, hr))
    return records


def person_check_loop(pid, gender, body_temperature, heart_rate):
    """The (id, gender, body_temperature, heart_rate) row of one person, or a
    TraceError for the first of its range checks that fails."""
    for name, value in (("heart_rate", heart_rate), ("body_temperature", body_temperature)):
        if not math.isfinite(value):
            raise TraceError(f"{name} must be finite, got {value}")
    if heart_rate <= 0:
        raise TraceError(f"heart_rate must be positive, got {heart_rate}")
    if not 30.0 <= body_temperature <= 45.0:
        raise TraceError(f"body_temperature {body_temperature} outside [30.0, 45.0] celsius")
    return pid, gender, body_temperature, heart_rate


def l1_sensitivity_loop(query, dataset, bounds=None, neighbor="deletion"):
    """Worst |change| of the query over every enumerated neighboring dataset."""
    base = evaluate_query(dataset, query)
    worst = 0.0
    records = dataset.tolist()
    for i in range(len(records)):
        neighbor_ds = records[:i] + records[i + 1:]
        # the empty deletion neighbor has count and sum 0 but no mean
        if neighbor_ds:
            worst = max(worst, abs(base - evaluate_query(as_population(neighbor_ds), query)))
        elif query.aggregate != "mean":
            worst = max(worst, abs(base))
        if neighbor == "replacement" and query.aggregate != "count":
            at = POPULATION_DTYPE.names.index(query.field)
            for endpoint in bounds:
                swapped = list(records)
                swapped[i] = records[i][:at] + (endpoint,) + records[i][at + 1:]
                worst = max(worst, abs(base - evaluate_query(as_population(swapped), query)))
    return worst


def run_epsilon_sweep_loop(population, epsilons, sensitivity, trials, seed):
    """run_epsilon_sweep with one laplace_noise call per trial."""
    values = [r.heart_rate for r in population]
    real_mean = float(np.mean(values))
    rows = []
    for eps, rng in zip(epsilons, experiments.derive_streams(seed, len(epsilons))):
        params = DpParams(epsilon=eps, sensitivity=sensitivity)
        noised = perturb_series(values, params, rng)
        mean_devs = [abs(float(np.mean(laplace_noise(rng, params.scale, len(values)))))
                     for _ in range(trials)]
        rows.append(EpsilonSweepRow(epsilon=eps, real_mean=real_mean,
                                    noised_mean=float(np.mean(noised)),
                                    mean_abs_dev=float(np.mean(mean_devs)),
                                    noised_series=tuple(noised)))
    return rows


def serialize_records_loop(kind, unit, records):
    """The wire bytes of (time, value, reason name) records, one struct.pack each."""
    out = bytearray()
    out += MAGIC
    out.append(FORMAT_VERSION)
    out.append(KIND_CODES[kind])
    out.append(UNIT_CODES[unit])
    out += struct.pack(">I", len(records))
    for t, value, reason in records:
        out += struct.pack(">Id", t, value)
        out.append(REASON_CODES[reason])
    return bytes(out)


def parse_payload_loop(data):
    """(kind, unit, records) of a well-formed payload, one struct.unpack per record."""
    (count,) = struct.unpack(">I", data[7:11])
    records = []
    for i in range(count):
        off = HEADER_LEN + i * RECORD_LEN
        t, value = struct.unpack(">Id", data[off:off + 12])
        records.append((t, value, REASON_NAMES[data[off + 12]]))
    return KINDS[data[5]], UNITS[data[6]], records


def load_csv_loop(path, kind, unit):
    """A `t,value` CSV as a Trace, parsed one csv.reader row at a time."""
    times: list[int] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceError(f"{path}: empty file, expected a header line")
        last_t: int | None = None
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = int(row[0])
                value = float(row[1])
            except (ValueError, IndexError) as exc:
                raise TraceError(f"{path}: parse failure at row {rownum}: {exc}") from exc
            if t < 0:
                raise TraceError(f"{path}: negative time offset at row {rownum}")
            if not math.isfinite(value):
                raise TraceError(f"{path}: non-finite value at row {rownum}")
            if last_t is not None and t <= last_t:
                raise TraceError(f"{path}: non-increasing timestamps at row {rownum}")
            last_t = t
            times.append(t)
            values.append(value)
    return Trace(kind=kind, unit=unit, times=times, values=values)


def parse_float(text):
    """A CSV field as a float by `load_csv`'s number grammar (numpy's), which
    refuses the underscores and non-ASCII digits that float() takes."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            (value,) = np.loadtxt([text], np.float64, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        raise ValueError(f"could not convert string to float: {text!r}") from None
    return float(value)


def load_population_csv_loop(path):
    """Population records parsed one csv.reader row, and one field, at a time."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            fields = dict(zip(header, row))
            try:
                records.append(person_check_loop(fields["id"], fields["gender"],
                                                 parse_float(fields["body_temperature"]),
                                                 parse_float(fields["heart_rate"])))
            except (KeyError, ValueError) as exc:
                raise TraceError(f"{path}: parse failure at row {rownum}: {exc}") from exc
    return tuple(records)


def load_xy_csv_loop(path):
    """The (x, y) points of an x,y CSV, parsed one csv.reader row, and one
    field, at a time."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                x, y = map(parse_float, row[:2])
            except ValueError as exc:
                raise TraceError(f"{path}: parse failure at row {rownum}: {exc}") from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TraceError(f"{path}: non-finite value at row {rownum}")
            points.append((x, y))
    return points


def save_csv_loop(trace, path):
    """A trace written as `t,value` rows by csv.writer, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, value in zip(trace.times.tolist(), trace.values.tolist()):
            writer.writerow([t, f"{value:.6f}"])


def transmit_loop(trace, tx, config):
    """(ciphertext, log) of sending the selected records a message at a time:
    serialize, encrypt, decrypt and parse each batch, and check it at the edge."""
    records = transmitted_records(trace, tx)
    ciphertext = []
    messages = payload_bytes = ciphertext_bytes = 0
    for start in range(0, max(len(records), 1), config.batch_samples):
        batch = records[start:start + config.batch_samples]
        payload = frame_records(trace.kind, trace.unit, batch, max(len(batch), 1), config.suite)
        encrypted = encrypt(payload, config.suite, config.key)
        messages += 1
        payload_bytes += len(payload)
        ciphertext_bytes += len(encrypted.ciphertext)
        ciphertext.append(encrypted.ciphertext)
        # edge side
        decrypted = decrypt(encrypted, config.key)
        if decrypted != payload:
            raise RuntimeError("decryption mismatch: cipher or codec bug")
        kind, unit, parsed = parse_payload_loop(decrypted)
        sent = [(t, value, REASON_NAMES[code]) for t, value, code in batch.tolist()]
        if (kind, unit) != (trace.kind, trace.unit) or bit_exact(parsed) != bit_exact(sent):
            raise RuntimeError("edge-side records differ from transmitted records")
    log = (HopLog(HOP_SENSOR_GATEWAY, messages, payload_bytes),
           HopLog(HOP_GATEWAY_EDGE, messages, payload_bytes, ciphertext_bytes))
    return b"".join(ciphertext), log


def make_trace(values, times=None):
    if times is None:
        times = [60 * i for i in range(len(values))]
    return Trace("other", "dimensionless", times, values)


# Small integers make equal neighbours and exact threshold ties common.
VALUES = st.one_of(st.integers(-4, 4).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))
BOUNDED = st.one_of(st.integers(-4, 4).map(float), st.just(-0.0),
                    st.floats(min_value=-1e6, max_value=1e6))


# Neighbours near the float limits overflow to inf in both forms alike.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, max_size=40),
       vr=st.one_of(st.just(0.0), st.just(0.5), st.floats(min_value=0.0, max_value=2.0)),
       beacon=st.one_of(st.none(), st.integers(min_value=1, max_value=45)))
@example(values=[], vr=0.025, beacon=None)
@example(values=[5.0], vr=0.025, beacon=1)
@example(values=[1.0, 2.0], vr=0.0, beacon=3)
@example(values=[1.0, 1.0, 1.0], vr=0.0, beacon=None)
@example(values=[100.0, 100.0, 105.0, 105.0], vr=0.05, beacon=None)
@example(values=[0.0, 100.0, 0.0, 0.0, 0.0], vr=0.5, beacon=1)
@example(values=[70.0] * 10, vr=0.01, beacon=11)
def test_select_samples_matches_loop(values, vr, beacon):
    trace = make_trace(values)
    config = InferenceConfig(vr=vr, beacon_period=beacon)
    assert tuple(select_samples(trace, config).selected) == select_samples_loop(trace, config)


# A start time up to 2^62 makes the float cast of the times round; a
# reconstruction equal to the values on a subset gives the d = 0 segments of
# real traces (about 46% of them at n = 1 M).
@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=40))
def test_gap_areas_matches_loop(data, n):
    start = data.draw(st.one_of(st.just(0), st.integers(0, 2**62)))
    steps = data.draw(st.lists(st.integers(1, 10**6), min_size=n - 1, max_size=n - 1))
    times = np.cumsum([start] + steps)
    values = data.draw(st.lists(BOUNDED, min_size=n, max_size=n))
    recon = np.array(data.draw(st.lists(BOUNDED, min_size=n, max_size=n)))
    exact = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    recon[exact] = np.array(values)[exact]
    trace = make_trace(values, times)
    assert gap_areas(trace, recon) == gap_areas_loop(trace, recon)


# Block sizes that put block edges at every sample, on and either side of a
# beacon period of 60, and elsewhere.
BLOCK_SIZES = st.sampled_from([1, 2, 3, 59, 60, 61, 64])


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


# A spike at 59 keeps 58 to 60 and drops 61: with blocks of 60 or 61, a block
# edge falls between a kept and a dropped sample (at 61 in select_samples,
# whose blocks start at 1, or at 61 in the other passes).
SPIKE_AT_59 = [70.0] * 59 + [80.0] + [70.0] * 61
# Samples 5k + 3 to 5k + 5 vary and 5k + 1, 5k + 2 do not: some of these are
# even, so beacons of period 2, and some odd.
SPIKES_EVERY_5 = [70.0, 70.0, 70.0, 70.0, 80.0] * 32


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, max_size=200),
       vr=st.one_of(st.just(0.0), st.just(0.025), st.floats(min_value=0.0, max_value=2.0)),
       beacon=st.one_of(st.none(), st.just(60), st.integers(min_value=1, max_value=70)),
       block=BLOCK_SIZES)
@example(values=[70.0] * 121, vr=0.01, beacon=60, block=60)  # edges at beacons 61 and 121
@example(values=[70.0] * 121, vr=0.01, beacon=60, block=59)  # the last sample alone
@example(values=SPIKE_AT_59, vr=0.01, beacon=None, block=60)
# Every interior sample starts as a beacon (beacon 1), or every other one: the
# varying ones must become variance and the rest stay beacons, in blocks of
# one sample and across block edges.
@example(values=SPIKES_EVERY_5, vr=0.01, beacon=1, block=1)
@example(values=SPIKES_EVERY_5, vr=0.01, beacon=1, block=64)
@example(values=SPIKES_EVERY_5, vr=0.01, beacon=2, block=1)
@example(values=SPIKES_EVERY_5, vr=0.01, beacon=2, block=64)
def test_blocked_select_samples_matches_whole_array(values, vr, beacon, block):
    trace = make_trace(values)
    config = InferenceConfig(vr=vr, beacon_period=beacon)
    with mock.patch.object(inference, "BLOCK_SAMPLES", block):
        tx = select_samples(trace, config)
    assert tx.indices.dtype == np.int64 and tx.codes.dtype == np.uint8
    assert bits(tx.indices, tx.codes) == bits(*select_samples_whole(trace, config))


# `selected` makes its pairs a block at a time: sets that end on, either side
# of and between block edges, with indices past 2^32.
@settings(max_examples=300, deadline=None)
@given(pairs=st.dictionaries(st.integers(0, 2**40), st.sampled_from(REASON_NAMES), max_size=200),
       block=BLOCK_SIZES)
@example(pairs={}, block=1)
@example(pairs={i: REASON_BEACON for i in range(120)}, block=60)
@example(pairs={i: REASON_VARIANCE for i in range(121)}, block=60)
@example(pairs={i: REASON_ANCHOR for i in range(59)}, block=60)
def test_selected_pairs_the_columns_across_block_edges(pairs, block):
    tx = TransmissionSet(2**40 + 1, sorted(pairs), [REASON_CODES[pairs[i]] for i in sorted(pairs)])
    with mock.patch.object(inference, "BLOCK_SAMPLES", block):
        got = tuple(tx.selected)
    names = [REASON_NAMES[code] for code in tx.codes.tolist()]
    assert got == tuple(zip(tx.indices.tolist(), names))
    assert all(type(i) is int for i, _ in got)


@st.composite
def selected_traces(draw):
    """(times, values, kept indices, another reconstruction) drawn from a
    seed: times that may start high enough for their float cast to round
    (and to collide), values with ties and -0.0, a non-empty selection that
    may or may not hold the first and last samples, and a reconstruction
    equal to the values at some samples and either side of them elsewhere."""
    n = draw(st.integers(min_value=1, max_value=130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.sampled_from([0, 2**53, 2**62])) + int(rng.integers(0, 2**20))
    times = start + np.cumsum(rng.integers(1, draw(st.sampled_from([2, 100, 10**6])), n))
    values = np.where(rng.random(n) < 0.5, rng.integers(-4, 5, n), rng.normal(0.0, 1e3, n))
    values[rng.random(n) < 0.1] = -0.0
    kept = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.02, 0.3, 0.9])))
    if not len(kept):
        kept = rng.integers(0, n, 1)
    other = values + rng.normal(0.0, 2.0, n) * (rng.random(n) < 0.7)
    return times.tolist(), values.tolist(), kept.tolist(), other.tolist()


def spaced(values, kept):
    return list(range(0, 60 * len(values), 60)), values, kept, values[::-1]


def colliding(n, kept):
    """n samples at times 2**62 + i, which all cast to one float64."""
    values = [float(i) for i in range(n)]
    return [2**62 + i for i in range(n)], values, kept, values[::-1]


@settings(max_examples=300, deadline=None)
@given(case=selected_traces(), mode=st.sampled_from(RECON_MODES), block=BLOCK_SIZES)
@example(case=spaced([float(i % 7) for i in range(121)], [0, 60, 120]), mode="linear", block=60)
@example(case=spaced([float(i % 7) for i in range(121)], [0, 60, 120]), mode="step-hold",
         block=60)
@example(case=spaced(SPIKE_AT_59, [0, 58, 59, 60, 120]), mode="linear", block=61)
@example(case=spaced(SPIKE_AT_59, [0, 58, 59, 60, 120]), mode="step-hold", block=61)
@example(case=spaced(SPIKE_AT_59, [3, 59]), mode="step-hold", block=2)
@example(case=spaced([1.0] * 65, [64]), mode="linear", block=64)
# np.interp takes the last of equal float times, which lies past the block's
# next kept sample: after sample 0 alone, or across the edge at sample 4
@example(case=colliding(5, [1, 3]), mode="linear", block=1)
@example(case=colliding(9, [2, 4, 6]), mode="linear", block=4)
@example(case=colliding(9, [2, 4, 6]), mode="step-hold", block=4)
def test_blocked_reconstruct_and_gap_areas_match_whole_array(case, mode, block):
    times, values, kept, other = case
    trace = make_trace(values, times)
    tx = TransmissionSet(len(values), kept, [REASON_CODES[REASON_VARIANCE]] * len(kept))
    expected = reconstruct_whole(trace, tx, mode)
    with mock.patch.object(inference, "BLOCK_SAMPLES", block):
        recon = reconstruct(trace, tx, mode)
        assert recon.tobytes() == expected.tobytes()
        if len(values) > 1:
            for against in (expected, np.array(other)):
                assert bits(gap_areas(trace, against)) == bits(gap_areas_whole(trace, against))


@st.composite
def index_columns(draw):
    """(times, values, k kept-index columns) for k of 1, 2 or 5: the trace
    and first column of `selected_traces`, and k - 1 more non-empty columns."""
    times, values, kept, _ = draw(selected_traces())
    k = draw(st.sampled_from([1, 2, 5]))
    indices = st.sets(st.integers(0, len(values) - 1), min_size=1)
    return times, values, [kept] + [sorted(draw(indices)) for _ in range(k - 1)]


def with_columns(case, *columns):
    times, values, _, _ = case
    return times, values, list(columns)


# Each row of a block has a window of its own against the one float cast of
# the block's times; step-hold on several rows runs nowhere in the package.
@settings(max_examples=300, deadline=None)
@given(case=index_columns(), mode=st.sampled_from(RECON_MODES),
       block=st.sampled_from([1, 7, 64]))
@example(case=with_columns(spaced([float(i % 7) for i in range(121)], []),
                          [0, 60, 120], [3, 59, 64, 65], [120]), mode="step-hold", block=64)
@example(case=with_columns(colliding(5, []), [1, 3], [0], [4]), mode="linear", block=1)
@example(case=with_columns(colliding(9, []), [2, 4, 6], [0, 8], [5]), mode="linear", block=4)
@example(case=with_columns(colliding(9, []), [2, 4, 6], [0, 8], [5]), mode="step-hold", block=4)
def test_reconstruct_rows_matches_whole_array_per_row(case, mode, block):
    times, values, columns = case
    trace = make_trace(values, times)
    expected = [reconstruct_whole(trace, TransmissionSet(len(values), kept, [0] * len(kept)), mode)
                for kept in columns]
    kept = [np.array(column, dtype=np.int64) for column in columns]
    with mock.patch.object(inference, "BLOCK_SAMPLES", block):
        recon = inference._reconstruct_rows(trace.times, trace.values, kept, mode)
    assert recon.dtype == np.float64 and recon.shape == (len(columns), len(values))
    assert bits(*recon) == bits(*expected)


# A segment area that overflows (|d| of 1e300 over 10^10 s) in a later block,
# above and below the reconstruction. Its block takes its areas by a select,
# as inf * 0 would make the other sum NaN, and the metrics name the sum that
# overflows.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("sign,name", [(1.0, "upper gap area"), (-1.0, "lower gap area")])
@pytest.mark.parametrize("block", [1, 2, 7])
def test_a_block_whose_areas_overflow_matches_the_loop(block, sign, name):
    values = [0.5, -0.25, 1.0, -2.0] * 5  # both sums finite outside samples 13 to 16
    values[13:17] = [sign * 1.0, sign * 1e300, sign * 1e300, sign * 1.0]  # no crossing there
    trace = make_trace(values, [10**10 * i for i in range(len(values))])
    recon = np.zeros(len(values))
    tx = TransmissionSet(len(values), [0, len(values) - 1], [REASON_CODES[REASON_ANCHOR]] * 2)
    with mock.patch.object(inference, "BLOCK_SAMPLES", block):
        assert bits(gap_areas(trace, recon)) == bits(gap_areas_loop(trace, recon))
        with pytest.raises(ValueError, match=f"^the {name} overflows float64$"):
            inference.compute_metrics(trace, tx, recon)


# The AR(1) shocks are drawn a block at a time, so blocks of 1, 7 and 64 put
# block edges inside the run.
@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=0, max_value=300),
       period=st.integers(min_value=1, max_value=10**6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       baseline=st.floats(min_value=-1e3, max_value=1e3),
       drift=st.floats(min_value=0.0, max_value=20.0),
       noise=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)),
       block=st.sampled_from([BLOCK_SAMPLES, 1, 7, 64]))
@example(n=0, period=60, seed=0, baseline=70.0, drift=8.0, noise=1.5, block=BLOCK_SAMPLES)
@example(n=1, period=60, seed=0, baseline=70.0, drift=8.0, noise=1.5, block=BLOCK_SAMPLES)
@example(n=3, period=60, seed=1, baseline=70.0, drift=0.0, noise=0.0, block=BLOCK_SAMPLES)
@example(n=128, period=60, seed=7, baseline=70.0, drift=8.0, noise=1.5, block=64)
def test_generate_trace_matches_loop(n, period, seed, baseline, drift, noise, block):
    spec = SyntheticSpec(n=n, period=period, seed=seed, baseline=baseline,
                         drift_amplitude=drift, noise_scale=noise)
    with mock.patch.object(trace_module, "BLOCK_SAMPLES", block):
        trace = generate_trace(spec)
    times, values = generate_trace_loop(spec)
    assert trace.times.tolist() == times
    assert trace.values.tolist() == values


def test_long_trace_matches_loops():
    spec = SyntheticSpec(n=50_000, period=60, seed=7, baseline=70.0,
                         drift_amplitude=8.0, noise_scale=1.5)
    trace = generate_trace(spec)
    times, values = generate_trace_loop(spec)
    assert trace.times.tolist() == times and trace.values.tolist() == values
    for beacon in (None, 60):
        config = InferenceConfig(vr=0.025, beacon_period=beacon)
        tx = select_samples(trace, config)
        assert tuple(tx.selected) == select_samples_loop(trace, config)
        recon = reconstruct(trace, tx, "linear")
        assert gap_areas(trace, recon) == gap_areas_loop(trace, recon)


def vr_sweep_outcome(sweep, trace, grid, beacon):
    """Every field of every VrSweepRow, floats as their bytes, or the message
    of the ValueError the sweep raises."""
    try:
        rows = sweep(trace, grid, beacon)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return [{name: struct.pack(">d", value) if isinstance(value, float) else value
             for name, value in vars(r).items()} for r in rows]


# Rates that keep every sample (0.0), the paper's, and one whose thresholds
# overflow to inf (only anchors and beacons kept).
VR_RATES = st.one_of(st.sampled_from([0.0, 0.025, 0.05, 1e300]),
                     st.floats(min_value=0.0, max_value=2.0))


@st.composite
def sweep_traces(draw):
    """A trace of n >= 3 from a seed: times that may cast to colliding
    floats, values with ties and -0.0 around a baseline, scaled up to where
    the sums and gap areas of some rates overflow float64."""
    n = draw(st.integers(min_value=3, max_value=150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.sampled_from([0, 2**53, 2**62])) + int(rng.integers(0, 2**20))
    times = start + np.cumsum(rng.integers(1, draw(st.sampled_from([2, 100, 10**6])), n))
    values = np.where(rng.random(n) < 0.3, rng.integers(-4, 5, n), rng.normal(70.0, 10.0, n))
    values[rng.random(n) < 0.05] = -0.0
    values *= draw(st.sampled_from([1.0, 1e150, 1e303]))
    return make_trace(values.tolist(), times.tolist())


# The default block (None: 65 536) puts these traces' rates in passes of 436
# or more; blocks of 1, 16 and 64 give several rates a pass, and one rate a
# pass (n > block / 2) read a block of columns at a time (n > block).
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(trace=sweep_traces(), grid=st.lists(VR_RATES, max_size=12),
       beacon=st.sampled_from([None, 1, 7]), block=st.sampled_from([None, 1, 16, 64]))
# an unsorted grid with a repeated rate, in passes of 5 rows and 1 row
@example(trace=make_trace([70.0, 75.0, 70.0, 71.0, 90.0, 70.0] * 2),
         grid=[0.05, 0.0, 0.3, 0.05, 0.01], beacon=7, block=64)
@example(trace=make_trace([70.0, 75.0, 70.0, 71.0, 90.0, 70.0] * 2),
         grid=[0.05, 0.0, 0.3, 0.05, 0.01], beacon=None, block=16)
# the sums are finite at vr 0, and the gap areas overflow once only the
# anchors are kept: the second row raises, in one pass and one rate a pass
@example(trace=make_trace([1e303, -1e303, 1e303, -1e303], [0, 10**6, 2 * 10**6, 3 * 10**6]),
         grid=[0.0, 1e300, 0.0], beacon=None, block=None)
@example(trace=make_trace([1e303, -1e303, 1e303, -1e303], [0, 10**6, 2 * 10**6, 3 * 10**6]),
         grid=[0.0, 1e300, 0.0], beacon=None, block=4)
# a whole area of inf below the reconstruction: the pass takes its areas by a
# select, and the finite row beside it keeps its bits
@example(trace=make_trace([0.0, -1e303, -1e303, 0.0], [0, 10**6, 2 * 10**6, 3 * 10**6]),
         grid=[0.0, 1e300], beacon=None, block=None)
def test_run_vr_sweep_matches_loop(trace, grid, beacon, block):
    expected = vr_sweep_outcome(run_vr_sweep_loop, trace, grid, beacon)
    with contextlib.ExitStack() as patches:
        if block is not None:
            for module in (experiments, inference):
                patches.enter_context(mock.patch.object(module, "BLOCK_SAMPLES", block))
        assert vr_sweep_outcome(run_vr_sweep, trace, grid, beacon) == expected


# Generated traces at the default block: the paper's n in one pass, 20 000
# in passes of 3, 3 and 2 rates, and 70 000 one rate a pass in two blocks of
# columns.
@pytest.mark.parametrize("n,seed", [(1420, 1), (1420, 2), (1420, 3), (1420, 7), (1420, 11),
                                    (20_000, 7), (70_000, 7)])
def test_run_vr_sweep_matches_loop_on_generated_traces(n, seed):
    trace = generate_trace(SyntheticSpec(n=n, period=60, seed=seed, baseline=70.0,
                                         drift_amplitude=8.0, noise_scale=1.5))
    grid = (0.05, 0.0, 0.3, 0.01, 0.025, 0.1, 0.05, 0.2)
    for beacon in (None, 60):
        expected = vr_sweep_outcome(run_vr_sweep_loop, trace, grid, beacon)
        assert vr_sweep_outcome(run_vr_sweep, trace, grid, beacon) == expected


def population_bits(rows):
    """(id, gender, bytes of body_temperature and heart_rate) of each row."""
    return [(pid, gender, struct.pack(">2d", bt, hr)) for pid, gender, bt, hr in rows]


@settings(max_examples=100, deadline=None)
@given(n=st.one_of(st.integers(min_value=0, max_value=300), st.just(1000)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=0, seed=0)
@example(n=1000, seed=7)
def test_generate_population_matches_loop(n, seed):
    pop = generate_population(n, seed)
    assert pop.dtype == POPULATION_DTYPE and pop.shape == (n,)
    assert population_bits(pop.tolist()) == population_bits(generate_population_loop(n, seed))


# Values on and just past each bound of the range check, in either field: its
# faults in every order of precedence, several bad rows to an array.
PERSON_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -70.0, 5e-324,
                29.999999999999996, 45.00000000000001]


def first_person_fault_loop(rows):
    """(index, message) of the first row `person_check_loop` refuses, or None."""
    for i, row in enumerate(rows):
        try:
            person_check_loop(*row)
        except TraceError as exc:
            return i, str(exc)
    return None


def assert_person_fault_matches_loop(rows):
    want = first_person_fault_loop(rows)
    got = trace_module._person_fault(np.array(rows, POPULATION_DTYPE))
    assert got == (None if want is None else (want[0], f"parse failure: {want[1]}"))
    if want is None:
        assert population_bits(as_population(rows).tolist()) == population_bits(rows)
    else:
        with pytest.raises(TraceError) as caught:
            as_population(rows)
        assert str(caught.value) == f"person {want[0]}: {want[1]}"


def test_person_fault_matches_loop_on_every_edge_pair():
    pairs = [(bt, hr) for bt in PERSON_EDGES + [36.8] for hr in PERSON_EDGES + [70.0]]
    rows = [(f"p{i}", "f", bt, hr) for i, (bt, hr) in enumerate(pairs)]
    for start in range(len(rows) + 1):  # each row first in turn, and no rows
        assert_person_fault_matches_loop(rows[start:])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.tuples(
    st.one_of(st.sampled_from(PERSON_EDGES), st.floats(30.0, 45.0)),
    st.one_of(st.sampled_from(PERSON_EDGES), st.floats(1e-3, 1e4))), max_size=12))
@example(values=[(36.8, 70.0), (45.00000000000001, -0.0), (math.nan, 0.0), (30.0, math.inf)])
@example(values=[(29.999999999999996, 5e-324), (-math.inf, 70.0), (36.8, -70.0)])
def test_person_fault_matches_loop(values):
    assert_person_fault_matches_loop(
        [(f"p{i}", "f", bt, hr) for i, (bt, hr) in enumerate(values)])


# Small integers make tied records common, and bounds are drawn like the
# records, so records fall inside, on and outside them. The brute force builds
# records from the bounds, so both must be valid: heart rate > 0, body
# temperature in [30, 45].
FIELD_VALUES = {
    "heart_rate": st.one_of(st.integers(1, 4).map(float),
                            st.floats(min_value=1e-3, max_value=1e4)),
    "body_temperature": st.one_of(st.sampled_from([30.0, 36.8, 45.0]),
                                  st.floats(min_value=30.0, max_value=45.0)),
}


def person(fieldname, value, i):
    record = {"id": str(i), "gender": "female", "body_temperature": 36.8, "heart_rate": 70.0}
    return tuple({**record, fieldname: value}.values())


@settings(max_examples=400, deadline=None)
@given(data=st.data(), aggregate=st.sampled_from(AGGREGATES),
       fieldname=st.sampled_from(QUERY_FIELDS),
       neighbor=st.sampled_from(("deletion", "replacement")),
       n=st.integers(min_value=0, max_value=12))
def test_l1_sensitivity_matches_brute_force(data, aggregate, fieldname, neighbor, n):
    values = data.draw(st.lists(FIELD_VALUES[fieldname], min_size=n, max_size=n))
    bounds = data.draw(st.tuples(FIELD_VALUES[fieldname], FIELD_VALUES[fieldname]))
    query = DpQuery(aggregate, None if aggregate == "count" else fieldname)
    pop = as_population(person(fieldname, v, i) for i, v in enumerate(values))
    if n == 0 and aggregate != "count":
        for sensitivity in (l1_sensitivity, l1_sensitivity_loop):
            with pytest.raises(ValueError):
                sensitivity(query, pop, bounds, neighbor)
        return
    got = l1_sensitivity(query, pop, bounds, neighbor)
    want = l1_sensitivity_loop(query, pop, bounds, neighbor)
    # The brute force subtracts two nearly equal aggregates, so it is only
    # exact to a few thousand ulps of the largest magnitude involved.
    abs_tol = 1e-12 * max([abs(v) for v in values] + [abs(e) for e in bounds])
    assert math.isclose(got, want, rel_tol=0.0, abs_tol=abs_tol)


def sample_laplace(rng, mu, b):
    """One inverse-CDF Laplace(mu, b) draw: u uniform in (-1/2, 1/2),
    mu - b*sign(u)*ln(1-2|u|), drawing u again where ln(1-2|u|) is -inf."""
    if b <= 0:
        raise ValueError("scale b must be > 0")
    while True:
        u = rng.random() - 0.5
        if 1.0 - 2.0 * abs(u) > 0.0:
            break
    if u == 0.0:
        return mu
    return mu - b * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def laplace_pdf(x: float, mu: float, b: float) -> float:
    if not 0 < b < math.inf:
        raise ValueError(f"scale b must be finite and > 0, got {b}")
    return math.exp(-abs(x - mu) / b) / (2.0 * b)


def laplace_cdf(x: float, mu: float, b: float) -> float:
    if not 0 < b < math.inf:
        raise ValueError(f"scale b must be finite and > 0, got {b}")
    if x < mu:
        return 0.5 * math.exp((x - mu) / b)
    return 1.0 - 0.5 * math.exp(-(x - mu) / b)


def verify_dp_ratio(
    params: DpParams,
    shift: float,
    grid: Sequence[float],
    mu: float = 0.0,
) -> float:
    """Max over the grid of pdf(x | mu, b) / pdf(x | mu + shift, b).

    For |shift| <= sensitivity the result never exceeds exp(epsilon); at
    |shift| = sensitivity the bound is attained for grid points outside the
    interval between the two means.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    if abs(shift) > params.sensitivity:
        raise ValueError("|shift| must be <= sensitivity")
    b = params.scale
    # ratio = exp((|x - mu - shift| - |x - mu|) / b), computed in log space
    return max(math.exp((abs(x - mu - shift) - abs(x - mu)) / b) for x in grid)


def scalar_draws(rng, b, k):
    return np.array([sample_laplace(rng, 0.0, b) for _ in range(k)], dtype=np.float64)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=0, max_value=3000),
       b=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(k=0, b=1.0, seed=0)
@example(k=1, b=1e-3, seed=1)  # k = 1 takes laplace_noise's Python-float branch
@example(k=1, b=7.5, seed=7)
@example(k=2, b=7.5, seed=7)
@example(k=1000, b=1e3, seed=2)
def test_laplace_noise_matches_scalar_draws(k, b, seed):
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    assert laplace_noise(batched, b, k).tobytes() == scalar_draws(scalar, b, k).tobytes()
    assert batched.random() == scalar.random()


class StreamRng:
    """A chosen uniform stream, served one value or one block at a time."""

    def __init__(self, stream):
        self.stream = list(stream)
        self.used = 0

    def random(self, size=None):
        if size is None:
            self.used += 1
            return self.stream[self.used - 1]
        block = self.stream[self.used:self.used + size]
        assert len(block) == size, "stream exhausted"
        self.used += size
        return np.array(block, dtype=np.float64)


def check_against_stream(stream, k, b):
    batched, scalar = StreamRng(stream), StreamRng(stream)
    assert laplace_noise(batched, b, k).tobytes() == scalar_draws(scalar, b, k).tobytes()
    assert batched.used == scalar.used


# 0.0 is the uniform sample_laplace rejects; 0.5 gives u == 0 and a zero draw.
@pytest.mark.parametrize("b", [1.0, 7.5])
@pytest.mark.parametrize("stream,k", [
    ([0.3, 0.0, 0.0, 0.9, 0.5, 0.0, 0.0, 0.1, 0.0, 0.25, 0.6], 6),  # two in a row, block end
    ([0.0, 0.0, 0.0, 0.7], 1),  # k = 1 draws in Python floats, and redraws as the array route
    ([0.5, 0.0, 0.999, 0.0, 0.0, 0.4], 3),
    ([0.2, 0.4], 0),
    ([0.0, 0.1], 1),
    ([0.0, 0.5], 1),  # u == 0 after a redraw: +0.0
])
def test_laplace_noise_rejects_zero_uniforms_like_the_loop(stream, k, b):
    check_against_stream(stream, k, b)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=0, max_value=20),
       body=st.lists(st.one_of(st.just(0.0), st.just(0.5),
                               st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
                     max_size=60))
def test_laplace_noise_matches_loop_on_any_stream(k, body):
    check_against_stream(body + [0.25] * k, k, 2.0)


# Uniforms u + 1/2 from a seeded draw (default_rng(2024), the first 32 of
# 200 000) for which contiguous np.log(1 - 2|u|) on numpy 2.4.6's AVX512 loop
# differs from math.log in the last bit. laplace_noise must still give
# math.log's logs for them; written as float.hex, they are the same inputs on
# any CPU.
LIBM_ROUTE_UNIFORMS = [float.fromhex(h) for h in (
    "0x1.de6bfcbf21944p-2", "0x1.02a449d3fe245p-1", "0x1.f171a255c5e6cp-2",
    "0x1.085b9ced40b4cp-1", "0x1.f2d4cd30c507ap-2", "0x1.f2e346bf82ce8p-2",
    "0x1.a7e9a6055ec8ap-2", "0x1.066af63dd4d11p-1", "0x1.f6b0f976d3adap-2",
    "0x1.c1e74f0b4a8cap-2", "0x1.966ef54f8395cp-3", "0x1.d9260ae44ef8cp-2",
    "0x1.5fec624980c9fp-1", "0x1.99b643dd86918p-1", "0x1.a57226c652c22p-2",
    "0x1.080aed9d067e0p-1", "0x1.f394e167b3354p-2", "0x1.f15cb8dbbf44ap-2",
    "0x1.f8577397fedbap-2", "0x1.195d6f9fdc664p-1", "0x1.15eddc96f2f91p-1",
    "0x1.038a5e73b5913p-1", "0x1.ff3e75173d816p-2", "0x1.57eee3c40fa09p-1",
    "0x1.23df1430556bcp-3", "0x1.e58d8dbc78cc8p-2", "0x1.07fda82503c6dp-1",
    "0x1.f4ffa496ca790p-2", "0x1.91012cb536688p-2", "0x1.d955fd9c3217ap-2",
    "0x1.067282c79e95ap-1", "0x1.058aafafd1ab7p-1",
)]


def sweep_bits(rows):
    """Every field of every EpsilonSweepRow, floats as their bytes."""
    return [(struct.pack(">4d", r.epsilon, r.real_mean, r.noised_mean, r.mean_abs_dev),
             np.array(r.noised_series, np.float64).tobytes()) for r in rows]


def population_of(heart_rates):
    return as_population((f"p{i}", "f", 36.8, hr) for i, hr in enumerate(heart_rates))


def sweep_trial_draws(monkeypatch, stream, b, people, trials):
    """The arrays laplace_noise returns to run_epsilon_sweep for the trials
    of one epsilon over `people` people, its stream `stream` after the
    charted series' `people` uniforms of 0.25."""
    rng = StreamRng([0.25] * people + stream)
    calls = []

    def spy(*args):
        calls.append(laplace_noise(*args))
        return calls[-1]

    monkeypatch.setattr(experiments, "derive_streams", lambda seed, count: iter([rng]))
    monkeypatch.setattr(experiments, "laplace_noise", spy)
    run_epsilon_sweep(population_of([70.0] * people), epsilons=(1.0,), sensitivity=b,
                      trials=trials)
    return calls


# 1 is noisy_query's size, drawn in Python floats with math.log itself; the
# other sizes take the array route, which these uniforms pin to math.log, so
# a draw has the same bits whichever branch makes it. The stream is served in
# consecutive draws of k.
# "sweep" draws all 32 as run_epsilon_sweep draws 8 trials of 4 people: in
# one call, whose 32 logs must take the same route.
@pytest.mark.parametrize("b", [1.0, 7.5])
@pytest.mark.parametrize("k", [1, 7, 32, "sweep"])
def test_laplace_noise_takes_the_libm_log(k, b, monkeypatch):
    batched, scalar = StreamRng(LIBM_ROUTE_UNIFORMS), StreamRng(LIBM_ROUTE_UNIFORMS)
    if k == "sweep":
        calls = sweep_trial_draws(monkeypatch, LIBM_ROUTE_UNIFORMS, b, people=4, trials=8)
        assert [len(c) for c in calls] == [32]
        assert calls[0].tobytes() == scalar_draws(scalar, b, 32).tobytes()
        return
    for _ in range(len(LIBM_ROUTE_UNIFORMS) // k):
        assert laplace_noise(batched, b, k).tobytes() == scalar_draws(scalar, b, k).tobytes()
        assert batched.used == scalar.used


def test_laplace_noise_matches_scalar_draws_at_200_000():
    batched, scalar = np.random.default_rng(983), np.random.default_rng(983)
    k = 200_000
    assert laplace_noise(batched, 0.25, k).tobytes() == scalar_draws(scalar, 0.25, k).tobytes()
    assert batched.random() == scalar.random()


# noisy_query takes one draw of size 1: the scalar sampler's value and stream use.
@pytest.mark.parametrize("stream", [[0.1], [0.5], [0.0, 0.75], [0.0, 0.0, 0.5]])
def test_noisy_query_draws_as_the_scalar_sampler(stream):
    params = DpParams(epsilon=0.5, sensitivity=1.5)
    batched, scalar = StreamRng(stream), StreamRng(stream)
    got = noisy_query((), DpQuery("count"), params, batched).noise
    want = sample_laplace(scalar, 0.0, params.scale)
    assert struct.pack(">d", got) == struct.pack(">d", want)
    assert batched.used == scalar.used == len(stream)


# Trials per call: SWEEP_BLOCK_DRAWS // n, so n = 8192 and n > 8192 take one
# trial a call, and 3, 1000 and 4097 leave part of SWEEP_BLOCK_DRAWS unused.
@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(min_value=1, max_value=300),
                   st.sampled_from([1000, 2731, 4097, 8191, 8192, 8193, 10_000])),
       trials=st.integers(min_value=1, max_value=250),
       grid=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=3),
       sensitivity=st.floats(min_value=1e-3, max_value=100.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=3, trials=2731, grid=[0.5], sensitivity=1.0, seed=0).via("not a multiple of k")
@example(n=8192, trials=3, grid=[0.1], sensitivity=1.0, seed=1).via("one trial a call")
@example(n=1000, trials=200, grid=[0.01, 1.0], sensitivity=1.0, seed=2).via("dp-release")
def test_epsilon_sweep_matches_loop(n, trials, grid, sensitivity, seed):
    population = population_of(np.random.default_rng(seed).uniform(40.0, 140.0, n).tolist())
    args = (population, grid, sensitivity, trials, seed)
    assert (sweep_bits(run_epsilon_sweep(*args))
            == sweep_bits(run_epsilon_sweep_loop(*args)))


def test_epsilon_sweep_redraws_zero_uniforms_as_the_loop(monkeypatch):
    """Zero uniforms in the first trial of a batch (8), a middle trial (11)
    and the last trial (19): 20 trials of 1 000 people are batches of 8, 8
    and 4 trials, drawn after the charted series' 1 000 uniforms."""
    n, trials = 1000, 20
    assert SWEEP_BLOCK_DRAWS // n == 8
    stream = np.random.default_rng(5).random(n * (trials + 1) + 8).tolist()
    for trial, at in ((8, 0), (11, 500), (19, n - 1)):
        stream[n * (trial + 1) + at] = 0.0
    stream[n * 17 - 2:n * 17] = [0.0, 0.0]  # two in a row where batch 2 ends
    made = []

    def streams(seed, count):
        for _ in range(count):
            made.append(StreamRng(stream))
            yield made[-1]

    monkeypatch.setattr(experiments, "derive_streams", streams)
    population = population_of([70.0 + i % 7 for i in range(n)])
    args = (population, (0.5, 2.0), 1.5, trials, 0)
    got = run_epsilon_sweep(*args)
    want = run_epsilon_sweep_loop(*args)
    assert sweep_bits(got) == sweep_bits(want)
    assert [rng.used for rng in made[:2]] == [rng.used for rng in made[2:]]
    assert made[0].used == n * (trials + 1) + 5


def bit_exact(records):
    """(time, value bits, reason name) rows: NaN payloads compare equal."""
    return [(t, struct.pack(">d", v), reason) for t, v, reason in records]


# st.floats() draws NaN, +-inf, -0.0 and subnormals along with normal values.
# Each record's t is `start` plus the steps so far (read_frames refuses t that
# does not increase), each at most 2^24, so 70 records from 2^31 end below 2^32.
@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), unit=st.sampled_from(UNITS), start=st.integers(0, 2**31),
       rows=st.lists(st.tuples(st.integers(1, 2**24), st.floats(),
                               st.sampled_from(REASON_NAMES)), max_size=70))
@example(kind="heart-rate", unit="bpm", start=0, rows=[])
@example(kind="other", unit="dimensionless", start=-1,
         rows=[(1, -0.0, "anchor"), (1, math.inf, "variance"), (1, -math.inf, "beacon"),
               (1, math.nan, "anchor"), (1, 5e-324, "variance"), (2**32 - 5, -2.2e-308, "beacon")])
def test_codec_matches_struct_loops(kind, unit, start, rows):
    times = np.cumsum([start] + [step for step, _, _ in rows]).tolist()[1:]
    rows = [(t, v, reason) for t, (_, v, reason) in zip(times, rows)]
    records = np.array([(t, v, REASON_CODES[r]) for t, v, r in rows], dtype=RECORD_DTYPE)
    data = frame_records(kind, unit, records, max(len(rows), 1), SUITES["aes-128-ecb"])
    assert data == serialize_records_loop(kind, unit, rows)
    got_kind, got_unit, parsed, messages, payload_bytes = read_frames(
        data, max(len(rows), 1), SUITES["aes-128-ecb"])
    want_kind, want_unit, want = parse_payload_loop(data)
    assert (got_kind, got_unit) == (want_kind, want_unit) == (kind, unit)
    assert (messages, payload_bytes) == (1, len(data))
    got = [(t, v, REASON_NAMES[code]) for t, v, code in parsed.tolist()]
    assert bit_exact(got) == bit_exact(want) == bit_exact(rows)



# Each data row of a generated CSV is spelled in one of the ways both loaders
# read alike: repr floats (fixed and exponent form), signs, quotes,
# surrounding blanks, extra columns, blank lines and all three line ends.
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e-5, 1e16, 123456.789]))
EOL = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_field(draw, text):
    if draw(st.booleans()):
        blanks = st.sampled_from(["", " ", "\t", "  "])
        text = draw(blanks) + text + draw(blanks)
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def csv_row(draw, t, value):
    t_text = draw(st.sampled_from(["{}", "+{}", "00{}"])).format(t)
    value_text = draw(st.sampled_from([repr, "{:.17e}".format, "{:+.6f}".format]))(value)
    fields = [draw(csv_field(t_text)), draw(csv_field(value_text))]
    fields += draw(st.lists(st.sampled_from(["", "x", "7", '"a,b"', "nan"]), max_size=2))
    blank = "".join(draw(st.lists(EOL, max_size=2)))
    return blank + ",".join(fields) + draw(EOL)


@st.composite
def csv_rows(draw, max_rows=30):
    """(t, line) pairs with t strictly increasing from 1 or more."""
    steps = draw(st.lists(st.integers(1, 2**20), max_size=max_rows))
    times = np.cumsum([draw(st.integers(0, 2**40))] + steps).tolist()[1:]
    return [(t, draw(csv_row(t, draw(FINITE)))) for t in times]


def write_csv(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    path.write_bytes(("t,value\r\n" + "".join(lines)).encode())
    return path


# load_csv reads blocks of about `_READ_BLOCK_BYTES` bytes of whole lines,
# from bytes or by numpy; small blocks put block edges between the rows.
TEXT_BLOCKS = st.sampled_from([_READ_BLOCK_BYTES, 64, 100])


@settings(max_examples=300, deadline=None)
@given(rows=csv_rows(), block=TEXT_BLOCKS)
@example(rows=[], block=_READ_BLOCK_BYTES)
@example(rows=[(0, "0,-0.0\r\n"), (7, '\n +7 ,"5e-324",extra\n'), (9, '"9", 1e-05 \r')],
         block=_READ_BLOCK_BYTES)
def test_load_csv_matches_loop(tmp_path_factory, rows, block):
    path = write_csv(tmp_path_factory, [line for _, line in rows])
    with mock.patch.object(trace_module, "_READ_BLOCK_BYTES", block):
        got = load_csv(path, "other", "dimensionless")
    want = load_csv_loop(path, "other", "dimensionless")
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


ROW_ERROR = re.compile(r"(parse failure|negative time offset|non-finite value"
                       r"|non-increasing timestamps) at row (\d+)")


def row_error(loader, path):
    with pytest.raises(TraceError) as info:
        loader(path, "other", "dimensionless")
    return ROW_ERROR.search(str(info.value)).groups()


# Bad rows, spelled from the t of the row before them.
BAD_ROWS = ["x,1.0", "{next},abc", "{next},", "   ", "{next}", "{next}.5,1",
            "{next},nan", "{next},-inf", "{next},1e400", "{last},1.0", "{prev},1.0",
            "-{next},1.0"]


def with_bad_rows(rows, bad):
    """The lines of `rows` after a first row at t=0, with a bad row put in
    before the row at each position of `bad` ((position, BAD_ROWS index) pairs;
    a position past the end puts it last)."""
    lines, last_t = ["0,0.0\n"], 0
    for i, (t, line) in enumerate(rows + [(None, "")]):
        lines += [BAD_ROWS[kind].format(last=last_t, next=last_t + 1, prev=last_t - 1) + "\n"
                  for at, kind in bad if min(at, len(rows)) == i]
        lines.append(line)
        last_t = t
    return lines


@settings(max_examples=300, deadline=None)
@given(rows=csv_rows(max_rows=12),
       bad=st.lists(st.tuples(st.integers(0, 12), st.integers(0, len(BAD_ROWS) - 1)),
                    min_size=1, max_size=3),
       block=TEXT_BLOCKS)
@example(rows=[], bad=[(0, 9)], block=_READ_BLOCK_BYTES)
def test_load_csv_names_the_same_bad_row_as_loop(tmp_path_factory, rows, bad, block):
    path = write_csv(tmp_path_factory, with_bad_rows(rows, bad))
    with mock.patch.object(trace_module, "_READ_BLOCK_BYTES", block):
        assert row_error(load_csv, path) == row_error(load_csv_loop, path)


# load_csv finds the row of an error a block of rows at a time: put bad rows
# on both sides of the block edges, with blank lines shifting the numbering.
# A bad row put in at position p is data row p + 1, after the row at t=0.
EDGE = _LOCATOR_BLOCK_ROWS


@pytest.mark.parametrize("bad", [
    [(0, 0)], [(EDGE - 2, 6)], [(EDGE - 1, 9)], [(EDGE - 1, 10)], [(EDGE, 3)],
    [(2 * EDGE - 1, 4)], [(2 * EDGE + 7, 6), (2 * EDGE + 7, 0)],
    [(2 * EDGE + 7, 0), (2 * EDGE + 7, 6)], [(3 * EDGE - 2, 9), (3 * EDGE - 2, 1)],
    [(10_000, 5)], [(EDGE - 1, 11)],
])
def test_load_csv_names_rows_across_locator_blocks(tmp_path_factory, bad):
    rows = [(t, f"{t},{t % 97}.5\n" + "\n" * (t % 1000 == 0)) for t in range(1, 10_001)]
    path = write_csv(tmp_path_factory, with_bad_rows(rows, bad))
    assert row_error(load_csv, path) == row_error(load_csv_loop, path)


def checked_rows(monkeypatch):
    """The list of row numbers of the text of every `_parse_csv` call that
    raises from now on: the rows searched for the bad one."""
    checked = []
    parse_csv = trace_module._parse_csv

    def count(path, text, first_row, *args):
        try:
            return parse_csv(path, text, first_row, *args)
        except TraceError:
            checked.extend(range(first_row, first_row + text.count("\n")))
            raise

    monkeypatch.setattr(trace_module, "_parse_csv", count)
    return checked


def test_load_csv_searches_only_the_block_that_fails(tmp_path, monkeypatch):
    rows = "".join(f"{t},{t % 97}.5\n" for t in range(1, 10_001))
    path = tmp_path / "trace.csv"
    path.write_text(f"t,value\n{rows}\n{rows}")  # rows 2-10 001, a blank row, t from 1 again
    checked = checked_rows(monkeypatch)
    monkeypatch.setattr(trace_module, "_READ_BLOCK_BYTES", 4096)
    assert row_error(load_csv, path) == ("non-increasing timestamps", "10003")
    assert 0 < len(checked) < 1000 and min(checked) > 9000


def test_load_csv_searches_only_the_byte_block_whose_t_goes_back(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    trace = generate_trace(SyntheticSpec(n=10_000, seed=3, noise_scale=1.5))
    save_csv(trace, path)
    rows = path.read_bytes().split(b"\r\n", 1)[1]
    path.write_bytes(path.read_bytes() + rows)  # rows 2-10 001, then t from 0 again
    checked = checked_rows(monkeypatch)
    monkeypatch.setattr(trace_module, "_READ_BLOCK_BYTES", 4096)
    assert row_error(load_csv, path) == ("non-increasing timestamps", "10002")
    assert 0 < len(checked) < 1000 and min(checked) > 9000


def test_load_csv_parses_by_numpy_only_the_blocks_from_the_first_off_grammar_one(
        tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    save_csv(generate_trace(SyntheticSpec(n=20_000, seed=3, noise_scale=1.5)), path)
    path.write_bytes(path.read_bytes()[:-2] + b"e0\r\n")  # the same last value, in exponent form
    parsed = []

    def count(*args):
        rows = parse_csv(*args)
        parsed.append(len(rows))
        return rows

    parse_csv = trace_module._parse_csv
    monkeypatch.setattr(trace_module, "_parse_csv", count)
    monkeypatch.setattr(trace_module, "_READ_BLOCK_BYTES", 4096)
    got = load_csv(path, "other", "dimensionless")
    times, values = loadtxt_columns(path)
    assert got.times.tobytes() == times.tobytes()
    assert got.values.tobytes() == values.tobytes()
    assert len(parsed) == 1 and 0 < parsed[0] <= 4096 // 10  # a row is at least 10 bytes


# The byte reader's columns hold as many rows as the file's size taken when
# it was opened allows; rows past that are read by numpy.
def test_load_csv_reads_rows_appended_after_its_size_was_taken(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    path.write_text("t,value\n" + "".join(f"{t},1.5\n" for t in range(10)))
    read_lines = trace_module._read_lines

    def grow(*args):
        if path.stat().st_size < 1000:
            with open(path, "a") as fh:
                fh.write("".join(f"{t},2.5\n" for t in range(10, 5000)))
        return read_lines(*args)

    monkeypatch.setattr(trace_module, "_read_lines", grow)
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tolist() == list(range(5000))
    assert got.values.tolist() == [1.5] * 10 + [2.5] * 4990


@pytest.mark.parametrize("t", [2**63, 2**64, -2**63 - 1])
@pytest.mark.parametrize("after", ["", "5,1.0\n"])
def test_load_csv_names_the_row_of_a_time_outside_int64(tmp_path, t, after):
    path = tmp_path / "trace.csv"
    path.write_text(f"t,value\n0,1.0\n\n{t},2.0\n{after}")
    assert row_error(load_csv, path) == ("parse failure", "4")
    # int() reads the time, so the loop fails later: at the row after it, or
    # in Trace with no row at all
    with pytest.raises(TraceError):
        load_csv_loop(path, "other", "dimensionless")


# Population and x,y files are read by the same numpy path as load_csv's
# numpy route. Their rows are spelled in ways both readers read alike
# (numbers in three forms, blanks inside a field, quoted fields, blank rows,
# all three line ends); some rows carry a fault instead: a non-number, an
# underscore, a non-finite value, a short row or, in a population, a value
# the range check refuses.
FIELD_FAULTS = ["abc", "7_0", "inf", "-inf", "nan", ""]
POPULATION_FAULTS = FIELD_FAULTS + ["29.5", "45.5", "0", "-70"]


@st.composite
def number_field(draw, value):
    spelling = draw(st.sampled_from([repr, "{:.17e}".format, "{:+.6f}".format]))
    return draw(csv_field(spelling(value)))


@st.composite
def faulty_lines(draw, good_row, faults, max_rows=12):
    """Lines of rows from `good_row`, some with one field swapped for a fault
    or cut short, blank rows and line ends of every kind between them."""
    lines = []
    for i in range(draw(st.integers(0, max_rows))):
        fields = draw(good_row(i))
        fault = draw(st.integers(0, 6))
        if fault < len(fields):  # swap the field at that position for a fault
            fields[fault] = draw(st.sampled_from(faults))
        elif fault == 6 and draw(st.booleans()):
            fields = fields[:-1]
        blank = "".join(draw(st.lists(EOL, max_size=2)))
        lines.append(blank + ",".join(fields) + draw(EOL))
    return lines


@st.composite
def person_row(draw, i):
    name = draw(csv_field(draw(st.sampled_from([f"p{i:04d}", f"p,{i}", f"p {i}"]))))
    if "," in name and not name.startswith('"'):
        name = f'"{name}"'
    gender = draw(csv_field(draw(st.sampled_from(["female", "male", ""]))))
    bt = draw(st.floats(30.0, 45.0))
    hr = draw(st.one_of(st.floats(40.0, 140.0), st.sampled_from([5e-324, 1e300])))
    return [name, gender, draw(number_field(bt)), draw(number_field(hr))]


@st.composite
def xy_row(draw, i):
    fields = [draw(number_field(draw(FINITE))), draw(number_field(draw(FINITE)))]
    return fields + draw(st.lists(st.sampled_from(["", "x", "7", '"a,b"']), max_size=2))


def write_lines(tmp_path_factory, header, lines):
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes((header + "".join(lines)).encode())
    return path


def error_text(read, path):
    """The text of the TraceError of `read(path)`, or None if it reads the file."""
    try:
        read(path)
    except TraceError as exc:
        return str(exc)
    return None


def named_row(read, path):
    """The (problem, row) that the TraceError of `read(path)` names, or None
    if it reads the file."""
    text = error_text(read, path)
    return None if text is None else ROW_ERROR.search(text).groups()


# The reasons of the population range check, whose text both readers give in full.
RANGE_FAULT = re.compile(r"must be (finite|positive), got|outside \[30\.0, 45\.0\] celsius")


@settings(max_examples=300, deadline=None)
@given(lines=faulty_lines(person_row, POPULATION_FAULTS))
@example(lines=[])
@example(lines=['"p,0",female,"36.8",70\r', "\n", "p1,male,36.8,7_0\r\n"])
def test_load_population_csv_matches_loop(tmp_path_factory, lines):
    path = write_lines(tmp_path_factory, "id,gender,body_temperature,heart_rate\r\n", lines)
    assert named_row(load_population_csv, path) == named_row(load_population_csv_loop, path)
    got_text, want_text = (error_text(read, path)
                           for read in (load_population_csv, load_population_csv_loop))
    if want_text is not None and RANGE_FAULT.search(want_text):
        assert got_text == want_text
    if named_row(load_population_csv_loop, path) is None:
        got, want = load_population_csv(path), load_population_csv_loop(path)
        assert population_bits(got.tolist()) == population_bits(want)


@settings(max_examples=300, deadline=None)
@given(lines=faulty_lines(xy_row, FIELD_FAULTS))
@example(lines=[])
@example(lines=['"1.5",2\r', "\n", "\n", "3,4,x\n", "5\n"])
def test_load_xy_csv_matches_loop(tmp_path_factory, lines):
    path = write_lines(tmp_path_factory, "x,y\n", lines)
    assert named_row(load_xy_csv, path) == named_row(load_xy_csv_loop, path)
    if named_row(load_xy_csv_loop, path) is None:
        want = np.array(load_xy_csv_loop(path), np.float64).reshape(-1, 2)
        assert np.column_stack(load_xy_csv(path)).tobytes() == want.tobytes()


# A fault numpy parses but the reader's check refuses, put before a fault
# numpy cannot parse: each reader names the earlier row, also when the two
# are in different blocks of its search (`_LOCATOR_BLOCK_ROWS` of 1 and 2).
ORDERED_FAULTS = [
    (lambda path: load_csv(path, "other", "dimensionless"), "t,value\n",
     ["0,1.0\n", "1,nan\n", "2,abc\n"], ("non-finite value", "3")),
    (lambda path: load_csv(path, "other", "dimensionless"), "t,value\n",
     ["5,1.0\n", "\n", "5,2.0\n", "x,1.0\n"], ("non-increasing timestamps", "4")),
    (load_population_csv, "id,gender,body_temperature,heart_rate\n",
     ["p0,f,36.8,70\n", "p1,m,50.0,70\n", "p2,f,36.8,abc\n"], ("parse failure", "3")),
    (load_xy_csv, "x,y\n", ["0,1\n", "\n", "1,inf\n", "2,abc\n"], ("non-finite value", "4")),
]


@pytest.mark.parametrize("block", [1, 2, _LOCATOR_BLOCK_ROWS])
@pytest.mark.parametrize("read,header,lines,named", ORDERED_FAULTS,
                         ids=["trace-finite", "trace-increasing", "population", "xy"])
def test_readers_name_a_check_fault_before_a_later_parse_fault(
        tmp_path_factory, monkeypatch, read, header, lines, named, block):
    monkeypatch.setattr(trace_module, "_LOCATOR_BLOCK_ROWS", block)
    path = write_lines(tmp_path_factory, header, lines)
    assert named_row(read, path) == named


def loadtxt_columns(path):
    """The (times, values) numpy's own parser reads from a one-line-header CSV."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, dtype=[("t", np.int64), ("value", np.float64)], delimiter=",",
                          usecols=(0, 1), ndmin=1, comments=None, quotechar='"', skiprows=1)
    return rows["t"], rows["value"]


def assert_reads_as_loadtxt(path):
    """load_csv gives the Trace of numpy's columns, or fails where that does."""
    try:
        want = Trace("other", "dimensionless", *loadtxt_columns(path))
    except ValueError:
        with pytest.raises(TraceError):
            load_csv(path, "other", "dimensionless")
        return
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


@st.composite
def line_shape(draw):
    """(t width, value digits, point column, sign, line end) of grammar rows:
    t of 1-18 digits, then a value of 1-18 digits with its point at any
    column and an optional minus sign, ending in LF or CR LF."""
    digits = draw(st.integers(1, 18))
    return (draw(st.integers(1, 18)), digits, draw(st.integers(0, digits)),
            draw(st.sampled_from(["", "-"])), draw(st.sampled_from(["\n", "\r\n"])))


def grammar_line(t, n, shape):
    """Row t of the fast reader's grammar, its value's digits those of n
    (below 2**53), leading zeros filling both fields out to the shape."""
    t_width, digits, point, sign, eol = shape
    text = str(n).zfill(digits)
    return f"{str(t).zfill(t_width)},{sign}{text[:point]}.{text[point:]}{eol}"


# Rows just outside the grammar, each of which sends its block, and every
# block after it, to numpy.
NEAR_GRAMMAR = ["\n", "+{t},1.5\n", "{t},+1.5\n", "{t}, 1.5\r\n", " {t},1.5\n", "{t},1e5\n",
                "{t},9007199254740992.\n", "{t},900719925474099.3\n", "{t:019d},2.5\n",
                "{t},1.5\r", "{t},1.\r5\n", "{t},1.5,7\n", "{t},15\n", '"{t}",1.5\n']


@st.composite
def reader_lines(draw):
    """Grammar rows at increasing t, all of one shape (so one long run) or
    each of its own; perhaps one row swapped for a near-grammar row or changed
    in one byte; and the last line with or without its line end."""
    times = sorted(draw(st.sets(st.one_of(st.integers(0, 999), st.integers(0, 10**18 - 1)),
                                max_size=30)))
    shape = draw(line_shape())
    uniform = draw(st.booleans())
    lines = []
    for t in times:
        row_shape = shape if uniform else draw(line_shape())
        n = draw(st.integers(0, min(10**row_shape[1], 2**53) - 1))
        lines.append(grammar_line(t, n, row_shape))
    if lines and draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            lines[at] = draw(st.sampled_from(NEAR_GRAMMAR)).format(t=times[at])
        else:
            i = draw(st.integers(0, len(lines[at]) - 2))
            lines[at] = lines[at][:i] + draw(st.sampled_from("0.,-+ e\r\n\"")) + lines[at][i + 1:]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=reader_lines())
@example(lines=[])
@example(lines=["0,-0.000000\r\n", "7,.5\n", "8,5.\r\n", "9,-.0", "10,0.1\n"])
# equal lengths, but the second row has no CR, or no point, where the first has one
@example(lines=["12,3.45\r\n", "13,3.456\n"])
@example(lines=["12,3.45\n", "13,3456\n"])
@example(lines=["9,10.5\n", "10,9.5\n", "11,-.25\n", "12,-1.5\n"])
# the 10 bytes after the first row are two lines, and end in LF
@example(lines=["1,12345.5\n", "2,.5\n", "3,.5\n"])
def test_load_csv_reads_bytes_as_loadtxt(tmp_path_factory, lines):
    assert_reads_as_loadtxt(write_csv(tmp_path_factory, lines))


def no_loadtxt(monkeypatch):
    """Make numpy's loadtxt raise, so a load that returns used the fast reader."""
    class LoadtxtCalled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise LoadtxtCalled

    monkeypatch.setattr(np, "loadtxt", refuse)
    return LoadtxtCalled


# 16-byte rows after a first row whose width sets where the first 1 MiB block
# edge falls: 7 bytes put it inside a row, 16 between rows, 17 between CR and LF.
@pytest.mark.parametrize("first", ["0,0.5\r\n", "0000000000,0.5\r\n", "00000000000,0.5\r\n"])
def test_fast_reader_runs_across_block_edges(tmp_path, monkeypatch, first):
    rows = [f"{t},{t % 90 + 10}.{t % 10000:04d}\r\n" for t in range(100_000, 170_000)]
    path = tmp_path / "trace.csv"
    path.write_bytes(("t,value\r\n" + first + "".join(rows)).encode())
    assert len(rows[0]) == 16 and path.stat().st_size > _READ_BLOCK_BYTES
    times, values = loadtxt_columns(path)
    no_loadtxt(monkeypatch)
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tobytes() == times.tobytes()
    assert got.values.tobytes() == values.tobytes()


# csv.reader and numpy end a line at a lone CR, so a header holding one ends
# before the LF that follows it; the fast reader, which counts LFs, declines.
@pytest.mark.parametrize("header", [b"t,value\r", b'"t\rx",value\n', b"t,value\r\r\n"])
def test_fast_reader_skips_the_header_lines_numpy_skips(tmp_path, header):
    path = tmp_path / "trace.csv"
    path.write_bytes(header + b"0,1.5\n5,2.5\r\n")
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tolist() == [0, 5] and got.values.tolist() == [1.5, 2.5]


def test_fast_reader_starts_a_piece_where_the_layout_changes(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t,value\n9,10.5\n10,9.5\n11,-9.5\r\n")
    no_loadtxt(monkeypatch)
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tolist() == [9, 10, 11]
    assert got.values.tolist() == [10.5, 9.5, -9.5]


# Rows whose value widths alternate every `run` rows: runs of 1 and of 100
# rows are read faster by numpy, and runs of 1 000 rows from bytes (the two
# routes break even at runs of about 200 rows).
@pytest.mark.parametrize("run", [1, 100, 1000])
def test_fast_reader_sends_short_runs_to_numpy(tmp_path, monkeypatch, run):
    path = tmp_path / "trace.csv"
    rows = [f"{t},{'1' * (t // run % 2)}7.5\n" for t in range(3000)]
    path.write_text("t,value\n" + "".join(rows))
    times, values = loadtxt_columns(path)
    called = no_loadtxt(monkeypatch)
    if run < 1000:
        with pytest.raises(called):
            load_csv(path, "other", "dimensionless")
        return
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tobytes() == times.tobytes()
    assert got.values.tobytes() == values.tobytes()


def test_fast_reader_reads_save_csv_files_and_declines_blank_lines(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    trace = generate_trace(SyntheticSpec(n=70_000, seed=3, drift_amplitude=8.0, noise_scale=1.5))
    save_csv(trace, path)
    times, values = loadtxt_columns(path)
    called = no_loadtxt(monkeypatch)
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tobytes() == times.tobytes() == trace.times.tobytes()
    assert got.values.tobytes() == values.tobytes()
    data = path.read_bytes()
    last = data.rindex(b"\n", 0, -1) + 1
    path.write_bytes(data[:last] + b"\r\n" + data[last:])  # a blank line before the last row
    with pytest.raises(called):
        load_csv(path, "other", "dimensionless")


def test_bulk_golden_input_is_read_from_bytes(golden_inputs, monkeypatch):
    # numpy reads this file about 7 times slower: a fall-back would pass every golden
    path = golden_inputs / "t.csv"
    times, values = loadtxt_columns(path)
    no_loadtxt(monkeypatch)
    got = load_csv(path, "other", "dimensionless")
    assert got.times.tobytes() == times.tobytes()
    assert got.values.tobytes() == values.tobytes()


def digit_columns(kind, digits, count):
    """A (digits, count) uint8 array whose columns are numbers of `digits`
    decimal digits, most significant first, of one kind."""
    rng = np.random.default_rng(digits * 1000 + count)
    if kind == "nines":
        return np.full((digits, count), 9, np.uint8)
    if kind == "zeros":
        return np.zeros((digits, count), np.uint8)
    columns = rng.integers(0, 10, (digits, count), dtype=np.uint8)
    if kind == "leading zeros":  # column j starts with j % (digits + 1) zeros, up to all of them
        columns[np.arange(digits)[:, None] < np.arange(count) % (digits + 1)] = 0
    return columns


# All nines reach each lane's maximum: 99 in uint8, 9 999 in uint16,
# 99 999 999 in uint32 and 10**18 - 1 in int64.
@pytest.mark.parametrize("digits", range(1, trace_module._MAX_DIGITS + 1))
def test_horner_matches_python_int(digits):
    for count in (1, 2, 300):
        for kind in ("nines", "zeros", "leading zeros", "random"):
            columns = digit_columns(kind, digits, count)
            got = trace_module._horner(columns)
            assert got.dtype.kind in "ui" and got.shape == (count,)
            want = [int("".join(map(str, column))) for column in columns.T.tolist()]
            assert got.tolist() == want, (kind, count)


def near_tie(j, toward):
    """The float next to the one nearest (j + 0.5) / 10**6, on one side."""
    return float(np.nextafter((j + 0.5) / 1e6, toward))


# `%.6f` rounds the exact value of the double half to even. Odd multiples of
# 2**-7 are exact ties (the only dyadic (j + 0.5) / 10**6); the floats next
# to a tie are where an inexact product would round the wrong way. Values at
# and above 2**32 send their whole chunk down the f-string path.
SAVED_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**39, 2**39).map(lambda k: k / 128),
    st.builds(near_tie, st.integers(-2**32 * 10**6, 2**32 * 10**6),
              st.sampled_from([-math.inf, math.inf])),
    st.sampled_from([-0.0, -1e-9, 5e-324, -5e-324, -2.2e-308, 1e-310, 5e-7, 2.5e-6,
                     2.0**32, -2.0**32, near_tie(2**32 * 10**6, 0), -(2.0**32 - 2**-20)]),
)


@st.composite
def saved_columns(draw):
    """(times, values): int64 times from 0 to 2**63 - 1, increasing."""
    values = draw(st.lists(SAVED_VALUES, max_size=40))
    top = draw(st.sampled_from([10**3, 2**32, 2**63 - 1]))
    times = draw(st.sets(st.integers(0, top), min_size=len(values), max_size=len(values)))
    return sorted(times), values


def long_columns(n, big_at=None):
    """n seeded rows around the chunk size, with a value of 2**32 at `big_at`."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    values[::7] = rng.integers(-2**20, 2**20, len(values[::7])) / 128
    if big_at is not None:
        values[big_at] = 2.0**32
    return np.cumsum(rng.integers(1, 2**20, n)), values


@settings(max_examples=300, deadline=None)
@given(columns=saved_columns())
@example(columns=([], []))
@example(columns=([0], [-0.0]))
@example(columns=long_columns(BLOCK_SAMPLES - 1))
@example(columns=long_columns(BLOCK_SAMPLES, big_at=BLOCK_SAMPLES - 1))
@example(columns=long_columns(BLOCK_SAMPLES + 1, big_at=BLOCK_SAMPLES))
def test_save_csv_matches_loop(tmp_path_factory, columns):
    trace = make_trace(columns[1], columns[0])
    path = tmp_path_factory.mktemp("save")
    save_csv(trace, path / "got.csv")
    save_csv_loop(trace, path / "want.csv")
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()
    loaded = load_csv(path / "got.csv", "other", "dimensionless")
    assert loaded.times.tobytes() == trace.times.tobytes()
    rounded = np.array([float(f"{v:.6f}") for v in trace.values.tolist()], dtype=np.float64)
    assert loaded.values.tobytes() == rounded.tobytes()


KEYS = {"aes-128-ecb": bytes(range(16)), "des-ecb": bytes(range(8)),
        "blowfish-ecb": bytes(range(16, 32))}


def transmit_chunks(trace, tx, config):
    """(the ciphertext of every `encrypt` call of `_transmit`, joined; the
    number of calls; the log it returns)."""
    sent = []

    def spy(plaintext, suite, key):
        sent.append(encrypt(plaintext, suite, key))
        return sent[-1]

    with mock.patch.object(pipeline, "encrypt", spy):
        log = _transmit(trace, tx, config)
    return b"".join(payload.ciphertext for payload in sent), len(sent), log


# Framing depends on n, the batch size and the block size; the record bytes
# come from a seed (with -0.0 and subnormals mixed in), as the codec's own
# oracle covers every float.
@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), batch=st.integers(1, 70), suite=st.sampled_from(sorted(SUITES)),
       seed=st.integers(0, 2**32 - 1), block=st.sampled_from([BLOCK_SAMPLES, 1, 7, 60, 64]))
@example(n=0, batch=1, suite="des-ecb", seed=0, block=BLOCK_SAMPLES)
@example(n=120, batch=60, suite="aes-128-ecb", seed=0, block=BLOCK_SAMPLES)
@example(n=121, batch=60, suite="blowfish-ecb", seed=0, block=BLOCK_SAMPLES)
@example(n=121, batch=60, suite="blowfish-ecb", seed=0, block=60)
def test_transmit_matches_loop(n, batch, suite, seed, block):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[rng.random(n) < 0.1] = rng.choice([-0.0, 5e-324, -2.2e-308])
    times = rng.integers(0, 2**31) + np.cumsum(rng.integers(1, 2**20, n))
    tx = TransmissionSet(n, range(n), rng.integers(0, len(REASON_NAMES), n))
    config = PipelineConfig(InferenceConfig(), SUITES[suite], KEYS[suite],
                            DpParams(epsilon=1.0, sensitivity=1.0), (), batch_samples=batch)
    trace = make_trace(values, times)
    with mock.patch.object(pipeline, "BLOCK_SAMPLES", block):
        ciphertext, _, log = transmit_chunks(trace, tx, config)
    assert (ciphertext, log) == transmit_loop(trace, tx, config)


# Chunks of whole messages, about BLOCK_SAMPLES records each: a run of one
# chunk, of one chunk and one record, and of none (one header-only message).
@pytest.mark.parametrize("suite", ["aes-128-ecb", "des-ecb"])
@pytest.mark.parametrize("batch", [1, 7, 60, BLOCK_SAMPLES + 1])
@pytest.mark.parametrize("count", ["none", "one", "chunk", "chunk+1"])
def test_chunked_transmit_sends_the_ciphertext_of_the_whole_run(count, batch, suite):
    chunk = batch * max(1, BLOCK_SAMPLES // batch)
    k = {"none": 0, "one": 1, "chunk": chunk, "chunk+1": chunk + 1}[count]
    n = max(k, 3)
    trace = generate_trace(SyntheticSpec(n=n, seed=k, noise_scale=1.0))
    tx = TransmissionSet(n, np.arange(k), np.arange(k) % len(REASON_NAMES))
    config = PipelineConfig(InferenceConfig(), SUITES[suite], KEYS[suite],
                            DpParams(epsilon=1.0, sensitivity=1.0), (), batch_samples=batch)
    ciphertext, calls, log = transmit_chunks(trace, tx, config)
    whole = frame_records(trace.kind, trace.unit, transmitted_records(trace, tx), batch,
                          config.suite)
    assert ciphertext == encrypt(whole, config.suite, config.key).ciphertext
    assert calls == max(1, -(-k // chunk))
    assert log == pipeline.hop_log(k, batch, config.suite)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(values=st.lists(VALUES, max_size=100),
       vr=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
       beacon=st.one_of(st.none(), st.integers(min_value=1, max_value=70)))
@example(values=[], vr=0.025, beacon=None)
def test_owned_transmission_set_equals_the_validated_one(values, vr, beacon):
    owned = select_samples(make_trace(values), InferenceConfig(vr=vr, beacon_period=beacon))
    checked = TransmissionSet(owned.source_len, owned.indices, owned.codes)
    assert owned.source_len == checked.source_len
    for got, expected in ((owned.indices, checked.indices), (owned.codes, checked.codes)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable and got.flags.c_contiguous
