"""The loop forms of select_samples, gap_areas, generate_trace,
l1_sensitivity and the Laplace draws, kept as reference oracles: the
columnar versions must give the same output."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioht_pipeline.dp import (
    AGGREGATES,
    QUERY_FIELDS,
    DpQuery,
    evaluate_query,
    l1_sensitivity,
    laplace_noise,
    sample_laplace,
)
from ioht_pipeline.inference import (
    REASON_ANCHOR,
    REASON_BEACON,
    REASON_VARIANCE,
    InferenceConfig,
    gap_areas,
    reconstruct,
    select_samples,
)
from ioht_pipeline.trace import PersonRecord, SyntheticSpec, Trace, generate_trace


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


def l1_sensitivity_loop(query, dataset, bounds=None, neighbor="deletion"):
    """Worst |change| of the query over every enumerated neighboring dataset."""
    base = evaluate_query(dataset, query)
    worst = 0.0
    records = list(dataset)
    for i in range(len(records)):
        neighbor_ds = records[:i] + records[i + 1:]
        # mean and sum are undefined on the empty deletion neighbor
        if query.aggregate == "count" or neighbor_ds:
            worst = max(worst, abs(base - evaluate_query(neighbor_ds, query)))
        if neighbor == "replacement" and query.aggregate != "count":
            for endpoint in bounds:
                swapped = list(records)
                swapped[i] = replace(records[i], **{query.field: endpoint})
                worst = max(worst, abs(base - evaluate_query(swapped, query)))
    return worst


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
    assert select_samples(trace, config).selected == select_samples_loop(trace, config)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=40))
def test_gap_areas_matches_loop(data, n):
    steps = data.draw(st.lists(st.integers(1, 10**6), min_size=n - 1, max_size=n - 1))
    times = np.cumsum([0] + steps)
    values = data.draw(st.lists(BOUNDED, min_size=n, max_size=n))
    recon = np.array(data.draw(st.lists(BOUNDED, min_size=n, max_size=n)))
    trace = make_trace(values, times)
    assert gap_areas(trace, recon) == gap_areas_loop(trace, recon)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=0, max_value=300),
       period=st.integers(min_value=1, max_value=10**6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       baseline=st.floats(min_value=-1e3, max_value=1e3),
       drift=st.floats(min_value=0.0, max_value=20.0),
       noise=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)))
@example(n=0, period=60, seed=0, baseline=70.0, drift=8.0, noise=1.5)
@example(n=1, period=60, seed=0, baseline=70.0, drift=8.0, noise=1.5)
@example(n=3, period=60, seed=1, baseline=70.0, drift=0.0, noise=0.0)
def test_generate_trace_matches_loop(n, period, seed, baseline, drift, noise):
    spec = SyntheticSpec(n=n, period=period, seed=seed, baseline=baseline,
                         drift_amplitude=drift, noise_scale=noise)
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
        assert tx.selected == select_samples_loop(trace, config)
        recon = reconstruct(trace, tx, "linear")
        assert gap_areas(trace, recon) == gap_areas_loop(trace, recon)


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
    record = PersonRecord(id=str(i), gender="female", body_temperature=36.8, heart_rate=70.0)
    return replace(record, **{fieldname: value})


@settings(max_examples=400, deadline=None)
@given(data=st.data(), aggregate=st.sampled_from(AGGREGATES),
       fieldname=st.sampled_from(QUERY_FIELDS),
       neighbor=st.sampled_from(("deletion", "replacement")),
       n=st.integers(min_value=0, max_value=12))
def test_l1_sensitivity_matches_brute_force(data, aggregate, fieldname, neighbor, n):
    values = data.draw(st.lists(FIELD_VALUES[fieldname], min_size=n, max_size=n))
    bounds = data.draw(st.tuples(FIELD_VALUES[fieldname], FIELD_VALUES[fieldname]))
    query = DpQuery(aggregate, None if aggregate == "count" else fieldname)
    pop = tuple(person(fieldname, v, i) for i, v in enumerate(values))
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


def scalar_draws(rng, b, k):
    return np.array([sample_laplace(rng, 0.0, b) for _ in range(k)], dtype=np.float64)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=0, max_value=3000),
       b=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(k=0, b=1.0, seed=0)
@example(k=1, b=1e-3, seed=1)
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
@pytest.mark.parametrize("b", [1.0, 7.5, math.inf])
@pytest.mark.parametrize("stream,k", [
    ([0.3, 0.0, 0.0, 0.9, 0.5, 0.0, 0.0, 0.1, 0.0, 0.25, 0.6], 6),  # two in a row, block end
    ([0.0, 0.0, 0.0, 0.7], 1),
    ([0.5, 0.0, 0.999, 0.0, 0.0, 0.4], 3),
    ([0.2, 0.4], 0),
])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_laplace_noise_rejects_zero_uniforms_like_the_loop(stream, k, b):
    check_against_stream(stream, k, b)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=0, max_value=20),
       body=st.lists(st.one_of(st.just(0.0), st.just(0.5),
                               st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
                     max_size=60))
def test_laplace_noise_matches_loop_on_any_stream(k, body):
    check_against_stream(body + [0.25] * k, k, 2.0)
