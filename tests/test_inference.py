import math
import tracemalloc

import numpy as np
import pytest

from ioht_pipeline.inference import (
    BLOCK_SAMPLES,
    REASON_CODES,
    InferenceConfig,
    TransmissionSet,
    compute_metrics,
    gap_areas,
    metrics_report,
    reconstruct,
    select_samples,
)
from ioht_pipeline.trace import SyntheticSpec, Trace, generate_trace


def make_trace(values, period=60, kind="other", unit="dimensionless"):
    values = [float(v) for v in values]
    return Trace(kind, unit, [i * period for i in range(len(values))], values)


def make_tx(source_len, selected):
    """A TransmissionSet from (index, reason name) pairs."""
    return TransmissionSet(source_len, [i for i, _ in selected],
                           [REASON_CODES[r] for _, r in selected])


def reasons_of(tx):
    return dict(tx.selected)


class TestSelectSamples:
    def test_variance_rule_direct(self):
        trace = make_trace([100.0, 110.0, 110.0])
        tx = select_samples(trace, InferenceConfig(vr=0.05))
        # |100 - 110| = 10 > 110 * 0.05 = 5.5
        assert reasons_of(tx) == {0: "anchor", 1: "variance", 2: "anchor"}
        assert len(tx) == 3

    def test_tie_not_transmitted(self):
        # difference exactly equal to threshold: strict inequality drops it
        trace = make_trace([100.0, 100.0, 105.0, 105.0])
        tx = select_samples(trace, InferenceConfig(vr=0.05))
        # at i=1: |100-105|=5 vs 100*0.05=5 -> tie, not variance
        # at i=2: |100-105|=5 vs 105*0.05=5.25 -> below
        assert reasons_of(tx) == {0: "anchor", 3: "anchor"}

    def test_constant_trace_with_beacons(self):
        trace = make_trace([70.0] * 100)
        tx = select_samples(trace, InferenceConfig(vr=0.01, beacon_period=10))
        reasons = reasons_of(tx)
        assert len(tx) == 11
        assert reasons[0] == "anchor" and reasons[99] == "anchor"
        assert all(reasons[i] == "beacon" for i in range(10, 100, 10))

    def test_variance_beats_beacon_reason(self):
        trace = make_trace([0.0, 100.0, 0.0, 0.0, 0.0])
        tx = select_samples(trace, InferenceConfig(vr=0.5, beacon_period=1))
        reasons = reasons_of(tx)
        assert reasons[1] == "variance"
        assert reasons[0] == "anchor"
        assert reasons[2] == "variance"

    def test_empty_and_single(self):
        assert len(select_samples(make_trace([]), InferenceConfig())) == 0
        tx = select_samples(make_trace([5.0]), InferenceConfig())
        assert tuple(tx.selected) == ((0, "anchor"),)

    def test_vr_zero_strictly_varying_selects_all(self):
        trace = make_trace(range(1, 50))
        tx = select_samples(trace, InferenceConfig(vr=0.0))
        assert len(tx) == len(trace)

    def test_monotone_in_vr(self):
        trace = generate_trace(SyntheticSpec(n=400, seed=3, noise_scale=2.0,
                                             drift_amplitude=5.0))
        counts = []
        for vr in (0.0, 0.01, 0.025, 0.05, 0.1, 0.2):
            counts.append(len(select_samples(trace, InferenceConfig(vr=vr))))
        assert counts == sorted(counts, reverse=True)

    def test_beacon_bounds_staleness(self):
        trace = generate_trace(SyntheticSpec(n=300, seed=1, noise_scale=0.0,
                                             drift_amplitude=0.0))
        k = 7
        tx = select_samples(trace, InferenceConfig(vr=0.01, beacon_period=k))
        idx = tx.indices
        gaps = np.diff(idx)
        assert gaps.max() <= k


class TestTransmissionSet:
    def test_columns_and_selected_view(self):
        tx = make_tx(5, ((0, "anchor"), (2, "variance"), (4, "beacon")))
        assert tx.indices.dtype == np.int64 and tx.codes.dtype == np.uint8
        assert tx.codes.tolist() == [0, 1, 2]
        assert tuple(tx.selected) == ((0, "anchor"), (2, "variance"), (4, "beacon"))
        assert len(tx) == 3
        with pytest.raises(ValueError, match="read-only"):
            tx.indices[0] = 1

    def test_selected_holds_one_block_of_pairs(self):
        # A block's index ints and list slots take about 49 bytes a pair; all
        # 300 000 pairs held at once, as a tuple, come to about 34 MB.
        n = 300_000
        tx = TransmissionSet(n, np.arange(n), np.arange(n) % 3)
        tracemalloc.start()
        try:
            for _ in tx.selected:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_SAMPLES * 80

    @pytest.mark.parametrize("indices,codes,message", [
        ([0, 5], [0, 0], "index 5 outside"),
        ([-1], [0], "index -1 outside"),
        ([2, 1], [0, 0], "strictly increasing"),
        ([1, 1], [0, 0], "strictly increasing"),
        ([0], [3], "unknown reason code 3"),
        ([0, 1], [0], "equal length"),
        ([0.5, 2.7], [0, 1.9], "0.5 is not a whole number"),
        ([0, 2], [0, 1.9], "1.9 is not a whole number"),
        (["0"], [0], "not of numbers"),
    ])
    def test_rejects_bad_columns(self, indices, codes, message):
        with pytest.raises(ValueError, match=message):
            TransmissionSet(5, indices, codes)


class TestReconstruct:
    def test_linear_collinear(self):
        trace = make_trace([10.0, 20.0, 30.0])
        tx = make_tx(3, ((0, "anchor"), (2, "anchor")))
        rec = reconstruct(trace, tx, "linear")
        assert rec.tolist() == [10.0, 20.0, 30.0]
        assert rec.dtype == np.float64 and not rec.flags.writeable

    def test_step_hold(self):
        trace = make_trace([10.0, 20.0, 30.0])
        tx = make_tx(3, ((0, "anchor"), (2, "anchor")))
        rec = reconstruct(trace, tx, "step-hold")
        assert rec.tolist() == [10.0, 10.0, 30.0]

    def test_linear_drops_peak(self):
        trace = make_trace([0.0, 9.0, 0.0])
        tx = make_tx(3, ((0, "anchor"), (2, "anchor")))
        rec = reconstruct(trace, tx, "linear")
        assert rec.tolist() == [0.0, 0.0, 0.0]

    def test_empty_selection_errors(self):
        trace = make_trace([1.0, 2.0])
        with pytest.raises(ValueError, match="no anchors"):
            reconstruct(trace, make_tx(2, ()), "linear")

    def test_exact_at_transmitted_points(self):
        trace = generate_trace(SyntheticSpec(n=200, seed=11, noise_scale=2.0))
        tx = select_samples(trace, InferenceConfig(vr=0.05, beacon_period=20))
        for mode in ("linear", "step-hold"):
            rec = reconstruct(trace, tx, mode)
            for idx in tx.indices:
                assert rec[idx] == trace.values[idx]


def quadrature_gap_areas(trace, recon, subdivisions=1000):
    """Independent oracle: dense trapezoid integration of the piecewise-linear
    difference, clipped positive and negative."""
    times = trace.times.astype(float)
    d = trace.values - recon
    s_u = s_l = 0.0
    for i in range(len(d) - 1):
        ts = np.linspace(times[i], times[i + 1], subdivisions + 1)
        ds = np.interp(ts, [times[i], times[i + 1]], [d[i], d[i + 1]])
        s_u += np.trapezoid(np.clip(ds, 0, None), ts)
        s_l += np.trapezoid(np.clip(-ds, 0, None), ts)
    return s_u, s_l


class TestGapAreas:
    def test_perfect_reconstruction_zero(self):
        trace = make_trace([1.0, 5.0, 2.0])
        rec = np.array([1.0, 5.0, 2.0])
        assert gap_areas(trace, rec) == (0.0, 0.0)

    def test_triangle_upper(self):
        trace = make_trace([0.0, 9.0, 0.0])
        rec = np.zeros(3)
        s_u, s_l = gap_areas(trace, rec)
        assert s_u == pytest.approx(540.0)
        assert s_l == 0.0

    def test_triangle_lower(self):
        trace = make_trace([0.0, -9.0, 0.0])
        rec = np.zeros(3)
        s_u, s_l = gap_areas(trace, rec)
        assert s_u == 0.0
        assert s_l == pytest.approx(540.0)

    def test_sign_change_within_segment(self):
        trace = make_trace([-3.0, 6.0])
        rec = np.zeros(2)
        s_u, s_l = gap_areas(trace, rec)
        # zero crossing at t = 20: lower triangle 0..20, upper 20..60
        assert s_l == pytest.approx(0.5 * 20 * 3)
        assert s_u == pytest.approx(0.5 * 40 * 6)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            # short segments keep the oracle's kink error below the tolerance
            trace = make_trace(rng.normal(0, 5, size=n), period=2)
            rec = rng.normal(0, 5, size=n)
            s_u, s_l = gap_areas(trace, rec)
            q_u, q_l = quadrature_gap_areas(trace, rec)
            # 1e-6 relative to the total gap area: the quadrature's only error
            # is at zero crossings and is provably below that fraction
            tol = 1e-6 * (q_u + q_l) + 1e-12
            assert abs(s_u - q_u) <= tol
            assert abs(s_l - q_l) <= tol

    # c0 - c1 overflows in the first segment, (s1 - s0) * c0 in the second:
    # the crossing comes from the halves of c0 and c1. The first areas are
    # exact; the second's lower area really overflows.
    @pytest.mark.parametrize("times,values,expected", [
        ([0, 1], [1e308, -1e308], (2.5e307, 2.5e307)),
        ([0, 10**10], [1e300, -1e308], (pytest.approx(5e301, rel=1e-7), math.inf)),
    ])
    def test_crossing_whose_terms_overflow(self, times, values, expected):
        trace = Trace("other", "dimensionless", times, values)
        assert gap_areas(trace, np.zeros(2)) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            gap_areas(make_trace([1.0, 2.0]), np.array([1.0]))


class TestMetrics:
    @pytest.mark.parametrize("t,expected_sr", [(691, 51.3), (306, 78.5),
                                               (146, 89.7), (17, 98.8)])
    def test_savings_formula(self, t, expected_sr):
        n = 1420
        sr = 100.0 * (n - t) / n
        assert round(sr, 1) == expected_sr

    def test_er_from_counts(self):
        n, t = 1420, 691
        er = (n - t) / t
        assert er == pytest.approx(729 / 691)
        assert er == pytest.approx(1.055, abs=5e-4)

    def test_perfect_reconstruction_ar_100(self):
        trace = make_trace([2.0, 4.0, 6.0])
        tx = select_samples(trace, InferenceConfig(vr=0.0))
        rec = reconstruct(trace, tx, "linear")
        m = compute_metrics(trace, tx, rec)
        assert m.ar == pytest.approx(100.0)
        assert m.sr == 0.0
        assert m.s_diff == 0.0

    def test_zero_sum_ar_flag(self):
        trace = make_trace([-1.0, 0.0, 1.0])
        tx = make_tx(3, ((0, "anchor"), (2, "anchor")))
        rec = reconstruct(trace, tx, "linear")
        m = compute_metrics(trace, tx, rec)
        assert m.ar is None

    # (values, reconstruction or None for the linear one between the first
    # and last samples, what overflows), with samples 10^10 s apart
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("values,recon,name", [
        ([1e308, 1.7e308, 1.7e308, 1.7e308], None, "sum of the values"),
        # an infinite original sum over a finite reconstructed one: AR 0.0
        ([1.7e308, 1.7e308], [0.0, 0.0], "sum of the values"),
        ([1e308, -1e308, 1e308, -1e308], [1e308, 1e308, 1e308, -1e308],
         "sum of the reconstruction"),
        ([1e300, 1e300], [0.0, 0.0], "upper gap area"),
        ([-1e300, -1e300], [0.0, 0.0], "lower gap area"),
        # both sums are finite (5e-324 and 2.5), but their quotient is not
        ([1.0, -1.0, -1.0, 1.0, 5e-324], None, "accuracy ratio"),
    ])
    def test_metrics_that_overflow_are_refused(self, values, recon, name):
        trace = make_trace(values, period=10**10)
        tx = make_tx(len(values), [(0, "anchor"), (len(values) - 1, "anchor")])
        recon = reconstruct(trace, tx) if recon is None else np.array(recon)
        with pytest.raises(ValueError, match=f"^the {name} overflows float64$"):
            compute_metrics(trace, tx, recon)

    def test_ar_where_100_times_the_sum_overflows(self):
        trace = make_trace([1.7e308])
        tx = make_tx(1, [(0, "anchor")])
        assert compute_metrics(trace, tx, reconstruct(trace, tx)).ar == 100.0

    def test_sr_er_algebra(self):
        trace = generate_trace(SyntheticSpec(n=300, seed=2, noise_scale=1.0))
        for vr in (0.0, 0.01, 0.05):
            tx = select_samples(trace, InferenceConfig(vr=vr))
            rec = reconstruct(trace, tx, "linear")
            m = compute_metrics(trace, tx, rec)
            assert m.sr < 100
            assert m.er == pytest.approx(m.sr / (100.0 - m.sr))

    def test_report_keys(self):
        trace = make_trace([1.0, 2.0, 3.0])
        config = InferenceConfig(vr=0.1, beacon_period=2, recon_mode="linear")
        tx = select_samples(trace, config)
        m = compute_metrics(trace, tx, reconstruct(trace, tx, "linear"))
        report = metrics_report(m, config)
        assert list(report) == ["n", "t", "sr", "er", "ar", "s_upper", "s_lower",
                                "s_diff", "vr", "beacon_period", "recon_mode"]
        assert (report["t"], report["vr"], report["beacon_period"]) == (m.t, 0.1, 2)

    @pytest.mark.parametrize("vr", [float("nan"), float("inf"), -0.01])
    def test_config_rejects_bad_vr(self, vr):
        with pytest.raises(ValueError, match="vr must be finite and >= 0"):
            InferenceConfig(vr=vr)
