"""Acceptance suite: one test per release criterion, each printing a
PASS line when its checks hold (run with `pytest -s tests/test_acceptance.py`
to see them)."""
import math

import numpy as np
import pytest

from ioht_pipeline.crypto import (
    SUITES,
    ciphertext_size,
    decrypt,
    encrypt,
    plaintext_size_for_savings,
)
from ioht_pipeline.dp import (
    DpParams,
    DpQuery,
    l1_sensitivity,
)
from ioht_pipeline.inference import (
    InferenceConfig,
    gap_areas,
    reconstruct,
    savings_ratio,
    select_samples,
)
from ioht_pipeline.pipeline import run_pipeline
from ioht_pipeline.trace import (
    SyntheticSpec,
    Trace,
    as_population,
    generate_population,
    generate_trace,
)
from test_oracles import laplace_cdf, sample_laplace, verify_dp_ratio
from test_pipeline import make_config


def ok(msg):
    print(f"PASS {msg}")


def test_criterion_1_savings_formula():
    expected = {691: 51.3, 306: 78.5, 146: 89.7, 17: 98.8}
    for t, sr in expected.items():
        assert round(savings_ratio(1420, t), 1) == sr
    ok("criterion 1: SR formula reproduces the published savings table")


def test_criterion_2_plaintext_size_formula():
    grid = [0.0, 51.3, 78.5, 89.7, 98.8]
    sizes = [plaintext_size_for_savings(s) for s in grid]
    assert sizes == [1024, 498, 220, 105, 12]
    ok("criterion 2: plaintext-size-from-savings formula exact on the published grid")


def test_criterion_3_vr_monotonicity():
    rng = np.random.default_rng(31337)
    vr_grid = (0.0, 0.01, 0.025, 0.05, 0.1, 0.2)
    for trial in range(200):
        n = int(rng.integers(50, 2001))
        spec = SyntheticSpec(
            n=n,
            period=60,
            seed=int(rng.integers(2**32)),
            baseline=float(rng.uniform(35, 90)),
            drift_amplitude=float(rng.uniform(0, 10)),
            noise_scale=float(rng.uniform(0.01, 3.0)),
        )
        trace = generate_trace(spec)
        beacon = int(rng.integers(10, 120))
        ts, srs = [], []
        for vr in vr_grid:
            tx = select_samples(trace, InferenceConfig(vr=vr, beacon_period=beacon))
            ts.append(len(tx))
            srs.append(savings_ratio(n, len(tx)))
        assert ts == sorted(ts, reverse=True), f"T not non-increasing: {ts}"
        assert srs == sorted(srs), f"SR not non-decreasing: {srs}"
    ok("criterion 3: T non-increasing / SR non-decreasing in vr over 200 random traces")


def _quadrature(trace, recon, subdivisions=1000):
    times = trace.times.astype(float)
    d = trace.values - recon
    s_u = s_l = 0.0
    for i in range(len(d) - 1):
        ts = np.linspace(times[i], times[i + 1], subdivisions + 1)
        ds = np.interp(ts, [times[i], times[i + 1]], [d[i], d[i + 1]])
        s_u += np.trapezoid(np.clip(ds, 0, None), ts)
        s_l += np.trapezoid(np.clip(-ds, 0, None), ts)
    return s_u, s_l


def test_criterion_4_gap_area_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        trace = Trace("other", "dimensionless", np.arange(n) * 2, rng.normal(0, 5, n))
        recon = rng.normal(0, 5, n)
        s_u, s_l = gap_areas(trace, recon)
        q_u, q_l = _quadrature(trace, recon)
        tol = 1e-6 * (q_u + q_l) + 1e-12
        assert abs(s_u - q_u) <= tol
        assert abs(s_l - q_l) <= tol
    # perfect reconstruction limit
    trace = generate_trace(SyntheticSpec(n=100, seed=1, noise_scale=1.0))
    perfect = trace.values.copy()
    s_u, s_l = gap_areas(trace, perfect)
    assert s_u == 0.0 and s_l == 0.0 and abs(s_u - s_l) == 0.0
    ok("criterion 4: exact gap areas match dense quadrature; zero for perfect reconstruction")


ACCEPTANCE_SAMPLER_SEED = 20240817  # documented fixed seed


def test_criterion_5_sampler_statistics():
    rng = np.random.default_rng(ACCEPTANCE_SAMPLER_SEED)
    b = 2.0
    draws = np.array([sample_laplace(rng, 0.0, b) for _ in range(100_000)])
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 8.0) <= 0.05 * 8.0
    xs = np.sort(draws)
    cdf = np.array([laplace_cdf(x, 0.0, b) for x in xs])
    n = len(xs)
    ks = max(np.abs(np.arange(1, n + 1) / n - cdf).max(),
             np.abs(np.arange(0, n) / n - cdf).max())
    assert ks < 0.01
    ok(f"criterion 5: 1e5 draws mean={draws.mean():.4f}, var={draws.var():.3f}, KS={ks:.4f}")


def test_criterion_6_dp_ratio_bound():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        eps = float(rng.uniform(0.01, 2.0))
        df = float(rng.uniform(0.1, 10.0))
        shift = float(rng.uniform(-df, df))
        params = DpParams(epsilon=eps, sensitivity=df)
        grid = list(rng.uniform(-5 * df, 5 * df, 50))
        assert verify_dp_ratio(params, shift, grid) <= math.exp(eps) + 1e-12
    params = DpParams(epsilon=0.8, sensitivity=2.0)
    grid = list(np.linspace(-20, 20, 4001))
    assert verify_dp_ratio(params, 2.0, grid) == pytest.approx(math.exp(0.8), rel=1e-12)
    ok("criterion 6: privacy ratio <= exp(epsilon) over 1000 random cases, tight at full shift")


def test_criterion_7_sensitivity_oracle():
    rng = np.random.default_rng(707)
    for _ in range(50):
        pop = generate_population(int(rng.integers(1, 40)), int(rng.integers(2**31)))
        assert l1_sensitivity(DpQuery("count"), pop) == 1.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        values = rng.uniform(40, 140, n)
        pop = as_population((str(i), "female", 36.8, float(v)) for i, v in enumerate(values))
        got = l1_sensitivity(DpQuery("mean", "heart_rate"), pop)
        base = values.mean()
        oracle = max(abs(base - (values.sum() - v) / (n - 1)) for v in values)
        assert got == pytest.approx(oracle, rel=1e-12)
    ok("criterion 7: count sensitivity exactly 1; mean sensitivity matches exhaustive oracle")


def test_criterion_8_epsilon_sweep_shape():
    pop = generate_population(130, seed=5)
    hr = np.array([r.heart_rate for r in pop])
    true_mean = hr.mean()
    assert abs(true_mean - 73.76) < 2.0
    eps_grid = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
    trials = 200
    mads = []
    within_band = 0
    for i, eps in enumerate(eps_grid):
        b = 1.0 / eps
        devs = []
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([808, i, trial]))
            noise_mean = np.mean([sample_laplace(rng, 0.0, b) for _ in range(len(hr))])
            devs.append(abs(noise_mean))
            if eps == 0.5 and abs(noise_mean) < 0.75:
                within_band += 1
        mads.append(float(np.mean(devs)))
    assert mads == sorted(mads, reverse=True), f"MAD not strictly decreasing: {mads}"
    assert len(set(mads)) == len(mads)
    assert within_band >= 0.99 * trials
    ok(f"criterion 8: noised-mean deviation decreasing {['%.3f' % m for m in mads]}, "
       f"eps=0.5 within 0.75 band in {within_band}/{trials} trials")


def test_criterion_9_pipeline_integrity_and_determinism():
    trace = generate_trace(SyntheticSpec(n=1420, period=60, seed=7, baseline=70,
                                         drift_amplitude=8, noise_scale=1.5))
    pop = generate_population(130, 5)
    config = make_config(
        inference=InferenceConfig(vr=0.025, beacon_period=60, recon_mode="linear"),
        master_seed=4242,
    )
    # run_pipeline raises internally if edge-side decryption differs from the
    # transmitted records, so a returned report implies bit-exact integrity
    report_a = run_pipeline(trace, config, pop)
    report_b = run_pipeline(trace, config, pop)
    assert report_a.to_json() == report_b.to_json()
    assert report_a.energy_saving_percent > 0
    ok(f"criterion 9: pipeline integrity verified, deterministic report, "
       f"energy saving {report_a.energy_saving_percent:.1f}%")


def test_criterion_10_cipher_round_trip_and_size_law():
    keys = {
        "aes-128-ecb": bytes(range(16)),
        "des-ecb": bytes(range(8)),
        "blowfish-ecb": bytes(range(16, 32)),
    }
    rng = np.random.default_rng(1010)
    blob = rng.bytes(4096)
    for name, suite in SUITES.items():
        for n in range(0, 4097):
            plaintext = blob[:n]
            assert 1 <= ciphertext_size(n, suite) - n <= suite.block_bytes
            payload = encrypt(plaintext, suite, keys[name])
            assert len(payload.ciphertext) == ciphertext_size(n, suite)
            assert decrypt(payload, keys[name]) == plaintext
    ok("criterion 10: ECB round trip identity and PKCS#7 size law across all suites")
