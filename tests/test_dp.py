import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioht_pipeline.dp import (
    DpParams,
    DpQuery,
    derive_streams,
    evaluate_query,
    l1_sensitivity,
    laplace_cdf,
    laplace_noise,
    laplace_pdf,
    noisy_query,
    perturb_series,
    verify_dp_ratio,
)
from ioht_pipeline.trace import PersonRecord, generate_population
from test_oracles import StreamRng, sample_laplace


def person(hr, bt=36.8, pid="p"):
    return PersonRecord(id=pid, gender="female", body_temperature=bt, heart_rate=hr)


class TestLaplacePdf:
    def test_peak_value(self):
        assert laplace_pdf(3.0, 3.0, 2.0) == 0.25

    def test_one_scale_away(self):
        assert laplace_pdf(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1) / 2)
        assert laplace_pdf(1.0, 0.0, 1.0) == pytest.approx(0.18394, abs=1e-5)

    def test_symmetry(self):
        for d in (0.1, 1.7, 42.0):
            assert laplace_pdf(5 + d, 5, 2.0) == laplace_pdf(5 - d, 5, 2.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            laplace_pdf(0.0, 0.0, 0.0)

    def test_normalization(self):
        from scipy.integrate import simpson

        b, mu = 1.7, 0.3
        # grid centered on mu so the kink sits on a panel boundary
        xs = np.linspace(mu - 40 * b, mu + 40 * b, 400001)
        ys = [laplace_pdf(x, mu, b) for x in xs]
        assert simpson(ys, x=xs) == pytest.approx(1.0, abs=1e-9)

    def test_calibrated_form_matches(self):
        # density written with (epsilon, sensitivity) equals the b-form
        eps, df = 0.37, 2.5
        b = df / eps
        for x in np.linspace(-10, 10, 101):
            calibrated = eps / (2 * df) * math.exp(-eps * abs(x - 1.0) / df)
            assert calibrated == pytest.approx(laplace_pdf(x, 1.0, b), rel=1e-12)


class TestSampler:
    def test_median_at_mu(self):
        class HalfRng:
            def random(self):
                return 0.5  # u = 0 after centering

        assert sample_laplace(HalfRng(), 7.0, 3.0) == 7.0

    def test_deterministic_per_seed(self):
        a = [sample_laplace(np.random.default_rng(9), 0, 1) for _ in range(1)]
        b = [sample_laplace(np.random.default_rng(9), 0, 1) for _ in range(1)]
        assert a == b

    def test_moments_and_ks(self):
        rng = np.random.default_rng(20240817)
        b = 2.0
        draws = np.array([sample_laplace(rng, 0.0, b) for _ in range(100_000)])
        assert abs(draws.mean()) < 0.05
        assert draws.var() == pytest.approx(2 * b * b, rel=0.05)
        xs = np.sort(draws)
        cdf = np.array([laplace_cdf(x, 0.0, b) for x in xs])
        n = len(xs)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_lo - cdf).max())
        assert ks < 0.01

    @pytest.mark.parametrize("size", [-1, -1000])
    def test_batched_rejects_a_negative_size(self, size):
        rng = StreamRng([0.25] * 3)
        with pytest.raises(ValueError, match=f"size must be >= 0, got {size}"):
            laplace_noise(rng, 1.0, size)
        assert rng.used == 0

    def test_batched_size_zero_draws_nothing(self):
        rng = StreamRng([])
        noise = laplace_noise(rng, 1.0, 0)
        assert noise.dtype == np.float64 and noise.shape == (0,)
        assert rng.used == 0
        rng = np.random.default_rng(5)
        assert laplace_noise(rng, 1.0, 0).shape == (0,)
        assert rng.random() == np.random.default_rng(5).random()


class TestSensitivity:
    def test_count_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pop = generate_population(int(rng.integers(1, 30)), int(rng.integers(1e6)))
            assert l1_sensitivity(DpQuery("count"), pop) == 1.0

    def test_mean_deletion_two_records(self):
        pop = (person(10.0, pid="a"), person(20.0, pid="b"))
        assert l1_sensitivity(DpQuery("mean", "heart_rate"), pop) == 5.0

    def test_mean_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            pop = tuple(person(float(v), pid=str(i))
                        for i, v in enumerate(rng.uniform(40, 140, n)))
            got = l1_sensitivity(DpQuery("mean", "heart_rate"), pop)
            # independent oracle: direct enumeration over deletion neighbors
            values = [r.heart_rate for r in pop]
            base = sum(values) / len(values)
            want = max(
                abs(base - (sum(values) - v) / (len(values) - 1)) for v in values
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_replacement_needs_bounds(self):
        pop = (person(60.0), )
        with pytest.raises(ValueError):
            l1_sensitivity(DpQuery("mean", "heart_rate"), pop, neighbor="replacement")

    def test_replacement_widens(self):
        pop = tuple(person(float(v), pid=str(i)) for i, v in enumerate([60, 70, 80]))
        q = DpQuery("mean", "heart_rate")
        deletion = l1_sensitivity(q, pop)
        replacement = l1_sensitivity(q, pop, bounds=(40.0, 140.0), neighbor="replacement")
        assert replacement >= deletion
        # worst neighbor: 60 replaced by the upper bound 140
        assert replacement == pytest.approx(80.0 / 3.0, rel=1e-12)

    def test_replacement_of_a_single_record(self):
        # deleting the only record is undefined, but replacing it is not
        pop = (person(60.0),)
        for aggregate in ("mean", "sum"):
            s = l1_sensitivity(DpQuery(aggregate, "heart_rate"), pop,
                               bounds=(40.0, 140.0), neighbor="replacement")
            assert s == 80.0
            assert DpParams(epsilon=0.5, sensitivity=s).scale == 160.0

    def test_deletion_of_a_single_record(self):
        # the empty neighbor's sum is 0, while its mean is undefined
        pop = (person(60.0),)
        assert l1_sensitivity(DpQuery("sum", "heart_rate"), pop) == 60.0
        assert l1_sensitivity(DpQuery("mean", "heart_rate"), pop) == 0.0
        assert l1_sensitivity(DpQuery("count"), pop) == 1.0


@pytest.mark.parametrize("epsilon,sensitivity", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-0.5, 1.0),
    (0.5, math.nan), (0.5, math.inf), (0.5, 0.0),
    # each finite, but sensitivity / epsilon overflows to inf or underflows to 0
    (1e-320, 1e10), (1e10, 1e-320),
])
def test_params_reject_non_finite_and_non_positive(epsilon, sensitivity):
    with pytest.raises(ValueError, match="must be finite and > 0"):
        DpParams(epsilon=epsilon, sensitivity=sensitivity)


@pytest.mark.parametrize("b", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda b: laplace_noise(StreamRng([0.25] * 3), b, 3),
    lambda b: laplace_pdf(0.0, 0.0, b),
    lambda b: laplace_cdf(0.0, 0.0, b),
], ids=["laplace_noise", "laplace_pdf", "laplace_cdf"])
def test_laplace_functions_reject_a_non_finite_or_non_positive_scale(call, b):
    with pytest.raises(ValueError, match=f"scale b must be finite and > 0, got {b}"):
        call(b)


class TestQueries:
    def test_evaluate_aggregates(self):
        pop = (person(60.0, pid="a"), person(80.0, pid="b"))
        assert evaluate_query(pop, DpQuery("mean", "heart_rate")) == 70.0
        assert evaluate_query(pop, DpQuery("sum", "heart_rate")) == 140.0
        assert evaluate_query(pop, DpQuery("count")) == 2.0

    def test_sum_is_taken_left_to_right(self):
        # compensated summation, which sum() does from Python 3.12, gives 2**53 + 2
        pop = (person(2.0**53, pid="a"), person(1.0, pid="b"), person(1.0, pid="c"))
        assert evaluate_query(pop, DpQuery("sum", "heart_rate")) == 2.0**53
        assert evaluate_query(pop, DpQuery("mean", "heart_rate")) == 2.0**53 / 3

    def test_mean_on_empty_errors(self):
        with pytest.raises(ValueError):
            evaluate_query((), DpQuery("mean", "heart_rate"))

    def test_noise_vanishes_for_huge_epsilon(self):
        pop = generate_population(50, 3)
        params = DpParams(epsilon=1e6, sensitivity=1.0)
        result = noisy_query(pop, DpQuery("mean", "heart_rate"), params,
                             np.random.default_rng(0))
        assert abs(result.noise) <= params.scale * math.log(2 / 1e-4)
        assert result.out_result == result.real_result + result.noise

    def test_expected_abs_noise_matches_scale(self):
        pop = generate_population(130, 5)
        params = DpParams(epsilon=0.5, sensitivity=1.0)
        devs = []
        for i in range(1000):
            rng = np.random.default_rng(np.random.SeedSequence([404, i]))
            r = noisy_query(pop, DpQuery("mean", "heart_rate"), params, rng)
            devs.append(abs(r.out_result - r.real_result))
        # E|Laplace(0, b)| = b = 2
        assert np.mean(devs) == pytest.approx(2.0, rel=0.15)


class TestPerturbSeries:
    def test_length_and_determinism(self):
        values = list(np.linspace(60, 90, 40))
        params = DpParams(epsilon=0.5)
        a = perturb_series(values, params, np.random.default_rng(8))
        b = perturb_series(values, params, np.random.default_rng(8))
        assert a == b
        assert len(a) == len(values)

    def test_identity_limit(self):
        values = [70.0, 71.0, 72.0]
        out = perturb_series(values, DpParams(epsilon=1e9), np.random.default_rng(1))
        assert out == pytest.approx(values, abs=1e-4)

    def test_noise_decreases_with_epsilon(self):
        pop = generate_population(130, 5)
        values = [r.heart_rate for r in pop]
        mads = []
        for i, eps in enumerate((0.01, 0.05, 0.1, 0.2, 0.5, 1.0)):
            params = DpParams(epsilon=eps)
            trial_devs = []
            for trial in range(100):
                rng = np.random.default_rng(np.random.SeedSequence([99, i, trial]))
                noised = perturb_series(values, params, rng)
                trial_devs.append(np.mean(np.abs(np.array(noised) - values)))
            mads.append(np.mean(trial_devs))
        assert mads == sorted(mads, reverse=True)


class TestDpRatio:
    def test_zero_shift(self):
        assert verify_dp_ratio(DpParams(1.0, 1.0), 0.0, [-5, 0, 5]) == 1.0

    def test_full_shift_attains_bound(self):
        params = DpParams(epsilon=0.7, sensitivity=1.0)
        grid = list(np.linspace(-10, 10, 2001))
        assert verify_dp_ratio(params, 1.0, grid) == pytest.approx(math.exp(0.7), rel=1e-12)

    def test_half_shift(self):
        params = DpParams(epsilon=0.5, sensitivity=1.0)
        grid = list(np.linspace(-10, 10, 2001))
        assert verify_dp_ratio(params, 0.5, grid) == pytest.approx(math.exp(0.25), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        eps=st.floats(0.01, 2.0),
        df=st.floats(0.1, 10.0),
        frac=st.floats(-1.0, 1.0),
    )
    def test_bound_holds_property(self, eps, df, frac):
        params = DpParams(epsilon=eps, sensitivity=df)
        shift = frac * df
        grid = list(np.linspace(-5 * df, 5 * df, 101))
        assert verify_dp_ratio(params, shift, grid) <= math.exp(eps) + 1e-12

    def test_shift_beyond_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            verify_dp_ratio(DpParams(1.0, 1.0), 1.5, [0.0])


def test_derive_streams_independent_and_deterministic():
    a = derive_streams(42, 3)
    b = derive_streams(42, 3)
    draws_a = [g.random() for g in a]
    draws_b = [g.random() for g in b]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 3
