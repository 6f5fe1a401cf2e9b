"""An empirical audit of the Laplace mechanism: run it on two neighbouring
populations and bound from below the ε that its outputs show (Ding, Wang,
Wang, Zhang and Kifer, "Detecting Violations of Differential Privacy",
CCS 2018)."""
import math

import numpy as np
from scipy.stats import beta

from ioht_pipeline.dp import DpParams, DpQuery, evaluate_query, laplace_noise
from ioht_pipeline.trace import HR_RANGE, as_population, generate_population

EPSILON = 0.5
DRAWS = 10**6  # outputs per neighbour measured; a tenth as many choose the event


def audit_epsilon(release, draws, alpha, seed=0):
    """A 1 - alpha lower bound on the ε of `release(side, rng, size)`, which
    gives `size` outputs of a mechanism on one of two neighbouring inputs:
    side 0 or side 1.

    The event is {output > c} or its complement, with c on a 25-point
    quantile grid, and the order of the pair, that shows the largest privacy
    loss on `draws // 10` outputs per side. Fresh `draws` outputs per side
    then give two-sided Clopper-Pearson intervals, each at 1 - alpha/2, on
    the event's probability under each side, and ε >= ln(lower bound of the
    larger / upper bound of the smaller). Choosing the event on separate
    outputs keeps the bound sound. The seeds are fixed, so the result is too.

    Limits: it is a lower bound only, so staying under the claimed ε does
    not prove ε-DP; and it samples the mechanism as a whole, so it cannot
    see the floating-point flaw of textbook Laplace sampling (Mironov,
    "On Significance of the Least Significant Bits for Differential
    Privacy", CCS 2012).
    """
    def outputs(side, phase, size):
        return release(side, np.random.default_rng([seed, phase, side]), size)

    chosen = [outputs(side, 0, draws // 10) for side in (0, 1)]
    best = None
    for c in np.quantile(np.concatenate(chosen), np.linspace(0, 1, 27)[1:-1]):
        for above in (True, False):
            p = [max(np.mean((out > c) == above), 1 / len(out)) for out in chosen]
            for hi, lo in ((0, 1), (1, 0)):
                loss = math.log(p[hi] / p[lo])
                if best is None or loss > best[0]:
                    best = (loss, c, above, hi, lo)
    _, c, above, hi, lo = best
    k = [np.count_nonzero((outputs(side, 1, draws) > c) == above) for side in (0, 1)]
    tail = alpha / 4  # each two-sided interval misses with at most alpha / 2
    lower = beta.ppf(tail, k[hi], draws - k[hi] + 1) if k[hi] else 0.0
    upper = beta.ppf(1 - tail, k[lo] + 1, draws - k[lo]) if k[lo] < draws else 1.0
    return max(math.log(lower / upper), 0.0) if lower else 0.0


def mean_heart_rate_release(sensitivity):
    """The noisy mean heart rate of `noisy_query` at EPSILON, with a Laplace
    draw per output, on 60 people whose person 0 has the lowest heart rate
    of `HR_RANGE` (side 0) or the highest (side 1)."""
    means = []
    for heart_rate in HR_RANGE:
        population = generate_population(60, 5).copy()
        population["heart_rate"][0] = heart_rate
        means.append(evaluate_query(as_population(population), DpQuery("mean", "heart_rate")))
    scale = DpParams(EPSILON, sensitivity).scale
    return lambda side, rng, size: means[side] + laplace_noise(rng, scale, size)


def test_audit_finds_the_loss_of_an_under_noised_mean():
    # Positive control: noise for sensitivity 1, as `ioht pipeline` uses
    # today, where one person moves the mean by 100/60. The loss is then
    # (100/60) / (1/0.5) = 0.83, and the audit must see more than 0.5.
    assert audit_epsilon(mean_heart_rate_release(1.0), DRAWS, alpha=0.05) > EPSILON


def test_audit_stays_under_epsilon_at_the_global_sensitivity():
    # Negative control: noise for the global sensitivity of the mean over
    # `HR_RANGE`, (140 - 40) / 60, where the loss is exactly ε.
    bound = audit_epsilon(mean_heart_rate_release(100 / 60), DRAWS, alpha=0.05)
    assert 0.0 < bound <= EPSILON
