"""Tier-2 differential privacy: Laplace distribution, noise calibration
b = sensitivity / epsilon, closed-form L1 sensitivity, single and batched
Laplace draws, noisy aggregate queries, per-point series perturbation, and
an analytic privacy-ratio check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .trace import PersonRecord

EPSILON_PRESETS = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)

AGGREGATES = ("mean", "sum", "count")
QUERY_FIELDS = ("heart_rate", "body_temperature")


@dataclass(frozen=True)
class DpParams:
    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 < self.sensitivity < math.inf:
            raise ValueError(f"sensitivity must be finite and > 0, got {self.sensitivity}")

    @property
    def scale(self) -> float:
        """Laplace scale b = sensitivity / epsilon."""
        return self.sensitivity / self.epsilon


@dataclass(frozen=True)
class DpQuery:
    aggregate: str
    field: Optional[str] = None

    def __post_init__(self) -> None:
        if self.aggregate not in AGGREGATES:
            raise ValueError(f"unknown aggregate {self.aggregate!r}")
        if self.aggregate != "count" and self.field not in QUERY_FIELDS:
            raise ValueError(f"{self.aggregate} query requires a valid field")


@dataclass(frozen=True)
class NoisedResult:
    real_result: float
    noise: float
    params: DpParams
    out_result: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_result", self.real_result + self.noise)


def laplace_pdf(x: float, mu: float, b: float) -> float:
    if b <= 0:
        raise ValueError("scale b must be > 0")
    return math.exp(-abs(x - mu) / b) / (2.0 * b)


def laplace_cdf(x: float, mu: float, b: float) -> float:
    if b <= 0:
        raise ValueError("scale b must be > 0")
    if x < mu:
        return 0.5 * math.exp((x - mu) / b)
    return 1.0 - 0.5 * math.exp(-(x - mu) / b)


def sample_laplace(rng: np.random.Generator, mu: float, b: float) -> float:
    """Inverse-CDF draw: u uniform in (-1/2, 1/2), mu - b*sign(u)*ln(1-2|u|)."""
    if b <= 0:
        raise ValueError("scale b must be > 0")
    while True:
        u = rng.random() - 0.5
        if 1.0 - 2.0 * abs(u) > 0.0:
            break
    if u == 0.0:
        return mu
    return mu - b * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def laplace_noise(rng: np.random.Generator, b: float, size: int) -> np.ndarray:
    """`size` Laplace(0, b) draws: bit for bit the values of `size` calls of
    sample_laplace(rng, 0.0, b), leaving `rng` in the same state."""
    if b <= 0:
        raise ValueError("scale b must be > 0")
    u = np.empty(0)
    while len(u) < size:  # draw again for the uniforms sample_laplace rejects
        more = rng.random(size - len(u)) - 0.5
        u = np.concatenate([u, more[1.0 - 2.0 * np.abs(more) > 0.0]])
    # math.log as in sample_laplace: SIMD np.log differs from it in the last bit for some inputs.
    logs = np.fromiter(map(math.log, (1.0 - 2.0 * np.abs(u)).tolist()), np.float64, size)
    noise = 0.0 - (b * np.copysign(1.0, u)) * logs
    noise[u == 0.0] = 0.0
    return noise


def evaluate_query(dataset: Sequence[PersonRecord], query: DpQuery) -> float:
    """The true (un-noised) aggregate."""
    if query.aggregate == "count":
        return float(len(dataset))
    if not dataset:
        raise ValueError(f"{query.aggregate} query on an empty dataset")
    values = [getattr(r, query.field) for r in dataset]
    total = float(sum(values))
    return total / len(values) if query.aggregate == "mean" else total


def l1_sensitivity(
    query: DpQuery,
    dataset: Sequence[PersonRecord],
    bounds: Optional[tuple[float, float]] = None,
    neighbor: str = "deletion",
) -> float:
    """Closed-form L1 sensitivity over neighboring datasets.

    neighbor="deletion" removes one record; "replacement" additionally
    replaces one record's queried field with an endpoint of `bounds`.
    Records are not clamped into `bounds`. Deleting the only record leaves
    mean and sum undefined, so that neighbor is skipped. Unbounded record
    addition would make mean sensitivity unbounded, so it is not offered.
    """
    if neighbor not in ("deletion", "replacement"):
        raise ValueError(f"unknown neighbor model {neighbor!r}")
    if neighbor == "replacement" and bounds is None:
        raise ValueError("replacement neighbors require bounds")
    base = evaluate_query(dataset, query)
    n = len(dataset)
    if query.aggregate == "count":
        return 1.0 if n else 0.0
    x = np.fromiter((getattr(r, query.field) for r in dataset), np.float64, n)
    mean = query.aggregate == "mean"
    worst = 0.0
    if n > 1:
        # deleting x_i moves the sum by |x_i| and the mean by |x_i - mean| / (n-1)
        worst = float(np.max(np.abs(x - base))) / (n - 1) if mean else float(np.max(np.abs(x)))
    if neighbor == "replacement":
        # replacing x_i by e moves the sum by |x_i - e| and the mean by that / n
        far = max(float(np.max(np.abs(x - e))) for e in bounds)
        worst = max(worst, far / n if mean else far)
    return worst


def noisy_query(
    dataset: Sequence[PersonRecord],
    query: DpQuery,
    params: DpParams,
    rng: np.random.Generator,
) -> NoisedResult:
    """True aggregate plus one Laplace(0, b) draw."""
    real = evaluate_query(dataset, query)
    noise = sample_laplace(rng, 0.0, params.scale)
    return NoisedResult(real_result=real, noise=noise, params=params)


def perturb_series(
    values: Sequence[float],
    params: DpParams,
    rng: np.random.Generator,
) -> list[float]:
    """Independent Laplace(0, b) noise added to every element."""
    noise = laplace_noise(rng, params.scale, len(values))
    return (np.asarray(values, np.float64) + noise).tolist()


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


def derive_streams(master_seed: int, count: int) -> list[np.random.Generator]:
    """Independent child generators for concurrent tasks, by stream index."""
    return [
        np.random.default_rng(np.random.SeedSequence([master_seed, i]))
        for i in range(count)
    ]
