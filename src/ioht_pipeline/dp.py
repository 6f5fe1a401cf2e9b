"""Tier-2 differential privacy: Laplace distribution, noise calibration
b = sensitivity / epsilon, closed-form L1 sensitivity, batched inverse-CDF
Laplace draws, noisy aggregate queries, per-point series perturbation, and
an analytic privacy-ratio check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

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
        if not 0 < self.scale < math.inf:
            raise ValueError(f"sensitivity / epsilon must be finite and > 0, got {self.scale}")

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
    if not 0 < b < math.inf:
        raise ValueError(f"scale b must be finite and > 0, got {b}")
    return math.exp(-abs(x - mu) / b) / (2.0 * b)


def laplace_cdf(x: float, mu: float, b: float) -> float:
    if not 0 < b < math.inf:
        raise ValueError(f"scale b must be finite and > 0, got {b}")
    if x < mu:
        return 0.5 * math.exp((x - mu) / b)
    return 1.0 - 0.5 * math.exp(-(x - mu) / b)


def laplace_noise(rng: np.random.Generator, b: float, size: int) -> np.ndarray:
    """`size` inverse-CDF Laplace(0, b) draws: for each uniform u in
    (-1/2, 1/2), -b*sign(u)*ln(1-2|u|), and 0 where u == 0.

    A uniform with 1-2|u| <= 0 is dropped and the missing ones drawn again
    after the kept ones, so the stream is used as by one scalar draw at a
    time. Each log is the C library's `log`, the function `math.log` calls,
    taken through numpy's per-element loop (see the comment below); the
    route test in `tests/test_oracles.py` pins it to `math.log` bit for bit.
    """
    if not 0 < b < math.inf:
        raise ValueError(f"scale b must be finite and > 0, got {b}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    u = rng.random(size) - 0.5
    y = 1.0 - 2.0 * np.abs(u)
    while not (y > 0.0).all():  # draw again for the uniforms ln(1-2|u|) cannot take
        u = u[y > 0.0]
        u = np.concatenate([u, rng.random(size - len(u)) - 0.5])
        y = 1.0 - 2.0 * np.abs(u)
    # Reversed strides send np.log to numpy's per-element loop, which calls
    # libm's log as math.log does; its SIMD loop, taken for contiguous input,
    # differs from math.log in the last bit on about 0.35% of these inputs.
    # That is numpy behaviour, not numpy API: the route test in
    # tests/test_oracles.py is its guard.
    logs = np.log(y[::-1])[::-1]
    # copysign(b, u) is b * sign(u) exactly: multiplying by +-1 is exact
    noise = 0.0 - np.copysign(b, u) * logs
    noise[u == 0.0] = 0.0
    return noise


def evaluate_query(dataset: Sequence[PersonRecord], query: DpQuery) -> float:
    """The true (un-noised) aggregate."""
    if query.aggregate == "count":
        return float(len(dataset))
    if not dataset:
        raise ValueError(f"{query.aggregate} query on an empty dataset")
    # summed left to right on every Python: sum() of floats compensates from 3.12 on
    total = float(np.cumsum([getattr(r, query.field) for r in dataset], dtype=np.float64)[-1])
    return total / len(dataset) if query.aggregate == "mean" else total


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
    a sum of 0 and no mean, so that neighbor is skipped for the mean. Unbounded
    record addition would make mean sensitivity unbounded, so it is not offered.
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
    if n > 1 or not mean:
        # deleting x_i moves the sum by |x_i| (to 0 at n = 1) and the mean by |x_i - mean| / (n-1)
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
    noise = float(laplace_noise(rng, params.scale, 1)[0])
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


def derive_streams(master_seed: int, count: int) -> Iterator[np.random.Generator]:
    """Independent child generators for concurrent tasks, by stream index,
    each made when it is drawn, so a caller of many holds one at a time."""
    return (np.random.default_rng(np.random.SeedSequence([master_seed, i]))
            for i in range(count))
