"""Tier-2 differential privacy over a population (`trace.POPULATION_DTYPE`
rows): noise calibration b = sensitivity / epsilon, closed-form L1
sensitivity, batched inverse-CDF Laplace draws, noisy aggregate queries and
per-point series perturbation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .trace import _integer, _real

EPSILON_PRESETS = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)

AGGREGATES = ("mean", "sum", "count")
QUERY_FIELDS = ("heart_rate", "body_temperature")
# The largest |ln(1 - 2|u|)| that `laplace_noise` multiplies b by: 1 - 2|u| >=
# 2**-52 for u = random() - 1/2, as random() is a multiple of 2**-53 in [0, 1).
LARGEST_DRAW_LOG = -math.log(2.0**-52)


@dataclass(frozen=True)
class DpParams:
    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        _real("epsilon", self.epsilon, positive=True)
        _real("sensitivity", self.sensitivity, positive=True)
        if not 0 < self.scale * LARGEST_DRAW_LOG < math.inf:
            raise ValueError(f"sensitivity / epsilon must be finite and > 0, and a Laplace draw "
                             f"of up to {LARGEST_DRAW_LOG:.2f} times it finite, got {self.scale}")

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


def laplace_noise(rng: np.random.Generator, b: float, size: int) -> np.ndarray:
    """`size` inverse-CDF Laplace(0, b) draws: for each uniform u in
    (-1/2, 1/2), -b*sign(u)*ln(1-2|u|). u is 0 only as +0.0 (a uniform of
    exactly 1/2, less 0.5), and there the draw is 0.0 - b * ln(1.0) = +0.0.

    A uniform with 1-2|u| <= 0 is dropped and the missing ones drawn again
    after the kept ones, so the stream is used as by one scalar draw at a
    time. Each log is the C library's `log`, the function `math.log` calls,
    taken through numpy's per-element loop (see the comment below); the
    route test in `tests/test_oracles.py` pins it to `math.log` bit for bit.

    A single draw (`size == 1`, one per `add_noise`) is made in Python
    floats: `rng.random()`, `math.log` and `math.copysign` give the bits of
    the array route, which the route test ties to `math.log`, without its
    dozen numpy calls on a one-element array.
    """
    _real("scale b", b, positive=True)
    size = _integer("size", size, 0)  # a float size is refused, as rng.random refuses it
    if size == 1:
        while True:  # draw again for a uniform ln(1-2|u|) cannot take
            u = rng.random() - 0.5
            y = 1.0 - 2.0 * abs(u)
            if y > 0.0:
                return np.array([0.0 - math.copysign(b, u) * math.log(y)])
    u = rng.random(size) - 0.5
    y = 1.0 - 2.0 * np.abs(u)
    while not (y > 0.0).all():  # draw again for the uniforms ln(1-2|u|) cannot take
        u = u[y > 0.0]
        u = np.concatenate([u, rng.random(size - len(u)) - 0.5])
        y = 1.0 - 2.0 * np.abs(u)
    # Reversed strides send np.log to numpy's per-element loop, which calls
    # libm's log as math.log does; its SIMD loop, taken for contiguous input,
    # differs from math.log in the last bit on about 0.35% of these inputs.
    # An out= array does not keep the route: np.log(y[::-1], out=z[::-1]),
    # both reversed, runs the SIMD loop as contiguous input does.
    # That is numpy behaviour, not numpy API: the route test in
    # tests/test_oracles.py is its guard.
    logs = np.log(y[::-1])[::-1]
    # copysign(b, u) is b * sign(u) exactly: multiplying by +-1 is exact
    return 0.0 - np.copysign(b, u) * logs


def evaluate_query(dataset: np.ndarray, query: DpQuery) -> float:
    """The true (un-noised) aggregate."""
    if query.aggregate == "count":
        return float(len(dataset))
    if not len(dataset):
        raise ValueError(f"{query.aggregate} query on an empty dataset")
    # summed left to right: np.sum sums pairwise, and sum() compensates from Python 3.12 on.
    # The field is read from a plain ndarray view: a recarray's __getitem__, and
    # the recarray it returns, cost more than the sum itself at paper size.
    column = dataset.view(np.ndarray)[query.field]
    total = float(np.add.accumulate(column, dtype=np.float64)[-1])
    return total / len(dataset) if query.aggregate == "mean" else total


def l1_sensitivity(
    query: DpQuery,
    dataset: np.ndarray,
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
    x = dataset[query.field]
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
    dataset: np.ndarray,
    query: DpQuery,
    params: DpParams,
    rng: np.random.Generator,
) -> NoisedResult:
    """True aggregate plus one Laplace(0, b) draw."""
    return add_noise(evaluate_query(dataset, query), params, rng)


def add_noise(real: float, params: DpParams, rng: np.random.Generator) -> NoisedResult:
    """An evaluated aggregate `real` plus one Laplace(0, b) draw."""
    return NoisedResult(real, float(laplace_noise(rng, params.scale, 1)[0]), params)


def perturb_series(
    values: Sequence[float],
    params: DpParams,
    rng: np.random.Generator,
) -> list[float]:
    """Independent Laplace(0, b) noise added to every element."""
    noise = laplace_noise(rng, params.scale, len(values))
    return (np.asarray(values, np.float64) + noise).tolist()


def derive_streams(master_seed: int, count: int) -> Iterator[np.random.Generator]:
    """Independent child generators for concurrent tasks, by stream index,
    each made when it is drawn, so a caller of many holds one at a time."""
    master_seed = _integer("master_seed", master_seed, 0)
    return (np.random.default_rng(np.random.SeedSequence([master_seed, i]))
            for i in range(count))
