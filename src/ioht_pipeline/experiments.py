"""Parameter sweeps: variance-rate savings, plaintext/ciphertext sizes,
and noise-versus-epsilon behaviour of the private queries."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .crypto import SUITES, ciphertext_size, plaintext_size_for_savings
from .dp import (
    EPSILON_PRESETS,
    DpParams,
    DpQuery,
    laplace_noise,
    perturb_series,
)
from .inference import (
    InferenceConfig,
    compute_metrics,
    reconstruct,
    select_samples,
)
from .trace import PersonRecord, Trace

DEFAULT_VR_GRID = (0.0, 0.025, 0.05, 0.10, 0.20)
DEFAULT_SAVINGS_GRID = (0.0, 51.3, 78.5, 89.7, 98.8)


@dataclass(frozen=True)
class VrSweepRow:
    vr: float
    t: int
    sr: float
    er: float
    ar: Optional[float]
    s_diff: float


def run_vr_sweep(
    trace: Trace,
    vr_grid: Sequence[float] = DEFAULT_VR_GRID,
    beacon_period: Optional[int] = None,
    recon_mode: str = "linear",
) -> list[VrSweepRow]:
    if len(trace) < 3:
        raise ValueError("vr sweep needs a trace of length >= 3")
    rows = []
    for vr in vr_grid:
        config = InferenceConfig(vr=vr, beacon_period=beacon_period, recon_mode=recon_mode)
        tx = select_samples(trace, config)
        recon = reconstruct(trace, tx, recon_mode)
        m = compute_metrics(trace, tx, recon)
        rows.append(VrSweepRow(vr=vr, t=m.t, sr=m.sr, er=m.er, ar=m.ar, s_diff=m.s_diff))
    return rows


@dataclass(frozen=True)
class SizeSweepRow:
    savings: float
    plaintext_bytes: int
    ciphertext_bytes: dict[str, int]


def run_size_sweep(
    savings_grid: Sequence[float] = DEFAULT_SAVINGS_GRID,
    suite_names: Sequence[str] = ("aes-128-ecb", "des-ecb", "blowfish-ecb"),
) -> list[SizeSweepRow]:
    rows = []
    for savings in savings_grid:
        plain = plaintext_size_for_savings(savings)
        rows.append(
            SizeSweepRow(
                savings=savings,
                plaintext_bytes=plain,
                ciphertext_bytes={
                    name: ciphertext_size(plain, SUITES[name]) for name in suite_names
                },
            )
        )
    return rows


@dataclass(frozen=True)
class EpsilonSweepRow:
    epsilon: float
    real_mean: float
    noised_mean: float  # first trial, for the Fig.-4-style chart
    mean_abs_dev: float  # |noised mean - real mean| averaged over trials
    noised_series: tuple[float, ...] = field(repr=False, default=())


def run_epsilon_sweep(
    population: Sequence[PersonRecord],
    epsilons: Sequence[float] = EPSILON_PRESETS,
    sensitivity: float = 1.0,
    trials: int = 200,
    seed: int = 0,
    fieldname: str = "heart_rate",
) -> list[EpsilonSweepRow]:
    """Per epsilon: perturb the whole series once for charting, and measure
    the average deviation of the noised mean over many trials."""
    if not population:
        raise ValueError("population must be non-empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    values = [getattr(r, fieldname) for r in population]
    real_mean = float(np.mean(values))
    rows = []
    for i, eps in enumerate(epsilons):
        params = DpParams(epsilon=eps, sensitivity=sensitivity)
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        noised = perturb_series(values, params, rng)
        first_mean = float(np.mean(noised))
        # deviation of the noised mean of n points = |mean of n iid draws|
        mean_devs = [abs(float(np.mean(laplace_noise(rng, params.scale, len(values)))))
                     for _ in range(trials)]
        rows.append(
            EpsilonSweepRow(
                epsilon=eps,
                real_mean=real_mean,
                noised_mean=first_mean,
                mean_abs_dev=float(np.mean(mean_devs)),
                noised_series=tuple(noised),
            )
        )
    return rows
