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
    derive_streams,
    laplace_noise,
    perturb_series,
)
from .inference import (
    InferenceConfig,
    TransmissionSet,
    _gap_totals,
    _metrics,
    _reasons,
    reconstruct,
)
from .trace import BLOCK_SAMPLES, Trace, _integer

DEFAULT_VR_GRID = (0.0, 0.025, 0.05, 0.10, 0.20)
DEFAULT_SAVINGS_GRID = (0.0, 51.3, 78.5, 89.7, 98.8)
# Laplace draws per call of the epsilon sweep's trials, in whole trials: k =
# max(1, SWEEP_BLOCK_DRAWS // n) trials of n draws each. Each float64 temporary
# of a call is then at most 64 KiB, below glibc's 128 KiB mmap threshold, so
# its buffers are reused from the heap and stay in L2; batches of 16 or 32
# trials of 1 000 draws (128 KiB or more) ran 1.6x slower than batches of 8.
SWEEP_BLOCK_DRAWS = 8192


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
) -> list[VrSweepRow]:
    """The metrics of `select_samples`, linear `reconstruct` and
    `compute_metrics` at each rate of the grid, in grid order; raises the
    ValueError of the first rate whose metrics overflow.

    The grid goes in passes of k = max(1, BLOCK_SAMPLES // n) rates, as the
    epsilon sweep batches its trials: every default rate in one pass at the
    paper's n of 1 420, and one rate a pass from n > BLOCK_SAMPLES / 2 on,
    where the one-rate functions' blocks of `BLOCK_SAMPLES` columns keep the
    memory as it was. A pass shares |v|, the steps, the float times and the
    sum of the values between its rates, and holds a (k, n) array of reasons
    and one of reconstructions. Every row has the bits of the one-rate
    functions. While the trace is one block, each row is interpolated whole,
    as `reconstruct` does its one block; a longer trace's one-rate pass goes
    through `reconstruct` itself. Selection and areas are the one-rate code
    run on k rows: the thresholds and areas are the same elementwise
    operations, and np.add.reduce and the complex cumsum along axis 1 of a
    C-ordered (k, n) array add each row in the order of the 1-D calls.
    """
    n = len(trace)
    if n < 3:
        raise ValueError("vr sweep needs a trace of length >= 3")
    configs = [InferenceConfig(vr=vr, beacon_period=beacon_period) for vr in vr_grid]
    values = trace.values
    # a trace of one block is reconstructed whole, against its times cast once
    whole = n <= BLOCK_SAMPLES
    times = trace.times.astype(np.float64) if whole else trace.times
    orig_sum = float(np.add.reduce(values))
    per_pass = max(1, BLOCK_SAMPLES // n)
    rows = []
    for start in range(0, len(configs), per_pass):
        batch = configs[start:start + per_pass]
        reasons = _reasons(values, [c.vr for c in batch], beacon_period)
        kept = [np.flatnonzero(sent) for sent in reasons >= 0]
        if whole:
            recon = np.empty(reasons.shape)
            for row, idx in zip(recon, kept):
                kept_values = values[idx]
                row[:] = np.interp(times, times[idx], kept_values)
                row[idx] = kept_values
        else:  # one rate a pass, a block of columns at a time
            (idx,) = kept
            recon = reconstruct(trace, TransmissionSet._owned(n, idx, reasons[0][idx]))[None]
        sums = np.add.reduce(recon, axis=1).tolist()
        areas = _gap_totals(times, values, recon).tolist()
        for config, idx, recon_sum, area in zip(batch, kept, sums, areas):
            m = _metrics(n, len(idx), orig_sum, recon_sum, area.real, area.imag)
            rows.append(VrSweepRow(vr=config.vr, t=m.t, sr=m.sr, er=m.er, ar=m.ar,
                                   s_diff=m.s_diff))
    return rows


@dataclass(frozen=True)
class SizeSweepRow:
    savings: float
    plaintext_bytes: int
    ciphertext_bytes: dict[str, int]


def run_size_sweep(savings_grid: Sequence[float] = DEFAULT_SAVINGS_GRID) -> list[SizeSweepRow]:
    rows = []
    for savings in savings_grid:
        plain = plaintext_size_for_savings(savings)
        rows.append(
            SizeSweepRow(
                savings=savings,
                plaintext_bytes=plain,
                ciphertext_bytes={
                    name: ciphertext_size(plain, suite) for name, suite in SUITES.items()
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


@np.errstate(over="ignore")  # a mean that overflows is refused, not warned of
def run_epsilon_sweep(
    population: np.ndarray,
    epsilons: Sequence[float] = EPSILON_PRESETS,
    sensitivity: float = 1.0,
    trials: int = 200,
    seed: int = 0,
) -> list[EpsilonSweepRow]:
    """Per epsilon: perturb the heart rates once for charting, and measure the
    average deviation of the noised mean over many trials. Raises a ValueError
    if either mean overflows."""
    if not len(population):
        raise ValueError("population must be non-empty")
    trials = _integer("trials", trials, 1)
    values = population["heart_rate"]
    n = len(values)
    per_call = max(1, SWEEP_BLOCK_DRAWS // n)
    real_mean = float(np.mean(values))
    rows = []
    for eps, rng in zip(epsilons, derive_streams(seed, len(epsilons))):
        params = DpParams(epsilon=eps, sensitivity=sensitivity)
        noised = perturb_series(values, params, rng)
        first_mean = float(np.mean(noised))
        # deviation of the noised mean of n points = |mean of n iid draws|.
        # One call of k*n draws gives k successive calls of n, row by row, and
        # each row's mean is the pairwise sum of a 1-d array of n.
        mean_devs = np.empty(trials)
        for start in range(0, trials, per_call):
            k = min(per_call, trials - start)
            draws = laplace_noise(rng, params.scale, k * n).reshape(k, n)
            mean_devs[start:start + k] = np.abs(draws.mean(axis=1))
        mean_abs_dev = float(np.mean(mean_devs))
        if not np.isfinite([first_mean, mean_abs_dev]).all():
            raise ValueError(f"the noised means at epsilon {eps} overflow float64: "
                             f"sensitivity {sensitivity} is too large")
        rows.append(
            EpsilonSweepRow(
                epsilon=eps,
                real_mean=real_mean,
                noised_mean=first_mean,
                mean_abs_dev=mean_abs_dev,
                noised_series=tuple(noised),
            )
        )
    return rows
