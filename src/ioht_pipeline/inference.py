"""Tier-1 data reduction: variance-rate sample selection, reconstruction of
the receiver-side series, and the savings/efficiency/accuracy metrics."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

import numpy as np

from .trace import BLOCK_SAMPLES, Trace, _int64_column, _integer, _real

REASON_ANCHOR = "anchor"
REASON_VARIANCE = "variance"
REASON_BEACON = "beacon"
REASON_NAMES = (REASON_ANCHOR, REASON_VARIANCE, REASON_BEACON)  # indexed by wire code
REASON_CODES = {name: code for code, name in enumerate(REASON_NAMES)}

RECON_MODES = ("step-hold", "linear")


@dataclass(frozen=True)
class InferenceConfig:
    vr: float = 0.025
    beacon_period: Optional[int] = None
    recon_mode: str = "linear"

    def __post_init__(self) -> None:
        _real("vr", self.vr)
        if self.beacon_period is not None:  # a float period would fail as a slice step mid-run
            period = _integer("beacon_period", self.beacon_period, 1)
            object.__setattr__(self, "beacon_period", period)
        if self.recon_mode not in RECON_MODES:
            raise ValueError(f"unknown recon_mode {self.recon_mode!r}")


@dataclass(frozen=True, eq=False)
class TransmissionSet:
    """Indices chosen for transmission, each with the wire code of the
    reason it was kept (`REASON_CODES`), as two read-only columns."""

    source_len: int
    indices: np.ndarray
    codes: np.ndarray

    def __post_init__(self) -> None:
        indices, codes = _int64_column(self.indices), _int64_column(self.codes)
        if indices.ndim != 1 or indices.shape != codes.shape:
            raise ValueError("indices and codes must be 1-D and of equal length")
        outside = np.flatnonzero((indices < 0) | (indices >= self.source_len))
        if outside.size:
            raise ValueError(f"index {indices[outside[0]]} outside [0, {self.source_len})")
        if np.any(indices[1:] <= indices[:-1]):
            raise ValueError("selected indices must be strictly increasing")
        unknown = np.flatnonzero((codes < 0) | (codes >= len(REASON_NAMES)))
        if unknown.size:
            raise ValueError(f"unknown reason code {codes[unknown[0]]}")
        codes = codes.astype(np.uint8)
        indices.flags.writeable = False
        codes.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def _owned(cls, source_len: int, indices: np.ndarray, codes: np.ndarray) -> TransmissionSet:
        """The set of `select_samples`' own columns, taken without a copy or
        a check: int64 indices in [0, source_len), strictly increasing, and
        int8 codes of known reasons, which nothing else holds."""
        tx = object.__new__(cls)
        codes = codes.view(np.uint8)
        indices.flags.writeable = False
        codes.flags.writeable = False
        object.__setattr__(tx, "source_len", source_len)
        object.__setattr__(tx, "indices", indices)
        object.__setattr__(tx, "codes", codes)
        return tx

    @property
    def selected(self) -> Iterator[tuple[int, str]]:
        """(index, reason name) pairs in index order, made from the columns a
        block of `BLOCK_SAMPLES` at a time: only one block's pairs exist at
        once. Each read of the property starts a new pass."""
        for start in range(0, len(self.indices), BLOCK_SAMPLES):
            stop = start + BLOCK_SAMPLES
            names = [REASON_NAMES[c] for c in self.codes[start:stop].tolist()]
            yield from zip(self.indices[start:stop].tolist(), names)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class InferenceMetrics:
    n: int
    t: int
    sr: float
    er: float
    ar: Optional[float]  # None when the original sum is zero
    s_upper: float
    s_lower: float
    s_diff: float


def select_samples(trace: Trace, config: InferenceConfig) -> TransmissionSet:
    """Apply the variance-rate transmission rule with anchors and beacons.

    An interior sample is kept when it differs from its previous or next
    neighbor by more than |value| * vr (strict inequality; ties dropped).
    First and last samples are always kept so reconstruction never
    extrapolates. Beacons are kept every beacon_period samples. Recorded
    reason precedence: variance > anchor > beacon.

    The interior is tested a block of `BLOCK_SAMPLES` at a time, each block
    reading one sample either side of it. A varying sample takes the variance
    code by arithmetic, `block += varies * (variance - block)`, not by a
    masked store, which numpy runs as a branchy loop on an irregular mask:
    the interior holds only -1 (dropped) or the beacon code, as the anchors
    lie outside it, so the difference is small and exact in int8, and adds 0
    where the sample does not vary.
    """
    n = len(trace)
    v = trace.values
    reason = np.full(n, -1, dtype=np.int8)  # -1: dropped
    # Later assignments overwrite earlier ones, which sets the precedence.
    if config.beacon_period is not None:
        reason[::config.beacon_period] = REASON_CODES[REASON_BEACON]
    reason[:1] = reason[-1:] = REASON_CODES[REASON_ANCHOR]
    for start in range(1, n - 1, BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, n - 1)
        step = np.abs(np.diff(v[start - 1:stop + 1]))
        thresh = np.abs(v[start:stop]) * config.vr
        varies = (step[1:] > thresh) | (step[:-1] > thresh)
        block = reason[start:stop]
        block += varies * (REASON_CODES[REASON_VARIANCE] - block)
    kept = np.flatnonzero(reason >= 0)
    return TransmissionSet._owned(n, kept, reason[kept])


def reconstruct(trace: Trace, tx: TransmissionSet, mode: str = "linear") -> np.ndarray:
    """Rebuild the full-length series from the transmitted subset, as a
    read-only float64 array.

    The series is filled a block of `BLOCK_SAMPLES` at a time, each block
    interpolated (or looked up) against only the transmitted samples it falls
    between: from the one before its first sample to the one after its last.
    """
    if tx.source_len != len(trace):
        raise ValueError("transmission set length does not match trace")
    n = len(trace)
    idx = tx.indices
    if n and len(idx) == 0:
        raise ValueError("no anchors: cannot reconstruct from an empty selection")
    if mode not in RECON_MODES:
        raise ValueError(f"unknown recon_mode {mode!r}")
    recon = np.empty(n)
    times = trace.times
    for start in range(0, n, BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, n)
        # as Python ints: numpy scalar arithmetic would cost microseconds a call
        first, last = np.searchsorted(idx, (start, stop)).tolist()  # the kept samples in the block
        lo, hi = max(first - 1, 0), min(last + 1, len(idx))
        # Above 2^53 distinct times cast to one float, and np.interp takes the
        # last of equal xp: take in every kept time equal to the block's last.
        end_time = float(times[stop - 1])
        while hi < len(idx) and float(times[idx[hi]]) == end_time:
            hi += 1
        window = idx[lo:hi]
        kept_values = trace.values[window]
        block = recon[start:stop]
        if mode == "linear":
            # float times, as np.interp would cast them
            block[:] = np.interp(times[start:stop], times[window].astype(np.float64), kept_values)
        else:  # value of the nearest transmitted sample at or before
            positions = np.searchsorted(idx[first:last], np.arange(start, stop), side="right")
            positions += first - 1 - lo
            np.maximum(positions, 0, out=positions)
            np.take(kept_values, positions, out=block)
        # exactness at transmitted points, both modes
        block[idx[first:last] - start] = kept_values[first - lo:last - lo]
    recon.flags.writeable = False
    return recon


def gap_areas(trace: Trace, recon: np.ndarray) -> tuple[float, float]:
    """Exact areas where the reconstruction under- and over-shoots.

    The difference d(t) = original - reconstructed is treated as piecewise
    linear between sample times; each segment is integrated exactly,
    splitting at the zero crossing when d changes sign; the crossing is
    worked out for those segments only. Returns (s_upper, s_lower) in
    value-units * seconds.

    Segments are integrated a block of `BLOCK_SAMPLES` at a time. A segment
    of one sign gives its whole area to the upper sum (`upper = whole *
    above`) or to the lower one (`lower = whole - upper`), both exact: a
    multiply, not a masked select, which numpy runs as a branchy loop on an
    irregular mask. As inf * 0 is NaN, a block whose whole areas are not all
    finite takes them by `np.where` instead. The two sums are the real and
    imaginary lanes of one complex `cumsum`: complex addition is
    componentwise, so each lane adds in index order like a running total
    (np.sum's pairwise order would change the last bits). The totals so far
    are folded into the block's first area: that one addition is the one the
    whole-run `cumsum` makes there.
    """
    if len(recon) != len(trace):
        raise ValueError("length mismatch between trace and reconstruction")
    if len(trace) < 2:
        raise ValueError("need at least 2 samples to integrate")
    s_upper = s_lower = 0.0
    for start in range(0, len(trace) - 1, BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, len(trace) - 1) + 1  # the block's last point
        # the float cast comes before the differences: np.diff of int64 times
        # would round differently above 2^53
        times = trace.times[start:stop].astype(np.float64)
        d = trace.values[start:stop] - recon[start:stop]
        t0, t1, d0, d1 = times[:-1], times[1:], d[:-1], d[1:]
        magnitude, positive = np.abs(d), d > 0  # per point, shared by the segments either side
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            whole = 0.5 * (magnitude[:-1] + magnitude[1:]) * (t1 - t0)
            # segments not of one sign; a NaN product (from an inf d) counts too
            cross = np.flatnonzero(~(d0 * d1 >= 0))
            c0, c1, s0, s1 = d0[cross], d1[cross], t0[cross], t1[cross]
            span, gap = (s1 - s0) * c0, c0 - c1
            tz = s0 + span / gap
            # Where span or gap overflows, take the crossing from the halves
            # of c0 and c1, exact above the subnormals. One test a block: a
            # difference is finite only when both its terms are.
            if not np.isfinite(span - gap).all():
                redo = ~(np.isfinite(span) & np.isfinite(gap))
                h0, h1 = 0.5 * c0[redo], 0.5 * c1[redo]
                tz[redo] = s0[redo] + (s1[redo] - s0[redo]) * (h0 / (h0 - h1))
            first = 0.5 * np.abs(c0) * (tz - s0)
            second = 0.5 * np.abs(c1) * (s1 - tz)
            above = positive[:-1] | positive[1:]
            both = np.empty(len(whole), np.complex128)  # (upper, lower) as its two lanes
            upper, lower = both.real, both.imag
            if np.isfinite(whole).all():
                np.multiply(whole, above, out=upper)
                np.subtract(whole, upper, out=lower)
            else:  # inf * 0 would be NaN
                upper[:] = np.where(above, whole, 0.0)
                lower[:] = np.where(above, 0.0, whole)
        starts_above = c0 > 0
        upper[cross] = np.where(starts_above, first, second)
        lower[cross] = np.where(starts_above, second, first)
        if start:  # the first block has no totals to carry
            both[0] += complex(s_upper, s_lower)
        total = np.cumsum(both, out=both)[-1]
        s_upper, s_lower = total.real, total.imag
    return float(s_upper), float(s_lower)


def compute_metrics(trace: Trace, tx: TransmissionSet, recon: np.ndarray) -> InferenceMetrics:
    """Savings ratio, efficiency ratio, accuracy ratio and gap areas. Raises a
    ValueError naming the first of AR's two sums, the gap areas and AR that
    overflows float64 (an infinite sum gives AR NaN, or a wrong 0.0)."""
    n = len(trace)
    t = len(tx)
    if t == 0:
        raise ValueError("efficiency ratio undefined for zero transmitted samples")
    sr = savings_ratio(n, t)
    er = (n - t) / t
    # np.add.reduce is np.sum's own pairwise reduction, without its wrapper's cost
    orig_sum, recon_sum = float(np.add.reduce(trace.values)), float(np.add.reduce(recon))
    ar = 100.0 * recon_sum / orig_sum if orig_sum != 0 else None
    if ar is not None and not math.isfinite(ar):  # 100 * recon_sum alone may overflow
        ar = 100.0 * (recon_sum / orig_sum)
    s_upper, s_lower = gap_areas(trace, recon) if n >= 2 else (0.0, 0.0)
    for name, total in (("sum of the values", orig_sum), ("sum of the reconstruction", recon_sum),
                        ("upper gap area", s_upper), ("lower gap area", s_lower),
                        ("accuracy ratio", ar or 0.0)):
        if not math.isfinite(total):
            raise ValueError(f"the {name} overflows float64")
    return InferenceMetrics(
        n=n, t=t, sr=sr, er=er, ar=ar,
        s_upper=s_upper, s_lower=s_lower, s_diff=abs(s_upper - s_lower),
    )


def savings_ratio(n: int, t: int) -> float:
    """SR in percent for n sensed and t transmitted samples."""
    if n <= 0:
        raise ValueError("n must be positive")
    return 100.0 * (n - t) / n


def metrics_report(metrics: InferenceMetrics, config: InferenceConfig) -> dict:
    """Machine-readable report object (full precision)."""
    return {**asdict(metrics), **asdict(config)}
