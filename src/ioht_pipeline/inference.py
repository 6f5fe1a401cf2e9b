"""Tier-1 data reduction: variance-rate sample selection, reconstruction of
the receiver-side series, and the savings/efficiency/accuracy metrics."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Sequence

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
        object.__setattr__(self, "source_len", _integer("source_len", self.source_len, 0))
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
    """
    reason = _reasons(trace.values, (config.vr,), config.beacon_period)[0]
    kept = np.flatnonzero(reason >= 0)
    return TransmissionSet._owned(len(trace), kept, reason[kept])


def _reasons(values: np.ndarray, vrs: Sequence[float], beacon_period: Optional[int]) -> np.ndarray:
    """The reason codes of `select_samples` at each of the k rates `vrs`, as
    a (k, n) int8 array in which -1 marks a dropped sample.

    The interior is tested a block of `BLOCK_SAMPLES` columns at a time, each
    block reading one sample either side of it; |v| and the larger step either
    side of each sample are taken once a block for every rate, and each
    rate's thresholds a row at a time (a (k, n) product would broadcast
    through numpy's buffers). A varying sample takes the variance code by
    arithmetic, `block += varies * (variance - block)`, not by a masked store,
    which numpy runs as a branchy loop on an irregular mask: the interior
    holds only -1 (dropped) or the beacon code, as the anchors lie outside
    it, so the difference is small and exact in int8, and adds 0 where the
    sample does not vary.
    """
    n = len(values)
    reason = np.full((len(vrs), n), -1, dtype=np.int8)
    # Later assignments overwrite earlier ones, which sets the precedence.
    if beacon_period is not None:
        reason[:, ::beacon_period] = REASON_CODES[REASON_BEACON]
    reason[:, :1] = reason[:, -1:] = REASON_CODES[REASON_ANCHOR]
    for start in range(1, n - 1, BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, n - 1)
        step = np.abs(np.diff(values[start - 1:stop + 1]))
        # a trace's values are finite, so no step is NaN
        larger, magnitude = np.maximum(step[1:], step[:-1]), np.abs(values[start:stop])
        for vr, block in zip(vrs, reason[:, start:stop]):
            varies = larger > magnitude * vr
            block += varies * (REASON_CODES[REASON_VARIANCE] - block)
    return reason


def reconstruct(trace: Trace, tx: TransmissionSet, mode: str = "linear") -> np.ndarray:
    """Rebuild the full-length series from the transmitted subset, as a
    read-only float64 array: the one-row case of `_reconstruct_rows`."""
    if tx.source_len != len(trace):
        raise ValueError("transmission set length does not match trace")
    if len(trace) and len(tx) == 0:
        raise ValueError("no anchors: cannot reconstruct from an empty selection")
    if mode not in RECON_MODES:
        raise ValueError(f"unknown recon_mode {mode!r}")
    recon = _reconstruct_rows(trace.times, trace.values, (tx.indices,), mode)
    recon.flags.writeable = False
    return recon[0]


def _reconstruct_rows(times: np.ndarray, values: np.ndarray, kept: Sequence[np.ndarray],
                      mode: str) -> np.ndarray:
    """The reconstruction from each of k non-empty, strictly increasing int64
    columns of kept indices, as a (k, n) float64 array.

    The rows are filled a block of `BLOCK_SAMPLES` columns at a time. A block
    takes its x once for all k rows: its times cast to float64 (linear), or
    its column numbers (step-hold). Each row's block is interpolated (or
    looked up) against only the kept samples its columns fall between: from
    the one before its first column to the one after its last. Every row
    then holds its kept values exactly, in both modes.
    """
    n = len(times)
    recon = np.empty((len(kept), n))
    for start in range(0, n, BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, n)
        # float times, as np.interp would cast them
        x = times[start:stop].astype(np.float64) if mode == "linear" else np.arange(start, stop)
        end_time = float(times[stop - 1])
        for row, idx in zip(recon, kept):
            # as Python ints: numpy scalar arithmetic would cost microseconds a call
            first, last = idx.searchsorted([start, stop]).tolist()  # the kept samples in the block
            lo, hi = max(first - 1, 0), min(last + 1, len(idx))
            # Above 2^53 distinct times cast to one float, and np.interp takes
            # the last of equal xp: take in every kept time equal to the block's last.
            while hi < len(idx) and float(times[idx[hi]]) == end_time:
                hi += 1
            window = idx[lo:hi]
            kept_values = values[window]
            if mode == "linear":
                row[start:stop] = np.interp(x, times[window].astype(np.float64), kept_values)
            else:  # value of the nearest kept sample at or before
                positions = idx[first:last].searchsorted(x, side="right")
                positions += first - 1 - lo
                np.maximum(positions, 0, out=positions)
                np.take(kept_values, positions, out=row[start:stop])
            row[idx[first:last]] = kept_values[first - lo:last - lo]
    return recon


def gap_areas(trace: Trace, recon: np.ndarray) -> tuple[float, float]:
    """Exact areas where the reconstruction under- and over-shoots.

    The difference d(t) = original - reconstructed is treated as piecewise
    linear between sample times; each segment is integrated exactly,
    splitting at the zero crossing when d changes sign; the crossing is
    worked out for those segments only. Returns (s_upper, s_lower) in
    value-units * seconds.
    """
    if len(recon) != len(trace):
        raise ValueError("length mismatch between trace and reconstruction")
    if len(trace) < 2:
        raise ValueError("need at least 2 samples to integrate")
    total = _gap_totals(trace.times, trace.values, recon[None])[0]
    return float(total.real), float(total.imag)


def _gap_totals(times: np.ndarray, values: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """`gap_areas` of each row of the (k, n) `recon`, n >= 2, as k complex
    numbers s_upper + 1j * s_lower.

    Segments are integrated a block of `BLOCK_SAMPLES` at a time, the k rows
    of a block laid end to end as one flat run. The segment from one row's
    last point to the next row's first (a seam) is left out of the sums; it
    never changes sign, as every row of the VR sweep equals the values at its
    first and last points (the anchors), so d is 0 there. A segment of
    one sign gives its whole area to the upper sum (`upper = whole * above`)
    or to the lower one (`lower = whole - upper`), both exact: a multiply,
    not a masked select, which numpy runs as a branchy loop on an irregular
    mask. As inf * 0 is NaN, a block whose whole areas are not all finite
    takes them by `np.where` instead, which gives the same bits where they
    are finite. The two sums are the real and imaginary lanes of one complex
    `cumsum` along each row: complex addition is componentwise, so each lane
    adds in index order like a running total (np.sum's pairwise order would
    change the last bits). The totals so far are folded into the block's
    first area: that one addition is the one the whole-run `cumsum` makes
    there. Each temporary is freed once spent, as a pass of the VR sweep is
    k rows long.
    """
    rows, n = recon.shape
    totals = np.zeros(rows, np.complex128)
    for start in range(0, n - 1, BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, n - 1) + 1  # the block's last point
        width = stop - start
        # the float cast comes before the differences: np.diff of int64 times
        # would round differently above 2^53
        t = times[start:stop].astype(np.float64)
        d = (values[start:stop] - recon[:, start:stop]).reshape(-1)
        d0, d1 = d[:-1], d[1:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # segments not of one sign; a NaN product (from an inf d) counts too
            cross = np.flatnonzero(~(d0 * d1 >= 0))
            col = cross % width
            cross_upper, cross_lower = _split_areas(d0[cross], d1[cross], t[col], t[col + 1])
            positive = d > 0
            above = positive[:-1] | positive[1:]
            magnitude = np.abs(d)  # per point, shared by the segments either side
            del d, d0, d1, positive
            whole = magnitude[:-1] + magnitude[1:]
            del magnitude
            whole *= 0.5
            step = t[1:] - t[:-1]
            for at in range(0, len(whole), width):  # each row's segments
                whole[at:at + width - 1] *= step
            # (upper, lower) as its two lanes, one slot a row past its last
            # segment: the seam, or nothing after the last row
            both = np.empty(len(whole) + 1, np.complex128)
            upper, lower = both.real[:-1], both.imag[:-1]
            if np.isfinite(whole).all():
                np.multiply(whole, above, out=upper)
                np.subtract(whole, upper, out=lower)
            else:  # inf * 0 would be NaN
                upper[:] = np.where(above, whole, 0.0)
                lower[:] = np.where(above, 0.0, whole)
        upper[cross] = cross_upper
        lower[cross] = cross_lower
        segments = both.reshape(rows, -1)[:, :-1]
        if start:  # the first block has no totals to carry
            segments[:, 0] += totals
        totals = np.cumsum(segments, axis=1, out=segments)[:, -1]
    return totals


def _split_areas(c0: np.ndarray, c1: np.ndarray, s0: np.ndarray,
                 s1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (upper, lower) areas of segments from (s0, c0) to (s1, c1) whose
    d changes sign, split exactly at the zero crossing."""
    span, gap = (s1 - s0) * c0, c0 - c1
    tz = s0 + span / gap
    # Where span or gap overflows, take the crossing from the halves of c0
    # and c1, exact above the subnormals. One test a block: a difference is
    # finite only when both its terms are.
    if not np.isfinite(span - gap).all():
        redo = ~(np.isfinite(span) & np.isfinite(gap))
        h0, h1 = 0.5 * c0[redo], 0.5 * c1[redo]
        tz[redo] = s0[redo] + (s1[redo] - s0[redo]) * (h0 / (h0 - h1))
    first = 0.5 * np.abs(c0) * (tz - s0)
    second = 0.5 * np.abs(c1) * (s1 - tz)
    starts_above = c0 > 0
    return np.where(starts_above, first, second), np.where(starts_above, second, first)


def compute_metrics(trace: Trace, tx: TransmissionSet, recon: np.ndarray) -> InferenceMetrics:
    """Savings ratio, efficiency ratio, accuracy ratio and gap areas. Raises a
    ValueError, before any sum, if the trace is empty or `tx` or `recon` is
    not of its length, and one naming the first of AR's two sums, the gap
    areas and AR that overflows float64 (an infinite sum gives AR NaN, or a
    wrong 0.0)."""
    n = len(trace)
    if n == 0:
        raise ValueError("metrics require a non-empty trace")
    if tx.source_len != n:
        raise ValueError("transmission set length does not match trace")
    if len(recon) != n:
        raise ValueError("length mismatch between trace and reconstruction")
    t = len(tx)
    if t == 0:
        raise ValueError("efficiency ratio undefined for zero transmitted samples")
    # np.add.reduce is np.sum's own pairwise reduction, without its wrapper's cost
    orig_sum, recon_sum = float(np.add.reduce(trace.values)), float(np.add.reduce(recon))
    s_upper, s_lower = gap_areas(trace, recon) if n >= 2 else (0.0, 0.0)
    return _metrics(n, t, orig_sum, recon_sum, s_upper, s_lower)


def _metrics(n: int, t: int, orig_sum: float, recon_sum: float,
             s_upper: float, s_lower: float) -> InferenceMetrics:
    """`compute_metrics` from t kept of n samples, AR's two sums and the gap
    areas, with its overflow checks."""
    sr = savings_ratio(n, t)
    er = (n - t) / t
    ar = 100.0 * recon_sum / orig_sum if orig_sum != 0 else None
    if ar is not None and not math.isfinite(ar):  # 100 * recon_sum alone may overflow
        ar = 100.0 * (recon_sum / orig_sum)
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
    n, t = _integer("n", n, 1), _integer("t", t, 0)
    return 100.0 * (n - t) / n


def metrics_report(metrics: InferenceMetrics, config: InferenceConfig) -> dict:
    """Machine-readable report object (full precision)."""
    return {**asdict(metrics), **asdict(config)}
