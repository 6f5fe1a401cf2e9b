"""Time-series traces, CSV ingestion and seeded synthetic data generators."""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

KINDS = ("heart-rate", "body-temperature", "other")
UNITS = ("bpm", "celsius", "dimensionless")

# Numeric codes used by the wire format.
KIND_CODES = {k: i for i, k in enumerate(KINDS)}
UNIT_CODES = {u: i for i, u in enumerate(UNITS)}


class TraceError(ValueError):
    """Raised for malformed trace data (bad CSV rows, broken invariants)."""


@dataclass(frozen=True, eq=False)
class Trace:
    """An immutable physiological time series stored as two read-only columns.

    `times` are int64 offsets in whole seconds, non-negative and strictly
    increasing; `values` are finite float64 measurements of the same length.
    """

    kind: str
    unit: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise TraceError(f"unknown sensor kind {self.kind!r}")
        if self.unit not in UNITS:
            raise TraceError(f"unknown unit {self.unit!r}")
        try:
            times = np.array(self.times, dtype=np.int64)
            values = np.array(self.values, dtype=np.float64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise TraceError(f"times and values must be numeric columns: {exc}") from exc
        if times.ndim != 1 or values.ndim != 1:
            raise TraceError("times and values must be 1-D")
        if len(times) != len(values):
            raise TraceError(f"length mismatch: {len(times)} times, {len(values)} values")
        negative = np.flatnonzero(times < 0)
        if negative.size:
            raise TraceError(f"negative time offset {times[negative[0]]}")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise TraceError(f"non-finite value at t={times[bad[0]]}")
        back = np.flatnonzero(times[1:] <= times[:-1])
        if back.size:
            i = back[0]
            raise TraceError(
                f"non-increasing timestamps: t={times[i + 1]} after t={times[i]}"
            )
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class PersonRecord:
    """One row of the population dataset used by the statistical queries."""

    id: str
    gender: str
    body_temperature: float
    heart_rate: float
    temperature_unit: str = "celsius"

    def __post_init__(self) -> None:
        if self.heart_rate <= 0:
            raise TraceError(f"heart_rate must be positive, got {self.heart_rate}")
        lo, hi = (30.0, 45.0) if self.temperature_unit == "celsius" else (90.0, 110.0)
        if not lo <= self.body_temperature <= hi:
            raise TraceError(
                f"body_temperature {self.body_temperature} outside [{lo}, {hi}] "
                f"{self.temperature_unit}"
            )


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the deterministic synthetic trace generator."""

    kind: str = "heart-rate"
    n: int = 1420
    period: int = 60
    seed: int = 0
    baseline: float = 70.0
    drift_amplitude: float = 0.0
    noise_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise TraceError("n must be >= 0")
        if self.period < 1:
            raise TraceError("period must be >= 1")
        if (self.n - 1) * self.period > np.iinfo(np.int64).max:
            raise TraceError("time offsets would exceed the int64 range")
        if self.noise_scale < 0:
            raise TraceError("noise_scale must be >= 0")


def _unit_for_kind(kind: str) -> str:
    if kind == "heart-rate":
        return "bpm"
    if kind == "body-temperature":
        return "celsius"
    return "dimensionless"


def load_csv(path: str | Path, kind: str, unit: str) -> Trace:
    """Load a `t,value` CSV (single header line) into a validated Trace."""
    times: list[int] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceError(f"{path}: empty file, expected a header line")
        last_t: int | None = None
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = int(row[0])
                value = float(row[1])
            except (ValueError, IndexError) as exc:
                raise TraceError(f"{path}: parse failure at row {rownum}: {exc}") from exc
            if not math.isfinite(value):
                raise TraceError(f"{path}: non-finite value at row {rownum}")
            if last_t is not None and t <= last_t:
                raise TraceError(f"{path}: non-increasing timestamps at row {rownum}")
            last_t = t
            times.append(t)
            values.append(value)
    return Trace(kind=kind, unit=unit, times=times, values=values)


def save_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace as `t,value` rows; values keep 6 fractional digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, value in zip(trace.times.tolist(), trace.values.tolist()):
            writer.writerow([t, f"{value:.6f}"])


def generate_trace(spec: SyntheticSpec) -> Trace:
    """Deterministic synthetic trace: baseline + diurnal sine + AR(1) noise.

    The AR(1) coefficient is fixed at 0.9 so consecutive samples are
    correlated, which keeps the variance-rate filter's savings realistic.
    """
    rng = np.random.default_rng(spec.seed)
    times = np.arange(spec.n, dtype=np.int64) * spec.period
    drift = spec.drift_amplitude * np.sin(2.0 * np.pi * times / 86400.0)
    if spec.noise_scale > 0:
        # one batched draw gives the same stream as n scalar draws
        shocks = rng.normal(0.0, spec.noise_scale, spec.n).tolist()
        ar = list(itertools.accumulate(shocks, lambda prev, e: 0.9 * prev + e))
    else:
        ar = 0.0
    values = spec.baseline + drift + ar
    return Trace(kind=spec.kind, unit=_unit_for_kind(spec.kind), times=times, values=values)


HR_MEAN = 73.76  # population heart-rate model, bpm
HR_STD = 7.0
BT_MEAN = 36.8  # celsius
BT_STD = 0.4


def generate_population(n: int, seed: int) -> tuple[PersonRecord, ...]:
    """Deterministic population of n people with plausible HR and BT values."""
    if n < 0:
        raise TraceError("n must be >= 0")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        hr = float(np.clip(rng.normal(HR_MEAN, HR_STD), 40.0, 140.0))
        bt = float(np.clip(rng.normal(BT_MEAN, BT_STD), 30.0, 45.0))
        gender = "female" if rng.random() < 0.5 else "male"
        records.append(
            PersonRecord(id=f"p{i:04d}", gender=gender, body_temperature=bt, heart_rate=hr)
        )
    return tuple(records)


def load_population_csv(path: str | Path) -> tuple[PersonRecord, ...]:
    """Load `id,gender,body_temperature,heart_rate` rows."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rownum, row in enumerate(reader, start=2):
            try:
                records.append(
                    PersonRecord(
                        id=row["id"],
                        gender=row["gender"],
                        body_temperature=float(row["body_temperature"]),
                        heart_rate=float(row["heart_rate"]),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise TraceError(f"{path}: parse failure at row {rownum}: {exc}") from exc
    return tuple(records)


def save_population_csv(records: Iterable[PersonRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "gender", "body_temperature", "heart_rate"])
        for r in records:
            writer.writerow([r.id, r.gender, f"{r.body_temperature:.6f}", f"{r.heart_rate:.6f}"])
