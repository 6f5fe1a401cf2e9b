"""Time-series traces, CSV ingestion and seeded synthetic data generators."""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import re
import stat
import warnings
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
        for name in ("heart_rate", "body_temperature"):
            if not math.isfinite(getattr(self, name)):
                raise TraceError(f"{name} must be finite, got {getattr(self, name)}")
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


# One data row of a trace CSV; columns past the second are ignored.
_CSV_ROW = np.dtype([("t", np.int64), ("value", np.float64)])
_LOCATOR_BLOCK_ROWS = 4096


# The suffixes numpy's loadtxt decompresses when it is given a path.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _parse_rows(source, skiprows: int = 0) -> np.ndarray:
    """Parse `t,value` rows in one C pass; blank lines are skipped. `source`
    is an open text handle, read a line at a time, or a path, which numpy
    opens itself and reads in chunks after `skiprows` physical lines."""
    with warnings.catch_warnings():
        # a header-only file is an empty trace, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=_CSV_ROW, delimiter=",", usecols=(0, 1), ndmin=1,
                          comments=None, quotechar='"', skiprows=skiprows)


def _plain_file(fh, path: str | Path) -> str | None:
    """The real path of the open handle's file, if numpy can reopen it by
    that path and read the same text: a regular file (not a pipe such as
    /dev/stdin, whose first read has already taken rows) under a name numpy
    does not decompress. The path is absolute, so numpy never takes it for
    a URL. None otherwise."""
    real = os.path.realpath(path)
    try:
        opened, named = os.fstat(fh.fileno()), os.stat(real)
    except OSError:
        return None
    if (os.path.samestat(opened, named) and stat.S_ISREG(opened.st_mode)
            and os.path.splitext(real)[1] not in _COMPRESSED_SUFFIXES):
        return real
    return None


def load_csv(path: str | Path, kind: str, unit: str) -> Trace:
    """Load a `t,value` CSV (single header line) into a validated Trace.

    A regular file is parsed by numpy from its path, in C chunks, after the
    lines the header took; anything else (a pipe, a name numpy would
    decompress) is parsed from the open handle.
    """
    with open(path) as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise TraceError(f"{path}: empty file, expected a header line")
        try:
            real = _plain_file(fh, path)
            rows = _parse_rows(fh) if real is None else _parse_rows(real, reader.line_num)
            return Trace(kind=kind, unit=unit, times=rows["t"], values=rows["value"])
        except ValueError as exc:
            # csv.reader refuses a field over its size limit, which numpy reads
            with contextlib.suppress(csv.Error):
                _raise_at_bad_row(path)
            if isinstance(exc, TraceError):
                raise
            raise TraceError(f"{path}: parse failure: {exc}") from exc


def _raise_at_bad_row(path: str | Path) -> None:
    """The error path of `load_csv`: raise a TraceError for the first data row
    that fails to parse, holds a non-finite value or does not increase t.

    Rows are numbered as csv.reader numbers them: the header is row 1 and
    blank rows count, which numpy's own row index does not do. Blocks of rows
    go through the same parser as `load_csv`, and only the rows of a block
    that fails are parsed one at a time. Returns if no row is bad.
    """
    with open(path) as fh:
        lines: list[str] = []
        reader = csv.reader(_kept_lines(fh, lines))
        next(reader)  # the header
        lines.clear()
        block: list[tuple[int, str]] = []
        last_t = None
        for rownum, row in enumerate(reader, start=2):
            if row:
                block.append((rownum, "".join(lines)))
            lines.clear()
            if len(block) == _LOCATOR_BLOCK_ROWS:
                last_t = _check_rows(path, block, last_t)
                block.clear()
        _check_rows(path, block, last_t)


def _kept_lines(fh, kept: list[str]):
    for line in fh:
        kept.append(line)
        yield line


def _check_rows(path, block: list[tuple[int, str]], last_t: int | None) -> int | None:
    """Check (row number, text) rows in order after a row at `last_t`; return
    the last t."""
    try:
        parsed = _parse_rows(io.StringIO("".join(text for _, text in block))).tolist()
    except ValueError:
        parsed = []
    for i, (rownum, text) in enumerate(block):
        if len(parsed) == len(block):
            t, value = parsed[i]
        else:
            try:
                (t, value), = _parse_rows(io.StringIO(text)).tolist()
            except ValueError as exc:
                # numpy's own row index (0 here) would only confuse the message
                reason = re.sub(r" at row \d+", "", str(exc))
                raise TraceError(f"{path}: parse failure at row {rownum}: {reason}") from exc
        if not math.isfinite(value):
            raise TraceError(f"{path}: non-finite value at row {rownum}")
        if last_t is not None and t <= last_t:
            raise TraceError(f"{path}: non-increasing timestamps at row {rownum}")
        last_t = t
    return last_t


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
