"""Time-series traces, CSV ingestion and seeded synthetic data generators."""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import re
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


def _check_labels(kind: str, unit: str) -> None:
    if kind not in KINDS:
        raise TraceError(f"unknown sensor kind {kind!r}")
    if unit not in UNITS:
        raise TraceError(f"unknown unit {unit!r}")


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
        _check_labels(self.kind, self.unit)
        try:
            times = np.array(self.times, dtype=np.int64)
            values = np.array(self.values, dtype=np.float64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise TraceError(f"times and values must be numeric columns: {exc}") from exc
        self._adopt(times, values)

    @classmethod
    def _owned(cls, kind: str, unit: str, times: np.ndarray, values: np.ndarray) -> Trace:
        """A Trace that takes `times` and `values`, arrays that nothing else
        holds, as its columns: without a copy when they are already
        contiguous int64 and float64. They are checked as the constructor
        checks them."""
        _check_labels(kind, unit)
        trace = object.__new__(cls)
        object.__setattr__(trace, "kind", kind)
        object.__setattr__(trace, "unit", unit)
        trace._adopt(np.ascontiguousarray(times, np.int64),
                     np.ascontiguousarray(values, np.float64))
        return trace

    def _adopt(self, times: np.ndarray, values: np.ndarray) -> None:
        """Check the columns, make them read-only and take them as they are."""
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

    def __post_init__(self) -> None:
        for name in ("heart_rate", "body_temperature"):
            if not math.isfinite(getattr(self, name)):
                raise TraceError(f"{name} must be finite, got {getattr(self, name)}")
        if self.heart_rate <= 0:
            raise TraceError(f"heart_rate must be positive, got {self.heart_rate}")
        if not 30.0 <= self.body_temperature <= 45.0:
            raise TraceError(
                f"body_temperature {self.body_temperature} outside [30.0, 45.0] celsius"
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


def _parse_rows(lines: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """The t and value columns of `t,value` lines; blank lines are skipped."""
    with warnings.catch_warnings():
        # a header-only file is an empty trace, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(lines, dtype=_CSV_ROW, delimiter=",", usecols=(0, 1), ndmin=1,
                          comments=None, quotechar='"')
    return rows["t"], rows["value"]


def parse_float(text: str) -> float:
    """A CSV field as a float by `load_csv`'s number grammar (numpy's), which
    refuses the underscores and non-ASCII digits that float() takes."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            (value,) = np.loadtxt([text], np.float64, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        raise ValueError(f"could not convert string to float: {text!r}") from None
    return float(value)


# Bytes per read of `_read_rows`; the partial last line carries over.
_READ_BLOCK_BYTES = 1 << 20
# At most this many digits in t and in a value, so each fits int64.
_MAX_DIGITS = 18
# The longest row `_read_rows` reads: t, comma, minus, digits, point, CR LF.
_MAX_ROW_BYTES = 2 * _MAX_DIGITS + 5


def _read_rows(fh, skiprows: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns of the seekable binary handle's file after `skiprows`
    lines, if its data rows are all `digits,[-]digits.digits` (either side of
    the point may be empty) ending in LF or CR LF, as `save_csv` writes them,
    read a block of whole lines at a time; None for any other file, which
    numpy then parses.

    Each value is +-N / 10**f, N its digits and f the digits after the
    point. As N < 2**53 and f <= 22 are exact doubles, the quotient is the
    decimal correctly rounded (Clinger's fast path), the double numpy's
    parser gives; a larger N sends the file to numpy.
    """
    capacity = fh.seek(0, io.SEEK_END) // 4 + 1  # the shortest row is `0,0\n`
    fh.seek(0)
    header = b"".join(fh.readline() for _ in range(skiprows))
    # a lone CR ends a line for csv.reader and numpy, but not here
    if header.count(b"\n") != skiprows or b"\r" in header.replace(b"\r\n", b""):
        return None
    times = np.empty(capacity, np.int64)
    values = np.empty(capacity, np.float64)
    block = bytearray(_READ_BLOCK_BYTES)
    rows = held = 0
    while True:
        got = fh.readinto(memoryview(block)[held:])
        if got:
            held += got
            end = block.rfind(b"\n", 0, held) + 1
        elif held:  # a last line with no line end
            block[held] = ord("\n")
            held = end = held + 1
        else:
            # shrunk in place, so the trace that takes them holds no spare
            # capacity; the views handed to `_read_lines` are gone by now
            times.resize(rows, refcheck=False)
            values.resize(rows, refcheck=False)
            return times, values
        if held - end > _MAX_ROW_BYTES:  # a line longer than any row
            return None
        count = _read_lines(np.frombuffer(block, np.uint8, end), times[rows:], values[rows:])
        if count is None:
            return None
        rows += count
        block[:held - end] = block[end:held]
        held -= end


def _read_lines(lines: np.ndarray, times: np.ndarray, values: np.ndarray) -> int | None:
    """Parse whole lines of bytes into the heads of `times` and `values`, one
    run of lines of equal length at a time; the row count, or None."""
    ends = np.flatnonzero(lines == ord("\n"))
    if len(ends) > len(times):  # lines shorter than any row, or a file that grew
        return None
    lengths = np.diff(ends, prepend=-1)
    runs = np.flatnonzero(np.diff(lengths, prepend=0, append=0)).tolist()
    pieces = len(ends) // 64 + 16
    rows = 0
    for first, stop in zip(runs, runs[1:]):
        width = int(lengths[first])
        run = lines[ends[first] + 1 - width:ends[stop - 1] + 1].reshape(-1, width)
        while len(run):
            pieces -= 1
            count = _read_run(run, times[rows:], values[rows:]) if pieces >= 0 else 0
            if not count:
                return None
            rows += count
            run = run[count:]
    return rows


def _read_run(run: np.ndarray, times: np.ndarray, values: np.ndarray) -> int:
    """Parse the leading rows of `run`, a (rows, width) view of lines of one
    width, that have the layout of its first row: each row's delimiters where
    the first row has them, and digits 0-9 in every other column of t and of
    the value. Return how many, or 0 if the first row, or any N, is outside
    the grammar."""
    first = run[0].tobytes()
    stop = len(first) - 1 - first.endswith(b"\r\n")  # the end of the value
    comma = first.find(b",", 0, stop)
    start = comma + 1 + first.startswith(b"-", comma + 1)
    point = first.find(b".", start, stop)
    if not (0 < comma <= _MAX_DIGITS and point >= 0 and 0 < stop - start - 1 <= _MAX_DIGITS):
        return 0
    digit = np.zeros(len(first), bool)
    digit[:comma] = digit[start:stop] = True
    digit[point] = False
    cols = np.ascontiguousarray(run.T)  # one row of bytes per column
    cols -= ord("0")
    high = cols.max(axis=1)
    if np.any(high[digit] > 9) or np.any(high[~digit] != cols[~digit].min(axis=1)):
        bad = (cols[digit] > 9).any(axis=0) | (cols[~digit] != cols[~digit, :1]).any(axis=0)
        cols = cols[:, :np.argmax(bad)]
    count = cols.shape[1]
    mantissa = _horner(cols[np.r_[start:point, point + 1:stop]])
    if not count or mantissa.max() >= 2**53:
        return 0
    times[:count] = _horner(cols[:comma])
    np.divide(mantissa, 10.0 ** (stop - point - 1), out=values[:count])
    if start > comma + 1:
        np.negative(values[:count], out=values[:count])
    return count


def _horner(digits: np.ndarray) -> np.ndarray:
    """The int64 numbers whose decimal digits, most significant first, are the
    rows of `digits`: digit pairs are summed in uint8, and each int64 Horner
    step takes a pair."""
    odd = len(digits) % 2
    out = digits[0].astype(np.int64) if odd else np.zeros(digits.shape[1], np.int64)
    for pair in digits[odd::2] * np.uint8(10) + digits[odd + 1::2]:
        out *= 100
        out += pair
    return out


def load_csv(path: str | Path, kind: str, unit: str) -> Trace:
    """Load a `t,value` CSV (single header line) into a validated Trace.

    The path is opened once, in binary; a source that cannot seek, such as a
    pipe, is read into memory first. The rows after the header are read from
    bytes by `_read_rows` if they are those `save_csv` writes, and parsed
    from the decoded text by numpy if not.
    """
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        # decoded as open(path) decodes, with universal newlines
        with io.TextIOWrapper(fh) as text:
            reader = csv.reader(text)
            if next(reader, None) is None:
                raise TraceError(f"{path}: empty file, expected a header line")
            try:
                columns = _read_rows(fh, reader.line_num)
                if columns is None:
                    columns = _parse_rows(_lines_after(text, reader.line_num))
                return Trace._owned(kind, unit, *columns)
            except ValueError as exc:
                # csv.reader refuses a field over its size limit, which numpy reads
                with contextlib.suppress(csv.Error):
                    _raise_at_bad_row(path, _lines_after(text, reader.line_num))
                if isinstance(exc, TraceError):
                    raise
                raise TraceError(f"{path}: parse failure: {exc}") from exc


def _lines_after(text, skiprows: int) -> Iterable[str]:
    """The text handle, rewound and read past its first `skiprows` lines."""
    text.seek(0)
    for _ in range(skiprows):
        text.readline()
    return text


def _raise_at_bad_row(path: str | Path, lines: Iterable[str]) -> None:
    """The error path of `load_csv`: raise a TraceError for the first data row
    of `lines`, the text after the header, that fails to parse, holds a
    non-finite value or does not increase t.

    Rows are numbered as csv.reader numbers them: the header is row 1 and
    blank rows count, which numpy's own row index does not do. Blocks of rows
    go through the same parser as `load_csv`, and only the rows of a block
    that fails are parsed one at a time. Returns if no row is bad.
    """
    kept: list[str] = []
    reader = csv.reader(_kept_lines(lines, kept))
    block: list[tuple[int, str]] = []
    last_t = None
    for rownum, row in enumerate(reader, start=2):
        if row:
            block.append((rownum, "".join(kept)))
        kept.clear()
        if len(block) == _LOCATOR_BLOCK_ROWS:
            last_t = _check_rows(path, block, last_t)
            block.clear()
    _check_rows(path, block, last_t)


def _kept_lines(lines: Iterable[str], kept: list[str]):
    for line in lines:
        kept.append(line)
        yield line


def _check_rows(path, block: list[tuple[int, str]], last_t: int | None) -> int | None:
    """Check (row number, text) rows in order after a row at `last_t`; return
    the last t."""
    try:
        times, values = _parse_rows(io.StringIO("".join(text for _, text in block)))
        parsed = list(zip(times.tolist(), values.tolist()))
    except ValueError:
        parsed = []
    for i, (rownum, text) in enumerate(block):
        if len(parsed) == len(block):
            t, value = parsed[i]
        else:
            try:
                (t,), (value,) = (column.tolist() for column in _parse_rows(io.StringIO(text)))
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


# Rows per chunk of `save_csv`: the chunk's byte matrix stays a few MB.
_WRITE_CHUNK_ROWS = 65536
# Below this magnitude |v| * 10**6 < 2**52, where `_micro_units` is exact.
_EXACT_LIMIT = 2.0**32
_VELTKAMP = 2.0**27 + 1


def save_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace as `t,value` rows; values keep 6 fractional digits.

    The bytes are those of csv.writer writing `[t, f"{value:.6f}"]` rows, a
    chunk of rows at a time. A chunk holding any |value| >= 2**32 goes
    through that f-string instead, because there the exact rounding of
    `_micro_units` no longer holds.
    """
    with open(path, "wb") as fh:
        fh.write(b"t,value\r\n")
        for start in range(0, len(trace), _WRITE_CHUNK_ROWS):
            times = trace.times[start:start + _WRITE_CHUNK_ROWS]
            values = trace.values[start:start + _WRITE_CHUNK_ROWS]
            if np.any(np.abs(values) >= _EXACT_LIMIT):
                fh.write("".join(f"{t},{v:.6f}\r\n"
                                 for t, v in zip(times.tolist(), values.tolist())).encode())
            else:
                fh.write(_csv_rows(times, values))


def _micro_units(magnitude: np.ndarray) -> np.ndarray:
    """round-half-even(m * 10**6) for every 0 <= m < 2**32, exactly, as the
    `%.6f` format rounds. A Veltkamp split gives m = high + low, halves of at
    most 27 bits, and 10**6 = 15625 * 2**6 has 14, so each half times 10**6 is
    exact; a TwoSum makes that sum s + err with no error. As s < 2**52, every
    half-integer near it is a float, so np.rint(s) rounds s + err right
    unless s is exactly halfway, where the sign of err decides. (Underflow
    can make the split inexact only for m far below 10**-6, which rounds to
    0 all the same.)"""
    c = magnitude * _VELTKAMP
    high = c - (c - magnitude)
    low = (magnitude - high) * 1e6
    high *= 1e6
    s = high + low
    b = s - high
    err = (high - (s - b)) + (low - b)
    r = np.rint(s)
    r += (s - r == 0.5) & (err > 0)
    r -= (s - r == -0.5) & (err < 0)
    return r.astype(np.uint64)


def _csv_rows(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The `t,value` rows of a chunk whose |values| are below 2**32, as bytes.

    Each row is laid out at full width, one byte column per character: t, a
    comma, a minus sign, the whole part, a point, six fraction digits and
    CR LF. One boolean compress then drops the leading zeros, and the minus
    sign where the sign bit is clear (so -0.0 prints `-0.000000`, as `%.6f`
    does). The columns are rows of a (width, rows) array, so each is written
    in one contiguous pass.
    """
    whole, frac = np.divmod(_micro_units(np.abs(values)), 10**6)
    t_width = len(str(times[-1]))  # times increase, so the last is the widest
    sign = t_width + 1
    point = sign + 1 + len(str(whole.max()))
    cols = np.empty((point + 9, len(times)), np.uint8)
    keep = np.ones(cols.shape, bool)
    keep[:t_width] = _digits(times, cols[:t_width])
    cols[sign - 1] = ord(",")
    cols[sign] = ord("-")
    keep[sign] = np.signbit(values)
    keep[sign + 1:point] = _digits(whole, cols[sign + 1:point])
    cols[point] = ord(".")
    _digits(frac, cols[point + 1:point + 7])
    cols[-2] = ord("\r")
    cols[-1] = ord("\n")
    return cols.T[keep.T]


def _digits(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the digits of the non-negative integers x as ASCII into the rows
    of `out`, one row per digit place, zero-padded; divide in uint32 where
    the width allows it. Return the mask of the digits to print: all but the
    leading zeros, and always the last."""
    width = len(out)
    x = x.astype(np.uint32 if width < 10 else np.uint64)
    lowest = 10 ** np.arange(width - 1, -1, -1, dtype=x.dtype)  # least x to print each place
    lowest[-1] = 0
    mask = x >= lowest[:, None]
    for j in range(width - 1, -1, -1):
        q = x // 10
        out[j] = x - q * 10
        x = q
    out += ord("0")
    return mask


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
        ar = np.fromiter(itertools.accumulate(shocks, lambda prev, e: 0.9 * prev + e),
                         np.float64, spec.n)
    else:
        ar = 0.0
    values = spec.baseline + drift + ar
    return Trace._owned(spec.kind, _unit_for_kind(spec.kind), times, values)


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
    """Load `id,gender,body_temperature,heart_rate` rows; numbers are read by
    `parse_float`, and rows are numbered as `load_csv` numbers them (the
    header is row 1 and blank rows count)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            fields = dict(zip(header, row))  # a short row lacks its last fields
            try:
                records.append(
                    PersonRecord(
                        id=fields["id"],
                        gender=fields["gender"],
                        body_temperature=parse_float(fields["body_temperature"]),
                        heart_rate=parse_float(fields["heart_rate"]),
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
