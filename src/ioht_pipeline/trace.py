"""Time-series traces, CSV ingestion and seeded synthetic data generators."""
from __future__ import annotations

import codecs
import contextlib
import csv
import io
import math
import operator
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

# The unit each kind of trace is measured in; its order numbers the wire codes.
KIND_UNITS = {"heart-rate": "bpm", "body-temperature": "celsius", "other": "dimensionless"}
KINDS = tuple(KIND_UNITS)
UNITS = tuple(KIND_UNITS.values())

# Numeric codes used by the wire format.
KIND_CODES = {k: i for i, k in enumerate(KINDS)}
UNIT_CODES = {u: i for i, u in enumerate(UNITS)}

# Samples per block of the full-length passes: the AR(1) recursion of
# `generate_trace`, the rows `save_csv` formats, and Tier 1's selection,
# reconstruction and gap areas (`inference`), for one row or the k rows of a
# VR sweep pass alike. A block's temporaries, its Python floats and its CSV
# bytes stay a few MB at most, so they are reused from the heap and the
# caches rather than faulted in afresh at full length.
BLOCK_SAMPLES = 65536


class TraceError(ValueError):
    """Raised for malformed trace data (bad CSV rows, broken invariants)."""


def _check_labels(kind: str, unit: str) -> None:
    if kind not in KINDS:
        raise TraceError(f"unknown sensor kind {kind!r}")
    if unit not in UNITS:
        raise TraceError(f"unknown unit {unit!r}")


def _integer(name: str, value, least: int, error: type[Exception] = ValueError,
             most: int | None = None) -> int:
    """`value`, an integer of any integer type (a float, even 2.0, is not
    one), as an int of at least `least` and, if given, at most `most`;
    raises `error` naming `name` if not."""
    try:
        n = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if n < least or most is not None and n > most:
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise error(f"{name} must be {bound}, got {n}")
    return n


def _real(name: str, value, positive: bool = False, error: type[Exception] = ValueError) -> float:
    """`value`, a finite number >= 0, or > 0 if `positive`, as it was given;
    raises `error` naming `name` for any other number, NaN and +-inf included."""
    if not ((0 < value if positive else 0 <= value) and value < math.inf):
        raise error(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
    return value


def _int64_column(column, copy: bool = True) -> np.ndarray:
    """`column`, integers or floats that are all whole and inside int64, as a
    contiguous int64 array, copied if `copy`. Raises ValueError for any other
    column, rather than truncating or wrapping its numbers."""
    array = np.asarray(column)
    if array.dtype.kind == "f":  # nan fails every comparison
        whole = (-2.0**63 <= array) & (array < 2.0**63) & (np.trunc(array) == array)
    elif array.dtype.kind in "iu":  # only a uint64 can exceed int64
        whole = array.dtype.kind == "i" or array <= np.uint64(np.iinfo(np.int64).max)
    else:
        raise ValueError(f"a column of {array.dtype} is not of numbers")
    if not np.all(whole):
        raise ValueError(f"{array[~whole][0]} is not a whole number inside int64")
    return np.array(array, np.int64) if copy else np.ascontiguousarray(array, np.int64)


def _float64_column(column, copy: bool = True) -> np.ndarray:
    """`column`, integers or floats, as a contiguous float64 array, copied if
    `copy`. Raises ValueError for any other column (strings, bools, complex
    numbers), rather than parsing or truncating it."""
    array = np.asarray(column)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"a column of {array.dtype} is not of numbers")
    return np.array(array, np.float64) if copy else np.ascontiguousarray(array, np.float64)


@dataclass(frozen=True, eq=False)
class Trace:
    """An immutable physiological time series stored as two read-only columns.

    `times` are int64 offsets in whole seconds, non-negative and strictly
    increasing; `values` are finite float64 measurements of the same length.
    Times given as floats must be whole numbers inside int64; values must be
    integers or floats (not strings, bools or complex numbers).
    """

    kind: str
    unit: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_labels(self.kind, self.unit)
        self._adopt(self.times, self.values, copy=True)

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
        trace._adopt(times, values, copy=False)
        return trace

    def _adopt(self, times, values, copy: bool) -> None:
        """Check the columns, make them read-only and take them: as they are,
        unless `copy` or they are not contiguous int64 and float64."""
        try:
            times = _int64_column(times, copy)
            values = _float64_column(values, copy)
        except (OverflowError, TypeError, ValueError) as exc:
            raise TraceError(f"times and values must be numeric columns: {exc}") from exc
        if times.ndim != 1 or values.ndim != 1:
            raise TraceError("times and values must be 1-D")
        if len(times) != len(values):
            raise TraceError(f"length mismatch: {len(times)} times, {len(values)} values")
        if (fault := _trace_fault(times, values)) is not None:
            i, reason = fault
            detail = (f" {times[i]}" if reason == "negative time offset" else
                      f" at t={times[i]}" if reason == "non-finite value" else
                      f": t={times[i]} after t={times[i - 1]}")
            raise TraceError(reason + detail)
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.times)


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
        if self.kind not in KINDS:
            raise TraceError(f"unknown sensor kind {self.kind!r}")
        n = _integer("n", self.n, 0, TraceError)
        if (n - 1) * _integer("period", self.period, 1, TraceError) > np.iinfo(np.int64).max:
            raise TraceError("time offsets would exceed the int64 range")
        _integer("seed", self.seed, 0, TraceError)
        _real("noise_scale", self.noise_scale, error=TraceError)


# One data row of a trace CSV; columns past the second are ignored.
_CSV_ROW = np.dtype([("t", np.int64), ("value", np.float64)])
# One person of a population, and one data row of a population CSV. A
# population is a read-only np.recarray of these rows, so a row also reads by
# attribute; `as_population` makes one.
POPULATION_DTYPE = np.dtype([("id", object), ("gender", object),
                             ("body_temperature", np.float64), ("heart_rate", np.float64)])
# Rows per block of `_parse_csv`'s search for a bad row.
_LOCATOR_BLOCK_ROWS = 4096


def _parse_csv(path: str | Path, text: str, first_row: int, dtype: np.dtype,
               usecols: tuple[int, ...],
               check: Callable[[np.ndarray, np.void | None], tuple[int, str] | None]
               ) -> np.ndarray:
    """The `usecols` columns of the CSV rows of `text` as `dtype` rows, read
    by numpy; blank rows are skipped. The only caller of np.loadtxt.

    `check(rows, before)` is given parsed rows and the row before them (None
    before the first row of `text`), and returns the index of the first bad
    row and the reason, or None; a reason `problem: detail` reads `problem at
    row N: detail`. Raises a TraceError naming the first row, in file order,
    that numpy refuses or `check` rejects. Rows are numbered from `first_row`
    as csv.reader numbers them: blank rows count, which numpy's own row index
    does not do. Only text that fails is searched: a block of
    `_LOCATOR_BLOCK_ROWS` rows at a time, and the rows of a block that fails
    to parse one at a time. If csv.reader refuses a field over its size
    limit, which numpy reads, the error names no row.
    """
    def parse(lines: str) -> np.ndarray:
        with warnings.catch_warnings():
            # a header-only file has no rows, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(io.StringIO(lines, newline=""), dtype, delimiter=",",
                              usecols=usecols, ndmin=1, comments=None, quotechar='"')

    def fail(rownum: int | None, reason: str) -> TraceError:
        problem, colon, detail = reason.partition(": ")
        at = "" if rownum is None else f" at row {rownum}"
        return TraceError(f"{path}: {problem}{at}{colon}{detail}")

    def search(block: list[tuple[int, str]], before: np.void | None) -> np.void | None:
        """Check the (row number, text) rows of `block`; return the last row."""
        try:
            rows = parse("".join(line for _, line in block))
            if len(rows) != len(block):
                raise ValueError(f"{len(rows)} rows where csv.reader reads {len(block)}")
        except ValueError as exc:
            if len(block) == 1:  # numpy's own row index would only confuse the message
                raise fail(block[0][0], "parse failure: " + re.sub(r" at row \d+", "", str(exc)))
            for row in block:
                before = search([row], before)
            return before
        if (fault := check(rows, before)) is not None:
            raise fail(block[fault[0]][0], fault[1])
        return rows[-1] if len(rows) else before

    try:
        rows = parse(text)
    except ValueError as exc:
        reason = f"parse failure: {exc}"
    else:
        if (fault := check(rows, None)) is None:
            return rows
        reason = fault[1]
    kept: list[str] = []  # the lines of the row csv.reader is reading
    block: list[tuple[int, str]] = []
    before = None
    with contextlib.suppress(csv.Error):
        # csv.reader reads the lines through `kept`, which so holds each row's text
        lines = (kept.append(line) or line for line in io.StringIO(text, newline=""))
        for rownum, row in enumerate(csv.reader(lines), start=first_row):
            if row:
                block.append((rownum, "".join(kept)))
            kept.clear()
            if len(block) == _LOCATOR_BLOCK_ROWS:
                before = search(block, before)
                block.clear()
        search(block, before)
    raise fail(None, reason)


# Bytes per block of `load_csv`; each block ends at a line end.
_READ_BLOCK_BYTES = 1 << 20
# At most this many digits in t and in a value, so each fits int64.
_MAX_DIGITS = 18
# The longest row the byte reader reads: t, comma, minus, digits, point, CR LF.
_MAX_ROW_BYTES = 2 * _MAX_DIGITS + 5


@contextlib.contextmanager
def _open_csv(path: str | Path) -> Iterator[tuple]:
    """Open a CSV, as every reader here does: yields (binary handle, text
    handle past the header, header row or None for an empty file, lines the
    header took). The path is opened once, in binary; a pipe is read into
    memory first. The text is decoded as open(path) decodes it, with
    universal newlines, and a byte it cannot decode is named by row."""
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        with io.TextIOWrapper(fh) as text:
            try:
                reader = csv.reader(text)
                header = next(reader, None)
                yield fh, text, header, reader.line_num
            except UnicodeDecodeError as exc:
                raise _decode_error(path, fh, exc) from exc


def load_csv(path: str | Path, kind: str, unit: str) -> Trace:
    """Load a `t,value` CSV (single header line) into a validated Trace."""
    _check_labels(kind, unit)  # a bad label fails here, before any row is read
    with _open_csv(path) as (fh, text, header, skiprows):
        if header is None:
            raise TraceError(f"{path}: empty file, expected a header line")
        columns = _read_blocks(path, fh, text, skiprows)
    return Trace._owned(kind, unit, *columns)


def _decode_error(path: str | Path, fh, exc: UnicodeDecodeError) -> TraceError:
    """A TraceError naming the row and the value of the first byte of the
    binary handle `fh` that `exc`'s codec cannot decode. Rows are csv.reader
    records, as `_parse_csv` numbers them: the header is row 1, and a quoted
    field that spans lines leaves its record one row."""
    fh.seek(0)
    data = fh.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as bad:
        # the bytes before the bad one are whole characters; the x stands in for it
        text = io.StringIO(data[:bad.start].decode(bad.encoding) + "x", newline="")
        try:
            at = f" at row {sum(1 for _ in csv.reader(text))}"
        except csv.Error:  # a field over csv.reader's size limit: no row to name
            at = ""
        return TraceError(f"{path}: parse failure{at}: cannot decode byte "
                          f"0x{bad.object[bad.start]:02x} as {bad.encoding} ({bad.reason})")
    return TraceError(f"{path}: {exc}")  # the file decodes now: it changed since it was read


def _read_blocks(path: str | Path, fh, text, skiprows: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of the rows after the `skiprows` header lines of the
    seekable binary handle `fh`, read a block of whole lines at a time.

    While its rows are `digits,[-]digits.digits` lines, as `save_csv` writes
    them, and `_trace_fault` finds none bad, a block is read from bytes by
    `_read_lines`. The first block that is not, and every block after it, is
    decoded as `text` decodes and parsed by numpy; a bad row of one, which
    numpy refuses or `_trace_fault` rejects, is named by `_parse_csv`. A
    decoded block holding a quote takes in the rest of the file, since a
    quoted field may span lines; elsewhere each line is a row of csv.reader's.
    """
    capacity = fh.seek(0, io.SEEK_END) // 4 + 1  # the shortest row is `0,0\n`
    fh.seek(0)
    header = b"".join(fh.readline() for _ in range(skiprows))
    times = np.empty(capacity, np.int64)
    values = np.empty(capacity, np.float64)
    parsed: list[tuple[np.ndarray, np.ndarray]] = []  # numpy's blocks, after the byte rows
    block = bytearray(_READ_BLOCK_BYTES)  # reused for every block read from bytes
    rows = held = 0
    rownum, last_t = 2, None  # the header is row 1
    read, readline = fh.read, fh.readline
    decoder = codecs.getincrementaldecoder(text.encoding)(text.errors)
    decode = io.IncrementalNewlineDecoder(decoder, translate=True).decode
    # a lone CR ends a line for csv.reader and numpy, but not for the byte reader
    in_grammar = header.count(b"\n") == skiprows and b"\r" not in header.replace(b"\r\n", b"")
    if not in_grammar:  # numpy reads the rows from the text handle, after the header lines
        text.seek(0)
        for _ in range(skiprows):
            text.readline()
        read, readline, decode = text.read, text.readline, str
    while True:
        if in_grammar:
            got = fh.readinto(memoryview(block)[held:])
            held += got
            if not held:
                break
            end = block.rfind(b"\n", 0, held) + 1
            # numpy reads a line longer than any row, and a last line with no line end
            count = (_read_lines(block, end, times[rows:], values[rows:])
                     if got and held - end <= _MAX_ROW_BYTES else None)
            if count is not None and _trace_fault(times[rows:rows + count],
                                                  values[rows:rows + count], last_t) is None:
                rows += count
                rownum += count
                last_t = int(times[rows - 1]) if rows else None
                block[:held - end] = block[end:held]
                held -= end
                continue
            in_grammar, data = False, block[:held]  # as read: `_read_run` parses a copy
        elif not (data := read(_READ_BLOCK_BYTES)):
            decoder.decode(b"", final=True)  # raises for a character the file cuts short
            break
        chunk = decode(data + readline())
        if '"' in chunk:
            chunk += decode(read())
        found = _parse_csv(path, chunk, rownum, _CSV_ROW, (0, 1), lambda checked, before:
                           _trace_fault(checked["t"], checked["value"],
                                        last_t if before is None else int(before["t"])))
        parsed.append((found["t"], found["value"]))
        rownum += chunk.count("\n")
        last_t = int(found["t"][-1]) if len(found) else last_t
    if parsed:
        t, v = zip(*parsed)
        return np.concatenate([times[:rows], *t]), np.concatenate([values[:rows], *v])
    # shrunk in place, so the trace that takes them holds no spare capacity;
    # the views handed to `_read_lines` are gone by now
    times.resize(rows, refcheck=False)
    values.resize(rows, refcheck=False)
    return times, values


def _trace_fault(times: np.ndarray, values: np.ndarray,
                 last_t: int | None = None) -> tuple[int, str] | None:
    """The one statement of a trace's invariants: the index of the first
    sample of the equal-length columns whose t is negative, whose value is
    not finite, or whose t does not increase (from `last_t`, if set), and the
    first of those three reasons that holds there; or None. Only the first t
    is tested for its sign: the first negative t after it is also a t that
    does not increase."""
    ok = np.isfinite(values)
    ok[1:] &= times[1:] > times[:-1]
    if len(ok):
        ok[0] &= times[0] >= 0 and (last_t is None or times[0] > last_t)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    return i, ("negative time offset" if times[i] < 0 else
               "non-finite value" if not np.isfinite(values[i]) else "non-increasing timestamps")


def _read_lines(block: bytearray, end: int, times: np.ndarray, values: np.ndarray) -> int | None:
    """Parse the whole lines of `block[:end]` into the heads of `times` and
    `values`, one run of rows of one width at a time; the row count, or None.

    From a row's start, the width is that of its own line. The rest of the
    block is viewed as rows of that width, and `_read_run` gets the leading
    rows whose last byte is LF, found in a window that doubles while every row
    in it ends in LF, so a run costs its own length. `_read_run` checks every
    byte of every row against its first row's layout, so a row it accepts is
    one line. Runs of fewer than 256 rows on average send the block to numpy,
    which reads them faster (about 250 rows is where the two routes break even).
    """
    lines = np.frombuffer(block, np.uint8, end)
    pos = rows = runs = 0
    while pos < end:
        width = block.find(b"\n", pos, pos + _MAX_ROW_BYTES + 1) + 1 - pos
        runs += 1
        if width <= 0 or runs > 16 + rows // 256:  # a line longer than any row, or short runs
            return None
        last = lines[pos + width - 1:end:width][:len(times) - rows]  # each row's last byte
        stop, window = 0, 64
        while stop < len(last):
            other = last[stop:stop + window] != ord("\n")
            if other.any():
                stop += int(other.argmax())
                break
            stop += len(other)
            window *= 2
        if not stop:  # no room left: the file grew after its size was taken
            return None
        count = _read_run(lines[pos:pos + stop * width].reshape(stop, width),
                          times[rows:], values[rows:])
        if not count:
            return None
        rows += count
        pos += count * width
    return rows


def _read_run(run: np.ndarray, times: np.ndarray, values: np.ndarray) -> int:
    """Parse the leading rows of `run`, a (rows, width) view of lines of one
    width, that have the layout of its first row: each row's delimiters where
    the first row has them, and digits 0-9 in every other column of t and of
    the value. Return how many, or 0 if the first row, or any N, is outside
    the grammar. A value is +-N / 10**f, N its digits and f those after the
    point; as N < 2**53 and f <= 22 are exact doubles, the quotient is the
    decimal correctly rounded (Clinger's fast path), the double numpy gives."""
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
    cols = np.array(run.T, order="C")  # one row of bytes per column; a copy, even of one row
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


# Below this magnitude |v| * 10**6 < 2**52, where `_micro_units` is exact.
_EXACT_LIMIT = 2.0**32
_VELTKAMP = 2.0**27 + 1


def save_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace as `t,value` rows; values keep 6 fractional digits.

    The bytes are those of csv.writer writing `[t, f"{value:.6f}"]` rows, a
    block of `BLOCK_SAMPLES` rows at a time. A block holding any |value| >=
    2**32 goes through that f-string instead, because there the exact
    rounding of `_micro_units` no longer holds.
    """
    with open(path, "wb") as fh:
        fh.write(b"t,value\r\n")
        for start in range(0, len(trace), BLOCK_SAMPLES):
            times = trace.times[start:start + BLOCK_SAMPLES]
            values = trace.values[start:start + BLOCK_SAMPLES]
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
    """The `t,value` rows of a block whose |values| are below 2**32, as bytes.

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
    The sine and the baseline fill the values through one full-length
    temporary, freed before any shock is drawn; that free also raises glibc's
    mmap threshold, so a `save_csv` after it reuses its block scratch (with a
    sine taken a block at a time it took 30 266 minor faults at 1 M samples,
    not 732). The AR(1) series is added a block of `BLOCK_SAMPLES` at a time,
    its shocks made Python floats as each block is filled.
    """
    rng = np.random.default_rng(spec.seed)
    times = np.arange(spec.n, dtype=np.int64) * spec.period
    values = np.sin(2.0 * np.pi * times / 86400.0)
    values *= spec.drift_amplitude
    values += spec.baseline
    # batched draws give the same stream as n scalar draws
    ar = _ar1(rng.normal(0.0, spec.noise_scale, min(BLOCK_SAMPLES, spec.n - start)).tolist()
              for start in range(0, spec.n, BLOCK_SAMPLES))
    for start in range(0, spec.n, BLOCK_SAMPLES):
        block = values[start:start + BLOCK_SAMPLES]
        # + 0.0 without noise too, which turns a -0.0 sum into 0.0
        block += np.fromiter(ar, np.float64, len(block)) if spec.noise_scale > 0 else 0.0
    return Trace._owned(spec.kind, KIND_UNITS[spec.kind], times, values)


def _ar1(blocks: Iterable[list[float]]) -> Iterator[float]:
    """The AR(1) series x[i] = 0.9 * x[i - 1] + e[i] of the shocks in
    `blocks`, in order, from 0.0."""
    prev = 0.0
    for shocks in blocks:
        for e in shocks:
            prev = 0.9 * prev + e
            yield prev
        del shocks  # freed before the next block is drawn, so one block is held at once


HR_MEAN = 73.76  # population heart-rate model, bpm
HR_STD = 7.0
HR_RANGE = (40.0, 140.0)  # the generator's clip
BT_MEAN = 36.8  # celsius
BT_STD = 0.4
BT_RANGE = (30.0, 45.0)  # the generator's clip, and the range a population must keep


def generate_population(n: int, seed: int) -> np.recarray:
    """Deterministic population of n people with plausible HR and BT values."""
    n = _integer("n", n, 0, TraceError)
    rng = np.random.default_rng(_integer("seed", seed, 0, TraceError))
    rows = []
    for i in range(n):  # each person's draws in turn: HR, BT, then gender
        hr = min(max(rng.normal(HR_MEAN, HR_STD), HR_RANGE[0]), HR_RANGE[1])
        bt = min(max(rng.normal(BT_MEAN, BT_STD), BT_RANGE[0]), BT_RANGE[1])
        rows.append((f"p{i:04d}", "female" if rng.random() < 0.5 else "male", bt, hr))
    return as_population(rows)


def as_population(rows: Iterable[tuple] | np.ndarray) -> np.recarray:
    """A population of `rows`, (id, gender, body_temperature, heart_rate)
    tuples or POPULATION_DTYPE rows, copied into a read-only np.recarray.
    Raises a TraceError naming the index of the first person out of range
    (see `_person_fault`)."""
    pop = np.array(rows if isinstance(rows, np.ndarray) else list(rows), POPULATION_DTYPE)
    if pop.ndim != 1:
        raise TraceError(f"a population is 1-D, got {pop.ndim}-D rows")
    if (fault := _person_fault(pop)) is not None:
        raise TraceError(f"person {fault[0]}: {fault[1].partition(': ')[2]}")
    pop.flags.writeable = False
    return pop.view(np.recarray)


def load_population_csv(path: str | Path) -> np.recarray:
    """Load `id,gender,body_temperature,heart_rate` rows, the columns found by
    their header names (the last of a name), as a population (see
    `as_population`); rows are numbered as `load_csv` numbers them (the header
    is row 1 and blank rows count)."""
    with _open_csv(path) as (_, text, header, _):
        body = text.read()
    column = {name: i for i, name in enumerate(header or ())}
    if missing := [name for name in POPULATION_DTYPE.names if name not in column]:
        raise TraceError(f"{path}: no {missing[0]} column in the header")
    rows = _parse_csv(path, body, 2, POPULATION_DTYPE,
                      tuple(column[n] for n in POPULATION_DTYPE.names), _person_fault)
    rows.flags.writeable = False
    return rows.view(np.recarray)


def _person_fault(rows: np.ndarray, before: np.void | None = None) -> tuple[int, str] | None:
    """The first of the POPULATION_DTYPE `rows` out of range, and why. The
    checks are made in this order: heart_rate finite, body_temperature
    finite, heart_rate > 0, body_temperature in `BT_RANGE` celsius."""
    hr, bt = rows["heart_rate"], rows["body_temperature"]
    lo, hi = BT_RANGE
    bad = np.flatnonzero(~((0.0 < hr) & (hr < math.inf) & (lo <= bt) & (bt <= hi)))
    if not bad.size:
        return None
    i = int(bad[0])
    h, b = hr[i].item(), bt[i].item()
    faults = ((not math.isfinite(h), f"heart_rate must be finite, got {h}"),
              (not math.isfinite(b), f"body_temperature must be finite, got {b}"),
              (h <= 0, f"heart_rate must be positive, got {h}"),
              (True, f"body_temperature {b} outside [{lo}, {hi}] celsius"))
    return i, "parse failure: " + next(reason for failed, reason in faults if failed)


def load_xy_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of a CSV with one header row and finite numbers in
    its first two columns; later columns are ignored. Rows are numbered as
    `load_csv` numbers them (the header is row 1 and blank rows count)."""
    with _open_csv(path) as (_, text, _, _):
        body = text.read()
    rows = _parse_csv(path, body, 2, np.dtype([("x", float), ("y", float)]), (0, 1), _xy_fault)
    return rows["x"], rows["y"]


def _xy_fault(rows: np.ndarray, before: np.void | None) -> tuple[int, str] | None:
    bad = np.flatnonzero(~(np.isfinite(rows["x"]) & np.isfinite(rows["y"])))
    return (bad[0], "non-finite value") if bad.size else None


def save_table_csv(path: str | Path, header: Iterable, rows: Iterable) -> None:
    """A header row and then `rows`, by csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_population_csv(population: np.ndarray, path: str | Path) -> None:
    save_table_csv(path, POPULATION_DTYPE.names,
                   ([pid, gender, f"{bt:.6f}", f"{hr:.6f}"]
                    for pid, gender, bt, hr in population.tolist()))
