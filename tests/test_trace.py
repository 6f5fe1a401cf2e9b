import csv
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ioht_pipeline
from ioht_pipeline import trace as trace_module
from ioht_pipeline.cli import main
from ioht_pipeline.trace import (
    BLOCK_SAMPLES,
    POPULATION_DTYPE,
    SyntheticSpec,
    Trace,
    TraceError,
    as_population,
    generate_population,
    generate_trace,
    load_csv,
    load_population_csv,
    load_xy_csv,
    save_csv,
    save_population_csv,
)
from test_oracles import no_loadtxt, parse_float


def test_load_csv_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,value\n0,60.0\n60,61.0\n120,60.5\n")
    trace = load_csv(p, "heart-rate", "bpm")
    assert len(trace) == 3
    assert (trace.times[1], trace.values[1]) == (60, 61.0)
    assert trace.times.dtype == np.int64 and trace.values.dtype == np.float64
    assert trace.unit == "bpm"


def test_load_csv_non_increasing(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,value\n0,60.0\n0,61.0\n")
    with pytest.raises(TraceError, match="non-increasing timestamps at row 3"):
        load_csv(p, "heart-rate", "bpm")


def test_infer_names_the_row_of_a_negative_time_offset(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("t,value\n0,1.0\n-5,2.0\n")
    assert main(["infer", "--input", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}: negative time offset at row 3\n"


def test_load_csv_header_only(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,value\n")
    assert len(load_csv(p, "heart-rate", "bpm")) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["t,value\n", "t,value", "t,value\r\n\r\n\n"])
def test_load_csv_header_only_is_an_empty_trace_without_warnings(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    trace = load_csv(p, "heart-rate", "bpm")
    assert len(trace) == 0 and trace.times.dtype == np.int64


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(TraceError, match="empty file"):
        load_csv(p, "heart-rate", "bpm")


# int() and float() accept these; the C parser does not
@pytest.mark.parametrize("row", ["1_0,1.0", "10,1_0.5", "\u0663,1.0", "\uff15,1.0"])
def test_load_csv_rejects_underscores_and_non_ascii_digits(tmp_path, row):
    p = tmp_path / "t.csv"
    p.write_text(f"t,value\n\n{row}\n", encoding="utf-8")
    with pytest.raises(TraceError, match="parse failure at row 3"):
        load_csv(p, "heart-rate", "bpm")


def test_load_csv_parse_failure_names_only_the_file_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,value\n0,1\n\n60\n")
    with pytest.raises(TraceError) as info:
        load_csv(p, "heart-rate", "bpm")
    assert str(info.value) == f"{p}: parse failure at row 4: invalid column index 1 with 1 columns"


def test_load_csv_reads_past_the_csv_field_size_limit(tmp_path):
    p = tmp_path / "t.csv"
    wide = "x" * 200_000  # csv.reader's default limit is 131 072
    p.write_text(f"t,value\n5,1.0,{wide}\n6,2.0\n")
    assert load_csv(p, "heart-rate", "bpm").times.tolist() == [5, 6]
    p.write_text(f"t,value\n5,1.0,{wide}\n4,2.0\n")
    with pytest.raises(TraceError, match="non-increasing timestamps"):
        load_csv(p, "heart-rate", "bpm")


def test_load_csv_bad_value(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,value\n0,abc\n")
    with pytest.raises(TraceError, match="row 2"):
        load_csv(p, "heart-rate", "bpm")


@pytest.mark.parametrize("data,row,byte", [
    (b"t,va\xfflue\n0,1.0\n", 1, "0xff"),  # the header
    (b"t,value\r\n0,1.0\r\n1,\xff2.0\r\n", 3, "0xff"),  # a first block the byte reader declines
    (b"t,value\n0,1.0\n1,2.0\n\xe2\x82", 4, "0xe2"),  # a character the file cuts short
])
def test_load_csv_names_the_row_and_byte_it_cannot_decode(tmp_path, data, row, byte):
    p = tmp_path / "t.csv"
    p.write_bytes(data)
    with pytest.raises(TraceError, match=f"^{p}: parse failure at row {row}: cannot decode "
                                         f"byte {byte} as utf-8"):
        load_csv(p, "heart-rate", "bpm")


# Blocks of 64 bytes split CR LF pairs; a lone CR in the header sends the rows
# to the text handle.
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad", [0, 1, 57, 299])
def test_load_csv_names_an_undecodable_row_in_a_later_block(tmp_path, monkeypatch, newline, bad):
    monkeypatch.setattr(trace_module, "_READ_BLOCK_BYTES", 64)
    rows = [f"{i},{i % 7}.5{newline}".encode() for i in range(300)]
    rows[bad] = rows[bad].replace(b".", b".\xc3\xa9\xff")
    p = tmp_path / "t.csv"
    p.write_bytes(f"t,value{newline}".encode() + b"".join(rows))
    with pytest.raises(TraceError, match=f"at row {bad + 2}: cannot decode byte 0xff"):
        load_csv(p, "heart-rate", "bpm")


def test_population_csv_names_the_row_and_byte_it_cannot_decode(tmp_path):
    p = tmp_path / "pop.csv"
    save_population_csv(generate_population(5, seed=3), p)
    lines = p.read_bytes().split(b"\r\n")
    lines[4] = lines[4].replace(b",3", b",3\xff", 1)
    p.write_bytes(b"\r\n".join(lines))
    with pytest.raises(TraceError, match=f"^{p}: parse failure at row 5: cannot decode "
                                         "byte 0xff as utf-8"):
        load_population_csv(p)


def test_xy_csv_names_the_row_and_byte_it_cannot_decode(tmp_path):
    p = tmp_path / "xy.csv"
    p.write_bytes(b"x,y\r\n0,1\r\n\r\n1,2\r3,\xff4\r\n")
    with pytest.raises(TraceError, match=f"^{p}: parse failure at row 5: cannot decode "
                                         "byte 0xff as utf-8"):
        load_xy_csv(p)


# A quoted field spanning two lines leaves its record one row, so a byte that
# cannot be decoded is named by the row a non-number in its place is named by.
@pytest.mark.parametrize("read,data", [
    (load_population_csv,
     b'id,gender,body_temperature,heart_rate\n"p\n0",f,36.8,70\np1,m,36.{},71\n'),
    (load_xy_csv, b'x,"y\nlabel"\r\n0,1\r\n1,2.{}\r\n'),
    (lambda p: load_csv(p, "heart-rate", "bpm"), b't,"va\nlue"\n0,1.0\n1,2.{}\n'),
], ids=["population", "xy", "trace"])
def test_readers_number_an_undecodable_row_as_csv_reader_does(tmp_path, read, data):
    p = tmp_path / "in.csv"
    for bad, message in ((b"abc", "could not convert"), (b"\xff", "cannot decode byte 0xff")):
        p.write_bytes(data.replace(b"{}", bad))
        with pytest.raises(TraceError, match=f"^{p}: parse failure at row 3: {message}"):
            read(p)


def test_an_undecodable_byte_after_a_field_csv_reader_refuses_names_no_row(tmp_path):
    p = tmp_path / "xy.csv"
    p.write_bytes(b'x,y,note\n0,1,"' + b"a" * (csv.field_size_limit() + 1) + b'"\n1,\xff2\n')
    with pytest.raises(TraceError, match=f"^{p}: parse failure: cannot decode byte 0xff"):
        load_xy_csv(p)


def test_cli_exits_2_naming_the_row_it_cannot_decode(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_bytes(b"t,value\n0,1.0\n1,\xff2.0\n")
    population = tmp_path / "pop.csv"
    population.write_bytes(b"id,gender,body_temperature,heart_rate\n"
                           b"p0,female,36.5,70.0\np1,male,3\xff6.5,71.0\n")
    points = tmp_path / "xy.csv"
    points.write_bytes(b"x,y\n0,1\n1,\xff2\n")
    for argv, name in ((["infer", "--input", str(trace)], trace),
                       (["dp", "--epsilon", "0.5", "--population", str(population)], population),
                       (["chart", "--input", str(points), "--out", str(tmp_path / "c.svg")],
                        points)):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {name}: parse failure at row 3: cannot decode byte 0xff")


# A pipe (here /dev/fd/N, as /dev/stdin would be) is read into memory and
# then by the same byte reader as a file: numpy is never called.
@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_csv_reads_a_piped_save_csv_file_from_bytes(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    save_csv(generate_trace(SyntheticSpec(n=70_000, seed=7, noise_scale=1.5)), path)
    data = path.read_bytes()
    assert len(data) >= 1 << 20  # many times a pipe's buffer
    want = load_csv(path, "heart-rate", "bpm")
    read, write = os.pipe()

    def feed():
        with open(write, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        no_loadtxt(monkeypatch)
        got = load_csv(f"/dev/fd/{read}", "heart-rate", "bpm")
    finally:
        os.close(read)  # a writer still blocked on a full pipe now fails, not hangs
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("name", ["trace.csv.gz", "trace.bz2", "trace.xz", "trace.lzma"])
def test_load_csv_reads_plain_text_under_a_compressed_suffix(tmp_path, name):
    text = "t,value\n0,60.0\n\n60,61.5\n"
    (tmp_path / "trace.csv").write_text(text)
    (tmp_path / name).write_text(text)
    plain = load_csv(tmp_path / "trace.csv", "heart-rate", "bpm")
    named = load_csv(tmp_path / name, "heart-rate", "bpm")
    assert named.times.tolist() == plain.times.tolist() == [0, 60]
    assert named.values.tobytes() == plain.values.tobytes()


def test_load_csv_reads_a_cr_only_file_with_a_two_line_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b'"t\rsecond line",value\r0,60.0\r\r60,61.5\r120,62.0')
    trace = load_csv(p, "heart-rate", "bpm")
    assert trace.times.tolist() == [0, 60, 120]
    assert trace.values.tolist() == [60.0, 61.5, 62.0]
    p.write_bytes(b'"t\rsecond line",value\r0,60.0\r\r0,61.5\r')
    with pytest.raises(TraceError, match="non-increasing timestamps at row 4"):
        load_csv(p, "heart-rate", "bpm")


def infer(source, **kwargs):
    """`ioht infer --input source --json` in a subprocess."""
    src = str(Path(ioht_pipeline.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ioht_pipeline.cli", "infer", "--input", source, "--json"],
        capture_output=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
        **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("stdin", ["pipe", "file"])
def test_infer_reads_a_trace_from_stdin(tmp_path, stdin):
    path = tmp_path / "trace.csv"
    save_csv(generate_trace(SyntheticSpec(n=5000, seed=7, noise_scale=1.5)), path)
    assert path.stat().st_size >= 64 * 1024  # more than a pipe's first read
    want = infer(str(path))
    with open(path, "rb") as fh:
        if stdin == "pipe":
            got = infer("/dev/stdin", input=fh.read())
        else:
            got = infer("/dev/stdin", stdin=fh)
    assert want.returncode == got.returncode == 0, got.stderr
    assert b'"n": 5000' in want.stdout
    assert got.stdout == want.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_infer_names_the_bad_row_of_a_piped_trace(tmp_path):
    got = infer("/dev/stdin", input=b"t,value\n0,1\nx,2\n")
    assert got.returncode == 2
    assert b"/dev/stdin: parse failure at row 3:" in got.stderr
    # a bad row far past a pipe's first read, after blank lines
    lines = [f"{60 * i},{70 + i % 13}.25\n" + "\n" * (i % 500 == 0) for i in range(8000)]
    lines[7321] = "439260,abc\n"
    path = tmp_path / "trace.csv"
    path.write_text("t,value\n" + "".join(lines))
    assert path.stat().st_size >= 64 * 1024
    want = infer(str(path))
    got = infer("/dev/stdin", input=path.read_bytes())
    assert want.returncode == got.returncode == 2
    assert b"parse failure at row 7338:" in want.stderr
    assert got.stderr == want.stderr.replace(str(path).encode(), b"/dev/stdin")


def test_trace_rejects_nan():
    with pytest.raises(TraceError, match="non-finite value at t=5"):
        Trace("heart-rate", "bpm", [0, 5], [1.0, float("nan")])


def test_trace_rejects_unsorted():
    with pytest.raises(TraceError, match="non-increasing timestamps: t=5 after t=10"):
        Trace("heart-rate", "bpm", [10, 5], [1.0, 2.0])
    with pytest.raises(TraceError, match="non-increasing"):
        Trace("heart-rate", "bpm", [0, 10, 10], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("times,values,message", [
    ([0, -5], [1.0, 2.0], "negative time offset -5"),
    ([0, 5], [1.0], "length mismatch: 2 times, 1 values"),
    ([[0, 5]], [[1.0, 2.0]], "1-D"),
    ([2**64], [1.0], "numeric columns"),
])
def test_trace_rejects_malformed_columns(times, values, message):
    with pytest.raises(TraceError, match=message):
        Trace("other", "dimensionless", times, values)


def test_trace_columns_are_read_only_copies():
    times = np.array([0, 60])
    values = np.array([1.0, 2.0])
    trace = Trace("other", "dimensionless", times, values)
    values[0] = 99.0  # the caller's array is not shared
    assert trace.values[0] == 1.0
    for column in (trace.times, trace.values):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.int32])
def test_trace_never_aliases_a_callers_writeable_columns(dtype):
    times = np.array([0, 60, 120], dtype=dtype)
    values = np.array([1.0, 2.0, 3.0])
    trace = Trace("other", "dimensionless", times, values)
    assert times.flags.writeable and values.flags.writeable
    assert not np.shares_memory(trace.times, times)
    assert not np.shares_memory(trace.values, values)


def test_owned_trace_takes_its_columns_read_only_without_a_copy():
    times = np.array([0, 60, 120])
    values = np.array([1.0, 2.0, 3.0])
    trace = Trace._owned("other", "dimensionless", times, values)
    assert trace.times is times and trace.values is values
    assert not times.flags.writeable and not values.flags.writeable


def test_loaded_and_generated_traces_hold_read_only_columns(tmp_path):
    trace = generate_trace(SyntheticSpec(n=50, seed=1, noise_scale=1.0))
    save_csv(trace, tmp_path / "t.csv")
    (tmp_path / "spaced.csv").write_text("t,value\n0, 1.5\n60, 2.5\n")  # read by numpy
    for made in (trace, load_csv(tmp_path / "t.csv", "heart-rate", "bpm"),
                 load_csv(tmp_path / "spaced.csv", "heart-rate", "bpm")):
        for column, dtype in ((made.times, np.int64), (made.values, np.float64)):
            assert column.dtype == dtype and column.flags.c_contiguous
            assert not column.flags.writeable


@pytest.mark.parametrize("kind,unit,times,values,message", [
    ("pulse", "bpm", [0], [1.0], "unknown sensor kind"),
    ("other", "rpm", [0], [1.0], "unknown unit"),
    ("other", "dimensionless", [0, -5], [1.0, 2.0], "negative time offset -5"),
    ("other", "dimensionless", [0, 5], [1.0], "length mismatch: 2 times, 1 values"),
    ("other", "dimensionless", [[0, 5]], [[1.0, 2.0]], "1-D"),
    ("other", "dimensionless", [0, 5], [1.0, math.inf], "non-finite value at t=5"),
    ("other", "dimensionless", [10, 5], [1.0, 2.0], "non-increasing timestamps: t=5 after t=10"),
    # several faults: the first bad sample in column order is named
    ("other", "dimensionless", [0, 1, -1], [1.0, math.inf, 1.0], "non-finite value at t=1"),
    ("other", "dimensionless", [-5, 0], [1.0, 2.0], "negative time offset -5"),
    # float times are taken only when whole and inside int64, never truncated
    ("other", "dimensionless", [0.5, 1.7], [1.0, 2.0],
     "^times and values must be numeric columns: 0.5 is not a whole number inside int64$"),
    ("other", "dimensionless", [0.0, 1e19], [1.0, 2.0], "1e\\+19 is not a whole number"),
    ("other", "dimensionless", [0.0, math.nan], [1.0, 2.0], "nan is not a whole number"),
    ("other", "dimensionless", ["0", "1"], [1.0, 2.0], "a column of <U1 is not of numbers"),
])
def test_owned_trace_checks_as_the_constructor_checks(kind, unit, times, values, message):
    for make in (Trace, Trace._owned):
        with pytest.raises(TraceError, match=message):
            make(kind, unit, np.array(times), np.array(values))


@pytest.mark.parametrize("values,dtype", [
    (["1.5", "2"], "<U3"),
    ([True, False], "bool"),
    ([1 + 2j, 2], "complex128"),
])
def test_trace_refuses_values_that_are_not_real_numbers(values, dtype):
    """Strings are not parsed, bools not read as 1 and 0, and complex numbers
    not cut to their real part: the values column is refused as the times
    column refuses such a column."""
    message = f"^times and values must be numeric columns: a column of {dtype} is not of numbers$"
    for make in (Trace, Trace._owned):
        with pytest.raises(TraceError, match=message):
            make("other", "dimensionless", np.array([0, 1]), np.array(values))
    with pytest.raises(TraceError, match=message):
        Trace("other", "dimensionless", [0, 1], values)


@pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.float16, np.float32])
def test_trace_takes_values_of_any_real_dtype_as_float64(dtype):
    trace = Trace("other", "dimensionless", [0, 1], np.array([3, 4], dtype))
    assert trace.values.dtype == np.float64 and trace.values.tolist() == [3.0, 4.0]


def test_generate_trace_zero_noise_constant():
    spec = SyntheticSpec(kind="heart-rate", n=3, period=60, seed=1,
                         baseline=70.0, drift_amplitude=0.0, noise_scale=0.0)
    trace = generate_trace(spec)
    assert trace.values.tolist() == [70.0, 70.0, 70.0]
    assert trace.times.tolist() == [0, 60, 120]


def test_generate_trace_holds_one_block_of_shocks():
    # Two n-long arrays (times and values) and one block of scratch: the
    # shocks as Python floats with their list slots, their array and that
    # block of the AR(1) series, about 60 bytes a block sample; the sine's
    # one n-long temporary is freed before the first shock. Three more
    # n-long arrays (drift, the series and a temporary) come to about 12.7 MB
    # at n = 300 000, two blocks of shocks held at once to about 10.8 MB,
    # and every shock held at once as a float to about 19.8 MB.
    n = 300_000
    spec = SyntheticSpec(n=n, seed=7, noise_scale=1.5)
    tracemalloc.start()
    try:
        generate_trace(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + 72 * BLOCK_SAMPLES


def test_generate_trace_deterministic():
    spec = SyntheticSpec(n=500, seed=42, noise_scale=1.5, drift_amplitude=8.0)
    a = generate_trace(spec)
    b = generate_trace(spec)
    assert (a.kind, a.unit) == (b.kind, b.unit)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)


def test_generate_trace_empty():
    assert len(generate_trace(SyntheticSpec(n=0))) == 0


@pytest.mark.parametrize("n,period", [(4, 1.5), (4.5, 60), (4.0, 60)])
def test_synthetic_spec_refuses_a_non_integer_n_or_period(n, period):
    name, value = ("period", period) if isinstance(n, int) else ("n", n)
    with pytest.raises(TraceError, match=f"^{name} must be an integer, got {value}$"):
        SyntheticSpec(n=n, period=period)


def test_synthetic_spec_rejects_times_beyond_int64():
    with pytest.raises(TraceError, match="int64"):
        SyntheticSpec(n=3, period=2**62)


def test_synthetic_spec_rejects_an_unknown_kind():
    with pytest.raises(TraceError, match="unknown sensor kind 'pulse'"):
        SyntheticSpec(kind="pulse")


def test_generate_population_stats():
    pop = generate_population(130, seed=5)
    assert len(pop) == 130
    mean_hr = float(np.mean([r.heart_rate for r in pop]))
    assert abs(mean_hr - 73.76) < 2.0
    assert all(40.0 <= r.heart_rate <= 140.0 for r in pop)


def test_generate_population_deterministic_and_empty():
    empty = generate_population(0, 1)
    assert empty.dtype == POPULATION_DTYPE and len(empty) == 0
    assert generate_population(20, 9).tolist() == generate_population(20, 9).tolist()


def test_person_record_range_check():
    with pytest.raises(TraceError):
        as_population([("x", "female", 80.0, 70.0)])
    with pytest.raises(TraceError):
        as_population([("x", "male", 36.8, 0.0)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["heart_rate", "body_temperature"])
def test_person_record_rejects_non_finite(field, value):
    fields = {"id": "x", "gender": "female", "body_temperature": 36.8, "heart_rate": 70.0,
              field: value}
    with pytest.raises(TraceError, match=f"{field} must be finite"):
        as_population([tuple(fields.values())])


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6).map(lambda v: round(v, 6)),
        min_size=0, max_size=40,
    )
)
def test_csv_round_trip(tmp_path_factory, values):
    trace = Trace("other", "dimensionless", [i * 10 for i in range(len(values))], values)
    p = tmp_path_factory.mktemp("rt") / "trace.csv"
    save_csv(trace, p)
    loaded = load_csv(p, "other", "dimensionless")
    assert loaded.times.tolist() == trace.times.tolist()
    assert loaded.values.tolist() == trace.values.tolist()


def test_population_csv_round_trip(tmp_path):
    pop = generate_population(10, seed=3)
    p = tmp_path / "pop.csv"
    save_population_csv(pop, p)
    loaded = load_population_csv(p)
    assert len(loaded) == 10
    for a, b in zip(pop, loaded):
        assert a.id == b.id and a.gender == b.gender
        assert math.isclose(a.heart_rate, b.heart_rate, abs_tol=1e-6)
        assert math.isclose(a.body_temperature, b.body_temperature, abs_tol=1e-6)


def test_population_numbers_are_read_at_once_as_each_field_parses(tmp_path, monkeypatch):
    p = tmp_path / "pop.csv"
    save_population_csv(generate_population(1000, seed=5), p)
    with open(p, newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = [(parse_float(r["body_temperature"]), parse_float(r["heart_rate"])) for r in rows]
    calls = []
    loadtxt = np.loadtxt

    def count(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", count)
    loaded = load_population_csv(p)
    assert len(calls) == 1  # no field is parsed alone
    got = [(r.body_temperature, r.heart_rate) for r in loaded]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert [(r.id, r.gender) for r in loaded] == [(r["id"], r["gender"]) for r in rows]
