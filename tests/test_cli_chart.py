import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

import ioht_pipeline
from ioht_pipeline.chart import Series, render_chart
from ioht_pipeline.cli import main


def ioht(*args, cwd):
    """`ioht args...` in a subprocess, run in `cwd`."""
    src = str(Path(ioht_pipeline.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ioht_pipeline.cli", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": pythonpath})


class TestChart:
    def test_single_point(self, tmp_path):
        svg = render_chart([Series("p", ((0.0, 0.0),))], style="points")
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 1

    def test_deterministic(self):
        series = [Series("a", ((0, 1), (1, 2), (2, 0)))]
        assert render_chart(series) == render_chart(series)

    def test_two_series_two_legend_entries(self):
        series = [
            Series("original", ((0, 1), (1, 2))),
            Series("reconstructed", ((0, 1), (1, 1.5))),
        ]
        svg = render_chart(series)
        assert "original" in svg and "reconstructed" in svg
        assert svg.count("<polyline") == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_chart([])
        with pytest.raises(ValueError):
            Series("empty", ())

    def test_no_tick_label_reads_minus_zero(self):
        # the lowest y tick, -0.004, rounds to 0 from below
        svg = render_chart([Series("s", ((0, -0.004), (1, 0.996)))])
        labels = minidom.parseString(svg).getElementsByTagName("text")
        assert "-0" not in [node.firstChild.data for node in labels]
        assert ">0<" in svg

    def test_write(self, tmp_path):
        out = tmp_path / "chart.svg"
        out.write_text(render_chart([Series("s", ((0, 0), (1, 1)))]))
        assert out.read_text().startswith("<svg")


class TestCli:
    def test_gen_and_infer(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["gen", "--n", "200", "--seed", "3", "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["infer", "--input", str(out), "--vr", "0.025", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 200
        assert 0 <= doc["sr"] <= 100

    def test_gen_body_temperature_writes_body_temperatures(self, tmp_path):
        """A day of samples with the body-temperature defaults stays in
        the population range check's [30, 45] celsius; an explicit flag still wins."""
        out = tmp_path / "bt.csv"
        for seed in ("0", "7"):
            assert main(["gen", "--kind", "body-temperature", "--n", "1440", "--seed", seed,
                         "--out", str(out)]) == 0
            with open(out) as fh:
                values = [float(row["value"]) for row in csv.DictReader(fh)]
            assert len(values) == 1440 and all(30.0 <= v <= 45.0 for v in values)
        assert main(["gen", "--kind", "body-temperature", "--n", "3", "--baseline", "38.5",
                     "--drift", "0", "--noise", "0", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["0,38.500000", "60,38.500000",
                                                    "120,38.500000"]

    def test_gen_population(self, tmp_path):
        out = tmp_path / "pop.csv"
        assert main(["gen", "--population", "--n", "25", "--seed", "1",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert set(rows[0]) == {"id", "gender", "body_temperature", "heart_rate"}

    def test_vr_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["vr-sweep", "--n", "400", "--seed", "2",
                     "--out", str(out)]) == 0
        with open(out / "vr_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        srs = [float(r["sr"]) for r in rows]
        assert srs == sorted(srs)
        for r in rows:
            sr, er = float(r["sr"]), float(r["er"])
            if sr < 100:
                assert er == pytest.approx(sr / (100 - sr))
        assert (out / "vr_sweep.svg").exists()

    def test_size_sweep_outputs(self, tmp_path):
        out = tmp_path / "sizes"
        assert main(["size-sweep", "--out", str(out)]) == 0
        with open(out / "size_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        plains = [int(r["plaintext_bytes"]) for r in rows]
        assert plains == [1024, 498, 220, 105, 12]
        for r in rows:
            for suite in ("aes-128-ecb", "des-ecb", "blowfish-ecb"):
                assert int(r[suite]) > int(r["plaintext_bytes"])

    def test_dp_query_json(self, capsys):
        assert main(["dp", "--epsilon", "0.5", "--trials", "5", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == 0.5
        assert len(doc["out_results"]) == 5
        assert doc["mean_abs_deviation"] >= 0

    def test_epsilon_sweep_outputs(self, tmp_path):
        out = tmp_path / "eps"
        assert main(["epsilon-sweep", "--trials", "20", "--seed", "11",
                     "--out", str(out)]) == 0
        with open(out / "epsilon_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["epsilon"]) for r in rows] == [0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
        assert (out / "noised_points_eps_0_5.csv").exists()
        assert (out / "noised_points_eps_0_5.svg").exists()

    def test_pipeline_report(self, tmp_path, capsys):
        out = tmp_path / "pipe"
        assert main(["pipeline", "--n", "300", "--seed", "4",
                     "--master-seed", "99", "--out", str(out)]) == 0
        doc = json.loads((out / "pipeline_report.json").read_text())
        assert doc["energy_saving_percent"] > 0
        assert (out / "hops.csv").exists()

    def test_chart_command(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        src.write_text("x,y\n0,1\n1,3\n2,2\n")
        out = tmp_path / "out.svg"
        assert main(["chart", "--input", str(src), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_chart_escapes_its_text(self, tmp_path):
        (tmp_path / "a&b.csv").write_text("x,y\n0,1\n1,3\n")
        got = ioht("chart", "--input", "a&b.csv", "--title", "HR & BT <1>", "--out", "c.svg",
                   cwd=tmp_path)
        assert got.returncode == 0, got.stderr
        texts = [node.firstChild.data for node in
                 minidom.parse(str(tmp_path / "c.svg")).getElementsByTagName("text")]
        assert "HR & BT <1>" in texts and "a&b" in texts

    @pytest.mark.parametrize("rows,error", [
        ("x,y\n1\n", "parse failure at row 2: invalid column index 1 with 1 columns"),
        ("x,y\n0,1\n\n1,inf\n", "non-finite value at row 4"),
        ("x,y\n0,1\n1,abc\n", "parse failure at row 3: could not convert string 'abc' to float64"),
        # load_csv's number grammar: no underscores, unlike float()
        ("x,y\n1_0,1\n2_0,2\n",
         "parse failure at row 2: could not convert string '1_0' to float64"),
        # finite values whose axis span is 0 or overflows would put nan in the SVG
        ("x,y\n-1e308,1\n1e308,2\n", "x values from -1e+308 to 1e+308 cannot be scaled"),
        ("x,y\n0,-1e308\n1,1e308\n", "y values from -1e+308 to 1e+308 cannot be scaled"),
        ("x,y\n1e20,1\n", "x values from 1e+20 to 1e+20 cannot be scaled"),
    ])
    def test_chart_names_the_bad_row(self, tmp_path, rows, error):
        (tmp_path / "in.csv").write_text(rows)
        got = ioht("chart", "--input", "in.csv", "--out", "c.svg", cwd=tmp_path)
        assert got.returncode == 2
        assert got.stderr.startswith(f"error: in.csv: {error}")
        assert not (tmp_path / "c.svg").exists()

    @pytest.mark.parametrize("rows", [
        "x,y\n0,1\n1.7976931348623157e308,2\n",
        "x,y\n-1e308,5e-324\n7e307,1e-323\n",
    ])
    def test_chart_draws_the_widest_spans_that_fit(self, tmp_path, capsys, rows):
        src = tmp_path / "data.csv"
        src.write_text(rows)
        out = tmp_path / "c.svg"
        assert main(["chart", "--input", str(src), "--out", str(out)]) == 0
        svg = out.read_text()
        assert "<polyline" in svg and "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize("grid,clash", [
        (["1e-7", "1.00000001e-7"], "1e-07 and 1.00000001e-07 would both write "
                                    "noised_points_eps_1e-07.csv"),
        (["0.5", "0.1", "0.1"], "0.1 and 0.1 would both write noised_points_eps_0_1.csv"),
    ])
    def test_epsilon_sweep_refuses_grid_values_sharing_a_file(self, tmp_path, capsys, grid, clash):
        out = tmp_path / "eps"
        assert main(["epsilon-sweep", "--trials", "2", "--grid", *grid, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --grid values {clash}\n"
        assert not out.exists()

    def test_usage_error_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["pipeline", "--key", "zz"]) == 1

    def test_data_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n0,60\n0,61\n")
        assert main(["infer", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [
        ["infer", "--n", "50", "--vr", "nan", "--json"],
        ["pipeline", "--n", "50", "--epsilon", "nan"],
        ["dp", "--epsilon", "0.5", "--sensitivity", "inf"],
        # the third timestamp, 6e9 s, does not fit the wire format's 32 bits
        ["pipeline", "--n", "3", "--period", "3000000000"],
        # sensitivity / epsilon overflows the Laplace scale to inf
        ["dp", "--epsilon", "1e-320", "--sensitivity", "1e10", "--out", "{out}"],
        ["epsilon-sweep", "--grid", "1e-320", "--out", "{out}"],
        # a Laplace draw reaches 36.04 b, which overflows at b = 1e308
        ["dp", "--epsilon", "1", "--sensitivity", "1e308", "--trials", "4", "--out", "{out}"],
        ["pipeline", "--epsilon", "1", "--sensitivity", "1e308", "--out", "{out}"],
        ["epsilon-sweep", "--grid", "1", "--sensitivity", "1e308", "--trials", "2",
         "--population-size", "5", "--out", "{out}"],
        # at b = 4e306 every draw is finite, but the mean of 100 deviations of
        # about b each overflows
        ["dp", "--epsilon", "1", "--sensitivity", "4e306", "--trials", "100", "--out", "{out}"],
        ["epsilon-sweep", "--grid", "1", "--sensitivity", "4e306", "--trials", "100",
         "--population-size", "1", "--out", "{out}"],
    ])
    def test_bad_values_exit_2_without_output(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([arg.format(out=out) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["heart_rate", "body_temperature"])
    @pytest.mark.parametrize("argv", [
        ["dp", "--epsilon", "0.5", "--out", "{out}"],
        ["epsilon-sweep", "--trials", "5", "--out", "{out}"],
    ], ids=["dp", "epsilon-sweep"])
    def test_non_finite_population_exit_2_without_output(self, argv, field, value,
                                                        tmp_path, capsys):
        pop = tmp_path / "pop.csv"
        row = {"id": "p0", "gender": "female", "body_temperature": "36.8", "heart_rate": "70"}
        row[field] = value
        pop.write_text("id,gender,body_temperature,heart_rate\n" + ",".join(row.values()) + "\n")
        out = tmp_path / "out"
        assert main([arg.format(out=out) for arg in argv] + ["--population", str(pop)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {pop}: parse failure at row 2: {field} must be")
        assert not out.exists()

    @pytest.mark.parametrize("rows,error", [
        # blank rows count, as load_csv counts them
        ("p0,f,36.8,70\n\n\np1,m,36.8,abc\n", "parse failure at row 5: could not convert"),
        ("p0,f,36.8\n", "parse failure at row 2: invalid column index 3 with 3 columns"),
        # numbers are read by load_csv's grammar, which float() is not
        ("p0,f,36.8,7_0\n", "parse failure at row 2: could not convert string '7_0' to float64"),
        ("p0,f,36.8,70\np1,m,3_6.5,80\n", "parse failure at row 3: could not convert"),
    ])
    def test_population_errors_name_the_file_row(self, tmp_path, rows, error):
        (tmp_path / "pop.csv").write_text("id,gender,body_temperature,heart_rate\n" + rows)
        got = ioht("dp", "--epsilon", "1", "--population", "pop.csv", cwd=tmp_path)
        assert got.returncode == 2
        assert got.stderr.startswith(f"error: pop.csv: {error}")
        assert got.stdout == ""

    # a header counts its records in 32 bits
    @pytest.mark.parametrize("batch", ["0", "4294967296", "100000000000000000000"])
    def test_batch_outside_a_header_count_exit_2(self, batch, tmp_path):
        got = ioht("pipeline", "--n", "5", "--batch", batch, cwd=tmp_path)
        assert got.returncode == 2
        assert got.stderr == f"error: --batch must be in [1, 4294967295], got {batch}\n"
        assert got.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["dp", "--epsilon", "0.5", "--trials", "0"],
        ["epsilon-sweep", "--trials", "0"],
        ["epsilon-sweep", "--trials", "-3"],
    ])
    def test_trials_below_one_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trials must be >= 1")
        assert not out.exists()

    # The sum of these values overflows float64, so AR would print as NaN.
    @pytest.mark.parametrize("argv", [
        ["infer", "--input", "big.csv", "--json", "--vr", "0.5"],
        ["pipeline", "--input", "big.csv", "--vr", "0.5", "--out", "out"],
        ["vr-sweep", "--input", "big.csv", "--out", "out"],
    ], ids=["infer", "pipeline", "vr-sweep"])
    def test_metrics_that_overflow_exit_2_without_output(self, argv, tmp_path):
        (tmp_path / "big.csv").write_text(
            "t,value\n0,1e308\n60,1.7e308\n120,1.7e308\n180,1.7e308\n")
        got = ioht(*argv, cwd=tmp_path)
        assert got.returncode == 2
        assert got.stdout == ""
        assert "RuntimeWarning" not in got.stderr
        assert got.stderr == "error: the sum of the values overflows float64\n"
        assert not (tmp_path / "out").exists()

    # Every step of this trace overflows, but every sample is kept and its
    # metrics are finite: the command prints what it always printed, and no
    # warning.
    @pytest.mark.parametrize("argv,stdout_sha256", [
        (["infer", "--input", "alt.csv", "--json", "--vr", "0.5"],
         "d0151f2e291b6c9514ff7cd4c3409c227b151c3aa14024a38e9bf5b4a6ef8c44"),
        (["pipeline", "--input", "alt.csv", "--vr", "0.5", "--out", "out"],
         "0ef67183910eb7afae0f12950c081b6071b21b1e549cf05b9e878fd226186d36"),
        (["vr-sweep", "--input", "alt.csv", "--out", "out"],
         "8cc46e70a75bfa2c5015ff28a4b6b1a302dc6295c5392f1863184e314c10aa26"),
    ], ids=["infer", "pipeline", "vr-sweep"])
    def test_steps_that_overflow_with_finite_metrics_exit_0(self, argv, stdout_sha256,
                                                           tmp_path):
        (tmp_path / "alt.csv").write_text("t,value\n0,1e308\n60,-1e308\n120,1e308\n180,-1e308\n")
        got = ioht(*argv, cwd=tmp_path)
        assert got.returncode == 0
        assert hashlib.sha256(got.stdout.encode()).hexdigest() == stdout_sha256
        assert got.stderr == ("" if argv[0] != "pipeline" else
                              "wrote out/pipeline_report.json and out/hops.csv\n")


# Every CLI command at tier-1 size, pinned byte for byte: each entry of the
# manifest holds a command line, its exit code, the sha256 of its stdout and
# the sha256 of every file it writes. Each runs in a fresh directory that
# links the input files below. With IOHT_GOLDEN_REGEN=1 the test writes what
# the commands give now into the manifest instead of checking it, so a change
# that moves an output shows as one JSON diff.
GOLDEN = Path(__file__).with_name("golden_outputs.json")
GOLDEN_ENTRIES = json.loads(GOLDEN.read_text())
GOLDEN_INPUTS = {
    "trace.csv": "gen --n 100000 --seed 7 --drift 8 --noise 1.5",
    "short.csv": "gen --n 1420 --seed 7",
    "population.csv": "gen --population --n 130 --seed 5",
}
# trace-exp.csv is trace.csv with this data row's value in exponent form: the
# same numbers, with one row outside load_csv's byte grammar in the second
# of the file's two 1 MiB blocks.
EXPONENT_ROW = 75_000


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    for name, command in GOLDEN_INPUTS.items():
        assert main(command.split() + ["--out", str(directory / name)]) == 0
    lines = (directory / "trace.csv").read_bytes().split(b"\r\n")
    lines[EXPONENT_ROW + 1] += b"e0"
    (directory / "trace-exp.csv").write_bytes(b"\r\n".join(lines))
    return directory


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=[
    "_".join(arg.lstrip("-") for arg in entry["command"].split()) for entry in GOLDEN_ENTRIES])
def test_cli_output_is_golden(entry, golden_inputs, tmp_path, monkeypatch, capsys):
    for source in golden_inputs.iterdir():
        (tmp_path / source.name).symlink_to(source)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    got = {"command": entry["command"], "exit": main(entry["command"].split())}
    got["stdout"] = sha256(capsys.readouterr().out.encode())
    got["files"] = {path.relative_to(tmp_path).as_posix(): sha256(path.read_bytes())
                    for path in sorted(tmp_path.rglob("*"))
                    if path.is_file() and not path.is_symlink()}
    if os.environ.get("IOHT_GOLDEN_REGEN") == "1":
        entry.update(got)
        GOLDEN.write_text(json.dumps(GOLDEN_ENTRIES, indent=2) + "\n")
    else:
        assert got == entry
