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
from ioht_pipeline.chart import Series, render_chart, write_chart
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

    def test_write(self, tmp_path):
        out = tmp_path / "chart.svg"
        write_chart([Series("s", ((0, 0), (1, 1)))], out)
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
        ("x,y\n1\n", "parse failure at row 2: not enough values to unpack"),
        ("x,y\n0,1\n\n1,inf\n", "non-finite value at row 4"),
        ("x,y\n0,1\n1,abc\n", "parse failure at row 3: could not convert string to float"),
        # load_csv's number grammar: no underscores, unlike float()
        ("x,y\n1_0,1\n2_0,2\n", "parse failure at row 2: could not convert string to float"),
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
        ("p0,f,36.8\n", "parse failure at row 2: 'heart_rate'"),
    ])
    def test_population_errors_name_the_file_row(self, tmp_path, rows, error):
        (tmp_path / "pop.csv").write_text("id,gender,body_temperature,heart_rate\n" + rows)
        got = ioht("dp", "--epsilon", "1", "--population", "pop.csv", cwd=tmp_path)
        assert got.returncode == 2
        assert got.stderr.startswith(f"error: pop.csv: {error}")
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


# sha256 of the CSVs these commands wrote before the Laplace draws were
# batched: a draw taken out of stream order changes them.
GOLDEN_CSV_SHA256 = {
    ("epsilon-sweep", "--trials", "20", "--seed", "5"): {
        "epsilon_sweep.csv":
            "2f2e04dedb831f2c524ef4c79dfc417a01867df87f7b0b8e476b7286a6522355",
        "noised_points_eps_0_01.csv":
            "a8caf8d3902b7f0b1280db5d2b595faab27cc7d5e434b8b59b3eec1c9064c8f7",
        "noised_points_eps_0_05.csv":
            "73b7f5dbd8cea91c5ccb6d5f54c8b28e41d0c4e2928fbfc96205ae8cee6090b6",
        "noised_points_eps_0_1.csv":
            "c50a059ef4a673e9dcf0aef43bb79da13a6373425f03458af4e4f28295938c5c",
        "noised_points_eps_0_2.csv":
            "a7f94786604b34fa6e18770893d55c97308076aa47d1d7ef99731e095ae1c7c2",
        "noised_points_eps_0_5.csv":
            "a0433ccfa76c2193d12b6349bf7c98321b8f674c464e856631020da7f0453871",
        "noised_points_eps_1.csv":
            "c41239ff08639cae1bd7b5c176becd931676351d1fbfd1627dc0da88660d1644",
    },
    ("dp", "--epsilon", "0.5", "--trials", "5", "--seed", "5"): {
        "dp_points.csv":
            "7adf87e47295b7f101639d6b767d936f7241e9e64abe16c289211d240c65fbf9",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_CSV_SHA256))
def test_noised_csv_bytes_are_golden(argv, tmp_path, capsys):
    assert main(list(argv) + ["--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*.csv"))}
    assert got == GOLDEN_CSV_SHA256[argv]


# `ioht gen` output, a trace CSV (through save_csv's vectorised rounding)
# and a population CSV, pinned byte for byte.
GOLDEN_GEN_SHA256 = {
    ("gen", "--n", "1420", "--seed", "7"):
        "bac17b5e11b6cf7c4ee8876bbe05c7124cc877618e0020975cb433da97101263",
    ("gen", "--n", "100000", "--seed", "7", "--drift", "8", "--noise", "1.5"):
        "bbe2ab0354587b5e4a5c349bc54079548172e6d1c97aa099a87c54b5c37318a1",
    ("gen", "--population", "--n", "130", "--seed", "5"):
        "7df34c696bf8d05ac69704c258f2d7f0d54f6d1891b94f4b48d64ef2738c3909",
}


@pytest.mark.parametrize("argv", list(GOLDEN_GEN_SHA256))
def test_gen_csv_bytes_are_golden(argv, tmp_path, capsys):
    out = tmp_path / "gen.csv"
    assert main(list(argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_GEN_SHA256[argv]
