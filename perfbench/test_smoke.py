"""Smoke test of the benchmark at tiny sizes: n = 200, N = 50 and 2 ops.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
TINY = ("--n", "200", "--population", "50", "--ops", "2", "--setup-repeats", "1")


def run_bench(*args) -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=REPO,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines = run_bench("--workload", workload, "--trace", str(trace), "--seed", "7", *TINY)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(l.startswith(f"metric {name} = ") and l.endswith(f" {unit}") for l in lines), name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (4 if trace else 2)  # a traced run also runs untraced
    assert any(l.startswith("metric error_rate = 0.0 ratio") for l in lines)


def test_paper_counts_at_the_default_seed():
    lines = run_bench("--workload", "paper-1420", "--trace", "1", "--ops", "2",
                      "--setup-repeats", "1")
    m = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    # 11 uplink batches plus 24 batches of the unfiltered baseline.
    assert m["crypto.encrypt.calls"] == 35
    assert m["crypto.useful_ratio"] == 11 / 35
    # The pipeline and the five-point VR grid each read values 4 and times 2 times.
    assert (m["trace.values.calls"], m["trace.times.calls"]) == (24, 12)
    assert m["dp.laplace_draws"] == 3


def test_tracer_skips_names_that_do_not_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import ioht_pipeline.experiments  # noqa: F401  (the recorder looks names up in sys.modules)
    import tracing

    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (
        ("gone.fn", "ioht_pipeline.pipeline", "no_such_function"),
        ("gone.module", "ioht_pipeline.no_such_module", "f"),
    ))
    monkeypatch.setattr(tracing, "CLASS_MEMBERS", tracing.CLASS_MEMBERS + (
        ("gone.member", "ioht_pipeline.trace", "Trace", "no_such_member"),
    ))
    rec = tracing.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.missing == ["ioht_pipeline.pipeline.no_such_function",
                           "ioht_pipeline.no_such_module.f",
                           "ioht_pipeline.trace.Trace.no_such_member"]
    summary = tracing.Summary(rec.spans, ops=1)
    assert (summary.ms("gone.fn"), summary.calls("gone.member")) == (0.0, 0.0)


def test_exits_without_a_result_outside_a_checkout():
    """With only BENCHMARK.json and the benchmark's files, there is nothing to build."""
    bare = REPO / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-1420",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
