"""Benchmark for ioht-pipeline: one client, a closed loop of ops, no threads.

    python3 perfbench/run.py --workload paper-1420 --seed 7 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from src/.
Each run prints its provenance and every metric with its unit, then, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics;
--trace 1 gives the per-layer metrics of a separate traced run.
`--workload all` runs every workload untraced and prints one table.
See perfbench/NOTES.md for the workloads and what each metric should move.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = REPO / ".perfbench_out"
CHILD_TIMEOUT_S = 170
MIN_OPS = 3  # a median of fewer ops is too noisy; bulk-1m ops take 7-15 s
DIAG = "diagnostics "  # prefix of the machine-readable diagnostics line


def _layer_metrics(s, wl, sizes, uplink_messages: int) -> dict:
    """Per-layer metrics of a traced run, per op unless named for set-up."""
    encrypt_calls = s.calls("crypto.encrypt")
    kept_in = s.items_in("inference.select_samples")
    kept_out = s.items_out("inference.select_samples")
    return {
        "trace.load_csv.ms": (s.ms("trace.load_csv"), "ms"),
        "trace.generate_trace.ms": (s.setup_ms("trace.generate_trace"), "ms"),
        "trace.generate_population.ms": (s.setup_ms("trace.generate_population"), "ms"),
        "trace.values.calls": (s.calls("trace.values"), "count"),
        "trace.values.ms": (s.ms("trace.values"), "ms"),
        "trace.times.calls": (s.calls("trace.times"), "count"),
        "trace.times.ms": (s.ms("trace.times"), "ms"),
        "inference.select_samples.ms": (s.ms("inference.select_samples"), "ms"),
        "inference.reconstruct.ms": (s.ms("inference.reconstruct"), "ms"),
        "inference.compute_metrics.self_ms": (s.self_ms("inference.compute_metrics"), "ms"),
        "inference.gap_areas.ms": (s.ms("inference.gap_areas"), "ms"),
        "inference.kept": (kept_out, "count"),
        "inference.kept_ratio": (kept_out / kept_in if kept_in else 0.0, "ratio"),
        "crypto.serialize_records.calls": (s.calls("crypto.serialize_records"), "count"),
        "crypto.serialize_records.ms": (s.ms("crypto.serialize_records"), "ms"),
        "crypto.encrypt.calls": (encrypt_calls, "count"),
        "crypto.encrypt.ms": (s.ms("crypto.encrypt"), "ms"),
        "crypto.decrypt.ms": (s.ms("crypto.decrypt"), "ms"),
        "crypto.parse_payload.ms": (s.ms("crypto.parse_payload"), "ms"),
        "crypto.wire_bytes": (s.items_out("crypto.encrypt"), "bytes"),
        "crypto.useful_ratio": (uplink_messages / s.ops / encrypt_calls if encrypt_calls else 0.0,
                                "ratio"),
        "pipeline.run_pipeline.ms": (s.ms("pipeline.run_pipeline"), "ms"),
        "pipeline.run_pipeline.self_ms": (s.self_ms("pipeline.run_pipeline"), "ms"),
        "pipeline.to_json.ms": (s.ms("pipeline.to_json"), "ms"),
        "dp.l1_sensitivity.ms": (s.ms("dp.l1_sensitivity"), "ms"),
        "dp.noisy_query.ms": (s.ms("dp.noisy_query"), "ms"),
        "dp.perturb_series.ms": (s.ms("dp.perturb_series"), "ms"),
        "dp.derive_streams.ms": (s.ms("dp.derive_streams"), "ms"),
        "dp.laplace_draws": (wl.laplace_draws(sizes), "count"),
        "experiments.run_epsilon_sweep.self_ms": (s.self_ms("experiments.run_epsilon_sweep"), "ms"),
        "experiments.run_vr_sweep.self_ms": (s.self_ms("experiments.run_vr_sweep"), "ms"),
        "experiments.run_size_sweep.ms": (s.ms("experiments.run_size_sweep"), "ms"),
    }


def require_source() -> None:
    if not (SRC / "ioht_pipeline" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'ioht_pipeline'}; "
                 "run from the root of a full checkout")


def load_package():
    """Import ioht_pipeline from this checkout's src/, never from elsewhere."""
    require_source()
    sys.path.insert(0, str(SRC))
    import ioht_pipeline
    import ioht_pipeline.experiments  # noqa: F401  (not imported by the package itself)
    if Path(ioht_pipeline.__file__).resolve().parent != SRC / "ioht_pipeline":
        sys.exit(f"perfbench: imported ioht_pipeline from {ioht_pipeline.__file__}, not {SRC}")
    return ioht_pipeline


def _git_sha():
    try:
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != REPO:
        return None  # not a git checkout of its own, e.g. an exported tree
    return lines[1]


def provenance(wl, args, sizes) -> dict:
    import cryptography
    import numpy
    try:
        from cryptography.hazmat.backends.openssl import backend
        openssl = backend.openssl_version_text()
    except (ImportError, AttributeError):
        openssl = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ioht_pipeline").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name,
        "seed": args.seed,
        "n": sizes.n or None,
        "N": sizes.population,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "openssl": openssl,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _sizes(wl, args):
    from workloads import Sizes
    return Sizes(n=wl.sizes.n if args.n is None or not wl.sizes.n else args.n,
                 population=wl.sizes.population if args.population is None else args.population)


def _child_args(args, *extra) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed)]
    for flag in ("n", "population"):
        if getattr(args, flag) is not None:
            cmd += [f"--{flag}", str(getattr(args, flag))]
    return cmd + list(extra)


def _run_child(cmd: list[str]) -> tuple[dict, dict]:
    """Run a child benchmark process; return its diagnostics and result."""
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {cmd[2:]} exited {proc.returncode}")
    diag = next((json.loads(l[len(DIAG):]) for l in lines if l.startswith(DIAG)), {})
    return diag, json.loads(lines[-1])


def setup_child(args) -> None:
    """One timed set-up in a fresh interpreter: import, inputs, warm-up op."""
    from calibrate import HostClock, warm_up
    warm_up()
    with HostClock() as clock:
        from workloads import SMOKE, WORKLOADS
        io = load_package()
        wl = WORKLOADS[args.workload]
        workdir = Path(args.workdir)
        wl.setup(io, args.seed, _sizes(wl, args), workdir)
        wl.op(io, wl.setup(io, args.seed, SMOKE, workdir))
    print(json.dumps({"setup_s": clock.scaled, "wall_setup_s": clock.wall}))


def run_ops(wl, io, inputs, args, recorder=None):
    """The closed loop: op, then check, while a typical op still ends within
    --seconds, and for at least MIN_OPS ops (or for exactly --ops ops).

    The first op's output is checked against the references; every later
    op's output must repeat it byte for byte. Ops are timed with a HostClock
    (see calibrate.py); traced ops get no calibration blocks inside them.
    """
    from calibrate import HostClock
    clocks, uplink, failed, first = [], 0, 0, None
    start = time.perf_counter()
    while (len(clocks) < args.ops) if args.ops else (len(clocks) < MIN_OPS or (
            time.perf_counter() - start + statistics.median(c.wall for c in clocks)
            <= args.seconds)):
        out, problems = None, []
        clock = HostClock(ticks=recorder is None)
        if recorder is not None:
            recorder.tag = len(clocks)
        try:
            with clock:
                out = wl.op(io, inputs)
        except Exception:  # a failed op is counted, and the loop goes on
            problems = [traceback.format_exc()]
        finally:
            clocks.append(clock)
            if recorder is not None:
                recorder.tag = None
        if out is not None:
            fp = wl.fingerprint(out)
            if first is None:
                problems = wl.check(io, inputs, out)
                first = fp
            elif fp != first:
                problems = ["output is not byte-identical to the first op's"]
            uplink += wl.uplink_messages(out)
            out = None  # release the output before the next op allocates its own
        if problems:
            failed += 1
            print(f"op {len(clocks) - 1} failed:", *problems[:5], sep="\n  ", file=sys.stderr)
    return clocks, failed, uplink


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}{note}")


def _emit(wl, args, prov, metrics: dict, attempted: int, failed: int, diag: dict) -> None:
    """Print provenance, metrics and diagnostics, save them, then the result line."""
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    _print_metric("error_rate", failed / attempted, "ratio", f" ({failed} of {attempted} ops)")
    print(DIAG + json.dumps(diag, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    saved = dict(result, provenance=prov, diagnostics=diag)
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))


def timed_run(wl, args, sizes, workdir: Path) -> None:
    """End-to-end metrics; times are scaled to the reference host speed."""
    from workloads import SMOKE
    setups = []
    for _ in range(args.setup_repeats or wl.setup_repeats):
        _, res = _run_child(_child_args(args, "--workload", wl.name, "--setup-child",
                                        "--workdir", str(workdir)))
        setups.append(res)
    io = load_package()
    inputs = wl.attach(io, args.seed, sizes, workdir)
    wl.op(io, wl.setup(io, args.seed, SMOKE, workdir))  # warm-up
    clocks, failed, _ = run_ops(wl, io, inputs, args)
    scaled = [c.scaled for c in clocks]
    wall = [c.wall for c in clocks]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "op_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
        "samples_per_s": (wl.samples(sizes) * len(scaled) / sum(scaled), "samples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90 = 1000.0 * _p90(scaled)
    print(f"diagnostic bench.op_p90_ms = {p90!r} ms ({len(clocks)} ops)")
    diag = {
        "error_rate": failed / len(clocks),
        "ops": len(clocks),
        "op_p90_ms": p90,
        "host_factor_p50": statistics.median(f for c in clocks for f in c.factors),
        "wall_op_p50_ms": 1000.0 * statistics.median(wall),
        "wall_op_p90_ms": 1000.0 * _p90(wall),
        "wall_setup_s_each": [r["wall_setup_s"] for r in setups],
    }
    _emit(wl, args, provenance(wl, args, sizes), metrics, len(clocks), failed, diag)


def traced_run(wl, args, sizes, workdir: Path) -> None:
    """Per-layer metrics. The untraced reference for the overhead runs in a
    child process, so the traced and timed runs never share a process."""
    from tracing import Recorder, SETUP, Summary
    from workloads import SMOKE
    half = args.seconds / 2.0
    extra = ["--workload", wl.name, "--trace", "0", "--seconds", str(half), "--setup-repeats", "1"]
    if args.ops:
        extra += ["--ops", str(args.ops)]
    child_diag, child = _run_child(_child_args(args, *extra))

    io = load_package()
    rec = Recorder()
    rec.install()
    rec.tag = SETUP
    inputs = wl.setup(io, args.seed, sizes, workdir)
    rec.tag = None
    wl.op(io, wl.setup(io, args.seed, SMOKE, workdir))  # warm-up, not recorded
    args.seconds = half
    clocks, failed, uplink = run_ops(wl, io, inputs, args, recorder=rec)
    rec.uninstall()

    summary = Summary(rec.spans, len(clocks))
    metrics = _layer_metrics(summary, wl, sizes, uplink)
    traced_p50 = 1000.0 * statistics.median(c.scaled for c in clocks)
    untraced_p50 = child["metrics"]["op_p50_ms"]["value"]
    metrics["bench.tracing_overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    metrics["bench.op_p90_ms"] = (child_diag["op_p90_ms"], "ms")
    metrics["bench.op_p90_samples"] = (child_diag["ops"], "count")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    rec.write(spans_path)
    diag = {"traced_ops": len(clocks), "traced_op_p50_ms": traced_p50,
            "untraced_op_p50_ms": untraced_p50, "untraced_ops": child_diag["ops"],
            "missing_names": rec.missing, "spans": len(rec.spans), "spans_file": str(spans_path)}
    if rec.missing:
        print("no span for: " + ", ".join(rec.missing), file=sys.stderr)
    _emit(wl, args, provenance(wl, args, sizes), metrics,
          child["attempted"] + len(clocks), child["failed"] + failed, diag)


def run_all(args) -> int:
    """Every workload untraced, one after another, in one table."""
    from workloads import WORKLOADS
    correct, attempted, failed, merged = True, 0, 0, {}
    print(f"{'workload':<12} {'metric':<14} {'value':>16}  unit")
    for name in WORKLOADS:
        extra = ["--workload", name, "--trace", "0", "--seconds", str(args.seconds)]
        if args.ops:
            extra += ["--ops", str(args.ops)]
        diag, res = _run_child(_child_args(args, *extra))
        rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        rows.append(("error_rate", diag["error_rate"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<12} {metric:<14} {value:>16.6g}  {unit}")
            merged[f"{name}.{metric}"] = {"value": value, "unit": unit}
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="paper-1420, bulk-1m, dp-release, or all of them")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=32.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, help="override the trace length (smoke tests)")
    p.add_argument("--population", type=int, help="override the population size (smoke tests)")
    p.add_argument("--ops", type=int, default=0, help="run exactly this many ops, ignoring --seconds")
    p.add_argument("--setup-repeats", type=int, default=0,
                   help="set-ups to time; default per workload")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    require_source()
    if args.setup_child:  # before anything imports numpy: set-up time includes it
        setup_child(args)
        return 0
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    sizes = _sizes(wl, args)
    workdir = OUT_DIR / "work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (traced_run if args.trace else timed_run)(wl, args, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
