"""Command-line front door for generators, sweeps and the full pipeline.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
invariant failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import chart
from .crypto import SUITES, message_batch
from .dp import (
    AGGREGATES,
    EPSILON_PRESETS,
    QUERY_FIELDS,
    DpParams,
    DpQuery,
    add_noise,
    derive_streams,
    evaluate_query,
    perturb_series,
)
from .experiments import (
    DEFAULT_SAVINGS_GRID,
    DEFAULT_VR_GRID,
    run_epsilon_sweep,
    run_size_sweep,
    run_vr_sweep,
)
from .inference import (
    RECON_MODES,
    InferenceConfig,
    compute_metrics,
    metrics_report,
    reconstruct,
    select_samples,
)
from .pipeline import PipelineConfig, run_pipeline
from .trace import (
    BT_MEAN,
    KIND_UNITS,
    KINDS,
    SyntheticSpec,
    TraceError,
    _integer,
    generate_population,
    generate_trace,
    load_csv,
    load_population_csv,
    load_xy_csv,
    save_csv,
    save_population_csv,
    save_table_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


# The synthetic trace's --baseline, --drift and --noise defaults per --kind.
_SYNTHETIC_DEFAULTS = {
    "heart-rate": (70.0, 8.0, 1.5),
    "body-temperature": (BT_MEAN, 0.5, 0.1),
    "other": (70.0, 8.0, 1.5),
}


def _add_trace_source(p: argparse.ArgumentParser) -> None:
    def by_kind(i: int) -> str:
        return "default by --kind: " + ", ".join(
            f"{kind} {values[i]:g}" for kind, values in _SYNTHETIC_DEFAULTS.items())

    p.add_argument("--input", help="trace CSV (t,value); omit to use synthetic data")
    p.add_argument("--kind", default="heart-rate", choices=KINDS, help="sensor kind; sets the unit")
    p.add_argument("--n", type=int, default=1420)
    p.add_argument("--period", type=int, default=60)
    p.add_argument("--baseline", type=float, help=by_kind(0))
    p.add_argument("--drift", type=float, help=by_kind(1))
    p.add_argument("--noise", type=float, help=by_kind(2))
    p.add_argument("--seed", type=int, default=0)


def _resolve_trace(args):
    if args.input:
        return load_csv(args.input, args.kind, KIND_UNITS[args.kind])
    baseline, drift, noise = _SYNTHETIC_DEFAULTS[args.kind]
    spec = SyntheticSpec(
        kind=args.kind, n=args.n, period=args.period, seed=args.seed,
        baseline=baseline if args.baseline is None else args.baseline,
        drift_amplitude=drift if args.drift is None else args.drift,
        noise_scale=noise if args.noise is None else args.noise,
    )
    return generate_trace(spec)


def _save_points_csv(path: Path, values, noised) -> None:
    save_table_csv(path, ["index", "original", "noised"],
                   ([i, repr(v), repr(nv)] for i, (v, nv) in enumerate(zip(values, noised))))


def build_parser() -> _Parser:
    parser = _Parser(prog="ioht", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic trace or population CSV")
    p.set_defaults(run=_cmd_gen)
    _add_trace_source(p)
    p.add_argument("--population", action="store_true",
                   help="generate a population CSV instead of a trace")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("infer", help="run the variance-rate filter on one trace")
    p.set_defaults(run=_cmd_infer)
    _add_trace_source(p)
    p.add_argument("--vr", type=float, default=0.025)
    p.add_argument("--beacon", type=int, default=None)
    p.add_argument("--mode", default="linear", choices=RECON_MODES)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("vr-sweep", help="savings table over a variance-rate grid")
    p.set_defaults(run=_cmd_vr_sweep)
    _add_trace_source(p)
    p.add_argument("--grid", type=float, nargs="+", default=list(DEFAULT_VR_GRID))
    p.add_argument("--beacon", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("size-sweep", help="plaintext/ciphertext sizes per savings level")
    p.set_defaults(run=_cmd_size_sweep)
    p.add_argument("--grid", type=float, nargs="+", default=list(DEFAULT_SAVINGS_GRID))
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("dp", help="noisy statistical query over a population")
    p.set_defaults(run=_cmd_dp)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--query", default="mean", choices=AGGREGATES)
    p.add_argument("--field", default="heart_rate", choices=QUERY_FIELDS)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", help="population CSV; omit for a synthetic one")
    p.add_argument("--population-size", type=int, default=130)
    p.add_argument("--out", help="directory for the per-point CSV (optional)")

    p = sub.add_parser("epsilon-sweep", help="noise vs epsilon over the preset grid")
    p.set_defaults(run=_cmd_epsilon_sweep)
    p.add_argument("--grid", type=float, nargs="+", default=list(EPSILON_PRESETS))
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", help="population CSV; omit for a synthetic one")
    p.add_argument("--population-size", type=int, default=130)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pipeline", help="run the full two-tier pipeline")
    p.set_defaults(run=_cmd_pipeline)
    _add_trace_source(p)
    p.add_argument("--vr", type=float, default=0.025)
    p.add_argument("--beacon", type=int, default=60)
    p.add_argument("--mode", default="linear", choices=RECON_MODES)
    p.add_argument("--suite", default="aes-128-ecb", choices=sorted(SUITES))
    p.add_argument("--key", default="00112233445566778899aabbccddeeff",
                   help="cipher key as hex")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--batch", type=int, default=60)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--population-size", type=int, default=130)
    p.add_argument("--out", help="directory for report JSON and hop CSV (optional)")

    p = sub.add_parser("chart", help="render an x,y CSV as an SVG line chart")
    p.set_defaults(run=_cmd_chart)
    p.add_argument("--input", required=True, help="CSV with header and x,y columns")
    p.add_argument("--style", default="line", choices=["line", "points"])
    p.add_argument("--title", default="")
    p.add_argument("--out", required=True, help="output SVG path")
    return parser


def _cmd_gen(args) -> None:
    out = Path(args.out)
    if args.population:
        save_population_csv(generate_population(args.n, args.seed), out)
    else:
        save_csv(_resolve_trace(args), out)
    print(f"wrote {out}")


def _cmd_infer(args) -> None:
    config = InferenceConfig(vr=args.vr, beacon_period=args.beacon, recon_mode=args.mode)
    trace = _resolve_trace(args)
    tx = select_samples(trace, config)
    recon = reconstruct(trace, tx, args.mode)
    metrics = compute_metrics(trace, tx, recon)
    report = metrics_report(metrics, config)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        ar = "n/a" if metrics.ar is None else f"{metrics.ar:.1f}%"
        print(f"n={metrics.n} t={metrics.t} sr={metrics.sr:.1f}% "
              f"er={metrics.er:.3f} ar={ar} s_diff={metrics.s_diff:.3f}")


def _cmd_vr_sweep(args) -> None:
    for vr in args.grid:  # every option is checked before the trace is read
        InferenceConfig(vr=vr, beacon_period=args.beacon)
    trace = _resolve_trace(args)
    rows = run_vr_sweep(trace, args.grid, beacon_period=args.beacon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_table_csv(
        out / "vr_sweep.csv",
        ["vr", "t", "sr", "er", "ar", "s_diff"],
        [[r.vr, r.t, repr(r.sr), repr(r.er),
          "" if r.ar is None else repr(r.ar), repr(r.s_diff)] for r in rows],
    )
    (out / "vr_sweep.svg").write_text(chart.render_chart(
        [chart.Series("SR (%)", tuple((r.vr, r.sr) for r in rows))],
        title="Savings vs variance rate", x_label="variance rate", y_label="SR (%)",
    ))
    print(f"{'vr':>6} {'t':>6} {'sr%':>7} {'er':>8} {'ar%':>7}")
    for r in rows:
        ar = "n/a" if r.ar is None else f"{r.ar:7.1f}"
        print(f"{r.vr:6.3f} {r.t:6d} {r.sr:7.1f} {r.er:8.3f} {ar}")
    print(f"wrote {out / 'vr_sweep.csv'} and {out / 'vr_sweep.svg'}")


def _cmd_size_sweep(args) -> None:
    rows = run_size_sweep(args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suite_names = sorted(SUITES)
    save_table_csv(
        out / "size_sweep.csv",
        ["savings", "plaintext_bytes"] + suite_names,
        [[r.savings, r.plaintext_bytes] + [r.ciphertext_bytes[s] for s in suite_names]
         for r in rows],
    )
    series = [
        chart.Series(name, tuple((r.plaintext_bytes, r.ciphertext_bytes[name]) for r in rows))
        for name in suite_names
    ]
    (out / "size_sweep.svg").write_text(chart.render_chart(
        series, title="Ciphertext vs plaintext size",
        x_label="plaintext bytes", y_label="ciphertext bytes"))
    print(f"{'savings%':>9} {'plain':>6} " + " ".join(f"{s:>13}" for s in suite_names))
    for r in rows:
        cells = " ".join(f"{r.ciphertext_bytes[s]:13d}" for s in suite_names)
        print(f"{r.savings:9.1f} {r.plaintext_bytes:6d} {cells}")
    print(f"wrote {out / 'size_sweep.csv'} and {out / 'size_sweep.svg'}")


def _resolve_population(args):
    if args.population:
        return load_population_csv(args.population)
    return _generate_population(args, args.seed)


def _generate_population(args, seed: int):
    return generate_population(_integer("--population-size", args.population_size, 0), seed)


def _cmd_dp(args) -> None:
    _integer("--trials", args.trials, 1)
    query = DpQuery(aggregate=args.query,
                    field=None if args.query == "count" else args.field)
    params = DpParams(epsilon=args.epsilon, sensitivity=args.sensitivity)
    population = _resolve_population(args)
    streams = derive_streams(args.seed, args.trials + 1)  # the last is --out's
    real = evaluate_query(population, query)  # every trial releases the same rows' sum
    outs = [add_noise(real, params, rng).out_result
            for rng in itertools.islice(streams, args.trials)]
    mean_abs_dev = float(np.mean([abs(o - real) for o in outs]))
    if not np.isfinite(mean_abs_dev):
        raise ValueError(f"the mean absolute deviation overflows float64: "
                         f"sensitivity {params.sensitivity} is too large")
    print(json.dumps({
        "epsilon": params.epsilon,
        "sensitivity": params.sensitivity,
        "real_result": real,
        "out_results": outs,
        "mean_abs_deviation": mean_abs_dev,
    }, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        values = population[args.field].tolist()
        _save_points_csv(out / "dp_points.csv", values,
                         perturb_series(values, params, next(streams)))
        print(f"wrote {out / 'dp_points.csv'}", file=sys.stderr)


def _cmd_epsilon_sweep(args) -> None:
    tags: dict[str, float] = {}
    for eps in args.grid:
        tag = f"{eps:g}".replace(".", "_")
        if tag in tags:
            raise UsageError(f"--grid values {tags[tag]!r} and {eps!r} would both write "
                             f"noised_points_eps_{tag}.csv")
        tags[tag] = eps
        DpParams(epsilon=eps, sensitivity=args.sensitivity)
    _integer("--trials", args.trials, 1)  # every option is checked before the population is read
    population = _resolve_population(args)
    rows = run_epsilon_sweep(population, args.grid, sensitivity=args.sensitivity,
                             trials=args.trials, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_table_csv(
        out / "epsilon_sweep.csv",
        ["epsilon", "real_mean", "noised_mean", "mean_abs_dev"],
        [[r.epsilon, repr(r.real_mean), repr(r.noised_mean), repr(r.mean_abs_dev)]
         for r in rows],
    )
    values = population["heart_rate"].tolist()
    for tag, row in zip(tags, rows):
        _save_points_csv(out / f"noised_points_eps_{tag}.csv", values, row.noised_series)
        (out / f"noised_points_eps_{tag}.svg").write_text(chart.render_chart(
            [chart.Series("original", tuple(enumerate(values))),
             chart.Series("noised", tuple(enumerate(row.noised_series)))],
            title=f"epsilon = {row.epsilon:g}", x_label="index", y_label="heart rate",
        ))
    print(f"{'epsilon':>8} {'real_mean':>10} {'noised_mean':>12} {'mean_abs_dev':>13}")
    for r in rows:
        print(f"{r.epsilon:8.2f} {r.real_mean:10.2f} {r.noised_mean:12.2f} {r.mean_abs_dev:13.4f}")
    print(f"wrote {out / 'epsilon_sweep.csv'} and per-epsilon point files")


def _cmd_pipeline(args) -> None:
    try:
        key = bytes.fromhex(args.key)
    except ValueError as exc:
        raise UsageError(f"--key is not valid hex: {exc}") from exc
    config = PipelineConfig(
        inference=InferenceConfig(vr=args.vr, beacon_period=args.beacon, recon_mode=args.mode),
        suite=SUITES[args.suite],
        key=key,
        dp=DpParams(epsilon=args.epsilon, sensitivity=args.sensitivity),
        queries=(DpQuery("mean", "heart_rate"), DpQuery("mean", "body_temperature"),
                 DpQuery("count")),
        batch_samples=message_batch("--batch", args.batch),
        master_seed=args.master_seed,
    )
    population = _generate_population(args, args.master_seed)
    trace = _resolve_trace(args)
    report = run_pipeline(trace, config, population)
    report_json = report.to_json()
    print(report_json)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "pipeline_report.json").write_text(report_json + "\n")
        (out / "hops.csv").write_text(report.log_csv())
        print(f"wrote {out / 'pipeline_report.json'} and {out / 'hops.csv'}", file=sys.stderr)


def _cmd_chart(args) -> None:
    points = tuple(zip(*(column.tolist() for column in load_xy_csv(args.input))))
    if not points:
        raise TraceError(f"{args.input}: no data rows")
    try:
        Path(args.out).write_text(chart.render_chart(
            [chart.Series(Path(args.input).stem, points)], style=args.style, title=args.title))
    except ValueError as exc:
        raise TraceError(f"{args.input}: {exc}") from exc
    print(f"wrote {args.out}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="ignore"):  # a result an overflow spoils is refused, not warned of
            args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
