"""The benchmark's workloads: inputs made from a seed, one op, and the
checks every op's output must pass.

Ops call only the package's public API, and look each function up on its
module at call time, so the tracer's wrappers see every call. Inputs use the
parameters of `ioht gen` (period 60, drift 8.0, noise 1.5) and the pipeline
config is the `ioht pipeline` default.
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

PERIOD = 60
DRIFT = 8.0
NOISE = 1.5
VR = 0.025
BEACON = 60
BATCH = 60
EPSILON = 0.5
KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
HR_BOUNDS = (40.0, 140.0)
BT_BOUNDS = (30.0, 45.0)
SWEEP_TRIALS = 200
EPSILONS = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)  # the epsilon sweep's default grid


@dataclass(frozen=True)
class Sizes:
    n: int  # trace samples; 0 when the workload has no trace
    population: int


# The warm-up op runs at these sizes; so does the smoke test.
SMOKE = Sizes(n=200, population=50)


def pipeline_config(io):
    return io.PipelineConfig(
        inference=io.InferenceConfig(vr=VR, beacon_period=BEACON, recon_mode="linear"),
        suite=io.SUITES["aes-128-ecb"],
        key=KEY,
        dp=io.DpParams(epsilon=EPSILON, sensitivity=1.0),
        queries=(io.DpQuery("mean", "heart_rate"), io.DpQuery("mean", "body_temperature"),
                 io.DpQuery("count")),
        batch_samples=BATCH,
        master_seed=0,
        energy=io.EnergyModel(),
    )


def synthetic_trace(io, seed: int, n: int):
    spec = io.SyntheticSpec(kind="heart-rate", n=n, period=PERIOD, seed=seed,
                            baseline=70.0, drift_amplitude=DRIFT, noise_scale=NOISE)
    return io.generate_trace(spec)


def rows_json(rows) -> str:
    return json.dumps([dataclasses.asdict(r) for r in rows], sort_keys=True)


def _population_arrays(population):
    hr = np.array([r.heart_rate for r in population], dtype=np.float64)
    bt = np.array([r.body_temperature for r in population], dtype=np.float64)
    return hr, bt


def _check_pipeline(io, trace, population, report_json: str) -> list[str]:
    """Reference checks on one pipeline run over `trace`."""
    times = np.asarray(trace.times, dtype=np.int64)
    values = np.asarray(trace.values, dtype=np.float64)
    tx = io.select_samples(trace, io.InferenceConfig(vr=VR, beacon_period=BEACON))
    problems = checks.check_selection(tx.selected, values, VR, BEACON)
    hr, bt = _population_arrays(population)
    problems += checks.check_report(
        json.loads(report_json), times, values, vr=VR, beacon=BEACON, batch=BATCH,
        population_hr=hr, population_bt=bt, epsilon=EPSILON,
    )
    return problems


def _uplink_messages(report_json: str) -> int:
    hops = json.loads(report_json)["log"]
    return sum(h["messages"] for h in hops if h["hop"] == "gateway->edge")


class Workload:
    name = ""
    sizes = Sizes(0, 0)
    setup_repeats = 5

    def setup(self, io, seed: int, sizes: Sizes, workdir: Path):
        """Make the op's inputs from the seed; this is the timed set-up."""
        raise NotImplementedError

    def attach(self, io, seed: int, sizes: Sizes, workdir: Path):
        """Inputs for the measuring process, after `setup` ran elsewhere."""
        return self.setup(io, seed, sizes, workdir)

    def op(self, io, inputs):
        raise NotImplementedError

    def check(self, io, inputs, out) -> list[str]:
        """Compare one op's output with the references."""
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        """Output bytes that must repeat exactly on every op."""
        raise NotImplementedError

    def samples(self, sizes: Sizes) -> int:
        """Input samples one op consumes, for samples_per_s."""
        return sizes.n

    def laplace_draws(self, sizes: Sizes) -> int:
        """Laplace draws one op makes, from its inputs: one per noisy query."""
        return 3

    def uplink_messages(self, out) -> int:
        return 0


@dataclass
class TraceInputs:
    trace: object
    population: tuple
    config: object


@dataclass
class PaperOut:
    report_json: str
    vr_rows: list
    size_rows: list


class Paper1420(Workload):
    name = "paper-1420"
    sizes = Sizes(n=1420, population=130)

    def setup(self, io, seed, sizes, workdir):
        return TraceInputs(synthetic_trace(io, seed, sizes.n),
                           io.generate_population(sizes.population, seed), pipeline_config(io))

    def op(self, io, inp):
        report = io.run_pipeline(inp.trace, inp.config, inp.population)
        return PaperOut(
            report_json=report.to_json(),
            vr_rows=io.experiments.run_vr_sweep(inp.trace, beacon_period=BEACON),
            size_rows=io.experiments.run_size_sweep(),
        )

    def check(self, io, inp, out):
        times = np.asarray(inp.trace.times, dtype=np.int64)
        values = np.asarray(inp.trace.values, dtype=np.float64)
        return (_check_pipeline(io, inp.trace, inp.population, out.report_json)
                + checks.check_vr_rows(out.vr_rows, times, values, BEACON)
                + checks.check_size_rows(out.size_rows))

    def fingerprint(self, out):
        return "\n".join((out.report_json, rows_json(out.vr_rows), rows_json(out.size_rows)))

    def uplink_messages(self, out):
        return _uplink_messages(out.report_json)


@dataclass
class BulkOut:
    trace: object
    report_json: str


class Bulk1M(Workload):
    name = "bulk-1m"
    sizes = Sizes(n=1_000_000, population=130)
    setup_repeats = 3

    @staticmethod
    def _csv(workdir: Path, seed: int, n: int) -> Path:
        return workdir / f"bulk-seed{seed}-n{n}.csv"

    def setup(self, io, seed, sizes, workdir):
        path = self._csv(workdir, seed, sizes.n)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        io.save_csv(synthetic_trace(io, seed, sizes.n), tmp)
        os.replace(tmp, path)
        return self.attach(io, seed, sizes, workdir)

    def attach(self, io, seed, sizes, workdir):
        path = self._csv(workdir, seed, sizes.n)
        if not path.is_file():
            raise FileNotFoundError(f"{path}: set-up has not written the trace CSV")
        return TraceInputs(path, io.generate_population(sizes.population, seed), pipeline_config(io))

    def op(self, io, inp):
        trace = io.load_csv(inp.trace, "heart-rate", "bpm")
        report = io.run_pipeline(trace, inp.config, inp.population)
        return BulkOut(trace=trace, report_json=report.to_json())

    def check(self, io, inp, out):
        problems = _check_pipeline(io, out.trace, inp.population, out.report_json)
        if len(out.trace) != json.loads(out.report_json)["inference_metrics"]["n"]:
            problems.append("loaded trace length differs from the report's n")
        return problems

    def fingerprint(self, out):
        return out.report_json

    def uplink_messages(self, out):
        return _uplink_messages(out.report_json)


@dataclass
class DpInputs:
    population: tuple
    seed: int


@dataclass
class DpOut:
    sensitivities: tuple
    results: list
    sweep_rows: list


class DpRelease(Workload):
    name = "dp-release"
    sizes = Sizes(n=0, population=1000)

    def setup(self, io, seed, sizes, workdir):
        return DpInputs(io.generate_population(sizes.population, seed), seed)

    def op(self, io, inp):
        pop = inp.population
        queries = (io.DpQuery("mean", "heart_rate"), io.DpQuery("mean", "body_temperature"),
                   io.DpQuery("count"))
        sens = (
            io.l1_sensitivity(queries[0], pop, bounds=HR_BOUNDS, neighbor="replacement"),
            io.l1_sensitivity(queries[1], pop, bounds=BT_BOUNDS, neighbor="replacement"),
            io.l1_sensitivity(queries[2], pop, neighbor="deletion"),
        )
        # Query streams are numbered after the sweep's one-per-epsilon streams.
        results = [
            io.noisy_query(pop, q, io.DpParams(epsilon=EPSILON, sensitivity=s),
                           np.random.default_rng(np.random.SeedSequence([inp.seed, len(EPSILONS) + i])))
            for i, (q, s) in enumerate(zip(queries, sens))
        ]
        rows = io.experiments.run_epsilon_sweep(pop, sensitivity=sens[0],
                                                trials=SWEEP_TRIALS, seed=inp.seed)
        return DpOut(sens, results, rows)

    def check(self, io, inp, out):
        hr, bt = _population_arrays(inp.population)
        want = (checks.mean_replacement_sensitivity(hr, *HR_BOUNDS),
                checks.mean_replacement_sensitivity(bt, *BT_BOUNDS), 1.0)
        problems = []
        for label, got, w in zip(("mean HR", "mean BT", "count"), out.sensitivities, want):
            problems += checks.check_sensitivity(got, w, label)
        truths = (float(np.mean(hr)), float(np.mean(bt)), float(len(hr)))
        for label, r, truth, s in zip(("mean HR", "mean BT", "count"), out.results, truths,
                                      out.sensitivities):
            if not checks.close(r.real_result, truth, checks.STAT_RTOL):
                problems.append(f"noisy_query({label}) real_result {r.real_result}, reference {truth}")
            if r.params.scale != s / EPSILON or r.out_result != r.real_result + r.noise:
                problems.append(f"noisy_query({label}) scale or out_result inconsistent")
        problems += self._check_sweep(out.sweep_rows, hr, out.sensitivities[0])
        return problems

    @staticmethod
    def _check_sweep(rows, hr: np.ndarray, sensitivity: float) -> list[str]:
        if tuple(r.epsilon for r in rows) != EPSILONS:
            return [f"epsilon sweep epsilons {[r.epsilon for r in rows]}, expected {EPSILONS}"]
        problems = []
        real = float(np.mean(hr))
        n = len(hr)
        for r in rows:
            if not checks.close(r.real_mean, real, checks.STAT_RTOL) or len(r.noised_series) != n:
                problems.append(f"epsilon sweep at {r.epsilon}: real_mean {r.real_mean} "
                                f"or series length {len(r.noised_series)} wrong")
            # E|mean of n Laplace(b) draws| is close to b * sqrt(2/n) * sqrt(2/pi);
            # a factor of 2 either way is far outside 200 trials' spread.
            b = sensitivity / r.epsilon
            expected = b * np.sqrt(2.0 / n) * np.sqrt(2.0 / np.pi)
            if not 0.5 * expected < r.mean_abs_dev < 2.0 * expected:
                problems.append(f"epsilon sweep at {r.epsilon}: mean_abs_dev {r.mean_abs_dev} "
                                f"far from the Laplace expectation {expected}")
        return problems

    def fingerprint(self, out):
        results = [(r.real_result, r.noise, r.out_result, r.params.epsilon, r.params.sensitivity)
                   for r in out.results]
        return json.dumps([list(out.sensitivities), results]) + "\n" + rows_json(out.sweep_rows)

    def samples(self, sizes):
        return sizes.population

    def laplace_draws(self, sizes):
        # Three noisy queries, then per epsilon one perturbed series and
        # SWEEP_TRIALS more series of population-many draws.
        return 3 + len(EPSILONS) * sizes.population * (1 + SWEEP_TRIALS)


WORKLOADS = {w.name: w for w in (Paper1420(), Bulk1M(), DpRelease())}
