"""Refusals that no other test names: one table of bad inputs, each refused
with its own exception type and message, and the ones a command reaches,
each exiting 2 with its message on standard error."""
import math
import re

import numpy as np
import pytest
from test_pipeline import make_config

from ioht_pipeline.chart import Series, render_chart
from ioht_pipeline.cli import main
from ioht_pipeline.crypto import (
    RECORD_DTYPE,
    SUITES,
    ciphertext_size,
    frame_records,
    frame_sizes,
    read_frames,
)
from ioht_pipeline.dp import DpQuery, l1_sensitivity
from ioht_pipeline.experiments import run_epsilon_sweep, run_vr_sweep
from ioht_pipeline.inference import (
    InferenceConfig,
    TransmissionSet,
    compute_metrics,
    gap_areas,
    reconstruct,
    savings_ratio,
)
from ioht_pipeline.pipeline import EnergyModel, hop_log
from ioht_pipeline.trace import (
    SyntheticSpec,
    Trace,
    TraceError,
    as_population,
    generate_population,
    load_population_csv,
)

AES = SUITES["aes-128-ecb"]
NO_RECORDS = np.empty(0, RECORD_DTYPE)
TRACE = Trace("other", "dimensionless", [0, 1, 2], [1.0, 2.0, 3.0])
ONE_SAMPLE = Trace("other", "dimensionless", [0], [1.0])
EMPTY = Trace("other", "dimensionless", [], [])
# a population CSV whose header has every column but id
NO_ID = "gender,body_temperature,heart_rate\nfemale,36.8,70\n"


def write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return path


# (call on a temporary directory, exception type, message)
REFUSALS = {
    "beacon": (lambda tmp: InferenceConfig(beacon_period=0),
               ValueError, "beacon_period must be >= 1"),
    # a float period or batch would fail mid-run, as a slice or range step
    "beacon-float": (lambda tmp: InferenceConfig(beacon_period=2.5),
                     ValueError, "beacon_period must be an integer, got 2.5"),
    "beacon-whole-float": (lambda tmp: InferenceConfig(beacon_period=2.0),
                           ValueError, "beacon_period must be an integer, got 2.0"),
    "batch-float": (lambda tmp: make_config(batch_samples=2.5),
                    ValueError, "batch_samples must be an integer, got 2.5"),
    "batch-whole-float": (lambda tmp: make_config(batch_samples=60.0),
                          ValueError, "batch_samples must be an integer, got 60.0"),
    "config-mode": (lambda tmp: InferenceConfig(recon_mode="cubic"),
                    ValueError, "unknown recon_mode 'cubic'"),
    "reconstruct-mode": (lambda tmp: reconstruct(TRACE, TransmissionSet(3, [0, 2], [0, 0]),
                                                 "cubic"),
                         ValueError, "unknown recon_mode 'cubic'"),
    "reconstruct-mode-empty": (lambda tmp: reconstruct(EMPTY, TransmissionSet(0, [], []), "cubic"),
                               ValueError, "unknown recon_mode 'cubic'"),
    "tx-source-len": (lambda tmp: TransmissionSet(-1, [], []),
                      ValueError, "source_len must be >= 0, got -1"),
    "tx-source-len-float": (lambda tmp: TransmissionSet(2.5, [0, 1, 2], [0, 0, 0]),
                            ValueError, "source_len must be an integer, got 2.5"),
    "tx-length": (lambda tmp: reconstruct(TRACE, TransmissionSet(2, [0, 1], [0, 0])),
                  ValueError, "transmission set length does not match trace"),
    # checked before any sum: a longer set or reconstruction gave a negative
    # SR, or an AR from a sum of the wrong length
    "metrics-tx-length": (
        lambda tmp: compute_metrics(TRACE, TransmissionSet(5, [0, 2, 4], [0] * 3), np.ones(3)),
        ValueError, "transmission set length does not match trace"),
    "metrics-recon-length": (
        lambda tmp: compute_metrics(ONE_SAMPLE, TransmissionSet(1, [0], [0]), np.ones(3)),
        ValueError, "length mismatch between trace and reconstruction"),
    "integrate": (lambda tmp: gap_areas(ONE_SAMPLE, np.ones(1)),
                  ValueError, "need at least 2 samples to integrate"),
    "energy": (lambda tmp: EnergyModel(joules_per_message_overhead=-1e-4),
               ValueError, "joules_per_message_overhead must be finite and >= 0, got -0.0001"),
    "energy-inf": (lambda tmp: EnergyModel(joules_per_byte_tx=math.inf),
                   ValueError, "joules_per_byte_tx must be finite and >= 0, got inf"),
    "energy-nan": (lambda tmp: EnergyModel(joules_per_message_overhead=math.nan),
                   ValueError, "joules_per_message_overhead must be finite and >= 0, got nan"),
    "noise": (lambda tmp: SyntheticSpec(noise_scale=-1.0),
              TraceError, "noise_scale must be finite and >= 0, got -1.0"),
    "noise-nan": (lambda tmp: SyntheticSpec(noise_scale=math.nan),
                  TraceError, "noise_scale must be finite and >= 0, got nan"),
    # a seed is a whole number >= 0, for numpy's SeedSequence
    "spec-seed": (lambda tmp: SyntheticSpec(seed=-1), TraceError, "seed must be >= 0, got -1"),
    "population-seed": (lambda tmp: generate_population(3, -1),
                        TraceError, "seed must be >= 0, got -1"),
    "master-seed": (lambda tmp: make_config(master_seed=-1),
                    ValueError, "master_seed must be >= 0, got -1"),
    "master-seed-float": (lambda tmp: make_config(master_seed=1.5),
                          ValueError, "master_seed must be an integer, got 1.5"),
    "population-2d": (lambda tmp: as_population([[("p0", "female", 36.8, 70.0)]]),
                      TraceError, "a population is 1-D, got 2-D rows"),
    "no-id": (lambda tmp: load_population_csv(write(tmp, NO_ID)),
              TraceError, "in.csv: no id column in the header"),
    "aggregate": (lambda tmp: DpQuery("median"), ValueError, "unknown aggregate 'median'"),
    "field": (lambda tmp: DpQuery("mean"), ValueError, "mean query requires a valid field"),
    "neighbor": (lambda tmp: l1_sensitivity(DpQuery("count"), generate_population(3, 0),
                                            neighbor="addition"),
                 ValueError, "unknown neighbor model 'addition'"),
    "vr-sweep": (lambda tmp: run_vr_sweep(Trace("other", "dimensionless", [0, 1], [1.0, 2.0])),
                 ValueError, "vr sweep needs a trace of length >= 3"),
    "empty-population": (lambda tmp: run_epsilon_sweep(generate_population(0, 0)),
                         ValueError, "population must be non-empty"),
    "plaintext": (lambda tmp: ciphertext_size(-1, SUITES["aes-128-ecb"]),
                  ValueError, "plaintext_len must be >= 0, got -1"),
    # a float count would give a float size, or a ratio of a part sample
    "plaintext-float": (lambda tmp: ciphertext_size(2.5, SUITES["aes-128-ecb"]),
                        ValueError, "plaintext_len must be an integer, got 2.5"),
    "savings-float": (lambda tmp: savings_ratio(2.5, 1),
                      ValueError, "n must be an integer, got 2.5"),
    "savings-kept-float": (lambda tmp: savings_ratio(3, 1.5),
                           ValueError, "t must be an integer, got 1.5"),
    "savings-empty": (lambda tmp: savings_ratio(0, 0), ValueError, "n must be >= 1, got 0"),
    # a header counts its records in 32 bits
    "batch": (lambda tmp: frame_records("other", "dimensionless", NO_RECORDS, 2**32, AES),
              ValueError, "batch must be in [1, 4294967295], got 4294967296"),
    "frame-sizes-count": (lambda tmp: frame_sizes(-1, 60, AES),
                          ValueError, "record_count must be >= 0, got -1"),
    "frame-sizes-count-float": (lambda tmp: frame_sizes(2.5, 60, AES),
                                ValueError, "record_count must be an integer, got 2.5"),
    "style": (lambda tmp: render_chart([Series("s", ((0.0, 1.0),))], style="bars"),
              ValueError, "unknown style 'bars'"),
    "key": (lambda tmp: make_config(key=bytes(2)),
            ValueError, "aes-128-ecb needs a 16-byte key, got 2"),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_type_and_message(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)) as refused:
        call(tmp_path)
    assert refused.type is error


# (command line, input file text or None, message); {input} and {out} name
# files in a temporary directory
COMMAND_REFUSALS = {
    "infer-beacon": (["infer", "--n", "50", "--beacon", "0"], None,
                     "beacon_period must be >= 1"),
    "gen-noise": (["gen", "--n", "50", "--noise", "-1", "--out", "{out}"], None,
                  "noise_scale must be finite and >= 0, got -1.0"),
    "gen-noise-nan": (["gen", "--n", "50", "--noise", "nan", "--out", "{out}"], None,
                      "noise_scale must be finite and >= 0, got nan"),
    "infer-noise-nan": (["infer", "--n", "50", "--noise", "nan", "--seed", "7"], None,
                        "noise_scale must be finite and >= 0, got nan"),
    "gen-seed": (["gen", "--n", "50", "--seed", "-1", "--out", "{out}"], None,
                 "seed must be >= 0, got -1"),
    "dp-seed": (["dp", "--epsilon", "0.5", "--seed", "-1", "--out", "{out}"], None,
                "seed must be >= 0, got -1"),
    "pipeline-master-seed": (["pipeline", "--n", "50", "--master-seed", "-1", "--out", "{out}"],
                             None, "master_seed must be >= 0, got -1"),
    "chart-header-only": (["chart", "--input", "{input}", "--out", "{out}"], "x,y\n",
                          "in.csv: no data rows"),
    "dp-no-id": (["dp", "--epsilon", "0.5", "--population", "{input}"], NO_ID,
                 "in.csv: no id column in the header"),
    "pipeline-key": (["pipeline", "--n", "50", "--key", "0011"], None,
                     "aes-128-ecb needs a 16-byte key, got 2"),
    # the option given, not generate_population's parameter
    "dp-population-size": (["dp", "--epsilon", "0.5", "--population-size", "-1", "--out", "{out}"],
                           None, "--population-size must be >= 0, got -1"),
    "epsilon-sweep-population-size": (["epsilon-sweep", "--population-size", "-1",
                                       "--out", "{out}"],
                                      None, "--population-size must be >= 0, got -1"),
    "pipeline-population-size": (["pipeline", "--n", "50", "--population-size", "-1",
                                  "--out", "{out}"],
                                 None, "--population-size must be >= 0, got -1"),
    # an empty trace is named as such, as `pipeline` names it
    "infer-empty": (["infer", "--n", "0"], None, "metrics require a non-empty trace"),
    "infer-header-only": (["infer", "--input", "{input}"], "t,value\n",
                          "metrics require a non-empty trace"),
}


@pytest.mark.parametrize("argv,text,message", COMMAND_REFUSALS.values(),
                         ids=COMMAND_REFUSALS.keys())
def test_command_refusal_exits_2(tmp_path, capsys, argv, text, message):
    source = write(tmp_path, text) if text is not None else None
    out = tmp_path / "out"
    assert main([arg.format(input=source, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert not out.exists()


# The framing functions at a batch no message holds, each refusing it by name
# with the bound it states: `frame_sizes`, and `hop_log` through it, size any
# batch >= 1.
MESSAGE_BOUND = "in [1, 4294967295]"
FRAMING = {
    "frame_records": (lambda batch: frame_records("other", "dimensionless", NO_RECORDS, batch, AES),
                      MESSAGE_BOUND),
    "frame_sizes": (lambda batch: frame_sizes(130, batch, AES), ">= 1"),
    "hop_log": (lambda batch: hop_log(130, batch, AES), ">= 1"),
    "read_frames": (lambda batch: read_frames(
        frame_records("other", "dimensionless", NO_RECORDS, 1, AES), batch, AES), MESSAGE_BOUND),
}


@pytest.mark.parametrize("batch", [0, -1, 2.5])
@pytest.mark.parametrize("call,bound", FRAMING.values(), ids=FRAMING.keys())
def test_framing_refuses_a_batch_by_name(call, bound, batch):
    bound = "an integer" if batch == 2.5 else bound
    with pytest.raises(ValueError, match=re.escape(f"batch must be {bound}, got {batch}")) as refused:
        call(batch)
    assert refused.type is ValueError


# Every option is checked before the trace or population is read, so each
# command names its bad option, not the missing input file.
OPTIONS_BEFORE_DATA = {
    "pipeline-key": (["pipeline", "--input", "{missing}", "--key", "zz"], 1,
                     "--key is not valid hex"),
    "pipeline-batch": (["pipeline", "--input", "{missing}", "--batch", "0"], 2,
                       "--batch must be in [1, 4294967295], got 0"),
    "pipeline-vr": (["pipeline", "--input", "{missing}", "--vr", "-1"], 2,
                    "vr must be finite and >= 0, got -1.0"),
    "pipeline-epsilon": (["pipeline", "--input", "{missing}", "--epsilon", "-1"], 2,
                         "epsilon must be finite and > 0, got -1.0"),
    "pipeline-population-size": (["pipeline", "--input", "{missing}", "--population-size", "-1"],
                                 2, "--population-size must be >= 0, got -1"),
    "infer-vr": (["infer", "--input", "{missing}", "--vr", "-1"], 2,
                 "vr must be finite and >= 0, got -1.0"),
    "dp-epsilon": (["dp", "--population", "{missing}", "--epsilon", "-1"], 2,
                   "epsilon must be finite and > 0, got -1.0"),
    "dp-trials": (["dp", "--population", "{missing}", "--epsilon", "0.5", "--trials", "0"], 2,
                  "--trials must be >= 1, got 0"),
    "vr-sweep-grid": (["vr-sweep", "--input", "{missing}", "--grid", "-1", "--out", "{out}"], 2,
                      "vr must be finite and >= 0, got -1.0"),
    "vr-sweep-beacon": (["vr-sweep", "--input", "{missing}", "--beacon", "0", "--out", "{out}"],
                        2, "beacon_period must be >= 1, got 0"),
    "epsilon-sweep-trials": (["epsilon-sweep", "--population", "{missing}", "--trials", "0",
                              "--out", "{out}"], 2, "--trials must be >= 1, got 0"),
    "epsilon-sweep-grid": (["epsilon-sweep", "--population", "{missing}", "--grid", "0",
                            "--out", "{out}"], 2, "epsilon must be finite and > 0, got 0.0"),
    "epsilon-sweep-sensitivity": (["epsilon-sweep", "--population", "{missing}",
                                   "--sensitivity", "-1", "--out", "{out}"], 2,
                                  "sensitivity must be finite and > 0, got -1.0"),
}


@pytest.mark.parametrize("argv,code,message", OPTIONS_BEFORE_DATA.values(),
                         ids=OPTIONS_BEFORE_DATA.keys())
def test_options_are_checked_before_data(tmp_path, capsys, argv, code, message):
    missing, out = tmp_path / "missing.csv", tmp_path / "out"
    assert main([arg.format(missing=missing, out=out) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not out.exists()


# t.csv of the golden inputs, the 1 M-row seed-7 trace, with one row
# appended: load_csv's byte reader declines only in the file's last block,
# and the row is named by its line number.
APPENDED_ROWS = {
    "bad-row": (b"x,1.0\n", "row 1000002"),
    "negative-row": (b"-5,1.0\n", "negative time offset at row 1000002"),
}


@pytest.mark.parametrize("row,message", APPENDED_ROWS.values(), ids=APPENDED_ROWS.keys())
def test_a_bad_last_row_is_named(golden_inputs, tmp_path, capsys, row, message):
    path = tmp_path / "t-bad.csv"
    path.write_bytes((golden_inputs / "t.csv").read_bytes() + row)
    assert main(["infer", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
