"""The input files of the golden manifest (`tests/golden_outputs.json`), made
once per run and shared by every test that reads them."""
import pytest

from ioht_pipeline.cli import main

# file name: the `ioht` command line that writes it, with --out
GOLDEN_INPUTS = {
    "trace.csv": "gen --n 100000 --seed 7 --drift 8 --noise 1.5",
    "short.csv": "gen --n 1420 --seed 7",
    "population.csv": "gen --population --n 130 --seed 5",
    # 16 chunks of save_csv's writer; at baseline 100 the value widths change
    # every 18 rows on average, so load_csv sends t100.csv to numpy
    "t.csv": "gen --n 1000000 --seed 7",
    "t100.csv": "gen --n 1000000 --seed 7 --baseline 100",
    "pop.csv": "gen --population --n 100000 --seed 7",
}
# trace-exp.csv is trace.csv with this data row's value in exponent form: the
# same numbers, with one row outside load_csv's byte grammar in the second
# of the file's two 1 MiB blocks.
EXPONENT_ROW = 75_000


@pytest.fixture(scope="session")
def golden_inputs(tmp_path_factory):
    """A directory of the `GOLDEN_INPUTS` files, trace-exp.csv, and t-exp.csv:
    t.csv with its last value in exponent form, so that load_csv's byte
    reader declines only in the file's last block."""
    directory = tmp_path_factory.mktemp("inputs")
    for name, command in GOLDEN_INPUTS.items():
        assert main(command.split() + ["--out", str(directory / name)]) == 0
    for source, target, row in (("trace.csv", "trace-exp.csv", EXPONENT_ROW + 1),
                                ("t.csv", "t-exp.csv", -2)):
        lines = (directory / source).read_bytes().split(b"\r\n")
        lines[row] += b"e0"
        (directory / target).write_bytes(b"\r\n".join(lines))
    return directory
