"""The count columns of one seeded run, compared exactly with a committed file.

The run is `fedleak run --seed 3 --scheme scaffold --epochs 3 --alpha 0.05
--rounds 4`: 40 attacked updates, four of them on one-batch shards that
get the posterior-search rounding. Any change to the simulation, the
attack or the numbers numpy and BLAS produce for them shows up as a
differing line. Regenerate the file after a deliberate change with

    PYTHONPATH=src python3 tests/test_golden_counts.py
"""
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from fedleak import cli

GOLDEN = Path(__file__).resolve().parent / "golden_scaffold_seed3.csv"
ARGV = ["run", "--seed", "3", "--scheme", "scaffold", "--epochs", "3", "--alpha", "0.05", "--rounds", "4"]
COLUMNS = ["round", "client", "method", "counts", "iacc", "cacc", "l1_err", "status"]


def golden_text() -> str:
    """The run's count columns as CSV text; counts and method come from the attack reports."""
    cfg = cli._config_from_args(cli.build_parser().parse_args(ARGV))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    with tempfile.TemporaryDirectory() as report_dir:
        for row in cli.run_experiment(cfg, report_dir=report_dir):
            path = Path(report_dir) / f"report_r{row['round']}_c{row['client']}.json"
            report = json.loads(path.read_text()) if path.exists() else {"method": "", "counts": []}
            writer.writerow(
                {
                    **{k: row[k] for k in ("round", "client", "iacc", "cacc", "l1_err", "status")},
                    "method": report["method"],
                    "counts": " ".join(map(str, report["counts"])),
                }
            )
    return out.getvalue()


def test_count_columns_match_the_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
    print(f"wrote {GOLDEN}", file=sys.stderr)
