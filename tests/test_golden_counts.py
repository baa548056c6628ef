"""The count columns of seeded runs, compared exactly with committed files.

Two runs are pinned:

- `golden_scaffold_seed3.csv`: `fedleak run --seed 3 --scheme scaffold
  --epochs 3 --alpha 0.05 --rounds 4`, 40 attacked updates, four of them
  on one-batch shards that get the posterior-search rounding;
- `golden_fedprox_m10_seed3.csv`: `fedleak run --seed 3 --scheme fedprox
  --lambda 25 --eta 0.01 --epochs 10 --rounds 3`, the multi-epoch shape of
  the `multi_epoch_search` benchmark workload, whose clients train as one
  stack per round.

Any change to the simulation, the attack or the numbers numpy and BLAS
produce for them shows up as a differing line. Regenerate the files after
a deliberate change with

    PYTHONPATH=src python3 tests/test_golden_counts.py
"""
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from fedleak import cli

HERE = Path(__file__).resolve().parent
RUNS = {
    "golden_scaffold_seed3.csv": [
        "run", "--seed", "3", "--scheme", "scaffold", "--epochs", "3", "--alpha", "0.05", "--rounds", "4",
    ],
    "golden_fedprox_m10_seed3.csv": [
        "run", "--seed", "3", "--scheme", "fedprox", "--lambda", "25", "--eta", "0.01", "--epochs", "10",
        "--rounds", "3",
    ],
}
COLUMNS = ["round", "client", "method", "counts", "iacc", "cacc", "l1_err", "status"]


def golden_text(argv) -> str:
    """The run's count columns as CSV text; counts and method come from the attack reports."""
    cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
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


def check_golden(golden):
    assert golden_text(RUNS[golden]) == (HERE / golden).read_text()


def test_count_columns_match_the_golden_file():
    check_golden("golden_scaffold_seed3.csv")


def test_fedprox_m10_count_columns_match_the_golden_file():
    check_golden("golden_fedprox_m10_seed3.csv")


if __name__ == "__main__":
    for golden, argv in RUNS.items():
        (HERE / golden).write_text(golden_text(argv))
        print(f"wrote {HERE / golden}", file=sys.stderr)
