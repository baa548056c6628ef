"""The count and train_acc columns of seeded runs, compared exactly with committed files.

COLUMNS names the pinned columns. residual is left out: its last bits
differ across BLAS kernel types.

The pinned runs:

- `golden_scaffold_seed3.csv`: `fedleak run --seed 3 --scheme scaffold
  --epochs 3 --alpha 0.05 --rounds 4`, 40 attacked updates, four of them
  on one-batch shards that get the posterior-search rounding;
- `golden_fedprox_m10_seed3.csv`: `fedleak run --seed 3 --scheme fedprox
  --lambda 25 --eta 0.01 --epochs 10 --rounds 3`, the multi-epoch shape of
  the `multi_epoch_search` benchmark workload, whose clients train as one
  stack per round;
- `golden_<scheme>_<optimizer>_m<epochs>_seed3.csv`: `fedleak run --seed 3
  --rounds 3` under each of the seven scheme/optimizer pairs at `--epochs 1`
  and `--epochs 5`, with `--gamma 0.9` for sgdm and nag and `--lambda 1`
  for the proximal schemes.
- `golden_fedavg_sgd_m1_seed<s>.csv` and `golden_fedprox_m10_seed<s>.csv`
  for s = 0, 1, 2: the `single_epoch` and `multi_epoch_search` benchmark
  workloads at those seeds, `fedleak run --seed s --rounds 3` plus
  `--scheme fedprox --lambda 25 --eta 0.01 --epochs 10` for the second.
  Their seed-3 runs are the two files of that name above, and each of the
  eight argv builds the config `perfbench/workloads.py` gives the workload.

Any change to the simulation, the attack or the numbers numpy and BLAS
produce for them shows up as a differing line. Regenerate the files after
a deliberate change with

    PYTHONPATH=src python3 tests/test_golden_counts.py [FILE ...]

which recomputes the named files (all of them when none is named),
rewrites only those whose text changed, and prints a unified diff of each.
"""
import csv
import difflib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fedleak import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = {
    "golden_scaffold_seed3.csv": [
        "run", "--seed", "3", "--scheme", "scaffold", "--epochs", "3", "--alpha", "0.05", "--rounds", "4",
    ],
    "golden_fedprox_m10_seed3.csv": [
        "run", "--seed", "3", "--scheme", "fedprox", "--lambda", "25", "--eta", "0.01", "--epochs", "10",
        "--rounds", "3",
    ],
}
# The seven scheme/optimizer pairs the CLI accepts, each with the flag its recipe reads.
PAIRS = [
    ("fedavg", "sgd", []),
    ("fedavg", "sgdm", ["--gamma", "0.9"]),
    ("fedavg", "nag", ["--gamma", "0.9"]),
    ("fedprox", "sgd", ["--lambda", "1"]),
    ("scaffold", "sgd", []),
    ("feddyn", "sgd", ["--lambda", "1"]),
    ("feddc", "sgd", ["--lambda", "1"]),
]
CLI_CONFIGS = {
    f"golden_{scheme}_{optimizer}_m{m}_seed3.csv": [
        "run", "--seed", "3", "--rounds", "3", "--scheme", scheme, "--optimizer", optimizer, "--epochs", str(m),
        *extra,
    ]
    for scheme, optimizer, extra in PAIRS
    for m in (1, 5)
}
RUNS.update(CLI_CONFIGS)
# The benchmark workloads single_epoch and multi_epoch_search
# (perfbench/workloads.py) as CLI flags, with the stem of their golden
# files. Seed 3 of each is pinned above; WORKLOAD_RUNS pins seeds 0-2.
WORKLOADS = {
    "single_epoch": ("golden_fedavg_sgd_m1", []),
    "multi_epoch_search": (
        "golden_fedprox_m10", ["--scheme", "fedprox", "--lambda", "25", "--eta", "0.01", "--epochs", "10"],
    ),
}
WORKLOAD_RUNS = {
    f"{stem}_seed{seed}.csv": ["run", "--seed", str(seed), "--rounds", "3", *flags]
    for stem, flags in WORKLOADS.values()
    for seed in (0, 1, 2)
}
RUNS.update(WORKLOAD_RUNS)
COLUMNS = ["round", "client", "method", "counts", "iacc", "cacc", "l1_err", "status", "train_acc"]


def golden_text(argv) -> str:
    """The run's count columns as CSV text; counts and method come from the attack reports."""
    cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    with tempfile.TemporaryDirectory() as report_dir:
        for row in cli.run_experiment(cfg, report_dir=report_dir):
            path = Path(report_dir) / cli._REPORT_NAME.format(row["round"], row["client"])
            report = json.loads(path.read_text()) if path.exists() else {"method": "", "counts": []}
            writer.writerow(
                {
                    **{k: row[k] for k in ("round", "client", "iacc", "cacc", "l1_err", "status", "train_acc")},
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


@pytest.mark.parametrize("golden", sorted(CLI_CONFIGS))
def test_cli_config_count_columns_match_the_golden_file(golden):
    check_golden(golden)


@pytest.mark.parametrize("golden", sorted(WORKLOAD_RUNS))
def test_workload_count_columns_match_the_golden_file(golden):
    check_golden(golden)


def load_workloads():
    """perfbench/workloads.py as a module, read by path without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_argv_is_the_benchmark_workload(name, seed):
    # each golden file of a workload pins the config the benchmark runs
    argv = RUNS[f"{WORKLOADS[name][0]}_seed{seed}.csv"]
    assert cli._config_from_args(cli.build_parser().parse_args(argv)) == load_workloads().config(name, seed)


def regenerate(names) -> None:
    """Rewrite each named golden file whose text changed, printing its unified diff."""
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        raise SystemExit(f"no pinned run writes {unknown}; known: {sorted(RUNS)}")
    rewritten = 0
    for golden in names:
        path = HERE / golden
        old = path.read_text() if path.exists() else ""
        new = golden_text(RUNS[golden])
        if new != old:
            diff = difflib.unified_diff(old.splitlines(True), new.splitlines(True), f"a/{golden}", f"b/{golden}")
            sys.stdout.writelines(diff)
            path.write_text(new)
            rewritten += 1
    print(f"rewrote {rewritten} of {len(names)} golden files", file=sys.stderr)


if __name__ == "__main__":
    regenerate([Path(name).name for name in sys.argv[1:]] or list(RUNS))
