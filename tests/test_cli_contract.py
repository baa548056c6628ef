"""Property tests of the CLI contract: `run` refuses its file plan before any work, or writes every file it names."""
import csv
import json
import os
import tempfile

import pytest

from fedleak import fedsim
from fedleak.cli import main

from _helpers import file_tree

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# On a failure hypothesis imports libcst to print a patch, and libcst
# warns that a typing helper it uses is deprecated; tier-1 turns that
# warning into an error that would abort the session instead of the report.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

CONFIG = '{"rounds": 1}'
TINY = ["--rounds", "1", "--n-classes", "3", "--dim", "4", "--per-class", "20", "--clients", "2",
        "--batch-size", "8", "--aux-per-class", "10"]

# Paths in the world make_world lays out that alias each other: one file
# reached through `..` and a symlink, the directory rd in two spellings, a
# valid config under a report's name in rd, a new name in rd, a new name in
# two spellings, a missing directory and a name inside it, the empty path,
# and None for a flag not given. Few names make aliasing pairs common.
NAMES = [
    None, "", "c.json", "sub/../c.json", "link.json", "rd", "./rd/", "rd/report_r1_c0.json", "rd/r.csv",
    "out", "sub/../out", "nodir", "nodir/x.csv",
]
paths = st.sampled_from(NAMES)


def make_world(root):
    with open(os.path.join(root, "c.json"), "w") as fh:
        fh.write(CONFIG)
    os.symlink("c.json", os.path.join(root, "link.json"))
    os.mkdir(os.path.join(root, "sub"))
    os.mkdir(os.path.join(root, "rd"))
    with open(os.path.join(root, "rd", "report_r1_c0.json"), "w") as fh:
        fh.write(CONFIG)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(output=paths, round_log=paths, report_dir=paths, config=paths)
# runs that write every file are rare among the draws, so two always run
@example(output="rd/r.csv", round_log="sub/../out", report_dir="./rd/", config="link.json")
@example(output="c.json", round_log="out", report_dir="nodir", config="rd/report_r1_c0.json")
def test_run_refuses_before_any_work_or_writes_every_file(output, round_log, report_dir, config):
    flags = {"--output": output, "--round-log": round_log, "--report-dir": report_dir, "--config": config}
    argv = ["run", *TINY, *[arg for flag, name in flags.items() if name is not None for arg in (flag, name)]]
    train_stack = fedsim.train_stack
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return train_stack(*args, **kwargs)

    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        make_world(root)
        mp.chdir(root)
        mp.setattr(fedsim, "train_stack", counted)
        before = file_tree(root)
        rc = main(argv)
        if rc == 2:
            assert calls == []
            assert file_tree(root) == before
            return
        assert rc == 0 and calls
        if config:
            with open(config) as fh:
                assert fh.read() == CONFIG
        rows = read_rows(output or "results.csv")
        assert [row["client"] for row in rows] == ["0", "1"]
        if round_log is not None:
            assert {row["round"] for row in read_rows(round_log)} == {"1"}
        for row in rows:
            if report_dir is not None and row["status"] != "degenerate":
                with open(os.path.join(report_dir, f"report_r1_c{row['client']}.json")) as fh:
                    counts = json.load(fh)["counts"]
                assert len(counts) == 3 and sum(counts) == 8
