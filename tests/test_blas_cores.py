"""Result rows do not depend on which OpenBLAS kernels the CPU selects.

An OpenBLAS built with DYNAMIC_ARCH picks its kernels at load time, and
OPENBLAS_CORETYPE forces a choice. Each run below goes to a subprocess
whose environment alone names the kernels, and every result column but
wall_ms and residual must match between a Haswell (AVX2) and a Prescott
(SSE3) run. residual sits at rounding level once a solve is exact, so its
printed digits follow the kernels' rounding.
"""
import csv
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CORE_TYPES = ("Haswell", "Prescott")

RUNS = {
    "scaffold_m5": ["--scheme", "scaffold", "--epochs", "5"],
    "nag_m10": ["--optimizer", "nag", "--gamma", "0.9", "--epochs", "10"],
}


def _dynamic_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, on x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration", "")
    )


def _rows(path):
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k not in ("wall_ms", "residual")} for row in csv.DictReader(fh)]


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("run", sorted(RUNS))
def test_rows_match_under_two_openblas_core_types(tmp_path, run):
    procs = {}
    for core in CORE_TYPES:
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "fedleak.cli", "run", "--seed", "3", "--rounds", "3", *RUNS[run],
                "--output", str(tmp_path / f"{core}.csv")]
        procs[core] = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for core, proc in procs.items():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, (core, err)
    rows = {core: _rows(tmp_path / f"{core}.csv") for core in CORE_TYPES}
    assert len(rows["Haswell"]) == 30
    assert rows["Haswell"] == rows["Prescott"]
