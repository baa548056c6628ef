"""Time one cold set-up of a workload in this fresh interpreter.

Measures the import of fedleak and `cli._build_world` for the workload's
config, and prints them as one JSON line. run.py starts this script
several times per run, with PYTHONPATH pointing at the checkout's src/.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

start = time.perf_counter()
import fedleak  # noqa: E402
from fedleak import cli  # noqa: E402

imported = time.perf_counter()

import workloads  # noqa: E402

cfg = workloads.config(sys.argv[1], int(sys.argv[2]))
built = time.perf_counter()
cli._build_world(cfg)
done = time.perf_counter()

print(
    json.dumps(
        {
            "fedleak_file": fedleak.__file__,
            "import_s": imported - start,
            "build_world_s": done - built,
            "setup_s": (imported - start) + (done - built),
        }
    )
)
