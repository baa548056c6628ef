"""End-to-end and per-layer benchmark of `fedleak.cli.run_experiment`.

One run measures one workload (see workloads.py) at one seed for a fixed
number of seconds, as a closed loop in this single process: experiments
run back to back, and inside each one every client update is attacked
after the previous one completes. Run from the root of a checkout:

    python3 perfbench/run.py --workload single_epoch --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced experiments and reports the per-layer metrics of tracing.py,
plus the tracing overhead and coverage; it also writes the spans to
.perfbench/trace-<workload>-seed<seed>.json. Every run checks its
outputs: repeats at one seed must give identical result rows apart from
wall_ms, and every ok row must have iacc and cacc in [0, 1].

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. `attempted` counts client updates; `failed` counts
those lost to an exception or in an experiment whose rows failed the
check. The line before it records the environment and the details,
among them failed_share, which also counts rows whose status is not ok.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# One BLAS thread (at most nproc): the matrices are small (at most
# 10000 x 10 by 10 x 10, or 128 x 256 by 256 x 256), and on a shared 2-CPU
# host two OpenBLAS threads made single_epoch about 3x slower and noisier.
# Set before numpy is imported, and inherited by the set-up probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOAD_NAMES = ("single_epoch", "multi_epoch_search", "train_heavy")
SETUP_TIMEOUT_S = 120
# A p90 is reported as valid only with at least 10 samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END = (
    ("updates_per_s", "1/s"),
    ("attack_ms.p50", "ms"),
    ("attack_ms.p90", "ms"),
    ("setup_s", "s"),
    ("iacc_mean", "ratio"),
    ("cacc_mean", "ratio"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("attack.mc_confusion.calls", "count"),
    ("attack.mc_confusion.ms", "ms"),
    ("attack.mc_confusion.per_update", "calls/update"),
    ("attack.mc_confusion.share", "ratio"),
    ("kernels.mean_softmax.calls", "count"),
    ("kernels.mean_softmax.ms", "ms"),
    ("kernels.mean_softmax.rows", "count"),
    ("kernels.mean_softmax.bytes_computed", "bytes"),
    ("attack.posterior_search.calls", "count"),
    ("attack.posterior_search.ms", "ms"),
    ("attack.posterior_search.self_ms", "ms"),
    ("attack.posterior_search.share", "ratio"),
    ("fedsim.run_round.calls", "count"),
    ("fedsim.run_round.ms", "ms"),
    ("fedsim.run_round.self_ms", "ms"),
    ("fedsim.local_train.calls", "count"),
    ("fedsim.local_train.ms", "ms"),
    ("fedsim.local_train.share", "ratio"),
    ("fedsim.server_aggregate.ms", "ms"),
    ("fedsim.scaffold_update_control.ms", "ms"),
    ("nn.backward.calls", "count"),
    ("nn.backward.ms", "ms"),
    ("nn.accuracy.ms", "ms"),
    ("attack.estimate_moments.calls", "count"),
    ("attack.estimate_moments.ms", "ms"),
    ("attack.estimate_moments.share", "ratio"),
    ("nn.forward_batch.calls", "count"),
    ("nn.forward_batch.ms", "ms"),
    ("attack.solve_simplex_ls.calls", "count"),
    ("attack.solve_simplex_ls.ms", "ms"),
    ("attack.solve_simplex_ls.iterations", "count"),
    ("attack.solve_simplex_ls.unconverged", "count"),
    ("attack.solve_simplex_ls.share", "ratio"),
    ("kernels.pgd_simplex_ls.calls", "count"),
    ("kernels.pgd_simplex_ls.ms", "ms"),
    ("attack.rlu_attack.calls", "count"),
    ("attack.rlu_attack.ms", "ms"),
    ("attack.rlu_attack.self_ms", "ms"),
    ("attack.scheme_coefficients.ms", "ms"),
    ("attack.make_target.ms", "ms"),
    ("cli.build_world.ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

# Per-layer metrics that must repeat exactly between traced experiments.
EXACT_COUNTS = tuple(
    name
    for name, unit in PER_LAYER
    if name.endswith(".calls")
    or name in ("kernels.mean_softmax.rows", "attack.solve_simplex_ls.iterations", "attack.solve_simplex_ls.unconverged")
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "fedleak", "__init__.py")):
        fail(f"no fedleak sources under {SRC}; run from the root of a fedleak checkout")


def import_fedleak():
    """Import fedleak from this checkout's src/, never from site-packages."""
    require_sources()
    sys.path[:0] = [SRC, HERE]
    import fedleak

    if os.path.dirname(os.path.dirname(os.path.abspath(fedleak.__file__))) != SRC:
        fail(f"imported fedleak from {fedleak.__file__}, not from {SRC}")
    return fedleak


# ------------------------------------------------------------ environment


def _blas_threads():
    """Threads of the loaded OpenBLAS, read from the library; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest():
    """sha256 over src/ file paths and contents; identifies the code without git."""
    import hashlib

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(fedleak) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": NPROC,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "numba_enabled": bool(fedleak._kernels.NUMBA_ENABLED),
    }


# ------------------------------------------------------------ measurement


def setup_probe(workload: str, seed: int) -> dict:
    """One cold set-up of the workload, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE])),
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(probe["fedleak_file"]).startswith(SRC + os.sep):
        fail(f"set-up probe imported fedleak from {probe['fedleak_file']}")
    return probe


def run_loop(cfg, seconds: float, trace: bool, between=None) -> list:
    """Run experiments back to back for about `seconds`.

    Stops before an experiment that would end past the deadline, judged by
    the last one's duration, after at least two untraced and, with trace,
    two traced experiments. With trace, experiments alternate in the order
    untraced, traced, traced, untraced, ..., so that neither kind gets all
    of the warm-up or of a drift in machine speed. An exception is
    recorded and the loop goes on. `between`, if given, is called after
    every experiment, outside its timing.
    """
    import traceback

    from fedleak import cli
    from tracing import Tracer

    min_experiments = 4 if trace else 2
    experiments = []
    start = time.perf_counter()
    last = 0.0
    while len(experiments) < min_experiments or time.perf_counter() - start + last <= seconds:
        tracer = Tracer() if trace and len(experiments) % 4 in (1, 2) else None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rows = cli.run_experiment(cfg)
            else:
                with tracer.installed():
                    rows = cli.run_experiment(cfg)
        except Exception:  # a failed experiment is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            rows = None
        last = time.perf_counter() - t0
        summary = tracer.summary(last) if tracer is not None and rows is not None else None
        spans = tracer.spans if summary is not None else None
        experiments.append({"traced": tracer is not None, "wall_s": last, "rows": rows, "trace": summary, "spans": spans})
        if between is not None:
            between()
    return experiments


# ------------------------------------------------------------ checking


def _without_wall(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def _row_errors(rows, expected: int) -> list:
    errors = []
    if len(rows) != expected:
        errors.append(f"{len(rows)} rows, expected {expected}")
    for row in rows:
        if row["status"] != "ok":
            continue
        for key in ("iacc", "cacc"):
            value = float(row[key])
            if not 0.0 <= value <= 1.0:
                errors.append(f"round {row['round']} client {row['client']}: {key} = {value} outside [0, 1]")
    return errors


def check(experiments, n_updates: int) -> dict:
    """Correctness and failure accounting over one run's experiments.

    An experiment that raised loses all its updates. One whose rows break
    the range check, or differ from the first complete experiment's rows
    apart from wall_ms, fails the run and has all its updates counted as
    failed. Traced experiments must also repeat every exact count.
    """
    errors = []
    lost = failed = not_ok = 0
    reference = None
    counts = None
    for i, exp in enumerate(experiments):
        rows = exp["rows"]
        exp["valid"] = False
        if rows is None:
            lost += n_updates
            continue
        bad = _row_errors(rows, n_updates)
        stripped = _without_wall(rows)
        if reference is None and not bad:
            reference = stripped
        elif reference is not None and stripped != reference:
            bad.append("result rows differ from the first experiment at the same seed")
        if bad:
            errors.extend(f"experiment {i}: {e}" for e in bad)
            failed += len(rows)
            continue
        exp["valid"] = True
        not_ok += sum(1 for r in rows if r["status"] != "ok")
        if exp["trace"] is not None:
            these = {name: exp["trace"][name] for name in EXACT_COUNTS}
            if counts is None:
                counts = these
            elif these != counts:
                diff = sorted(k for k in these if these[k] != counts.get(k))
                errors.append(f"experiment {i}: traced counts differ from the first traced experiment: {diff}")
    attempted = n_updates * len(experiments)
    if reference is None:
        errors.append("no experiment completed with valid rows")
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": lost + failed,
        "lost_to_exception": lost,
        "not_ok_rows": not_ok,
        "failed_share": (not_ok + lost + failed) / attempted,
        "reference": reference,
    }


# ------------------------------------------------------------ metrics


def _median(values):
    import statistics

    return statistics.median(values) if values else None


def _trained(rows) -> int:
    # A client that trained reports its train_acc; one whose shard cannot
    # fill a batch sends an empty update and leaves the column blank.
    return sum(1 for r in rows if r["train_acc"] != "")


def _rate(experiments):
    """Updates of clients that trained, per second of experiment time."""
    wall = sum(e["wall_s"] for e in experiments)
    return sum(_trained(e["rows"]) for e in experiments) / wall if wall else None


def end_to_end(experiments, checked, setup) -> tuple:
    import resource
    import statistics

    plain = [e for e in experiments if e["valid"] and not e["traced"]]
    latencies = sorted(float(r["wall_ms"]) for e in plain for r in e["rows"] if r["status"] == "ok")
    ok = [r for r in checked["reference"] or [] if r["status"] == "ok"]
    metrics = {
        "updates_per_s": _rate(plain),
        "attack_ms.p50": _median(latencies),
        "attack_ms.p90": statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 2 else None,
        "setup_s": _median([p["setup_s"] for p in setup]),
        "iacc_mean": sum(float(r["iacc"]) for r in ok) / len(ok) if ok else None,
        "cacc_mean": sum(float(r["cacc"]) for r in ok) / len(ok) if ok else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "experiments_untraced": len(plain),
        "attack_ms.samples": len(latencies),
        "attack_ms.p90_valid": len(latencies) >= P90_MIN_SAMPLES,
        "ok_rows_per_experiment": len(ok),
        "setup.import_s": _median([p["import_s"] for p in setup]),
        "setup.build_world_s": _median([p["build_world_s"] for p in setup]),
        "setup.samples_s": [p["setup_s"] for p in setup],
    }
    return metrics, detail


def per_layer(experiments) -> tuple:
    traced = [e for e in experiments if e["valid"] and e["traced"]]
    plain = [e for e in experiments if e["valid"] and not e["traced"]]
    metrics = {}
    for name, _unit in PER_LAYER:
        values = [e["trace"][name] for e in traced if name in e["trace"]]
        # Exact counts are equal in every traced experiment (check() verifies).
        metrics[name] = values[0] if name in EXACT_COUNTS and values else _median(values)
    attacks = metrics["attack.rlu_attack.calls"]
    calls = metrics["attack.mc_confusion.calls"]
    metrics["attack.mc_confusion.per_update"] = calls / attacks if attacks else 0.0
    rate_traced, rate_plain = _rate(traced), _rate(plain)
    metrics["trace.overhead"] = rate_traced / rate_plain - 1.0 if rate_traced and rate_plain else None
    detail = {"experiments_traced": len(traced), "experiments_untraced": len(plain)}
    return metrics, detail


# ------------------------------------------------------------ entry points


def write_trace(workload: str, seed: int, experiments) -> None:
    """Every traced experiment's summary, and the spans of the last one."""
    traced = [e for e in experiments if e["trace"] is not None]
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "summaries": [e["trace"] for e in traced],
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "spans": traced[-1]["spans"] if traced else [],
    }
    with open(os.path.join(out_dir, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump(payload, fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    fedleak = import_fedleak()
    import workloads

    cfg = workloads.config(workload, seed)
    env = environment(fedleak)
    # Set-up is probed before the first experiment and after each one, so
    # its median samples the machine over the whole run, not one moment.
    setup = []

    def probe():
        setup.append(setup_probe(workload, seed))

    started = time.perf_counter()
    if not trace:
        probe()
    experiments = run_loop(cfg, seconds, trace, between=None if trace else probe)
    elapsed = time.perf_counter() - started
    checked = check(experiments, cfg.rounds * cfg.partition.clients)
    if trace:
        metrics, detail = per_layer(experiments)
        table = PER_LAYER
    else:
        metrics, detail = end_to_end(experiments, checked, setup)
        table = END_TO_END
    detail.update(
        {
            "experiments": len(experiments),
            "experiment_walls_s": [e["wall_s"] for e in experiments],
            "measured_s": elapsed,
            "lost_to_exception": checked["lost_to_exception"],
            "not_ok_rows": checked["not_ok_rows"],
            "failed_share": checked["failed_share"],
            "errors": checked["errors"],
        }
    )
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  {len(experiments)} experiments in {elapsed:.1f} s")
    for name, unit in table:
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit}")
    print(f"  {'failed_share':40s} {checked['failed_share']:>14.6g} ratio")
    for err in checked["errors"]:
        print(f"  error: {err}")
    if trace:
        write_trace(workload, seed, experiments)
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(trace), "environment": env, "detail": detail}))
    return {
        "correct": checked["correct"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own interpreter, so a crash or a peak RSS stays in its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            print(f"workload {workload}: exited {proc.returncode} without a result")
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per workload (run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload == "all":
        require_sources()
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
