"""Command-line entry points for simulation and recovery experiments.

Subcommands:
  gen-data          write a blob dataset CSV and a Dirichlet partition CSV
  run               simulate federated rounds and attack every client update
  sweep             repeat `run` over grids of alpha / epochs / seeds
  diagnose-moments  per-(class, logit) histograms of a model's logits, and
                    how far a Gaussian logit model is from them
  report            aggregate result CSVs into mean/std tables

Configuration comes from an optional JSON file (--config) merged with
command-line overrides; --seed overrides the master seed. Exit codes:
0 success, 1 validation error, 2 I/O error. Every file a command writes
is checked by _check_writable before any work and written here, the
round log and the attack reports included: fedsim and attack only compute.
"""

import argparse
import csv
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import attack as atk
from . import data as dat
from . import fedsim as fed
from . import metrics as met
from . import nn

RESULT_COLUMNS = [
    "seed",
    "round",
    "client",
    "scheme",
    "optimizer",
    "alpha",
    "m",
    "batch",
    "train_acc",
    "cacc",
    "iacc",
    "l1_err",
    "residual",
    "wall_ms",
    "status",
]

# Seed-stream tags for deriving independent sub-seeds from the master seed.
_S_DATA, _S_AUX, _S_PART, _S_MODEL = 11, 12, 13, 14

# The name of the report on round t's attack of client k, _REPORT_NAME.format(t, k),
# in run_experiment's report directory, and the pattern every such name matches.
_REPORT_NAME = "report_r{}_c{}.json"
_REPORT_PATTERN = re.compile("[0-9]+".join(map(re.escape, _REPORT_NAME.split("{}"))))


@dataclass(frozen=True)
class DataSpec:
    n_classes: int = 10
    dim: int = 16
    per_class: int = 100
    separation: float = 4.0


@dataclass(frozen=True)
class PartitionSpec:
    clients: int = 10
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and above 0, got {self.alpha!r}")


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple = (32, 16)
    activation: str = "relu"


@dataclass(frozen=True)
class AttackSpec(atk.AttackParams):
    """The config's attack section: AttackParams, the auxiliary set's size, and two keys nothing reads.

    mc_samples and search_mc_samples are still checked, so configs that
    set them keep loading, but the attack does not read them: its
    confusion matrices come from the auxiliary logits, not from draws.
    """

    mc_samples: int = 10000
    search_mc_samples: int = 1000
    aux_per_class: int = 100

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be at least 1, got {self.mc_samples}")
        if self.search_mc_samples < 1:
            raise ValueError(f"search_mc_samples must be at least 1, got {self.search_mc_samples}")
        super().__post_init__()
        if self.aux_per_class < 1:
            raise ValueError(f"aux_per_class must be at least 1, got {self.aux_per_class}")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSpec = field(default_factory=DataSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    scheme: fed.SchemeConfig = field(default_factory=fed.SchemeConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    rounds: int = 1
    seed: int = 0
    output: str = "results.csv"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a JSON value must be for a config field of each declared type.
_JSON_TYPES = {
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def _checked(value, ftype, key):
    """value, as the field type declared by ftype; ValueError naming key if it is not one.

    An integer in a number field becomes a float, so a config file's 1 and
    the flag's 1.0 are one value and print alike in the result CSV.
    """
    kind, accepts = _JSON_TYPES[ftype]
    if not accepts(value):
        raise ValueError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    if ftype is float:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"config key {key!r} is too large for a float, got {value}") from None
    return tuple(value) if ftype is tuple else value


def _values(cls, payload, where, prefix="") -> dict:
    """payload's type-checked values for the fields of cls, each section's as a dict of its own.

    where names payload in errors, and prefix ('' at the top, 'scheme.' in
    the scheme section) starts each key an error names.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(payload) - set(types)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    return {
        key: _values(types[key], value, f"config section {prefix + key!r}", f"{prefix}{key}.")
        if is_dataclass(types[key])
        else _checked(value, types[key], prefix + key)
        for key, value in payload.items()
    }


def _file_values(path) -> dict:
    """The config file's values, type-checked; each section as a dict of field values."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return _values(ExperimentConfig, raw, f"config file {path}")


def _build_config(values: dict) -> ExperimentConfig:
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: types[k](**v) if is_dataclass(types[k]) else v for k, v in values.items()})


def _flag_values(args, cls) -> dict:
    """The plain fields of cls whose command-line flag was given; a flag's dest is its field name."""
    return {
        f.name: getattr(args, f.name)
        for f in fields(cls)
        if not is_dataclass(f.type) and getattr(args, f.name, None) is not None
    }


def _config_from_args(args) -> ExperimentConfig:
    """The config file's values with the given flags laid over them.

    The config objects are built only after the merge, so a constraint
    across fields (lambda * eta, say) is checked on the values the run uses.
    """
    if args.config == "":
        raise FileNotFoundError("--config names no file: its path is empty")
    values = _file_values(args.config) if args.config is not None else {}
    values.update(_flag_values(args, ExperimentConfig))
    for f in fields(ExperimentConfig):
        if is_dataclass(f.type):
            values[f.name] = {**values.get(f.name, {}), **_flag_values(args, f.type)}
    return _build_config(values)


def _build_world(cfg: ExperimentConfig):
    """Dataset, auxiliary set, partition, and initial model for one run."""
    d = cfg.data
    dataset = dat.make_synthetic(d.n_classes, d.dim, d.per_class, d.separation, dat.derive_seed(cfg.seed, _S_DATA))
    aux = dat.make_synthetic(
        d.n_classes, d.dim, cfg.attack.aux_per_class, d.separation, dat.derive_seed(cfg.seed, _S_AUX)
    )
    partition = dat.dirichlet_partition(
        dataset, cfg.partition.clients, cfg.partition.alpha, dat.derive_seed(cfg.seed, _S_PART)
    )
    sizes = [d.dim, *cfg.model.hidden, d.n_classes]
    model = nn.init_model(sizes, cfg.model.activation, dat.derive_seed(cfg.seed, _S_MODEL))
    return dataset, aux, partition, model


def run_experiment(cfg: ExperimentConfig, report_dir=None, round_log=None):
    """Simulate cfg.rounds rounds, attack every update, return result rows.

    round_log (None: no log) and report_dir (None: no reports) must pass
    _check_writable, the file rule of every command, and report_dir must
    already exist. Raises OSError before any training when they do not,
    and ValueError when no client's shard fills a batch (fed.run_round's
    check), because then every update is degenerate.
    """
    _check_writable(round_log, report_dir=report_dir)
    if report_dir is not None and not os.path.isdir(report_dir):
        raise FileNotFoundError(f"cannot write reports to {report_dir!r}: no such directory")
    dataset, aux, partition, model = _build_world(cfg)
    histories = [fed.UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    rows = []
    current = model
    for t in range(1, cfg.rounds + 1):
        round_rows, current, histories = _attack_round(
            cfg, t, current, histories, dataset, aux, partition, report_dir, round_log
        )
        rows.extend(round_rows)
    return rows


def _attack_round(cfg: ExperimentConfig, t, current, histories, dataset, aux, partition, report_dir, round_log):
    """Train round t from `current`, attack every update; returns (rows, new_global, new_histories).

    The round's updates and attack context are this call's locals, so
    nothing holds them once it returns, before the next round trains.
    """
    new_global, updates, truths, stats, new_histories = fed.run_round(
        current, dataset, partition, cfg.scheme, histories, t, cfg.seed
    )
    if round_log is not None:
        _write_round_log(round_log, t, cfg.scheme, updates, stats)
    context = atk.prepare_round(current, aux, cfg.attack)
    rows = []
    for k in range(partition.n_clients):
        start = time.perf_counter()
        row = {
            "seed": cfg.seed,
            "round": t,
            "client": k,
            "scheme": cfg.scheme.scheme,
            "optimizer": cfg.scheme.optimizer,
            "alpha": repr(cfg.partition.alpha),
            "m": cfg.scheme.epochs,
            "batch": cfg.scheme.batch_size,
            "train_acc": repr(stats[k]) if stats[k] is not None else "",
        }
        try:
            report = atk.rlu_attack(context, updates[k], cfg.scheme, histories[k])
        except atk.DegenerateUpdateError:
            report = None
        wall_ms = (time.perf_counter() - start) * 1000.0
        if report is None:
            row.update({"cacc": "", "iacc": "", "l1_err": "", "residual": "", "status": "degenerate"})
        else:
            sc = met.score(report.counts, truths[k], cfg.scheme.epochs, cfg.scheme.batch_size)
            row.update(
                {
                    "cacc": repr(sc.cacc),
                    "iacc": repr(sc.iacc),
                    "l1_err": sc.l1_error,
                    "residual": repr(report.residual),
                    "status": "ok" if report.diagnostics["solver_converged"] else "unconverged",
                }
            )
            if report_dir is not None:
                with open(os.path.join(report_dir, _REPORT_NAME.format(t, k)), "w") as fh:
                    fh.write(report.to_json() + "\n")
        row["wall_ms"] = repr(wall_ms)
        rows.append(row)
    return rows, new_global, new_histories


def _write_round_log(path, t, cfg: fed.SchemeConfig, updates, train_accs) -> None:
    """Write one row per training client of round t to the round-log CSV; round 1 starts the file afresh."""
    recipe = [cfg.scheme, cfg.optimizer, repr(cfg.eta), repr(cfg.lam), repr(cfg.gamma), cfg.epochs, cfg.batch_size]
    with open(path, "w" if t == 1 else "a", newline="") as fh:
        writer = csv.writer(fh)
        if t == 1:
            writer.writerow(
                ["round", "client", "scheme", "optimizer", "eta", "lambda", "gamma", "m", "batch", "loss", "train_acc"]
            )
        writer.writerows(
            [t, k, *recipe, repr(update.first_loss), repr(acc)]
            for k, (update, acc) in enumerate(zip(updates, train_accs))
            if acc is not None
        )


def _check_writable(*paths, inputs=(), report_dir=None) -> None:
    """Raise OSError unless a command can write each given path (None: not given); called before any work.

    Each path must be non-empty, lie in an existing directory, be no
    directory itself, and be writable. No two paths, and no path and one
    of the command's inputs (None: not given), may resolve to one file:
    one write would silently replace the other file. report_dir (None: no
    reports), where a run writes its reports under _REPORT_NAME, must be
    non-empty, may neither be nor lie inside a path or an input, and may
    hold no path or input under a report's name. When it exists, no entry
    in it under a report's name may be a directory or not writable.
    """
    claimed = {os.path.realpath(p): p for p in inputs if p is not None}
    for path in (p for p in paths if p is not None):
        if not path:
            raise FileNotFoundError("cannot write an empty path")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"cannot write {path}: no directory {folder}")
        if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise PermissionError(f"cannot write {path}: it is a directory or not writable")
        real = os.path.realpath(path)
        if real in claimed:
            raise FileExistsError(f"cannot write {path}: it is the same file as {claimed[real]}")
        claimed[real] = path
    if report_dir is None:
        return
    if not report_dir:
        raise FileNotFoundError("cannot write reports to an empty path")
    folder = os.path.realpath(report_dir)
    for real, path in claimed.items():
        if folder == real or folder.startswith(real + os.sep):
            raise FileExistsError(f"cannot write reports to {report_dir}: it is or lies inside {path}")
        if os.path.dirname(real) == folder and _REPORT_PATTERN.fullmatch(os.path.basename(real)):
            raise FileExistsError(f"cannot write {path}: a report in {report_dir} takes that name")
    if os.path.isdir(report_dir):
        for name in filter(_REPORT_PATTERN.fullmatch, os.listdir(report_dir)):
            entry = os.path.join(report_dir, name)
            if os.path.isdir(entry) or not os.access(entry, os.W_OK):
                raise PermissionError(f"cannot write report {entry}: it is a directory or not writable")


def _write_results(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def cmd_gen_data(args) -> int:
    cfg = _config_from_args(args)
    _check_writable(args.out_data, args.out_partition, inputs=[args.config])
    dataset, _, partition, _ = _build_world(cfg)
    dat.save_dataset_csv(args.out_data, dataset)
    dat.save_partition_csv(args.out_partition, partition)
    print(f"wrote {len(dataset)} samples to {args.out_data}, {partition.n_clients} clients to {args.out_partition}")
    return 0


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    _check_writable(cfg.output, args.round_log, inputs=[args.config], report_dir=args.report_dir)
    if args.report_dir is not None:
        os.makedirs(args.report_dir, exist_ok=True)
    rows = run_experiment(cfg, report_dir=args.report_dir, round_log=args.round_log)
    _write_results(cfg.output, rows)
    ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"wrote {len(rows)} rows ({ok} ok) to {cfg.output}")
    return 0


def _parse_grid(text, cast, flag, default):
    """Values of a comma-separated grid flag; [default] when it is absent."""
    if text is None:
        return [default]
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of {cast.__name__} values, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} lists no values")
    return values


def cmd_sweep(args) -> int:
    base = _config_from_args(args)
    alphas = _parse_grid(args.alphas, float, "--alphas", base.partition.alpha)
    epoch_grid = _parse_grid(args.epoch_grid, int, "--epoch-grid", base.scheme.epochs)
    seeds = _parse_grid(args.seeds, int, "--seeds", base.seed)
    # every grid point is checked before the first one runs
    configs = [
        replace(base, partition=replace(base.partition, alpha=alpha), scheme=replace(base.scheme, epochs=m), seed=seed)
        for alpha in alphas
        for m in epoch_grid
        for seed in seeds
    ]
    _check_writable(base.output, inputs=[args.config])
    rows = [row for cfg in configs for row in run_experiment(cfg)]
    _write_results(base.output, rows)
    print(f"wrote {len(rows)} rows to {base.output}")
    return 0


# Seed and count of the normals behind diagnose-moments' Gaussian confusion matrix.
_GAUSS_SEED = 0
_GAUSS_SAMPLES = 10000


def cmd_diagnose_moments(args) -> int:
    """Histogram every (class, logit) pair, then print per class how far the
    Monte Carlo confusion matrix of a Gaussian fit to the logits is from the
    plug-in matrix of the logits themselves, as max_j |s_gauss - s_plugin|."""
    if args.bins < 1:
        raise ValueError(f"--bins must be at least 1, got {args.bins}")
    _check_writable(args.output, inputs=[args.model, args.data])
    model = nn.load_model(args.model)
    dataset = dat.load_dataset_csv(args.data, model.n_classes)
    width, inputs = dataset.features.shape[1], model.layer_sizes[0]
    if width != inputs:
        raise ValueError(f"{args.data} has {width} features per row, but the model in {args.model} takes {inputs}")
    logits, bounds = atk.class_logits(model, dataset)
    n = model.n_classes
    # the Gaussian fit is the step that can reject the logits, so it runs
    # before the output file is opened: a failed run writes nothing
    normals = np.random.default_rng(_GAUSS_SEED).standard_normal((_GAUSS_SAMPLES, n))
    s_gauss = atk.mc_confusion(atk._logit_moments(logits, bounds), normals).s
    gap = np.abs(s_gauss - atk.plugin_confusion(logits, bounds).s).max(axis=1)
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "j", "bin_left", "bin_right", "count"])
        for cls, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            for j in range(n):
                counts, edges = np.histogram(logits[lo:hi, j], bins=args.bins)
                for b in range(args.bins):
                    writer.writerow([cls, j, repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b])])
    print(f"wrote {n * n * args.bins} histogram rows to {args.output}")
    for cls in range(n):
        print(f"class {cls}: max_j |s_gauss - s_plugin| = {gap[cls]:.6e}")
    return 0


def cmd_report(args) -> int:
    _check_writable(args.output, inputs=args.inputs)
    rows = []
    for path in args.inputs:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in RESULT_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}")
            rows.extend(reader)
    groups = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        key = (row["scheme"], row["optimizer"], row["alpha"], row["m"], row["batch"])
        groups.setdefault(key, []).append(row)
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["scheme", "optimizer", "alpha", "m", "batch", "n"]
        for name in ("cacc", "iacc", "l1_err", "residual"):
            header += [f"{name}_mean", f"{name}_std"]
        writer.writerow(header)
        for key in sorted(groups):
            grp = groups[key]
            out = list(key) + [len(grp)]
            for name in ("cacc", "iacc", "l1_err", "residual"):
                vals = np.array([float(r[name]) for r in grp])
                std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
                out += [repr(float(vals.mean())), repr(std)]
            writer.writerow(out)
    print(f"wrote {len(groups)} aggregate rows to {args.output}")
    return 0


def _add_config_args(p, with_output=True):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--n-classes", dest="n_classes", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--clients", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--scheme", choices=fed.SCHEMES)
    p.add_argument("--optimizer", choices=fed.OPTIMIZERS)
    p.add_argument("--eta", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epochs", type=int, help="local epochs m")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--search-iters", dest="search_iters", type=int)
    p.add_argument("--aux-per-class", dest="aux_per_class", type=int)
    if with_output:
        p.add_argument("--output", help="result CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedleak", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write dataset and partition CSVs")
    _add_config_args(p, with_output=False)
    p.add_argument("--out-data", default="data.csv")
    p.add_argument("--out-partition", default="partition.csv")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run", help="simulate rounds and attack every update")
    _add_config_args(p)
    p.add_argument("--report-dir", help="also write per-attack JSON reports here")
    p.add_argument("--round-log", help="also write the per-round training log CSV here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="grid of runs over alpha/epochs/seeds")
    _add_config_args(p)
    p.add_argument("--alphas", help="comma-separated alpha grid")
    p.add_argument("--epoch-grid", dest="epoch_grid", help="comma-separated local-epoch grid")
    p.add_argument("--seeds", help="comma-separated master seeds")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose-moments", help="logit histograms per (class, logit)")
    p.add_argument("--model", required=True, help="model checkpoint path")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--output", default="moments.csv")
    p.add_argument("--bins", type=int, default=100)
    p.set_defaults(func=cmd_diagnose_moments)

    p = sub.add_parser("report", help="aggregate result CSVs")
    p.add_argument("inputs", nargs="+", help="result CSV paths")
    p.add_argument("--output", default="report.csv")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
