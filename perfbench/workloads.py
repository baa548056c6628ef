"""The benchmark's workloads: one ExperimentConfig per name and seed.

Each workload is a whole `run_experiment` job, chosen so that a different
layer dominates it (see WHY). The seed is the only input that varies; the
program sees nothing but the config built here.
"""

from dataclasses import replace

from fedleak import cli, fedsim

WHY = {
    "single_epoch": "default fedleak run (fedavg/sgd, m=1): Monte Carlo confusion dominates the attack",
    "multi_epoch_search": "fedprox m=10: posterior search and many small mean_softmax calls",
    "train_heavy": "scaffold, wide hidden layers, 20 clients, m=20: local training and nn backward dominate",
}


def config(name: str, seed: int) -> cli.ExperimentConfig:
    """The ExperimentConfig of workload `name` at master seed `seed`."""
    base = cli.ExperimentConfig(seed=seed)
    if name == "single_epoch":
        return replace(base, rounds=3)
    if name == "multi_epoch_search":
        scheme = fedsim.SchemeConfig(scheme="fedprox", lam=25.0, eta=0.01, epochs=10)
        return replace(base, scheme=scheme, rounds=3)
    if name == "train_heavy":
        return replace(
            base,
            data=replace(base.data, dim=64, per_class=500),
            partition=replace(base.partition, clients=20),
            model=replace(base.model, hidden=(256, 256)),
            scheme=fedsim.SchemeConfig(scheme="scaffold", epochs=20, batch_size=128),
            attack=replace(base.attack, mc_samples=1000, search_iters=0),
            rounds=5,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
