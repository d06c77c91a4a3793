"""Config-driven experiment execution: runs, sweeps, aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import corruption as corr_mod
from .config import ConfigError, ExperimentConfig
from .datasets import load_csv
from .measurement import (
    DatasetRows,
    GaussianSphere,
    NormalizedIIDSubGaussian,
    NormalizedRademacher,
)
from .solvers import Lanes, SolverSpec, StreamSpec, recommend_G, run_batch, signal_rng


def synthetic_measurement(kind: str, d: int, base: Optional[str]):
    """Model of a synthetic measurement kind, or None for any other kind.

    ``base`` only applies to normalized_iid_subgaussian.
    """
    if kind == "gaussian_sphere":
        return GaussianSphere(d)
    if kind == "normalized_rademacher":
        return NormalizedRademacher(d)
    if kind == "normalized_iid_subgaussian":
        return NormalizedIIDSubGaussian(d, base=base)
    return None


def build_measurement(config: ExperimentConfig):
    """Instantiate the measurement model; returns (model, dataset-or-None)."""
    spec = config.measurement
    model = synthetic_measurement(spec["kind"], config.dimension, spec.get("base"))
    if model is not None:
        return model, None
    data = load_csv(
        spec["path"],
        spec["features"],
        spec["response"],
        center=spec["center"],
        z_score=spec["z_score"],
        row_normalize=spec["row_normalize"],
        center_response=spec["center_response"],
        delimiter=spec["delimiter"],
    )
    if data.d != config.dimension:
        raise ConfigError(
            f"measurement.path: dataset has {data.d} features, config dimension is "
            f"{config.dimension}"
        )
    return DatasetRows(data.features), data


def build_corruption(config: ExperimentConfig):
    spec = config.corruption
    kind = spec["kind"]
    if kind == "none":
        return corr_mod.NoCorruption()
    if kind == "sign_flip":
        return corr_mod.SignFlip(spec["p"])
    if kind == "residual_sign":
        return corr_mod.ResidualSignAdversary(spec["p"])
    law = spec["law"]
    noise = (
        corr_mod.Uniform(law["half_width"])
        if law["kind"] == "uniform"
        else corr_mod.Gaussian(law["variance"])
    )
    return corr_mod.AdditiveOblivious(spec["p"], noise)


def build_stream(config: ExperimentConfig) -> StreamSpec:
    """The config's measurement model, corruption channel and response link."""
    model, data = build_measurement(config)
    return StreamSpec(
        model=model,
        corruption=build_corruption(config),
        relu=(config.response == "relu"),
        responses=data.responses if data is not None else None,
    )


def draw_signals(config: ExperimentConfig):
    """Per-seed planted signals (S, d), or None for dataset experiments."""
    if config.signal is None:
        return None
    d = config.dimension
    kind = config.signal["kind"]
    if kind == "fixed":
        v = np.asarray(config.signal["values"], dtype=float)
        return np.repeat(v[None, :], len(config.seeds), axis=0)
    out = np.empty((len(config.seeds), d))
    for i, seed in enumerate(config.seeds):
        rng = signal_rng(seed)
        g = rng.standard_normal(d)
        if kind == "scaled_standard_normal":
            norm = np.linalg.norm(g)
            while norm == 0.0:
                g = rng.standard_normal(d)
                norm = np.linalg.norm(g)
            g = g * (config.signal["norm"] / norm)
        out[i] = g
    return out


def resolve_solver(solver_cfg: dict, config: ExperimentConfig, signal_norms=None):
    """Build the SolverSpec and per-seed step scales for one solver entry.

    "auto" step scales resolve to the minimal admissible scale
    recommend_G(lam, ||x_true||) times g_scale, per seed; sgd_root's
    auto gamma follows the same rule (shared scale, different decay).
    """
    method = solver_cfg["method"]
    lam = solver_cfg["lam"]
    G = solver_cfg["G"]
    gamma = solver_cfg["gamma"]
    per_seed_G = per_seed_gamma = None

    def auto_scale():
        if signal_norms is None:
            raise ConfigError(
                f"solvers: {solver_cfg['name']!r} uses an 'auto' step scale, which "
                "needs a planted signal"
            )
        if lam is None:
            raise ConfigError(
                f"solvers: {solver_cfg['name']!r} uses an 'auto' step scale, which needs lam"
            )
        return solver_cfg["g_scale"] * np.array(
            [recommend_G(lam, n) for n in signal_norms]
        )

    if method.startswith("sgd_exp"):
        if G == "auto":
            per_seed_G = auto_scale()
            G = float(per_seed_G[0])
    elif method.startswith("sgd_root"):
        if gamma == "auto":
            per_seed_gamma = auto_scale()
            gamma = float(per_seed_gamma[0])

    spec = SolverSpec(
        method=method,
        d=config.dimension,
        T=config.horizon,
        lam=lam,
        G=G if isinstance(G, float) else None,
        gamma=gamma if isinstance(gamma, float) else None,
        schedule=solver_cfg["schedule"],
        m=solver_cfg["m"],
    )
    return spec, per_seed_G, per_seed_gamma


def _run_lanes(config: ExperimentConfig, p_grid) -> list:
    """One engine call over every (p, solver, seed) lane; Trajectories in that order."""
    stream = build_stream(config)
    signals = draw_signals(config)
    norms = np.linalg.norm(signals, axis=1) if signals is not None else None
    resolved = [resolve_solver(s, config, norms) for s in config.solvers]
    groups = [
        (spec, p, per_g if per_g is not None else per_gamma)
        for p in p_grid
        for spec, per_g, per_gamma in resolved
    ]
    trajectories = run_batch(
        Lanes(groups),
        stream,
        config.seeds,
        x_true=signals,
        checkpoint_every=config.checkpoint_every,
    )
    fingerprint = config.fingerprint()
    for i, traj in enumerate(trajectories):
        traj.solver = config.solvers[i // len(config.seeds) % len(config.solvers)]["name"]
        traj.fingerprint = fingerprint
    return trajectories


def run_experiment(config: ExperimentConfig) -> list:
    """Run every (solver, seed) cell of the config; returns Trajectory list."""
    return _run_lanes(config, [build_corruption(config).p])


#: Checkpoint field behind each config metric name.
METRIC_FIELDS = {"relative_error": "relative_error", "clean_l2_loss": "clean_loss"}


def aggregate_mean(trajectories, metric: str = "relative_error"):
    """Pointwise mean of a checkpoint metric across seeds, per solver.

    ``metric`` is a config metric name or a Checkpoint field; anything
    else is a ValueError.  Returns {solver: (ks, means)} in sorted solver
    order, with ks shared across that solver's trajectories.  Missing
    values are left out of the mean; a checkpoint or solver with no
    value at all is left out.
    """
    if metric not in {*METRIC_FIELDS, *METRIC_FIELDS.values()}:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRIC_FIELDS)}")
    field = METRIC_FIELDS.get(metric, metric)
    by_solver = {}
    for traj in trajectories:
        by_solver.setdefault(traj.solver, []).append(traj)
    out = {}
    for solver in sorted(by_solver):
        trajs = by_solver[solver]
        ks = [cp.k for cp in trajs[0].checkpoints]
        for t in trajs[1:]:
            if [cp.k for cp in t.checkpoints] != ks:
                raise ValueError(f"trajectories of {solver!r} have mismatched checkpoints")
        values = np.array(
            [[getattr(cp, field) for cp in t.checkpoints] for t in trajs], dtype=float
        )
        has = ~np.all(np.isnan(values), axis=0)
        if has.any():
            # Fill, not drop, the empty columns: a column subset would change the sum's order.
            values[:, ~has] = 0.0
            out[solver] = (np.array(ks)[has], np.nanmean(values, axis=0)[has])
    return out


@dataclass
class SweepRow:
    solver: str
    p: float
    k: int
    mean_value: float
    n_seeds: int
    metric: str


def run_sweep(config: ExperimentConfig, p_grid, seed_grid=None) -> list:
    """Run the config across a grid of corruption probabilities.

    Returns SweepRow records: the across-seed mean of the primary metric
    at every checkpoint, per (solver, p).
    """
    if config.corruption["kind"] == "none":
        raise ConfigError("corruption.kind: cannot sweep p over the 'none' channel")
    metric = "relative_error" if "relative_error" in config.metrics else "clean_l2_loss"
    if seed_grid is not None:
        config = config.with_updates(seeds=list(seed_grid))
    # Each p is validated as the p of a config of its own.
    p_grid = [
        config.with_updates(corruption=dict(config.corruption, p=float(p))).corruption["p"]
        for p in p_grid
    ]
    if len(set(p_grid)) < len(p_grid):
        raise ConfigError(f"--p: a probability is repeated in {p_grid}")
    trajs = _run_lanes(config, p_grid)
    cell = len(config.solvers) * len(config.seeds)
    rows = []
    for i, p in enumerate(p_grid):
        lanes = trajs[i * cell : (i + 1) * cell]
        for solver, (ks, means) in aggregate_mean(lanes, metric).items():
            for k, v in zip(ks, means):
                rows.append(
                    SweepRow(
                        solver=solver,
                        p=float(p),
                        k=int(k),
                        mean_value=float(v),
                        n_seeds=len(config.seeds),
                        metric=metric,
                    )
                )
    return rows
