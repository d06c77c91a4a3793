#!/usr/bin/env python3
"""Symmetric oblivious corruption at increasing p with the recommended decay.

For each corruption probability the step decay follows
lam = sqrt(1 + 2 (1-p)^2 / (d ln^2 T)), so every p gets its own config;
all mean-error curves land on one chart.  Convergence persists for p
well above 1/2, unlike sign-flip (semi-random) corruption.
"""

import math
from pathlib import Path

from sgdexp.config import validate_config
from sgdexp.experiment import run_experiment
from sgdexp.results import emit_plot, emit_results

ROOT = Path(__file__).resolve().parent.parent
D, T = 50, 100_000
P_GRID = [0.5, 0.7, 0.8, 0.9]
SEEDS = list(range(1, 11))


def config_for(p: float):
    lam = math.sqrt(1.0 + 2.0 * (1.0 - p) ** 2 / (D * math.log(T) ** 2))
    return validate_config(
        {
            "dimension": D,
            "horizon": T,
            "seeds": SEEDS,
            "checkpoint_every": 2500,
            "measurement": {"kind": "gaussian_sphere"},
            "corruption": {
                "kind": "additive_oblivious",
                "p": p,
                "law": {"kind": "gaussian", "variance": 30.0},
            },
            "solvers": [
                {
                    "name": f"p={p}",
                    "method": "sgd_exp_linear",
                    "lam": lam,
                    "G": "auto",
                    "g_scale": 1.0 / 3.0,
                }
            ],
        }
    )


def main():
    out = ROOT / "results" / "oblivious_varying_p"
    all_trajectories = []
    for p in P_GRID:
        trajs = run_experiment(config_for(p))
        final = sum(t.checkpoints.relative_error[-1] for t in trajs) / len(trajs)
        print(f"p={p}: mean final relative error {final:.3e}")
        all_trajectories.extend(trajs)
    emit_results(all_trajectories, out)
    emit_plot(
        all_trajectories,
        out / "results.svg",
        title="oblivious Gaussian corruption, recommended decay",
    )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
