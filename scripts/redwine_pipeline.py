#!/usr/bin/env python3
"""Red-wine benchmark: one corrupted pass of sign SGD vs least squares.

Usage: python scripts/redwine_pipeline.py [path/to/winequality-red.csv]

Accepts either the comma schema with camelCase headers or the raw UCI
semicolon export.  Reports the clean least-squares loss, the loss of
least squares fit on corrupted responses, and the clean loss reached by
one corrupted pass (p=0.2, uniform noise on [-300, 300], lam=1.006).
"""

import sys
from pathlib import Path

import numpy as np

from sgdexp.config import load_config
from sgdexp.datasets import (
    DatasetMatrix,
    evaluate_clean_loss,
    least_squares_baseline,
    load_red_wine,
    red_wine_schema,
)
from sgdexp.experiment import run_experiment
from sgdexp.results import emit_plot, emit_results

ROOT = Path(__file__).resolve().parent.parent


def main():
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "data" / "winequality-red.csv"
    if not path.exists():
        print(f"dataset not found at {path}; pass the CSV path as an argument")
        return 1
    data = load_red_wine(path)
    print(f"loaded {data.m} rows, {data.d} features")

    x_ls = least_squares_baseline(data)
    print(f"clean least-squares loss: {evaluate_clean_loss(x_ls, data):.4f}")

    rng = np.random.default_rng(7)
    corrupted = data.responses.copy()
    mask = rng.random(data.m) < 0.2
    corrupted[mask] += rng.uniform(-300.0, 300.0, size=int(mask.sum()))
    x_bad = least_squares_baseline(DatasetMatrix(features=data.features, responses=corrupted))
    print(f"least squares on corrupted responses, clean loss: {evaluate_clean_loss(x_bad, data):.2f}")

    config = load_config(ROOT / "configs" / "redwine.json")
    delimiter, features, response = red_wine_schema(path)
    measurement = dict(
        config.measurement, path=str(path), features=features, response=response, delimiter=delimiter
    )
    config = config.with_updates(measurement=measurement)
    trajectories = run_experiment(config)

    finals = [t.checkpoints[-1].clean_loss for t in trajectories]
    print(f"one-pass sign-SGD clean loss (mean over {len(finals)} seeds): {np.mean(finals):.4f}")
    out = ROOT / config.output_dir
    emit_results(trajectories, out)
    emit_plot(trajectories, out / "results.svg", metric="clean_loss", title="red wine, p = 0.2")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
