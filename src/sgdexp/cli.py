"""Command-line interface.

Subcommands: run, sweep, drift-check, ctilde, dataset prep, plot.
Exit code 0 on success; validation failures print one diagnostic line
to stderr and exit nonzero.  RSGD_OUT_DIR overrides the config output
directory; --out-dir overrides both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .corruption import ResidualSignAdversary
from .datasets import load_csv
from .drift import drift_params, hitting_bound, mc_hitting_probability
from .experiment import (
    build_stream,
    draw_signals,
    resolve_solver,
    run_experiment,
    run_sweep,
    synthetic_measurement,
)
from .measurement import estimate_ctilde
from .results import emit_plot, emit_results, emit_sweep_csv, read_results_csv


def _common_flags(parser):
    """The flags of run, sweep and drift-check.  Each other subcommand takes only those it reads."""
    parser.add_argument("--seed", type=int, default=None, help="override config seeds with one seed")
    parser.add_argument("--out-dir", default=None, help="output directory (beats RSGD_OUT_DIR)")
    _quiet_flag(parser)


def _quiet_flag(parser):
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _check_flags(*checks):
    """Raise one error naming the first of ``(flag, value, least)`` given an integer below least."""
    for flag, value, least in checks:
        if value is not None and value < least:
            raise ConfigError(f"{flag}: expected an integer of at least {least}, got {value}")


def _resolve_out_dir(args, config=None) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    env = os.environ.get("RSGD_OUT_DIR")
    if env:
        return Path(env)
    if config is not None and config.output_dir:
        return Path(config.output_dir)
    return Path("results")


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_updates(seeds=[args.seed])
    return config


def _say(args, message):
    if not args.quiet:
        print(message)


def _cmd_run(args) -> int:
    config = _load(args)
    out_dir = _resolve_out_dir(args, config)
    trajectories = run_experiment(config)
    csv_path, manifest_path = emit_results(trajectories, out_dir)
    svg_path = emit_plot(
        trajectories,
        out_dir / "results.svg",
        metric=config.metrics[0],
    )
    _say(args, f"wrote {csv_path}")
    _say(args, f"wrote {manifest_path}")
    _say(args, f"wrote {svg_path}")
    return 0


def _parse_list(text, cast, flag):
    try:
        items = [cast(tok) for tok in text.split(",") if tok.strip()]
        if items:
            return items
    except ValueError:
        pass
    raise ConfigError(f"{flag}: expected a nonempty comma-separated list, got {text!r}")


def _cmd_sweep(args) -> int:
    config = _load(args)
    out_dir = _resolve_out_dir(args, config)
    p_grid = _parse_list(args.p, float, "--p")
    seed_grid = _parse_list(args.seeds, int, "--seeds") if args.seeds else None
    rows = run_sweep(config, p_grid, seed_grid)
    path = emit_sweep_csv(rows, out_dir)
    _say(args, f"wrote {path}")
    return 0


def _cmd_drift_check(args) -> int:
    if args.ctilde is not None and not 0 < args.ctilde < math.inf:
        raise ConfigError(f"--ctilde: expected a finite number above 0, got {args.ctilde}")
    _check_flags(("--K", args.K, 0), ("--mc", args.mc, 1))
    config = _load(args)
    out_dir = _resolve_out_dir(args, config)
    solver_cfg = config.solvers[0]
    if not solver_cfg["method"].startswith("sgd_exp"):
        raise ConfigError("drift-check: the first solver must be an sgd_exp method")
    regime = "relu" if config.response == "relu" else "linear"
    noise = (
        "oblivious" if config.corruption["kind"] == "additive_oblivious" else "massart"
    )
    p = 0.0 if config.corruption["kind"] == "none" else config.corruption["p"]

    signals = draw_signals(config) if args.mc else None
    if args.mc and signals is None:
        raise ConfigError("drift-check --mc requires a synthetic experiment")
    ctilde = args.ctilde if args.ctilde is not None else config.ctilde
    stream = build_stream(config) if ctilde is None or args.mc else None
    if ctilde is None:
        est = estimate_ctilde(
            stream.model, 200_000, np.random.default_rng(args.seed or 0), n_directions=16
        )
        ctilde = est.value
        _say(args, f"estimated ctilde = {ctilde:.6f} (stderr {est.stderr:.2g})")

    params = drift_params(solver_cfg["lam"], p, config.dimension, ctilde, regime=regime, noise=noise)
    K = args.K if args.K is not None else config.horizon
    bound = hitting_bound(params, K)
    report = {
        "drift_params": params.to_dict(),
        "K": K,
        "hitting_bound_raw": bound.raw,
        "hitting_bound": bound.clamped,
    }

    if args.mc:
        norms = np.linalg.norm(signals, axis=1)
        spec, _, _ = resolve_solver(solver_cfg, config, norms)
        if not isinstance(stream.corruption, ResidualSignAdversary):
            _say(args, "note: corruption is not the residual-sign adversary; the bound still applies")
        mc = mc_hitting_probability(
            spec, stream, signals[0], params, K, args.mc, seed=args.seed or 0
        )
        report["mc"] = mc.to_dict()

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "drift_report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_ctilde(args) -> int:
    model = synthetic_measurement(args.model, args.d, args.base)
    if model is None:
        raise ConfigError(f"--model: unknown model {args.model!r}")
    _check_flags(
        ("--seed", args.seed, 0), ("--directions", args.directions, 1), ("--samples", args.samples, 100)
    )
    rng = np.random.default_rng(args.seed or 0)
    est = estimate_ctilde(model, args.samples, rng, n_directions=args.directions)
    report = {"model": args.model, "d": args.d, **dataclasses.asdict(est)}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_dataset_prep(args) -> int:
    features = _parse_list(args.features, str, "--features")
    data = load_csv(
        args.csv,
        features,
        args.response,
        center=args.center,
        z_score=args.z_score,
        row_normalize=args.row_normalize,
        center_response=args.center_response,
        delimiter=args.delimiter,
    )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(data.feature_names + [data.response_name]) + "\n")
        for row, y in zip(data.features, data.responses):
            cells = [format(v, ".17g") for v in row] + [format(y, ".17g")]
            fh.write(",".join(cells) + "\n")
    _say(args, f"wrote {out} ({data.m} rows, {data.d} features)")
    return 0


def _cmd_plot(args) -> int:
    trajectories = read_results_csv(args.results)
    path = emit_plot(trajectories, args.output, metric=args.metric)
    _say(args, f"wrote {path}")
    return 0


class _Version(argparse.Action):
    """``--version``: the package version, then one line per compiled part."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from . import __version__, _kernel

        print(f"sgdexp {__version__}")
        for part, state in _kernel.status().items():
            print(f"{part}: {state}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdexp",
        description="Streaming robust regression experiments with geometric step-size SGD",
    )
    parser.add_argument(
        "--version", action=_Version, help="print the version and the state of the compiled parts"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config and emit CSV/manifest/SVG")
    p_run.add_argument("config")
    _common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config across corruption probabilities")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--p", required=True, help="comma-separated corruption probabilities")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seed overrides")
    _common_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_drift = sub.add_parser("drift-check", help="drift constants and hitting bound for a config")
    p_drift.add_argument("config")
    p_drift.add_argument("--ctilde", type=float, default=None)
    p_drift.add_argument("--K", type=int, default=None, help="hitting horizon (default: config horizon)")
    p_drift.add_argument("--mc", type=int, default=None, help="validate with this many Monte Carlo runs")
    _common_flags(p_drift)
    p_drift.set_defaults(func=_cmd_drift_check)

    p_ct = sub.add_parser("ctilde", help="estimate the measurement anti-concentration constant")
    p_ct.add_argument("--model", required=True)
    p_ct.add_argument("--d", type=int, required=True)
    p_ct.add_argument("--samples", type=int, required=True)
    p_ct.add_argument("--directions", type=int, default=32)
    p_ct.add_argument("--base", default="uniform")
    p_ct.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    p_ct.set_defaults(func=_cmd_ctilde)

    p_data = sub.add_parser("dataset", help="dataset utilities")
    data_sub = p_data.add_subparsers(dest="dataset_command", required=True)
    p_prep = data_sub.add_parser("prep", help="load, preprocess, and rewrite a CSV")
    p_prep.add_argument("csv")
    p_prep.add_argument("--features", required=True, help="comma-separated feature columns")
    p_prep.add_argument("--response", required=True)
    p_prep.add_argument("--z-score", action="store_true", dest="z_score")
    p_prep.add_argument("--center", action="store_true")
    p_prep.add_argument("--row-normalize", action="store_true", dest="row_normalize")
    p_prep.add_argument("--center-response", action="store_true", dest="center_response")
    p_prep.add_argument("--delimiter", default=",")
    p_prep.add_argument("-o", "--output", required=True)
    _quiet_flag(p_prep)
    p_prep.set_defaults(func=_cmd_dataset_prep)

    p_plot = sub.add_parser("plot", help="render a results CSV as a semilog SVG chart")
    p_plot.add_argument("results")
    p_plot.add_argument("-o", "--output", required=True)
    p_plot.add_argument("--metric", default="relative_error")
    _quiet_flag(p_plot)
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
