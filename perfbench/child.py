"""One execution of one workload in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

run.py writes SPEC.json (workload, mode, run id, program arguments,
output directory, result path) and starts this script with PYTHONPATH
set to the checkout's ``src``.  The script stamps its own start, imports
``sgdexp.cli``, installs the probe (see probe.py), runs the workload
through the program's CLI or library entry points, and writes the
timestamps, violation counts, validator reports and, in trace mode, the
spans to the result path.  It exits 1 if the program reported an error.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import Probe, clock  # noqa: E402


def sweep_relu(args, out_dir):
    import sgdexp.cli

    rc = sgdexp.cli.main(
        ["sweep", args["config"], "--p", args["p"], "--out-dir", str(out_dir), "--quiet"]
    )
    return rc, {}


def run_dataset(args, out_dir):
    import sgdexp.config
    import sgdexp.experiment
    import sgdexp.results

    # scripts/redwine_pipeline.py's sequence; see workloads.RunDataset for why not ``sgdexp run``.
    config = sgdexp.config.load_config(args["config"])
    trajectories = sgdexp.experiment.run_experiment(config)
    sgdexp.results.emit_results(trajectories, out_dir)
    sgdexp.results.emit_plot(trajectories, out_dir / "results.svg", metric="clean_loss")
    return 0, {}


def drift_mc(args, out_dir):
    import numpy as np
    import sgdexp.cli
    import sgdexp.corruption
    import sgdexp.drift
    import sgdexp.measurement

    rc = sgdexp.cli.main(
        [
            "drift-check",
            args["config"],
            "--mc",
            str(args["mc"]),
            "--seed",
            str(args["seed"]),
            "--out-dir",
            str(out_dir),
            "--quiet",
        ]
    )
    v = args["validator"]
    rng = np.random.default_rng(v["seed"])
    model = sgdexp.measurement.GaussianSphere(v["d"])
    adversary = sgdexp.corruption.ResidualSignAdversary(v["p"])
    common = (v["p"], v["lam"], v["d"], v["ctilde"], model, adversary, v["n_samples"], rng)
    reports = [sgdexp.drift.mc_drift_linear_term(u2, *common) for u2 in v["linear_states"]]
    reports += [sgdexp.drift.mc_drift_c2(u2, *common) for u2 in v["c2_states"]]
    validators = [
        {"estimate": float(r.estimate), "ceiling": float(r.ceiling), "passed": bool(r.passed)}
        for r in reports
    ]
    return rc, {"validators": validators}


WORKLOADS = {"sweep_relu": sweep_relu, "run_dataset": run_dataset, "drift_mc": drift_mc}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    probe = Probe(trace=spec["mode"] == "trace", run_id=spec["run_id"])

    with probe.span("cli.import"):
        import sgdexp
        import sgdexp.cli  # noqa: F401
    src = Path(spec["src"]).resolve()
    if src not in Path(sgdexp.__file__).resolve().parents:
        print(f"error: imported sgdexp from {sgdexp.__file__}, not from {src}", file=sys.stderr)
        return 2

    probe.install()
    rc, extra = WORKLOADS[spec["workload"]](spec["args"], Path(spec["out_dir"]))
    t_done = clock()
    if probe.trace:
        probe.replay_without_audit()

    result = {
        "t_start": T_START,
        "t_ready": probe.t_ready,
        "t_done": t_done,
        "rc": rc,
        "violations": probe.violations,
        "spans": probe.spans if probe.trace else [],
        **extra,
    }
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
