"""Benchmark workloads: inputs made from the workload seed, work counts, output checks.

Each workload turns the benchmark's ``--seed`` into program inputs (a
config, and for ``run_dataset`` a CSV), names the work units its
throughput counts, and checks one execution's outputs against the
reference digests in ``reference.json``.  Seed ``n`` selects input
variant ``n % N_VARIANTS``; the same seed always gives the same inputs,
and ``make_reference.py`` stores the digests of every variant.

Inputs are drawn with ``random.Random`` seeded by a string, whose stream
does not depend on the numpy version; the program itself sees only the
generated files and command-line arguments.

The shares quoted next to each workload come from one traced run
(``--trace 1 --seed 5``) on a 2-core Intel Xeon VM, Python 3.11,
numpy 2.4; execution times on that machine drift by up to 1.8x within
a minute, so they are shares, not speeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

N_VARIANTS = 32

#: The drift check's tail bound must be this small for "zero hits" to be a test.
DRIFT_BOUND_MAX = 1e-20
#: Validator estimates must match the reference to this relative tolerance.
VALIDATOR_RTOL = 1e-9


class WorkloadInputError(RuntimeError):
    """Generated inputs fail their self-check; no execution would be meaningful."""


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_results_csv(path) -> str:
    """Digest of a results CSV with the elapsed_seconds column removed."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header[-1] != "elapsed_seconds":
        raise ValueError(f"{path}: last column is {header[-1]!r}, expected elapsed_seconds")
    kept = [line.rsplit(",", 1)[0] for line in lines]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest()


def _rng(workload: str, variant: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{variant}")


def _program_seeds(rng: random.Random, n: int) -> list:
    return sorted(rng.sample(range(1, 1_000_000), n))


def _shipped_config(name: str) -> dict:
    with open(ROOT / "configs" / name, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.pop("output_dir", None)
    return cfg


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


class SweepRelu:
    """``sgdexp sweep`` of the shipped ReLU sign-flip config over p in {0.2, 0.4}.

    Why: the sweep runs 4 solvers x 2 p values, and each of those 8
    lanes per seed redraws the identical measurement and corruption
    stream.  Measurement sampling is 44% of engine time here (1.68 s of
    run_batch's 3.83 s), so this is the workload on which sharing one
    stream across lanes must show: sampled rows per lane-step can fall
    from 1 to 1/8.  The step-law audit is 0.47 of the 2.69 us the step
    loop spends per lane-step.
    Loads: measurement (per-seed blocks), solvers (ReLU gate, GLM-Tron's
    per-step eta, the sign-flip branch, the step-law audit),
    experiment.run_sweep, results.emit_sweep_csv.
    Bypasses: datasets, corruption noise draws, drift.
    Work unit: lane-steps (solvers x p values x seeds x horizon).
    """

    name = "sweep_relu"
    unit = "lane-steps"
    horizon = 10_000
    checkpoint_every = 1_000
    n_seeds = 10
    p_grid = "0.2,0.4"

    def generate(self, variant: int, work: Path) -> dict:
        rng = _rng(self.name, variant)
        cfg = _shipped_config("relu_signflip.json")
        cfg.update(
            horizon=self.horizon,
            checkpoint_every=self.checkpoint_every,
            seeds=_program_seeds(rng, self.n_seeds),
        )
        lanes = len(cfg["solvers"]) * len(self.p_grid.split(",")) * self.n_seeds
        return {
            "args": {"config": _write_json(work / "sweep_relu.json", cfg), "p": self.p_grid},
            "work_units": lanes * self.horizon,
        }

    def digests(self, out_dir: Path, result: dict) -> dict:
        return {"sweep_csv": sha256_file(out_dir / "sweep.csv")}

    def check(self, out_dir: Path, result: dict, reference: dict) -> list:
        return _compare_digests(self.digests(out_dir, result), reference)


# Means and standard deviations of the UCI red-wine features, in the
# schema of configs/redwine.json; the file itself is not in the repo.
_WINE_COLUMNS = (
    ("fixedAcidity", 8.32, 1.74),
    ("volatileAcidity", 0.528, 0.179),
    ("citricAcid", 0.271, 0.195),
    ("residualSugar", 2.54, 1.41),
    ("chlorides", 0.0875, 0.0471),
    ("freeSulfurDioxide", 15.9, 10.5),
    ("density", 0.99675, 0.00189),
    ("pH", 3.311, 0.154),
    ("sulphates", 0.658, 0.170),
    ("alcohol", 10.42, 1.07),
)
_WINE_ROWS = 1599


def synthesize_red_wine(rng: random.Random, path: Path) -> None:
    """Write a 1599-row CSV with the red-wine header, 10 features and an integer quality.

    Features are independent normals with the real data's means and
    deviations; quality is a rounded linear score clipped to [3, 8].
    """
    weights = [rng.gauss(0.0, 0.3) for _ in _WINE_COLUMNS]
    lines = [",".join([name for name, _, _ in _WINE_COLUMNS] + ["quality"])]
    for _ in range(_WINE_ROWS):
        z = [rng.gauss(0.0, 1.0) for _ in _WINE_COLUMNS]
        cells = [format(mu + sd * zi, ".6g") for (_, mu, sd), zi in zip(_WINE_COLUMNS, z)]
        score = 5.6 + sum(w * zi for w, zi in zip(weights, z)) + rng.gauss(0.0, 0.5)
        cells.append(str(min(8, max(3, round(score)))))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class RunDataset:
    """The red-wine pipeline: one sgd_exp_linear solver on a dataset_rows config.

    The config is configs/redwine.json (d=10, uniform oblivious noise,
    clean_l2_loss) at horizon 1e5 with a checkpoint every 100 steps, on
    a synthesized red-wine-schema CSV (data/winequality-red.csv is not
    shipped).  The execution calls load_config, run_experiment,
    emit_results and emit_plot(metric="clean_loss"), as
    scripts/redwine_pipeline.py does: ``sgdexp run`` on a dataset config
    fails in emit_plot, because the CLI passes the config
    metric name "clean_l2_loss" where emit_plot reads the Checkpoint
    attribute "clean_loss".
    Why: one lane per seed, so there is no stream to share; this is the
    bypass workload for stream sharing (predict no change there).  At
    d=10 the step loop's own time is 98% of run_batch (3.34 s of 3.40 s;
    sampling 1.4%), and run_batch is 82% of the traced wall time, so it
    shows step-loop and audit work most directly (3.34 us per lane-step,
    1.48 of them the audit).
    Loads: datasets.load_csv, DatasetRows gather, evaluate_clean_loss
    (10010 calls), corruption noise-law draws, emit_results + emit_plot.
    Bypasses: drift, the ReLU gate, GLM-Tron.
    Work unit: lane-steps (seeds x horizon).
    """

    name = "run_dataset"
    unit = "lane-steps"
    horizon = 100_000
    checkpoint_every = 100
    n_seeds = 10

    def generate(self, variant: int, work: Path) -> dict:
        rng = _rng(self.name, variant)
        csv_path = work / "winequality-red-synthetic.csv"
        synthesize_red_wine(rng, csv_path)
        cfg = _shipped_config("redwine.json")
        cfg["measurement"]["path"] = str(csv_path)
        cfg.update(
            horizon=self.horizon,
            checkpoint_every=self.checkpoint_every,
            seeds=_program_seeds(rng, self.n_seeds),
        )
        return {
            "args": {"config": _write_json(work / "run_dataset.json", cfg)},
            "work_units": self.n_seeds * self.horizon,
        }

    def digests(self, out_dir: Path, result: dict) -> dict:
        return {"results_csv": sha256_results_csv(out_dir / "results.csv")}

    def check(self, out_dir: Path, result: dict, reference: dict) -> list:
        failures = _compare_digests(self.digests(out_dir, result), reference)
        manifest = json.loads((out_dir / "results.manifest.json").read_text(encoding="utf-8"))
        for key in ("step_law_violations", "relu_gate_violations"):
            if manifest[key] != 0:
                failures.append(f"manifest {key} = {manifest[key]}")
        return failures


class DriftMC:
    """The theory-validation path: drift-check --mc, in-band drift, below-band moment.

    1. ``sgdexp drift-check --mc 100`` on a generated config: d=20,
       residual_sign p=0.4, lam from find_nonvacuous_hitting_config
       (target exponent 70, as acceptance criterion c07), g_scale 1.05
       and no ctilde, so estimate_ctilde runs.  The config must be
       generated: no shipped config passes ``drift-check --mc``.  The
       README's example ``drift-check configs/linear_signflip.json
       --ctilde 0.7979 --mc 100`` exits 2 (lam^2-1 = 6.0e-5 is outside
       the window (0, 2.83e-5]), and oblivious_high_p's g_scale 1/3
       fails the Y_0 < a check.
    2. mc_drift_linear_term over in-band states at d=100 (the shape of
       acceptance criterion c08).
    3. mc_drift_c2 over below-band states at d=100.
    Why: measurement is used in large sample-parallel chunks rather
    than per-seed blocks, and the hitting run is a wide lane axis (100
    lanes; the step loop spends 0.57 us per lane-step against 2.69 on
    sweep_relu) with validate_steps=False, hitting-time tracking and
    the one corruption channel that depends on the iterate.  Of 4.45 s
    traced, the hitting run takes 2.12 s, the in-band validator 1.07 s,
    the below-band one 0.55 s and the ctilde estimate 0.16 s.
    Loads: drift, measurement.estimate_ctilde, solvers (hitting path).
    Bypasses: datasets, results, the step-law audit.
    Work unit: Monte Carlo draws (hitting lane-steps + validator
    samples + ctilde samples).
    """

    name = "drift_mc"
    unit = "draws"
    d_hit = 20
    p = 0.4
    target_exponent = 70.0
    g_scale = 1.05
    K = 20_000
    mc_runs = 100
    ctilde_samples = 200_000  # fixed inside ``sgdexp drift-check``
    d_val = 100
    lam_val = 1.00001
    linear_states = 8
    c2_states = 4
    val_samples = 40_000

    def generate(self, variant: int, work: Path) -> dict:
        import numpy as np
        from sgdexp.config import validate_config
        from sgdexp.drift import (
            DriftWindowError,
            drift_params,
            find_nonvacuous_hitting_config,
            hitting_bound,
        )
        from sgdexp.experiment import draw_signals, resolve_solver
        from sgdexp.measurement import GAUSSIAN_LIMIT_CONSTANT, exact_sphere_constant

        rng = _rng(self.name, variant)
        seed = _program_seeds(rng, 1)[0]
        ct = exact_sphere_constant(self.d_hit)
        try:
            lam = find_nonvacuous_hitting_config(
                self.d_hit, self.p, ct, target_exponent=self.target_exponent
            ).lam
        except (DriftWindowError, RuntimeError) as exc:
            raise WorkloadInputError(f"drift_mc config: {exc}") from None
        cfg = {
            "dimension": self.d_hit,
            "horizon": self.K,
            "seeds": [seed],
            "checkpoint_every": self.K,
            "measurement": {"kind": "gaussian_sphere"},
            "corruption": {"kind": "residual_sign", "p": self.p},
            "solvers": [
                {
                    "name": "sgd-exp",
                    "method": "sgd_exp_linear",
                    "lam": lam,
                    "G": "auto",
                    "g_scale": self.g_scale,
                }
            ],
        }

        # Self-check: drift-check must find lam inside drift_params' window
        # (with room for its ctilde estimate to fall 2% low), Y_0 < a, and a
        # tail bound small enough that zero hits is the expected outcome;
        # mc_drift_c2 needs its own lam inside the window too.
        config = validate_config(cfg)
        try:
            params = drift_params(lam, self.p, self.d_hit, 0.98 * ct)
            drift_params(self.lam_val, self.p, self.d_val, GAUSSIAN_LIMIT_CONSTANT)
        except DriftWindowError as exc:
            raise WorkloadInputError(f"drift_mc config: {exc}") from None
        signals = draw_signals(config)
        _, per_g, _ = resolve_solver(config.solvers[0], config, np.linalg.norm(signals, axis=1))
        y0 = float(np.dot(signals[0], signals[0])) / float(per_g[0]) ** 2
        if not y0 < params.a:
            raise WorkloadInputError(f"drift_mc config: Y_0 = {y0:.6g} is not below a = {params.a:.6g}")
        bound = hitting_bound(params, self.K).raw
        if not bound < DRIFT_BOUND_MAX:
            raise WorkloadInputError(f"drift_mc config: tail bound {bound:.3g} >= {DRIFT_BOUND_MAX:g}")

        a_val = 1.0 / (2.0 * (self.lam_val * self.lam_val - 1.0))
        linear = [
            a_val + i * (3.0 * a_val * 0.9999 - a_val) / (self.linear_states - 1)
            for i in range(self.linear_states)
        ]
        c2 = [a_val * (0.1 + 0.89 * i / (self.c2_states - 1)) for i in range(self.c2_states)]
        args = {
            "config": _write_json(work / "drift_mc.json", cfg),
            "seed": seed,
            "mc": self.mc_runs,
            "validator": {
                "seed": rng.randrange(2**32),
                "d": self.d_val,
                "p": self.p,
                "lam": self.lam_val,
                "ctilde": GAUSSIAN_LIMIT_CONSTANT,
                "n_samples": self.val_samples,
                "linear_states": linear,
                "c2_states": c2,
            },
        }
        draws = (
            self.mc_runs * self.K
            + self.val_samples * (self.linear_states + self.c2_states)
            + self.ctilde_samples
        )
        return {"args": args, "work_units": draws}

    def digests(self, out_dir: Path, result: dict) -> dict:
        return {
            "drift_report": sha256_file(out_dir / "drift_report.json"),
            "validator_estimates": [r["estimate"] for r in result["validators"]],
        }

    def check(self, out_dir: Path, result: dict, reference: dict) -> list:
        got = self.digests(out_dir, result)
        failures = []
        if got["drift_report"] != reference["drift_report"]:
            failures.append("drift_report digest differs from the reference")
        want = reference["validator_estimates"]
        if len(got["validator_estimates"]) != len(want):
            failures.append("validator report count differs from the reference")
        for i, (g, w) in enumerate(zip(got["validator_estimates"], want)):
            if not math.isclose(g, w, rel_tol=VALIDATOR_RTOL):
                failures.append(f"validator {i} estimate {g!r} differs from reference {w!r}")
        for i, rep in enumerate(result["validators"]):
            if not rep["passed"]:
                failures.append(f"validator {i} above its ceiling: {rep}")
        report = json.loads((out_dir / "drift_report.json").read_text(encoding="utf-8"))
        if report["mc"]["empirical_prob"] != 0.0:
            failures.append(f"hitting probability {report['mc']['empirical_prob']} is not 0")
        if not report["hitting_bound_raw"] < DRIFT_BOUND_MAX:
            failures.append(f"tail bound {report['hitting_bound_raw']} >= {DRIFT_BOUND_MAX:g}")
        return failures


def _compare_digests(got: dict, reference: dict) -> list:
    return [
        f"{key} digest differs from the reference"
        for key, value in got.items()
        if reference.get(key) != value
    ]


WORKLOADS = {w.name: w for w in (SweepRelu(), RunDataset(), DriftMC())}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
