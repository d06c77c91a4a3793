"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The replication runs (criteria 3-6) execute once in module-scoped
fixtures and are shared with the step-invariant audit (criterion 10).
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from sgdexp.cli import main
from sgdexp.config import load_config, validate_config
from sgdexp.corruption import AdditiveOblivious, ResidualSignAdversary, Uniform
from sgdexp.datasets import evaluate_clean_loss, least_squares_baseline, load_csv
from sgdexp.drift import (
    drift_params,
    find_nonvacuous_hitting_config,
    hitting_bound,
    mc_drift_linear_term,
)
from sgdexp.experiment import run_experiment
from sgdexp.measurement import DatasetRows, GaussianSphere, estimate_ctilde, exact_sphere_constant

CT = math.sqrt(2.0 / math.pi)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, ok, detail):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _mean_error_at(trajectories, solver, k):
    vals = []
    for t in trajectories:
        if t.solver != solver:
            continue
        matches = t.checkpoints.relative_error[t.checkpoints.k == k].tolist()
        assert matches, f"no checkpoint at k={k} for {solver}"
        vals.append(matches[0])
    assert vals, f"no trajectories for solver {solver}"
    return float(np.mean(vals))


@pytest.fixture(scope="module")
def linear_runs():
    """Criteria 3-4: sign-flip p=0.4 linear replication, 20 seeds, shared stream."""
    config = validate_config(
        {
            "dimension": 100,
            "horizon": 200_000,
            "seeds": list(range(1, 21)),
            "checkpoint_every": 2000,
            "measurement": {"kind": "gaussian_sphere"},
            "corruption": {"kind": "sign_flip", "p": 0.4},
            "solvers": [
                {"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.00003, "G": "auto"},
                {"name": "sgd-root", "method": "sgd_root_linear", "lam": 1.00003, "gamma": "auto"},
            ],
        }
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def oblivious_runs():
    """Criterion 5: symmetric oblivious corruption at p=0.9, recommended decay."""
    p, d, T = 0.9, 50, 100_000
    lam = math.sqrt(1.0 + 2.0 * (1.0 - p) ** 2 / (d * math.log(T) ** 2))
    config = validate_config(
        {
            "dimension": d,
            "horizon": T,
            "seeds": list(range(1, 11)),
            "checkpoint_every": 2500,
            "measurement": {"kind": "gaussian_sphere"},
            "corruption": {
                "kind": "additive_oblivious",
                "p": p,
                "law": {"kind": "gaussian", "variance": 30.0},
            },
            "solvers": [
                # g_scale 1/3 starts the scaled residual above the drift band so
                # the decade of decay lands inside [T/10, T] (pilot-calibrated)
                {
                    "name": "sgd-exp",
                    "method": "sgd_exp_linear",
                    "lam": lam,
                    "G": "auto",
                    "g_scale": 1.0 / 3.0,
                }
            ],
        }
    )
    return run_experiment(config)


def _relu_config(p, solvers):
    return validate_config(
        {
            "dimension": 100,
            "horizon": 200_000,
            "seeds": list(range(1, 11)),
            "checkpoint_every": 4000,
            "response": "relu",
            "measurement": {"kind": "gaussian_sphere"},
            "corruption": {"kind": "sign_flip", "p": p} if p > 0 else {"kind": "none"},
            "solvers": solvers,
        }
    )


@pytest.fixture(scope="module")
def relu_runs():
    """Criterion 6: ReLU regression, sign corruption vs GLM-Tron baselines."""
    corrupted = run_experiment(
        _relu_config(
            0.4,
            [
                {"name": "sgd-exp-relu", "method": "sgd_exp_relu", "lam": 1.00003, "G": "auto"},
                {"name": "glmtron-const", "method": "glmtron", "schedule": "const", "m": 1},
                {"name": "glmtron-root", "method": "glmtron", "schedule": "root", "m": 1},
                {"name": "glmtron-exp", "method": "glmtron", "schedule": "exp", "m": 1, "lam": 1.00003},
            ],
        )
    )
    clean = run_experiment(
        _relu_config(
            0.0,
            [
                {"name": "glmtron-exp", "method": "glmtron", "schedule": "exp", "m": 1, "lam": 1.00003},
                {"name": "glmtron-root", "method": "glmtron", "schedule": "root", "m": 1},
            ],
        )
    )
    return {"corrupted": corrupted, "clean": clean}


def test_c01_drift_constant_arithmetic():
    lam, p, d = 1.00001, 0.4, 100
    params = drift_params(lam, p, d, CT, regime="linear")
    # independent recomputation, spelled out from the defining formulas
    ls1 = lam * lam - 1.0
    f = 1.0 - 2.0 * p
    a = 1.0 / (2.0 * ls1)
    u = math.sqrt(2.0) * lam * lam * f * CT / math.sqrt(d) - math.sqrt(ls1) * (1.5 + lam * lam)
    c_star = u / (8.0 * lam * lam)
    expected = {
        "a": a,
        "b": 3.0 * a,
        "c_star": c_star,
        "eta": c_star * math.sqrt(ls1),
        "rho": 1.0 - (CT * f) ** 2 / (60.0 * d),
        "D": math.exp(CT * f / (3.0 * math.sqrt(d))),
    }
    worst = max(
        abs(getattr(params, k) - v) / abs(v) for k, v in expected.items()
    )
    chain = (1.0 / 15.0) * CT * f / math.sqrt(d)
    ok = worst <= 1e-9 and params.c_star > chain
    _report(1, "drift constant arithmetic", ok, f"max rel dev {worst:.2e}, c*={params.c_star:.6e} > {chain:.6e}")
    assert worst <= 1e-9
    assert params.c_star > chain


def test_c02_ctilde_recovery():
    est = estimate_ctilde(GaussianSphere(100), 1_000_000, np.random.default_rng(20240918))
    rel = abs(est.value - CT) / CT
    ok = rel <= 0.02
    _report(2, "ctilde recovery on the sphere", ok, f"value {est.value:.5f} vs {CT:.5f} ({rel:.3%})")
    assert ok


def test_c03_linear_signflip_replication(linear_runs):
    final = _mean_error_at(linear_runs, "sgd-exp", 200_000)
    mid = _mean_error_at(linear_runs, "sgd-exp", 10_000)
    ok = final <= 1e-2 and final <= 0.01 * mid
    _report(3, "linear sign-flip convergence", ok, f"final {final:.2e}, at k=1e4 {mid:.2e}, ratio {final / mid:.2e}")
    assert final <= 1e-2
    assert final <= 0.01 * mid


def test_c04_exp_beats_root(linear_runs):
    exp_final = _mean_error_at(linear_runs, "sgd-exp", 200_000)
    root_final = _mean_error_at(linear_runs, "sgd-root", 200_000)
    ok = exp_final < root_final
    _report(4, "geometric decay beats square-root decay", ok, f"{exp_final:.2e} < {root_final:.2e}")
    assert ok


def test_c05_oblivious_high_p(oblivious_runs):
    final = _mean_error_at(oblivious_runs, "sgd-exp", 100_000)
    tenth = _mean_error_at(oblivious_runs, "sgd-exp", 10_000)
    ok = final <= 0.1 * tenth
    _report(5, "oblivious p=0.9 keeps converging", ok, f"err(T) {final:.3f} vs 0.1 x err(T/10) {0.1 * tenth:.3f}")
    assert ok


def test_c06_relu_contrast(relu_runs):
    corrupted = relu_runs["corrupted"]
    clean = relu_runs["clean"]
    exp_final = _mean_error_at(corrupted, "sgd-exp-relu", 200_000)
    tron_finals = {
        name: _mean_error_at(corrupted, name, 200_000)
        for name in ("glmtron-const", "glmtron-root", "glmtron-exp")
    }
    clean_exp = _mean_error_at(clean, "glmtron-exp", 200_000)
    clean_root = _mean_error_at(clean, "glmtron-root", 200_000)
    ok = (
        exp_final <= 1e-2
        and all(v >= 1e-1 for v in tron_finals.values())
        and clean_exp <= 1e-2
        and clean_root <= 0.1  # >= 10x reduction from the initial error of 1
    )
    _report(
        6,
        "relu: sign-sgd converges where l2 updates stall",
        ok,
        f"sgd-exp-relu {exp_final:.2e}; glmtron {tron_finals}; clean exp {clean_exp:.1e}, root {clean_root:.1e}",
    )
    assert exp_final <= 1e-2
    for name, v in tron_finals.items():
        assert v >= 1e-1, name
    assert clean_exp <= 1e-2
    assert clean_root <= 0.1


def test_c07_hitting_time_bound(tmp_path):
    config_path = CONFIGS / "hitting_time.json"
    config = load_config(config_path)
    d, p = config.dimension, config.corruption["p"]
    ct = exact_sphere_constant(d)
    params = find_nonvacuous_hitting_config(d, p, ct, target_exponent=70.0)
    # The config writes in the search's lam and the sphere's constant.
    assert config.solvers[0]["lam"] == params.lam and config.ctilde == ct
    exponent = params.eta * (params.b - params.a)
    code = main(
        ["drift-check", str(config_path), "--mc", "100", "--seed", "7", "--out-dir", str(tmp_path), "--quiet"]
    )
    assert code == 0
    report = json.loads((tmp_path / "drift_report.json").read_text())
    assert report["drift_params"] == params.to_dict()
    K, bound_raw, mc = report["K"], report["hitting_bound_raw"], report["mc"]

    one = hitting_bound(params, 1).raw
    linear_exact = all(
        hitting_bound(params, k).raw == pytest.approx(k * one, rel=1e-12)
        for k in (0, 3, 10, 1000)
    )
    monotone = all(
        hitting_bound(params, k1).raw <= hitting_bound(params, k2).raw
        for k1, k2 in [(0, 1), (1, 5), (5, 500), (500, K)]
    )
    ok = exponent >= 60.0 and bound_raw < 1e-20 and mc["empirical_prob"] == 0.0 and linear_exact and monotone
    _report(
        7,
        "hitting-time tail bound",
        ok,
        f"eta(b-a)={exponent:.1f}, bound {bound_raw:.2e}, hits {mc['empirical_prob']:.0%} of {mc['n_runs']}",
    )
    assert exponent >= 60.0
    assert bound_raw < 1e-20
    assert mc["empirical_prob"] == 0.0
    assert linear_exact and monotone


def test_c08_in_band_drift_ceiling():
    lam, p, d = 1.00001, 0.4, 100
    ls1 = lam * lam - 1.0
    a = 1.0 / (2.0 * ls1)
    rng = np.random.default_rng(88)
    adversary = ResidualSignAdversary(p)
    margins = []
    for u2 in np.linspace(a, 3.0 * a * 0.9999, 20):
        rep = mc_drift_linear_term(
            float(u2), p, lam, d, CT, GaussianSphere(d), adversary, 100_000, rng
        )
        margins.append(rep.ceiling + 4.0 * rep.stderr - rep.estimate)
        assert rep.passed, f"state {u2}: estimate {rep.estimate} above {rep.ceiling} + 4se"
    ok = all(m >= 0 for m in margins)
    _report(8, "in-band drift ceiling", ok, f"20 states, min margin {min(margins):.3f}")
    assert ok


def _wine_path():
    candidates = [Path(__file__).resolve().parent.parent / "data" / "winequality-red.csv"]
    if os.environ.get("RSGD_DATA_DIR"):
        candidates.insert(0, Path(os.environ["RSGD_DATA_DIR"]) / "winequality-red.csv")
    for path in candidates:
        if path.exists():
            return path
    return None


def test_c09_dataset_pipeline(tmp_path):
    path = _wine_path()
    if path is None:
        # dataset absent: the criterion falls back to the planted oracle
        rng = np.random.default_rng(99)
        A = rng.standard_normal((400, 10))
        x_star = rng.standard_normal(10)
        data = DatasetRows(A, A @ x_star)
        x_hat = least_squares_baseline(data)
        rel = float(np.linalg.norm(x_hat - x_star) / np.linalg.norm(x_star))
        ok = rel <= 1e-8 and evaluate_clean_loss(x_hat, data) <= 1e-12
        _report(9, "dataset pipeline (planted fallback)", ok, f"planted recovery rel err {rel:.2e}")
        assert ok
        return

    # The shipped config, pointed at the file, does the pipeline's own preprocessing.
    redwine = json.loads((CONFIGS / "redwine.json").read_text())
    redwine["measurement"]["path"] = str(path)
    config_path, out = tmp_path / "redwine.json", tmp_path / "out"
    config_path.write_text(json.dumps(redwine))
    assert main(["run", str(config_path), "--out-dir", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "results.manifest.json").read_text())
    clean_ls = manifest["least_squares_clean_loss"]
    sgd_loss = manifest["summary"]["sgd-exp"]["mean_final_clean_loss"]

    # least squares on corrupted responses: p=0.2, uniform on [-300, 300]
    m = redwine["measurement"]
    data = load_csv(path, m["features"], m["response"], z_score=True, center_response=True)
    assert data.m == 1599
    rng = np.random.default_rng(7)
    corrupted = data.responses.copy()
    mask = rng.random(data.m) < 0.2
    corrupted[mask] += rng.uniform(-300.0, 300.0, size=int(mask.sum()))
    corrupted_ls_loss = evaluate_clean_loss(
        least_squares_baseline(DatasetRows(data.features, corrupted)), DatasetRows(data.features, data.responses)
    )

    ok = abs(clean_ls - 0.4220) <= 0.021 and corrupted_ls_loss > 10.0 and sgd_loss <= 0.55
    _report(
        9,
        "red wine pipeline",
        ok,
        f"clean LS {clean_ls:.4f} (~0.4220), corrupted LS {corrupted_ls_loss:.2f} (>10), one-pass loss {sgd_loss:.3f} (<=0.55)",
    )
    assert abs(clean_ls - 0.4220) <= 0.021
    assert corrupted_ls_loss > 10.0
    assert sgd_loss <= 0.55


def test_c10_step_invariants(linear_runs, oblivious_runs, relu_runs):
    all_trajs = (
        list(linear_runs)
        + list(oblivious_runs)
        + list(relu_runs["corrupted"])
        + list(relu_runs["clean"])
    )
    step = sum(t.step_law_violations for t in all_trajs)
    gate = sum(t.relu_gate_violations for t in all_trajs)
    n_steps = sum(int(t.checkpoints.k[-1]) for t in all_trajs)
    ok = step == 0 and gate == 0
    _report(10, "universal step invariants", ok, f"{n_steps:,} instrumented steps, {step} magnitude / {gate} gate violations")
    assert step == 0
    assert gate == 0
