import json
import math
import shutil
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdexp.corruption import (
    AdditiveOblivious,
    Gaussian,
    NoCorruption,
    ResidualSignAdversary,
    SignFlip,
)
import sgdexp.solvers as solvers_mod
from sgdexp import _kernel
from sgdexp.datasets import evaluate_clean_loss
from sgdexp.measurement import DatasetRows, GaussianSphere, sample_block, sample_seeds
from sgdexp.solvers import (
    METRIC_COLUMNS,
    Lanes,
    SolverSpec,
    StreamSpec,
    _decays,
    _decays_c,
    _dots,
    recommend_G,
    recommend_lambda,
    run_batch,
    signal_rng,
)

import oracle

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestRecommendLambda:
    def test_massart_p_half_degenerate(self):
        with pytest.raises(ValueError, match="p < 0.5"):
            recommend_lambda(100, 0.5, 1000, 225.0, 0.8)

    def test_oblivious_p_one_invalid(self):
        with pytest.raises(ValueError, match="p < 1"):
            recommend_lambda(100, 1.0, 1000, 225.0, 0.8, mode="oblivious")

    def test_horizon_too_small(self):
        with pytest.raises(ValueError, match="T"):
            recommend_lambda(100, 0.1, 1, 225.0, 0.8)

    def test_oblivious_coefficient_two_form(self):
        # ctilde^2 / R = 2 reproduces lam = sqrt(1 + 2 (1-p)^2 / (d ln^2 T))
        ct = math.sqrt(2.0)
        rec = recommend_lambda(50, 0.9, 100_000, ct * ct / 2.0, ct, mode="oblivious")
        assert rec.lam == pytest.approx(1.0000015088924377, rel=1e-12)
        expected_q = 2.0 * (1 - 0.9) ** 2 / (50 * math.log(100_000) ** 2)
        assert abs(rec.lam_sq_minus_1 - expected_q) <= 1e-12 * expected_q

    def test_massart_example_value(self):
        ct = math.sqrt(2 / math.pi)
        rec = recommend_lambda(100, 0.4, 200_000, 225.0, ct)
        expected_q = ct * ct * 0.2 * 0.2 / (225.0 * 100 * math.log(200_000) ** 2)
        assert expected_q == pytest.approx(7.5963627e-9, rel=1e-6)
        assert abs(rec.lam_sq_minus_1 - expected_q) <= 1e-12 * expected_q
        assert rec.lam == pytest.approx(1.0 + 3.798e-9, abs=1e-12)

    @given(
        d=st.integers(2, 500),
        p=st.floats(0.0, 0.49),
        T=st.integers(2, 10**7),
        R=st.floats(0.1, 1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity_invariant(self, d, p, T, R):
        ct = math.sqrt(2 / math.pi)
        rec = recommend_lambda(d, p, T, R, ct)
        q = (ct * (1 - 2 * p)) ** 2 / (R * d * math.log(T) ** 2)
        assert abs(rec.lam_sq_minus_1 - q) <= 1e-12 * q
        assert rec.lam == math.sqrt(1.0 + q)

    def test_precondition_flags(self):
        # small d violates the dimension condition in the linear regime
        rec = recommend_lambda(1, 0.0, 1000, 500.0, 0.8)
        assert not rec.preconditions_ok
        assert any("dimension condition" in w for w in rec.warnings)
        ok = recommend_lambda(100, 0.4, 200_000, 500.0, 0.8)
        assert ok.preconditions_ok
        assert ok.warnings == ()

    def test_small_R_warns_but_recommends(self):
        rec = recommend_lambda(100, 0.4, 200_000, 10.0, 0.8)
        assert any("vacuous" in w for w in rec.warnings)
        assert rec.lam > 1.0

    def test_relu_thresholds(self):
        rec = recommend_lambda(100, 0.4, 200_000, 300.0, 0.8, regime="relu")
        assert any("400" in w for w in rec.warnings)

    def test_g_min_through_bound(self):
        rec = recommend_lambda(100, 0.4, 200_000, 225.0, 0.8, x_norm_bound=5.0)
        assert rec.g_min == pytest.approx(5.0 * math.sqrt(2.0 * rec.lam_sq_minus_1), rel=1e-12)
        assert recommend_lambda(100, 0.4, 200_000, 225.0, 0.8).g_min == 0.0


class TestRecommendG:
    def test_forced_arithmetic(self):
        lam = math.sqrt(1.5)  # lam^2 = 1.5 -> sqrt(2 * 0.5) = 1
        assert recommend_G(lam, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_bound(self):
        assert recommend_G(1.5, 0.0) == 0.0

    def test_small_decay_value(self):
        assert recommend_G(1.00001, 5.0) == pytest.approx(0.03162285565852648, rel=1e-9)

    def test_invalid_lam(self):
        with pytest.raises(ValueError, match="lam"):
            recommend_G(1.0, 1.0)


def _rule(method, **params):
    """A spec for single oracle steps, which read only the method and its step parameters."""
    return SolverSpec(method=method, d=1, T=0, **params)


class TestStepSgdExpLinear:
    """The oracle's rules against hand arithmetic: what keeps the oracle honest."""

    def test_forced_arithmetic(self):
        x = oracle.step(_rule("sgd_exp_linear", G=1.0, lam=2.0), np.zeros(2), 0, E1, 2.0)
        assert np.array_equal(x, E1)

    def test_zero_residual_is_noop(self):
        x = np.array([0.5, -1.0])
        new = oracle.step(_rule("sgd_exp_linear", G=1.0, lam=2.0), x.copy(), 3, E2, -1.0)
        assert np.array_equal(new, x)

    def test_three_step_hand_unroll(self):
        # independent unroll of the recursion with plain arithmetic
        script = [(E1, -1.0), (E2, 2.0), (E1, 0.5)]
        G, lam = 1.0, 2.0
        spec = _rule("sgd_exp_linear", G=G, lam=lam)
        state = np.zeros(2)
        for k, (a, y) in enumerate(script):
            state = oracle.step(spec, state, k, a, y)
        x = [0.0, 0.0]
        for k, (a, y) in enumerate(script):
            r = y - (x[0] * a[0] + x[1] * a[1])
            s = int(r > 0) - int(r < 0)
            x[0] += G * lam ** (-k) * s * a[0]
            x[1] += G * lam ** (-k) * s * a[1]
        assert np.allclose(state, x, rtol=0, atol=0)
        assert np.array_equal(state, np.array([-0.75, 0.5]))

    def test_step_magnitude_law(self):
        rng = np.random.default_rng(0)
        state = rng.standard_normal(5)
        G, lam = 1.0, 1.5
        spec = _rule("sgd_exp_linear", G=G, lam=lam)
        for k in range(10):
            a = rng.standard_normal(5)
            a /= np.linalg.norm(a)
            y = rng.standard_normal()
            new = oracle.step(spec, state, k, a, y)
            delta = np.linalg.norm(new - state)
            expected = G * lam ** (-k)
            assert delta == 0.0 or abs(delta - expected) <= 1e-12 * expected
            state = new


class TestStepSgdExpRelu:
    def test_gate_blocks_update(self):
        x = np.array([-1.0, 0.0])  # <x, e1> = -1 < 0
        new = oracle.step(_rule("sgd_exp_relu", G=1.0, lam=2.0), x.copy(), 0, E1, 100.0)
        assert np.array_equal(new, x)

    def test_forced_arithmetic_at_zero(self):
        # <0, a> = 0 >= 0, relu(0) = 0, sign(1) = +1
        x = oracle.step(_rule("sgd_exp_relu", G=1.0, lam=2.0), np.zeros(2), 0, E1, 1.0)
        assert np.array_equal(x, E1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_step_on_active_halfspace(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(3)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        if float(x @ a) < 0:
            a = -a  # force the gate open
        y = abs(rng.standard_normal())
        lin = oracle.step(_rule("sgd_exp_linear", G=0.7, lam=1.3), x.copy(), 2, a, y)
        rel = oracle.step(_rule("sgd_exp_relu", G=0.7, lam=1.3), x.copy(), 2, a, y)
        assert np.array_equal(lin, rel)


class TestStepSgdRoot:
    def test_first_step(self):
        x = oracle.step(_rule("sgd_root_linear", gamma=1.0), np.zeros(2), 0, E1, 1.0)
        assert np.array_equal(x, E1)

    def test_k3_half_magnitude(self):
        x = np.zeros(2)
        new = oracle.step(_rule("sgd_root_linear", gamma=1.0), x, 3, E1, 1.0)
        assert np.linalg.norm(new - x) == pytest.approx(0.5, rel=1e-15)

    def test_relu_gate(self):
        x = np.array([-1.0, 0.0])
        new = oracle.step(_rule("sgd_root_relu", gamma=1.0), x.copy(), 0, E1, 5.0)
        assert np.array_equal(new, x)

    def test_five_step_hand_unroll(self):
        script = [(E1, 1.0), (E2, -2.0), (E1, 0.3), (E2, 0.0), (E1, 4.0)]
        gamma = 0.8
        spec = _rule("sgd_root_linear", gamma=gamma)
        state = np.zeros(2)
        for k, (a, y) in enumerate(script):
            state = oracle.step(spec, state, k, a, y)
        x = [0.0, 0.0]
        for k, (a, y) in enumerate(script):
            r = y - (x[0] * a[0] + x[1] * a[1])
            s = int(r > 0) - int(r < 0)
            x[0] += gamma * (k + 1) ** (-0.5) * s * a[0]
            x[1] += gamma * (k + 1) ** (-0.5) * s * a[1]
        assert np.allclose(state, x, rtol=0, atol=0)


class TestStepGlmtron:
    def test_const_full_residual(self):
        x = oracle.step(_rule("glmtron", schedule="const", m=1), np.zeros(2), 0, E1, 1.0)
        assert np.array_equal(x, E1)

    def test_zero_residual_noop(self):
        x = np.array([2.0, 0.0])  # relu(<x, e1>) = 2
        new = oracle.step(_rule("glmtron", schedule="const", m=1), x.copy(), 0, E1, 2.0)
        assert np.array_equal(new, x)

    def test_exp_schedule_step_size(self):
        # eta = 1.00003^{-100} / 1599, checked against direct arithmetic
        spec = _rule("glmtron", schedule="exp", m=1599, lam=1.00003)
        new = oracle.step(spec, np.zeros(2), 100, E1, 1.0)
        expected = 1.00003 ** (-100) / 1599
        assert new[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.235175361899181e-4, rel=1e-12)

    def test_root_schedule(self):
        new = oracle.step(_rule("glmtron", schedule="root", m=2), np.zeros(2), 3, E1, 1.0)
        assert new[0] == pytest.approx(0.25, rel=1e-15)

    def test_negative_dot_still_updates(self):
        # GLM-Tron has no activity gate: prediction is relu'd, update fires
        x = np.array([-1.0, 0.0])
        new = oracle.step(_rule("glmtron", schedule="const", m=1), x.copy(), 0, E1, 1.0)
        assert np.array_equal(new, np.array([0.0, 0.0]))


class TestSolverSpec:
    def test_method_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            SolverSpec(method="adam", d=2, T=10)

    def test_exp_requires_lam_and_G(self):
        with pytest.raises(ValueError, match="lam"):
            SolverSpec(method="sgd_exp_linear", d=2, T=10, G=1.0)
        with pytest.raises(ValueError, match="G"):
            SolverSpec(method="sgd_exp_linear", d=2, T=10, lam=1.5)

    def test_glmtron_requirements(self):
        with pytest.raises(ValueError, match="schedule"):
            SolverSpec(method="glmtron", d=2, T=10, m=1)
        with pytest.raises(ValueError, match="m"):
            SolverSpec(method="glmtron", d=2, T=10, schedule="const")


def _columns(cps):
    """A lane's checkpoint columns bit for bit, with their masks; elapsed_seconds is left out."""
    values = [getattr(cps, m).tobytes() for m in METRIC_COLUMNS]
    return (cps.k.tolist(), *values, *(getattr(cps, f"has_{m}").tolist() for m in METRIC_COLUMNS))


def _linear_spec(d=4, T=500, lam=1.01, G=1.0):
    return SolverSpec(method="sgd_exp_linear", d=d, T=T, lam=lam, G=G)


def _norm_two_rows(model, rngs, out, uniforms=None):
    """sample_seeds with every row scaled to norm 2, drawn into ``out`` as the engine asks."""
    idx = sample_seeds(model, rngs, out, uniforms)
    out *= 2.0
    return idx


def _stream(d=4, p=0.0):
    corr = NoCorruption() if p == 0 else SignFlip(p)
    return StreamSpec(model=GaussianSphere(d), corruption=corr)


class TestRun:
    def test_horizon_zero_single_checkpoint(self):
        x_true = np.array([1.0, 2.0, 3.0, 4.0])
        traj = run_batch(_linear_spec(T=0), _stream(), [1], x_true=x_true)[0]
        assert len(traj.checkpoints) == 1
        assert traj.checkpoints.k.tolist() == [0]
        assert traj.checkpoints.relative_error.tolist() == [1.0]
        assert np.array_equal(traj.x_final, np.zeros(4))

    def test_clean_stream_error_decreases(self):
        d = 10
        x_true = signal_rng(3).standard_normal(d)
        spec = SolverSpec(method="sgd_exp_linear", d=d, T=10_000, lam=1.0001, G=1.0)
        traj = run_batch(spec, _stream(d=d), [3], x_true=x_true, checkpoint_every=1000)[0]
        final = traj.checkpoints.relative_error[-1]
        assert final < 1.0
        assert final < 0.5  # pilot-calibrated: clean runs converge well below start

    def test_identical_seeds_identical_trajectories(self):
        x_true = np.arange(1.0, 5.0)
        t1 = run_batch(_linear_spec(), _stream(p=0.3), [11], x_true=x_true)[0]
        t2 = run_batch(_linear_spec(), _stream(p=0.3), [11], x_true=x_true)[0]
        assert np.array_equal(t1.x_final, t2.x_final)
        assert t1.checkpoints.relative_error.tolist() == t2.checkpoints.relative_error.tolist()

    def test_batch_matches_solo_runs(self):
        x_true = np.vstack([signal_rng(s).standard_normal(4) for s in (5, 6)])
        batch = run_batch(_linear_spec(), _stream(p=0.2), [5, 6], x_true=x_true)
        for i, seed in enumerate((5, 6)):
            solo = run_batch(_linear_spec(), _stream(p=0.2), [seed], x_true=x_true[i])[0]
            assert np.array_equal(batch[i].x_final, solo.x_final)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="x_true"):
            run_batch(_linear_spec(d=4), _stream(d=4), [0], x_true=np.ones(3))

    def test_seeds_required(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_batch(_linear_spec(), _stream(), [], x_true=np.ones(4))

    def test_x_true_required_for_synthetic(self):
        with pytest.raises(ValueError, match="x_true"):
            run_batch(_linear_spec(), _stream(), [0])

    def test_no_violations_on_clean_run(self):
        x_true = np.ones(4)
        traj = run_batch(_linear_spec(T=2000), _stream(p=0.4), [9], x_true=x_true)[0]
        assert traj.step_law_violations == 0
        assert traj.relu_gate_violations == 0

    def test_relu_gate_violations_counted(self):
        x_true = np.ones(4)
        spec = SolverSpec(method="sgd_exp_relu", d=4, T=2000, lam=1.01, G=1.0)
        stream = StreamSpec(model=GaussianSphere(4), corruption=SignFlip(0.4), relu=True)
        traj = run_batch(spec, stream, [9], x_true=x_true)[0]
        assert traj.relu_gate_violations == 0

    def test_step_law_audit_counts_off_norm_rows(self, monkeypatch):
        monkeypatch.setattr(solvers_mod, "sample_seeds", _norm_two_rows)
        traj = run_batch(
            _linear_spec(T=300), _stream(p=0.2), [9], x_true=np.ones(4), checkpoint_every=1,
            record_iterates=True,
        )[0]
        moved = np.any(np.diff(traj.iterates, axis=0) != 0.0, axis=1)
        assert moved.sum() > 0
        assert traj.step_law_violations == moved.sum()

    def test_relu_gate_audit_counts_ungated_steps(self, monkeypatch):
        # The patched rule lives in the numpy body; the compiled kernel has its own.
        monkeypatch.setitem(_kernel._libs, "step kernel", "turned off")
        real = solvers_mod._coef
        monkeypatch.setattr(
            solvers_mod, "_coef", lambda dot, y, step, tron, gate: real(dot, y, step, tron, False)
        )
        d, T, seed = 4, 300, 9
        spec = SolverSpec(method="sgd_exp_relu", d=d, T=T, lam=1.01, G=1.0)
        stream = StreamSpec(model=GaussianSphere(d), corruption=SignFlip(0.4), relu=True)
        traj = run_batch(
            spec, stream, [seed], x_true=np.ones(d), checkpoint_every=1, record_iterates=True
        )[0]
        meas = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[1])
        A, _ = sample_block(stream.model, meas, T)
        dots = _dots(traj.iterates[None, :-1], A)[0]
        moved = np.any(np.diff(traj.iterates, axis=0) != 0.0, axis=1)
        expected = np.sum((dots < 0.0) & moved)
        assert expected > 0
        assert traj.relu_gate_violations == expected

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    def test_dataset_clean_loss_at_checkpoints(self, relu):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((40, 3))
        responses = rows @ np.array([1.0, -2.0, 0.5])
        if relu:
            responses = np.maximum(responses, 0.0)
        method = "sgd_exp_relu" if relu else "sgd_exp_linear"
        spec = SolverSpec(method=method, d=3, T=250, lam=1.01, G=1.0)
        stream = StreamSpec(model=DatasetRows(rows, responses), corruption=SignFlip(0.2), relu=relu)
        for traj in run_batch(spec, stream, [1, 2], checkpoint_every=100, record_iterates=True):
            assert traj.checkpoints.k.tolist() == [0, 100, 200, 250]
            want = [evaluate_clean_loss(x, stream.model, relu=relu) for x in traj.iterates]
            assert traj.checkpoints.clean_loss.tolist() == want

    def test_checkpoint_relative_error_is_linalg_norm(self):
        Xt = np.random.default_rng(2).standard_normal((3, 4))
        root = SolverSpec(method="sgd_root_linear", d=4, T=300, gamma=0.5)
        lanes = Lanes([(_linear_spec(T=300), 0.2, None), (root, 0.0, None)])
        trajs = run_batch(lanes, _stream(p=0.2), [3, 4, 5], x_true=Xt, checkpoint_every=50, record_iterates=True)
        norms = np.linalg.norm(Xt, axis=1)
        for i, t in enumerate(trajs):
            s_i = i % 3
            assert t.checkpoints.relative_error.tolist() == [
                float(np.linalg.norm(Xt[s_i] - x) / norms[s_i]) for x in t.iterates
            ]

    def test_checkpoint_spacing(self):
        x_true = np.ones(4)
        traj = run_batch(_linear_spec(T=250), _stream(), [0], x_true=x_true, checkpoint_every=100)[0]
        assert traj.checkpoints.k.tolist() == [0, 100, 200, 250]


class TestSubstreamIsolation:
    """Corruption draws use their own substreams: toggling the adversary
    variant never perturbs which measurement vectors a run sees."""

    @pytest.mark.parametrize(
        "corruption",
        [NoCorruption(), SignFlip(0.4)],
        ids=["none", "sign_flip"],
    )
    def test_measurements_match_replayed_substream(self, corruption):
        from sgdexp.measurement import sample_block

        d, T, seed = 5, 60, 17
        x_true = np.arange(1.0, 6.0)
        spec = SolverSpec(method="sgd_exp_linear", d=d, T=T, lam=1.2, G=1.0)
        stream = StreamSpec(model=GaussianSphere(d), corruption=corruption)
        traj = run_batch(spec, stream, [seed], x_true=x_true, checkpoint_every=1, record_iterates=True)[0]
        meas = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[1])
        A, _ = sample_block(GaussianSphere(d), meas, T)
        for k in range(T):
            delta = traj.iterates[k + 1] - traj.iterates[k]
            norm = np.linalg.norm(delta)
            if norm > 0:
                # every realized update is +-step * a_k for the replayed a_k
                cos = float(delta @ A[k]) / norm
                assert abs(abs(cos) - 1.0) < 1e-9


class TestScaleEquivariance:
    def _run_scaled(self, c):
        # clean stream from c * x_true, step scale c * G: the engine's iterate scales by c
        x_true = np.array([1.0, -2.0, 0.5])
        G, lam = 0.9, 1.25
        spec = SolverSpec(method="sgd_exp_linear", d=3, T=40, lam=lam, G=G)
        lanes = Lanes([(spec, 0.0, np.array([c * G]))])
        return run_batch(lanes, _stream(d=3), [77], x_true=c * x_true)[0].x_final

    @pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
    def test_power_of_two_scaling_exact(self, c):
        base = self._run_scaled(1.0)
        scaled = self._run_scaled(c)
        assert np.array_equal(scaled, c * base)

    def test_general_scaling_close(self):
        base = self._run_scaled(1.0)
        scaled = self._run_scaled(3.0)
        assert np.allclose(scaled, 3.0 * base, rtol=1e-12)


_REPLAY_T = 300
_REPLAY_SPECS = [
    SolverSpec(method="sgd_exp_linear", d=5, T=_REPLAY_T, lam=1.01, G=0.8),
    SolverSpec(method="sgd_exp_relu", d=5, T=_REPLAY_T, lam=1.01, G=0.8),
    SolverSpec(method="sgd_root_linear", d=5, T=_REPLAY_T, gamma=0.5),
    SolverSpec(method="sgd_root_relu", d=5, T=_REPLAY_T, gamma=0.5),
    SolverSpec(method="glmtron", d=5, T=_REPLAY_T, schedule="const", m=3),
    SolverSpec(method="glmtron", d=5, T=_REPLAY_T, schedule="root", m=3),
    SolverSpec(method="glmtron", d=5, T=_REPLAY_T, lam=1.01, schedule="exp", m=3),
]


class TestEngineMatchesOracle:
    """Replaying a run's substreams through the paper's per-step rules
    (``oracle``) gives the engine's iterates bit for bit, for every method,
    step schedule and channel."""

    @pytest.mark.parametrize("dataset", [False, True], ids=["synthetic", "dataset"])
    @pytest.mark.parametrize(
        "corruption",
        [
            NoCorruption(),
            SignFlip(0.3),
            ResidualSignAdversary(0.3),
            AdditiveOblivious(0.3, Gaussian(2.0)),
        ],
        ids=["none", "sign_flip", "residual_sign", "oblivious"],
    )
    @pytest.mark.parametrize(
        "spec", _REPLAY_SPECS, ids=lambda s: f"{s.method}-{s.schedule or 'step'}"
    )
    def test_bitwise_replay(self, spec, corruption, dataset):
        relu = not spec.method.endswith("_linear")
        rng = np.random.default_rng(11)
        x_true = rng.standard_normal(spec.d)
        if dataset:
            rows = rng.standard_normal((30, spec.d))
            responses = np.maximum(rows @ x_true, 0.0) if relu else rows @ x_true
            stream = StreamSpec(model=DatasetRows(rows, responses), corruption=corruption, relu=relu)
        else:
            stream = StreamSpec(model=GaussianSphere(spec.d), corruption=corruption, relu=relu)
        traj = run_batch(
            spec, stream, [7], x_true=x_true, checkpoint_every=1, record_iterates=True
        )[0]
        assert np.array_equal(traj.iterates, oracle.replay(spec, stream, x_true, seed=7))


# At d = 100 the mixed call over 12 groups x 2 seeds and each single-group
# call draw blocks of 1024 steps (2100 = 1024 + 1024 + 52), so checkpoints
# every 300 steps fall inside blocks and stretches between them cross blocks.
_LANE_D, _LANE_T = 100, 2100
# (spec, per-seed step scale or None): the sign rule with and without the
# step-law audit, and GLM-Tron with a constant and a decaying step.
_LANE_SOLVERS = [
    (SolverSpec(method="sgd_exp_relu", d=_LANE_D, T=_LANE_T, lam=1.001, G=1.0), np.array([1.0, 0.5])),
    (SolverSpec(method="glmtron", d=_LANE_D, T=_LANE_T, schedule="const", m=3), None),
    (SolverSpec(method="sgd_root_relu", d=_LANE_D, T=_LANE_T, gamma=0.5), None),
    (SolverSpec(method="glmtron", d=_LANE_D, T=_LANE_T, lam=1.001, schedule="exp", m=3), None),
]
_LANE_P = (0.0, 0.2, 0.4)
_LANE_SEEDS = [3, 4]


class TestLanes:
    """One run_batch over mixed (solver, p) lane groups gives, lane for
    lane, the bits of one single-group call per (solver, p)."""

    @staticmethod
    def _setup(corruption, dataset):
        rng = np.random.default_rng(11)
        x_true = rng.standard_normal(_LANE_D)
        if dataset:
            rows = rng.standard_normal((300, _LANE_D))
            stream = StreamSpec(
                model=DatasetRows(rows, np.maximum(rows @ x_true, 0.0)), corruption=corruption, relu=True
            )
        else:
            stream = StreamSpec(model=GaussianSphere(_LANE_D), corruption=corruption, relu=True)
        groups = [(spec, p, scale) for p in _LANE_P for spec, scale in _LANE_SOLVERS]
        return stream, x_true, groups

    @staticmethod
    def _pairs(stream, x_true, groups):
        kwargs = dict(x_true=x_true, checkpoint_every=300, record_iterates=True)
        batch = run_batch(Lanes(groups), stream, _LANE_SEEDS, **kwargs)
        S = len(_LANE_SEEDS)
        assert len(batch) == len(groups) * S
        for g, (spec, p, scale) in enumerate(groups):
            single = replace(stream, corruption=replace(stream.corruption, p=p))
            solo = run_batch(Lanes([(spec, p, scale)]), single, _LANE_SEEDS, **kwargs)
            yield from zip(batch[g * S : (g + 1) * S], solo)

    @pytest.mark.parametrize("dataset", [False, True], ids=["synthetic", "dataset"])
    @pytest.mark.parametrize(
        "corruption",
        [SignFlip(0.3), ResidualSignAdversary(0.3), AdditiveOblivious(0.3, Gaussian(2.0))],
        ids=["sign_flip", "residual_sign", "oblivious"],
    )
    def test_matches_single_group_calls(self, corruption, dataset):
        for lane, solo in self._pairs(*self._setup(corruption, dataset)):
            assert (lane.solver, lane.seed) == (solo.solver, solo.seed)
            assert np.array_equal(lane.x_final, solo.x_final)
            assert _columns(lane.checkpoints) == _columns(solo.checkpoints)
            assert np.array_equal(lane.iterates, solo.iterates)
            assert (lane.step_law_violations, lane.relu_gate_violations) == (
                solo.step_law_violations,
                solo.relu_gate_violations,
            )

    def test_step_law_counted_on_sign_lanes_only(self, monkeypatch):
        monkeypatch.setattr(solvers_mod, "sample_seeds", _norm_two_rows)
        for lane, solo in self._pairs(*self._setup(SignFlip(0.3), dataset=False)):
            assert lane.step_law_violations == solo.step_law_violations
            if lane.solver == "sgd_exp_relu":
                assert lane.step_law_violations > 0
            else:
                assert lane.step_law_violations == 0

    def test_groups_must_share_horizon(self):
        specs = (_linear_spec(T=10), _linear_spec(T=20))
        with pytest.raises(ValueError, match="share d and T"):
            run_batch(Lanes((spec, 0.0, None) for spec in specs), _stream(), [1], x_true=np.ones(4))


class TestDecays:
    """The engine's step decays are the scalar Python pow of each step (numpy body)."""

    @staticmethod
    def decays(*args):
        return _decays(*args)

    @pytest.mark.parametrize("k", [0, 200_000])
    @pytest.mark.parametrize("lam", [1.00003, 1.006, 1.007, 1.0000100005])
    def test_exp_matches_scalar_pow(self, lam, k):
        want = np.array([lam ** (-float(j)) for j in range(k, k + 3000)])
        assert np.array_equal(self.decays("exp", lam, k, 3000).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("k", [0, 200_000])
    def test_root_matches_scalar_pow(self, k):
        want = np.array([(j + 1) ** (-0.5) for j in range(k, k + 3000)])
        assert np.array_equal(self.decays("root", None, k, 3000).view(np.uint64), want.view(np.uint64))

    def test_const(self):
        assert np.array_equal(self.decays("const", None, 7, 5), np.ones(5))


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH to build the kernel")
class TestCompiledDecays(TestDecays):
    """TestDecays on the step kernel's ``sk_decays``, which the engine runs where the kernel loads."""

    @staticmethod
    def decays(*args):
        lib = _kernel.load("step kernel")
        assert lib is not None
        return _decays_c(lib, *args)


_PIPE_D = 8
# Sign rule and GLM-Tron groups at their own p, against the residual-sign adversary.
_PIPE_GROUPS = [
    (SolverSpec(method="sgd_exp_linear", d=_PIPE_D, T=0, lam=1.001, G=1.0), 0.1),
    (SolverSpec(method="glmtron", d=_PIPE_D, T=0, schedule="root", m=2), 0.3),
    (SolverSpec(method="sgd_root_linear", d=_PIPE_D, T=0, gamma=0.5), 0.2),
]


@pytest.fixture
def small_blocks(monkeypatch):
    """BLOCK_VALUES cut so that a horizon of 2500 steps at d = 8 spans several blocks, the last
    one partial, for 1 to 13 seeds (1024 steps for one seed, 182 for 13); the block length of
    each run_batch call is appended to the returned list."""
    monkeypatch.setattr(solvers_mod, "BLOCK_VALUES", 19_000)
    lengths, step_state = [], solvers_mod._step_state

    def spy(*args, **kwargs):
        st = step_state(*args, **kwargs)
        lengths.append(st.A.shape[1])
        return st

    monkeypatch.setattr(solvers_mod, "_step_state", spy)
    return lengths


class TestBlocks:
    """Streams drawn and stepped in blocks give every lane the bits of a
    solo call and of the numpy body: for one seed and three, horizons of
    no step, less than a block and a partial last block, and stretches
    between checkpoints that cross block boundaries.  (Two seed owners:
    TestSeedOwners.)"""

    @staticmethod
    def _stream(corruption, dataset):
        if not dataset:
            return StreamSpec(model=GaussianSphere(_PIPE_D), corruption=corruption)
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((50, _PIPE_D))
        return StreamSpec(model=DatasetRows(rows, rows @ np.ones(_PIPE_D)), corruption=corruption)

    @staticmethod
    def _summary(traj):
        return (
            traj.solver,
            traj.seed,
            traj.x_final.tobytes(),
            traj.iterates.tobytes(),
            _columns(traj.checkpoints),
            traj.step_law_violations,
            traj.relu_gate_violations,
        )

    @pytest.mark.parametrize("dataset", [False, True], ids=["synthetic", "dataset"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["sign_flip", "mixed_residual_sign"])
    @pytest.mark.parametrize(
        "T, every", [(0, 100), (300, 100), (2500, 700)], ids=["T0", "T300", "T2500_every700"]
    )
    @pytest.mark.parametrize("seeds", [[5], [5, 6, 7]], ids=["S1", "S3"])
    def test_lanes_match_solo_calls_and_numpy_body(self, seeds, T, every, mixed, dataset, small_blocks, monkeypatch):
        if mixed:
            groups = [(replace(spec, T=T), p, None) for spec, p in _PIPE_GROUPS]
            stream = self._stream(ResidualSignAdversary(0.0), dataset)
        else:
            groups = [(replace(_PIPE_GROUPS[0][0], T=T), 0.3, None)]
            stream = self._stream(SignFlip(0.3), dataset)
        x_true = np.vstack([signal_rng(s).standard_normal(_PIPE_D) for s in seeds])
        kwargs = dict(checkpoint_every=every, record_iterates=True)
        batch = [
            self._summary(t) for t in run_batch(Lanes(groups), stream, seeds, x_true=x_true, **kwargs)
        ]
        solo = [
            self._summary(t)
            for group in groups
            for s_i, seed in enumerate(seeds)
            for t in run_batch(
                Lanes([group]),
                replace(stream, corruption=replace(stream.corruption, p=group[1])),
                [seed],
                x_true=x_true[s_i],
                **kwargs,
            )
        ]
        monkeypatch.setitem(_kernel._libs, "step kernel", "turned off")
        numpy_body = [
            self._summary(t) for t in run_batch(Lanes(groups), stream, seeds, x_true=x_true, **kwargs)
        ]
        assert len(batch) == len(groups) * len(seeds)
        assert batch == solo
        assert batch == numpy_body
        assert batch[0][4][0] == sorted({*range(0, T, every), T})
        if T == 2500:
            assert all(n < T and T % n for n in small_blocks)
        elif T == 300:
            assert set(small_blocks) == {T}

    def test_concurrent_calls_under_fast_switching(self, small_blocks):
        """Two calls at once (two seed owners each, four threads on a small
        machine), switching threads every microsecond, give the bits of one
        call alone, over several blocks."""
        seeds = [5, 6, 7, 8, 9, 10]
        x_true = np.vstack([signal_rng(s).standard_normal(_PIPE_D) for s in seeds])
        spec = replace(_PIPE_GROUPS[0][0], T=2500)
        stream = self._stream(SignFlip(0.3), dataset=False)
        kwargs = dict(x_true=x_true, checkpoint_every=700, record_iterates=True)
        want = [self._summary(t) for t in run_batch(spec, stream, seeds, **kwargs)]
        got = [None, None]

        def call(i):
            got[i] = [self._summary(t) for t in run_batch(spec, stream, seeds, **kwargs)]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [want, want]
        assert all(n < 2500 and 2500 % n for n in small_blocks)


class _DrawFailed(Exception):
    pass


class _CheckpointFailed(Exception):
    pass


@dataclass(frozen=True)
class _FailingGaussian(Gaussian):
    """A noise law whose draw notes the thread it runs on, and raises on the ``failing`` owner's."""

    threads: list = None
    failing: str = "both"  # "caller", "worker" or "both"

    def draw(self, rng, size=None, out=None):
        here = threading.current_thread()
        self.threads.append(here)
        if self.failing == "both" or (here is threading.main_thread()) == (self.failing == "caller"):
            raise _DrawFailed("noise draw failed")
        return super().draw(rng, size, out)


@dataclass(frozen=True)
class _WaitingGaussian(Gaussian):
    """A noise law drawn by two owners of four seeds: the worker's draw of its second
    block waits, 3 s at most, until the calling thread has drawn its third and last."""

    draws: dict = None  # thread -> its draws so far
    caller_done: threading.Event = None

    def draw(self, rng, size=None, out=None):
        here = threading.current_thread()
        drawn = self.draws[here] = self.draws.get(here, 0) + 1
        caller = here is threading.main_thread()
        if not caller and drawn == 5 and not self.caller_done.wait(3.0):
            raise TimeoutError("the worker waited 3 s for the caller's last block")
        out = super().draw(rng, size, out)
        if caller and drawn == 12:
            self.caller_done.set()
        return out


needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH to build the kernel")


@needs_gcc
class TestSeedOwners:
    """With the compiled kernel, a synthetic stream of more than four seeds is
    drawn and stepped by two seed owners, the calling thread and one worker,
    split at a whole tile of four seeds; everything else runs on the caller."""

    @pytest.mark.parametrize("failing", ["caller", "worker", "both"])
    def test_draw_error_raised_once_after_both_owners_stop(self, failing):
        law = _FailingGaussian(1.0, threads=[], failing=failing)
        stream = StreamSpec(model=GaussianSphere(4), corruption=AdditiveOblivious(0.3, law))
        with pytest.raises(_DrawFailed, match="noise draw failed") as info:
            run_batch(_linear_spec(T=3000), stream, range(1, 9), x_true=np.ones(4))
        # Raised once: not while handling the other owner's error.
        assert info.value.__context__ is None
        workers = {t for t in law.threads if t is not threading.main_thread()}
        assert len(workers) == 1 and threading.main_thread() in law.threads
        assert not any(t.is_alive() for t in workers)

    def test_checkpoint_error_raised_once_after_the_worker_stops(self, monkeypatch):
        # A failure on the calling thread while it records its checkpoint k = 0, once
        # the worker is drawing its first block; that draw ends when run_batch joins it.
        worker_draws, drawing, joining = [], threading.Event(), threading.Event()

        def sample(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                worker_draws.append(None)
                drawing.set()
                if not joining.wait(3.0):
                    raise TimeoutError("run_batch did not join the worker in 3 s")
            return sample_seeds(*args, **kwargs)

        calls = []

        def perf_counter():
            if threading.current_thread() is threading.main_thread():
                calls.append(None)
                if len(calls) == 2:  # t0, then the caller's checkpoint k = 0
                    if not drawing.wait(3.0):
                        raise TimeoutError("the worker drew no block in 3 s")
                    raise _CheckpointFailed("checkpoint failed")
            return time.perf_counter()

        join = threading.Thread.join
        monkeypatch.setattr(threading.Thread, "join", lambda t, timeout=None: (joining.set(), join(t, timeout))[1])
        monkeypatch.setattr(solvers_mod, "sample_seeds", sample)
        monkeypatch.setattr(solvers_mod, "time", SimpleNamespace(perf_counter=perf_counter))
        before = threading.active_count()
        with pytest.raises(_CheckpointFailed, match="checkpoint failed") as info:
            run_batch(_linear_spec(T=100_000), _stream(p=0.2), range(1, 9), x_true=np.ones(4))
        assert info.value.__context__ is None
        assert threading.active_count() == before
        # The worker stops after the block it was drawing at the failure: one of its 98.
        assert len(worker_draws) == 1

    def test_owners_never_wait_for_each_other(self):
        # The worker's second block is drawn only after the caller has drawn its
        # last: an owner that waited for the other at a checkpoint would time out.
        law = _WaitingGaussian(1.0, draws={}, caller_done=threading.Event())
        spec, x_true = _linear_spec(T=3000), np.ones(4)
        stream = StreamSpec(model=GaussianSphere(4), corruption=AdditiveOblivious(0.3, law))
        got = run_batch(spec, stream, range(1, 9), x_true=x_true, checkpoint_every=1000)
        plain = replace(stream, corruption=AdditiveOblivious(0.3, Gaussian(1.0)))
        want = run_batch(spec, plain, range(1, 9), x_true=x_true)
        assert all(np.array_equal(g.x_final, w.x_final) for g, w in zip(got, want))
        # Four seeds per owner, three blocks each.
        assert sorted(law.draws.values()) == [12, 12] and law.caller_done.is_set()

    @staticmethod
    def _starts(monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        return started

    def test_one_worker_for_two_owners(self, monkeypatch):
        started = self._starts(monkeypatch)
        before = threading.active_count()
        run_batch(_linear_spec(T=3000), _stream(p=0.2), range(1, 9), x_true=np.ones(4))
        assert len(started) == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("case", ["T0", "S1", "S4", "dataset", "numpy_body"])
    def test_one_owner_starts_no_thread(self, case, monkeypatch):
        T, seeds, stream = 3000, range(1, 9), _stream(p=0.2)
        if case == "T0":
            T = 0
        elif case in ("S1", "S4"):
            seeds = range(1, 1 + int(case[1:]))
        elif case == "dataset":
            rows = np.random.default_rng(2).standard_normal((50, 4))
            stream = StreamSpec(model=DatasetRows(rows, rows @ np.ones(4)), corruption=SignFlip(0.2))
        else:
            monkeypatch.setitem(_kernel._libs, "step kernel", "turned off")
        started = self._starts(monkeypatch)
        traj = run_batch(_linear_spec(T=T), stream, seeds, x_true=np.ones(4), checkpoint_every=1000)
        assert [len(t.checkpoints) for t in traj] == [1 + T // 1000] * len(seeds)
        assert started == []

    @pytest.mark.parametrize(
        "corruption", [ResidualSignAdversary(0.0), AdditiveOblivious(0.0, Gaussian(2.0))], ids=["residual_sign", "oblivious"]
    )
    @pytest.mark.parametrize("S", [2, 3, 5, 10, 13])
    def test_lanes_match_one_seed_calls(self, S, corruption, small_blocks):
        # Odd counts, short tiles and uneven splits; checkpoints inside blocks, stretches across them.
        seeds = list(range(5, 5 + S))
        groups = [(replace(spec, T=2500), p, None) for spec, p in _PIPE_GROUPS]
        stream = StreamSpec(model=GaussianSphere(_PIPE_D), corruption=corruption)
        x_true = np.vstack([signal_rng(s).standard_normal(_PIPE_D) for s in seeds])
        kwargs = dict(checkpoint_every=700, record_iterates=True)
        summary = TestBlocks._summary
        batch = [summary(t) for t in run_batch(Lanes(groups), stream, seeds, x_true=x_true, **kwargs)]
        solo = [
            summary(t)
            for group in groups
            for s_i, seed in enumerate(seeds)
            for t in run_batch(
                Lanes([group]),
                replace(stream, corruption=replace(corruption, p=group[1])),
                [seed],
                x_true=x_true[s_i],
                **kwargs,
            )
        ]
        assert batch == solo
        assert all(n < 2500 and 2500 % n for n in small_blocks)

    def test_hitting_times_match_one_seed_calls(self):
        d, seeds = 8, list(range(5, 10))
        spec = SolverSpec(method="sgd_exp_linear", d=d, T=3000, lam=1.001, G=1.0)
        stream = StreamSpec(model=GaussianSphere(d), corruption=ResidualSignAdversary(0.4))
        x_true = np.vstack([signal_rng(s).standard_normal(d) for s in seeds])
        kwargs = dict(checkpoint_every=3000, validate_steps=False, hitting_level=300.0)
        batch = [t.hit_k for t in run_batch(spec, stream, seeds, x_true=x_true, **kwargs)]
        solo = [run_batch(spec, stream, [s], x_true=x_true[i], **kwargs)[0].hit_k for i, s in enumerate(seeds)]
        assert batch == solo
        assert None in batch and sum(k is not None for k in batch) >= 3

    def test_hitting_run_memory_is_one_block_buffer(self):
        # The hitting shape of drift-check: 100 seeds at d = 20.  Its traced
        # peak is the one block buffer of BLOCK_VALUES doubles (2 MiB), plus
        # ~1.2 MiB for the (S, block) per-step arrays and the 400 seed
        # generators; a second block buffer would break the bound.
        d, seeds = 20, list(range(100))
        spec = SolverSpec(method="sgd_exp_linear", d=d, T=2000, lam=1.0001, G=20.0)
        stream = StreamSpec(model=GaussianSphere(d), corruption=ResidualSignAdversary(0.4))
        x_true = np.ones(d)

        def call():
            run_batch(spec, stream, seeds, x_true=x_true, checkpoint_every=2000, validate_steps=False, hitting_level=1e9)

        call()  # builds and loads the compiled parts first
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * solvers_mod.BLOCK_VALUES + 2 * 2**20


_TABLE_D, _TABLE_SEEDS = 8, list(range(5, 15))


class TestCheckpointTable:
    """The checkpoint table holds, bit for bit, what the recording it replaced
    held: at each checkpoint, the relative errors of every lane from one
    matmul and their clean losses from one evaluate_clean_loss call.  The
    table's buffer is evaluated one checkpoint at a time, a few at a time
    with a partial last buffer, exactly full, and all at once."""

    @staticmethod
    def _per_checkpoint(trajs, G, x_true, data, relu):
        """Each lane's (relative_error, clean_loss) per checkpoint, recorded one checkpoint at a
        time from the record_iterates snapshots; None where not measured."""
        S, d = x_true.shape
        snaps = np.stack([t.iterates for t in trajs], axis=1).reshape(-1, G, S, d)
        norms = np.tile(np.linalg.norm(x_true, axis=1), G)
        rows = []
        for x in snaps:
            diff = x_true - x
            dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
            rel = [float(r / n) if n > 0 else None for r, n in zip(dist.ravel(), norms)]
            loss = [None] * (G * S) if data is None else evaluate_clean_loss(x, data, relu=relu).ravel().tolist()
            rows.append(list(zip(rel, loss)))
        return [[row[i] for row in rows] for i in range(G * S)]

    @staticmethod
    def _hex(cells):
        return [tuple(None if v is None else float(v).hex() for v in cell) for cell in cells]

    @pytest.mark.parametrize("per_buffer", [1, 3, 5, None], ids=["each", "three", "exactly_full", "all"])
    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("dataset", [False, True], ids=["synthetic", "dataset"])
    def test_table_is_the_per_checkpoint_record(self, dataset, relu, per_buffer, small_blocks, monkeypatch):
        rng = np.random.default_rng(8)
        x_true = rng.standard_normal((len(_TABLE_SEEDS), _TABLE_D))
        x_true[3] = 0.0  # no relative error for this seed's lanes
        sgd_exp = SolverSpec("sgd_exp_relu" if relu else "sgd_exp_linear", _TABLE_D, 2500, lam=1.001, G=1.0)
        second = dict(method="glmtron", schedule="root", m=2) if relu else dict(method="sgd_root_linear", gamma=0.5)
        specs = [sgd_exp, SolverSpec(d=_TABLE_D, T=2500, **second)]
        data = None
        if dataset:
            rows = rng.standard_normal((50, _TABLE_D))
            responses = rows @ rng.standard_normal(_TABLE_D)
            data = DatasetRows(rows, np.maximum(responses, 0.0) if relu else responses)
            stream = StreamSpec(data, SignFlip(0.2), relu=relu)
        else:
            stream = StreamSpec(GaussianSphere(_TABLE_D), SignFlip(0.2), relu=relu)
        if per_buffer is not None:
            lane_values = len(specs) * len(_TABLE_SEEDS) * (_TABLE_D + (50 if dataset else 0))
            monkeypatch.setattr(solvers_mod, "CHECKPOINT_VALUES", per_buffer * lane_values)
        calls = []
        counted = lambda *args, **kwargs: calls.append(1) or evaluate_clean_loss(*args, **kwargs)  # noqa: E731
        monkeypatch.setattr(solvers_mod, "evaluate_clean_loss", counted)
        lanes = Lanes((spec, 0.2, None) for spec in specs)
        trajs = run_batch(lanes, stream, _TABLE_SEEDS, x_true=x_true, checkpoint_every=300, record_iterates=True)
        # Checkpoints 0, 300, ..., 2400 and 2500, in blocks of 237 steps that stretches of 300 cross.
        assert len(calls) == (-(-10 // (per_buffer or 10)) if dataset else 0)
        assert small_blocks == [237]
        # The snapshots are the iterates at each checkpoint: the final iterates of calls that stop there.
        for c, k in enumerate([*range(0, 2500, 300), 2500]):
            stop = Lanes((replace(spec, T=k), 0.2, None) for spec in specs)
            finals = run_batch(stop, stream, _TABLE_SEEDS, x_true=x_true, checkpoint_every=300)
            assert all(np.array_equal(t.iterates[c], f.x_final) for t, f in zip(trajs, finals))
        want = self._per_checkpoint(trajs, len(specs), x_true, data, relu)
        for traj, cells in zip(trajs, want):
            assert traj.checkpoints.k.tolist() == [*range(0, 2500, 300), 2500]
            assert np.all(np.diff(traj.checkpoints.elapsed_seconds) >= 0.0)
            got = [(row.relative_error, row.clean_loss) for row in traj.checkpoints]
            assert self._hex(got) == self._hex(cells)
        assert [t.checkpoints.has_relative_error.all() for t in trajs] == [s != 3 for _ in specs for s in range(10)]

    @pytest.mark.parametrize("dataset", [False, True], ids=["synthetic", "dataset"])
    def test_results_csv_reads_back_as_the_table_and_plots_as_run(self, dataset, tmp_path):
        from sgdexp.cli import main
        from sgdexp.config import load_config
        from sgdexp.experiment import run_experiment
        from sgdexp.results import read_results_csv

        config = {
            "dimension": _TABLE_D,
            "horizon": 1000,
            "seeds": [1, 2, 3],
            "checkpoint_every": 150,
            "corruption": {"kind": "sign_flip", "p": 0.2},
            "solvers": [
                {"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.001, "G": 1.0},
                {"name": "sgd-root", "method": "sgd_root_linear", "gamma": 0.5},
            ],
        }
        if dataset:
            rows = np.random.default_rng(4).standard_normal((40, _TABLE_D))
            lines = [",".join(f"f{j}" for j in range(_TABLE_D)) + ",y"]
            lines += [",".join(format(v, ".17g") for v in (*row, row.sum())) for row in rows]
            (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
            features = [f"f{j}" for j in range(_TABLE_D)]
            data = dict(kind="dataset_rows", path=str(tmp_path / "data.csv"), features=features, response="y")
            config["measurement"] = data
            config["metrics"] = ["clean_l2_loss"]
        else:
            config["measurement"] = {"kind": "gaussian_sphere"}
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--out-dir", str(out), "--quiet"]) == 0
        back = {(t.solver, t.seed): t.checkpoints for t in read_results_csv(out / "results.csv")}
        trajs = run_experiment(load_config(path))
        assert len(back) == len(trajs) == 6
        for t in trajs:
            assert _columns(back[(t.solver, t.seed)]) == _columns(t.checkpoints)
        metric = "clean_l2_loss" if dataset else "relative_error"
        plot = ["plot", str(out / "results.csv"), "-o", str(tmp_path / "plot.svg"), "--metric", metric, "--quiet"]
        assert main(plot) == 0
        assert (tmp_path / "plot.svg").read_bytes() == (out / "results.svg").read_bytes()
