import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdexp import _kernel
from sgdexp.corruption import NoCorruption, ResidualSignAdversary, SignFlip
from sgdexp.drift import (
    DRIFT_CHUNK,
    DriftWindowError,
    drift_params,
    extract_Y_process,
    find_nonvacuous_hitting_config,
    hitting_bound,
    mc_drift_c2,
    mc_drift_linear_term,
    mc_hitting_probability,
    theorem_error_bound,
    theorem_failure_probability,
)
from sgdexp.drift import _one_step_report, _realized_signs
from sgdexp.measurement import DatasetRows, GaussianSphere, exact_sphere_constant, sample_block
from sgdexp.solvers import Lanes, SolverSpec, StreamSpec, recommend_G, run_batch

CT = math.sqrt(2.0 / math.pi)


def _linear_reference(lam, p, d, ct):
    """Independent transliteration of the linear drift constants."""
    ls1 = lam * lam - 1.0
    f = 1.0 - 2.0 * p
    a = 1.0 / (2.0 * ls1)
    u = math.sqrt(2.0) * lam**2 * f * ct / math.sqrt(d) - math.sqrt(ls1) * (1.5 + lam**2)
    c_star = u / (8.0 * lam**2)
    return {
        "a": a,
        "b": 3.0 * a,
        "c_star": c_star,
        "eta": c_star * math.sqrt(ls1),
        "rho": 1.0 - (ct * f) ** 2 / (60.0 * d),
        "D": math.exp(ct * f / (3.0 * math.sqrt(d))),
    }


class TestDriftParams:
    def test_linear_reference_values(self):
        p = drift_params(1.00001, 0.4, 100, CT)
        ref = _linear_reference(1.00001, 0.4, 100, CT)
        for name, want in ref.items():
            assert getattr(p, name) == pytest.approx(want, rel=1e-9), name
        # frozen decimals (30-digit arithmetic, rounded)
        assert p.a == pytest.approx(24999.8750006, rel=1e-9)
        assert p.c_star == pytest.approx(1.42341870825e-3, rel=1e-9)
        assert p.eta == pytest.approx(6.36573789847e-6, rel=1e-9)
        assert p.rho == pytest.approx(0.999995755868, rel=1e-12)
        assert p.D == pytest.approx(1.00533340263, rel=1e-9)

    def test_c_star_chain_lower_bound(self):
        p = drift_params(1.00001, 0.4, 100, CT)
        assert p.c_star > (1.0 / 15.0) * CT * 0.2 / 10.0

    def test_relu_reference_values(self):
        lam, pr, d = 1.0000005, 0.4, 100
        p = drift_params(lam, pr, d, CT, regime="relu")
        ls1 = lam * lam - 1.0
        f = 0.2
        u = lam**2 * f * CT / (math.sqrt(2.0) * math.sqrt(d)) - math.sqrt(ls1) * (
            1.5 + lam**2 / 2.0
        )
        assert p.c_star == pytest.approx(u / (8 * lam**2), rel=1e-12)
        assert p.rho == pytest.approx(1.0 - (CT * f) ** 2 / (100.0 * d), rel=1e-12)
        assert p.D == pytest.approx(math.exp(CT * f / (6.0 * math.sqrt(d))), rel=1e-12)
        assert p.c_star > (1.0 / 20.0) * CT * f / math.sqrt(d)

    def test_relu_window_tighter_than_linear(self):
        # lam valid for linear but outside the relu window (49 d vs 9 d)
        lam = math.sqrt(1.0 + CT**2 * 0.2**2 / (9.0 * 100) * 0.9)
        drift_params(lam, 0.4, 100, CT, regime="linear")
        with pytest.raises(DriftWindowError):
            drift_params(lam, 0.4, 100, CT, regime="relu")

    def test_window_violation_errors(self):
        # lam^2 - 1 = 2.001e-3 exceeds the window 2.829e-5 at p=0.4, d=100
        with pytest.raises(DriftWindowError, match="window"):
            drift_params(1.001, 0.4, 100, CT)
        with pytest.raises(DriftWindowError):
            drift_params(1.0, 0.4, 100, CT)  # lam must exceed 1

    @pytest.mark.parametrize("ctilde", [0.0, -1.0, math.inf, math.nan])
    def test_ctilde_must_be_positive_and_finite(self, ctilde):
        with pytest.raises(ValueError, match="ctilde must be positive and finite"):
            drift_params(1.00001, 0.4, 100, ctilde)

    def test_fifty_over_fortynine_cap(self):
        # with d=1 and a large ctilde the 9d window passes but lam^2 >= 50/49
        lam = math.sqrt(1.05)  # window allows up to 1.1089 here
        with pytest.raises(DriftWindowError, match="50/49"):
            drift_params(lam, 0.0, 1, 0.99)

    def test_oblivious_factor(self):
        # the oblivious variant swaps (1-2p) for (1-p) in every constant
        lam, pr, d = 1.0000001, 0.8, 50
        p = drift_params(lam, pr, d, CT, noise="oblivious")
        f = 1.0 - pr
        assert p.rho == pytest.approx(1.0 - (CT * f) ** 2 / (60.0 * d), rel=1e-12)
        assert p.D == pytest.approx(math.exp(CT * f / (3.0 * math.sqrt(d))), rel=1e-12)
        with pytest.raises(ValueError):
            drift_params(lam, 0.8, d, CT, noise="massart")

    def test_b_equals_three_a_exactly(self):
        p = drift_params(1.00001, 0.4, 100, CT)
        assert p.b == 3.0 * p.a

    @given(frac=st.floats(0.01, 0.99), pr=st.floats(0.0, 0.45))
    @settings(max_examples=50, deadline=None)
    def test_b_is_three_a_across_window(self, frac, pr):
        # frac stays below 1: squaring sqrt(1 + window) can land 1 ulp outside
        window = CT**2 * (1 - 2 * pr) ** 2 / (9.0 * 100)
        lam = math.sqrt(1.0 + frac * window)
        if lam <= 1.0:
            return
        p = drift_params(lam, pr, 100, CT)
        assert p.b == 3.0 * p.a
        assert 0.0 < p.rho < 1.0
        assert p.D >= 1.0
        assert p.eta > 0.0


class TestHittingBound:
    @pytest.fixture()
    def params(self):
        return drift_params(1.00001, 0.4, 100, CT)

    def test_zero_horizon(self, params):
        hb = hitting_bound(params, 0)
        assert hb.raw == 0.0 and hb.clamped == 0.0

    def test_linear_in_K(self, params):
        one = hitting_bound(params, 1).raw
        assert hitting_bound(params, 7).raw == pytest.approx(7 * one, rel=1e-12)
        assert hitting_bound(params, 1000).raw == pytest.approx(1000 * one, rel=1e-12)

    def test_nondecreasing(self, params):
        values = [hitting_bound(params, k).raw for k in (0, 1, 10, 100, 10_000)]
        assert values == sorted(values)

    def test_frozen_vacuous_value(self, params):
        hb = hitting_bound(params, 100_000)
        assert hb.raw == pytest.approx(1.7230254709e10, rel=1e-9)
        assert hb.clamped == 1.0

    def test_negative_K_rejected(self, params):
        with pytest.raises(ValueError):
            hitting_bound(params, -1)


class TestTheoremBounds:
    def test_error_bound_frozen_value(self):
        got = theorem_error_bound(1.0, CT, 225.0, 100, 0.4, 200_000)
        assert got == pytest.approx(14601.159115117, rel=1e-9)

    def test_error_bound_blows_up_towards_half(self):
        vals = [theorem_error_bound(1.0, CT, 225.0, 100, p, 200_000) for p in (0.4, 0.45, 0.49)]
        assert vals[0] < vals[1] < vals[2]

    def test_error_bound_decreasing_in_T_when_exponent_bites(self):
        # the exponential term dominates the log prefactor once
        # T ctilde^2 (1-2p)^2 / (3 R d) outgrows ln^2 T; scan a regime
        # where that already holds at T = 1e4 ...
        T = 10_000
        while T < 10_000_000:
            assert theorem_error_bound(1.0, CT, 6.25, 4, 0.0, 2 * T) < theorem_error_bound(
                1.0, CT, 6.25, 4, 0.0, T
            )
            T *= 2
        # ... and at the headline parameters the decrease sets in for large T
        # (the bound grows with the ln T prefactor until roughly T ~ 5e7)
        T = 10**8
        while T < 10**10:
            assert theorem_error_bound(1.0, CT, 225.0, 100, 0.4, 2 * T) < theorem_error_bound(
                1.0, CT, 225.0, 100, 0.4, T
            )
            T *= 2

    def test_failure_probability_exponent_cancellation(self):
        # sqrt(R) = 15 makes the bound independent of T
        v1 = theorem_failure_probability(100, 0.4, 100, 225.0, CT)
        v2 = theorem_failure_probability(100, 0.4, 10_000, 225.0, CT)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_failure_probability_frozen_value(self):
        got = theorem_failure_probability(100, 0.4, 10_000, 900.0, CT)
        assert got == pytest.approx(27.488935718911, rel=1e-9)

    def test_failure_probability_decreasing_in_T(self):
        vals = [
            theorem_failure_probability(100, 0.4, T, 900.0, CT) for T in (100, 1000, 10_000)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_relu_coefficients(self):
        d, p, T, R = 100, 0.4, 10_000, 900.0
        got = theorem_failure_probability(d, p, T, R, CT, regime="relu")
        want = (120.0 * d / (CT * 0.2) ** 2) * T ** (1.0 - math.sqrt(R) / 20.0)
        assert got == pytest.approx(want, rel=1e-12)


class TestExtractYProcess:
    def test_initial_point(self):
        x_true = np.array([3.0, 4.0])
        y = extract_Y_process(np.zeros((1, 2)), x_true, 1.5, 2.0)
        assert y[0] == pytest.approx(25.0 / 4.0, rel=1e-15)

    def test_zero_error_iterate(self):
        x_true = np.array([1.0, -1.0])
        y = extract_Y_process(np.vstack([np.zeros(2), x_true]), x_true, 1.5, 2.0)
        assert y[1] == 0.0

    def test_recomputation_oracle(self):
        d, lam, G = 3, 1.2, 0.7
        x_true = np.array([0.3, -1.0, 2.0])
        spec = SolverSpec(method="sgd_exp_linear", d=d, T=5, lam=lam, G=G)
        stream = StreamSpec(model=GaussianSphere(d), corruption=NoCorruption())
        traj = run_batch(spec, stream, [21], x_true=x_true, checkpoint_every=1, record_iterates=True)[0]
        ks = [cp.k for cp in traj.checkpoints]
        ys = extract_Y_process(traj.iterates, x_true, lam, G, ks=ks)
        for k, x_k in zip(ks, traj.iterates):
            manual = lam ** (2.0 * k) * np.sum((x_true - x_k) ** 2) / G**2
            assert ys[ks.index(k)] == pytest.approx(manual, rel=1e-12)

    def test_consistency_with_squared_norm_recursion(self):
        # Y_{k+1} from raw iterates matches lam^2 (Y_k - 2 <u_k, a_k> s_k + s_k^2)
        d, lam, G, T = 3, 1.2, 0.7, 25
        x_true = np.array([0.3, -1.0, 2.0])
        seed = 33
        spec = SolverSpec(method="sgd_exp_linear", d=d, T=T, lam=lam, G=G)
        stream = StreamSpec(model=GaussianSphere(d), corruption=NoCorruption())
        traj = run_batch(spec, stream, [seed], x_true=x_true, checkpoint_every=1, record_iterates=True)[0]
        # replay the measurement substream to recover a_k
        meas = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[1])
        A, _ = sample_block(GaussianSphere(d), meas, T)
        ys = extract_Y_process(traj.iterates, x_true, lam, G)
        for k in range(T):
            u_k = lam**k * (x_true - traj.iterates[k]) / G
            resid = float(np.dot(x_true - traj.iterates[k], A[k]))
            s = np.sign(resid)
            want = lam**2 * (ys[k] - 2.0 * float(u_k @ A[k]) * s + s * s)
            assert ys[k + 1] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_requires_valid_scales(self):
        with pytest.raises(ValueError):
            extract_Y_process(np.zeros((1, 2)), np.ones(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            extract_Y_process(np.zeros((1, 2)), np.ones(2), 1.5, 0.0)


def _hitting_setup(scale=1.05, seed=123):
    ct = exact_sphere_constant(20)
    params = find_nonvacuous_hitting_config(20, 0.4, ct, target_exponent=70.0)
    x_true = np.random.default_rng(seed).standard_normal(20)
    G = scale * recommend_G(params.lam, float(np.linalg.norm(x_true)))
    spec = SolverSpec(method="sgd_exp_linear", d=20, T=1000, lam=params.lam, G=G)
    stream = StreamSpec(model=GaussianSphere(20), corruption=ResidualSignAdversary(0.4))
    return params, spec, stream, x_true


class TestMcHitting:
    def test_level_below_start_hits_immediately(self):
        params, spec, stream, x_true = _hitting_setup()
        y0 = float(x_true @ x_true) / spec.G**2
        low = dataclasses.replace(params, b=0.5 * y0)
        rep = mc_hitting_probability(spec, stream, x_true, low, K=10, n_runs=20, seed=1)
        assert rep.empirical_prob == 1.0

    def test_monotone_in_level(self):
        params, spec, stream, x_true = _hitting_setup()
        y0 = float(x_true @ x_true) / spec.G**2
        probs = []
        for level in (0.5 * y0, 1.2 * y0, params.b):
            rep = mc_hitting_probability(
                spec, stream, x_true, dataclasses.replace(params, b=level), K=200, n_runs=30, seed=2
            )
            probs.append(rep.empirical_prob)
        assert probs[0] >= probs[1] >= probs[2]

    def test_invalid_initialization(self):
        params, spec, stream, x_true = _hitting_setup(scale=0.5)  # Y0 = 4 a > a
        with pytest.raises(ValueError, match="initialization"):
            mc_hitting_probability(spec, stream, x_true, params, K=10, n_runs=5, seed=0)

    def test_report_fields(self):
        params, spec, stream, x_true = _hitting_setup()
        rep = mc_hitting_probability(spec, stream, x_true, params, K=100, n_runs=10, seed=3)
        assert rep.K == 100 and rep.n_runs == 10
        assert rep.theoretical_bound == pytest.approx(hitting_bound(params, 100).raw, rel=1e-12)
        assert rep.empirical_prob == 0.0  # nonvacuous config never hits


class TestPrecisionHorizon:
    """Past k_fp = ln(G / (eps ||x*||)) / ln lam the step falls below ulp and
    the frozen iterate's Y_k grows into false hits (here from k ~ 5281)."""

    D, LAM = 5, 1.0070

    def _setup(self):
        x_true = np.random.default_rng(0).standard_normal(self.D)
        norm = float(np.linalg.norm(x_true))
        G = 1.05 * recommend_G(self.LAM, norm)
        params = drift_params(self.LAM, 0.0, self.D, exact_sphere_constant(self.D))
        spec = SolverSpec(method="sgd_exp_linear", d=self.D, T=1, lam=self.LAM, G=G)
        stream = StreamSpec(model=GaussianSphere(self.D), corruption=NoCorruption())
        k_fp = math.log(G / (np.finfo(float).eps * norm)) / math.log(self.LAM)
        return params, spec, stream, x_true, k_fp

    def test_horizon_past_k_fp_raises(self):
        params, spec, stream, x_true, k_fp = self._setup()
        assert 4900 < k_fp < 5000
        with pytest.raises(ValueError, match=r"K = 12000 .* k_fp = 4918\.0"):
            mc_hitting_probability(spec, stream, x_true, params, K=12000, n_runs=8, seed=0)

    def test_horizon_at_k_fp_runs(self):
        params, spec, stream, x_true, k_fp = self._setup()
        rep = mc_hitting_probability(spec, stream, x_true, params, K=math.floor(k_fp), n_runs=8, seed=0)
        assert rep.K == math.floor(k_fp)
        assert rep.empirical_prob == 0.0

    def test_zero_signal_has_no_horizon(self):
        # No precision horizon; lam^{2k} overflows only past k ~ 50900 here.
        params, spec, stream, _, _ = self._setup()
        rep = mc_hitting_probability(spec, stream, np.zeros(self.D), params, K=12000, n_runs=1, seed=0)
        assert rep.K == 12000

    def test_engine_refuses_T_past_k_fp(self):
        params, spec, stream, x_true, _ = self._setup()
        kwargs = dict(x_true=x_true, validate_steps=False, hitting_level=params.b)
        with pytest.raises(ValueError, match=r"T = 12000 exceeds the precision horizon k_fp = 4918\.0"):
            run_batch(dataclasses.replace(spec, T=12000), stream, range(8), **kwargs)
        trajs = run_batch(dataclasses.replace(spec, T=4000), stream, range(8), **kwargs)
        assert all(t.hit_k is None for t in trajs)

    def test_engine_hitting_needs_x_true(self):
        params, spec, _, _, _ = self._setup()
        rows = np.random.default_rng(1).standard_normal((30, self.D))
        stream = StreamSpec(model=DatasetRows(rows), responses=np.zeros(30))
        with pytest.raises(ValueError, match="requires one sgd_exp lane group and x_true"):
            run_batch(spec, stream, [0], hitting_level=params.b)

    def test_engine_horizon_is_the_smallest_per_seed(self):
        # A 1000x smaller step scale ends seed 1's horizon ln(1000) / ln lam ~ 990 steps sooner.
        params, spec, stream, x_true, k_fp = self._setup()
        lanes = Lanes([(dataclasses.replace(spec, T=4000), 0.0, np.array([spec.G, spec.G / 1000]))])
        expected = k_fp - math.log(1000) / math.log(self.LAM)
        with pytest.raises(ValueError, match=rf"T = 4000 .* k_fp = {expected:.1f}"):
            run_batch(lanes, stream, [0, 1], x_true=x_true, hitting_level=params.b)


class TestOverflowHorizon:
    """lam^{2k} is inf past k_of = ln(DBL_MAX) / (2 ln lam).  With x* = 0 there is
    no precision horizon, and both bodies used to record a false hit at k = 7274
    here (the numpy body with ~12000 "invalid value" warnings)."""

    D, LAM = 5, 1.05

    @pytest.fixture(params=["kernel", "numpy_body"])
    def body(self, request, monkeypatch):
        if request.param == "numpy_body":
            monkeypatch.setitem(_kernel._libs, "step kernel", "turned off")
        elif _kernel.load("step kernel") is None:
            pytest.skip("the step kernel does not load here")

    def _run(self, T):
        spec = SolverSpec(method="sgd_exp_linear", d=self.D, T=T, lam=self.LAM, G=1.0)
        stream = StreamSpec(model=GaussianSphere(self.D), corruption=NoCorruption())
        kwargs = dict(x_true=np.zeros(self.D), x0=np.full(self.D, 0.3), checkpoint_every=T)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_batch(spec, stream, range(4), hitting_level=1e6, **kwargs)

    def test_T_past_k_of_raises(self, body):
        assert 7273 < math.log(sys.float_info.max) / (2.0 * math.log(self.LAM)) < 7274
        with pytest.raises(ValueError, match=r"^T = 20000 exceeds the overflow horizon k_of = 7273\.8"):
            self._run(20000)

    def test_T_within_k_of_has_no_hit(self, body):
        assert all(t.hit_k is None for t in self._run(7000))

    def test_mc_hitting_refuses_K_past_k_of(self):
        # The drift window needs lam^2 - 1 <= 1/64 at d = 5, which puts k_of near 47500.
        lam = 1.0075
        params = drift_params(lam, 0.0, self.D, exact_sphere_constant(self.D))
        spec = SolverSpec(method="sgd_exp_linear", d=self.D, T=1, lam=lam, G=1.0)
        stream = StreamSpec(model=GaussianSphere(self.D), corruption=NoCorruption())
        with pytest.raises(ValueError, match=r"^K = 50000 exceeds the overflow horizon k_of = 47496\.\d"):
            mc_hitting_probability(spec, stream, np.zeros(self.D), params, K=50000, n_runs=4, seed=0)


class TestMcDriftLinearTerm:
    LAM, P, D = 1.00001, 0.4, 100

    def test_spec_point_passes_ceiling(self):
        ls1 = self.LAM**2 - 1.0
        a = 1.0 / (2.0 * ls1)
        rep = mc_drift_linear_term(
            a,
            self.P,
            self.LAM,
            self.D,
            CT,
            GaussianSphere(self.D),
            ResidualSignAdversary(self.P),
            50_000,
            np.random.default_rng(0),
        )
        assert rep.ceiling == pytest.approx(-2.54633335388, rel=1e-9)
        assert rep.passed
        # closed form with the exact sphere constant: (1-2p)-weighted drift
        cf = ls1 * a + self.LAM**2 - 2 * self.LAM**2 * 0.2 * exact_sphere_constant(
            self.D
        ) * math.sqrt(a) / math.sqrt(self.D)
        assert abs(rep.estimate - cf) <= 4 * rep.stderr

    def test_closed_form_no_adversary(self):
        lam, d = self.LAM, self.D
        a = 1.0 / (2.0 * (lam**2 - 1.0))
        rep = mc_drift_linear_term(
            a,
            0.0,
            lam,
            d,
            CT,
            GaussianSphere(d),
            NoCorruption(),
            100_000,
            np.random.default_rng(1),
            direction=np.eye(d)[0],
        )
        cf = (lam**2 - 1) * a + lam**2 - 2 * lam**2 * exact_sphere_constant(d) * math.sqrt(
            a
        ) / math.sqrt(d)
        assert abs(rep.estimate - cf) <= 4 * rep.stderr

    def test_per_sample_algebraic_identity(self):
        # explicit u' = lam (u - s a) matches lam^2 (Y - 2 <u,a> s + 1) - Y
        lam, d = 1.3, 6
        rng = np.random.default_rng(2)
        u = rng.standard_normal(d)
        y0 = float(u @ u)
        A, _ = sample_block(GaussianSphere(d), rng, 200)
        s = np.where(A @ u >= 0, 1.0, -1.0)
        flip = rng.random(200) < 0.4
        s = np.where(flip, -s, s)
        w = u[None, :] - s[:, None] * A
        route1 = lam**2 * np.einsum("ij,ij->i", w, w) - y0
        route2 = lam**2 * (y0 - 2.0 * s * (A @ u) + 1.0) - y0
        assert np.allclose(route1, route2, rtol=1e-12, atol=1e-10)

    def test_state_outside_band_rejected(self):
        ls1 = self.LAM**2 - 1.0
        a = 1.0 / (2.0 * ls1)
        rng = np.random.default_rng(3)
        adv = ResidualSignAdversary(self.P)
        with pytest.raises(ValueError, match="band"):
            mc_drift_linear_term(0.5 * a, self.P, self.LAM, self.D, CT, GaussianSphere(self.D), adv, 100, rng)
        with pytest.raises(ValueError, match="band"):
            mc_drift_linear_term(3.5 * a, self.P, self.LAM, self.D, CT, GaussianSphere(self.D), adv, 100, rng)

    def test_adversary_consistency_enforced(self):
        ls1 = self.LAM**2 - 1.0
        a = 1.0 / (2.0 * ls1)
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="probability"):
            mc_drift_linear_term(
                a, 0.3, self.LAM, self.D, CT, GaussianSphere(self.D), ResidualSignAdversary(0.4), 100, rng
            )
        with pytest.raises(ValueError, match="NoCorruption"):
            mc_drift_linear_term(
                a, 0.3, self.LAM, self.D, CT, GaussianSphere(self.D), NoCorruption(), 100, rng
            )
        with pytest.raises(ValueError, match="supports"):
            mc_drift_linear_term(
                a, 0.4, self.LAM, self.D, CT, GaussianSphere(self.D), SignFlip(0.4), 100, rng
            )


def _one_step_allocating(u, lam, model, adversary, n_samples, rng, value):
    """_one_step_report's estimate and stderr with fresh arrays per chunk.  The reference."""
    total = total_sq = 0.0
    shift = None
    remaining = n_samples
    while remaining > 0:
        m = min(DRIFT_CHUNK, remaining)
        A, _ = sample_block(model, rng, m)
        s = _realized_signs(A @ u, adversary, rng)
        w = u[None, :] - s[:, None] * A
        vals = value(lam * lam * np.einsum("ij,ij->i", w, w))
        if shift is None:
            shift = float(vals[0])
        vals -= shift
        total += vals.sum()
        total_sq += (vals * vals).sum()
        remaining -= m
    mean_c = total / n_samples
    var = max(total_sq / n_samples - mean_c * mean_c, 0.0) * n_samples / (n_samples - 1)
    return shift + mean_c, math.sqrt(var / n_samples)


class TestOneStepBuffers:
    """The validators draw into one reused chunk buffer without moving a bit."""

    LAM, D = 1.001, 20

    @pytest.mark.parametrize("adversary", [NoCorruption(), ResidualSignAdversary(0.3)], ids=["clean", "adversary"])
    @pytest.mark.parametrize("n_samples", [2, DRIFT_CHUNK, 2 * DRIFT_CHUNK + 123])
    def test_estimates_match_allocating_reference(self, adversary, n_samples):
        u = np.random.default_rng(4).standard_normal(self.D) * 10.0
        value = lambda y1: np.exp(1e-3 * y1)
        model = GaussianSphere(self.D)
        rep = _one_step_report(u, self.LAM, model, adversary, n_samples, np.random.default_rng(5), value, 1.0)
        est, se = _one_step_allocating(u, self.LAM, model, adversary, n_samples, np.random.default_rng(5), value)
        assert (rep.estimate, rep.stderr) == (est, se)

    @pytest.mark.parametrize("fill", [True, False], ids=["fill", "numpy_fill"])
    def test_memory_is_one_chunk_buffer(self, fill, monkeypatch):
        # The draws, then u - s a in their place: one (DRIFT_CHUNK, d) buffer, plus
        # per-draw vectors.  numpy's row norms square a few rows at a time.
        if not fill:
            monkeypatch.setitem(_kernel._libs, "Gaussian fill", "turned off")
        elif _kernel.load("Gaussian fill") is None:
            pytest.skip("the compiled fill does not load here")
        chunks = 1.5
        d, lam, p = 100, 1.00001, 0.4
        a_edge = 1.0 / (2.0 * (lam * lam - 1.0))
        args = (p, lam, d, CT, GaussianSphere(d), ResidualSignAdversary(p), 40_000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            mc_drift_linear_term(1.5 * a_edge, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunks * DRIFT_CHUNK * d * 8


class TestMcDriftC2:
    LAM, P, D = 1.00001, 0.4, 100

    def test_zero_state_forced_outcome(self):
        params = drift_params(self.LAM, self.P, self.D, CT)
        rep = mc_drift_c2(
            0.0,
            self.P,
            self.LAM,
            self.D,
            CT,
            GaussianSphere(self.D),
            ResidualSignAdversary(self.P),
            500,
            np.random.default_rng(5),
        )
        want = math.exp(params.eta * (self.LAM**2 - params.a))
        assert rep.estimate == pytest.approx(want, rel=1e-12)
        assert rep.stderr == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    def test_ceiling_is_D(self):
        params = drift_params(self.LAM, self.P, self.D, CT)
        rep = mc_drift_c2(
            0.0, self.P, self.LAM, self.D, CT, GaussianSphere(self.D),
            ResidualSignAdversary(self.P), 500, np.random.default_rng(6),
        )
        assert rep.ceiling == pytest.approx(params.D, rel=1e-12)
        assert rep.ceiling == pytest.approx(1.00533340263, rel=1e-9)

    def test_sweep_of_admissible_states(self):
        params = drift_params(self.LAM, self.P, self.D, CT)
        rng = np.random.default_rng(7)
        for u2 in np.linspace(0.0, 0.98 * params.a, 20):
            rep = mc_drift_c2(
                float(u2), self.P, self.LAM, self.D, CT, GaussianSphere(self.D),
                ResidualSignAdversary(self.P), 4000, rng,
            )
            assert rep.passed, f"state {u2}: estimate {rep.estimate} vs D {rep.ceiling}"

    def test_state_at_or_above_a_rejected(self):
        params = drift_params(self.LAM, self.P, self.D, CT)
        with pytest.raises(ValueError, match="below a"):
            mc_drift_c2(
                params.a, self.P, self.LAM, self.D, CT, GaussianSphere(self.D),
                ResidualSignAdversary(self.P), 100, np.random.default_rng(8),
            )


class TestTheoremEnvelope:
    def test_error_bound_dominates_observed_error(self):
        # run a configuration that satisfies every guarantee precondition
        # and check the final error sits below the theorem envelope
        from sgdexp.solvers import Lanes, recommend_lambda, run_batch, signal_rng

        d, p, T, R = 100, 0.4, 200_000, 225.0
        rec = recommend_lambda(d, p, T, R, CT, x_norm_bound=None)
        assert rec.preconditions_ok
        seeds = [1, 2]
        x_true = np.vstack([signal_rng(s).standard_normal(d) for s in seeds])
        norms = np.linalg.norm(x_true, axis=1)
        G = np.array([1.01 * recommend_G(rec.lam, n) for n in norms])  # strict inequality
        spec = SolverSpec(method="sgd_exp_linear", d=d, T=T, lam=rec.lam, G=float(G[0]))
        stream = StreamSpec(model=GaussianSphere(d), corruption=SignFlip(p))
        trajs = run_batch(Lanes([(spec, p, G)]), stream, seeds, x_true=x_true,
                          checkpoint_every=T, validate_steps=False)
        for i, traj in enumerate(trajs):
            abs_err = traj.checkpoints[-1].relative_error * norms[i]
            bound = theorem_error_bound(float(G[i]), CT, R, d, p, T)
            assert abs_err <= bound


class TestSearchHelper:
    def test_reaches_target_inside_window(self):
        ct = exact_sphere_constant(20)
        params = find_nonvacuous_hitting_config(20, 0.4, ct, target_exponent=70.0)
        achieved = params.eta * (params.b - params.a)
        assert achieved >= 63.0  # 0.9 * target
        assert hitting_bound(params, 10_000).raw < 1e-20

    def test_relu_regime(self):
        ct = exact_sphere_constant(20)
        params = find_nonvacuous_hitting_config(20, 0.4, ct, target_exponent=40.0, regime="relu")
        assert params.regime == "relu"
        assert params.eta * (params.b - params.a) >= 36.0
