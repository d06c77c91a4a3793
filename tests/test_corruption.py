import math

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
    Uniform,
    apply_channel,
)
from sgdexp.measurement import DatasetRows, GaussianSphere, sample_block
from sgdexp.solvers import SolverSpec, StreamSpec, run_batch

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_probability_validated_at_construction():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SignFlip(1.3)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ResidualSignAdversary(-0.1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AdditiveOblivious(2.0, Uniform(1.0))


def test_noise_law_validation():
    with pytest.raises(ValueError):
        Uniform(0.0)
    with pytest.raises(ValueError):
        Gaussian(-1.0)


@pytest.mark.parametrize(
    "law, numpy_draw",
    [
        (Uniform(0.7), lambda rng, n: rng.uniform(-0.7, 0.7, n)),
        (Uniform(300.0), lambda rng, n: rng.uniform(-300.0, 300.0, n)),
        (Gaussian(2.0), lambda rng, n: rng.normal(0.0, math.sqrt(2.0), n)),
    ],
    ids=["uniform", "uniform_wide", "gaussian"],
)
@pytest.mark.parametrize("n", [1, 7, 5000])
def test_noise_draw_in_place_is_numpys_draw(law, numpy_draw, n):
    """A noise law draws numpy's uniform or normal bits, into a new array or in place into ``out``."""
    want = numpy_draw(np.random.default_rng(3), n).view(np.uint64)
    assert np.array_equal(law.draw(np.random.default_rng(3), n).view(np.uint64), want)
    out = np.full(n, -0.0)
    assert law.draw(np.random.default_rng(3), n, out=out) is out
    assert np.array_equal(out.view(np.uint64), want)


def test_sign_flip_deterministic_at_p1():
    y = apply_channel(SignFlip(1.0), np.array([3.0]), np.random.default_rng(0).random(1))
    assert y[0] == -3.0


@pytest.mark.parametrize(
    "spec",
    [
        NoCorruption(),
        SignFlip(0.0),
        ResidualSignAdversary(0.0),
        AdditiveOblivious(0.0, Uniform(300.0)),
    ],
)
def test_identity_channel_at_p0(spec):
    rng = np.random.default_rng(1)
    a = np.array([1.0, 0.0])
    x = np.array([2.0, -1.0])
    clean = np.array([-5.0, 0.0, 7.25])
    nu = Uniform(300.0).draw(rng, 3)
    y = apply_channel(spec, clean, rng.random(3), nu, pred=np.full(3, x @ a))
    assert np.array_equal(y, clean)


@pytest.mark.parametrize(
    "spec",
    [NoCorruption(), SignFlip(0.5), ResidualSignAdversary(0.5), AdditiveOblivious(0.5, Gaussian(1.0))],
    ids=["none", "sign_flip", "residual_sign", "oblivious"],
)
def test_per_lane_p_matches_scalar_calls(spec):
    rng = np.random.default_rng(4)
    clean = rng.standard_normal((3, 50))
    clean[:, :5] = -0.0
    xi, nu, pred = rng.random((3, 50)), rng.standard_normal((3, 50)), rng.standard_normal((4, 3, 50))
    ps = [0.0, 0.2, 0.5, 1.0]
    lanes = apply_channel(spec, clean, xi, nu, pred=pred, p=np.array(ps)[:, None, None])
    lanes = np.broadcast_to(lanes, pred.shape)
    for g, p in enumerate(ps):
        scalar = apply_channel(spec, clean, xi, nu, pred=pred[g], p=p)
        assert np.array_equal(np.signbit(lanes[g]), np.signbit(scalar))
        assert np.array_equal(lanes[g], scalar)
    assert np.array_equal(np.signbit(lanes[0]), np.signbit(clean))


def test_adversary_requires_iterate():
    with pytest.raises(ValueError, match="prediction"):
        apply_channel(ResidualSignAdversary(0.5), np.array([1.0]), np.array([0.1]))


def test_adversary_reflects_about_prediction():
    rng = np.random.default_rng(2)
    a = np.array([0.6, 0.8])
    x_iter = np.array([1.0, -2.0])
    m = float(x_iter @ a)
    y = apply_channel(ResidualSignAdversary(1.0), np.array([3.0]), rng.random(1), pred=np.array([m]))[0]
    assert y == pytest.approx(2 * m - 3.0, rel=1e-15)
    # residual magnitude is preserved, sign is flipped
    assert abs(y - m) == pytest.approx(abs(3.0 - m), rel=1e-12)


def _engine_adversary_response(relu):
    """The response the engine feeds the solver at <x, a> = -2 with clean response 1.5.

    GLM-Tron (const, m = 1) moves x by (y - max(0, <x, a>)) a = y a here,
    so the corrupted y is the realized step along a = e1.
    """
    stream = StreamSpec(
        model=DatasetRows(np.array([[1.0, 0.0]]), np.array([1.5])),
        corruption=ResidualSignAdversary(1.0),
        relu=relu,
    )
    spec = SolverSpec(method="glmtron", d=2, T=1, schedule="const", m=1)
    x0 = np.array([-2.0, 0.0])
    return run_batch(spec, stream, [0], x0=x0)[0].x_final[0] - x0[0]


def test_adversary_relu_reference():
    # The engine reflects about the model's prediction: max(0, -2) = 0 for ReLU responses.
    assert _engine_adversary_response(relu=True) == pytest.approx(-1.5, rel=1e-15)
    assert _engine_adversary_response(relu=False) == pytest.approx(2 * (-2.0) - 1.5, rel=1e-15)


@given(clean=finite, xv=finite, seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_adversary_preserves_residual_magnitude(clean, xv, seed):
    xi = np.random.default_rng(seed).random(1)
    y = apply_channel(ResidualSignAdversary(1.0), np.array([clean]), xi, pred=np.array([xv]))[0]
    assert y == 2.0 * xv - clean
    m = xv
    assert abs(y - m) == pytest.approx(abs(clean - m), rel=1e-9, abs=1e-9)


def _oblivious_draws(spec, clean, n, rng):
    """n channel outputs for a constant clean response: indicator draws, then noise draws."""
    return apply_channel(spec, np.full(n, clean), rng.random(n), spec.law.draw(rng, n))


def test_oblivious_symmetry_large_uniform():
    # p=1 with uniform noise on [-300, 300]: mean offset ~ 0, P(offset > 0) ~ 1/2
    spec = AdditiveOblivious(1.0, Uniform(300.0))
    rng = np.random.default_rng(4)
    n = 1_000_000
    clean = 11.5
    offsets = _oblivious_draws(spec, clean, n, rng) - clean
    assert np.all(offsets != 0.0)
    se_mean = offsets.std(ddof=1) / math.sqrt(n)
    assert abs(offsets.mean()) < 4 * se_mean
    frac_pos = (offsets > 0).mean()
    assert abs(frac_pos - 0.5) < 4 * math.sqrt(0.25 / n)


def test_oblivious_gaussian_variance():
    spec = AdditiveOblivious(1.0, Gaussian(30.0))
    rng = np.random.default_rng(5)
    n = 100_000
    draws = _oblivious_draws(spec, 0.0, n, rng)
    # variance of the sample variance is ~ 2 var^2 / n
    assert abs(draws.var(ddof=1) - 30.0) < 4 * 30.0 * math.sqrt(2.0 / n)


def test_oblivious_noise_independent_of_measurement():
    # correlation between the added noise and each coordinate of a ~ 0
    d, n = 5, 100_000
    spec = AdditiveOblivious(1.0, Uniform(10.0))
    rng = np.random.default_rng(6)
    A, _ = sample_block(GaussianSphere(d), rng, n)
    noises = _oblivious_draws(spec, 0.0, n, rng)
    sig_nu = noises.std(ddof=1)
    for j in range(d):
        corr = np.mean(noises * A[:, j]) / (sig_nu * A[:, j].std(ddof=1))
        assert abs(corr) < 4 / math.sqrt(n)


def _corrupted_fraction(spec, n_trials, rng):
    """Share of n_trials unit responses the channel changes, with the prediction at 0."""
    xi = rng.random(n_trials)
    nu = spec.law.draw(rng, n_trials) if isinstance(spec, AdditiveOblivious) else None
    clean = np.ones(n_trials)
    return float(np.mean(apply_channel(spec, clean, xi, nu, pred=np.zeros(n_trials)) != clean))


class TestAudit:
    def test_p0_exact(self):
        assert _corrupted_fraction(SignFlip(0.0), 1000, np.random.default_rng(0)) == 0.0

    def test_p1_exact(self):
        assert _corrupted_fraction(SignFlip(1.0), 1000, np.random.default_rng(0)) == 1.0

    def test_binomial_consistency(self):
        n, p = 100_000, 0.4
        rate = _corrupted_fraction(SignFlip(p), n, np.random.default_rng(7))
        assert abs(rate - p) < 4 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize(
        "spec",
        [
            ResidualSignAdversary(0.25),
            AdditiveOblivious(0.25, Gaussian(30.0)),
        ],
    )
    def test_binomial_consistency_other_channels(self, spec):
        n = 20_000
        rate = _corrupted_fraction(spec, n, np.random.default_rng(8))
        assert abs(rate - 0.25) < 4 * math.sqrt(0.25 * 0.75 / n)
