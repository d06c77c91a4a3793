"""Drift constants, tail bounds, and their Monte Carlo validation.

The object of study is the scaled residual process

    Y_k = lam^{2k} ||x* - x_k||^2 / G^2,

whose one-step recursion (for unit-norm measurements) is

    Y_{k+1} = lam^2 (Y_k - 2 <u_k, a_k> s_k + 1),   u_k = lam^k (x* - x_k) / G,

with s_k the realized residual sign.  Inside the band [a, b) with
a = 1/(2(lam^2-1)), b = 3a, the exponential moment of the increments
contracts (factor rho < 1); below the band a single step cannot push
the moment above a ceiling D.  Together these bound the tail of the
first time Y_k reaches b, which converts directly into a geometric
error bound for the solver.

Monte Carlo validators here estimate the in-band mean drift and the
below-band moment against their closed-form ceilings, and measure
empirical hitting probabilities against the tail bound.  They realize
the residual sign with the worst-case semi-random adversary (reflection
about the current prediction) and use the convention s in {-1, +1}
(an exact-zero residual counts as +1), matching the unit step weight
baked into the recursion above; the solver itself uses sign(0) = 0,
which differs only on measure-zero events.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .corruption import CorruptionSpec, NoCorruption, ResidualSignAdversary, apply_channel
from .measurement import MeasurementModel, sample_block
from .solvers import SolverSpec, StreamSpec, _corruption_factor, _precision_horizon, run_batch

#: Denominators of the admissible step-decay window lam^2 - 1 <= ctilde^2 f^2 / (den d).
WINDOW_DEN = {"linear": 9.0, "relu": 49.0}
#: Denominators of the in-band contraction rho = 1 - ctilde^2 f^2 / (den d).
RHO_DEN = {"linear": 60.0, "relu": 100.0}
#: Denominators of the below-band ceiling D = exp(ctilde f / (den sqrt(d))).
D_DEN = {"linear": 3.0, "relu": 6.0}
#: One-step draws per block in the drift Monte Carlo validators, which hold
#: one (DRIFT_CHUNK, d) buffer for the call.
DRIFT_CHUNK = 20_000


class DriftWindowError(ValueError):
    """lam is outside the admissible window; the drift constants would be meaningless."""


class HittingBound(NamedTuple):
    raw: float
    clamped: float


@dataclass(frozen=True)
class DriftParams:
    """Constants of the exponential-moment drift bound."""

    a: float  # lower band edge, 1 / (2 (lam^2 - 1))
    b: float  # hitting level, exactly 3 a
    c_star: float
    eta: float  # moment tilt, c_star sqrt(lam^2 - 1)
    rho: float  # in-band contraction factor, in (0, 1)
    D: float  # below-band moment ceiling, >= 1
    regime: str
    noise: str
    lam: float
    p: float
    d: int
    ctilde: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HittingReport:
    """Empirical hitting probability next to its theoretical tail bound."""

    empirical_prob: float
    n_runs: int
    theoretical_bound: float
    K: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DriftTermReport:
    """Monte Carlo drift estimate against a closed-form ceiling."""

    estimate: float
    stderr: float
    ceiling: float
    n_samples: int
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def drift_params(
    lam: float,
    p: float,
    d: int,
    ctilde: float,
    regime: str = "linear",
    noise: str = "massart",
) -> DriftParams:
    """Compute the drift constants (a, b, c*, eta, rho, D) for lam in its window.

    Raises DriftWindowError when lam^2 - 1 falls outside
    (0, ctilde^2 f^2 / (9 d)] (linear; 49 d for relu) or lam^2 >= 50/49:
    outside the window the constants are not bounds at all.
    """
    if regime not in WINDOW_DEN:
        raise ValueError(f"regime must be 'linear' or 'relu', got {regime!r}")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not ctilde > 0:
        raise ValueError("ctilde must be positive")
    f = _corruption_factor(p, noise)
    ls1 = lam * lam - 1.0
    window = ctilde * ctilde * f * f / (WINDOW_DEN[regime] * d)
    if not 0.0 < ls1 <= window:
        raise DriftWindowError(
            f"lam^2 - 1 = {ls1:.6g} outside the admissible window (0, {window:.6g}] "
            f"for regime={regime}, p={p}, d={d}"
        )
    if not lam * lam < 50.0 / 49.0:
        raise DriftWindowError(f"lam^2 = {lam * lam:.6g} must stay below 50/49")

    lam2 = lam * lam
    sq = math.sqrt(ls1)
    if regime == "linear":
        u = math.sqrt(2.0) * lam2 * f * ctilde / math.sqrt(d) - sq * (1.5 + lam2)
    else:
        u = lam2 * f * ctilde / (math.sqrt(2.0) * math.sqrt(d)) - sq * (1.5 + lam2 / 2.0)
    c_star = u / (8.0 * lam2)
    if not c_star > 0:
        raise DriftWindowError("window produced a nonpositive c*; lam is too large")

    a = 1.0 / (2.0 * ls1)
    rho = 1.0 - (ctilde * f) ** 2 / (RHO_DEN[regime] * d)
    big_d = math.exp(ctilde * f / (D_DEN[regime] * math.sqrt(d)))
    return DriftParams(
        a=a,
        b=3.0 * a,
        c_star=c_star,
        eta=c_star * sq,
        rho=rho,
        D=big_d,
        regime=regime,
        noise=noise,
        lam=lam,
        p=p,
        d=d,
        ctilde=ctilde,
    )


def hitting_bound(params: DriftParams, K: int) -> HittingBound:
    """Tail bound P[tau_b <= K] <= K D e^{-eta (b - a)} / (1 - rho).

    Returns the raw value and its clamp to [0, 1]; the raw value can be
    vacuous (> 1) when eta (b - a) is small.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    raw = K * params.D * math.exp(-params.eta * (params.b - params.a)) / (1.0 - params.rho)
    return HittingBound(raw=raw, clamped=min(raw, 1.0))


def theorem_error_bound(G: float, ctilde: float, R: float, d: int, p: float, T: int) -> float:
    """Error bound G (2 ctilde sqrt(R d) ln T / (1-2p)) exp(-T ctilde^2 (1-2p)^2 / (3 R d ln^2 T))."""
    if T < 2:
        raise ValueError("T must be at least 2")
    f = _corruption_factor(p, "massart")
    if not R > 0:
        raise ValueError("R must be positive")
    log_t = math.log(T)
    prefactor = G * 2.0 * ctilde * math.sqrt(R * d) * log_t / f
    return prefactor * math.exp(-T * (ctilde * f) ** 2 / (3.0 * R * d * log_t**2))


def theorem_failure_probability(
    d: int, p: float, T: int, R: float, ctilde: float, regime: str = "linear"
) -> float:
    """Failure-probability term of the convergence guarantee.

    (70 d / (ctilde^2 (1-2p)^2)) T^{1 - sqrt(R)/15} in the linear regime;
    coefficient 120 and exponent divisor 20 in the relu regime.  Only
    nonvacuous for R above 225 (linear) or 400 (relu).
    """
    if regime not in ("linear", "relu"):
        raise ValueError(f"regime must be 'linear' or 'relu', got {regime!r}")
    if T < 2:
        raise ValueError("T must be at least 2")
    f = _corruption_factor(p, "massart")
    if not R > 0:
        raise ValueError("R must be positive")
    coeff, div = (70.0, 15.0) if regime == "linear" else (120.0, 20.0)
    return (coeff * d / (ctilde * f) ** 2) * T ** (1.0 - math.sqrt(R) / div)


def extract_Y_process(
    iterates, x_true, lam: float, G: float, ks=None
) -> np.ndarray:
    """Scaled residual process Y_k = lam^{2k} ||x_true - x_k||^2 / G^2.

    ``iterates`` is an (n, d) array of solver iterates; ``ks`` gives the
    iteration index of each row (defaults to 0..n-1 for dense records).
    """
    if not lam > 1.0:
        raise ValueError("lam must exceed 1")
    if not G > 0.0:
        raise ValueError("G must be positive")
    X = np.atleast_2d(np.asarray(iterates, dtype=float))
    x_true = np.asarray(x_true, dtype=float)
    ks = np.arange(X.shape[0]) if ks is None else np.asarray(ks)
    sq = np.sum((x_true[None, :] - X) ** 2, axis=1)
    return lam ** (2.0 * ks.astype(float)) * sq / (G * G)


def mc_hitting_probability(
    spec: SolverSpec,
    stream: StreamSpec,
    x_true: np.ndarray,
    params: DriftParams,
    K: int,
    n_runs: int,
    seed: int = 0,
) -> HittingReport:
    """Empirical P[tau_b <= K] over independent solver runs vs. the tail bound.

    Requires Y_0 = ||x_true||^2 / G^2 < a (the admissible-initialization
    condition) and K within the precision horizon
    k_fp = ln(G / (eps ||x_true||)) / ln lam: past k_fp the step G lam^{-k}
    falls below ulp(||x_true||), the iterate freezes while lam^{2k} keeps
    growing, and Y_k records false hits.  Each run simulates K steps of
    the configured solver and records whether Y_k ever reached b.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    x_true = np.asarray(x_true, dtype=float)
    y0 = float(np.dot(x_true, x_true)) / (spec.G * spec.G)
    if not y0 < params.a:
        raise ValueError(
            f"invalid initialization: Y_0 = {y0:.6g} must be below a = {params.a:.6g}"
        )
    k_fp = _precision_horizon(spec.G, float(np.linalg.norm(x_true)), spec.lam)
    if K > k_fp:
        raise ValueError(
            f"K = {K} exceeds the precision horizon k_fp = {k_fp:.1f}, past which "
            "the step G lam^-k is below ulp(||x_true||) and hits are false"
        )
    run_spec = replace(spec, T=K)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n_runs)]
    trajs = run_batch(
        run_spec,
        stream,
        seeds,
        x_true=x_true,
        checkpoint_every=max(K, 1),
        validate_steps=False,
        hitting_level=params.b,
    )
    hits = sum(1 for t in trajs if t.hit_k is not None and t.hit_k <= K)
    return HittingReport(
        empirical_prob=hits / n_runs,
        n_runs=n_runs,
        theoretical_bound=hitting_bound(params, K).raw,
        K=K,
    )


def _realized_signs(
    dots: np.ndarray, adversary: CorruptionSpec, rng: np.random.Generator
) -> np.ndarray:
    """Residual signs in {-1, +1}, flipped by the reflection adversary w.p. p."""
    s = np.where(dots >= 0.0, 1.0, -1.0)
    if adversary.p > 0.0:  # reflecting s about the prediction 0 flips it
        s = apply_channel(adversary, s, rng.random(dots.shape[0]), pred=0.0)
    return s


def _check_drift_adversary(adversary: CorruptionSpec, p: float) -> None:
    if isinstance(adversary, ResidualSignAdversary):
        if adversary.p != p:
            raise ValueError("adversary corruption probability must equal p")
    elif isinstance(adversary, NoCorruption):
        if p != 0.0:
            raise ValueError("NoCorruption is only consistent with p = 0")
    else:
        raise ValueError("drift validation supports NoCorruption or ResidualSignAdversary")


def _state_vector(
    u_norm_sq: float, d: int, rng: np.random.Generator, direction
) -> np.ndarray:
    if direction is None:
        g = rng.standard_normal(d)
        while np.linalg.norm(g) == 0.0:
            g = rng.standard_normal(d)
        direction = g / np.linalg.norm(g)
    else:
        direction = np.asarray(direction, dtype=float)
        nrm = np.linalg.norm(direction)
        if nrm == 0.0:
            raise ValueError("direction must be nonzero")
        direction = direction / nrm
    return math.sqrt(u_norm_sq) * direction


def _one_step_report(u, lam, model, adversary, n_samples, rng, value, ceiling):
    """Report of the mean and standard error of value(Y') over n_samples one-step draws from u.

    Each draw is Y' = lam^2 ||u - s a||^2 with a fresh measurement a and
    realized sign s, sampled ``DRIFT_CHUNK`` at a time into one chunk
    buffer held for the call, where u - s a then replaces the draws.  The
    sums are shifted by the first value so the variance does not cancel
    catastrophically.  The report passes when the mean is at most
    ``ceiling`` + 4 stderr.
    """
    total = 0.0
    total_sq = 0.0
    shift = None
    remaining = n_samples
    buf = np.empty((min(DRIFT_CHUNK, n_samples), u.size))
    while remaining > 0:
        m = min(DRIFT_CHUNK, remaining)
        A, _ = sample_block(model, rng, m, out=buf[:m])
        s = _realized_signs(A @ u, adversary, rng)
        w = np.multiply(A, s[:, None], out=A)  # exact: s is +-1
        np.subtract(u[None, :], w, out=w)  # u - s a
        vals = value(lam * lam * np.einsum("ij,ij->i", w, w))
        if shift is None:
            shift = float(vals[0])
        vals -= shift
        total += vals.sum()
        total_sq += (vals * vals).sum()
        remaining -= m

    mean_c = total / n_samples
    var = max(total_sq / n_samples - mean_c * mean_c, 0.0) * n_samples / (n_samples - 1)
    est, se = shift + mean_c, math.sqrt(var / n_samples)
    return DriftTermReport(
        estimate=est,
        stderr=se,
        ceiling=ceiling,
        n_samples=n_samples,
        passed=est <= ceiling + 4.0 * se,
    )


def mc_drift_linear_term(
    u_norm_sq: float,
    p: float,
    lam: float,
    d: int,
    ctilde: float,
    model: MeasurementModel,
    adversary: CorruptionSpec,
    n_samples: int,
    rng: np.random.Generator,
    direction=None,
) -> DriftTermReport:
    """In-band mean drift E[Y_{k+1} - Y_k] at a fixed state vs. its ceiling.

    The state u has squared norm ``u_norm_sq``, which must lie in the
    band [a, b).  One step is simulated by u' = lam (u - s a) with the
    realized sign s; the ceiling is
    (3/2 + lam^2) - 2 lam^2 (1-2p) ctilde / (sqrt(d) sqrt(2 (lam^2-1))).
    Passing means estimate <= ceiling + 4 stderr.
    """
    _check_drift_adversary(adversary, p)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    ls1 = lam * lam - 1.0
    if not ls1 > 0:
        raise ValueError("lam must exceed 1")
    a_edge = 1.0 / (2.0 * ls1)
    if not a_edge <= u_norm_sq < 3.0 * a_edge:
        raise ValueError(
            f"state ||u||^2 = {u_norm_sq:.6g} outside the band [{a_edge:.6g}, {3 * a_edge:.6g})"
        )
    u = _state_vector(u_norm_sq, d, rng, direction)
    y0 = float(np.dot(u, u))
    ceiling = (1.5 + lam * lam) - 2.0 * lam * lam * (1.0 - 2.0 * p) * ctilde / (
        math.sqrt(d) * math.sqrt(2.0 * ls1)
    )
    return _one_step_report(u, lam, model, adversary, n_samples, rng, lambda y1: y1 - y0, ceiling)


def mc_drift_c2(
    u_norm_sq: float,
    p: float,
    lam: float,
    d: int,
    ctilde: float,
    model: MeasurementModel,
    adversary: CorruptionSpec,
    n_samples: int,
    rng: np.random.Generator,
    direction=None,
    regime: str = "linear",
) -> DriftTermReport:
    """Below-band moment E[e^{eta (Y_{k+1} - a)}] at a fixed state vs. the ceiling D.

    The state must satisfy ||u||^2 < a.  eta and D come from the drift
    constants at (lam, p, d, ctilde); passing means
    estimate <= D + 4 stderr.
    """
    _check_drift_adversary(adversary, p)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    params = drift_params(lam, p, d, ctilde, regime=regime)
    if not u_norm_sq < params.a:
        raise ValueError(
            f"state ||u||^2 = {u_norm_sq:.6g} must lie below a = {params.a:.6g}"
        )
    u = _state_vector(u_norm_sq, d, rng, direction)
    return _one_step_report(
        u, lam, model, adversary, n_samples, rng,
        lambda y1: np.exp(params.eta * (y1 - params.a)), params.D,
    )


def find_nonvacuous_hitting_config(
    d: int,
    p: float,
    ctilde: float,
    target_exponent: float = 62.0,
    regime: str = "linear",
    noise: str = "massart",
) -> DriftParams:
    """Pick lam so that eta (b - a) reaches the target, making the tail bound tiny.

    Since eta (b - a) = c* / sqrt(lam^2 - 1) grows as lam approaches 1,
    the search solves for the decay giving the requested exponent (the
    bound then carries a factor e^{-target}) and verifies the window.
    """
    if target_exponent <= 0:
        raise ValueError("target_exponent must be positive")
    f = _corruption_factor(p, noise)
    # Small-decay limit of c*: the sqrt(lam^2-1) part vanishes.
    if regime == "linear":
        c0 = math.sqrt(2.0) * f * ctilde / (8.0 * math.sqrt(d))
    else:
        c0 = f * ctilde / (8.0 * math.sqrt(2.0) * math.sqrt(d))
    ls1 = (c0 / target_exponent) ** 2
    params = drift_params(math.sqrt(1.0 + ls1), p, d, ctilde, regime=regime, noise=noise)
    achieved = params.eta * (params.b - params.a)
    if achieved < 0.9 * target_exponent:
        raise RuntimeError(
            f"search failed: achieved exponent {achieved:.3g} below target {target_exponent:.3g}"
        )
    return params
