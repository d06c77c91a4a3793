"""Streaming solvers for robust linear and ReLU regression.

The main method performs sign (l1) SGD with a geometric step size
G * lam^{-k}, lam > 1, from x0 = 0.  Square-root step decay and
GLM-Tron (l2 residual updates for ReLU links) are provided as
baselines.  ``recommend_lambda``/``recommend_G`` map problem size,
corruption level, and horizon to admissible parameters.

All randomness flows through per-seed substreams: SeedSequence(seed)
spawns [signal, measurement, corruption-indicator, corruption-noise]
children, so toggling the corruption variant never perturbs the
measurement draws of a run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .corruption import (
    AdditiveOblivious,
    CorruptionSpec,
    NoCorruption,
    ResidualSignAdversary,
    apply_channel,
)
from .datasets import DatasetMatrix, evaluate_clean_loss
from .measurement import (
    DatasetRows,
    MeasurementModel,
    UNIT_NORM_RTOL,
    sample_block,
)

METHODS = (
    "sgd_exp_linear",
    "sgd_exp_relu",
    "sgd_root_linear",
    "sgd_root_relu",
    "glmtron",
)
#: Methods that fit a ReLU response: the ``_relu`` sign methods and GLM-Tron.
RELU_METHODS = ("sgd_exp_relu", "sgd_root_relu", "glmtron")
GLMTRON_SCHEDULES = ("const", "root", "exp")

#: Theorem-side dimension thresholds: ctilde * factor / sqrt(d) must stay
#: below 3/7 (linear) or 1 (relu) for the convergence guarantee to apply.
DIM_CONDITION = {"linear": 3.0 / 7.0, "relu": 1.0}
#: Rate constants R below these thresholds make the failure probability vacuous.
R_THRESHOLD = {"linear": 225.0, "relu": 400.0}


@dataclass(frozen=True)
class SolverSpec:
    """Method plus the parameters it needs; unused fields stay None."""

    method: str
    d: int
    T: int
    lam: Optional[float] = None
    G: Optional[float] = None
    gamma: Optional[float] = None
    schedule: Optional[str] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.T < 0:
            raise ValueError("horizon must be nonnegative")
        if self.method.startswith("sgd_exp"):
            if self.lam is None or not self.lam > 1.0:
                raise ValueError("sgd_exp requires lam > 1")
            if self.G is None or not self.G > 0.0:
                raise ValueError("sgd_exp requires G > 0")
        elif self.method.startswith("sgd_root"):
            if self.gamma is None or not self.gamma > 0.0:
                raise ValueError("sgd_root requires gamma > 0")
        else:  # glmtron
            if self.schedule not in GLMTRON_SCHEDULES:
                raise ValueError(f"glmtron schedule must be one of {GLMTRON_SCHEDULES}")
            if self.m is None or self.m < 1:
                raise ValueError("glmtron requires m >= 1")
            if self.schedule == "exp" and (self.lam is None or not self.lam > 1.0):
                raise ValueError("glmtron exp schedule requires lam > 1")


@dataclass
class SolverState:
    """Value-type iterate: current x and iteration index k."""

    x: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class ParamRecommendation:
    """Step-decay recommendation with theorem-precondition diagnostics.

    ``lam_sq_minus_1`` carries lam^2 - 1 at full precision (forming it
    from ``lam`` would lose ~8 digits for the tiny decays used here).
    """

    lam: float
    lam_sq_minus_1: float
    g_min: float
    preconditions_ok: bool
    warnings: tuple = ()


@dataclass(frozen=True)
class StreamSpec:
    """Measurement model + corruption channel + response link.

    For DatasetRows models, ``responses`` holds the raw responses
    aligned with the matrix rows; the engine rescales each drawn pair by
    the row norm so the solver always sees unit-norm measurements of an
    equivalent system.
    """

    model: MeasurementModel
    corruption: CorruptionSpec = field(default_factory=NoCorruption)
    relu: bool = False
    responses: Optional[np.ndarray] = None

    def __post_init__(self):
        if isinstance(self.model, DatasetRows):
            if self.responses is None:
                raise ValueError("DatasetRows stream requires responses")
            if len(self.responses) != self.model.n_rows:
                raise ValueError("responses length must match dataset rows")


@dataclass
class Checkpoint:
    k: int
    relative_error: Optional[float]
    clean_loss: Optional[float]
    elapsed_seconds: float


@dataclass
class Trajectory:
    solver: str
    seed: int
    checkpoints: list
    x_final: np.ndarray
    fingerprint: str = ""
    step_law_violations: int = 0
    relu_gate_violations: int = 0
    iterates: Optional[np.ndarray] = None  # (n_checkpoints, d) when recorded
    iterate_ks: Optional[np.ndarray] = None
    hit_k: Optional[int] = None  # first k with Y_k >= hitting level, if tracked


def _corruption_factor(p: float, mode: str) -> float:
    """Corruption margin f: 1 - 2p (massart, p < 0.5) or 1 - p (oblivious, p < 1)."""
    if mode == "massart":
        if not 0.0 <= p < 0.5:
            raise ValueError("massart corruption requires 0 <= p < 0.5")
        return 1.0 - 2.0 * p
    if mode == "oblivious":
        if not 0.0 <= p < 1.0:
            raise ValueError("oblivious corruption requires 0 <= p < 1")
        return 1.0 - p
    raise ValueError(f"corruption mode must be 'massart' or 'oblivious', got {mode!r}")


def recommend_lambda(
    d: int,
    p: float,
    T: int,
    R: float,
    ctilde: float,
    mode: str = "massart",
    regime: str = "linear",
    x_norm_bound: Optional[float] = None,
) -> ParamRecommendation:
    """Decay parameter lam = sqrt(1 + ctilde^2 f^2 / (R d ln^2 T)).

    The corruption margin f is (1 - 2p) for semi-random (Massart)
    corruption and (1 - p) for symmetric oblivious corruption.  Natural
    logarithms throughout.  Diagnostic warnings flag settings outside
    the convergence guarantee; they do not block the recommendation.
    """
    factor = _corruption_factor(p, mode)
    if regime not in ("linear", "relu"):
        raise ValueError(f"regime must be 'linear' or 'relu', got {regime!r}")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if T <= 1:
        raise ValueError("horizon T must be at least 2")
    if not R > 0:
        raise ValueError("R must be positive")
    if not ctilde > 0:
        raise ValueError("ctilde must be positive")

    log_t = math.log(T)
    q = (ctilde * factor) ** 2 / (R * d * log_t**2)
    lam = math.sqrt(1.0 + q)

    warnings = []
    ok = True
    margin = ctilde * factor / math.sqrt(d)
    if margin >= DIM_CONDITION[regime]:
        ok = False
        warnings.append(
            f"dimension condition violated: ctilde*factor/sqrt(d) = {margin:.4g} "
            f">= {DIM_CONDITION[regime]:.4g}"
        )
    if margin / (3.0 * log_t) >= 1.0 / 7.0:
        ok = False
        warnings.append(
            f"log condition violated: ctilde*factor/(3 sqrt(d) ln T) = "
            f"{margin / (3.0 * log_t):.4g} >= 1/7"
        )
    if R <= R_THRESHOLD[regime]:
        warnings.append(
            f"R = {R:.4g} <= {R_THRESHOLD[regime]:.0f}: failure probability "
            f"bound is vacuous in the {regime} regime"
        )

    g_min = 0.0 if x_norm_bound is None else x_norm_bound * math.sqrt(2.0 * q)
    return ParamRecommendation(
        lam=lam,
        lam_sq_minus_1=q,
        g_min=g_min,
        preconditions_ok=ok,
        warnings=tuple(warnings),
    )


def recommend_G(lam: float, x_norm_bound: float) -> float:
    """Minimal admissible initial step scale, x_norm_bound * sqrt(2 (lam^2 - 1))."""
    if not lam > 1.0:
        raise ValueError("lam must exceed 1")
    if x_norm_bound < 0:
        raise ValueError("x_norm_bound must be nonnegative")
    return x_norm_bound * math.sqrt(2.0 * (lam * lam - 1.0))


def _require_unit(a: np.ndarray) -> None:
    norm = np.linalg.norm(a)
    if abs(norm - 1.0) > UNIT_NORM_RTOL:
        raise ValueError(f"measurement vector must be unit norm, got ||a|| = {norm!r}")


# The rule table.  Every function below works on an (S,) lane axis; the
# engine in ``run_batch`` and the single-step views share it, so the
# views compute exactly the engine's arithmetic.


def _dots(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<x_s, a_s> per lane for (S, d) iterates and measurements."""
    return np.einsum("sd,sd->s", x, a)


def _decay(schedule: str, lam: Optional[float], k: int) -> float:
    """Step decay at step k: 1 (const), (k+1)^{-1/2} (root) or lam^{-k} (exp).

    A scalar pow per step: numpy's vectorized lam ** -k differs from it
    in the last bit for a few percent of k.
    """
    if schedule == "exp":
        return lam ** (-float(k))
    if schedule == "root":
        return (k + 1) ** (-0.5)
    return 1.0


def _sign_coef(dot, y, step, gate: bool):
    """Sign rule step * sign(y - pred), sign(0) = 0.

    With ``gate`` (the ``_relu`` methods) pred = max(dot, 0) and lanes
    with dot < 0 get sign 0, so they do not move.
    """
    if gate:
        return step * (np.sign(y - np.maximum(dot, 0.0)) * (dot >= 0.0))
    return step * np.sign(y - dot)


def _tron_coef(dot, y, eta):
    """GLM-Tron residual rule eta (y - max(0, dot)); no activity gate."""
    return eta * (y - np.maximum(dot, 0.0))


def _view(state: SolverState, a: np.ndarray, coef_of_dot) -> SolverState:
    """One step of a rule on a single lane: x' = x + coef(<x, a>) a."""
    coef = coef_of_dot(_dots(state.x[None, :], a[None, :]))
    return SolverState(x=state.x + coef[0] * a, k=state.k + 1)


def step_sgd_exp_linear(
    state: SolverState, a: np.ndarray, y: float, G: float, lam: float
) -> SolverState:
    """x' = x + G lam^{-k} sign(y - <x, a>) a, with sign(0) = 0."""
    _require_unit(a)
    if not G > 0:
        raise ValueError("G must be positive")
    if not lam > 1:
        raise ValueError("lam must exceed 1")
    step = G * _decay("exp", lam, state.k)
    return _view(state, a, lambda dot: _sign_coef(dot, y, step, False))


def step_sgd_exp_relu(
    state: SolverState, a: np.ndarray, y: float, G: float, lam: float
) -> SolverState:
    """ReLU variant: update only when <x, a> >= 0, residual against max(0, <x, a>)."""
    _require_unit(a)
    if not G > 0:
        raise ValueError("G must be positive")
    if not lam > 1:
        raise ValueError("lam must exceed 1")
    step = G * _decay("exp", lam, state.k)
    return _view(state, a, lambda dot: _sign_coef(dot, y, step, True))


def step_sgd_root(
    state: SolverState, a: np.ndarray, y: float, gamma: float, relu: bool = False
) -> SolverState:
    """Square-root decay baseline: step size gamma (k+1)^{-1/2}."""
    _require_unit(a)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    step = gamma * _decay("root", None, state.k)
    return _view(state, a, lambda dot: _sign_coef(dot, y, step, relu))


def step_glmtron(
    state: SolverState,
    a: np.ndarray,
    y: float,
    schedule: str,
    m: int,
    lam: Optional[float] = None,
) -> SolverState:
    """GLM-Tron with ReLU link: x' = x + eta_k (y - max(0, <x, a>)) a.

    eta_k is 1/m (const), (k+1)^{-1/2}/m (root), or lam^{-k}/m (exp).
    """
    if schedule not in GLMTRON_SCHEDULES:
        raise ValueError(f"glmtron schedule must be one of {GLMTRON_SCHEDULES}")
    if m < 1:
        raise ValueError("m must be at least 1")
    if schedule == "exp" and (lam is None or not lam > 1.0):
        raise ValueError("glmtron exp schedule requires lam > 1")
    eta = _decay(schedule, lam, state.k) / m
    return _view(state, a, lambda dot: _tron_coef(dot, y, eta))


def _spawn_streams(seed: int):
    """Per-seed substreams: [signal, measurement, xi, noise]."""
    children = np.random.SeedSequence(seed).spawn(4)
    return [np.random.default_rng(c) for c in children]


def signal_rng(seed: int) -> np.random.Generator:
    """Generator for drawing the planted signal of a given seed."""
    return _spawn_streams(seed)[0]


def run(
    spec: SolverSpec,
    stream: StreamSpec,
    x_true: Optional[np.ndarray] = None,
    checkpoint_every: int = 1000,
    seed: int = 0,
    **kwargs,
) -> Trajectory:
    """Run one solver over one stream; deterministic given the seed."""
    return run_batch(spec, stream, [seed], x_true=x_true, checkpoint_every=checkpoint_every, **kwargs)[0]


def run_batch(
    spec: SolverSpec,
    stream: StreamSpec,
    seeds,
    x_true: Optional[np.ndarray] = None,
    checkpoint_every: int = 1000,
    validate_steps: bool = True,
    record_iterates: bool = False,
    x0: Optional[np.ndarray] = None,
    hitting_level: Optional[float] = None,
    per_seed_G: Optional[np.ndarray] = None,
    per_seed_gamma: Optional[np.ndarray] = None,
) -> list:
    """Run the same solver/stream under several seeds in lockstep.

    Each seed owns its substreams, so the per-seed trajectories are
    bitwise identical to solo ``run`` calls.  ``x_true`` may be (d,)
    shared or (S, d) per seed; it is required for synthetic streams
    (it generates the clean responses) and ignored for dataset streams
    except as the relative-error reference.

    ``per_seed_G``/``per_seed_gamma`` override the SolverSpec scalars
    with one step scale per seed (signal-norm-matched scales differ by
    seed).

    With ``hitting_level`` set (sgd_exp methods only), tracks
    Y_k = lam^{2k} ||x_true - x_k||^2 / G^2 each step and records the
    first k where Y_k reaches the level.

    Checkpoints of DatasetRows streams carry the clean loss of the
    iterate against the stream's rows and responses.  With
    ``validate_steps`` the sign methods count, once per block, steps
    whose length differs from the scheduled step (sgd_exp) and steps
    taken at <x, a> < 0 (the ReLU methods).
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    seeds = list(seeds)
    S, d, T = len(seeds), spec.d, spec.T
    method = spec.method
    is_dataset = isinstance(stream.model, DatasetRows)
    if stream.model.d != d:
        raise ValueError(
            f"dimension mismatch: solver d={d}, measurement model d={stream.model.d}"
        )
    if x_true is None and not is_dataset:
        raise ValueError("x_true is required for synthetic streams")
    if hitting_level is not None and not method.startswith("sgd_exp"):
        raise ValueError("hitting-time tracking requires an sgd_exp method")

    Xt = None
    if x_true is not None:
        Xt = np.atleast_2d(np.asarray(x_true, dtype=float))
        if Xt.shape == (1, d) and S > 1:
            Xt = np.repeat(Xt, S, axis=0)
        if Xt.shape != (S, d):
            raise ValueError(f"x_true must have shape ({S}, {d}) or ({d},)")
        xt_norms = np.linalg.norm(Xt, axis=1)

    if x0 is None:
        x = np.zeros((S, d))
    else:
        x0 = np.asarray(x0, dtype=float)
        x = np.repeat(np.atleast_2d(x0), S, axis=0) if x0.ndim == 1 else x0.copy()
        if x.shape != (S, d):
            raise ValueError(f"x0 must have shape ({d},) or ({S}, {d})")

    gens = [_spawn_streams(s) for s in seeds]

    corr = stream.corruption
    is_adversary = isinstance(corr, ResidualSignAdversary)
    is_oblivious = isinstance(corr, AdditiveOblivious)

    relu_response = stream.relu
    relu_solver = method in RELU_METHODS
    is_exp = method.startswith("sgd_exp")
    is_tron = method == "glmtron"

    if is_dataset:
        resp = np.asarray(stream.responses, dtype=float)
        row_norms = stream.model.row_norms
        data = DatasetMatrix(features=stream.model.rows, responses=resp)

    # Step sizes: per-lane scale times decay for the sign family, decay / m for GLM-Tron.
    if is_tron:
        schedule = spec.schedule
    else:
        schedule, name = ("exp", "G") if is_exp else ("root", "gamma")
        per_seed = per_seed_G if is_exp else per_seed_gamma
        scale = np.full(S, getattr(spec, name)) if per_seed is None else np.asarray(per_seed, dtype=float)
        if scale.shape != (S,) or not np.all(scale > 0):
            raise ValueError(f"per_seed_{name} must be positive with one entry per seed")

    track_hit = hitting_level is not None
    if track_hit:
        lam2 = spec.lam * spec.lam
        g_sq = scale * scale
        lam2k = 1.0
        hit_k = np.full(S, -1, dtype=int)
        y0 = (xt_norms**2) / g_sq
        hit_k[y0 >= hitting_level] = 0

    # The step-law and gate audits cover the sign family, once per block.
    audit = validate_steps and not is_tron
    step_viol = np.zeros(S, dtype=int)
    gate_viol = np.zeros(S, dtype=int)

    checkpoints = [[] for _ in range(S)]
    snaps, snap_ks = ([], []) if record_iterates else (None, None)
    t0 = time.perf_counter()

    def _record(k):
        elapsed = time.perf_counter() - t0
        for s_i in range(S):
            rel = (
                float(np.linalg.norm(Xt[s_i] - x[s_i]) / xt_norms[s_i])
                if Xt is not None and xt_norms[s_i] > 0
                else None
            )
            loss = evaluate_clean_loss(x[s_i], data, relu=relu_response) if is_dataset else None
            checkpoints[s_i].append(
                Checkpoint(k=k, relative_error=rel, clean_loss=loss, elapsed_seconds=elapsed)
            )
        if record_iterates:
            snaps.append(x.copy())
            snap_ks.append(k)

    _record(0)

    block = max(1, min(2048, T, int(4_000_000 / max(S * d, 1)) or 1))
    k = 0
    while k < T:
        n = min(block, T - k)
        A = np.empty((S, n, d))
        idx = np.empty((S, n), dtype=int) if is_dataset else None
        XI = np.empty((S, n))
        NU = np.empty((S, n)) if is_oblivious else None
        for s_i, (_, meas_rng, xi_rng, noise_rng) in enumerate(gens):
            A[s_i], ib = sample_block(stream.model, meas_rng, n)
            if is_dataset:
                idx[s_i] = ib
            XI[s_i] = xi_rng.random(n)
            if is_oblivious:
                NU[s_i] = corr.law.draw(noise_rng, n)

        if is_dataset:
            clean = resp[idx] / row_norms[idx]  # (S, n) in unit-row space
            if is_oblivious:
                NU = NU / row_norms[idx]
        else:
            clean = np.einsum("snd,sd->sn", A, Xt)
            if relu_response:
                np.maximum(clean, 0.0, out=clean)

        # Only the adversary reads the iterate; every other channel runs once per block.
        Y = None if is_adversary else apply_channel(corr, clean, XI, NU)

        # Scalar pow per step (see _decay), so the steps match the single-step views.
        decay = np.array([_decay(schedule, spec.lam, k + j) for j in range(n)])
        steps = decay / spec.m if is_tron else scale[:, None] * decay
        if audit:
            coefs = np.empty((S, n))
            dots = np.empty((S, n))

        for j in range(n):
            a = A[:, j, :]
            dot = _dots(x, a)
            if Y is None:
                pred = np.maximum(dot, 0.0) if relu_response else dot
                y = apply_channel(corr, clean[:, j], XI[:, j], pred=pred)
            else:
                y = Y[:, j]
            if is_tron:
                coef = _tron_coef(dot, y, steps[j])
            else:
                coef = _sign_coef(dot, y, steps[:, j], relu_solver)
            if audit:
                coefs[:, j] = coef
                dots[:, j] = dot
            x += coef[:, None] * a
            k += 1

            if track_hit:
                lam2k *= lam2
                yk = lam2k * np.einsum("sd,sd->s", Xt - x, Xt - x) / g_sq
                newly = (hit_k < 0) & (yk >= hitting_level)
                hit_k[newly] = k

            if k % checkpoint_every == 0 or k == T:
                _record(k)

        if audit:
            # Lane by lane, so that the audit's temporaries stay small.
            for s_i in range(S):
                coef, step = coefs[s_i], steps[s_i]
                moved = coef != 0.0
                if is_exp:
                    length = np.abs(coef) * np.sqrt(np.einsum("nd,nd->n", A[s_i], A[s_i]))
                    step_viol[s_i] += np.sum(moved & (np.abs(length - step) > 1e-12 * step))
                if relu_solver:
                    gate_viol[s_i] += np.sum(moved & (dots[s_i] < 0.0))

    out = []
    for s_i in range(S):
        out.append(
            Trajectory(
                solver=method,
                seed=seeds[s_i],
                checkpoints=checkpoints[s_i],
                x_final=x[s_i].copy(),
                step_law_violations=int(step_viol[s_i]),
                relu_gate_violations=int(gate_viol[s_i]),
                iterates=np.array([sn[s_i] for sn in snaps]) if record_iterates else None,
                iterate_ks=np.array(snap_ks) if record_iterates else None,
                hit_k=(int(hit_k[s_i]) if track_hit and hit_k[s_i] >= 0 else None),
            )
        )
    return out
