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

import functools
import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from types import SimpleNamespace
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


class Lanes(tuple):
    """Lane groups of one ``run_batch`` call, each run over every seed of the call.

    A group is (SolverSpec, corruption probability p, per-seed step scales or
    None for the spec's G or gamma); the specs share d and T.
    """

    @property
    def T(self) -> int:
        return self[0][0].T


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


def _precision_horizon(G: float, x_norm: float, lam: float) -> float:
    """k_fp = ln(G / (eps ||x*||)) / ln lam, eps the machine epsilon; inf for x* = 0.

    Past k_fp the step G lam^{-k} falls below ulp(||x*||): the iterate
    freezes while lam^{2k} keeps growing, so Y_k records false hits.
    """
    if x_norm == 0.0:
        return math.inf
    return math.log(G / (np.finfo(float).eps * x_norm)) / math.log(lam)


# The rule table.  Every function below works on (G, S) lane axes.


def _dots(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<x_gs, a_s> per lane for (G, S, d) iterates and (S, d) measurements."""
    return np.einsum("gsd,sd->gs", x, a)


def _decays(schedule: str, lam: Optional[float], k: int, n: int) -> np.ndarray:
    """Step decays at steps k..k+n-1: 1 (const), (k+1)^{-1/2} (root) or lam^{-k} (exp).

    A scalar pow per step, through ``math.pow`` without a Python call per
    step: numpy's vectorized lam ** -k differs from it in the last bit for
    a few percent of k.
    """
    if schedule == "exp":
        return np.fromiter(map(math.pow, repeat(lam, n), map(float, range(-k, -k - n, -1))), float, n)
    if schedule == "root":
        return np.fromiter(map(math.pow, map(float, range(k + 1, k + n + 1)), repeat(-0.5, n)), float, n)
    return np.ones(n)


def _coef(dot, y, step, tron, gate: bool):
    """Step coefficient: GLM-Tron where ``tron``, the sign rule elsewhere.

    GLM-Tron is step * (y - max(0, dot)), with no activity gate.  The sign
    rule is step * sign(y - pred), sign(0) = 0; with ``gate`` (the ``_relu``
    methods) pred = max(dot, 0), the residual GLM-Tron reads too, and lanes
    with dot < 0 get sign 0, so they do not move.
    """
    res = y - np.maximum(dot, 0.0)
    if gate:
        sgn = np.sign(res)
        sgn *= dot >= 0.0
    else:
        sgn = np.sign(y - dot)
    return step * np.where(tron, res, sgn)


def _schedule(spec: SolverSpec) -> str:
    """Decay schedule of a spec's steps: exp (sgd_exp), root (sgd_root) or GLM-Tron's own."""
    if spec.method == "glmtron":
        return spec.schedule
    return "exp" if spec.method.startswith("sgd_exp") else "root"


#: Rule kinds and audit bits of the step function, as the enums of ``_stepkernel.c``.
SIGN, GATED_SIGN, GLMTRON = 0, 1, 2
AUDIT_STEP_LAW, AUDIT_GATE = 1, 2


class _StepState(SimpleNamespace):
    """What the step function reads and advances over one run_batch call.

    ``x`` holds the (G, S, d) lanes, advanced in place.  Per group:
    ``kind`` (int32 SIGN / GATED_SIGN / GLMTRON), ``audit`` (int32
    AUDIT_STEP_LAW | AUDIT_GATE bits) and, for the residual-sign adversary,
    the (G, 1) probabilities ``P``; per lane, the (G, S) int64 counts
    ``step_viol`` and ``gate_viol``.  ``relu`` is the response link and
    ``corr`` the corruption channel.  The block fields hold the block's
    (S, n, d) measurements ``A``, its (G, S, n) ``steps`` and responses
    ``Y``, or, for the adversary (``Y`` None), the (S, n) ``clean``
    responses and indicator draws ``XI``.  ``hit_k`` (S,) is None unless
    hitting times are tracked: then ``Xt``, ``g_sq``, ``level``, ``lam2``
    and ``lam2k``, a 1-array holding lam^{2k} at the current step.
    """


def _step_numpy(st: _StepState, j0: int, j1: int, k: int) -> None:
    """Steps j0 <= j < j1 of the block that starts at step k, in numpy.

    The reference body: ``_stepkernel.c`` computes the same bits.
    """
    x, n = st.x, j1 - j0
    tron = (st.kind == GLMTRON)[:, None]
    gate = bool(np.any(st.kind == GATED_SIGN))
    audited = bool(st.audit.any())
    if audited:
        coefs = np.empty(x.shape[:-1] + (n,))
        dots = np.empty(x.shape[:-1] + (n,))
    track_hit = st.hit_k is not None
    if track_hit:
        lam2k = float(st.lam2k[0])

    for j in range(j0, j1):
        a = st.A[:, j, :]
        dot = _dots(x, a)
        if st.Y is None:
            pred = np.maximum(dot, 0.0) if st.relu else dot
            y = apply_channel(st.corr, st.clean[:, j], st.XI[:, j], pred=pred, p=st.P)
        else:
            y = st.Y[..., j]
        step = st.steps[..., j]
        coef = _coef(dot, y, step, tron, gate)
        if audited:
            coefs[..., j - j0] = coef
            dots[..., j - j0] = dot
        x += coef[..., None] * a

        if track_hit:
            lam2k *= st.lam2
            diff = st.Xt - x[0]
            yk = lam2k * _dots(diff[None], diff)[0] / st.g_sq
            newly = (st.hit_k < 0) & (yk >= st.level)
            st.hit_k[newly] = k + j + 1

    if track_hit:
        st.lam2k[0] = lam2k
    if audited:
        moved = coefs != 0.0
        law = (st.audit & AUDIT_STEP_LAW).astype(bool)[:, None, None]
        gated = (st.audit & AUDIT_GATE).astype(bool)[:, None, None]
        if law.any():
            A, steps = st.A[:, j0:j1], st.steps[..., j0:j1]
            length = np.abs(coefs) * np.sqrt(np.einsum("snd,snd->sn", A, A))
            st.step_viol += np.sum(law & moved & (np.abs(length - steps) > 1e-12 * steps), axis=2)
        st.gate_viol += np.sum(gated & moved & (dots < 0.0), axis=2)


def _address(arr, dtype):
    """Address of a C-contiguous array of ``dtype`` for the kernel; None for None."""
    if arr is None:
        return None
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(f"step kernel input must be a C-contiguous {np.dtype(dtype)} array")
    return arr.ctypes.data


def _bind_c(lib, st: _StepState):
    """The kernel call for the stretches of the current block: (j0, j1, k) -> None.

    Advances steps j0 <= j < j1 of the block that starts at step k.  The
    block's arrays are checked and their addresses taken once, here.
    """
    G, S = st.step_viol.shape
    n, d = st.A.shape[1:]
    hit = st.hit_k is not None
    diff = np.empty(d) if hit else None  # scratch for the hitting-time distance
    hit_f64 = (st.Xt, st.g_sq, st.lam2k, diff) if hit else (None,) * 4
    f64 = (st.x, st.A, st.Y, st.clean, st.XI, st.P, st.steps) + hit_f64
    x, A, Y, clean, XI, P, steps, Xt, g_sq, lam2k, diff_ = (_address(a, np.float64) for a in f64)
    kind, audit = (_address(a, np.int32) for a in (st.kind, st.audit))
    step_viol, gate_viol, hit_k = (
        _address(a, np.int64) for a in (st.step_viol, st.gate_viol, st.hit_k)
    )
    level, lam2 = (st.level, st.lam2) if hit else (0.0, 0.0)

    def advance(j0: int, j1: int, k: int, _keep=f64) -> None:
        # _keep holds the arrays whose addresses the call passes.
        lib.sk_advance(
            G, S, n, d, j0, j1, x, A, Y, clean, XI, P, int(st.relu),
            steps, kind, audit, step_viol, gate_viol,
            Xt, g_sq, level, lam2, lam2k, hit_k, k, diff_,
        )

    return advance


def _spawn_streams(seed: int):
    """Per-seed substreams: [signal, measurement, xi, noise]."""
    children = np.random.SeedSequence(seed).spawn(4)
    return [np.random.default_rng(c) for c in children]


def signal_rng(seed: int) -> np.random.Generator:
    """Generator for drawing the planted signal of a given seed."""
    return _spawn_streams(seed)[0]


def run_batch(
    spec: Union[SolverSpec, Lanes],
    stream: StreamSpec,
    seeds,
    x_true: Optional[np.ndarray] = None,
    checkpoint_every: int = 1000,
    validate_steps: bool = True,
    record_iterates: bool = False,
    x0: Optional[np.ndarray] = None,
    hitting_level: Optional[float] = None,
) -> list:
    """Run every lane (lane group, seed) over one stream in lockstep.

    ``spec`` is ``Lanes``, or one SolverSpec run as one group at the
    stream's corruption probability.  Each seed owns its substreams;
    its draws and clean responses are shared by every group, so each
    lane is bitwise identical to a one-group, one-seed call of its solver
    at its p.
    Returns one Trajectory per lane, group-major.  ``x_true`` may be
    (d,) shared or (S, d) per seed; it is required for synthetic streams
    (it generates the clean responses) and ignored for dataset streams
    except as the relative-error reference.

    With ``hitting_level`` set (one sgd_exp group only), tracks
    Y_k = lam^{2k} ||x_true - x_k||^2 / G^2 each step and records the
    first k where Y_k reaches the level; T past any seed's precision
    horizon (``_precision_horizon``) is a ValueError.

    Checkpoints of DatasetRows streams carry the clean loss of the
    iterate against the stream's rows and responses.  With
    ``validate_steps`` the sign methods count steps whose length differs
    from the scheduled step (sgd_exp) and steps taken at <x, a> < 0 (the
    ReLU methods).  The steps between two checkpoints are one call of the
    step function: the compiled kernel where it loads, else its numpy body.

    Synthetic streams are drawn in blocks by a pool of two threads that
    lives for the call: each draws half of the seeds' measurements,
    corruption draws and clean responses for block b+1 while the calling
    thread steps block b.  A seed's generators are used by one draw at a
    time, in block order, so every lane gets the bits of a sequential
    draw.  Dataset streams, whose draws are row gathers, are drawn by the
    calling thread.  A T = 0 call starts no thread; an exception raised in
    a draw is raised here once the pool is shut down.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    if isinstance(spec, SolverSpec):
        spec = Lanes([(spec, stream.corruption.p, None)])
    (specs, ps, given_scales), seeds = zip(*spec), list(seeds)
    G, S, d, T = len(specs), len(seeds), specs[0].d, spec.T
    L = G * S
    is_dataset = isinstance(stream.model, DatasetRows)
    if any((s.d, s.T) != (d, T) for s in specs):
        raise ValueError("lane groups must share d and T")
    if stream.model.d != d:
        raise ValueError(
            f"dimension mismatch: solver d={d}, measurement model d={stream.model.d}"
        )
    if x_true is None and not is_dataset:
        raise ValueError("x_true is required for synthetic streams")
    is_tron = np.array([s.method == "glmtron" for s in specs])
    is_exp = [s.method.startswith("sgd_exp") for s in specs]
    # The ReLU gate of the sign rule follows the stream's response link.
    relu_response = stream.relu
    if any((s.method in RELU_METHODS) != relu_response for s in specs if s.method != "glmtron"):
        raise ValueError("sign methods must match the stream's response link (ReLU or linear)")
    if hitting_level is not None and not (G == 1 and is_exp[0] and x_true is not None):
        raise ValueError("hitting-time tracking requires one sgd_exp lane group and x_true")

    Xt = None
    if x_true is not None:
        Xt = np.atleast_2d(np.asarray(x_true, dtype=float))
        if Xt.shape == (1, d) and S > 1:
            Xt = np.repeat(Xt, S, axis=0)
        if Xt.shape != (S, d):
            raise ValueError(f"x_true must have shape ({S}, {d}) or ({d},)")
        xt_norms = np.linalg.norm(Xt, axis=1)

    x = np.zeros((G, S, d))
    if x0 is not None:
        x[...] = x0  # (d,) or (S, d)
    lanes = x.reshape(L, d)  # a view: lane g * S + s

    gens = [_spawn_streams(s) for s in seeds]

    corr = stream.corruption
    is_adversary = isinstance(corr, ResidualSignAdversary)
    is_oblivious = isinstance(corr, AdditiveOblivious)
    P = np.array(ps, dtype=float)[:, None]  # (G, 1)

    if is_dataset:
        resp = np.asarray(stream.responses, dtype=float)
        row_norms = stream.model.row_norms
        data = DatasetMatrix(features=stream.model.rows, responses=resp)

    # Step sizes: per-seed scale times decay for the sign family, decay / m for GLM-Tron.
    schedules, scales = [(_schedule(s), s.lam) for s in specs], []
    for s, tron, exp, scale in zip(specs, is_tron, is_exp, given_scales):
        if not tron:
            scale = np.full(S, s.G if exp else s.gamma) if scale is None else np.asarray(scale, dtype=float)
            if scale.shape != (S,) or not np.all(scale > 0):
                raise ValueError("step scales must be positive with one entry per seed")
        scales.append(scale)
    if hitting_level is not None:
        k_fp = min(map(_precision_horizon, scales[0], xt_norms, repeat(specs[0].lam)))
        if T > k_fp:
            raise ValueError(
                f"T = {T} exceeds the precision horizon k_fp = {k_fp:.1f}, past which "
                "the step G lam^-k is below ulp(||x_true||) and hits are false"
            )

    # The step function's inputs; the block fields are set once per block.
    sign_kind, gate_bit = (GATED_SIGN, AUDIT_GATE) if relu_response else (SIGN, 0)
    audited = ~is_tron & validate_steps
    st = _StepState(
        x=x,
        kind=np.where(is_tron, GLMTRON, sign_kind).astype(np.int32),
        audit=np.where(audited, np.where(is_exp, AUDIT_STEP_LAW, 0) | gate_bit, 0).astype(np.int32),
        step_viol=np.zeros((G, S), dtype=np.int64),
        gate_viol=np.zeros((G, S), dtype=np.int64),
        relu=relu_response,
        corr=corr,
        P=P if is_adversary else None,
        Y=None,
        hit_k=None,
    )
    track_hit = hitting_level is not None
    if track_hit:
        st.Xt, st.g_sq, st.level = np.ascontiguousarray(Xt), scales[0] * scales[0], hitting_level
        st.lam2, st.lam2k = specs[0].lam * specs[0].lam, np.ones(1)
        st.hit_k = np.full(S, -1, dtype=np.int64)
        st.hit_k[(xt_norms**2) / st.g_sq >= hitting_level] = 0
    # On the first engine call, not at import.
    from concurrent.futures import ThreadPoolExecutor

    from . import _kernel

    lib = _kernel.load()

    checkpoints = [[] for _ in range(L)]
    snaps = [] if record_iterates else None
    t0 = time.perf_counter()

    def _record(k):
        elapsed = time.perf_counter() - t0
        rel = loss = repeat(None)
        if Xt is not None:
            # ||x* - x|| per lane as np.linalg.norm takes it: the sqrt of one dot.
            diff = Xt - x
            dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
            norms = np.tile(xt_norms, G)  # lane g * S + s has seed s's norm
            rel = [float(r / nrm) if nrm > 0 else None for r, nrm in zip(dist.ravel(), norms)]
        if is_dataset:
            loss = evaluate_clean_loss(x, data, relu=relu_response).ravel().tolist()
        for cps, r, c in zip(checkpoints, rel, loss):
            cps.append(
                Checkpoint(k=k, relative_error=r, clean_loss=c, elapsed_seconds=elapsed)
            )
        if record_iterates:
            snaps.append(lanes.copy())

    _record(0)

    # At most 2e6 / (lanes * d) steps a block: the two A buffers together stay within 4e6 doubles.
    block = max(1, min(1024, T, int(2_000_000 / max(L * d, 1)) or 1))
    A_bufs = [np.empty(S * block * d) for _ in range(2)]
    # One draw task per half of the seeds; with one seed, one task.
    halves = [h for h in (range(0, (S + 1) // 2), range((S + 1) // 2, S)) if h]

    def draw(blk, n, part):
        """Draw one block of the seeds in ``part`` into their rows of ``blk``."""
        for s_i in part:
            _, meas_rng, xi_rng, noise_rng = gens[s_i]
            _, ib = sample_block(stream.model, meas_rng, n, out=blk.A[s_i])
            if is_dataset:
                blk.idx[s_i] = ib
            xi_rng.random(out=blk.XI[s_i])
            if is_oblivious:
                blk.NU[s_i] = corr.law.draw(noise_rng, n)
        rows = slice(part.start, part.stop)
        if is_dataset:
            # Responses and noise in unit-row space.
            idx = blk.idx[rows]
            blk.clean[rows] = resp[idx] / row_norms[idx]
            if is_oblivious:
                blk.NU[rows] /= row_norms[idx]
        else:
            blk.clean[rows] = np.einsum("snd,sd->sn", blk.A[rows], Xt[rows])
            if relu_response:
                np.maximum(blk.clean[rows], 0.0, out=blk.clean[rows])

    def submit(pool, k):
        """Start drawing the block of steps from k, into the A buffer the steps do not read."""
        n = min(block, T - k)
        blk = SimpleNamespace(
            A=A_bufs[k // block % 2][: S * n * d].reshape(S, n, d),
            XI=np.empty((S, n)),
            NU=np.empty((S, n)) if is_oblivious else None,
            idx=np.empty((S, n), dtype=int) if is_dataset else None,
            clean=np.empty((S, n)),
        )
        if is_dataset:
            # A gather of rows already in memory: cheaper here than a thread
            # handoff and the GIL it would take from the clean-loss checkpoints.
            draw(blk, n, range(S))
            return blk, []
        return blk, [pool.submit(draw, blk, n, part) for part in halves]

    # The pool draws the next block of a synthetic stream while this thread
    # steps the current one (the kernel releases the GIL).  A block is stepped only once both halves
    # are drawn, and the next is submitted only then, so each seed's
    # generators serve one task at a time, in block order.
    with ThreadPoolExecutor(2) as pool:
        pending = submit(pool, 0) if T else None
        k = 0
        while k < T:
            n = min(block, T - k)
            blk, futures = pending
            for f in futures:
                f.result()
            if k + n < T:
                pending = submit(pool, k + n)

            decay = {key: _decays(*key, k, n) for key in set(schedules)}
            st.steps = np.empty((G, S, n))
            for g, (s, tron, key, scale) in enumerate(zip(specs, is_tron, schedules, scales)):
                st.steps[g] = decay[key] / s.m if tron else scale[:, None] * decay[key]
            st.A, st.clean, st.XI = blk.A, blk.clean, blk.XI
            # Only the adversary reads the iterate; every other channel runs once per block.
            if not is_adversary:
                Y = apply_channel(corr, blk.clean, blk.XI, blk.NU, p=P[..., None])
                # Without corruption Y is the (S, n) clean responses, the same for every group.
                st.Y = np.ascontiguousarray(np.broadcast_to(Y, (G, S, n)))

            # One call per stretch between checkpoints.
            advance = functools.partial(_step_numpy, st) if lib is None else _bind_c(lib, st)
            j = 0
            while j < n:
                j1 = min(n, j + checkpoint_every - (k + j) % checkpoint_every)
                advance(j, j1, k)
                j = j1
                if (k + j) % checkpoint_every == 0 or k + j == T:
                    _record(k + j)
            k += n

    out = []
    for i in range(L):
        g, s_i = divmod(i, S)
        out.append(
            Trajectory(
                solver=specs[g].method,
                seed=seeds[s_i],
                checkpoints=checkpoints[i],
                x_final=lanes[i].copy(),
                step_law_violations=int(st.step_viol[g, s_i]),
                relu_gate_violations=int(st.gate_viol[g, s_i]),
                iterates=np.array([sn[i] for sn in snaps]) if record_iterates else None,
                hit_k=(int(st.hit_k[s_i]) if track_hit and st.hit_k[s_i] >= 0 else None),
            )
        )
    return out
