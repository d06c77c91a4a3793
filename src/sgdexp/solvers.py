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
import sys
import threading
import time
from collections import namedtuple
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
    SignFlip,
    apply_channel,
)
from .datasets import evaluate_clean_loss
from .measurement import DatasetRows, MeasurementModel, sample_seeds

#: Each method's step-scale field and response link.  The field names the
#: decay: G the G lam^-k of SGD-exp, gamma the gamma (k+1)^-1/2 of the
#: root baseline; GLM-Tron (None) steps decay / m on a schedule of its own.
METHODS = {
    "sgd_exp_linear": ("G", "linear"),
    "sgd_exp_relu": ("G", "relu"),
    "sgd_root_linear": ("gamma", "linear"),
    "sgd_root_relu": ("gamma", "relu"),
    "glmtron": (None, "relu"),
}
RELU_METHODS = tuple(m for m, (_, link) in METHODS.items() if link == "relu")
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
        scale = METHODS[self.method][0]
        if scale is None:
            if self.schedule not in GLMTRON_SCHEDULES:
                raise ValueError(f"glmtron schedule must be one of {GLMTRON_SCHEDULES}")
            if self.m is None or self.m < 1:
                raise ValueError("glmtron requires m >= 1")
        if _schedule(self.method, self.schedule) == "exp" and (self.lam is None or not self.lam > 1.0):
            raise ValueError(f"the exp schedule of {self.method} requires lam > 1")
        if scale is not None and not (getattr(self, scale) or 0.0) > 0.0:
            raise ValueError(f"{self.method} requires {scale} > 0")


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

    A DatasetRows model holds its rows' responses; the engine rescales each
    drawn pair by the row norm so the solver always sees unit-norm
    measurements of an equivalent system.
    """

    model: MeasurementModel
    corruption: CorruptionSpec = field(default_factory=NoCorruption)
    relu: bool = False


class Lanes(tuple):
    """Lane groups of one ``run_batch`` call, each run over every seed of the call.

    A group is (SolverSpec, corruption probability p, per-seed step scales or
    None for the spec's G or gamma); the specs share d and T.
    """

    @property
    def T(self) -> int:
        return self[0][0].T


#: The metric columns of a CheckpointTable; a CheckpointRow's metric is None where not measured.
METRIC_COLUMNS = ("relative_error", "clean_loss")
CheckpointRow = namedtuple("CheckpointRow", "k relative_error clean_loss elapsed_seconds")


@dataclass(frozen=True, eq=False)
class CheckpointTable:
    """One lane's checkpoints as columns: each field is a (checkpoints,) array or view.

    ``has_relative_error`` and ``has_clean_loss`` mark the metric cells measured,
    and a cell not measured is NaN.  ``len`` counts checkpoints, and row ``[j]``
    is a CheckpointRow.
    """

    k: np.ndarray
    elapsed_seconds: np.ndarray
    relative_error: np.ndarray
    clean_loss: np.ndarray
    has_relative_error: np.ndarray
    has_clean_loss: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "CheckpointTable":
        """One lane's table of (k, relative_error, clean_loss, elapsed_seconds) rows, None where not measured."""
        k, rel, loss, elapsed = zip(*rows)  # np.array(..., dtype=float) reads None as NaN
        has = (np.array([v is not None for v in c]) for c in (rel, loss))
        return cls(np.array(k, dtype=np.int64), *(np.array(c, dtype=float) for c in (elapsed, rel, loss)), *has)

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, j: int) -> CheckpointRow:
        rel, loss = (float(getattr(self, m)[j]) if getattr(self, f"has_{m}")[j] else None for m in METRIC_COLUMNS)
        return CheckpointRow(int(self.k[j]), rel, loss, float(self.elapsed_seconds[j]))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


@dataclass
class Trajectory:
    solver: str
    seed: int
    checkpoints: CheckpointTable
    x_final: np.ndarray
    fingerprint: str = ""
    least_squares_clean_loss: Optional[float] = None  # of a linear dataset run
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


def _check_horizon(name: str, K: int, scales, x_norms, lam: float) -> None:
    """ValueError when Y_k = lam^{2k} ||x* - x_k||^2 / G^2 can record false hits within K steps.

    Past the precision horizon k_fp = ln(G / (eps ||x*||)) / ln lam (eps the
    machine epsilon; none for x* = 0), the smallest over the seeds' step
    scales G and signal norms, the step G lam^{-k} falls below ulp(||x*||):
    the iterate freezes while lam^{2k} keeps growing.  Past the overflow
    horizon k_of = ln(DBL_MAX) / (2 ln lam), lam^{2k} is inf for every x*.
    The message names ``name`` = K and the smaller horizon.
    """
    eps, log_lam = np.finfo(float).eps, math.log(lam)
    k_fps = (math.log(G / (eps * r)) / log_lam for G, r in zip(scales, x_norms) if r != 0.0)
    k_fp = min(k_fps, default=math.inf)
    k_of = math.log(sys.float_info.max) / (2.0 * log_lam)
    if K <= min(k_fp, k_of):
        return
    if k_fp <= k_of:
        why = f"precision horizon k_fp = {k_fp:.1f}, past which the step G lam^-k is below ulp(||x_true||)"
    else:
        why = f"overflow horizon k_of = {k_of:.1f}, past which lam^2k overflows"
    raise ValueError(f"{name} = {K} exceeds the {why} and hits are false")


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


#: Decay schedules, as the enum of ``_stepkernel.c``.
SCHEDULES = {"const": 0, "root": 1, "exp": 2}


def _decays_c(lib, schedule: str, lam: Optional[float], k: int, n: int) -> np.ndarray:
    """``_decays``' bits from the step kernel's ``sk_decays``: the same libm pow per step, in C."""
    out = np.empty(n)
    lib.sk_decays(SCHEDULES[schedule], 0.0 if lam is None else lam, k, n, out.ctypes.data)
    return out


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


def _schedule(method: str, schedule: Optional[str]) -> str:
    """Decay schedule of a method's steps: exp (G), root (gamma) or GLM-Tron's ``schedule``."""
    return {"G": "exp", "gamma": "root"}.get(METHODS[method][0], schedule)


#: Rule kinds and audit bits of the step function, as the enums of ``_stepkernel.c``.
SIGN, GATED_SIGN, GLMTRON = 0, 1, 2
AUDIT_STEP_LAW, AUDIT_GATE = 1, 2
#: Corruption channels, as the enum of ``_stepkernel.c``.
CHANNELS = {NoCorruption: 0, SignFlip: 1, ResidualSignAdversary: 2, AdditiveOblivious: 3}


#: Seeds per tile of the step kernel at most (``TILE`` of ``_stepkernel.c``): with one lane group, four
#: seeds' lanes make one pass, so the two seed owners split at a multiple of it.
TILE = 4
#: Doubles in the engine's one block buffer of measurements (2 MiB), so that a
#: seed owner's half of a block is still in L2 when it is stepped.
BLOCK_VALUES = 1 << 18
#: Doubles of the checkpoints evaluated together (1 MiB): each holds its (G, S, d)
#: lanes and, on a dataset stream, the clean-loss residual of every lane.
CHECKPOINT_VALUES = 1 << 17


def checkpoints_per_buffer(lanes: int, values: int) -> int:
    """Checkpoints evaluated together, at ``values`` per lane: d, plus the rows of a dataset stream."""
    return max(1, CHECKPOINT_VALUES // (lanes * values))


class _StepState(SimpleNamespace):
    """What the step function reads and advances over one run_batch call.

    ``x`` holds the (G, S, d) lanes, advanced in place.  Per group:
    ``kind`` (int32 SIGN / GATED_SIGN / GLMTRON), ``audit`` (int32
    AUDIT_STEP_LAW | AUDIT_GATE bits) and the (G, 1) corruption
    probabilities ``P``; per lane, the (G, S) int64 counts ``step_viol``
    and ``gate_viol``.  ``relu`` is the response link and ``corr`` the
    corruption channel, which every step applies to its draws.  The block
    arrays hold ``cap`` steps per seed, each block in their first n: the
    (S, cap, d) measurements ``A``, the (S, cap) ``clean`` responses and
    indicator draws ``XI``, the additive channel's (S, cap) noise ``NU``
    (None on the others) and the (G, S, cap) ``steps``.  ``hit_k`` (S,) is
    None unless hitting times are tracked: then ``Xt``, ``g_sq``,
    ``level``, ``lam2`` and ``lam2k``, which holds each seed's lam^{2k} at
    its current step.
    """


def _step_state(x, kind, audit, relu: bool, corr, P, cap: int, hitting=None) -> _StepState:
    """The step function's state for the (G, S, d) lanes ``x``, with block arrays of ``cap`` steps.

    ``kind``, ``audit`` (per group) and ``P`` (G, 1) are as in _StepState,
    and the audit counts start at zero.  ``hitting`` is None, or (Xt,
    g_sq, level, lam) to track hitting times from k = 0: a seed whose
    Y_0 = ||Xt - x||^2 / g_sq already reaches the level hits at k = 0.
    """
    G, S, d = x.shape
    st = _StepState(
        x=x,
        kind=np.asarray(kind, dtype=np.int32),
        audit=np.asarray(audit, dtype=np.int32),
        step_viol=np.zeros((G, S), dtype=np.int64),
        gate_viol=np.zeros((G, S), dtype=np.int64),
        relu=relu,
        corr=corr,
        P=P,
        A=np.empty((S, cap, d)),
        clean=np.empty((S, cap)),
        XI=np.empty((S, cap)),
        NU=np.empty((S, cap)) if isinstance(corr, AdditiveOblivious) else None,
        steps=np.empty((G, S, cap)),
        hit_k=None,
    )
    if hitting is not None:
        st.Xt, st.g_sq, st.level, lam = hitting
        st.lam2, st.lam2k = lam * lam, np.ones(S)
        diff = st.Xt - x[0]
        st.hit_k = np.full(S, -1, dtype=np.int64)
        st.hit_k[_dots(diff[None], diff)[0] / st.g_sq >= st.level] = 0
    return st


def _step_numpy(st: _StepState, j0: int, j1: int, k: int) -> None:
    """Steps j0 <= j < j1 of the block that starts at step k, in numpy.

    The reference body: ``_stepkernel.c`` computes the same bits, but for
    NaNs: where two meet in an add, the sign of the NaN kept may differ.
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
        lam2k = float(st.lam2k[0])  # every seed's: this body steps them all

    for j in range(j0, j1):
        a = st.A[:, j, :]
        dot = _dots(x, a)
        pred = np.maximum(dot, 0.0) if st.relu else dot
        nu = None if st.NU is None else st.NU[:, j]
        y = apply_channel(st.corr, st.clean[:, j], st.XI[:, j], nu, pred=pred, p=st.P)
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
        st.lam2k[:] = lam2k
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


def _bind_c(lib, st: _StepState, seeds: range):
    """The kernel call for the seeds in ``seeds``: (j0, j1, k) -> None.

    Advances steps j0 <= j < j1 of the block that starts at step k, for
    those seeds alone.  The arrays are checked, and every argument but j0,
    j1 and k made a ctypes value, once, here.  The kernel's scratch
    ``work``, sized by the kernel for these seeds, is this binding's own, so
    two bindings of disjoint seeds can run at once.
    """
    G, S = st.step_viol.shape
    n, d = st.A.shape[1:]
    hit = st.hit_k is not None
    work = np.empty(lib.sk_work_size(G, len(seeds), d))
    hit_f64 = (st.Xt, st.g_sq) if hit else (None, None)
    f64 = (st.x, st.A, st.clean, st.XI, st.NU, st.P, st.steps) + hit_f64 + (st.lam2k if hit else None, work)
    x, A, clean, XI, NU, P, steps, Xt, g_sq, lam2k, work_ = (_address(a, np.float64) for a in f64)
    kind, audit = (_address(a, np.int32) for a in (st.kind, st.audit))
    step_viol, gate_viol, hit_k = (
        _address(a, np.int64) for a in (st.step_viol, st.gate_viol, st.hit_k)
    )
    level, lam2 = (st.level, st.lam2) if hit else (0.0, 0.0)
    fixed = (
        G, S, n, d, seeds.start, seeds.stop, x, A, clean, XI, NU, P, CHANNELS[type(st.corr)], int(st.relu),
        steps, kind, audit, step_viol, gate_viol, Xt, g_sq, level, lam2, lam2k, hit_k, work_,
    )
    call = functools.partial(lib.sk_advance, *(t(v) for t, v in zip(lib.sk_advance.argtypes, fixed)))

    def advance(j0: int, j1: int, k: int, _keep=f64) -> None:
        # _keep holds the arrays whose addresses the call passes.
        call(j0, j1, k)

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
    """Run every lane (lane group, seed) over one stream.

    ``spec`` is ``Lanes``, or one SolverSpec run as one group at the
    stream's corruption probability.  Each seed owns its substreams;
    its draws and clean responses are shared by every group, so each
    lane is bitwise identical to a one-group, one-seed call of its solver
    at its p.
    Returns one Trajectory per lane, group-major, whose ``checkpoints`` is
    that lane's CheckpointTable: views of the call's (checkpoints, G, S)
    columns.  ``x_true`` may be
    (d,) shared or (S, d) per seed; it is required for synthetic streams
    (it generates the clean responses) and ignored for dataset streams
    except as the relative-error reference.

    With ``hitting_level`` set (one sgd_exp group only), tracks
    Y_k = lam^{2k} ||x_true - x_k||^2 / G^2 each step and records the
    first k where Y_k reaches the level; T past any seed's precision
    horizon or past the overflow of lam^{2k} (``_check_horizon``) is a
    ValueError.

    At each checkpoint a seed's lanes and elapsed time, the time its owner
    reached k, are copied into its columns of a buffer of snapshots, at
    most CHECKPOINT_VALUES values with a dataset stream's residuals; each
    full buffer, and the last, is evaluated at once per owner: its seeds'
    relative errors in one matmul and, for DatasetRows streams, whose one
    owner holds every seed, every clean loss against the stream's rows
    and responses in one ``evaluate_clean_loss`` call, each with the bits
    of its own call.  With
    ``validate_steps`` the sign methods count steps whose length differs
    from the scheduled step (sgd_exp) and steps taken at <x, a> < 0 (the
    ReLU methods).  The steps between two checkpoints are one call of the
    step function: the compiled kernel where it loads, else its numpy body.

    The seeds are drawn and stepped in blocks of at most BLOCK_VALUES
    measurement values, so that a block is still in cache when it is
    stepped.  With the compiled kernel, a synthetic stream has two seed
    owners, the calling thread and one worker thread: split at S / 2 when
    there are two lane groups or more, whose tiles cost only their own
    seeds, else at the multiple of the kernel's four-seed tiles nearest
    S / 2, when there are more than four seeds.  Each
    owner draws a block of its seeds (one compiled call for a sphere's
    rows and the corruption indicators), steps it at once and records its
    seeds' checkpoints, from k = 0 to T; the owners never wait for each
    other, and the worker is joined before this returns or raises.  A
    seed's generators are used by its owner alone, in block order, so
    every lane gets the bits of a sequential draw.  Dataset streams, the
    numpy body, T = 0, one seed and one group of four seeds or fewer run
    on the calling thread alone.  An exception raised in either owner
    stops the other before its next block and is raised here once, after
    the worker has stopped.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    if isinstance(spec, SolverSpec):
        spec = Lanes([(spec, stream.corruption.p, None)])
    (specs, ps, given_scales), seeds = zip(*spec), list(seeds)
    if not seeds:
        raise ValueError("run_batch needs at least one seed")
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
    scale_fields = [METHODS[s.method][0] for s in specs]
    is_tron = np.array([f is None for f in scale_fields])
    is_exp = [f == "G" for f in scale_fields]
    # The ReLU gate of the sign rule follows the stream's response link.
    relu_response = stream.relu
    if any((s.method in RELU_METHODS) != relu_response for s, f in zip(specs, scale_fields) if f):
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

    corr = stream.corruption
    P = np.array(ps, dtype=float)[:, None]  # (G, 1)

    if is_dataset:
        row_norms = stream.model.row_norms
        unit_resp = stream.model.responses / row_norms  # in unit-row space; each block gathers its rows of it

    # Step sizes: per-seed scale times decay for the sign family, decay / m for GLM-Tron.
    schedules, scales = [(_schedule(s.method, s.schedule), s.lam) for s in specs], []
    for s, name, scale in zip(specs, scale_fields, given_scales):
        if name:
            scale = np.full(S, getattr(s, name)) if scale is None else np.asarray(scale, dtype=float)
            if scale.shape != (S,) or not np.all(scale > 0):
                raise ValueError("step scales must be positive with one entry per seed")
        scales.append(scale)
    if hitting_level is not None:
        _check_horizon("T", T, scales[0], xt_norms, specs[0].lam)

    # One block layout for the whole call: each seed's block of up to `block`
    # steps has a fixed place in the step function's block arrays.
    block = max(1, min(1024, T, BLOCK_VALUES // (S * d)))
    sign_kind, gate_bit = (GATED_SIGN, AUDIT_GATE) if relu_response else (SIGN, 0)
    audited = ~is_tron & validate_steps
    track_hit = hitting_level is not None
    st = _step_state(
        x,
        np.where(is_tron, GLMTRON, sign_kind),
        np.where(audited, np.where(is_exp, AUDIT_STEP_LAW, 0) | gate_bit, 0),
        relu_response,
        corr,
        P,
        block,
        hitting=(
            (np.ascontiguousarray(Xt), scales[0] * scales[0], hitting_level, specs[0].lam) if track_hit else None
        ),
    )
    _, meas_rngs, xi_rngs, noise_rngs = zip(*(_spawn_streams(s) for s in seeds))
    from . import _kernel  # on the first engine call, not at import

    lib = _kernel.load("step kernel")

    # Checkpoints k = 0, each multiple of checkpoint_every below T, and T, buffered
    # `per_buffer` at a time; the relative errors of seeds whose x_true is missing or 0 stay NaN.
    ks = np.array([*range(0, T, checkpoint_every), T], dtype=np.int64)
    n_cp = len(ks)
    per_buffer = min(n_cp, checkpoints_per_buffer(L, d + (stream.model.n_rows if is_dataset else 0)))
    snaps = np.empty((per_buffer, G, S, d))
    elapsed = np.empty((n_cp, S))
    rel, loss = np.full((n_cp, G, S), np.nan), np.full((n_cp, G, S), np.nan)
    has_rel = np.zeros(S, dtype=bool) if Xt is None else xt_norms > 0.0
    iterates = np.empty((n_cp, G, S, d)) if record_iterates else None

    def draw(rows: slice, n: int) -> None:
        """Draw the seeds in ``rows``: a block of ``n`` steps into their rows of the block arrays."""
        A, clean = st.A[rows, :n], st.clean[rows, :n]
        idx = sample_seeds(stream.model, meas_rngs[rows], A, uniforms=(xi_rngs[rows], st.XI[rows, :n]))
        if st.NU is not None:
            for nu, rng in zip(st.NU[rows, :n], noise_rngs[rows]):
                corr.law.draw(rng, n, out=nu)
        if is_dataset:
            # Responses and noise in unit-row space.
            np.take(unit_resp, idx, out=clean, mode="clip")
            if st.NU is not None:
                st.NU[rows, :n] /= row_norms[idx]
        else:
            clean[...] = np.einsum("snd,sd->sn", A, Xt[rows])
            if relu_response:
                np.maximum(clean, 0.0, out=clean)

    def record(rows: slice, i: int) -> None:
        """Checkpoint ``i`` of the seeds in ``rows``: their lanes into the buffer, evaluated when full or last."""
        elapsed[i, rows] = time.perf_counter() - t0
        b = i % per_buffer
        snaps[b, :, rows] = x[:, rows]
        if b == per_buffer - 1 or i == n_cp - 1:
            x_, cps = snaps[: b + 1, :, rows], slice(i - b, i + 1)
            if record_iterates:
                iterates[cps, :, rows] = x_
            if is_dataset:
                loss[cps, :, rows] = evaluate_clean_loss(x_, stream.model, relu=relu_response)
            if Xt is not None:
                # ||x* - x|| per lane as np.linalg.norm takes it: the sqrt of one dot (x* - x in place).
                diff = np.subtract(Xt[rows], x_, out=x_)
                dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
                np.divide(dist, xt_norms[rows], out=rel[cps, :, rows], where=has_rel[rows])

    errors = []  # the owners' exceptions: each owner stops before its next block once one is here

    def own(part: range) -> None:
        """Draw, step and record the seeds in ``part`` from k = 0 to T, block by block, until an owner fails."""
        rows = slice(part.start, part.stop)
        advance = functools.partial(_step_numpy, st) if lib is None else _bind_c(lib, st, part)
        decays = _decays if lib is None else functools.partial(_decays_c, lib)
        record(rows, 0)
        for k in range(0, T, block):
            if errors:
                return
            n = min(block, T - k)
            draw(rows, n)
            decay = {key: decays(*key, k, n) for key in set(schedules)}
            for g, (s, tron, key, scale) in enumerate(zip(specs, is_tron, schedules, scales)):
                st.steps[g, rows, :n] = decay[key] / s.m if tron else scale[rows, None] * decay[key]
            # One call per stretch between checkpoints.
            j = 0
            while j < n:
                j1 = min(n, j + checkpoint_every - (k + j) % checkpoint_every)
                advance(j, j1, k)
                j = j1
                if (k + j) % checkpoint_every == 0 or k + j == T:
                    record(rows, -(-(k + j) // checkpoint_every))

    def run(part: range) -> None:
        try:
            own(part)
        except BaseException as exc:  # raised below, once both owners have stopped
            errors.append(exc)

    split = 0 if lib is None or is_dataset or T == 0 else S // 2 if G >= 2 else TILE * round(S / (2 * TILE))
    first, *second = [part for part in (range(0, split), range(split, S)) if part]
    t0 = time.perf_counter()
    workers = [threading.Thread(target=run, args=(part,)) for part in second]
    for worker in workers:
        worker.start()
    run(first)
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]

    return [
        Trajectory(
            solver=specs[g].method,
            seed=seeds[s_i],
            checkpoints=CheckpointTable(
                ks,
                elapsed[:, s_i],
                rel[:, g, s_i],
                loss[:, g, s_i],
                *(np.broadcast_to(has, n_cp) for has in (has_rel[s_i], is_dataset)),
            ),
            x_final=x[g, s_i].copy(),
            step_law_violations=int(st.step_viol[g, s_i]),
            relu_gate_violations=int(st.gate_viol[g, s_i]),
            iterates=iterates[:, g, s_i] if record_iterates else None,
            hit_k=(int(st.hit_k[s_i]) if track_hit and st.hit_k[s_i] >= 0 else None),
        )
        for g in range(G)
        for s_i in range(S)
    ]
