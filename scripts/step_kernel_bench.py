#!/usr/bin/env python3
"""Time the engine's step function alone: ns per lane-step, compiled kernel against numpy body.

One block of steps in each of three shapes, the step function's share of
the three benchmark workloads, at the engine's block length for the
shape (``solvers.BLOCK_VALUES`` measurement values, at most 1024 steps):

- sweep:   G 8, S 10, d 100.  Per corruption level, one gated sign group
           (step-law and gate audits on) and three GLM-Tron groups, under
           sign flips; 262 steps.  Also its first 1, 2, 3 and 4 groups, at
           one corruption level: the lane groups the kernel puts one, two,
           and four to a vector where it runs its AVX-512 build.
- dataset: G 1, S 10, d 10.  One audited sign group, under additive
           uniform noise; 1024 steps.
- hitting: G 1, S 100, d 20.  One sign group under the residual-sign
           adversary, with hitting times and no audit; 131 steps.

Inputs come from a fixed seed, the block is stepped on the calling thread
over all seeds (``sk_advance``'s seed range [0, S)) from the same starting
iterates in every repeat, and the best repeat is reported.  (That both
bodies end in the same bits is tested in tests/test_kernel.py.)  Then the
draw the engine makes per block of a sphere stream, ``sample_seeds`` of
every seed's rows and corruption uniforms, in ns per measurement value on
the sweep and hitting shapes, next to the drift validators' draw
(``sample_drift_terms`` of one ``DRIFT_CHUNK`` of rows at d 100, reduced as
they are drawn), so the record shows whether the validators are at the draw
floor; then the engine's clean loss per checkpoint on the dataset shape (G 1,
S 10, n 1599 rows, d 10), in µs, with the compiled residual and with its
numpy body, for one checkpoint alone and for the checkpoints the engine's
buffer evaluates in one call; last, the best time of each compiled part's load-time
self-test, from ``_kernel.PARTS``, and the gcc CPU time of the part's build for
this CPU (``_kernel.for_cpu``) into an empty temp directory.

    PYTHONPATH=src python scripts/step_kernel_bench.py [--repeat 7]
"""

from __future__ import annotations

import argparse
import resource
import tempfile
import time
import timeit
from pathlib import Path

import numpy as np

from sgdexp import _kernel
from sgdexp.corruption import AdditiveOblivious, ResidualSignAdversary, SignFlip, Uniform
from sgdexp.datasets import evaluate_clean_loss
from sgdexp.drift import DRIFT_CHUNK
from sgdexp.measurement import DatasetRows, GaussianSphere, sample_block, sample_drift_terms, sample_seeds
from sgdexp.solvers import (
    AUDIT_GATE,
    AUDIT_STEP_LAW,
    BLOCK_VALUES,
    GATED_SIGN,
    GLMTRON,
    SIGN,
    _bind_c,
    _decays,
    _step_numpy,
    _step_state,
    checkpoints_per_buffer,
)

LAM = 1.00003


def _state(kinds, audits, ps, S, d, n, relu, corr, hitting, seed=0):
    """The step function's inputs for one block: G = len(kinds) groups of S seeds under the channel ``corr``."""
    rng = np.random.default_rng(seed)
    G = len(kinds)
    Xt = rng.standard_normal((S, d))
    A = np.stack([sample_block(GaussianSphere(d), rng, n)[0] for _ in range(S)])
    clean = np.einsum("snd,sd->sn", A, Xt)
    if relu:
        np.maximum(clean, 0.0, out=clean)
    XI, P = rng.random((S, n)), np.array(ps, dtype=float)[:, None]
    decay = _decays("exp", LAM, 0, n)
    steps = np.empty((G, S, n))
    for g in range(G):
        steps[g] = decay if kinds[g] == GLMTRON else 2.0 * decay
    st = _step_state(
        np.zeros((G, S, d)), kinds, audits, relu, corr, P, n,
        hitting=(Xt, np.full(S, 4.0), 1e300, LAM) if hitting else None,
    )
    st.A[...], st.clean[...], st.XI[...], st.steps[...] = A, clean, XI, steps
    if st.NU is not None:
        corr.law.draw(rng, (S, n), out=st.NU)
    return st


def _block(S, d):
    """The engine's block length for S seeds of dimension d."""
    return min(1024, BLOCK_VALUES // (S * d))


def _shapes():
    """Each shape's (name, step state): the sweep at G 1, 2, 3, 4 and 8, then the dataset and hitting shapes."""
    sweep_kinds = [GATED_SIGN, GLMTRON, GLMTRON, GLMTRON] * 2
    sweep_audits = [AUDIT_STEP_LAW | AUDIT_GATE, 0, 0, 0] * 2
    sweep_ps, additive = [0.2] * 4 + [0.4] * 4, AdditiveOblivious(0.2, Uniform(300.0))
    shapes = [
        ("sweep", _state(sweep_kinds[:G], sweep_audits[:G], sweep_ps[:G], 10, 100, _block(10, 100), True,
                         SignFlip(0.4), False))
        for G in (1, 2, 3, 4, 8)
    ]
    shapes.append(("dataset", _state([SIGN], [AUDIT_STEP_LAW], [0.2], 10, 10, _block(10, 10), False, additive, False)))
    shapes.append(
        ("hitting", _state([SIGN], [0], [0.4], 100, 20, _block(100, 20), False, ResidualSignAdversary(0.4), True))
    )
    return shapes


def _draw_ns(S, d, repeat):
    """Best ns per measurement value of one ``sample_seeds`` block: S seeds' rows of d and their uniforms."""
    n = _block(S, d)
    A, XI = np.empty((S, n, d)), np.empty((S, n))
    rngs = [np.random.default_rng(seed) for seed in range(2 * S)]
    model = GaussianSphere(d)
    best = min(
        timeit.repeat(lambda: sample_seeds(model, rngs[:S], A, uniforms=(rngs[S:], XI)), number=1, repeat=repeat)
    )
    return 1e9 * best / A.size


def _drift_ns(d, repeat):
    """Best ns per measurement value of one validator chunk: DRIFT_CHUNK rows of d reduced against u."""
    rng, out = np.random.default_rng(0), np.empty((3, DRIFT_CHUNK))
    u = np.random.default_rng(1).standard_normal(d)
    if not sample_drift_terms(GaussianSphere(d), rng, u, out):
        return float("nan")
    best = min(timeit.repeat(lambda: sample_drift_terms(GaussianSphere(d), rng, u, out), number=1, repeat=repeat))
    return 1e9 * best / (DRIFT_CHUNK * d)


def _clean_loss_us(checkpoints, repeat):
    """Best µs per checkpoint of the clean loss of ``checkpoints`` checkpoints in one call, on the
    dataset shape: (compiled residual, numpy body)."""
    rng = np.random.default_rng(0)
    data = DatasetRows(rng.standard_normal((1599, 10)), rng.standard_normal(1599))
    x = rng.standard_normal((checkpoints, 1, 10, 10))

    def best_us():
        best = min(timeit.repeat(lambda: evaluate_clean_loss(x, data), number=100, repeat=repeat))
        return 1e6 * best / (100 * checkpoints)

    compiled_us = float("nan") if _kernel.load("clean loss") is None else best_us()
    loaded, _kernel._libs["clean loss"] = _kernel._libs["clean loss"], "turned off"
    numpy_us = best_us()
    _kernel._libs["clean loss"] = loaded
    return compiled_us, numpy_us


def _build_cpu_s(part):
    """gcc's CPU seconds for ``part`` as this CPU builds it, into an empty temp directory."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with tempfile.TemporaryDirectory(prefix="sgdexp-bench-") as tmp:
        _kernel.build(_kernel.for_cpu(part), Path(tmp))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def _time(st, advance, repeat):
    """Best seconds for the whole block over ``repeat`` runs from the same inputs."""
    x0 = st.x.copy()
    n, best = st.A.shape[1], float("inf")
    for _ in range(repeat):
        st.x[...] = x0
        if st.hit_k is not None:
            st.lam2k[...] = 1.0
            st.hit_k[...] = -1
        t0 = time.perf_counter()
        advance(0, n, 0)
        best = min(best, time.perf_counter() - t0)
    st.x[...] = x0
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="runs per body and shape (best is kept)")
    args = parser.parse_args()
    lib = _kernel.load("step kernel")
    print(f"step kernel: {_kernel.status()['step kernel']}")
    print(f"{'shape':8} {'G':>3} {'S':>4} {'d':>4} {'n':>5} {'kernel ns':>10} {'numpy ns':>10} {'ratio':>6}")
    for name, st in _shapes():
        (G, S, d), n = st.x.shape, st.A.shape[1]
        lane_steps = G * S * n
        numpy_s = _time(st, lambda j0, j1, k: _step_numpy(st, j0, j1, k), max(1, args.repeat // 3))
        kernel_s = float("nan") if lib is None else _time(st, _bind_c(lib, st, range(S)), args.repeat)
        kernel_ns, numpy_ns = 1e9 * kernel_s / lane_steps, 1e9 * numpy_s / lane_steps
        print(f"{name:8} {G:3d} {S:4d} {d:4d} {n:5d} {kernel_ns:10.1f} {numpy_ns:10.1f} {numpy_ns / kernel_ns:6.1f}")
    print(f"Gaussian fill: {_kernel.status()['Gaussian fill']}")
    for name, S, d in (("sweep", 10, 100), ("hitting", 100, 20)):
        print(f"{name} draw (S {S}, d {d}, n {_block(S, d)}): {_draw_ns(S, d, args.repeat):.2f} ns per value")
    print(f"drift pass (d 100, n {DRIFT_CHUNK}): {_drift_ns(100, args.repeat):.2f} ns per value")
    print(f"clean loss: {_kernel.status()['clean loss']}")
    for checkpoints in (1, checkpoints_per_buffer(10, 10 + 1599)):
        compiled_us, numpy_us = _clean_loss_us(checkpoints, args.repeat)
        print(
            f"clean loss per checkpoint, {checkpoints} per call (G 1, S 10, n 1599, d 10): "
            f"{compiled_us:.1f} µs, numpy {numpy_us:.1f} µs"
        )
    for name, part in _kernel.PARTS.items():
        part_lib = _kernel.load(name)
        if part_lib is not None:
            best = min(timeit.repeat(lambda: part.self_test(part_lib), number=1, repeat=args.repeat))
            print(f"{name} self-test: {1e3 * best:.2f} ms")
    for name, part in _kernel.PARTS.items():
        try:
            print(f"{name} build: {_build_cpu_s(part):.2f} s of gcc CPU time")
        except _kernel.KernelUnavailable as exc:
            print(f"{name} build: none, {exc}")


if __name__ == "__main__":
    main()
