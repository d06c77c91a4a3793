#!/usr/bin/env python3
"""Time the engine's step function alone: ns per lane-step, compiled kernel against numpy body.

One block of steps in each of three shapes, the step function's share of
the three benchmark workloads:

- sweep:   G 8, S 10, d 100.  Per corruption level, one gated sign group
           (step-law and gate audits on) and three GLM-Tron groups, under
           sign flips; 250 steps, the engine's block at 80 lanes of d 100.
- dataset: G 1, S 10, d 10.  One audited sign group; 1024 steps.
- hitting: G 1, S 100, d 20.  One sign group under the residual-sign
           adversary, with hitting times and no audit; 1000 steps.

Inputs come from a fixed seed, the block is stepped on the calling thread
from the same starting iterates in every repeat, and the best repeat is
reported.  (That both bodies end in the same bits is tested in
tests/test_kernel.py.)  Last, the best time of each compiled part's
load-time self-test, from ``_kernel.PARTS``.

    PYTHONPATH=src python scripts/step_kernel_bench.py [--repeat 7]
"""

from __future__ import annotations

import argparse
import time
import timeit

import numpy as np

from sgdexp import _kernel
from sgdexp.corruption import ResidualSignAdversary, SignFlip
from sgdexp.measurement import GaussianSphere, sample_block
from sgdexp.solvers import (
    AUDIT_GATE,
    AUDIT_STEP_LAW,
    GATED_SIGN,
    GLMTRON,
    SIGN,
    _bind_c,
    _decays,
    _set_block,
    _step_numpy,
    _step_state,
)

LAM = 1.00003


def _state(kinds, audits, ps, S, d, n, relu, adversary, hitting, seed=0):
    """The step function's inputs for one block: G = len(kinds) groups of S seeds."""
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
    corr = (ResidualSignAdversary if adversary else SignFlip)(max(ps))
    st = _step_state(
        np.zeros((G, S, d)), kinds, audits, relu, corr, P,
        hitting=(Xt, np.full(S, 4.0), 1e300, LAM) if hitting else None,
    )
    _set_block(st, A, clean, XI, steps)
    return st


def _shapes():
    sweep_kinds = [GATED_SIGN, GLMTRON, GLMTRON, GLMTRON] * 2
    sweep_audits = [AUDIT_STEP_LAW | AUDIT_GATE, 0, 0, 0] * 2
    sweep = _state(sweep_kinds, sweep_audits, [0.2] * 4 + [0.4] * 4, 10, 100, 250, True, False, False)
    dataset = _state([SIGN], [AUDIT_STEP_LAW], [0.3], 10, 10, 1024, False, False, False)
    hitting = _state([SIGN], [0], [0.4], 100, 20, 1000, False, True, True)
    return {"sweep": sweep, "dataset": dataset, "hitting": hitting}


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
    for name, st in _shapes().items():
        (G, S, d), n = st.x.shape, st.A.shape[1]
        lane_steps = G * S * n
        numpy_s = _time(st, lambda j0, j1, k: _step_numpy(st, j0, j1, k), max(1, args.repeat // 3))
        kernel_s = float("nan") if lib is None else _time(st, _bind_c(lib, st), args.repeat)
        kernel_ns, numpy_ns = 1e9 * kernel_s / lane_steps, 1e9 * numpy_s / lane_steps
        print(f"{name:8} {G:3d} {S:4d} {d:4d} {n:5d} {kernel_ns:10.1f} {numpy_ns:10.1f} {numpy_ns / kernel_ns:6.1f}")
    for name, part in _kernel.PARTS.items():
        part_lib = _kernel.load(name)
        if part_lib is not None:
            best = min(timeit.repeat(lambda: part.self_test(part_lib), number=1, repeat=args.repeat))
            print(f"{name} self-test: {1e3 * best:.2f} ms")


if __name__ == "__main__":
    main()
