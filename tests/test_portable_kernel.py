"""The engine's bitwise tests again, on the step kernel's base build.

Elsewhere the engine runs the kernel's AVX-512 build wherever the CPU has
AVX-512F.  The base build, one lane group per 128-bit vector, is what runs on
every other CPU, so it must give the same bits: the frozen digests, the
oracle's per-step rules, the single-group runs, and the AVX-512 build's
trajectories themselves.
"""

import numpy as np
import pytest

from sgdexp import _kernel
from sgdexp.corruption import SignFlip
from sgdexp.measurement import GaussianSphere
from sgdexp.solvers import Lanes, SolverSpec, StreamSpec, run_batch
from test_frozen_outputs import (  # noqa: F401  (collected here as well)
    test_mixed_lane_sweep_digest,
    test_shipped_config_digests,
    test_sweep_digest,
    test_ten_seed_sweep_digest,
)
from test_kernel import needs_gcc
from test_solvers import TestEngineMatchesOracle, TestLanes  # noqa: F401

pytestmark = needs_gcc
KERNEL = "step kernel"


def _opened(part, directory):
    lib = _kernel.open_library(part, _kernel.build(part, directory))
    part.self_test(lib)
    return lib


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """(base build, the build the loader uses), each built into its own temp cache."""
    part, loaded = _kernel.PARTS[KERNEL], _kernel.load(KERNEL)
    assert loaded is not None
    base = _opened(part, tmp_path_factory.mktemp("base"))
    assert base.sk_isa() in (b"sse2", b"generic")
    return base, loaded


@pytest.fixture(autouse=True)
def base_build(monkeypatch, builds):
    monkeypatch.setitem(_kernel._libs, KERNEL, builds[0])


def _mixed_lanes():
    """Every lane of a run of five groups (four to a vector and one alone in the AVX-512 build), 7 seeds, d 9."""
    d = 9
    specs = [
        (SolverSpec(method="sgd_exp_relu", d=d, T=700, lam=1.003, G=0.5), p, None) for p in (0.1, 0.3)
    ] + [
        (SolverSpec(method="glmtron", d=d, T=700, schedule=schedule, m=1, lam=1.003), 0.2, None)
        for schedule in ("const", "root", "exp")
    ]
    stream = StreamSpec(model=GaussianSphere(d), corruption=SignFlip(0.2), relu=True)
    return run_batch(Lanes(specs), stream, range(7), x_true=np.full(d, 0.3), checkpoint_every=100)


def test_base_build_steps_as_the_loaded_build(monkeypatch, builds):
    base = _mixed_lanes()
    monkeypatch.setitem(_kernel._libs, KERNEL, builds[1])
    loaded = _mixed_lanes()
    for a, b in zip(base, loaded):
        assert a.x_final.tobytes() == b.x_final.tobytes()
        assert (a.step_law_violations, a.relu_gate_violations) == (b.step_law_violations, b.relu_gate_violations)
        assert a.checkpoints.relative_error.tobytes() == b.checkpoints.relative_error.tobytes()
