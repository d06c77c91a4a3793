"""The compiled step kernel: loading, fallback to the numpy body, and mutation checks."""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgdexp import _kernel
from sgdexp.corruption import NoCorruption, ResidualSignAdversary, SignFlip
from sgdexp.measurement import GaussianSphere
from sgdexp.solvers import SolverSpec, StreamSpec, run, run_batch
from test_frozen_outputs import DIGESTS, emit_digests

SRC = Path(__file__).resolve().parent.parent / "src"
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH to build the kernel")
GATE = "(dt >= 0.0 ? 1.0 : 0.0)"
DOT_ORDER = "static double dot(const double *x, const double *a, int64_t d)\n{\n"
SEQUENTIAL_DOT = DOT_ORDER + (
    "    double c = 0.0;\n    for (int64_t i = 0; i < d; i++)\n        c += x[i] * a[i];\n"
    "    return c;\n"
)


def _bits(arr):
    """The bit patterns of a float array: -0.0 and +0.0 differ, as do NaN payloads."""
    return np.asarray(arr).view(np.uint64)


def _kernel_warnings(record):
    return [w for w in record if "step kernel" in str(w.message)]


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """The next run_batch loads the kernel anew, from an empty cache under tmp_path."""
    monkeypatch.setattr(_kernel, "_loaded", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def _relu_gate_violations():
    spec = SolverSpec(method="sgd_exp_relu", d=4, T=300, lam=1.01, G=1.0)
    stream = StreamSpec(model=GaussianSphere(4), corruption=SignFlip(0.4), relu=True)
    return run(spec, stream, x_true=np.ones(4), seed=9).relu_gate_violations


def test_import_does_not_load_the_kernel():
    probe = "import sys, sgdexp.cli; assert 'sgdexp._kernel' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@needs_gcc
def test_kernel_loads_where_gcc_exists(fresh_load):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _kernel.load() is not None
    assert list((Path(os.environ["XDG_CACHE_HOME"]) / "sgdexp").glob("*.so")) != []


def test_missing_gcc_runs_numpy_body_with_one_warning(fresh_load, monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", "")
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
        emit_digests("linear_signflip", tmp_path / "out2")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = _kernel_warnings(record)
    assert "gcc not found" in str(warning.message)
    assert _kernel._loaded is False


@needs_gcc
def test_unwritable_cache_builds_in_a_temp_dir(fresh_load, monkeypatch, tmp_path):
    # A file where the cache directory should be: no user can create it.
    (tmp_path / "not-a-dir").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not-a-dir"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert _kernel._loaded
    assert digests == DIGESTS["relu_signflip"]


@needs_gcc
def test_second_process_loads_the_cached_library_without_gcc(tmp_path):
    cache = tmp_path / "cache"
    built = _kernel.build(_kernel.SOURCE.read_text(), cache / "sgdexp")
    load = (
        "import warnings; warnings.simplefilter('error', RuntimeWarning);"
        "from sgdexp import _kernel; assert _kernel.load() is not None"
    )
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", load], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert list((cache / "sgdexp").iterdir()) == [built]


@needs_gcc
def test_gateless_kernel_reports_gate_violations(monkeypatch, tmp_path):
    source = _kernel.SOURCE.read_text()
    assert GATE in source
    lib = _kernel.open_library(_kernel.build(source.replace(GATE, "1.0"), tmp_path))
    _kernel.self_test(lib)  # the dot is untouched
    monkeypatch.setattr(_kernel, "_loaded", lib)
    assert _relu_gate_violations() > 0
    monkeypatch.setattr(_kernel, "_loaded", False)
    assert _relu_gate_violations() == 0


@needs_gcc
def test_sequential_dot_fails_self_test_and_engine_falls_back(fresh_load, monkeypatch, tmp_path):
    source = _kernel.SOURCE.read_text()
    assert DOT_ORDER in source
    mutant = tmp_path / "_stepkernel.c"
    mutant.write_text(source.replace(DOT_ORDER, SEQUENTIAL_DOT))
    with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
        _kernel.self_test(_kernel.open_library(_kernel.build(mutant.read_text(), tmp_path)))

    monkeypatch.setattr(_kernel, "SOURCE", mutant)
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = _kernel_warnings(record)
    assert "self-test" in str(warning.message)
    assert _kernel._loaded is False


@needs_gcc
@pytest.mark.parametrize(
    "corruption, level",
    [(SignFlip(0.3), 20.0), (ResidualSignAdversary(0.3), 1e4)],
    ids=["sign_flip", "residual_sign"],
)
def test_hitting_times_match_numpy_body(corruption, level, monkeypatch):
    # T spans two blocks and 21 stretches between checkpoints.
    spec = SolverSpec(method="sgd_exp_linear", d=5, T=2100, lam=1.01, G=0.5)
    stream = StreamSpec(model=GaussianSphere(5), corruption=corruption)
    kwargs = dict(x_true=np.full(5, 0.1), checkpoint_every=100, hitting_level=level)
    assert _kernel.load() is not None
    kernel = run_batch(spec, stream, range(12), **kwargs)
    monkeypatch.setattr(_kernel, "_loaded", False)
    reference = run_batch(spec, stream, range(12), **kwargs)
    assert [t.hit_k for t in kernel] == [t.hit_k for t in reference]
    assert any(t.hit_k is not None for t in kernel)
    for a, b in zip(kernel, reference):
        assert np.array_equal(_bits(a.x_final), _bits(b.x_final))


@needs_gcc
def test_zero_coefficient_updates_match_numpy_body(monkeypatch):
    # With x_true = 0 and no corruption every coefficient is 0, and x + 0 * a
    # still turns each -0.0 component into +0.0 where a_i > 0.
    d = 5
    spec = SolverSpec(method="sgd_exp_linear", d=d, T=60, lam=1.01, G=0.5)
    stream = StreamSpec(model=GaussianSphere(d), corruption=NoCorruption())
    kwargs = dict(x_true=np.zeros(d), x0=np.full(d, -0.0), checkpoint_every=1, record_iterates=True)
    assert _kernel.load() is not None
    kernel = run_batch(spec, stream, range(3), **kwargs)
    monkeypatch.setattr(_kernel, "_loaded", False)
    reference = run_batch(spec, stream, range(3), **kwargs)
    for a, b in zip(kernel, reference):
        assert np.array_equal(_bits(a.iterates), _bits(b.iterates))
        assert np.all(np.signbit(b.iterates[0])) and not np.any(np.signbit(b.x_final))
