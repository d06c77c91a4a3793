"""The compiled parts, step kernel and Gaussian fill: loading, per-part fallback to numpy, mutation checks."""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import threading
import timeit
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgdexp import _kernel
from sgdexp.corruption import NoCorruption, ResidualSignAdversary, SignFlip
from sgdexp.measurement import (
    GaussianSphere,
    NormalizedIIDSubGaussian,
    _normalize_rows,
    _standard_normal,
    sample_block,
)
from sgdexp.solvers import SolverSpec, StreamSpec, run_batch
from test_frozen_outputs import DIGESTS, emit_digests

SRC = Path(__file__).resolve().parent.parent / "src"
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH to build the kernel")
needs_npyrandom = pytest.mark.skipif(
    not (_kernel.NPYRANDOM.is_file() and (_kernel.NUMPY_INCLUDE / "numpy/random/bitgen.h").is_file()),
    reason="this numpy ships no libnpyrandom.a or bitgen.h to build the Gaussian fill",
)
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


def _fill_warnings(record):
    return [w for w in record if "Gaussian fill" in str(w.message)]


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """The next run_batch loads the kernel anew, from an empty cache under tmp_path.

    The Gaussian fill stays off, so that only the kernel can warn.
    """
    monkeypatch.setattr(_kernel, "_loaded", None)
    monkeypatch.setattr(_kernel, "_fill", False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


@pytest.fixture
def fresh_fill(monkeypatch, tmp_path):
    """The next Gaussian draw loads the fill anew, from an empty cache under tmp_path."""
    monkeypatch.setattr(_kernel, "_fill", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def _relu_gate_violations():
    spec = SolverSpec(method="sgd_exp_relu", d=4, T=300, lam=1.01, G=1.0)
    stream = StreamSpec(model=GaussianSphere(4), corruption=SignFlip(0.4), relu=True)
    return run_batch(spec, stream, [9], x_true=np.ones(4))[0].relu_gate_violations


def test_import_does_not_load_the_kernel():
    # Nor do the signal draws, which stay on numpy's own fill.
    probe = (
        "import sys, sgdexp.cli\n"
        "from sgdexp.config import load_config\n"
        "from sgdexp.experiment import draw_signals\n"
        "draw_signals(load_config('configs/relu_signflip.json'))\n"
        "assert 'sgdexp._kernel' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=SRC.parent, capture_output=True, text=True
    )
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


#: The fill's fast-path test and sign flip, the targets of the mutation checks.
ACCEPT = "if (rabs < ki[idx])"
SIGN_FLIP = "bits ^= ((r >> 8) & 1) << 63;"


def _numpy_fill(seed, n):
    """Generator.standard_normal(out=) of a fresh generator: its values and its final state."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(out=np.empty(n)), rng.bit_generator.state


def _compiled_fill(lib, seed, n):
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    lib.sk_normal_fill(rng.bit_generator.ctypes.bit_generator, n, out.ctypes.data)
    return out, rng.bit_generator.state


def _mutant_fill(tmp_path, old, new):
    source = _kernel.FILL_SOURCE.read_text()
    assert old in source
    mutant = tmp_path / "_normalfill.c"
    mutant.write_text(source.replace(old, new))
    return mutant


@needs_gcc
@needs_npyrandom
class TestGaussianFill:
    """``sk_normal_fill`` against ``Generator.standard_normal``, and its per-part fallback."""

    @pytest.mark.parametrize("n", [0, 1, 7, 2048, 200_000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 12345, 2**63 + 11])
    def test_values_and_state_match_numpy(self, seed, n):
        # 200k draws take numpy's slow path ~3000 times.
        lib = _kernel.load_fill()
        assert lib is not None
        got, got_state = _compiled_fill(lib, seed, n)
        want, want_state = _numpy_fill(seed, n)
        assert np.array_equal(_bits(got), _bits(want))
        assert got_state == want_state

    @pytest.mark.parametrize("kind", ["PCG64DXSM", "MT19937", "Philox", "SFC64"])
    def test_other_bit_generators_match_numpy(self, kind):
        lib = _kernel.load_fill()
        want_rng, got_rng = (np.random.Generator(getattr(np.random, kind)(3)) for _ in range(2))
        want, got = want_rng.standard_normal(50_000), np.empty(50_000)
        lib.sk_normal_fill(got_rng.bit_generator.ctypes.bit_generator, got.size, got.ctypes.data)
        assert np.array_equal(_bits(got), _bits(want))
        # Some states hold arrays: compare them as JSON.
        state = [json.dumps(r.bit_generator.state, default=np.ndarray.tolist) for r in (got_rng, want_rng)]
        assert state[0] == state[1]

    def test_two_threads_fill_as_in_sequence(self):
        lib = _kernel.load_fill()
        n, seeds = 400_000, (31, 32)
        want = [_numpy_fill(seed, n)[0] for seed in seeds]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        outs = [np.empty(n) for _ in seeds]
        barrier = threading.Barrier(len(seeds))

        def fill(rng, out):
            barrier.wait(timeout=10)
            for part in np.array_split(out, 8):  # many calls, interleaved with the other thread
                lib.sk_normal_fill(rng.bit_generator.ctypes.bit_generator, part.size, part.ctypes.data)

        threads = [threading.Thread(target=fill, args=pair) for pair in zip(rngs, outs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        for got, ref in zip(outs, want):
            assert np.array_equal(_bits(got), _bits(ref))

    @pytest.mark.parametrize(
        "model", [GaussianSphere(11), NormalizedIIDSubGaussian(11, "gaussian")], ids=["sphere", "iid"]
    )
    def test_sample_block_unchanged_with_the_fill_off(self, model, monkeypatch):
        assert _kernel.load_fill() is not None
        fast, _ = sample_block(model, np.random.default_rng(4), 3000)
        into = sample_block(model, np.random.default_rng(4), 3000, out=np.empty((3000, 11)))[0]
        monkeypatch.setattr(_kernel, "_fill", False)
        slow, _ = sample_block(model, np.random.default_rng(4), 3000)
        assert np.array_equal(_bits(fast), _bits(slow))
        assert np.array_equal(_bits(into), _bits(slow))

    def test_cache_name_follows_the_archive_bytes(self, tmp_path, fresh_fill, monkeypatch):
        assert _kernel.load_fill() is not None
        cache = Path(os.environ["XDG_CACHE_HOME"]) / "sgdexp"
        (built,) = cache.glob("normalfill-*.so")
        archive = tmp_path / "libnpyrandom.a"
        shutil.copyfile(_kernel.NPYRANDOM, archive)
        monkeypatch.setattr(_kernel, "NPYRANDOM", archive)
        source = _kernel.FILL_SOURCE.read_text()
        assert _kernel.build_fill(source, cache) == built  # same bytes: the cached library
        with open(archive, "ab") as fh:
            fh.write(b"\n")  # an upgraded numpy: other bytes at the same path
        key = _kernel.cache_key(source, _kernel.FILL_ARGS, archive)
        assert key not in built.name

    def test_accepting_rejected_words_fails_self_test(self, fresh_fill, monkeypatch, tmp_path):
        mutant = _mutant_fill(tmp_path, ACCEPT, "if (1)")
        with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
            _kernel.fill_self_test(_kernel.open_fill(_kernel.build_fill(mutant.read_text(), tmp_path)))

        monkeypatch.setattr(_kernel, "FILL_SOURCE", mutant)
        with pytest.warns(RuntimeWarning) as record:
            digests = emit_digests("relu_signflip", tmp_path / "out")
        assert digests == DIGESTS["relu_signflip"]
        (warning,) = _fill_warnings(record)
        assert "Gaussian fill unavailable, using numpy: self-test" in str(warning.message)
        assert _kernel._fill is False
        assert _kernel._loaded  # the step kernel is a part of its own
        assert _kernel_warnings(record) == []

    def test_dropped_sign_flip_fails_self_test(self, fresh_fill, monkeypatch, tmp_path):
        mutant = _mutant_fill(tmp_path, SIGN_FLIP, "")
        with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
            _kernel.fill_self_test(_kernel.open_fill(_kernel.build_fill(mutant.read_text(), tmp_path)))

        monkeypatch.setattr(_kernel, "FILL_SOURCE", mutant)
        model = GaussianSphere(9)
        with pytest.warns(RuntimeWarning) as record:
            first, _ = sample_block(model, np.random.default_rng(8), 500)
            second, _ = sample_block(model, np.random.default_rng(8), 500)
        (warning,) = record
        assert "Gaussian fill unavailable" in str(warning.message)
        monkeypatch.setattr(_kernel, "_fill", False)
        ref, _ = sample_block(model, np.random.default_rng(8), 500)
        assert np.array_equal(_bits(first), _bits(ref)) and np.array_equal(_bits(second), _bits(ref))


#: The sphere pass's branch for fewer than 8 terms, the target of its mutation check.
SHORT_SUM = "if (n < 8) {"
GAUSSIAN_MODELS = pytest.mark.parametrize(
    "model_of", [GaussianSphere, lambda d: NormalizedIIDSubGaussian(d, "gaussian")], ids=["sphere", "iid"]
)


_NEXT_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _Bitgen(ctypes.Structure):
    """numpy/random/bitgen.h's bitgen_t."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _NEXT_U64),
        ("next_uint32", _NEXT_U32),
        ("next_double", _NEXT_DOUBLE),
        ("next_raw", _NEXT_U64),
    ]


class _ZeroWordsFill:
    """The loaded fill drawing from a bitgen_t whose first ``zeros`` words are 0, then ``inner``'s.

    A 0 word is the ziggurat's +0.0, so ``zeros = d`` makes the first row
    all zero.  Stands in for the fill library; the Generator that
    sample_block passes only lends its lock.
    """

    def __init__(self, lib, inner, zeros):
        self.lib, self.inner, self.zeros = lib, inner, zeros
        c = inner.ctypes
        words = _NEXT_U64(lambda _: 0 if self._take_zero() else c.next_uint64(c.state))
        self.bitgen = _Bitgen(
            None,
            words,
            _NEXT_U32(lambda _: c.next_uint32(c.state)),
            _NEXT_DOUBLE(lambda _: c.next_double(c.state)),
            words,
        )

    def _take_zero(self):
        self.zeros -= 1
        return self.zeros >= 0

    def sk_sphere_fill(self, _bitgen, rows, d, out):
        return self.lib.sk_sphere_fill(ctypes.addressof(self.bitgen), rows, d, out)


@needs_gcc
@needs_npyrandom
class TestSpherePass:
    """``sk_sphere_fill``, the fill and the row normalization in one pass, against the numpy path."""

    @GAUSSIAN_MODELS
    def test_bits_and_state_match_numpy_path(self, model_of, monkeypatch):
        lib = _kernel.load_fill()
        assert lib is not None
        # Every branch of numpy's pairwise sum; n = 20000 at a few d, to keep the buffers small.
        cases = [(d, n) for d in (*range(1, 131), 257, 1000) for n in (1, 97)]
        cases += [(d, 20_000) for d in (1, 8, 20, 100, 129)]
        for d, n in cases:
            draws = []
            for fill in (lib, False):
                monkeypatch.setattr(_kernel, "_fill", fill)
                rng = np.random.default_rng(1000 * d + n)
                draws.append((sample_block(model_of(d), rng, n)[0], rng.bit_generator.state))
            (got, got_state), (want, want_state) = draws
            assert np.array_equal(_bits(got), _bits(want)), (d, n)
            assert got_state == want_state, (d, n)

    @pytest.mark.parametrize("d", [1, 5, 8, 20, 129])
    def test_zero_row_is_redrawn_as_normalize_rows_does(self, d, monkeypatch):
        n, seed = 4, 77
        stand_in = _ZeroWordsFill(_kernel.load_fill(), np.random.PCG64(seed), zeros=d)
        monkeypatch.setattr(_kernel, "_fill", stand_in)
        got, _ = sample_block(GaussianSphere(d), np.random.default_rng(0), n)
        assert stand_in.zeros < 0  # every zero word was drawn

        monkeypatch.setattr(_kernel, "_fill", False)
        ref_rng = np.random.Generator(np.random.PCG64(seed))
        g = np.zeros((n, d))
        g[1:] = ref_rng.standard_normal((n - 1, d))
        want = _normalize_rows(g, ref_rng, _standard_normal)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.linalg.norm(got[0]) == pytest.approx(1.0, rel=1e-12)
        assert stand_in.inner.state == ref_rng.bit_generator.state

    def test_sequential_sum_fails_self_test(self, fresh_fill, monkeypatch, tmp_path):
        mutant = _mutant_fill(tmp_path, SHORT_SUM, "if (1) {")
        lib = _kernel.open_fill(_kernel.build_fill(mutant.read_text(), tmp_path))
        with pytest.raises(_kernel.KernelUnavailable, match="self-test: the sphere pass differs"):
            _kernel.fill_self_test(lib)

        monkeypatch.setattr(_kernel, "FILL_SOURCE", mutant)
        model = GaussianSphere(20)
        with pytest.warns(RuntimeWarning) as record:
            first, _ = sample_block(model, np.random.default_rng(8), 500)
            second, _ = sample_block(model, np.random.default_rng(8), 500)
        (warning,) = record
        assert "Gaussian fill unavailable, using numpy: self-test" in str(warning.message)
        assert _kernel._fill is False
        ref, _ = sample_block(model, np.random.default_rng(8), 500)
        assert np.array_equal(_bits(first), _bits(ref)) and np.array_equal(_bits(second), _bits(ref))

    def test_self_test_is_quick(self):
        lib = _kernel.load_fill()
        best = min(timeit.repeat(lambda: _kernel.sphere_self_test(lib), number=1, repeat=5))
        assert best < 3e-3


@needs_gcc
def test_missing_archive_turns_off_only_the_fill(fresh_fill, monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "_loaded", None)
    missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    monkeypatch.setattr(_kernel, "NPYRANDOM", missing)
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
        emit_digests("linear_signflip", tmp_path / "out2")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = record
    assert str(warning.message).startswith("sgdexp Gaussian fill unavailable, using numpy: ")
    assert str(missing) in str(warning.message)
    assert _kernel._fill is False
    assert _kernel._loaded  # the step kernel still loads
