"""The compiled parts, step kernel and Gaussian fill: loading, per-part fallback to numpy, mutation checks."""

import ctypes
import dataclasses
import functools
import json
import os
import re
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
from sgdexp.solvers import (
    AUDIT_GATE,
    AUDIT_STEP_LAW,
    GATED_SIGN,
    GLMTRON,
    SIGN,
    SolverSpec,
    StreamSpec,
    _bind_c,
    _set_block,
    _step_numpy,
    _step_state,
    run_batch,
)
from test_frozen_outputs import DIGESTS, emit_digests

SRC = Path(__file__).resolve().parent.parent / "src"
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH to build the kernel")
needs_npyrandom = pytest.mark.skipif(
    not (_kernel.NPYRANDOM.is_file() and (_kernel.NUMPY_INCLUDE / "numpy/random/bitgen.h").is_file()),
    reason="this numpy ships no libnpyrandom.a or bitgen.h to build the Gaussian fill",
)
KERNEL, FILL = "step kernel", "Gaussian fill"
GATE = "(dt >= 0.0 ? 1.0 : 0.0)"
DOT_ORDER = (
    "static inline __attribute__((always_inline)) void dot4("
    "const double *const *x, const double *const *a, int64_t d, double *out)\n{\n"
)
SEQUENTIAL_DOT = DOT_ORDER + (
    "    for (int t = 0; t < TILE; t++) {\n        double c = 0.0;\n"
    "        for (int64_t i = 0; i < d; i++)\n            c += x[t][i] * a[t][i];\n"
    "        out[t] = c;\n    }\n    return;\n"
)
#: The first two chain steps of the four-wide dot, and the same two swapped.
DOT4_ORDER = "        add4(c, x, a, i + 6);\n        add4(c, x, a, i + 4);\n"
DOT4_SWAPPED = "        add4(c, x, a, i + 4);\n        add4(c, x, a, i + 6);\n"


def _bits(arr):
    """The bit patterns of a float array: -0.0 and +0.0 differ, as do NaN payloads."""
    return np.asarray(arr).view(np.uint64)


def _kernel_warnings(record):
    return [w for w in record if KERNEL in str(w.message)]


def _fill_warnings(record):
    return [w for w in record if FILL in str(w.message)]


def _turn_off(monkeypatch, name):
    """Run the part ``name`` on numpy, as a part that did not load does."""
    monkeypatch.setitem(_kernel._libs, name, "turned off")


def _mutant(tmp_path, name, old, new):
    """The part ``name`` with ``old`` replaced by ``new`` in a copy of its source."""
    part = _kernel.PARTS[name]
    source = part.source.read_text()
    assert old in source
    mutant = tmp_path / part.source.name
    mutant.write_text(source.replace(old, new))
    return dataclasses.replace(part, source=mutant)


def _opened(part, directory):
    return _kernel.open_library(part, _kernel.build(part, directory))


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """The next run_batch loads the kernel anew, from an empty cache under tmp_path.

    The Gaussian fill stays off, so that only the kernel can warn.
    """
    monkeypatch.setattr(_kernel, "_libs", {FILL: "turned off"})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


@pytest.fixture
def fresh_fill(monkeypatch, tmp_path):
    """The next Gaussian draw loads the fill anew, from an empty cache under tmp_path."""
    monkeypatch.delitem(_kernel._libs, FILL, raising=False)
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
        assert _kernel.load(KERNEL) is not None
    assert list((Path(os.environ["XDG_CACHE_HOME"]) / "sgdexp").glob("*.so")) != []


@pytest.mark.parametrize("name", list(_kernel.PARTS))
def test_exports_are_the_declared_functions(name):
    part = _kernel.PARTS[name]
    defined = re.findall(r"^(?!static\b)[A-Za-z_][\w\s*]*?\b(sk_\w+)\s*\(", part.source.read_text(), re.M)
    assert sorted(defined) == sorted(part.functions)
    assert part.init is None or part.init in part.functions


def test_missing_gcc_runs_numpy_with_one_warning_per_part(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "_libs", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", "")
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
        emit_digests("linear_signflip", tmp_path / "out2")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = _kernel_warnings(record)
    assert "gcc not found" in str(warning.message)
    assert len(_fill_warnings(record)) == 1 and len(record) == 2
    assert _kernel.load(KERNEL) is None and _kernel.load(FILL) is None


@needs_gcc
def test_unwritable_cache_builds_in_a_temp_dir(fresh_load, monkeypatch, tmp_path):
    # A file where the cache directory should be: no user can create it.
    (tmp_path / "not-a-dir").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not-a-dir"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert _kernel.load(KERNEL) is not None
    assert digests == DIGESTS["relu_signflip"]


@needs_gcc
def test_second_process_loads_the_cached_library_without_gcc(tmp_path):
    cache = tmp_path / "cache"
    built = _kernel.build(_kernel.PARTS[KERNEL], cache / "sgdexp")
    load = (
        "import warnings; warnings.simplefilter('error', RuntimeWarning);"
        "from sgdexp import _kernel; assert _kernel.load('step kernel') is not None"
    )
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", load], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert list((cache / "sgdexp").iterdir()) == [built]


@needs_gcc
def test_gateless_kernel_reports_gate_violations(monkeypatch, tmp_path):
    mutant = _mutant(tmp_path, KERNEL, GATE, "1.0")
    lib = _opened(mutant, tmp_path)
    mutant.self_test(lib)  # the dot is untouched
    monkeypatch.setitem(_kernel._libs, KERNEL, lib)
    assert _relu_gate_violations() > 0
    _turn_off(monkeypatch, KERNEL)
    assert _relu_gate_violations() == 0


@needs_gcc
def test_sequential_dot_fails_self_test_and_engine_falls_back(fresh_load, monkeypatch, tmp_path):
    mutant = _mutant(tmp_path, KERNEL, DOT_ORDER, SEQUENTIAL_DOT)
    with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
        mutant.self_test(_opened(mutant, tmp_path))

    monkeypatch.setitem(_kernel.PARTS, KERNEL, mutant)
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = _kernel_warnings(record)
    assert "self-test" in str(warning.message)
    assert _kernel.load(KERNEL) is None


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
    assert _kernel.load(KERNEL) is not None
    kernel = run_batch(spec, stream, range(12), **kwargs)
    _turn_off(monkeypatch, KERNEL)
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
    assert _kernel.load(KERNEL) is not None
    kernel = run_batch(spec, stream, range(3), **kwargs)
    _turn_off(monkeypatch, KERNEL)
    reference = run_batch(spec, stream, range(3), **kwargs)
    for a, b in zip(kernel, reference):
        assert np.array_equal(_bits(a.iterates), _bits(b.iterates))
        assert np.all(np.signbit(b.iterates[0])) and not np.any(np.signbit(b.x_final))


@needs_gcc
def test_swapped_dot4_steps_fail_self_test_and_engine_falls_back(fresh_load, monkeypatch, tmp_path):
    mutant = _mutant(tmp_path, KERNEL, DOT4_ORDER, DOT4_SWAPPED)
    with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
        mutant.self_test(_opened(mutant, tmp_path))

    monkeypatch.setitem(_kernel.PARTS, KERNEL, mutant)
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = _kernel_warnings(record)
    assert "self-test" in str(warning.message)
    assert _kernel.load(KERNEL) is None


@needs_gcc
def test_kernel_self_test_is_quick():
    # It takes ~1.3 ms on a 2-vCPU VM, up to twice that when the machine is
    # busy; scripts/step_kernel_bench.py reports the figure itself.  The
    # bound catches only a self-test grown several times over.
    lib = _kernel.load(KERNEL)
    best = min(timeit.repeat(lambda: _kernel.dot_self_test(lib), number=1, repeat=5))
    assert best < 10e-3


#: Dimensions of the tile tests: below, at and past each multiple of 8 and of 2.
TILE_DIMS = (1, 2, 7, 8, 9, 16, 17, 100)


def _block_state(S, d, kinds, channel, hitting, n=24):
    """The step function's inputs for one block of G = len(kinds) groups x S seeds.

    Every group has both audit bits.  A third of the rows, drawn per seed,
    lie off the unit sphere by 1e-9, so the step-law audit counts their
    moves; the gate audit counts the moves at <x, a> < 0 of the sign and
    GLM-Tron lanes.  With ``hitting``, lam^{2k} grows by 1.2 a step, and
    most seeds hit midway.
    """
    rng = np.random.default_rng([S, d, len(kinds), hitting])
    G, relu = len(kinds), GATED_SIGN in kinds
    A = rng.standard_normal((S, n, d))
    A /= np.linalg.norm(A, axis=2, keepdims=True)
    A[rng.random((S, n)) < 1 / 3] *= 1.0 + 1e-9
    Xt = rng.standard_normal((S, d))
    clean = np.einsum("snd,sd->sn", A, Xt)
    if relu:
        np.maximum(clean, 0.0, out=clean)
    XI, P = rng.random((S, n)), np.linspace(0.2, 0.4, G)[:, None]
    st = _step_state(
        0.1 * rng.standard_normal((G, S, d)),
        kinds,
        [AUDIT_STEP_LAW | AUDIT_GATE] * G,
        relu,
        channel,
        P,
        hitting=(Xt, rng.uniform(0.5, 2.0, S), 10.0 * d, np.sqrt(1.2)) if hitting else None,
    )
    _set_block(st, A, clean, XI, rng.uniform(0.01, 0.1, (G, S, n)))
    return st


def _stepped(st, advance):
    """The bits the step function leaves after two stretches of the block, from step k = 100."""
    advance(0, 5, 100)
    advance(5, st.A.shape[1], 100)
    kept = (st.x, st.step_viol, st.gate_viol) + ((st.hit_k, st.lam2k) if st.hit_k is not None else ())
    return [arr.tobytes() for arr in kept]


@needs_gcc
@pytest.mark.parametrize("channel", [SignFlip(0.3), ResidualSignAdversary(0.3)], ids=["sign_flip", "residual_sign"])
@pytest.mark.parametrize("S", range(1, 10))
def test_seed_tiles_match_numpy_body(S, channel):
    # S = 1..9 has 0, 1 or 2 full tiles of four seeds, and 0..3 seeds in a
    # short tile whose unused slots repeat its first seed.
    lib = _kernel.load(KERNEL)
    assert lib is not None
    counts = np.zeros(3, dtype=np.int64)  # step-law and gate violations, hits
    for d in TILE_DIMS:
        for kinds in ([SIGN, GLMTRON], [GATED_SIGN, GLMTRON], [SIGN], [GATED_SIGN]):
            hitting = len(kinds) == 1
            st, ref = (_block_state(S, d, kinds, channel, hitting) for _ in range(2))
            assert _stepped(st, _bind_c(lib, st)) == _stepped(ref, functools.partial(_step_numpy, ref)), (d, kinds)
            counts += [st.step_viol.sum(), st.gate_viol.sum(), 0 if st.hit_k is None else np.sum(st.hit_k >= 0)]
    assert np.all(counts > 0)


#: The fill's fast-path test and sign flip, the targets of the mutation checks.
ACCEPT = "if (rabs < ki[idx])"
SIGN_FLIP = "bits ^= ((r >> 8) & 1) << 63;"


def _state(rng):
    """A generator's state, comparable also where it holds arrays."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


def _with_and_without_fill(monkeypatch, draw):
    """``draw()`` with the compiled fill, then with numpy's ``standard_normal`` and row norms."""
    lib = _kernel.load(FILL)
    assert lib is not None
    results = [draw()]
    _turn_off(monkeypatch, FILL)
    results.append(draw())
    return results


def _sphere_rows(make_rng, n, d):
    """``sample_block`` of n rows on S^{d-1} from a fresh generator: the rows and its final state."""
    rng = make_rng()
    return sample_block(GaussianSphere(d), rng, n)[0], _state(rng)


@needs_gcc
@needs_npyrandom
class TestGaussianFill:
    """``sample_block``'s Gaussian rows with the fill against numpy's path, and the per-part fallback."""

    @pytest.mark.parametrize("n, d", [(0, 5), (1, 2), (7, 3), (2048, 2), (20_000, 10)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 12345, 2**63 + 11])
    def test_values_and_state_match_numpy(self, seed, n, d, monkeypatch):
        # 20000 x 10 draws take numpy's slow path ~3000 times.
        draw = functools.partial(_sphere_rows, lambda: np.random.default_rng(seed), n, d)
        (got, got_state), (want, want_state) = _with_and_without_fill(monkeypatch, draw)
        assert np.array_equal(_bits(got), _bits(want))
        assert got_state == want_state

    @pytest.mark.parametrize("kind", ["PCG64DXSM", "MT19937", "Philox", "SFC64"])
    def test_other_bit_generators_match_numpy(self, kind, monkeypatch):
        make_rng = lambda: np.random.Generator(getattr(np.random, kind)(3))  # noqa: E731
        (got, got_state), (want, want_state) = _with_and_without_fill(
            monkeypatch, functools.partial(_sphere_rows, make_rng, 10_000, 5)
        )
        assert np.array_equal(_bits(got), _bits(want))
        assert got_state == want_state

    def test_two_threads_fill_as_in_sequence(self, monkeypatch):
        n, d, seeds = 50_000, 8, (31, 32)
        lib = _kernel.load(FILL)
        assert lib is not None
        _turn_off(monkeypatch, FILL)
        want = [_sphere_rows(lambda: np.random.default_rng(seed), n, d)[0] for seed in seeds]
        monkeypatch.setitem(_kernel._libs, FILL, lib)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        outs = [np.empty((n, d)) for _ in seeds]
        barrier = threading.Barrier(len(seeds))

        def fill(rng, out):
            barrier.wait(timeout=10)
            for part in np.array_split(out, 8):  # many calls, interleaved with the other thread
                sample_block(GaussianSphere(d), rng, len(part), out=part)

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
        assert _kernel.load(FILL) is not None
        fast, _ = sample_block(model, np.random.default_rng(4), 3000)
        into = sample_block(model, np.random.default_rng(4), 3000, out=np.empty((3000, 11)))[0]
        _turn_off(monkeypatch, FILL)
        slow, _ = sample_block(model, np.random.default_rng(4), 3000)
        assert np.array_equal(_bits(fast), _bits(slow))
        assert np.array_equal(_bits(into), _bits(slow))

    def test_cache_name_follows_the_archive_bytes(self, tmp_path, fresh_fill):
        assert _kernel.load(FILL) is not None
        cache = Path(os.environ["XDG_CACHE_HOME"]) / "sgdexp"
        (built,) = cache.glob("normalfill-*.so")
        archive = tmp_path / "libnpyrandom.a"
        shutil.copyfile(_kernel.NPYRANDOM, archive)
        part = dataclasses.replace(_kernel.PARTS[FILL], archive=archive)
        assert _kernel.build(part, cache) == built  # same bytes: the cached library
        with open(archive, "ab") as fh:
            fh.write(b"\n")  # an upgraded numpy: other bytes at the same path
        key = _kernel.cache_key(part.source.read_text(), part.args, archive)
        assert key not in built.name

    def test_accepting_rejected_words_fails_self_test(self, fresh_fill, monkeypatch, tmp_path):
        mutant = _mutant(tmp_path, FILL, ACCEPT, "if (1)")
        with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
            mutant.self_test(_opened(mutant, tmp_path))

        monkeypatch.setitem(_kernel.PARTS, FILL, mutant)
        with pytest.warns(RuntimeWarning) as record:
            digests = emit_digests("relu_signflip", tmp_path / "out")
        assert digests == DIGESTS["relu_signflip"]
        (warning,) = _fill_warnings(record)
        assert "Gaussian fill unavailable, using numpy: self-test" in str(warning.message)
        assert _kernel.load(FILL) is None
        assert _kernel.load(KERNEL) is not None  # the step kernel is a part of its own
        assert _kernel_warnings(record) == []

    def test_dropped_sign_flip_fails_self_test(self, fresh_fill, monkeypatch, tmp_path):
        mutant = _mutant(tmp_path, FILL, SIGN_FLIP, "")
        with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
            mutant.self_test(_opened(mutant, tmp_path))

        monkeypatch.setitem(_kernel.PARTS, FILL, mutant)
        model = GaussianSphere(9)
        with pytest.warns(RuntimeWarning) as record:
            first, _ = sample_block(model, np.random.default_rng(8), 500)
            second, _ = sample_block(model, np.random.default_rng(8), 500)
        (warning,) = record
        assert "Gaussian fill unavailable" in str(warning.message)
        _turn_off(monkeypatch, FILL)
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
        lib = _kernel.load(FILL)
        assert lib is not None
        # Every branch of numpy's pairwise sum; n = 20000 at a few d, to keep the buffers small.
        cases = [(d, n) for d in (*range(1, 131), 257, 1000) for n in (1, 97)]
        cases += [(d, 20_000) for d in (1, 8, 20, 100, 129)]
        for d, n in cases:
            draws = []
            for fill in (lib, "turned off"):
                monkeypatch.setitem(_kernel._libs, FILL, fill)
                rng = np.random.default_rng(1000 * d + n)
                draws.append((sample_block(model_of(d), rng, n)[0], rng.bit_generator.state))
            (got, got_state), (want, want_state) = draws
            assert np.array_equal(_bits(got), _bits(want)), (d, n)
            assert got_state == want_state, (d, n)

    @pytest.mark.parametrize("d", [1, 5, 8, 20, 129])
    def test_zero_row_is_redrawn_as_normalize_rows_does(self, d, monkeypatch):
        n, seed = 4, 77
        stand_in = _ZeroWordsFill(_kernel.load(FILL), np.random.PCG64(seed), zeros=d)
        monkeypatch.setitem(_kernel._libs, FILL, stand_in)
        got, _ = sample_block(GaussianSphere(d), np.random.default_rng(0), n)
        assert stand_in.zeros < 0  # every zero word was drawn

        _turn_off(monkeypatch, FILL)
        ref_rng = np.random.Generator(np.random.PCG64(seed))
        g = np.zeros((n, d))
        g[1:] = ref_rng.standard_normal((n - 1, d))
        want = _normalize_rows(g, ref_rng, _standard_normal)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.linalg.norm(got[0]) == pytest.approx(1.0, rel=1e-12)
        assert stand_in.inner.state == ref_rng.bit_generator.state

    def test_sequential_sum_fails_self_test(self, fresh_fill, monkeypatch, tmp_path):
        mutant = _mutant(tmp_path, FILL, SHORT_SUM, "if (1) {")
        with pytest.raises(_kernel.KernelUnavailable, match="self-test: the sphere pass differs"):
            mutant.self_test(_opened(mutant, tmp_path))

        monkeypatch.setitem(_kernel.PARTS, FILL, mutant)
        model = GaussianSphere(20)
        with pytest.warns(RuntimeWarning) as record:
            first, _ = sample_block(model, np.random.default_rng(8), 500)
            second, _ = sample_block(model, np.random.default_rng(8), 500)
        (warning,) = record
        assert "Gaussian fill unavailable, using numpy: self-test" in str(warning.message)
        assert _kernel.load(FILL) is None
        ref, _ = sample_block(model, np.random.default_rng(8), 500)
        assert np.array_equal(_bits(first), _bits(ref)) and np.array_equal(_bits(second), _bits(ref))

    def test_self_test_is_quick(self):
        lib = _kernel.load(FILL)
        best = min(timeit.repeat(lambda: _kernel.sphere_self_test(lib), number=1, repeat=5))
        assert best < 3e-3


@needs_gcc
def test_missing_archive_turns_off_only_the_fill(fresh_fill, monkeypatch, tmp_path):
    monkeypatch.delitem(_kernel._libs, KERNEL, raising=False)
    missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    monkeypatch.setitem(_kernel.PARTS, FILL, dataclasses.replace(_kernel.PARTS[FILL], archive=missing))
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
        emit_digests("linear_signflip", tmp_path / "out2")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = record
    assert str(warning.message).startswith("sgdexp Gaussian fill unavailable, using numpy: ")
    assert str(missing) in str(warning.message)
    assert _kernel.load(FILL) is None
    assert _kernel.load(KERNEL) is not None  # the step kernel still loads
