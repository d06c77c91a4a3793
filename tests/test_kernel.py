"""The compiled parts, step kernel, Gaussian fill and clean loss: loading, per-part fallback to numpy, mutation checks."""

import ctypes
import dataclasses
import functools
import importlib.util
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

import sgdexp.datasets as datasets_mod
import sgdexp.measurement as measurement_mod
from sgdexp import _kernel
from sgdexp.corruption import AdditiveOblivious, NoCorruption, ResidualSignAdversary, SignFlip, Uniform
from sgdexp.drift import mc_drift_linear_term
from sgdexp.measurement import (
    DatasetRows,
    GaussianSphere,
    NormalizedIIDSubGaussian,
    _normalize_rows,
    _standard_normal,
    sample_block,
    sample_seeds,
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
    _step_numpy,
    _step_state,
    run_batch,
)
from test_frozen_outputs import DIGESTS, WINE_CSV, _write_wine_csv, emit_digests

SRC = Path(__file__).resolve().parent.parent / "src"
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH to build the kernel")
needs_npyrandom = pytest.mark.skipif(
    not (_kernel.NPYRANDOM.is_file() and (_kernel.NUMPY_INCLUDE / "numpy/random/bitgen.h").is_file()),
    reason="this numpy ships no libnpyrandom.a or bitgen.h to build the Gaussian fill",
)
KERNEL, FILL, CLEAN = "step kernel", "Gaussian fill", "clean loss"
#: The ReLU gate of the sign rule, and the rule without it.
GATE, UNGATED = "select_##V(dt >= 0.0, fill_##V(1.0), zero)", "fill_##V(1.0)"


def _macro_lines(*statements):
    """``statements`` as lines of the kernel's WIDTH macro: indented, a backslash at column 100."""
    return "".join(("            " + s).ljust(99) + "\\\n" for s in statements)


#: The dot's pair steps per 8 elements, as einsum takes them (6-7, 4-5, 2-3, 0-1), and in sequence.
_DOT_STEPS = [f"add_##V(K, c, x, a, p{offset});" for offset in (" + 3", " + 2", " + 1", "")]
DOT_ORDER, SEQUENTIAL_DOT = _macro_lines(*_DOT_STEPS), _macro_lines(*reversed(_DOT_STEPS))
#: The first two pair steps of the dot, and the same two swapped.
DOT4_ORDER, DOT4_SWAPPED = _macro_lines(*_DOT_STEPS[:2]), _macro_lines(*_DOT_STEPS[1::-1])


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
    """The next Gaussian draw loads the fill anew, from an empty cache under tmp_path.

    Whatever the test loads goes into a copy of the loaded parts, so no later
    test sees it, even when none had loaded the fill before.
    """
    monkeypatch.setattr(_kernel, "_libs", {name: lib for name, lib in _kernel._libs.items() if name != FILL})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def _report_features(monkeypatch, **features):
    """The loader reads this CPU's features with ``features`` (numpy's names) set as given."""
    reported = {**_kernel.cpu_features(), **features}
    monkeypatch.setattr(_kernel, "cpu_features", lambda: reported)


def _cpu_build_in_cache(part):
    """``part`` as this CPU builds it, opened from the cache ``load`` reads.

    ``load`` then opens this same library, so a mutant's self-test and its
    fallback through the loader take one gcc run.
    """
    return _opened(_kernel.for_cpu(part), _kernel.cache_dir())


@pytest.fixture(scope="session")
def session_kernel(kernel_cache):
    """The step kernel as this CPU builds it, in the session's cache (built there on first use)."""
    return _kernel.build(_kernel.for_cpu(_kernel.PARTS[KERNEL]), kernel_cache / "sgdexp")


def _copy_into(lib, directory):
    """A copy of the library ``lib`` in ``directory``, under its own file name: no gcc."""
    directory.mkdir(parents=True, exist_ok=True)
    return Path(shutil.copy(lib, directory / lib.name))


def _copying_build(monkeypatch, lib):
    """``_kernel.build`` copies ``lib`` into the directory it is given for the part ``lib`` was built from."""
    build, built_from = _kernel.build, _kernel.for_cpu(_kernel.PARTS[KERNEL])

    def copying_build(part, directory):
        return _copy_into(lib, directory) if part == built_from else build(part, directory)

    monkeypatch.setattr(_kernel, "build", copying_build)


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
def test_unwritable_cache_builds_in_a_temp_dir(fresh_load, session_kernel, monkeypatch, tmp_path):
    _copying_build(monkeypatch, session_kernel)
    # A file where the cache directory should be: no user can create it.
    (tmp_path / "not-a-dir").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not-a-dir"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert _kernel.load(KERNEL) is not None
    assert digests == DIGESTS["relu_signflip"]


@needs_gcc
def test_second_process_loads_the_cached_library_without_gcc(session_kernel, tmp_path):
    # The one build the loader picks on this CPU.
    cache = tmp_path / "cache"
    built = [_copy_into(session_kernel, cache / "sgdexp")]
    load = (
        "import warnings; warnings.simplefilter('error', RuntimeWarning);"
        "from sgdexp import _kernel; assert _kernel.load('step kernel') is not None"
    )
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", load], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted((cache / "sgdexp").iterdir()) == built


@needs_gcc
@pytest.mark.parametrize("wide", [False, True], ids=["base", "avx512f"])
def test_one_build_chosen_from_the_cpu_is_built_and_opened(wide, fresh_load, session_kernel, monkeypatch):
    if wide and not _kernel.cpu_features().get("AVX512F"):
        pytest.skip("this CPU cannot run the AVX-512 build")
    _copying_build(monkeypatch, session_kernel)  # the build this CPU chooses; the other runs gcc
    _report_features(monkeypatch, AVX512F=wide)
    opened, open_library = [], _kernel.open_library
    monkeypatch.setattr(_kernel, "open_library", lambda part, path: opened.append(path) or open_library(part, path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lib = _kernel.load(KERNEL)
    assert lib.sk_isa() in ((b"avx512f",) if wide else (b"sse2", b"generic"))
    # The wide build's name key is its source and the one flag -mavx512f.
    key = _kernel.cache_key(_kernel.PARTS[KERNEL].source.read_text(), ("-mavx512f",) if wide else ())
    cache = Path(os.environ["XDG_CACHE_HOME"]) / "sgdexp"
    assert opened == [cache / f"stepkernel-{key}.so"]
    assert list(cache.glob("stepkernel-*.so")) == opened


@needs_gcc
def test_base_build_compiles_without_warnings(tmp_path):
    # The base build compiles no 256- or 512-bit code, whose vector arguments
    # gcc warns would change the ABI without AVX (-Wpsabi).
    part = _kernel.PARTS[KERNEL]
    _kernel.build(dataclasses.replace(part, args=part.args + ("-Wall", "-Werror")), tmp_path)


@needs_gcc
def test_gateless_kernel_reports_gate_violations(monkeypatch, tmp_path):
    mutant = _mutant(tmp_path, KERNEL, GATE, UNGATED)
    lib = _opened(mutant, tmp_path)
    mutant.self_test(lib)  # the dot is untouched
    monkeypatch.setitem(_kernel._libs, KERNEL, lib)
    assert _relu_gate_violations() > 0
    _turn_off(monkeypatch, KERNEL)
    assert _relu_gate_violations() == 0


@needs_gcc
def test_sequential_dot_fails_self_test_and_engine_falls_back(fresh_load, monkeypatch, tmp_path):
    mutant = _mutant(tmp_path, KERNEL, DOT_ORDER, SEQUENTIAL_DOT)
    _report_features(monkeypatch, AVX512F=False)  # the base build, the quicker gcc run
    with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
        mutant.self_test(_cpu_build_in_cache(mutant))

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
    # Built as this CPU builds it: with AVX-512F, the -mavx512f build's
    # self-test must catch the wrong order in its 256- and 512-bit passes too.
    mutant = _mutant(tmp_path, KERNEL, DOT4_ORDER, DOT4_SWAPPED)
    with pytest.raises(_kernel.KernelUnavailable, match="self-test"):
        mutant.self_test(_cpu_build_in_cache(mutant))

    monkeypatch.setitem(_kernel.PARTS, KERNEL, mutant)
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = _kernel_warnings(record)
    assert "self-test" in str(warning.message)
    assert _kernel.load(KERNEL) is None


@needs_gcc
def test_reciprocal_decays_fail_self_test_and_engine_falls_back(fresh_load, monkeypatch, tmp_path):
    # 1 / lam^(k+j) is within an ulp of lam^-(k+j), and not always equal.
    mutant = _mutant(tmp_path, KERNEL, "pow(lam, (double)(-k - j))", "1.0 / pow(lam, (double)(k + j))")
    _report_features(monkeypatch, AVX512F=False)  # the base build, the quicker gcc run
    with pytest.raises(_kernel.KernelUnavailable, match="self-test: the step decays differ from math.pow"):
        mutant.self_test(_cpu_build_in_cache(mutant))

    monkeypatch.setitem(_kernel.PARTS, KERNEL, mutant)
    with pytest.warns(RuntimeWarning) as record:
        digests = emit_digests("relu_signflip", tmp_path / "out")
    assert digests == DIGESTS["relu_signflip"]
    (warning,) = _kernel_warnings(record)
    assert "self-test: the step decays" in str(warning.message)
    assert _kernel.load(KERNEL) is None


def _self_test_over_numpy(name, numpy_work):
    """The best time of the part ``name``'s load-time self-test over the best time of ``numpy_work``.

    The two are timed in turn, nine times each, in this process, so a busy
    machine slows both; scripts/step_kernel_bench.py reports each
    self-test's own time.
    """
    lib, self_test = _kernel.load(name), _kernel.PARTS[name].self_test
    assert lib is not None
    timed = [(timeit.timeit(lambda: self_test(lib), number=1), timeit.timeit(numpy_work, number=1)) for _ in range(9)]
    return min(t for t, _ in timed) / min(w for _, w in timed)


def _einsum_dots():
    """The numpy work of the kernel's dot check: its two einsums at d = 1..130."""
    buf = np.random.default_rng(0).standard_normal(12 * 130)
    for d in range(1, 131):
        X, A = buf[: 6 * d].reshape(2, 3, d), buf[6 * d : 12 * d].reshape(3, 2, d)
        np.einsum("gsd,sd->gs", X, A[:, 1, :])
        np.einsum("snd,snd->sn", A, A)


@needs_gcc
def test_kernel_self_test_is_quick():
    # ~1.6 times the einsums alone (1.1-1.3 ms on a 2-vCPU VM, the dots and
    # the decays).  The bound catches only a self-test grown several times over.
    assert _self_test_over_numpy(KERNEL, _einsum_dots) < 5.0


#: Dimensions of the tile tests: below, at and past each multiple of 8 and of 2.
TILE_DIMS = (1, 2, 7, 8, 9, 16, 17, 100)


def _block_state(S, d, kinds, channel, hitting, n=24):
    """The step function's inputs for one block of G = len(kinds) groups x S seeds.

    The groups' corruption probabilities are 0.2, 0.4, 0 and 0 in turn.
    Every group has both audit bits.  A third of the rows, drawn per seed, lie
    off the unit sphere by 1e-9, so the step-law audit counts their moves;
    the gate audit counts the moves at <x, a> < 0 of the sign and GLM-Tron
    lanes.  With S > 1 the last seed is a dataset stream of positive rows
    whose responses are all -0.0 and whose draws never corrupt, from lanes
    at x = -0.0: there <x, a> is +0.0, and a GLM-Tron lane moves by
    (y - 0.0) a, so it stays at -0.0 while each response y is -0.0, and
    turns to +0.0 at the first +0.0 (an additive lane at p > 0 adds 0.0).
    With ``hitting``, lam^{2k} grows by 1.2 a step, and most seeds hit
    midway.  The draws do not depend on ``channel``.
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
    XI, NU, P = rng.random((S, n)), rng.uniform(-1.0, 1.0, (S, n)), np.array([0.2, 0.4, 0.0, 0.0][:G])[:, None]
    x = 0.1 * rng.standard_normal((G, S, d))
    if S > 1:
        x[:, -1], clean[-1], A[-1], XI[-1] = -0.0, -0.0, np.abs(A[-1]), 0.5 + XI[-1] / 2
    st = _step_state(
        x,
        kinds,
        [AUDIT_STEP_LAW | AUDIT_GATE] * G,
        relu,
        channel,
        P,
        n,
        hitting=(Xt, rng.uniform(0.5, 2.0, S), 10.0 * d, np.sqrt(1.2)) if hitting else None,
    )
    st.A[...], st.clean[...], st.XI[...] = A, clean, XI
    if st.NU is not None:
        st.NU[...] = NU
    st.steps[...] = rng.uniform(0.01, 0.1, (G, S, n))
    return st


def _split(lib, st, s):
    """The kernel call for seeds [0, s), then for seeds [s, S), each with its own binding."""
    S = st.x.shape[1]
    first, second = _bind_c(lib, st, range(0, s)), _bind_c(lib, st, range(s, S))
    return lambda j0, j1, k: (first(j0, j1, k), second(j0, j1, k))


def _stepped(st, advance):
    """The bits the step function leaves after two stretches of the block, from step k = 100."""
    advance(0, 5, 100)
    advance(5, st.A.shape[1], 100)
    kept = (st.x, st.step_viol, st.gate_viol) + ((st.hit_k, st.lam2k) if st.hit_k is not None else ())
    return [arr.tobytes() for arr in kept]


#: Every corruption channel, as the step function applies it at the step.
BLOCK_CHANNELS = {
    "none": NoCorruption(),
    "sign_flip": SignFlip(0.3),
    "residual_sign": ResidualSignAdversary(0.3),
    "additive": AdditiveOblivious(0.3, Uniform(1.0)),
}


@needs_gcc
@pytest.mark.parametrize("channel", list(BLOCK_CHANNELS.values()), ids=list(BLOCK_CHANNELS))
@pytest.mark.parametrize("S", range(1, 10))
def test_seed_tiles_match_numpy_body(S, channel):
    # S = 1..9 has 0, 1 or 2 full tiles of four seeds, and 0..3 seeds in a
    # short tile, whose passes have fewer chains; split at S // 2, each range
    # has tiles of its own.
    lib = _kernel.load(KERNEL)
    assert lib is not None
    counts = np.zeros(3, dtype=np.int64)  # step-law and gate violations, hits
    for d in TILE_DIMS:
        for kinds in ([SIGN, GLMTRON, SIGN, GLMTRON], [GATED_SIGN, GLMTRON, GATED_SIGN, GLMTRON], [SIGN], [GATED_SIGN]):
            hitting = len(kinds) == 1
            st, ref, halves = (_block_state(S, d, kinds, channel, hitting) for _ in range(3))
            want = _stepped(ref, functools.partial(_step_numpy, ref))
            assert _stepped(st, _bind_c(lib, st, range(S))) == want, (d, kinds)
            # Two seed ranges, split anywhere, step their seeds alone.
            assert _stepped(halves, _split(lib, halves, S // 2)) == want, (d, kinds)
            counts += [st.step_viol.sum(), st.gate_viol.sum(), 0 if st.hit_k is None else np.sum(st.hit_k >= 0)]
            if not hitting:
                # The groups at p = 0 are stepped as if uncorrupted.
                clean = _block_state(S, d, kinds, NoCorruption(), hitting)
                _stepped(clean, _bind_c(lib, clean, range(S)))
                for arr, want_arr in zip((st.x, st.step_viol, st.gate_viol), (clean.x, clean.step_viol, clean.gate_viol)):
                    assert np.array_equal(_bits(arr[2:]), _bits(want_arr[2:])), (d, kinds)
    assert np.all(counts > 0)


#: The grid of lane groups (four, two and one to a vector, and their mixes), lengths (every pair and
#: tail case of the dot, twice) and seeds (one tile of four, and short tiles of one to three) of
#: test_group_vectors_match_numpy_body.
GRID_GROUPS, GRID_DIMS, GRID_SEEDS = (1, 2, 3, 4, 5, 8), (1, 2, 7, 8, 9, 100, 101), (1, 3, 5, 10)


def _grid_state(G, S, d, channel, n=12):
    """The step function's inputs for G groups x S seeds, every audit on, with non-finite entries.

    Odd G runs the ReLU link with a gated sign group, then GLM-Tron groups;
    even G the linear link with sign and GLM-Tron groups in turn.  The groups'
    corruption probabilities are 0.2, 0.4, 0 and 0 in turn.  Lane (0, 0) has
    an infinite step at step 3, and the last seed a NaN clean response at
    step 5, so that lane and that seed's lanes get non-finite coefficients,
    which move the padding of an odd d's last pair by coef * 0.0 = NaN next
    to other groups' finite lanes.
    """
    rng = np.random.default_rng([G, S, d])
    relu = G % 2 == 1
    kinds = [GATED_SIGN, GLMTRON, GLMTRON, GLMTRON] if relu else [SIGN, GLMTRON]
    A = rng.standard_normal((S, n, d))
    A /= np.linalg.norm(A, axis=2, keepdims=True)
    Xt = rng.standard_normal((S, d))
    clean = np.einsum("snd,sd->sn", A, Xt)
    if relu:
        np.maximum(clean, 0.0, out=clean)
    clean[-1, 5] = np.nan
    st = _step_state(
        0.1 * rng.standard_normal((G, S, d)),
        np.resize(kinds, G),
        [AUDIT_STEP_LAW | AUDIT_GATE] * G,
        relu,
        channel,
        np.resize([0.2, 0.4, 0.0, 0.0], G)[:, None],
        n,
    )
    st.A[...], st.clean[...], st.XI[...] = A, clean, rng.random((S, n))
    if st.NU is not None:
        st.NU[...] = rng.uniform(-1.0, 1.0, (S, n))
    st.steps[...] = rng.uniform(0.01, 0.1, (G, S, n))
    st.steps[0, 0, 3] = np.inf
    return st


def _stepped_nan(st, advance):
    """``_stepped``, every NaN of the lanes made one NaN.

    Where two NaNs meet, the one an add keeps follows its operand order,
    which neither numpy nor the C compiler fixes; the kernel before lane
    groups shared vectors differed from numpy's NaN signs too.
    """
    stepped = _stepped(st, advance)
    return [np.where(np.isnan(st.x), np.nan, st.x).tobytes()] + stepped[1:]


@needs_gcc
@pytest.mark.parametrize("channel", list(BLOCK_CHANNELS.values()), ids=list(BLOCK_CHANNELS))
@pytest.mark.parametrize("G", GRID_GROUPS)
def test_group_vectors_match_numpy_body(G, channel):
    # Every lane's bits but NaN payloads, audit counts included, from the
    # compiled kernel in use (AVX-512 where the CPU has it) on one seed range
    # and on two, split as run_batch splits them, against the numpy body.
    lib = _kernel.load(KERNEL)
    assert lib is not None
    for S in GRID_SEEDS:
        for d in GRID_DIMS:
            st, ref, halves = (_grid_state(G, S, d, channel) for _ in range(3))
            with np.errstate(invalid="ignore"):
                want = _stepped_nan(ref, functools.partial(_step_numpy, ref))
            assert not np.isfinite(ref.x).all(), (S, d)
            assert _stepped_nan(st, _bind_c(lib, st, range(S))) == want, (S, d)
            assert _stepped_nan(halves, _split(lib, halves, S // 2)) == want, (S, d)


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
#: The drift pass's first two chain steps, and the same two swapped.
DRIFT_ORDER = "            add3(c, row, u, i + 6);\n            add3(c, row, u, i + 4);\n"
DRIFT_SWAPPED = "            add3(c, row, u, i + 4);\n            add3(c, row, u, i + 6);\n"
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
    """The loaded fill with ``rngs[i]`` drawing from a bitgen_t whose first ``zeros[i]`` words are 0, then ``inners[i]``'s.

    A 0 word is the ziggurat's +0.0, so ``zeros[i] = d`` makes seed i's
    first row all zero.  Stands in for the fill library; each Generator
    that the draw passes only lends its lock and names its stand-in.
    """

    def __init__(self, lib, rngs, inners, zeros):
        self.lib, self.inners, self.zeros = lib, inners, list(zeros)
        self.bitgens = {}
        for i, (rng, inner) in enumerate(zip(rngs, inners)):
            c = inner.ctypes
            words = _NEXT_U64(lambda _, i=i, c=c: 0 if self._take_zero(i) else c.next_uint64(c.state))
            self.bitgens[rng.bit_generator.ctypes.bit_generator.value] = _Bitgen(
                None,
                words,
                _NEXT_U32(lambda _, c=c: c.next_uint32(c.state)),
                _NEXT_DOUBLE(lambda _, c=c: c.next_double(c.state)),
                words,
            )

    def _take_zero(self, i):
        self.zeros[i] -= 1
        return self.zeros[i] >= 0

    def sk_sphere_fill(self, m, gens, *args):
        stand_ins = (ctypes.c_void_p * m)(*(ctypes.addressof(self.bitgens[gens[i]]) for i in range(m)))
        return self.lib.sk_sphere_fill(m, stand_ins, *args)

    def sk_drift_pass(self, gen, *args):
        return self.lib.sk_drift_pass(ctypes.addressof(self.bitgens[gen]), *args)


def _zero_led_rows(rng, n, d, zero_rows):
    """``_normalize_rows`` of n rows whose first ``zero_rows`` are 0 and the rest ``rng``'s normals, on numpy."""
    g = np.zeros((n, d))
    g[zero_rows:] = rng.standard_normal((n - zero_rows, d))
    return _normalize_rows(g, rng, _standard_normal)


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

    @GAUSSIAN_MODELS
    def test_sample_seeds_in_one_call_match_per_seed_draws(self, model_of, monkeypatch):
        # Three seeds' rows and uniforms into the first n steps of (m, cap) blocks, as the engine draws.
        m, cap, n, d = 3, 40, 33, 20
        lib = _kernel.load(FILL)
        assert lib is not None
        rngs = [np.random.default_rng(s) for s in range(2 * m)]
        A, XI = np.full((m, cap, d), np.nan), np.full((m, cap), np.nan)
        monkeypatch.setattr(measurement_mod, "sample_block", None)  # one compiled call, no per-seed draw
        assert sample_seeds(model_of(d), rngs[:m], A[:, :n], uniforms=(rngs[m:], XI[:, :n])) is None
        monkeypatch.undo()

        _turn_off(monkeypatch, FILL)
        refs = [np.random.default_rng(s) for s in range(2 * m)]
        want = np.stack([sample_block(model_of(d), rng, n)[0] for rng in refs[:m]])
        want_xi = np.stack([rng.random(n) for rng in refs[m:]])
        assert np.array_equal(_bits(A[:, :n]), _bits(want)) and np.array_equal(_bits(XI[:, :n]), _bits(want_xi))
        assert [_state(r) for r in rngs] == [_state(r) for r in refs]
        assert np.isnan(A[:, n:]).all() and np.isnan(XI[:, n:]).all()

    @pytest.mark.parametrize("d", [1, 5, 8, 20, 129])
    def test_zero_row_is_redrawn_as_normalize_rows_does(self, d, monkeypatch):
        n, seed, rng = 4, 77, np.random.default_rng(0)
        stand_in = _ZeroWordsFill(_kernel.load(FILL), [rng], [np.random.PCG64(seed)], zeros=[d])
        monkeypatch.setitem(_kernel._libs, FILL, stand_in)
        got, _ = sample_block(GaussianSphere(d), rng, n)
        assert stand_in.zeros[0] < 0  # every zero word was drawn

        _turn_off(monkeypatch, FILL)
        ref_rng = np.random.Generator(np.random.PCG64(seed))
        want = _zero_led_rows(ref_rng, n, d, 1)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.linalg.norm(got[0]) == pytest.approx(1.0, rel=1e-12)
        assert stand_in.inners[0].state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [1, 20])
    def test_later_seeds_zero_rows_are_redrawn_from_their_own_generators(self, d, monkeypatch):
        # Three seeds in one call: none, one and two zero rows; each redraw comes after every seed's rows.
        m, n, zero_rows = 3, 5, (0, 1, 2)
        rngs = [np.random.default_rng(s) for s in range(m)]
        xi_rngs = [np.random.default_rng(s) for s in range(m, 2 * m)]
        inners = [np.random.PCG64(70 + s) for s in range(m)]
        stand_in = _ZeroWordsFill(_kernel.load(FILL), rngs, inners, zeros=[z * d for z in zero_rows])
        monkeypatch.setitem(_kernel._libs, FILL, stand_in)
        A, XI = np.empty((m, n, d)), np.empty((m, n))
        sample_seeds(GaussianSphere(d), rngs, A, uniforms=(xi_rngs, XI))
        assert all(z < 0 for z in stand_in.zeros[1:])

        _turn_off(monkeypatch, FILL)
        refs = [np.random.Generator(np.random.PCG64(70 + s)) for s in range(m)]
        want = np.stack([_zero_led_rows(ref, n, d, z) for ref, z in zip(refs, zero_rows)])
        xi_refs = [np.random.default_rng(s) for s in range(m, 2 * m)]
        want_xi = np.stack([ref.random(n) for ref in xi_refs])
        assert np.array_equal(_bits(A), _bits(want)) and np.array_equal(_bits(XI), _bits(want_xi))
        assert [inner.state for inner in inners] == [ref.bit_generator.state for ref in refs]
        assert [_state(r) for r in xi_rngs] == [_state(r) for r in xi_refs]

    def test_a_generator_passed_twice_redraws_zero_rows_in_sequence(self, monkeypatch):
        # Seed 0's zero row is redrawn before seed 1's rows, which come from the same generator.
        n, d, rng = 3, 20, np.random.default_rng(0)
        stand_in = _ZeroWordsFill(_kernel.load(FILL), [rng], [np.random.PCG64(71)], zeros=[d])
        monkeypatch.setitem(_kernel._libs, FILL, stand_in)
        A = np.empty((2, n, d))
        sample_seeds(GaussianSphere(d), [rng, rng], A)

        _turn_off(monkeypatch, FILL)
        ref = np.random.Generator(np.random.PCG64(71))
        want = np.stack([_zero_led_rows(ref, n, d, 1), sample_block(GaussianSphere(d), ref, n)[0]])
        assert np.array_equal(_bits(A), _bits(want))
        assert stand_in.inners[0].state == ref.bit_generator.state

    def test_a_generator_passed_twice_draws_in_sequence(self):
        # One generator for both seeds' rows, and each seed's rows and uniforms from one
        # generator.  (Where numpy's generator lock is not reentrant, one call taking it twice would hang.)
        n, d = 7, 20
        for rngs, xi_of in (([0, 0], None), ([1, 2], [1, 2]), ([3, 4], [4, 3])):
            gens = {s: np.random.default_rng(s) for s in set(rngs)}
            refs = {s: np.random.default_rng(s) for s in set(rngs)}
            A, XI = np.empty((2, n, d)), np.empty((2, n))
            uniforms = None if xi_of is None else ([gens[s] for s in xi_of], XI)
            sample_seeds(GaussianSphere(d), [gens[s] for s in rngs], A, uniforms=uniforms)
            for i, s in enumerate(rngs):
                assert np.array_equal(_bits(A[i]), _bits(sample_block(GaussianSphere(d), refs[s], n)[0]))
                if xi_of is not None:
                    assert np.array_equal(_bits(XI[i]), _bits(refs[xi_of[i]].random(n)))
            assert [_state(gens[s]) for s in sorted(gens)] == [_state(refs[s]) for s in sorted(refs)]

    @pytest.mark.parametrize(
        "rngs, xi_rngs, xi_shape",
        [(2, None, None), (4, None, None), (3, 2, (3, 5)), (3, 3, (3, 4)), (3, 3, (2, 5))],
        ids=["short-rngs", "long-rngs", "short-xi-rngs", "narrow-XI", "short-XI"],
    )
    def test_mismatched_generators_or_uniforms_are_refused(self, rngs, xi_rngs, xi_shape):
        out = np.empty((3, 5, 4))
        uniforms = None
        if xi_rngs is not None:
            uniforms = ([np.random.default_rng(9 + i) for i in range(xi_rngs)], np.empty(xi_shape))
        with pytest.raises(ValueError, match="sample_seeds: "):
            sample_seeds(GaussianSphere(4), [np.random.default_rng(i) for i in range(rngs)], out, uniforms=uniforms)

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

    def test_swapped_drift_pass_sums_fail_self_test(self, fresh_fill, monkeypatch, tmp_path):
        mutant = _mutant(tmp_path, FILL, DRIFT_ORDER, DRIFT_SWAPPED)
        with pytest.raises(_kernel.KernelUnavailable, match="self-test: the drift pass differs from np.einsum"):
            mutant.self_test(_opened(mutant, tmp_path))

        monkeypatch.setitem(_kernel.PARTS, FILL, mutant)
        d, lam, p = 20, 1.0001, 0.3
        args = (1.5 / (2.0 * (lam * lam - 1.0)), p, lam, d, 0.8, GaussianSphere(d), ResidualSignAdversary(p), 500)
        with pytest.warns(RuntimeWarning) as record:
            got = mc_drift_linear_term(*args, np.random.default_rng(8))
        (warning,) = record
        assert "Gaussian fill unavailable, using numpy: self-test: the drift pass" in str(warning.message)
        _turn_off(monkeypatch, FILL)
        assert got == mc_drift_linear_term(*args, np.random.default_rng(8))

    def test_self_test_is_quick(self):
        # Both draw entries' checks, which every process that draws a sphere pays once: ~5.5
        # times numpy drawing the same values alone (1.2-1.5 ms on a 2-vCPU VM).
        def numpy_draws():
            total, calls = sum(_kernel.SPHERE_TEST_DIMS), len(_kernel.SPHERE_TEST_DIMS)
            for seed in range(2):
                np.random.default_rng(seed).standard_normal(total)
                np.random.default_rng(seed).random(calls)
            np.random.default_rng(0).standard_normal(2 * sum(_kernel.DRIFT_TEST_DIMS))

        assert _self_test_over_numpy(FILL, numpy_draws) < 15.0


@needs_gcc
def test_missing_archive_turns_off_only_the_fill(fresh_fill, session_kernel, monkeypatch, tmp_path):
    monkeypatch.delitem(_kernel._libs, KERNEL, raising=False)
    _copy_into(session_kernel, _kernel.cache_dir())
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


#: The clean-loss residual's orders, the targets of its mutation checks: the 4x1 kernel's
#: pairing of its four sums, the 4x4 kernel's (as vectors), the two-column tail, and the
#: output's +0.0 start.
SUM4_ORDER = "return (a[0] + a[2]) + (a[1] + a[3]);"
SUMS4_ORDER = "    return _mm256_hadd_pd(s02, s13);\n"
TAIL2_ORDER = "_mm256_fmadd_pd(f0, x0, _mm256_mul_pd(f1, x1))"
ZERO_START = "tail4(_mm256_add_pd(t, zero), tail, x, c, r)"
CLEAN_MUTANTS = {
    "4x1_pairs": (SUM4_ORDER, "return (a[0] + a[1]) + (a[2] + a[3]);"),
    # (a0 + a1) + (a2 + a3) of four rows at once.
    "4x4_pairs": (
        SUMS4_ORDER,
        "    const __m256d h01 = _mm256_hadd_pd(r0, r1), h23 = _mm256_hadd_pd(r2, r3);\n"
        "    return _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20), _mm256_permute2f128_pd(h01, h23, 0x31));\n",
    ),
    "tail_swapped": (TAIL2_ORDER, "_mm256_fmadd_pd(f1, x1, _mm256_mul_pd(f0, x0))"),
    "no_zero_start": (ZERO_START, "tail4(t, tail, x, c, r)"),
}


@pytest.fixture
def fresh_clean(monkeypatch, tmp_path):
    """The next clean loss loads the compiled residual anew, from an empty cache under tmp_path.

    The other parts stay as loaded, and a red-wine CSV for the ``redwine``
    digests is written in tmp_path, the working directory.
    """
    monkeypatch.setattr(_kernel, "_libs", {name: lib for name, lib in _kernel._libs.items() if name != CLEAN})
    monkeypatch.setattr(_kernel, "_cleanloss_shapes", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    _write_wine_csv(tmp_path / WINE_CSV)


def _clean_warnings(record):
    return [w for w in record if CLEAN in str(w.message)]


@needs_gcc
class TestCleanLoss:
    """``sk_resid``, the clean loss's residual in OpenBLAS's gemv order, against the numpy body."""

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 101, 1599, 1600])
    def test_residual_matches_numpy_body(self, n, relu):
        assert _kernel.load(CLEAN) is not None
        rng = np.random.default_rng([n, relu])
        for d in (*range(1, 20), 31, 32, 33, 64, 100, 130):
            F, y, X = rng.standard_normal((n, d)), rng.standard_normal(n), rng.standard_normal((2, 5, d))
            want = datasets_mod._residual_numpy(X, F, y, relu)
            assert np.array_equal(_bits(datasets_mod._residual(X, F, y, relu)), _bits(want)), d
            assert np.array_equal(_bits(datasets_mod._residual(X[1, 2], F, y, relu)), _bits(want[1, 2])), d

    def test_read_only_and_empty_stacks_match_numpy_body(self):
        assert _kernel.load(CLEAN) is not None
        rng = np.random.default_rng(12)
        F, y, X = rng.standard_normal((9, 6)), rng.standard_normal(9), rng.standard_normal((3, 6))
        for a in (F, y, X):
            a.flags.writeable = False
        for x in (X, np.broadcast_to(X[0], (2, 6)), np.empty((0, 6))):
            got, want = datasets_mod._residual(x, F, y, True), datasets_mod._residual_numpy(x, F, y, True)
            assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize(
        "F, y",
        [
            (np.ones((1, 3)), np.ones(1)),  # one row: numpy's dot, not its gemv
            (np.ones((5, 131)), np.ones(5)),  # past the self-test's lengths
            (np.ones((5, 6))[:, ::2], np.ones(5)),  # F not contiguous
            (np.ones((5, 3), dtype=np.float32), np.ones(5)),
            (np.ones((5, 3)), np.ones(10)[::2]),  # y not contiguous
            (np.ones((5, 3)), np.ones(1)),  # y broadcast
        ],
        ids=["one_row", "d_131", "strided_F", "float32_F", "strided_y", "broadcast_y"],
    )
    def test_inputs_it_does_not_fit_run_numpy(self, F, y, monkeypatch):
        assert _kernel.load(CLEAN) is not None
        calls = []
        numpy_body = datasets_mod._residual_numpy
        monkeypatch.setattr(datasets_mod, "_residual_numpy", lambda *args: calls.append(1) or numpy_body(*args))
        datasets_mod._residual(np.ones((2, F.shape[1])), F, y, False)
        assert calls == [1]

    def test_rows_split_unlike_numpy_fail_the_probe_and_run_numpy(self, monkeypatch):
        # A body that sums rows 0..5 and 6..n-1 in two calls, as two BLAS threads would: rows 4 and 5
        # take the 4x2 kernel where numpy's one-range gemv takes the 4x4 one.
        lib = _kernel.load(CLEAN)
        assert lib is not None

        def split_rows(L, n, d, F, X, y, link, out):
            lib.sk_resid(L, 6, d, F, X, y, link, out)
            lib.sk_resid(L, n - 6, d, F + 8 * 6 * d, X, y + 8 * 6, link, out + 8 * 6)

        split = type("SplitRows", (), {"sk_resid": staticmethod(split_rows)})()
        monkeypatch.setitem(_kernel._libs, CLEAN, split)
        monkeypatch.setattr(_kernel, "_cleanloss_shapes", {})
        rng = np.random.default_rng(13)
        x = rng.standard_normal(10)
        for d, n, agree in ((7, 12, True), (8, 12, False), (10, 1599, False), (10, 6, True)):
            F, y = rng.standard_normal((n, d)), rng.standard_normal(n)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                got = datasets_mod._residual(x[:d], F, y, False)
                datasets_mod._residual(x[:d], F, y, False)  # probed once per shape
            assert _kernel._cleanloss_shapes[n, d] is agree, (n, d)
            assert [str(w.message) for w in record] == [] if agree else [
                f"sgdexp clean loss unavailable for {n} x {d} features, using numpy: "
                "numpy sums some rows with other dgemv_t kernels (BLAS threads split the rows)"
            ]
            if not agree:
                assert np.array_equal(_bits(got), _bits(datasets_mod._residual_numpy(x[:d], F, y, False)))

    def test_residual_matches_numpy_body_on_threaded_gemv(self, monkeypatch):
        # numpy's OpenBLAS splits the rows of a large enough gemv among its threads (n d > 460800 in
        # OpenBLAS 0.3.31): at 3 threads a 46081-row F splits 15364 / 15364 / 15353, so rows 15360..15363
        # and 30724..30727 of sk_resid's order would differ; the engine's 1599 x 10 stays one range.
        import glob

        libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas64_*"))
        blas = ctypes.CDLL(libs[0]) if libs else None
        if blas is None or not hasattr(blas, "scipy_openblas_set_num_threads64_"):
            pytest.skip("numpy's BLAS thread count cannot be set here")
        assert _kernel.load(CLEAN) is not None
        monkeypatch.setattr(_kernel, "_cleanloss_shapes", {})
        threads = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(3)
        try:
            rng = np.random.default_rng(14)
            for n, d in ((46081, 10), (1599, 10), (4001, 130)):
                F, y, X = rng.standard_normal((n, d)), rng.standard_normal(n), rng.standard_normal((3, d))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = datasets_mod._residual(X, F, y, True)
                assert np.array_equal(_bits(got), _bits(datasets_mod._residual_numpy(X, F, y, True))), (n, d)
        finally:
            blas.scipy_openblas_set_num_threads64_(threads)

    def test_self_test_is_quick(self):
        # ~2.4 times numpy's matrix-vector products of the same cases alone (1.4 ms on a 2-vCPU VM).
        def numpy_products():
            F, X = np.random.default_rng(0).standard_normal(7 * 130), np.random.default_rng(1).standard_normal(3 * 130)
            for d in _kernel.CLEANLOSS_TEST_DIMS:
                for n in (4 + d // 4 % 4, 2 + d % 2):
                    np.matmul(F[: n * d].reshape(n, d), X[: 3 * d].reshape(3, d, 1))

        assert _self_test_over_numpy(CLEAN, numpy_products) < 8.0

    @pytest.mark.parametrize("mutant", sorted(CLEAN_MUTANTS))
    def test_mutant_order_fails_self_test_and_loss_falls_back(self, mutant, fresh_clean, monkeypatch, tmp_path):
        mutant = _mutant(tmp_path, CLEAN, *CLEAN_MUTANTS[mutant])
        with pytest.raises(_kernel.KernelUnavailable, match="self-test: the clean-loss residual differs"):
            mutant.self_test(_opened(mutant, tmp_path))

        monkeypatch.setitem(_kernel.PARTS, CLEAN, mutant)
        with pytest.warns(RuntimeWarning) as record:
            digests = emit_digests("redwine", tmp_path / "out")
        assert digests == DIGESTS["redwine"]
        (warning,) = record
        assert "sgdexp clean loss unavailable, using numpy: self-test" in str(warning.message)
        assert _kernel.load(CLEAN) is None

    @pytest.mark.parametrize("missing", [("AVX2",), ("FMA3",), ("AVX2", "FMA3")], ids=["avx2", "fma3", "both"])
    def test_cpu_without_avx2_or_fma3_turns_the_part_off_before_gcc(self, missing, fresh_clean, monkeypatch, tmp_path):
        _report_features(monkeypatch, **dict.fromkeys(missing, False))
        with pytest.warns(RuntimeWarning) as record:
            digests = emit_digests("redwine", tmp_path / "out")
        assert digests == DIGESTS["redwine"]
        (warning,) = record
        lacks = " and ".join(missing)
        assert str(warning.message) == f"sgdexp clean loss unavailable, using numpy: this CPU lacks {lacks}"
        assert _kernel.load(CLEAN) is None
        assert list((tmp_path / "cache" / "sgdexp").glob("cleanloss-*.so")) == []

    def test_engine_losses_match_numpy_body(self, monkeypatch):
        # A ReLU stream of 1599 rows (n % 4 = 3) and a linear one, over both bodies.
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((1599, 10))
        losses = {}
        for relu in (False, True):
            method = "sgd_exp_relu" if relu else "sgd_exp_linear"
            spec = SolverSpec(method=method, d=10, T=300, lam=1.01, G=0.5)
            stream = StreamSpec(model=DatasetRows(rows, rng.standard_normal(1599)), relu=relu)
            for part in (_kernel.load(CLEAN), "turned off"):
                monkeypatch.setitem(_kernel._libs, CLEAN, part)
                trajectories = run_batch(spec, stream, range(3), checkpoint_every=50)
                losses.setdefault(relu, []).append(np.concatenate([t.checkpoints.clean_loss for t in trajectories]))
        for got, want in losses.values():
            assert np.array_equal(_bits(got), _bits(want))


def test_step_kernel_bench_runs(monkeypatch, capsys):
    # scripts/step_kernel_bench.py reads the engine's private step state and
    # bindings; one repeat of its main keeps it in step with them.
    path = SRC.parent / "scripts" / "step_kernel_bench.py"
    spec = importlib.util.spec_from_file_location("step_kernel_bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(sys, "argv", [str(path), "--repeat", "1"])
    # Its build timer gets a copy of the library each part loaded from the
    # cache, not a fresh gcc run; the loader tests above cover fresh builds.
    built = _kernel.build
    monkeypatch.setattr(
        _kernel, "build", lambda part, directory: Path(shutil.copy(built(part, _kernel.cache_dir()), directory))
    )
    bench.main()
    out = capsys.readouterr().out
    for shape in ("sweep", "dataset", "hitting"):
        assert re.search(rf"^{shape} ", out, re.M), out
    assert "clean loss per checkpoint" in out
    for name in _kernel.PARTS:
        assert re.search(rf"^{name} build: ", out, re.M), out
