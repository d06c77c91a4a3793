"""Build, cache and load the compiled parts, each described once in ``PARTS``.

On first use ``load(name)`` compiles the part's C source with the local ``gcc``
into ``$XDG_CACHE_HOME/sgdexp`` (default ``~/.cache/sgdexp``) under a name keyed
by the SHA-256 of its source, its flags and the bytes of any archive it links,
loads it through ctypes, which releases the interpreter lock for the length of
each call, and self-tests it against numpy bit for bit: the orders of summation
it copies belong to this numpy build, not to numpy's contract.

- ``_stepkernel.c``, the engine's step, tested on its einsum-order dots at
  every vector width it steps lane groups with and every pass size (4, 2
  and 1 chains), and the step decays of a block, tested against
  ``math.pow``.  Where the CPU has AVX-512F it is built with ``-mavx512f``,
  which puts up to four lane groups in a vector, and elsewhere without, as
  128-bit code alone; ``status`` names the instruction set of the build in
  use (``sk_isa``).  It sizes its own scratch (``sk_work_size``).
- ``_normalfill.c``, rows of ``Generator.standard_normal`` by numpy's own
  ziggurat (linked from numpy's ``random/lib/libnpyrandom.a``), each divided by
  its norm in the same pass.  It has two draw entries.  ``sk_sphere_fill``
  takes a list of generators, and optionally one more per seed for
  ``Generator.random`` uniforms, so one call draws a whole engine block.
  ``sk_drift_pass`` keeps no row: it reduces each against a fixed u to the
  three einsum-order sums of the drift validators.  Both are tested on values
  and on the state each generator ends in.
- ``_cleanloss.c``, the residual ``F x - y`` of the dataset clean loss in
  the order of this build's OpenBLAS ``dgemv_t``, in AVX2 with FMA, so it
  is built only where the CPU has both.  It is tested against ``np.matmul``
  for every row length it is used for.  It sums the rows as
  one OpenBLAS thread does, so each shape of F is also probed once for
  numpy splitting its rows among BLAS threads (``cleanloss_rows_agree``).

Each part's one build is chosen before gcc runs from the CPU feature table
numpy's SIMD dispatch reads (``cpu_features``).  When gcc, the archive or
numpy's ``bitgen.h`` is missing, the CPU lacks a feature the part requires,
the build fails or a self-test finds a difference, that part alone is turned
off, with one warning naming it, and its numpy counterpart runs instead.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import math
import os
import shutil
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: numpy's C random library, whose ``random_standard_normal`` the fill calls.
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
#: The directory of ``numpy/random/bitgen.h``, the bit generator struct.
NUMPY_INCLUDE = Path(np.get_include())
#: Lane groups of the dot self-test: four, two and one to a vector in the wide build.
DOT_TEST_GROUPS = 7
#: Row lengths of the sphere pass's self-test: every branch of numpy's pairwise sum.
SPHERE_TEST_DIMS = (*range(1, 131), 257, 1000)
#: Row lengths of the drift pass's self-test: each branch of the einsum loop, and a split norm.
DRIFT_TEST_DIMS = (1, 2, 7, 8, 13, 20, 100, 130)
#: Row lengths of the clean-loss residual's self-test, and so the only ones it is used for.
CLEANLOSS_TEST_DIMS = range(1, 131)
#: (lam, first step k) of the decays' self-test: the rates of redwine, linear_signflip and hitting_time, and a fast one.
DECAYS_TEST_CASES = ((1.006, 0), (1.00003, 98_304), (1.000000004162813, 9_000), (1.5, 1_900))

_i64, _ptr, _f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double


class KernelUnavailable(RuntimeError):
    """A compiled part cannot be built, or disagrees with numpy."""


@dataclasses.dataclass(frozen=True)
class Part:
    """One compiled part: how to build it, what it exports, how it is checked at load."""

    stem: str  # the library's file name, before its cache key
    source: Path
    functions: dict  # each exported function's (restype, argtypes)
    self_test: Callable
    args: tuple = ()  # gcc flags beyond CFLAGS
    archive: Path | None = None  # a static library to link
    needs: tuple = ()  # numpy files the build reads, besides the archive
    init: str | None = None  # called once when the library opens
    isa: str | None = None  # names the instruction set of the build, for ``status``
    requires: tuple = ()  # the CPU features, by numpy's names, without any of which the part is off
    # (CPU feature, gcc flags): where the CPU has the feature, the part is built with these flags too
    wide: tuple | None = None


@functools.cache
def cpu_features() -> dict:
    """This CPU's features by numpy's names ("AVX2", "AVX512F", ...): the table numpy's SIMD dispatch reads."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def for_cpu(part: Part) -> Part:
    """``part`` as this CPU builds it: wide where it can; KernelUnavailable where it lacks a required feature."""
    missing = [name for name in part.requires if not cpu_features().get(name)]
    if missing:
        raise KernelUnavailable(f"this CPU lacks {' and '.join(missing)}")
    wide = part.wide is not None and cpu_features().get(part.wide[0])
    return dataclasses.replace(part, args=part.args + part.wide[1]) if wide else part


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "sgdexp"


def cache_key(source: str, args=(), archive=None) -> str:
    """The library's name key: SHA-256 of source and flags, and of the archive's bytes."""
    key = hashlib.sha256("\0".join((source,) + CFLAGS + tuple(args)).encode())
    if archive is not None:
        key.update(hashlib.sha256(Path(archive).read_bytes()).digest())
    return key.hexdigest()[:16]


def build(part: Part, directory: Path) -> Path:
    """Compile ``part`` into ``directory``, or return the library built there before.

    Raises OSError when ``directory`` cannot be written and
    KernelUnavailable when gcc is missing or fails.
    """
    source = part.source.read_text()
    lib = directory / f"{part.stem}-{cache_key(source, part.args, part.archive)}.so"
    if lib.exists():
        return lib
    import subprocess

    gcc = shutil.which("gcc")
    if gcc is None:
        raise KernelUnavailable("gcc not found on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        cmd = [gcc, *CFLAGS, *part.args, "-o", tmp, "-x", "c", "-"]
        cmd += ["-x", "none", str(part.archive)] if part.archive is not None else []
        proc = subprocess.run(cmd + ["-lm"], input=source, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelUnavailable(f"gcc failed: {proc.stderr.strip()[:300]}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def open_library(part: Part, path: Path):
    """ctypes handle of a built ``part``, every function's signature declared and its init run."""
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in part.functions.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    if part.init is not None:
        getattr(lib, part.init)()
    return lib


def bitgens(rngs):
    """A C array of the ``bitgen_t *`` of each Generator in ``rngs``, as ``sk_sphere_fill`` takes them."""
    return (_ptr * len(rngs))(*(rng.bit_generator.ctypes.bit_generator.value for rng in rngs))


def dot_self_test(lib) -> None:
    """Raise KernelUnavailable unless the kernel's dots equal np.einsum on every entry.

    Covers d = 1..130 in the two einsums of the numpy body: (G, S, d) lanes
    against a strided column of an (S, n, d) block, and the audit's row
    norms (the block against itself), by ``sk_dots``, which copies the lanes
    and takes the dots as ``sk_advance`` does.  One call per d, of
    DOT_TEST_GROUPS groups, so every vector width the build steps with, and
    S = 5, 6 or 7 seeds, so a tile of four seeds and then one of 1, 2 or 3:
    every pass size, 4, 2 and 1 chains, and three chains as 2 + 1.
    """
    G, dims, n, j = DOT_TEST_GROUPS, range(1, 131), 2, 1
    rng = np.random.default_rng(20240501)
    X_buf, A_buf = rng.standard_normal(G * 7 * dims[-1]), rng.standard_normal(7 * n * dims[-1])
    work = np.empty(lib.sk_work_size(G, 7, dims[-1]))
    # Per d, the (G, S) dots and then the S norms, zero-padded to 7 seeds.
    got, want = np.zeros((len(dims), (G + 1) * 7)), np.zeros((len(dims), (G + 1) * 7))
    norms = np.empty((7, n))
    at = (work.ctypes.data, X_buf.ctypes.data, A_buf.ctypes.data, got.ctypes.data)
    for i, (d, row) in enumerate(zip(dims, want)):
        S = 5 + d % 3
        X, A = X_buf[: G * S * d].reshape(G, S, d), A_buf[: S * n * d].reshape(S, n, d)
        np.einsum("gsd,sd->gs", X, A[:, j, :], out=row[: G * S].reshape(G, S))
        np.einsum("snd,snd->sn", A, A, out=norms[:S])
        row[G * S : G * S + S] = norms[:S, j]
        dots = at[3] + 8 * i * (G + 1) * 7
        lib.sk_dots(G, S, n, d, j, at[1], at[2], at[0], dots, dots + 8 * G * S)
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        bad = int(np.sum(got.view(np.uint64) != want.view(np.uint64)))
        raise KernelUnavailable(
            f"self-test: the kernel's dot differs from np.einsum on {bad} of {want.size} entries"
        )


def decays_self_test(lib) -> None:
    """Raise KernelUnavailable unless ``sk_decays`` gives ``math.pow``'s decays.

    64 steps of the exp schedule per (lam, k) in DECAYS_TEST_CASES, and of
    the root schedule from each k, against one ``math.pow`` per step.
    """
    n, got = 64, np.empty(64)
    for lam, k in DECAYS_TEST_CASES:
        # The schedules exp (2) and root (1), as the enum of _stepkernel.c numbers them.
        for schedule, want in (
            (2, [math.pow(lam, float(-k - j)) for j in range(n)]),
            (1, [math.pow(float(k + j + 1), -0.5) for j in range(n)]),
        ):
            lib.sk_decays(schedule, lam, k, n, got.ctypes.data)
            if got.tolist() != want:
                raise KernelUnavailable(f"self-test: the step decays differ from math.pow at lam {lam}, k {k}")


def step_kernel_self_test(lib) -> None:
    """Both checks of the step kernel: its dot against np.einsum, its decays against math.pow."""
    dot_self_test(lib)
    decays_self_test(lib)


def sphere_self_test(lib) -> None:
    """Raise KernelUnavailable unless ``sk_sphere_fill`` gives numpy's normalized rows and uniforms.

    Per length in SPHERE_TEST_DIMS, one call draws a row from each of two
    generators, and a uniform from each of two more, into strided
    outputs.  Against each generator's one ``standard_normal`` of all its
    rows (~150 words each through numpy's slow path), each row's
    ``sqrt(add.reduce(g * g, axis=1))`` (``np.linalg.norm``'s sum) and the
    divide, and each ``random`` of all its uniforms; every generator must
    also end in the same state.
    """
    seeds, dims = (20240502, 20240503, 20240504, 20240505), SPHERE_TEST_DIMS
    want_rngs, got_rngs = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
    total, calls = sum(dims), len(dims)
    starts = np.concatenate([[0], np.cumsum(dims)])[:-1].tolist()  # each row's first value
    want = np.stack([rng.standard_normal(total) for rng in want_rngs[:2]])
    squares = want * want
    norms = [np.add.reduce(squares[:, i : i + d].reshape(2, 1, d), axis=2) for i, d in zip(starts, dims)]
    want /= np.repeat(np.sqrt(np.concatenate(norms, axis=1)), dims, axis=1)
    want_xi = np.stack([rng.random(calls) for rng in want_rngs[2:]])
    got, got_xi, zeros = np.empty_like(want), np.empty_like(want_xi), np.empty(2, dtype=np.int64)
    gens, xi_gens = (bitgens(got_rngs[i : i + 2]) for i in (0, 2))
    at, xi_at, zeros_at = got.ctypes.data, got_xi.ctypes.data, zeros.ctypes.data
    lost = sum(
        lib.sk_sphere_fill(2, gens, xi_gens, 1, d, at + 8 * i, total, xi_at + 8 * c, calls, zeros_at)
        for c, (i, d) in enumerate(zip(starts, dims))
    )
    bad = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
    bad += int(np.count_nonzero(got_xi.view(np.uint64) != want_xi.view(np.uint64)))
    if bad or lost:
        raise KernelUnavailable(
            f"self-test: the sphere pass differs from numpy's normalized rows and uniforms on {bad} of "
            f"{want.size + want_xi.size} values"
        )
    if any(g.bit_generator.state != w.bit_generator.state for g, w in zip(got_rngs, want_rngs)):
        raise KernelUnavailable("self-test: the sphere pass leaves another generator state")


def drift_pass_self_test(lib) -> None:
    """Raise KernelUnavailable unless ``sk_drift_pass`` gives numpy's sums of normalized rows.

    Per length in DRIFT_TEST_DIMS, one call reduces two rows from one
    generator against a fixed u; against the same generator's
    ``standard_normal`` of all rows, divided by ``np.linalg.norm``'s sum, and
    ``np.einsum("ij,j->i", A, u)``, ``np.einsum("ij,ij->i", W, W)`` of
    ``W = u - A`` and of ``u + A``.  The generator must end in the same state.
    """
    rows, dims = 2, DRIFT_TEST_DIMS
    want_rng, got_rng = np.random.default_rng(20240506), np.random.default_rng(20240506)
    us = np.random.default_rng(20240507).standard_normal(sum(dims))
    draws = want_rng.standard_normal(rows * sum(dims))
    got, want = np.empty((len(dims), 3, rows)), np.empty((len(dims), 3, rows))
    gen, row, at, lost = got_rng.bit_generator.ctypes.bit_generator.value, np.empty(max(dims)), 0, 0
    for i, d in enumerate(dims):
        u, g = us[at : at + d], draws[rows * at : rows * (at + d)].reshape(rows, d)
        A = g / np.sqrt(np.add.reduce(g * g, axis=1))[:, None]
        np.einsum("ij,j->i", A, u, out=want[i, 0])
        for k, W in ((1, u - A), (2, u + A)):
            np.einsum("ij,ij->i", W, W, out=want[i, k])
        sums = [got[i, k].ctypes.data for k in range(3)]
        lost += lib.sk_drift_pass(gen, rows, d, u.ctypes.data, row.ctypes.data, *sums)
        at += d
    bad = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
    if bad or lost:
        raise KernelUnavailable(
            f"self-test: the drift pass differs from np.einsum on {bad} of {want.size} sums"
        )
    if got_rng.bit_generator.state != want_rng.bit_generator.state:
        raise KernelUnavailable("self-test: the drift pass leaves another generator state")


def fill_self_test(lib) -> None:
    """Both draw entries of the Gaussian fill against numpy: the sphere pass, then the drift pass."""
    sphere_self_test(lib)
    drift_pass_self_test(lib)


def cleanloss_self_test(lib) -> None:
    """Raise KernelUnavailable unless ``sk_resid`` gives numpy's clean-loss residual bit for bit.

    Per d in CLEANLOSS_TEST_DIMS, two calls of three lanes, one with the
    ReLU link and one without: one of n = 4..7 rows (a block of four, then
    every n % 4) and one of n = 2 or 3 (no block), each n and link met with
    every d % 4, against ``np.matmul(F, x[..., None])[..., 0]``,
    ``np.maximum(., 0.0)`` and the subtraction.  Up to d = 5, row 0 of F against lane 0 sums to
    -0.0 before the output's +0.0 is added.
    """
    lanes, dims, rows = 3, CLEANLOSS_TEST_DIMS, 7
    rng = np.random.default_rng(20240508)
    F_buf, X_buf, y = (rng.standard_normal(size) for size in (5 + rows * dims[-1], lanes * dims[-1], rows))
    # Products that round to -0.0, row 0 of F against lane 0 at d <= 5; F starts past them at d > 5,
    # since each such product costs a microcode assist.
    F_buf[:5], X_buf[:5], y[0] = 5e-324, -0.25, 0.0
    cases = [(d, n, (d // 16 + (n < 4)) % 2) for d in dims for n in (4 + d // 4 % 4, 2 + d % 2)]
    sizes = [lanes * n for _, n, _ in cases]
    starts = np.cumsum([0] + sizes).tolist()
    want, got = np.empty(starts[-1]), np.empty(starts[-1])
    F_at, X_at, y_at, got_at = (a.ctypes.data for a in (F_buf, X_buf, y, got))
    for (d, n, link), at in zip(cases, starts):
        out = want[at : at + lanes * n].reshape(lanes, n, 1)
        f0 = 0 if d <= 5 else 5
        np.matmul(F_buf[f0 : f0 + n * d].reshape(n, d), X_buf[: lanes * d].reshape(lanes, d, 1), out=out)
        lib.sk_resid(lanes, n, d, F_at + 8 * f0, X_at, y_at, link, got_at + 8 * at)
    links = np.repeat([link for _, _, link in cases], sizes).astype(bool)
    np.maximum(want, 0.0, out=want, where=links)
    tiled = {n: np.tile(y[:n], lanes) for n in range(2, rows + 1)}
    want -= np.concatenate([tiled[n] for _, n, _ in cases])
    bad = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
    if bad:
        raise KernelUnavailable(
            f"self-test: the clean-loss residual differs from np.matmul on {bad} of {want.size} entries"
        )


def _cleanloss_rows_probe(lib, n: int, d: int) -> bool:
    """Whether ``sk_resid`` and np.matmul sum every row of an (n, d) F with the same dgemv_t kernel.

    Row i of the probe F is -(1 + 2^-29) at column 0 and 1 + 2^-30 at column 4,
    against x = 1 and 1 + 2^-30 there and 0 elsewhere: the 4x4 kernel's fused
    sum keeps the product's rounding error 2^-60, the 4x2 and 4x1 kernels'
    unfused sums give 0.  Below d = 8 each kernel sums the first four columns
    alike (one product per accumulator), so the rows cannot differ.
    """
    if d < 8:
        return True
    F, x = np.zeros((n, d)), np.zeros(d)
    F[:, 0], F[:, 4], x[0], x[4] = -(1 + 2.0**-29), 1 + 2.0**-30, 1.0, 1 + 2.0**-30
    got, y = np.empty(n), np.zeros(n)
    lib.sk_resid(1, n, d, F.ctypes.data, x.ctypes.data, y.ctypes.data, 0, got.ctypes.data)
    return np.array_equal(got, np.matmul(F, x[:, None])[:, 0])


#: Each (n, d) of F that ``cleanloss_rows_agree`` has checked, and its answer.
_cleanloss_shapes = {}


def cleanloss_rows_agree(lib, n: int, d: int) -> bool:
    """Whether numpy sums each row of an (n, d) F as ``sk_resid`` does, checked once per shape.

    ``sk_resid`` sums the rows as one OpenBLAS thread does: the last n % 4
    by the 4x2 and 4x1 kernels, the others by the 4x4 kernel.  Past a size
    (n d > 460800 in OpenBLAS 0.3.31) OpenBLAS splits the rows among its
    threads, and each thread's range whose length is not a multiple of 4
    ends in its own 4x2 and 4x1 rows.  So each shape is probed on its first
    clean loss, at the BLAS thread count of that call, on a probe F that
    tells the kernels apart in every row; a shape that disagrees runs numpy,
    with one RuntimeWarning.
    """
    with _lock:
        if (n, d) not in _cleanloss_shapes:
            _cleanloss_shapes[n, d] = _cleanloss_rows_probe(lib, n, d)
            if not _cleanloss_shapes[n, d]:
                warnings.warn(
                    f"sgdexp clean loss unavailable for {n} x {d} features, using numpy: "
                    "numpy sums some rows with other dgemv_t kernels (BLAS threads split the rows)",
                    RuntimeWarning,
                )
        return _cleanloss_shapes[n, d]


#: Every compiled part, by the name its warning and ``status`` give it.
PARTS = {
    "step kernel": Part(
        stem="stepkernel",
        source=Path(__file__).with_name("_stepkernel.c"),
        functions={
            # G, S, n, d, j; x, A, work, dots, norms.
            "sk_dots": (None, [_i64] * 5 + [_ptr] * 5),
            # G, S, n, d, s_lo, s_hi; x, A, clean, XI, NU, P; the channel and the relu link;
            # steps, kind, audit, step_viol, gate_viol; the hitting-time state; work; then j0, j1, k.
            "sk_advance": (
                None,
                [_i64] * 6 + [_ptr] * 6 + [ctypes.c_int] * 2 + [_ptr] * 7 + [_f64, _f64, _ptr, _ptr, _ptr]
                + [_i64] * 3,
            ),
            # schedule, lam, k, n, out
            "sk_decays": (None, [ctypes.c_int, _f64, _i64, _i64, _ptr]),
            "sk_isa": (ctypes.c_char_p, []),
            # G, S, d
            "sk_work_size": (_i64, [_i64] * 3),
        },
        self_test=step_kernel_self_test,
        isa="sk_isa",
        wide=("AVX512F", ("-mavx512f",)),
    ),
    "Gaussian fill": Part(
        stem="normalfill",
        source=Path(__file__).with_name("_normalfill.c"),
        functions={
            # m, gens, xi_gens, rows, d; out and its seed stride, xi and its seed stride; zeros.
            "sk_sphere_fill": (_i64, [_i64, _ptr, _ptr, _i64, _i64, _ptr, _i64, _ptr, _i64, _ptr]),
            # gen, rows, d, u, a row of scratch; dots, ||u - a||^2, ||u + a||^2.
            "sk_drift_pass": (_i64, [_ptr, _i64, _i64] + [_ptr] * 5),
            "sk_normal_init": (None, []),
        },
        self_test=fill_self_test,
        # -O3 vectorizes the sphere pass's lane sums and divide, which moves no bit: lanewise
        # adds keep their order, and IEEE divide and sqrt are correctly rounded in every lane.
        args=("-O3", f"-I{NUMPY_INCLUDE}"),
        archive=NPYRANDOM,
        needs=(NUMPY_INCLUDE / "numpy" / "random" / "bitgen.h",),
        init="sk_normal_init",
    ),
    "clean loss": Part(
        stem="cleanloss",
        source=Path(__file__).with_name("_cleanloss.c"),
        functions={
            # L, n, d; F, X, y; the relu link; out.
            "sk_resid": (None, [_i64, _i64, _i64, _ptr, _ptr, _ptr, ctypes.c_int, _ptr]),
        },
        self_test=cleanloss_self_test,
        requires=("AVX2", "FMA3"),
    ),
}

#: Each part tried so far: its library, or why numpy runs in its place.
_libs = {}
# An engine call's two seed owners (or two calls on their own threads) can ask for a part at once.
_lock = threading.Lock()


def _open(part: Part):
    """``part`` built for this CPU (in a temp directory when the cache is unwritable), opened and self-tested."""
    for path in (part.archive, *part.needs):
        if path is not None and not path.is_file():
            raise KernelUnavailable(f"numpy's {path.name} not found at {path}")
    part = for_cpu(part)
    try:
        lib = open_library(part, build(part, cache_dir()))
    except OSError:
        # An unwritable cache: build for this process only.
        with tempfile.TemporaryDirectory(prefix="sgdexp-") as tmp:
            lib = open_library(part, build(part, Path(tmp)))
    part.self_test(lib)
    return lib


def load(name: str):
    """The library of the part ``name``, or None when its numpy counterpart must run.

    Tried once per process and part; a part that cannot be used is
    reported by one RuntimeWarning naming it and the reason.
    """
    with _lock:
        if name not in _libs:
            try:
                _libs[name] = _open(PARTS[name])
            except (KernelUnavailable, OSError) as exc:
                _libs[name] = str(exc)
                warnings.warn(f"sgdexp {name} unavailable, using numpy: {exc}", RuntimeWarning)
    return None if isinstance(_libs[name], str) else _libs[name]


def status() -> dict:
    """Each part's state, loading it first without its warning.

    "loaded", "loaded (<instruction set>)" for a part that names the
    instruction set of its build (``Part.isa``), or "numpy: <reason>".
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        libs = {name: load(name) for name in PARTS}
    states = {}
    for name, lib in libs.items():
        isa = PARTS[name].isa
        if lib is None:
            states[name] = f"numpy: {_libs[name]}"
        else:
            states[name] = "loaded" if isa is None else f"loaded ({getattr(lib, isa)().decode()})"
    return states
