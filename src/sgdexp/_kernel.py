"""Build, cache and load the compiled parts, each described once in ``PARTS``.

On first use ``load(name)`` compiles the part's C source with the local ``gcc``
into ``$XDG_CACHE_HOME/sgdexp`` (default ``~/.cache/sgdexp``) under a name keyed
by the SHA-256 of its source, its flags and the bytes of any archive it links,
loads it through ctypes, which releases the interpreter lock for the length of
each call, and self-tests it against numpy bit for bit: the orders of summation
it copies belong to this numpy build, not to numpy's contract.

- ``_stepkernel.c``, the engine's step, tested on its einsum-order dot.
- ``_normalfill.c``, rows of ``Generator.standard_normal`` by numpy's own
  ziggurat (linked from numpy's ``random/lib/libnpyrandom.a``), each divided by
  its norm in the same pass; tested on values and generator state.

When gcc, the archive or numpy's ``bitgen.h`` is missing, the build fails
or a self-test finds a difference, that part alone is turned off, with one
warning naming it, and its numpy counterpart runs instead.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
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
#: Row lengths of the sphere pass's self-test: every branch of numpy's pairwise sum.
SPHERE_TEST_DIMS = (*range(1, 131), 257, 1000)

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


def dot_self_test(lib) -> None:
    """Raise KernelUnavailable unless the kernel's dot equals np.einsum on every entry.

    Covers d = 1..130 in the two einsums of the numpy body: (G, S, d) lanes
    against a strided column of an (S, n, d) block, and the audit's row
    norms (the block against itself).  Per d, one kernel call over one
    buffer takes the 12 dots in three passes of four.
    """
    R, W, dims = 3, 2, np.arange(1, 131)
    # Per d, a (2, R, d) lane array X, then an (R, W, d) block A: buf's first 12 d doubles.
    buf = np.random.default_rng(20240501).standard_normal(12 * dims[-1])
    x_at = dims[:, None] * np.arange(2 * R)  # X[g, s], g-major
    a_at = dims[:, None] * (2 * R + np.arange(R) * W + 1)  # A[s, 1]
    rows_at = dims[:, None] * (2 * R + np.arange(R * W))  # A[s, j], s-major
    first = np.concatenate([x_at, rows_at], axis=1)
    second = np.concatenate([np.tile(a_at, 2), rows_at], axis=1)
    table = np.ascontiguousarray(np.stack([first, second], axis=2), dtype=np.int64)
    want, got = np.empty(first.shape), np.empty(first.shape)
    m, at = want.shape[1], (table.ctypes.data, buf.ctypes.data, got.ctypes.data)
    for i, (d, row) in enumerate(zip(dims.tolist(), want)):
        X = buf[: 2 * R * d].reshape(2, R, d)
        A = buf[2 * R * d : 4 * R * d].reshape(R, W, d)
        np.einsum("gsd,sd->gs", X, A[:, 1, :], out=row[: 2 * R].reshape(2, R))
        np.einsum("snd,snd->sn", A, A, out=row[2 * R :].reshape(R, W))
        lib.sk_dots(m, d, at[0] + 16 * m * i, at[1], at[2] + 8 * m * i)
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        bad = int(np.sum(got.view(np.uint64) != want.view(np.uint64)))
        raise KernelUnavailable(
            f"self-test: the kernel's dot differs from np.einsum on {bad} of {want.size} entries"
        )


def sphere_self_test(lib) -> None:
    """Raise KernelUnavailable unless ``sk_sphere_fill`` gives numpy's normalized rows.

    Two rows at each of SPHERE_TEST_DIMS, drawn in that order, against one
    ``standard_normal`` of them all (~300 words through numpy's slow path),
    each block's ``sqrt(add.reduce(g * g, axis=1))`` (``np.linalg.norm``'s
    sum) and the divide; the generator must also end in the same state.
    """
    want_rng, got_rng = np.random.default_rng(20240502), np.random.default_rng(20240502)
    dims = np.repeat(SPHERE_TEST_DIMS, 2)  # the length of each row
    starts = np.concatenate([[0], np.cumsum(dims)])[::2].tolist()  # each block's first value
    blocks = list(zip(starts, SPHERE_TEST_DIMS))
    want = want_rng.standard_normal(starts[-1])
    squares = want * want
    sums = [np.add.reduce(squares[i : i + 2 * d].reshape(2, d), axis=1) for i, d in blocks]
    want /= np.repeat(np.sqrt(np.concatenate(sums)), dims)
    got = np.empty_like(want)
    bitgen, at = got_rng.bit_generator.ctypes.bit_generator, got.ctypes.data
    zeros = sum(lib.sk_sphere_fill(bitgen, 2, d, at + 8 * i) for i, d in blocks)
    bad = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
    if bad or zeros:
        raise KernelUnavailable(
            f"self-test: the sphere pass differs from numpy's normalized rows on {bad} of {want.size} values"
        )
    if got_rng.bit_generator.state != want_rng.bit_generator.state:
        raise KernelUnavailable("self-test: the sphere pass leaves another generator state")


#: Every compiled part, by the name its warning and ``status`` give it.
PARTS = {
    "step kernel": Part(
        stem="stepkernel",
        source=Path(__file__).with_name("_stepkernel.c"),
        functions={
            "sk_dots": (None, [_i64, _i64, _ptr, _ptr, _ptr]),
            # G, S, n, d, j0, j1; x, A, Y, clean, XI, P; the relu link; steps,
            # kind, audit, step_viol, gate_viol; then the hitting-time state.
            "sk_advance": (
                None,
                [_i64] * 6 + [_ptr] * 6 + [ctypes.c_int] + [_ptr] * 7 + [_f64, _f64, _ptr, _ptr, _i64, _ptr],
            ),
        },
        self_test=dot_self_test,
    ),
    "Gaussian fill": Part(
        stem="normalfill",
        source=Path(__file__).with_name("_normalfill.c"),
        functions={"sk_sphere_fill": (_i64, [_ptr, _i64, _i64, _ptr]), "sk_normal_init": (None, [])},
        self_test=sphere_self_test,
        # -O3 vectorizes the sphere pass's lane sums and divide, which moves no bit: lanewise
        # adds keep their order, and IEEE divide and sqrt are correctly rounded in every lane.
        args=("-O3", f"-I{NUMPY_INCLUDE}"),
        archive=NPYRANDOM,
        needs=(NUMPY_INCLUDE / "numpy" / "random" / "bitgen.h",),
        init="sk_normal_init",
    ),
}

#: Each part tried so far: its library, or why numpy runs in its place.
_libs = {}
# The draw pool's workers can ask for the fill while the engine asks for the kernel.
_lock = threading.Lock()


def _open(part: Part):
    """``part`` built (in a temp directory when the cache is unwritable), opened and self-tested."""
    for path in (part.archive, *part.needs):
        if path is not None and not path.is_file():
            raise KernelUnavailable(f"numpy's {path.name} not found at {path}")
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
    """Each part's state, loading it first without its warning: "loaded", or "numpy: <reason>"."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        libs = {name: load(name) for name in PARTS}
    return {name: "loaded" if lib is not None else f"numpy: {_libs[name]}" for name, lib in libs.items()}
