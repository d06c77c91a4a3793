"""Build, cache and load the compiled step kernel ``_stepkernel.c``.

The C source ships in the package.  On first use it is compiled with the
local ``gcc`` into ``$XDG_CACHE_HOME/sgdexp`` (default ``~/.cache/sgdexp``)
under a name keyed by the SHA-256 of source and flags, then loaded through
ctypes, which releases the interpreter lock for the length of each call.
A self-test then compares the kernel's dot product with ``np.einsum`` bit
for bit: the summation order it copies belongs to this numpy build, not to
numpy's contract.  When gcc is missing, the build fails or the self-test
finds a difference, ``load`` warns once and the engine runs its numpy body.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_stepkernel.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: None until the first ``load``; then the library, or False for the numpy body.
_loaded = None


class KernelUnavailable(RuntimeError):
    """The kernel cannot be built, or disagrees with numpy's arithmetic."""


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "sgdexp"


def build(source: str, directory: Path) -> Path:
    """Compile ``source`` into ``directory``, or return the library built there before.

    Raises OSError when ``directory`` cannot be written and
    KernelUnavailable when gcc is missing or fails.
    """
    key = hashlib.sha256("\0".join((source,) + CFLAGS).encode()).hexdigest()[:16]
    lib = directory / f"stepkernel-{key}.so"
    if lib.exists():
        return lib
    import shutil
    import subprocess

    gcc = shutil.which("gcc")
    if gcc is None:
        raise KernelUnavailable("gcc not found on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [gcc, *CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
            input=source,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise KernelUnavailable(f"gcc failed: {proc.stderr.strip()[:300]}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def open_library(path: Path):
    """ctypes handle of a built kernel, with every function's signature declared."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.sk_dots.argtypes = [i64, ptr, ptr, ptr]
    lib.sk_dots.restype = None
    lib.sk_advance.argtypes = (
        [i64] * 6  # G, S, n, d, j0, j1
        + [ptr, ptr, ptr]  # x, A, Y
        + [ptr, ptr, ptr, ctypes.c_int]  # clean, XI, P, relu link
        + [ptr, ptr, ptr, ptr, ptr]  # steps, kind, audit, step_viol, gate_viol
        + [ptr, ptr, f64, f64, ptr, ptr, i64, ptr]  # hitting-time state
    )
    lib.sk_advance.restype = None
    return lib


def self_test(lib) -> None:
    """Raise KernelUnavailable unless the kernel's dot equals np.einsum on every entry.

    Covers d = 1..130 in the two einsums of the numpy body: (G, S, d) lanes
    against a strided column of an (S, n, d) block, and the audit's row
    norms (the block against itself).  All dots run in one kernel call
    over one buffer.
    """
    R, W, dims = 3, 2, np.arange(1, 131)
    # Per d, a (2, R, d) lane array X, then an (R, W, d) block A: the first
    # 12 d doubles of one buffer.
    buf = np.random.default_rng(20240501).standard_normal(12 * dims[-1])
    x_at = dims[:, None] * np.arange(2 * R)  # X[g, s], g-major
    a_at = dims[:, None] * (2 * R + np.arange(R) * W + 1)  # A[s, 1]
    rows_at = dims[:, None] * (2 * R + np.arange(R * W))  # A[s, j], s-major
    first = np.concatenate([x_at, rows_at], axis=1)
    second = np.concatenate([np.tile(a_at, 2), rows_at], axis=1)
    table = np.stack([first, second, np.broadcast_to(dims[:, None], first.shape)], axis=2)
    want = np.empty(first.shape)
    for d, row in zip(dims, want):
        X = buf[: 2 * R * d].reshape(2, R, d)
        A = buf[2 * R * d : 4 * R * d].reshape(R, W, d)
        np.einsum("gsd,sd->gs", X, A[:, 1, :], out=row[: 2 * R].reshape(2, R))
        np.einsum("snd,snd->sn", A, A, out=row[2 * R :].reshape(R, W))
    table, want = np.ascontiguousarray(table, dtype=np.int64), want.ravel()
    got = np.empty_like(want)
    lib.sk_dots(len(want), table.ctypes.data, buf.ctypes.data, got.ctypes.data)
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        bad = int(np.sum(got.view(np.uint64) != want.view(np.uint64)))
        raise KernelUnavailable(
            f"self-test: the kernel's dot differs from np.einsum on {bad} of {len(want)} entries"
        )


def _open():
    source = SOURCE.read_text()
    try:
        lib = open_library(build(source, cache_dir()))
    except OSError:
        # An unwritable cache: build for this process only.
        with tempfile.TemporaryDirectory(prefix="sgdexp-") as tmp:
            lib = open_library(build(source, Path(tmp)))
    self_test(lib)
    return lib


def load():
    """The step kernel library, or None when the engine must run its numpy body.

    Tried once per process; a kernel that cannot be used is reported by one
    RuntimeWarning naming the reason.
    """
    global _loaded
    if _loaded is None:
        try:
            _loaded = _open()
        except (KernelUnavailable, OSError) as exc:
            warnings.warn(f"sgdexp step kernel unavailable, using numpy: {exc}", RuntimeWarning)
            _loaded = False
    return _loaded or None
