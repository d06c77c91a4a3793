"""Build, cache and load the two compiled parts: the step kernel and the Gaussian fill.

The C sources ship in the package.  On first use each is compiled with the
local ``gcc`` into ``$XDG_CACHE_HOME/sgdexp`` (default ``~/.cache/sgdexp``)
under a name keyed by the SHA-256 of its source, its flags and, for the
fill, the bytes of the numpy archive it links, then loaded through ctypes,
which releases the interpreter lock for the length of each call.

- ``_stepkernel.c``, the engine's step.  Its self-test compares the
  kernel's dot product with ``np.einsum`` bit for bit: the summation order
  it copies belongs to this numpy build, not to numpy's contract.
- ``_normalfill.c``, ``Generator.standard_normal(out=)`` by numpy's own
  ziggurat, linked against numpy's ``random/lib/libnpyrandom.a``, and the
  same draws normalized row by row in one pass.  Its self-test compares
  values and generator state with the live ``Generator.standard_normal``,
  and the normalized rows with numpy's row norms and divide: the
  summation order it copies belongs to this numpy build, as the kernel's
  does.

When gcc, the archive or numpy's ``bitgen.h`` is missing, the build fails
or a self-test finds a difference, that part alone is turned off, with one
warning naming it, and its numpy counterpart runs instead.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_stepkernel.c")
FILL_SOURCE = Path(__file__).with_name("_normalfill.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: numpy's C random library, whose ``random_standard_normal`` the fill calls.
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
#: The directory of ``numpy/random/bitgen.h``, the bit generator struct.
NUMPY_INCLUDE = Path(np.get_include())
#: The fill's gcc flags beyond CFLAGS.  ``-O3`` vectorizes the sphere pass's
#: lane sums and divide, which moves no bit: lanewise adds keep their order,
#: and IEEE divide and sqrt are correctly rounded in every lane.
FILL_ARGS = ("-O3", f"-I{NUMPY_INCLUDE}")

#: None until the first ``load``; then the library, or False for the numpy body.
_loaded = None
#: None until the first ``load_fill``; then the library, or False for numpy's fill.
_fill = None
# The draw pool's two workers can ask for the fill at once.
_fill_lock = threading.Lock()

#: Values per seed of the fill's self-test: ~1.5% of them take numpy's slow path.
FILL_TEST_N = 1 << 15
#: Row lengths of the sphere pass's self-test: every branch of numpy's pairwise sum.
SPHERE_TEST_DIMS = (*range(1, 131), 257, 1000)
#: Why each part that did not load runs on numpy, by part name.
_off = {}


class KernelUnavailable(RuntimeError):
    """A compiled part cannot be built, or disagrees with numpy."""


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "sgdexp"


def cache_key(source: str, args=(), archive=None) -> str:
    """The library's name key: SHA-256 of source and flags, and of the archive's bytes."""
    key = hashlib.sha256("\0".join((source,) + CFLAGS + tuple(args)).encode())
    if archive is not None:
        key.update(hashlib.sha256(Path(archive).read_bytes()).digest())
    return key.hexdigest()[:16]


def build(source: str, directory: Path, name="stepkernel", args=(), archive=None) -> Path:
    """Compile ``source`` into ``directory``, or return the library built there before.

    ``args`` are extra gcc flags and ``archive`` a static library to link.
    Raises OSError when ``directory`` cannot be written and
    KernelUnavailable when gcc is missing or fails.
    """
    lib = directory / f"{name}-{cache_key(source, args, archive)}.so"
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
            [gcc, *CFLAGS, *args, "-o", tmp, "-x", "c", "-"]
            + (["-x", "none", str(archive)] if archive is not None else [])
            + ["-lm"],
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
    lib.sk_dots.argtypes = [i64, i64, ptr, ptr, ptr]
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
    norms (the block against itself).  Per d, one kernel call over one
    buffer takes the 12 dots in three passes of four.
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


def open_fill(path: Path):
    """ctypes handle of a built fill, with numpy's ziggurat tables read in."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    lib.sk_normal_init.argtypes = []
    lib.sk_normal_init.restype = None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.sk_normal_fill.argtypes = [ptr, i64, ptr]
    lib.sk_normal_fill.restype = None
    lib.sk_sphere_fill.argtypes = [ptr, i64, i64, ptr]
    lib.sk_sphere_fill.restype = i64
    lib.sk_normal_init()
    return lib


def fill_self_test(lib) -> None:
    """Raise KernelUnavailable unless the fill gives Generator.standard_normal's bits.

    Two seeds of FILL_TEST_N values each, ~1000 of them through numpy's
    slow path, drawn 4096 at a time into two small reused buffers; the
    generator must also end in the same state.
    """
    want, got = np.empty(4096), np.empty(4096)
    for seed in (20240501, 7):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        bad = 0
        for _ in range(FILL_TEST_N // got.size):
            want_rng.standard_normal(out=want)
            lib.sk_normal_fill(got_rng.bit_generator.ctypes.bit_generator, got.size, got.ctypes.data)
            bad += int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
        if bad:
            raise KernelUnavailable(
                f"self-test: the fill differs from Generator.standard_normal on {bad} of {FILL_TEST_N} values"
            )
        if got_rng.bit_generator.state != want_rng.bit_generator.state:
            raise KernelUnavailable("self-test: the fill leaves another generator state")
    sphere_self_test(lib)


def sphere_self_test(lib) -> None:
    """Raise KernelUnavailable unless ``sk_sphere_fill`` gives numpy's normalized rows.

    Two rows at each of SPHERE_TEST_DIMS, drawn in that order, against one
    ``standard_normal`` of them all, each block's
    ``sqrt(add.reduce(g * g, axis=1))`` (``np.linalg.norm``'s sum) and the
    divide; the generator must also end in the same state.
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


def build_fill(source: str, directory: Path) -> Path:
    """``build`` for the fill: FILL_ARGS, numpy's archive linked."""
    return build(source, directory, "normalfill", FILL_ARGS, NPYRANDOM)


def _build_and_open(source: str, opener, builder=build):
    try:
        return opener(builder(source, cache_dir()))
    except OSError:
        # An unwritable cache: build for this process only.
        with tempfile.TemporaryDirectory(prefix="sgdexp-") as tmp:
            return opener(builder(source, Path(tmp)))


def _open():
    lib = _build_and_open(SOURCE.read_text(), open_library)
    self_test(lib)
    return lib


def _open_fill():
    for path in (NPYRANDOM, NUMPY_INCLUDE / "numpy" / "random" / "bitgen.h"):
        if not path.is_file():
            raise KernelUnavailable(f"numpy's {path.name} not found at {path}")
    lib = _build_and_open(FILL_SOURCE.read_text(), open_fill, build_fill)
    fill_self_test(lib)
    return lib


def _try(part: str, opener):
    """``opener()``, or False after one RuntimeWarning naming the part and the reason."""
    try:
        return opener()
    except (KernelUnavailable, OSError) as exc:
        _off[part] = str(exc)
        warnings.warn(f"sgdexp {part} unavailable, using numpy: {exc}", RuntimeWarning)
        return False


def load():
    """The step kernel library, or None when the engine must run its numpy body.

    Tried once per process; a kernel that cannot be used is reported by one
    RuntimeWarning naming the reason.
    """
    global _loaded
    if _loaded is None:
        _loaded = _try("step kernel", _open)
    return _loaded or None


def load_fill():
    """The Gaussian fill library, or None when draws must run numpy's own fill.

    Tried once per process, like ``load``, and independent of it.
    """
    global _fill
    with _fill_lock:
        if _fill is None:
            _fill = _try("Gaussian fill", _open_fill)
    return _fill or None


def status() -> dict:
    """The state of each compiled part, loading it first: "loaded", or "numpy: <reason>".

    A part that does not load is reported here instead of by its warning.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        parts = {"step kernel": load(), "Gaussian fill": load_fill()}
    return {
        part: "loaded" if lib is not None else f"numpy: {_off.get(part, 'turned off')}"
        for part, lib in parts.items()
    }
