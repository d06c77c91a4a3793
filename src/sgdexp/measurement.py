"""Unit-norm streaming measurement models.

Every model produces unit Euclidean-norm vectors ``a`` such that
``sqrt(d) * a`` is mean-zero and isotropic.  The quantity

    ctilde(model) = inf_u  sqrt(d) * E|<u, a>| / ||u||_2

is the anti-concentration constant that controls how much signal a
single sign observation carries; for directions drawn uniformly from
the sphere it converges to sqrt(2/pi) as d grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .corruption import Uniform

#: Large-d limit of the sphere constant, sqrt(2/pi).
GAUSSIAN_LIMIT_CONSTANT = math.sqrt(2.0 / math.pi)

#: Measurement draws per chunk in ``estimate_ctilde``: each chunk's sums are
#: added to the running totals on their own.
CTILDE_CHUNK = 50_000

#: Values in each of ``estimate_ctilde``'s two block buffers, the draws and
#: their products with the directions (256 KiB each).
CTILDE_BLOCK_VALUES = 32768

#: Least values in a full block's product in ``estimate_ctilde``.  OpenBLAS
#: takes products of up to about 1200 values through small-matrix kernels
#: that sum in another order than the kernels of a whole chunk's product.
CTILDE_PRODUCT_VALUES = 4096

#: Values in ``_row_norms``'s scratch for the squares of a slice of rows (64 KiB).
ROW_NORM_VALUES = 8192


@dataclass(frozen=True)
class GaussianSphere:
    """Directions uniform on the unit sphere S^{d-1}."""

    d: int

    def __post_init__(self):
        _check_dimension(self.d)


@dataclass(frozen=True)
class NormalizedRademacher:
    """Uniform random sign vectors scaled by 1/sqrt(d)."""

    d: int

    def __post_init__(self):
        _check_dimension(self.d)


#: The entry distributions of NormalizedIIDSubGaussian.
SUBGAUSSIAN_BASES = ("gaussian", "rademacher", "uniform")


@dataclass(frozen=True)
class NormalizedIIDSubGaussian:
    """IID mean-zero unit-variance entries, normalized to the sphere.

    ``base`` selects the entry distribution, one of SUBGAUSSIAN_BASES:
    "gaussian", "rademacher", or "uniform" (uniform on [-sqrt(3), sqrt(3)]).
    """

    d: int
    base: str = "uniform"

    def __post_init__(self):
        _check_dimension(self.d)
        if self.base not in SUBGAUSSIAN_BASES:
            raise ValueError(f"unknown sub-Gaussian base {self.base!r}")


class DatasetRows:
    """Measurement vectors drawn from the rows of a fixed matrix, with each row's response.

    Rows are normalized to unit norm at sampling time; ``row_norms``
    holds the original norms so responses can be rescaled to keep the
    regression system unchanged.  Sampling is uniform with replacement.
    ``responses`` must be a finite (n_rows,) vector.
    """

    def __init__(self, rows, responses):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("dataset has no rows")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("dataset contains a zero row; cannot normalize")
        if not np.all(np.isfinite(norms)):
            raise ValueError("dataset contains a non-finite row; cannot normalize")
        responses = np.asarray(responses, dtype=float)
        if responses.shape != rows.shape[:1]:
            raise ValueError(f"responses: expected shape ({len(rows)},), one per dataset row, got {responses.shape}")
        bad = np.flatnonzero(~np.isfinite(responses))
        if bad.size:
            raise ValueError(f"responses: entry {bad[0]} is {responses[bad[0]]}, expected a finite number")
        self.rows = rows
        self.responses = responses
        self.row_norms = norms
        self.unit_rows = rows / norms[:, None]
        self.d = rows.shape[1]
        self.n_rows = rows.shape[0]

    def __repr__(self):
        return f"DatasetRows(n_rows={self.n_rows}, d={self.d})"


MeasurementModel = Union[
    GaussianSphere, NormalizedRademacher, NormalizedIIDSubGaussian, DatasetRows
]


@dataclass(frozen=True)
class CtildeEstimate:
    """Monte Carlo estimate of the measurement anti-concentration constant."""

    value: float
    stderr: float
    n_samples: int
    n_directions: int

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("ctilde estimate must be positive")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _check_dimension(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def _row_norms(g: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(g, axis=1)`` bit for bit: its sqrt(add.reduce(g*g, axis=1)).

    The squares are taken a slice of rows at a time, into one scratch of
    about ROW_NORM_VALUES values; add.reduce sums each row on its own, so
    slicing moves no bit.
    """
    n, d = g.shape
    rows = max(1, ROW_NORM_VALUES // d)
    squares = np.empty((min(rows, n), d))
    norms = np.empty(n)
    for i in range(0, n, rows):
        part = g[i : i + rows]
        sq = np.multiply(part, part, out=squares[: len(part)])
        np.add.reduce(sq, axis=1, out=norms[i : i + len(part)])
    return np.sqrt(norms, out=norms)


def _normalize_rows(g: np.ndarray, rng: np.random.Generator, draw) -> np.ndarray:
    """Normalize rows of g in place, redrawing any exact-zero rows with ``draw(rng, rows)``."""
    norms = _row_norms(g)
    while np.any(norms == 0.0):  # measure-zero event in exact arithmetic
        bad = norms == 0.0
        g[bad] = draw(rng, out=np.empty((int(bad.sum()), g.shape[1])))
        norms = _row_norms(g)
    g /= norms[:, None]
    return g


def _standard_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    return rng.standard_normal(out=out)


def _fill_library(rngs):
    """The compiled fill where it loads and every one of ``rngs`` is a Generator, else None."""
    if not all(isinstance(rng, np.random.Generator) for rng in rngs):
        return None
    from . import _kernel  # on the first draw, not at import

    return _kernel.load("Gaussian fill")


def _sphere_pass(lib, rngs, g, uniforms=None) -> None:
    """One ``sk_sphere_fill`` call: ``g[i]``, (n, d) rows, gets ``rngs[i]``'s normalized rows.

    With ``uniforms = (xi_rngs, XI)``, ``XI[i]`` also gets
    ``xi_rngs[i].random(out=XI[i])``'s values.  Each row block ``g[i]`` and
    each ``XI[i]`` must be C-contiguous; the seeds may be any stride apart.
    The generators, all distinct, have their locks held for the call, as
    numpy's fills hold them.  The rare rows of norm 0 come back undivided and are redrawn,
    normalized alike, with the generator calls of ``_normalize_rows``.
    """
    from ._kernel import bitgens

    m, n, d = g.shape
    xi_rngs, XI = uniforms if uniforms is not None else ((), None)
    zeros = np.empty(m, dtype=np.int64)
    locks = [rng.bit_generator.lock for rng in (*rngs, *xi_rngs)]
    for lock in locks:
        lock.acquire()
    try:
        lost = lib.sk_sphere_fill(
            m, bitgens(rngs), bitgens(xi_rngs) if XI is not None else None, n, d,
            g.ctypes.data, g.strides[0] // 8,
            None if XI is None else XI.ctypes.data, 0 if XI is None else XI.strides[0] // 8,
            zeros.ctypes.data,
        )
    finally:
        for lock in locks:
            lock.release()
    if lost:
        for i in np.flatnonzero(zeros):
            rows = g[i]
            redrawn = np.empty((1, int(zeros[i]), d))
            _sphere_pass(lib, rngs[i : i + 1], redrawn)
            rows[_row_norms(rows) == 0.0] = redrawn[0]


def _seed_major(a) -> bool:
    """Whether each ``a[i]`` of a float array is C-contiguous, aligned and writable, a whole number of values apart."""
    return (
        a.dtype == np.float64
        and a.flags.aligned
        and a.flags.writeable
        and a.strides[0] % 8 == 0
        and (a.size == 0 or a[0].flags.c_contiguous)
    )


def _rademacher(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    np.copyto(out, rng.integers(0, 2, size=out.shape) * 2 - 1)
    return out


#: Each entry draw of NormalizedIIDSubGaussian but the Gaussian, as ``draw(rng, out=...)``; the
#: uniform base is rng.uniform(-sqrt(3), sqrt(3)) bit for bit.
_ENTRY_DRAWS = {"rademacher": _rademacher, "uniform": Uniform(math.sqrt(3.0)).draw}


def sample_block(model: MeasurementModel, rng: np.random.Generator, n: int, out=None):
    """Draw ``n`` measurement vectors: ``sample_seeds`` of one seed.

    Returns ``(A, idx)`` where ``A`` is an (n, d) array of unit-norm
    rows and ``idx`` is the (n,) array of source row indices for
    DatasetRows models (None otherwise).  ``A`` is ``out`` when given, a
    C-contiguous (n, d) float array the rows are drawn into; it changes
    no bit of the draw.
    """
    if not isinstance(model, MeasurementModel):
        raise TypeError(f"unknown measurement model {model!r}")
    A = np.empty((n, model.d)) if out is None else out
    idx = sample_seeds(model, [rng], A[None])
    return A, None if idx is None else idx[0]


def sample_seeds(model: MeasurementModel, rngs, out, uniforms=None):
    """Draw one block for each of several seeds: ``out[i]`` gets ``rngs[i]``'s n unit-norm rows.

    ``out`` is (m, n, d), and each ``out[i]`` C-contiguous: a slice along
    the second axis of a larger (m, cap, d) buffer serves.  With
    ``uniforms = (xi_rngs, XI)``, ``XI[i]`` of the (m, n) ``XI`` also gets
    ``xi_rngs[i].random(out=XI[i])``.  Returns the (m, n) source row indices
    of DatasetRows models, else None.  Each seed gets the bits of a call for
    it alone, whatever the other seeds.

    For GaussianSphere (and Gaussian-base) models where the compiled fill
    loads, one call without the interpreter lock draws every seed's rows
    and uniforms; elsewhere, and where one generator is passed twice, the
    seeds are drawn one at a time.  DatasetRows rows are gathered after
    every seed's indices are drawn, in one call where ``out`` is C-contiguous.
    """
    m, n = out.shape[:2]
    xi_rngs, XI = uniforms if uniforms is not None else ((), None)
    if len(rngs) != m or (XI is not None and (len(xi_rngs) != m or XI.shape != (m, n))):
        raise ValueError(
            f"sample_seeds: {len(rngs)} generators for {m} seeds of {n} steps"
            + ("" if XI is None else f", {len(xi_rngs)} uniform generators for uniforms of shape {XI.shape}")
        )
    everyone = [*rngs, *xi_rngs]
    gaussian = isinstance(model, GaussianSphere) or getattr(model, "base", None) == "gaussian"
    fits = _seed_major(out) and (XI is None or _seed_major(XI))
    lib = _fill_library(everyone) if gaussian and fits else None
    # One call holds each generator's lock once and draws a seed's zero-norm rows after the other seeds'.
    if lib is not None and len({id(rng) for rng in everyone}) == len(everyone):
        _sphere_pass(lib, rngs, out, uniforms)
        return None
    idx = np.empty((m, n), dtype=int) if isinstance(model, DatasetRows) else None
    for i, rng in enumerate(rngs):
        if idx is not None:
            idx[i] = rng.integers(0, model.n_rows, size=n)
        elif isinstance(model, NormalizedRademacher):
            np.divide(_rademacher(rng, out[i]), math.sqrt(model.d), out=out[i])
        elif lib is not None:  # a generator passed twice: one seed's rows per call, in order
            _sphere_pass(lib, rngs[i : i + 1], out[i : i + 1])
        else:
            draw = _standard_normal if gaussian else _ENTRY_DRAWS[model.base]
            _normalize_rows(draw(rng, out=out[i]), rng, draw)
        if XI is not None:
            xi_rngs[i].random(out=XI[i])
    if idx is not None:
        # Every seed's rows in one gather where out is one C-contiguous buffer (np.take would gather
        # a partial block's strided slice into a temporary), else seed by seed; idx is in range.
        for dst, src in [(out, idx)] if out.flags.c_contiguous else zip(out, idx):
            np.take(model.unit_rows, src, axis=0, out=dst, mode="clip")
    return idx


def sample_drift_terms(model: MeasurementModel, rng: np.random.Generator, u, out) -> bool:
    """Draw n rows ``a`` as ``sample_block(model, rng, n)`` would and keep, per row, only three sums.

    ``out`` is a (3, n) float array with C-contiguous rows, and gets
    ``<a, u>``, ``||u - a||^2`` and ``||u + a||^2``: ``np.einsum("ij,j->i", A, u)``
    and ``np.einsum("ij,ij->i", W, W)`` of ``W = u - A`` and ``u + A``, bit for
    bit, with ``rng`` left as ``sample_block`` leaves it.  The compiled fill
    reduces each row while it is in L1, so no (n, d) array is made.  The rare
    rows of norm 0 are redrawn after the others, as ``sample_block`` redraws
    them, and reduced here.  Returns False, having drawn nothing, where the
    model is not Gaussian-based or the fill does not load.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    if u.shape != (model.d,):
        raise ValueError(f"sample_drift_terms: u has shape {u.shape}, the model draws rows of {model.d}")
    if out.ndim != 2 or len(out) != 3 or not _seed_major(out):
        raise ValueError("sample_drift_terms: out must be a (3, n) float array of C-contiguous, writable rows")
    gaussian = isinstance(model, GaussianSphere) or getattr(model, "base", None) == "gaussian"
    lib = _fill_library([rng]) if gaussian else None
    if lib is None:
        return False
    dots, minus, plus = out
    row = np.empty(u.size)
    with rng.bit_generator.lock:
        lost = lib.sk_drift_pass(
            rng.bit_generator.ctypes.bit_generator.value, dots.size, u.size, u.ctypes.data,
            row.ctypes.data, dots.ctypes.data, minus.ctypes.data, plus.ctypes.data,
        )
    if lost:
        bad = np.flatnonzero(minus < 0.0)  # the rows of norm 0, as the pass marks them
        A = np.empty((lost, u.size))
        _sphere_pass(lib, [rng], A[None])
        dots[bad] = np.einsum("ij,j->i", A, u)
        for sums, W in ((minus, u - A), (plus, u + A)):
            sums[bad] = np.einsum("ij,ij->i", W, W)
    return True


def exact_sphere_constant(d: int) -> float:
    """sqrt(d) * E|<u, a>| for a uniform on S^{d-1} and any fixed unit u.

    Equals sqrt(d) * Gamma(d/2) / (sqrt(pi) * Gamma((d+1)/2)); decreases
    to sqrt(2/pi) as d -> infinity, and is 1 at d = 1.
    """
    _check_dimension(d)
    return math.exp(
        0.5 * math.log(d)
        + math.lgamma(d / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma((d + 1) / 2.0)
    )


def _ctilde_block_rows(d: int, n_directions: int) -> int:
    """Rows per full block of ``estimate_ctilde``'s draws.

    CTILDE_BLOCK_VALUES over the wider of d and J, so that neither buffer
    grows with the other, but at least CTILDE_PRODUCT_VALUES over J.
    """
    return max(4, CTILDE_BLOCK_VALUES // max(d, n_directions), CTILDE_PRODUCT_VALUES // n_directions)


def _chunk_blocks(m: int, rows: int):
    """(start, length) of each block of a chunk of m rows.

    Blocks are ``rows`` long, but where more than one and less than two are
    left, the last two split what is left; so a block is the whole chunk
    or at least half of ``rows`` (never one row when ``rows`` >= 3).
    """
    i = 0
    while i < m:
        left = m - i
        r = left if left <= rows else rows if left >= 2 * rows else left // 2
        yield i, r
        i += r


def _directions(directions, d: int) -> np.ndarray:
    """The (J, d) unit rows of user ``directions``, or one ValueError naming what is wrong."""
    U = np.atleast_2d(np.asarray(directions, dtype=float))
    if U.ndim != 2 or U.shape[0] == 0 or U.shape[1] != d:
        raise ValueError(f"directions: expected a (J, {d}) array with J >= 1, got shape {np.shape(directions)}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(U, axis=1)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"directions: row {i} has norm {norms[i]}, expected a finite nonzero norm")
    return U / norms[:, None]


def estimate_ctilde(
    model: MeasurementModel,
    n_samples: int,
    rng: np.random.Generator,
    n_directions: int = 32,
    directions=None,
) -> CtildeEstimate:
    """Estimate the anti-concentration constant of a measurement model.

    Draws ``n_directions`` random unit directions u (shared across one
    pool of ``n_samples`` measurement draws), computes the Monte Carlo
    mean of sqrt(d)*|<u, a>| for each, and reports the minimum across
    directions as a lower-confidence proxy for the infimum over all u.

    The draws come in chunks of CTILDE_CHUNK rows, and each chunk's sums
    of sqrt(d)|<u, a>| and of its square are added to the totals.  A chunk
    is drawn and reduced in blocks of ``_ctilde_block_rows(d, J)`` rows,
    each block's draws and products in one reused buffer apiece, with the
    bits of drawing and reducing the chunk whole:

    - ``sample_block`` draws the same rows in blocks as in one call.
    - A product row of ``A @ U.T`` has the same bits in any block whose
      product has more than about 1200 values: OpenBLAS runs it through
      a whole chunk's kernels.  A smaller product goes through its
      small-matrix kernels, and a one-row product is a gemv, so
      ``_chunk_blocks`` keeps every block at least half of a full one
      unless it is the whole chunk.
    - ``add.reduce`` over the rows of a C-contiguous (m, J >= 2) array
      adds row by row, so the chunk's sums so far, put in the row above a
      block, carry on into it.  A lone column it sums pairwise, so for
      J = 1 the chunk's whole column is kept and summed once.

    Parameters
    ----------
    directions : optional (J, d) array of nonzero, finite directions. When
        given, overrides ``n_directions`` and the internal direction draw;
        it is checked before anything is drawn.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    d = model.d
    if directions is None:
        if n_directions < 1:
            raise ValueError("n_directions must be at least 1")
        U, _ = sample_block(GaussianSphere(d), rng, n_directions)
    else:
        U = _directions(directions, d)
    n_dir = U.shape[0]

    rows = min(_ctilde_block_rows(d, n_dir), n_samples)
    block = np.empty((rows, d))
    whole = n_dir == 1
    z = np.empty((min(CTILDE_CHUNK, n_samples), 1) if whole else (rows + 1, n_dir))
    chunk = np.empty((2, n_dir))  # the chunk's sum and sum of squares so far
    sums = np.zeros(n_dir)
    sumsqs = np.zeros(n_dir)
    scale = math.sqrt(d)
    for start in range(0, n_samples, CTILDE_CHUNK):
        m = min(CTILDE_CHUNK, n_samples - start)
        for i, r in _chunk_blocks(m, rows):
            A, _ = sample_block(model, rng, r, out=block[:r])
            prod = z[i : i + r] if whole else z[1 : r + 1]
            np.matmul(A, U.T, out=prod)
            np.abs(prod, out=prod)
            prod *= scale
            if whole:
                continue
            for k in (0, 1):  # the sum, then the sum of squares, carried on from the row above
                if k:
                    np.multiply(prod, prod, out=prod)
                if i:
                    z[0] = chunk[k]
                np.add.reduce(z[0 if i else 1 : r + 1], axis=0, out=chunk[k])
        if whole:
            col = z[:m]
            np.add.reduce(col, axis=0, out=chunk[0])
            np.multiply(col, col, out=col)
            np.add.reduce(col, axis=0, out=chunk[1])
        sums += chunk[0]
        sumsqs += chunk[1]

    means = sums / n_samples
    var = np.maximum(sumsqs / n_samples - means**2, 0.0) * n_samples / max(n_samples - 1, 1)
    stderrs = np.sqrt(var / n_samples)
    j = int(np.argmin(means))
    return CtildeEstimate(
        value=float(means[j]),
        stderr=float(stderrs[j]),
        n_samples=n_samples,
        n_directions=n_dir,
    )
