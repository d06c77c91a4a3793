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

#: Large-d limit of the sphere constant, sqrt(2/pi).
GAUSSIAN_LIMIT_CONSTANT = math.sqrt(2.0 / math.pi)

#: Measurement draws per block in ``estimate_ctilde``, drawn into one reused
#: (CTILDE_CHUNK, d) buffer.
CTILDE_CHUNK = 50_000

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


@dataclass(frozen=True)
class NormalizedIIDSubGaussian:
    """IID mean-zero unit-variance entries, normalized to the sphere.

    ``base`` selects the entry distribution: "gaussian", "rademacher",
    or "uniform" (uniform on [-sqrt(3), sqrt(3)]).
    """

    d: int
    base: str = "uniform"

    def __post_init__(self):
        _check_dimension(self.d)
        if self.base not in ("gaussian", "rademacher", "uniform"):
            raise ValueError(f"unknown sub-Gaussian base {self.base!r}")


class DatasetRows:
    """Measurement vectors drawn from the rows of a fixed matrix.

    Rows are normalized to unit norm at sampling time; ``row_norms``
    holds the original norms so responses can be rescaled to keep the
    regression system unchanged.  Sampling is uniform with replacement.
    """

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("dataset has no rows")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("dataset contains a zero row; cannot normalize")
        if not np.all(np.isfinite(norms)):
            raise ValueError("dataset contains a non-finite row; cannot normalize")
        self.rows = rows
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
        g[bad] = draw(rng, np.empty((int(bad.sum()), g.shape[1])))
        norms = _row_norms(g)
    g /= norms[:, None]
    return g


def _standard_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    return rng.standard_normal(out=out)


def _gaussian_rows(rng: np.random.Generator, g: np.ndarray) -> np.ndarray:
    """``_normalize_rows(_standard_normal(rng, g), rng, _standard_normal)`` bit for bit.

    Where the compiled fill loads, and for a Generator and a C-contiguous,
    aligned, writable float ``g``, one compiled pass draws each row and
    divides it by its norm, under the bit generator's lock as numpy's fill
    runs.  The rare rows of norm 0 come back undivided and are redrawn,
    normalized alike, with the generator calls of ``_normalize_rows``.
    """
    lib = None
    if isinstance(rng, np.random.Generator) and g.dtype == np.float64 and g.flags.carray:
        from . import _kernel  # on the first draw, not at import

        lib = _kernel.load("Gaussian fill")
    if lib is None:
        return _normalize_rows(_standard_normal(rng, g), rng, _standard_normal)
    bitgen = rng.bit_generator
    with bitgen.lock:
        zeros = lib.sk_sphere_fill(bitgen.ctypes.bit_generator, *g.shape, g.ctypes.data)
    if zeros:
        g[_row_norms(g) == 0.0] = _gaussian_rows(rng, np.empty((zeros, g.shape[1])))
    return g


def _rademacher(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    np.copyto(out, rng.integers(0, 2, size=out.shape) * 2 - 1)
    return out


def _uniform(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """rng.uniform(-sqrt(3), sqrt(3)) bit for bit: numpy draws it as low + (high - low) u."""
    low, high = -math.sqrt(3.0), math.sqrt(3.0)
    rng.random(out=out)
    out *= high - low
    out += low
    return out


_ENTRY_DRAWS = {"rademacher": _rademacher, "uniform": _uniform}


def sample_block(model: MeasurementModel, rng: np.random.Generator, n: int, out=None):
    """Draw ``n`` measurement vectors.

    Returns ``(A, idx)`` where ``A`` is an (n, d) array of unit-norm
    rows and ``idx`` is the (n,) array of source row indices for
    DatasetRows models (None otherwise).  ``A`` is ``out`` when given, a
    C-contiguous (n, d) float array the rows are drawn into; it changes
    no bit of the draw.
    """
    if not isinstance(model, MeasurementModel):
        raise TypeError(f"unknown measurement model {model!r}")
    A = np.empty((n, model.d)) if out is None else out
    if isinstance(model, DatasetRows):
        idx = rng.integers(0, model.n_rows, size=n)
        # mode="raise" would gather through a temporary; idx is in range.
        return np.take(model.unit_rows, idx, axis=0, out=A, mode="clip"), idx
    if isinstance(model, NormalizedRademacher):
        return np.divide(_rademacher(rng, A), math.sqrt(model.d), out=A), None
    if isinstance(model, GaussianSphere) or model.base == "gaussian":
        return _gaussian_rows(rng, A), None
    draw = _ENTRY_DRAWS[model.base]
    return _normalize_rows(draw(rng, A), rng, draw), None


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

    Parameters
    ----------
    directions : optional (J, d) array of unit directions. When given,
        overrides ``n_directions`` and the internal direction draw.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    d = model.d
    if directions is None:
        if n_directions < 1:
            raise ValueError("n_directions must be at least 1")
        U, _ = sample_block(GaussianSphere(d), rng, n_directions)
    else:
        U = np.atleast_2d(np.asarray(directions, dtype=float))
        norms = np.linalg.norm(U, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("directions must be nonzero")
        U = U / norms[:, None]
    n_dir = U.shape[0]

    sums = np.zeros(n_dir)
    sumsqs = np.zeros(n_dir)
    remaining = n_samples
    scale = math.sqrt(d)
    buf = np.empty((min(CTILDE_CHUNK, n_samples), d))
    while remaining > 0:
        m = min(CTILDE_CHUNK, remaining)
        A, _ = sample_block(model, rng, m, out=buf[:m])
        z = A @ U.T  # (m, n_dir)
        np.abs(z, out=z)
        z *= scale
        sums += z.sum(axis=0)
        z *= z
        sumsqs += z.sum(axis=0)
        del z  # freed before the next draw, whose numpy row norms allocate their squares
        remaining -= m

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
