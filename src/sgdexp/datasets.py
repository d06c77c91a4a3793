"""CSV ingestion and regression metrics for real-data experiments."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class DatasetMatrix:
    """Feature matrix plus responses."""

    features: np.ndarray  # (m, d)
    responses: np.ndarray  # (m,)
    feature_names: list = field(default_factory=list)
    response_name: str = ""

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def load_csv(
    path,
    feature_columns,
    response_column: str,
    center: bool = False,
    z_score: bool = False,
    row_normalize: bool = False,
    center_response: bool = False,
    delimiter: str = ",",
) -> DatasetMatrix:
    """Load named columns from a headered CSV and preprocess.

    Preprocessing applies in order center -> z-score -> row-normalize
    (each optional).  z-scoring uses the sample standard deviation
    (ddof=1).  ``center_response`` subtracts the response mean, which a
    model without an intercept needs when the features are centered.

    Raises ValueError for a delimiter that is not one character, naming
    the offending column for missing columns, the line of a row shorter
    than the header, and the (line, column) location for non-numeric or
    non-finite cells.  Lines count from 1 at the header, blank lines
    included.
    """
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0][1]]
    body = rows[1:]
    feature_columns = list(feature_columns)
    col_index = {}
    for name in feature_columns + [response_column]:
        if name not in header:
            raise ValueError(f"{path}: missing column {name!r}")
        col_index[name] = header.index(name)

    m = len(body)
    if m == 0:
        raise ValueError(f"{path}: no data rows")
    X = np.empty((m, len(feature_columns)))
    y = np.empty(m)
    for i, (line, row) in enumerate(body):
        if len(row) < len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} cells, the header has {len(header)}")
        for j, name in enumerate(feature_columns + [response_column]):
            cell = row[col_index[name]].strip()
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-numeric or non-finite cell {cell!r} at line {line}, "
                    f"column {name!r}"
                )
            if j < len(feature_columns):
                X[i, j] = value
            else:
                y[i] = value

    if center:
        X = X - X.mean(axis=0)
    if z_score:
        if m < 2:
            raise ValueError(f"{path}: z-scoring needs at least two data rows")
        std = X.std(axis=0, ddof=1)
        zero = np.flatnonzero(std == 0.0)
        if zero.size:
            raise ValueError(
                f"{path}: cannot z-score constant column {feature_columns[zero[0]]!r}"
            )
        X = (X - X.mean(axis=0)) / std
    if row_normalize:
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms == 0.0):
            raise ValueError(f"{path}: cannot row-normalize a zero row")
        X = X / norms[:, None]
    if center_response:
        y = y - y.mean()

    return DatasetMatrix(
        features=X,
        responses=y,
        feature_names=feature_columns,
        response_name=response_column,
    )


def _residual_numpy(x, F, y, relu: bool):
    """``F x - y`` per iterate of the (..., d) stack ``x``, the prediction max(0, F x) with ``relu``."""
    pred = np.matmul(F, x[..., None])[..., 0]
    if relu:
        pred = np.maximum(pred, 0.0)
    return pred - y


def _residual(x, F, y, relu: bool):
    """``_residual_numpy``'s bits, from the compiled clean-loss residual where it loads and fits.

    It fits C-contiguous float64 ``F`` and (n,) ``y``, at least two rows (one
    row is numpy's dot, not its matrix-vector product), a row length its
    self-test covers and a shape whose rows numpy sums as the part does
    (``_kernel.cleanloss_rows_agree``); ``x`` is made a contiguous float64 stack.
    """
    from . import _kernel  # on the first clean loss, not at import

    n, d = F.shape
    fits = n >= 2 and d in _kernel.CLEANLOSS_TEST_DIMS and y.shape == (n,) and F.dtype == y.dtype == np.float64
    lib = _kernel.load("clean loss") if fits and F.flags.c_contiguous and y.flags.c_contiguous else None
    if lib is None or not _kernel.cleanloss_rows_agree(lib, n, d):
        return _residual_numpy(x, F, y, relu)
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty(x.shape[:-1] + (n,))
    lib.sk_resid(x.size // d, n, d, F.ctypes.data, x.ctypes.data, y.ctypes.data, int(relu), out.ctypes.data)
    return out


def evaluate_clean_loss(x, model, relu: bool = False):
    """Mean squared loss (1/m) sum (<a_i, x> - y_i)^2 over a ``measurement.DatasetRows``' rows and responses.

    With ``relu`` the prediction is max(0, <a_i, x>).  ``x`` is one (d,)
    iterate, giving a float, or a (..., d) stack, giving an array of shape
    ``x.shape[:-1]``; each iterate of a stack gets the bits of its own call
    (numpy runs the same matrix-vector product and dot per iterate).  The
    residual comes from the compiled clean-loss part where it loads, in the
    same bits (``_residual``); the sum of squares is numpy's.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (model.d,):
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, data d = {model.d}")
    resid = _residual(x, model.rows, model.responses, relu)
    loss = np.matmul(resid[..., None, :], resid[..., :, None])[..., 0, 0] / model.n_rows
    return float(loss) if x.ndim == 1 else loss


def least_squares_baseline(model) -> np.ndarray:
    """Minimum-norm minimizer of the clean loss of a ``measurement.DatasetRows``, for any feature matrix.

    Singular values below 1e-12 of the largest count as zero.
    """
    return np.linalg.lstsq(model.rows, model.responses, rcond=1e-12)[0]
