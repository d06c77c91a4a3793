"""CSV ingestion and regression metrics for real-data experiments."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

#: Feature/response schema used by the red-wine benchmark (10 numeric features).
RED_WINE_FEATURES = [
    "fixedAcidity",
    "volatileAcidity",
    "citricAcid",
    "residualSugar",
    "chlorides",
    "freeSulfurDioxide",
    "density",
    "pH",
    "sulphates",
    "alcohol",
]
RED_WINE_RESPONSE = "quality"

# Column names as distributed in the raw UCI file, mapped to the schema above.
_UCI_WINE_NAMES = {
    "fixed acidity": "fixedAcidity",
    "volatile acidity": "volatileAcidity",
    "citric acid": "citricAcid",
    "residual sugar": "residualSugar",
    "chlorides": "chlorides",
    "free sulfur dioxide": "freeSulfurDioxide",
    "density": "density",
    "pH": "pH",
    "sulphates": "sulphates",
    "alcohol": "alcohol",
    "quality": "quality",
}


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


def _parse_table(path, delimiter: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0]]
    return header, rows[1:]


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

    Raises ValueError naming the offending column for missing columns
    and the (row, column) location for non-numeric or non-finite cells.
    """
    header, body = _parse_table(path, delimiter)
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
    for i, row in enumerate(body):
        for j, name in enumerate(feature_columns + [response_column]):
            cell = row[col_index[name]].strip()
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-numeric or non-finite cell {cell!r} at row {i + 2}, "
                    f"column {name!r}"
                )
            if j < len(feature_columns):
                X[i, j] = value
            else:
                y[i] = value

    if center:
        X = X - X.mean(axis=0)
    if z_score:
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


def red_wine_schema(path):
    """Returns (delimiter, feature columns, response column) of a red-wine CSV.

    The comma schema uses the camelCase names of ``RED_WINE_FEATURES``;
    the raw UCI export is semicolon separated with prose column names.
    """
    header, _ = _parse_table(path, ",")
    if not (len(header) == 1 and ";" in header[0]):
        return ",", list(RED_WINE_FEATURES), RED_WINE_RESPONSE
    raw_header, _ = _parse_table(path, ";")
    by_schema_name = {_UCI_WINE_NAMES.get(n, n): n for n in raw_header}
    missing = [f for f in RED_WINE_FEATURES + [RED_WINE_RESPONSE] if f not in by_schema_name]
    if missing:
        raise ValueError(f"{path}: missing column {missing[0]!r}")
    return ";", [by_schema_name[f] for f in RED_WINE_FEATURES], by_schema_name[RED_WINE_RESPONSE]


def load_red_wine(path, z_score: bool = True, center_response: bool = True) -> DatasetMatrix:
    """Load the red-wine quality CSV in either schema (comma or UCI semicolon)."""
    delimiter, features, response = red_wine_schema(path)
    data = load_csv(
        path,
        features,
        response,
        z_score=z_score,
        center_response=center_response,
        delimiter=delimiter,
    )
    data.feature_names = list(RED_WINE_FEATURES)
    data.response_name = RED_WINE_RESPONSE
    return data


def evaluate_clean_loss(x, data: DatasetMatrix, relu: bool = False):
    """Mean squared loss (1/m) sum (<a_i, x> - y_i)^2 against the stored responses.

    With ``relu`` the prediction is max(0, <a_i, x>).  ``x`` is one (d,)
    iterate, giving a float, or a (..., d) stack, giving an array of shape
    ``x.shape[:-1]``; each iterate of a stack gets the bits of its own call
    (numpy runs the same matrix-vector product and dot per iterate).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (data.d,):
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, data d = {data.d}")
    pred = np.matmul(data.features, x[..., None])[..., 0]
    if relu:
        pred = np.maximum(pred, 0.0)
    resid = pred - data.responses
    loss = np.matmul(resid[..., None, :], resid[..., :, None])[..., 0, 0] / data.m
    return float(loss) if x.ndim == 1 else loss


def least_squares_baseline(data: DatasetMatrix) -> np.ndarray:
    """Ordinary least-squares minimizer of the clean loss.

    Requires m >= d and a numerically nonsingular system (smallest
    singular value above 1e-12 relative); raises ValueError otherwise.
    """
    if data.m < data.d:
        raise ValueError(f"need at least d={data.d} rows, got m={data.m}")
    solution, _, rank, _ = np.linalg.lstsq(data.features, data.responses, rcond=1e-12)
    if rank < data.d:
        raise ValueError(
            f"singular system: feature matrix has numerical rank {rank} < d = {data.d}"
        )
    return solution
