import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgdexp.datasets import evaluate_clean_loss, least_squares_baseline, load_csv
from sgdexp.measurement import DatasetRows

REDWINE = json.loads((Path(__file__).resolve().parent.parent / "configs" / "redwine.json").read_text())
WINE_PATHS = [
    Path(__file__).resolve().parent.parent / "data" / "winequality-red.csv",
]
if os.environ.get("RSGD_DATA_DIR"):
    WINE_PATHS.insert(0, Path(os.environ["RSGD_DATA_DIR"]) / "winequality-red.csv")


def wine_path():
    for p in WINE_PATHS:
        if p.exists():
            return p
    return None


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("a,b,y\n1,4,1\n2,6,2\n3,8,3\n")
    return path


def test_load_small_and_z_score(small_csv):
    data = load_csv(small_csv, ["a", "b"], "y", z_score=True)
    assert data.m == 3 and data.d == 2
    assert np.all(np.abs(data.features.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(data.features.std(axis=0, ddof=1) - 1.0) < 1e-9)


def test_row_normalize(small_csv):
    data = load_csv(small_csv, ["a", "b"], "y", row_normalize=True)
    assert np.allclose(np.linalg.norm(data.features, axis=1), 1.0, rtol=1e-9, atol=0)


def test_center_only(small_csv):
    data = load_csv(small_csv, ["a", "b"], "y", center=True)
    assert np.all(np.abs(data.features.mean(axis=0)) < 1e-12)


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_delimiter_must_be_one_character(small_csv, delimiter):
    with pytest.raises(ValueError, match=f"^delimiter must be a single character, got {delimiter!r}$"):
        load_csv(small_csv, ["a", "b"], "y", delimiter=delimiter)


def test_center_response(small_csv):
    data = load_csv(small_csv, ["a", "b"], "y", center_response=True)
    assert abs(data.responses.mean()) < 1e-12


def test_missing_column_named(small_csv):
    with pytest.raises(ValueError, match="'c'"):
        load_csv(small_csv, ["a", "c"], "y")
    with pytest.raises(ValueError, match="'z'"):
        load_csv(small_csv, ["a"], "z")


def test_non_numeric_cell_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1,2\noops,3\n")
    with pytest.raises(ValueError, match=r"line 3.*'a'"):
        load_csv(path, ["a"], "y")


@pytest.mark.parametrize(
    "body, location",
    [
        ("1,2\nnan,3\n", r"line 3, column 'a'"),
        ("1,2\ninf,3\n", r"line 3, column 'a'"),
        ("1,2\n2,-Infinity\n", r"line 3, column 'y'"),
        ("\n1,2\n\nnan,3\n", r"line 5, column 'a'"),
    ],
    ids=["nan", "inf", "response-neg-inf", "after-blank-lines"],
)
def test_non_finite_cell_located(tmp_path, body, location):
    # a NaN cell would otherwise turn the whole z-scored column into NaN
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n" + body)
    with pytest.raises(ValueError, match="non-finite cell .*" + location):
        load_csv(path, ["a"], "y", z_score=True)


def test_constant_column_cannot_z_score(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("a,y\n5,1\n5,2\n5,3\n")
    with pytest.raises(ValueError, match="constant column 'a'"):
        load_csv(path, ["a"], "y", z_score=True)


def test_one_row_cannot_z_score(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("a,b,y\n1,2,3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: z-scoring needs at least two data rows$"):
            load_csv(path, ["a", "b"], "y", z_score=True)
    assert load_csv(path, ["a", "b"], "y").m == 1


def test_z_score_idempotent(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "rand.csv"
    rows = rng.standard_normal((50, 3)) * [3.0, 0.1, 10.0] + [5.0, -2.0, 0.0]
    lines = ["a,b,c,y"]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row) + ",1")
    path.write_text("\n".join(lines) + "\n")
    once = load_csv(path, ["a", "b", "c"], "y", z_score=True)
    path2 = tmp_path / "rand2.csv"
    lines = ["a,b,c,y"]
    for row in once.features:
        lines.append(",".join(format(v, ".17g") for v in row) + ",1")
    path2.write_text("\n".join(lines) + "\n")
    twice = load_csv(path2, ["a", "b", "c"], "y", z_score=True)
    assert np.max(np.abs(twice.features - once.features)) <= 1e-9


class TestEvaluateCleanLoss:
    def test_exact_fit_zero(self):
        data = DatasetRows(np.eye(2), np.array([2.0, 3.0]))
        assert evaluate_clean_loss(np.array([2.0, 3.0]), data) == 0.0

    def test_zero_vector(self):
        y = np.array([1.0, -2.0, 2.0])
        data = DatasetRows(np.eye(3), y)
        assert evaluate_clean_loss(np.zeros(3), data) == pytest.approx(
            float(y @ y) / 3, rel=1e-15
        )

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        x = rng.standard_normal(3)
        data = DatasetRows(A, y)
        manual = sum((float(A[i] @ x) - y[i]) ** 2 for i in range(5)) / 5
        assert evaluate_clean_loss(x, data) == pytest.approx(manual, rel=1e-12)

    def test_relu_mode(self):
        A = np.array([[1.0], [-1.0]])
        data = DatasetRows(A, np.array([1.0, 0.0]))
        x = np.array([1.0])
        # predictions relu(1) = 1 and relu(-1) = 0: exact fit
        assert evaluate_clean_loss(x, data, relu=True) == 0.0
        assert evaluate_clean_loss(x, data, relu=False) == pytest.approx(0.5)

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("m, lead", [(40, ()), (40, (1,)), (257, (3,)), (1599, (2, 5)), (1599, (4, 1))])
    def test_stack_matches_one_call_per_iterate(self, relu, m, lead):
        # The reference is the one-iterate expression: a gemv, then a dot.
        d = 10
        rng = np.random.default_rng(m)
        data = DatasetRows(rng.standard_normal((m, d)), rng.standard_normal(m))
        X = rng.standard_normal(lead + (d,))
        losses = evaluate_clean_loss(X, data, relu=relu)
        for i in np.ndindex(lead):
            pred = data.rows @ X[i]
            if relu:
                pred = np.maximum(pred, 0.0)
            resid = pred - data.responses
            expected = float(resid @ resid / data.n_rows)
            assert (losses[i] if lead else losses) == expected
        assert isinstance(losses, float) == (lead == ())

    def test_dimension_mismatch(self):
        data = DatasetRows(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate_clean_loss(np.zeros(3), data)


class TestLeastSquares:
    def test_exactly_determined(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        data = DatasetRows(A, np.array([2.0, 2.0]))
        assert np.allclose(least_squares_baseline(data), [1.0, 0.5], rtol=1e-12)

    def test_planted_recovery(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((200, 8))
        x_star = rng.standard_normal(8)
        data = DatasetRows(A, A @ x_star)
        x_hat = least_squares_baseline(data)
        assert np.linalg.norm(x_hat - x_star) <= 1e-8 * np.linalg.norm(x_star)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        data = DatasetRows(A, y)
        x_hat = least_squares_baseline(data)
        assert np.max(np.abs(A.T @ (A @ x_hat - y))) <= 1e-8


class TestRedWineLoader:
    def test_raw_uci_export_reads_with_its_delimiter_and_names(self, tmp_path):
        # The raw UCI file is semicolon separated, with quoted prose column names.
        path = tmp_path / "uci.csv"
        names = [
            "fixed acidity", "volatile acidity", "citric acid", "residual sugar", "chlorides",
            "free sulfur dioxide", "density", "pH", "sulphates", "alcohol",
        ]
        header = ";".join(f'"{n}"' for n in names + ["quality"])
        rows = [";".join(str(v + i) for v in range(11)) for i in range(12)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        data = load_csv(path, names, "quality", delimiter=";")
        assert data.m == 12 and data.d == 10
        assert data.responses[0] == 10.0

    @pytest.mark.skipif(wine_path() is None, reason="red wine CSV not present")
    def test_real_dataset_row_count(self):
        m = REDWINE["measurement"]
        data = load_csv(wine_path(), m["features"], m["response"])
        assert data.m == 1599
        assert data.d == 10
