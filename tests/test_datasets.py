import math
import os
from pathlib import Path

import numpy as np
import pytest

from sgdexp.datasets import (
    RED_WINE_FEATURES,
    RED_WINE_RESPONSE,
    DatasetMatrix,
    evaluate_clean_loss,
    least_squares_baseline,
    load_csv,
    load_red_wine,
    red_wine_schema,
)

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
    with pytest.raises(ValueError, match=r"row 3.*'a'"):
        load_csv(path, ["a"], "y")


@pytest.mark.parametrize(
    "body, location",
    [
        ("1,2\nnan,3\n", r"row 3, column 'a'"),
        ("1,2\ninf,3\n", r"row 3, column 'a'"),
        ("1,2\n2,-Infinity\n", r"row 3, column 'y'"),
    ],
    ids=["nan", "inf", "response-neg-inf"],
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
        data = DatasetMatrix(features=np.eye(2), responses=np.array([2.0, 3.0]))
        assert evaluate_clean_loss(np.array([2.0, 3.0]), data) == 0.0

    def test_zero_vector(self):
        y = np.array([1.0, -2.0, 2.0])
        data = DatasetMatrix(features=np.eye(3), responses=y)
        assert evaluate_clean_loss(np.zeros(3), data) == pytest.approx(
            float(y @ y) / 3, rel=1e-15
        )

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        x = rng.standard_normal(3)
        data = DatasetMatrix(features=A, responses=y)
        manual = sum((float(A[i] @ x) - y[i]) ** 2 for i in range(5)) / 5
        assert evaluate_clean_loss(x, data) == pytest.approx(manual, rel=1e-12)

    def test_relu_mode(self):
        A = np.array([[1.0], [-1.0]])
        data = DatasetMatrix(features=A, responses=np.array([1.0, 0.0]))
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
        data = DatasetMatrix(features=rng.standard_normal((m, d)), responses=rng.standard_normal(m))
        X = rng.standard_normal(lead + (d,))
        losses = evaluate_clean_loss(X, data, relu=relu)
        for i in np.ndindex(lead):
            pred = data.features @ X[i]
            if relu:
                pred = np.maximum(pred, 0.0)
            resid = pred - data.responses
            expected = float(resid @ resid / data.m)
            assert (losses[i] if lead else losses) == expected
        assert isinstance(losses, float) == (lead == ())

    def test_dimension_mismatch(self):
        data = DatasetMatrix(features=np.eye(2), responses=np.zeros(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate_clean_loss(np.zeros(3), data)


class TestLeastSquares:
    def test_exactly_determined(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        data = DatasetMatrix(features=A, responses=np.array([2.0, 2.0]))
        assert np.allclose(least_squares_baseline(data), [1.0, 0.5], rtol=1e-12)

    def test_planted_recovery(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((200, 8))
        x_star = rng.standard_normal(8)
        data = DatasetMatrix(features=A, responses=A @ x_star)
        x_hat = least_squares_baseline(data)
        assert np.linalg.norm(x_hat - x_star) <= 1e-8 * np.linalg.norm(x_star)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        data = DatasetMatrix(features=A, responses=y)
        x_hat = least_squares_baseline(data)
        assert np.max(np.abs(A.T @ (A @ x_hat - y))) <= 1e-8

    def test_rank_deficiency_errors(self):
        A = np.ones((6, 2))  # duplicate columns
        data = DatasetMatrix(features=A, responses=np.arange(6.0))
        with pytest.raises(ValueError, match="singular"):
            least_squares_baseline(data)

    def test_underdetermined_errors(self):
        data = DatasetMatrix(features=np.ones((2, 3)), responses=np.zeros(2))
        with pytest.raises(ValueError, match="rows"):
            least_squares_baseline(data)


class TestRedWineLoader:
    def test_uci_schema_mapping(self, tmp_path):
        # raw UCI export style: semicolon delimiter, prose column names
        path = tmp_path / "uci.csv"
        header = (
            "fixed acidity;volatile acidity;citric acid;residual sugar;chlorides;"
            "free sulfur dioxide;density;pH;sulphates;alcohol;quality"
        )
        rows = [";".join(str(v + i) for v in range(11)) for i in range(12)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        data = load_red_wine(path, z_score=False, center_response=False)
        assert data.feature_names == RED_WINE_FEATURES
        assert data.response_name == RED_WINE_RESPONSE
        assert data.m == 12 and data.d == 10
        assert data.responses[0] == 10.0

    def test_schema_of_each_layout(self, tmp_path):
        uci = tmp_path / "uci.csv"
        uci.write_text(
            '"fixed acidity";"volatile acidity";"citric acid";"residual sugar";'
            '"chlorides";"free sulfur dioxide";"density";"pH";"sulphates";"alcohol";'
            '"quality"\n' + ";".join(["1"] * 11) + "\n"
        )
        delimiter, features, response = red_wine_schema(uci)
        assert delimiter == ";"
        assert features[0] == "fixed acidity" and features[-1] == "alcohol"
        assert len(features) == 10 and response == "quality"

        comma = tmp_path / "wine.csv"
        comma.write_text(",".join(RED_WINE_FEATURES + [RED_WINE_RESPONSE]) + "\n")
        assert red_wine_schema(comma) == (",", RED_WINE_FEATURES, RED_WINE_RESPONSE)

    def test_uci_schema_missing_column(self, tmp_path):
        path = tmp_path / "uci.csv"
        path.write_text("fixed acidity;quality\n1;2\n")
        with pytest.raises(ValueError, match="missing column 'volatileAcidity'"):
            red_wine_schema(path)

    def test_comma_schema(self, tmp_path):
        path = tmp_path / "wine.csv"
        header = ",".join(RED_WINE_FEATURES + [RED_WINE_RESPONSE])
        rows = [",".join(str(v + i) for v in range(11)) for i in range(12)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        data = load_red_wine(path, z_score=True)
        assert data.m == 12
        assert np.all(np.abs(data.features.mean(axis=0)) < 1e-9)

    @pytest.mark.skipif(wine_path() is None, reason="red wine CSV not present")
    def test_real_dataset_row_count(self):
        data = load_red_wine(wine_path())
        assert data.m == 1599
        assert data.d == 10
