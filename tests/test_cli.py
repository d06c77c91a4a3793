import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdexp
from sgdexp.cli import main
from sgdexp.results import CSV_HEADER

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 6,
                "horizon": 300,
                "seeds": [1, 2],
                "checkpoint_every": 100,
                "measurement": {"kind": "gaussian_sphere"},
                "corruption": {"kind": "sign_flip", "p": 0.2},
                "solvers": [
                    {"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.01, "G": "auto"}
                ],
            }
        )
    )
    return path


def test_run_success(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(config_path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "results.csv").exists()
    assert (out / "results.manifest.json").exists()
    assert (out / "results.svg").exists()


def test_run_quiet_suppresses_output(config_path, tmp_path, capsys):
    code = main(["run", str(config_path), "--out-dir", str(tmp_path / "q"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_invalid_config_nonzero_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 0}))
    code = main(["run", str(path)])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_cli_import_loads_no_scipy():
    # every sgdexp process starts by importing the CLI; keep that import numpy-only
    src = str(Path(sgdexp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, sgdexp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_cli_import_starts_no_thread():
    # the engine's draw pool lives inside run_batch; importing must not start it
    src = str(Path(sgdexp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import threading; n = threading.active_count(); import sgdexp.cli; "
        "print(n, threading.active_count())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    before, after = proc.stdout.split()
    assert after == before


def test_missing_file_nonzero(capsys):
    code = main(["run", "/nonexistent/config.json"])
    assert code != 0
    assert "error:" in capsys.readouterr().err


def test_seed_override(config_path, tmp_path):
    out = tmp_path / "seeded"
    code = main(["run", str(config_path), "--out-dir", str(out), "--seed", "9"])
    assert code == 0
    manifest = json.loads((out / "results.manifest.json").read_text())
    assert manifest["seeds"] == [9]


def test_env_out_dir(config_path, tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("RSGD_OUT_DIR", str(env_dir))
    assert main(["run", str(config_path), "--quiet"]) == 0
    assert (env_dir / "results.csv").exists()
    # explicit flag beats the environment
    flag_dir = tmp_path / "flag_out"
    assert main(["run", str(config_path), "--quiet", "--out-dir", str(flag_dir)]) == 0
    assert (flag_dir / "results.csv").exists()


def test_sweep(config_path, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", str(config_path), "--p", "0.1,0.3", "--seeds", "1,2", "--out-dir", str(out), "--quiet"]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "solver,p,k,mean_value,n_seeds,metric"
    assert len(lines) > 1


def test_ctilde_json(capsys):
    code = main(
        ["ctilde", "--model", "gaussian_sphere", "--d", "25", "--samples", "20000", "--seed", "3"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 25
    assert 0.7 < payload["value"] < 0.95
    assert payload["n_directions"] == 32


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "--seed: expected an integer of at least 0, got -1"),
        (["--directions", "0"], "--directions: expected an integer of at least 1, got 0"),
        (["--samples", "99"], "--samples: expected an integer of at least 100, got 99"),
    ],
    ids=["seed", "directions", "samples"],
)
def test_ctilde_bad_flag_names_itself(capsys, flags, message):
    args = ["ctilde", "--model", "gaussian_sphere", "--d", "5", "--samples", "1000", *flags]
    assert main(args) == 2
    assert _error_line(capsys) == f"error: {message}"
    assert capsys.readouterr().out == ""


def _version_lines(capsys):
    with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # reported on the lines instead
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out.splitlines()


def test_version_names_each_compiled_part(capsys, monkeypatch, tmp_path):
    from sgdexp import _kernel

    monkeypatch.setattr(_kernel, "_loaded", object())
    monkeypatch.setattr(_kernel, "_fill", object())
    assert _version_lines(capsys) == [
        f"sgdexp {sgdexp.__version__}",
        "step kernel: loaded",
        "Gaussian fill: loaded",
    ]
    missing = tmp_path / "libnpyrandom.a"
    monkeypatch.setattr(_kernel, "_loaded", False)  # turned off, as the tests do, with no reason
    monkeypatch.setattr(_kernel, "_fill", None)
    monkeypatch.setattr(_kernel, "NPYRANDOM", missing)
    monkeypatch.setattr(_kernel, "_off", {})
    assert _version_lines(capsys)[1:] == [
        "step kernel: numpy: turned off",
        f"Gaussian fill: numpy: numpy's libnpyrandom.a not found at {missing}",
    ]


@pytest.fixture()
def drift_config_path(tmp_path):
    config = tmp_path / "drift.json"
    config.write_text(
        json.dumps(
            {
                "dimension": 20,
                "horizon": 1000,
                "seeds": [1],
                "measurement": {"kind": "gaussian_sphere"},
                "corruption": {"kind": "residual_sign", "p": 0.4},
                "solvers": [
                    {
                        "name": "sgd-exp",
                        "method": "sgd_exp_linear",
                        "lam": 1.0000000053,
                        "G": "auto",
                        "g_scale": 1.05,
                    }
                ],
                "signal": {"kind": "scaled_standard_normal", "norm": 3.0},
            }
        )
    )
    return config


def test_drift_check(drift_config_path, tmp_path, capsys):
    out = tmp_path / "drift_out"
    code = main(
        ["drift-check", str(drift_config_path), "--ctilde", "0.8079", "--mc", "5", "--K", "200",
         "--out-dir", str(out), "--quiet"]
    )
    assert code == 0
    report = json.loads((out / "drift_report.json").read_text())
    assert report["drift_params"]["b"] == 3.0 * report["drift_params"]["a"]
    assert report["mc"]["empirical_prob"] == 0.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["K"] == 200


def test_drift_check_builds_stream_once(drift_config_path, tmp_path, monkeypatch):
    real = sgdexp.cli.build_stream
    calls = []
    monkeypatch.setattr(
        sgdexp.cli, "build_stream", lambda config: calls.append(config) or real(config)
    )
    code = main(
        ["drift-check", str(drift_config_path), "--mc", "2", "--K", "50",
         "--out-dir", str(tmp_path / "out"), "--quiet"]
    )
    assert code == 0
    assert len(calls) == 1


def test_drift_check_mc_on_dataset_fails_before_ctilde(dataset_config_path, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(sgdexp.cli, "estimate_ctilde", lambda *a, **k: calls.append(a))
    code = main(["drift-check", str(dataset_config_path), "--mc", "2", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: drift-check --mc requires a synthetic experiment"]
    assert calls == []


def test_drift_check_mc_past_precision_horizon_exits_2(tmp_path, capsys):
    config = tmp_path / "horizon.json"
    config.write_text(
        json.dumps(
            {
                "dimension": 5,
                "horizon": 12000,
                "seeds": [1],
                "measurement": {"kind": "gaussian_sphere"},
                "corruption": {"kind": "none"},
                "solvers": [
                    {"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.007, "G": "auto", "g_scale": 1.05}
                ],
                "signal": {"kind": "scaled_standard_normal", "norm": 3.0},
            }
        )
    )
    out = tmp_path / "out"
    code = main(["drift-check", str(config), "--ctilde", "0.8385", "--mc", "2", "--out-dir", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: K = 12000 exceeds the precision horizon k_fp = ")
    assert not (out / "drift_report.json").exists()


def test_drift_check_readme_example(tmp_path):
    config = str(CONFIGS / "oblivious_high_p.json")
    code = main(["drift-check", config, "--ctilde", "0.7979", "--out-dir", str(tmp_path), "--quiet"])
    assert code == 0
    assert (tmp_path / "drift_report.json").exists()


def test_drift_check_window_violation_exits_nonzero(config_path, capsys):
    # lam = 1.01 at p=0.2, d=6 is far outside the admissible window
    code = main(["drift-check", str(config_path), "--ctilde", "0.8", "--quiet"])
    assert code != 0
    assert "window" in capsys.readouterr().err


def test_dataset_prep(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("a,b,y\n1,10,0\n2,20,1\n3,30,0\n")
    out = tmp_path / "prepped.csv"
    code = main(
        [
            "dataset", "prep", str(src),
            "--features", "a,b", "--response", "y",
            "--z-score", "-o", str(out), "--quiet",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,y"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(values[:, :2].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(values[:, :2].std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_dataset_prep_missing_column(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text("a,y\n1,0\n")
    code = main(
        ["dataset", "prep", str(src), "--features", "a,b", "--response", "y", "-o",
         str(tmp_path / "x.csv")]
    )
    assert code != 0
    assert "'b'" in capsys.readouterr().err


def test_plot_from_csv(config_path, tmp_path):
    out = tmp_path / "run_out"
    assert main(["run", str(config_path), "--out-dir", str(out), "--quiet"]) == 0
    svg = tmp_path / "replot.svg"
    code = main(["plot", str(out / "results.csv"), "-o", str(svg), "--quiet"])
    assert code == 0
    root = ET.parse(svg).getroot()
    assert len([e for e in root.iter() if e.tag.endswith("polyline")]) == 1



def _error_line(capsys):
    """The one stderr line of a command that failed."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize(
    "row, message",
    [
        ("sgd-exp,1,100,inf,,0.1", "line 3, column 'relative_error': non-numeric or non-finite cell 'inf'"),
        ("sgd-exp,1,100,nan,,0.1", "line 3, column 'relative_error': non-numeric or non-finite cell 'nan'"),
        ("sgd-exp,1,100", "line 3 has 3 cells, expected 6"),
    ],
    ids=["inf", "nan", "short_row"],
)
def test_plot_rejects_malformed_csv(tmp_path, capsys, row, message):
    path = tmp_path / "results.csv"
    path.write_text(",".join(CSV_HEADER) + "\nsgd-exp,1,0,1,,0.0\n" + row + "\n")
    svg = tmp_path / "out.svg"
    assert main(["plot", str(path), "-o", str(svg)]) == 2
    assert _error_line(capsys) == f"error: {path}: {message}"
    assert not svg.exists()


def test_plot_unknown_metric(config_path, tmp_path, capsys):
    out = tmp_path / "run_out"
    assert main(["run", str(config_path), "--out-dir", str(out), "--quiet"]) == 0
    svg = tmp_path / "replot.svg"
    assert main(["plot", str(out / "results.csv"), "-o", str(svg), "--metric", "foo"]) == 2
    assert "unknown metric 'foo'" in _error_line(capsys)
    assert not svg.exists()


_CELLS = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["inf", "-inf", "nan", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
# Rows of the right shape, so that some inputs plot, and rows of any shape.
_ROWS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["sgd-exp", "glmtron"]),
            st.integers(0, 2).map(str),
            st.integers(0, 3).map(lambda k: str(100 * k)),
            _CELLS,
            _CELLS,
            _CELLS,
        ),
        st.lists(_CELLS, max_size=8),
    ),
    max_size=8,
)
_METRICS = st.one_of(
    st.sampled_from(["relative_error", "clean_l2_loss", "clean_loss"]), st.text(max_size=8)
)


@given(rows=_ROWS, metric=_METRICS)
@settings(max_examples=200, deadline=None)
def test_plot_exits_0_or_with_one_error_line(rows, metric):
    """Whatever the results CSV and --metric hold, plot writes its SVG or
    exits 2 with one error line and no SVG: no traceback, no warning."""
    with tempfile.TemporaryDirectory() as tmp:
        path, svg = Path(tmp) / "results.csv", Path(tmp) / "out.svg"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([CSV_HEADER, *rows])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["plot", str(path), "-o", str(svg), f"--metric={metric}", "--quiet"])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert svg.exists() and lines == []
        else:
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not svg.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["run", "--seed", "-1"], "seeds[0]: expected a nonnegative integer seed, got -1"),
        (["sweep", "--p", "0.1", "--seeds", "1,-2"], "seeds[1]: expected a nonnegative integer seed, got -2"),
        (["sweep", "--p", ",,"], "--p: expected a nonempty comma-separated list, got ',,'"),
    ],
    ids=["run_seed", "sweep_seeds", "sweep_empty_p"],
)
def test_bad_seed_or_p_names_itself(config_path, tmp_path, capsys, args, message):
    command, *flags = args
    assert main([command, str(config_path), "--out-dir", str(tmp_path / "out"), *flags]) == 2
    assert _error_line(capsys) == f"error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def dataset_config_path(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 3))
    y = A @ np.array([1.0, -2.0, 0.5])
    lines = ["f1,f2,f3,y"] + [
        ",".join(format(v, ".17g") for v in [*row, resp]) for row, resp in zip(A, y)
    ]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    path = tmp_path / "dataset.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 3,
                "horizon": 300,
                "seeds": [1, 2],
                "checkpoint_every": 100,
                "measurement": {
                    "kind": "dataset_rows",
                    "path": str(tmp_path / "data.csv"),
                    "features": ["f1", "f2", "f3"],
                    "response": "y",
                },
                "corruption": {"kind": "sign_flip", "p": 0.2},
                "solvers": [
                    {"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.01, "G": 1.0}
                ],
                "metrics": ["clean_l2_loss"],
            }
        )
    )
    return path


def test_run_dataset_config_clean_loss(dataset_config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(dataset_config_path), "--out-dir", str(out), "--quiet"]) == 0
    assert (out / "results.csv").exists()
    assert (out / "results.manifest.json").exists()
    root = ET.parse(out / "results.svg").getroot()
    assert len([e for e in root.iter() if e.tag.endswith("polyline")]) == 1


def test_sweep_dataset_config_clean_loss(dataset_config_path, tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", str(dataset_config_path), "--p", "0.1,0.2", "--out-dir", str(out), "--quiet"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "solver,p,k,mean_value,n_seeds,metric"
    assert len(lines) == 1 + 2 * 4
    assert all(line.endswith(",2,clean_l2_loss") for line in lines[1:])
