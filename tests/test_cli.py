import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdexp
from sgdexp.cli import build_parser, main
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


def _python(*args) -> str:
    """Standard output of this interpreter run on ``args``, with this checkout's sgdexp first on the path."""
    src = str(Path(sgdexp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    # every sgdexp process starts by importing the CLI; keep that import numpy-only
    code = "import sys, sgdexp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python("-c", code).strip() == "[]"


def test_cli_import_starts_no_thread():
    # run_batch starts its one worker thread itself; importing must not start a thread
    code = (
        "import threading; n = threading.active_count(); import sgdexp.cli; "
        "print(n, threading.active_count())"
    )
    before, after = _python("-c", code).split()
    assert after == before


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH to build the kernel")
def test_process_pays_for_no_pool_and_no_exit_collection():
    # A two-owner engine call hands off to one plain thread, so it imports
    # neither concurrent.futures nor, through it, logging; and the CLI's exit
    # hook freezes what is alive, so the interpreter's last collections skip it.
    code = """
import atexit, gc, sys, threading
import numpy as np
import sgdexp.cli
from sgdexp import _kernel
from sgdexp.corruption import SignFlip
from sgdexp.measurement import GaussianSphere
from sgdexp.solvers import SolverSpec, StreamSpec, run_batch

assert _kernel.load("step kernel") is not None
started, start = [], threading.Thread.start
threading.Thread.start = lambda t: (started.append(t), start(t))[1]
spec = SolverSpec(method="sgd_exp_linear", d=4, T=3000, lam=1.01, G=1.0)
run_batch(spec, StreamSpec(GaussianSphere(4), SignFlip(0.2)), range(1, 9), x_true=np.ones(4))
print(len(started), sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
frozen = gc.get_freeze_count()
atexit._run_exitfuncs()
print(frozen, gc.get_freeze_count() > 0)
"""
    owners, frozen = _python("-c", code).splitlines()
    assert owners == "1 []"
    assert frozen == "0 True"


def test_cli_run_outputs_survive_the_exit_hook(tmp_path):
    # Every output is closed and renamed before the exit hook runs: a run's
    # files are the ones test_frozen_outputs pins for the library path.
    from test_frozen_outputs import DIGESTS, SMALL

    data = json.loads((CONFIGS / "oblivious_high_p.json").read_text())
    config = tmp_path / "small.json"
    config.write_text(json.dumps({**data, **SMALL}))
    out = tmp_path / "out"
    _python("-m", "sgdexp.cli", "run", str(config), "--out-dir", str(out), "--quiet")
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0].endswith(",elapsed_seconds")
    got = {
        "results": "\n".join(r.rsplit(",", 1)[0] for r in rows).encode(),
        "manifest": (out / "results.manifest.json").read_bytes(),
        "svg": (out / "results.svg").read_bytes(),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == DIGESTS["oblivious_high_p"]


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
        (["--d", "0"], "--d: expected an integer of at least 1, got 0"),
        (["--model", "normalized_iid_subgaussian", "--base", "foo"], "--base: unknown sub-Gaussian base 'foo'"),
        (["--base", "gaussian"], "--base: only normalized_iid_subgaussian takes a base, not gaussian_sphere"),
        (
            ["--model", "normalized_rademacher", "--base", "uniform"],
            "--base: only normalized_iid_subgaussian takes a base, not normalized_rademacher",
        ),
    ],
    ids=["seed", "directions", "samples", "d", "base", "base-on-sphere", "base-on-rademacher"],
)
def test_ctilde_bad_flag_names_itself(capsys, flags, message):
    args = ["ctilde", "--model", "gaussian_sphere", "--d", "5", "--samples", "1000", *flags]
    assert main(args) == 2
    assert _error_line(capsys) == f"error: {message}"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--ctilde", "inf"], "--ctilde: expected a finite number above 0, got inf"),
        (["--ctilde=-inf"], "--ctilde: expected a finite number above 0, got -inf"),
        (["--ctilde", "nan"], "--ctilde: expected a finite number above 0, got nan"),
        (["--ctilde", "0"], "--ctilde: expected a finite number above 0, got 0.0"),
        (["--K", "-1"], "--K: expected an integer of at least 0, got -1"),
        (["--mc", "0"], "--mc: expected an integer of at least 1, got 0"),
        (["--mc", "-3"], "--mc: expected an integer of at least 1, got -3"),
    ],
    ids=["ctilde-inf", "ctilde-minus-inf", "ctilde-nan", "ctilde-zero", "K-negative", "mc-zero", "mc-negative"],
)
def test_drift_check_bad_flag_names_itself(capsys, tmp_path, flags, message):
    config = str(CONFIGS / "linear_signflip.json")
    assert main(["drift-check", config, "--out-dir", str(tmp_path / "out"), *flags]) == 2
    assert _error_line(capsys) == f"error: {message}"
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


_PLOT = ["plot", "results.csv", "-o", "chart.svg"]
_PREP = ["dataset", "prep", "raw.csv", "--features", "a", "--response", "y", "-o", "prepped.csv"]
_CTILDE = ["ctilde", "--model", "gaussian_sphere", "--d", "5", "--samples", "1000"]
_SWEEP = ["sweep", "config.json", "--p", "0.1"]


@pytest.mark.parametrize(
    "command, flag",
    [
        (_PLOT, ["--seed", "1"]),
        (_PLOT, ["--out-dir", "out"]),
        (_PREP, ["--seed", "1"]),
        (_PREP, ["--out-dir", "out"]),
        (_CTILDE, ["--out-dir", "/nonexistent/x"]),
        (_CTILDE, ["--quiet"]),
        (_SWEEP, ["--seed", "3"]),  # --seeds 3 does its job
    ],
    ids=[
        "plot-seed", "plot-out-dir", "prep-seed", "prep-out-dir", "ctilde-out-dir", "ctilde-quiet", "sweep-seed"
    ],
)
def test_flag_a_subcommand_ignores_is_refused(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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

    # The step kernel names the instruction set of its build in use.
    step_kernel = types.SimpleNamespace(sk_isa=lambda: b"avx512f")
    libs = {"step kernel": step_kernel, "Gaussian fill": object(), "clean loss": object()}
    monkeypatch.setattr(_kernel, "_libs", libs)
    assert _version_lines(capsys) == [
        f"sgdexp {sgdexp.__version__}",
        "step kernel: loaded (avx512f)",
        "Gaussian fill: loaded",
        "clean loss: loaded",
    ]
    missing = tmp_path / "libnpyrandom.a"
    # As the tests turn a part off.
    monkeypatch.setattr(_kernel, "_libs", {"step kernel": "turned off", "clean loss": "turned off"})
    fill = dataclasses.replace(_kernel.PARTS["Gaussian fill"], archive=missing)
    monkeypatch.setitem(_kernel.PARTS, "Gaussian fill", fill)
    assert _version_lines(capsys)[1:] == [
        "step kernel: numpy: turned off",
        f"Gaussian fill: numpy: numpy's libnpyrandom.a not found at {missing}",
        "clean loss: numpy: turned off",
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


def test_dataset_prep_delimiter_of_two_characters(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text("a;;b;;y\n1;;2;;0\n")
    out = tmp_path / "x.csv"
    code = main(
        ["dataset", "prep", str(src), "--features", "a,b", "--response", "y", "--delimiter", ";;",
         "-o", str(out)]
    )
    assert code == 2
    assert _error_line(capsys) == "error: delimiter must be a single character, got ';;'"
    assert not out.exists()


SHORT_ROW_CSV = "a,b,y\n1,2,3\n4,5\n"


def test_dataset_prep_row_shorter_than_header(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text(SHORT_ROW_CSV)
    out = tmp_path / "x.csv"
    code = main(["dataset", "prep", str(src), "--features", "a,b", "--response", "y", "-o", str(out)])
    assert code == 2
    assert _error_line(capsys) == f"error: {src}: line 3 has 2 cells, the header has 3"
    assert not out.exists()


def test_run_on_a_row_shorter_than_header(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text(SHORT_ROW_CSV)
    config = {
        "dimension": 2,
        "horizon": 10,
        "seeds": [1],
        "measurement": {"kind": "dataset_rows", "path": str(src), "features": ["a", "b"], "response": "y"},
        "corruption": {"kind": "none"},
        "solvers": [{"method": "sgd_exp_linear", "lam": 1.001, "G": 1.0}],
        "metrics": ["clean_l2_loss"],
    }
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--out-dir", str(out)]) == 2
    assert _error_line(capsys) == f"error: {src}: line 3 has 2 cells, the header has 3"
    assert not out.exists()


@pytest.mark.parametrize("command", ["dataset", "run"])
def test_one_row_cannot_z_score(command, tmp_path, capsys):
    src, out = tmp_path / "raw.csv", tmp_path / "out"
    src.write_text("a,b,y\n1,2,3\n")
    config = {
        "dimension": 2,
        "horizon": 10,
        "seeds": [1],
        "measurement": {
            "kind": "dataset_rows", "path": str(src), "features": ["a", "b"], "response": "y", "z_score": True,
        },
        "corruption": {"kind": "none"},
        "solvers": [{"method": "sgd_exp_linear", "lam": 1.001, "G": 1.0}],
        "metrics": ["clean_l2_loss"],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = {
        "dataset": ["dataset", "prep", str(src), "--features", "a,b", "--response", "y", "--z-score", "-o", str(out)],
        "run": ["run", str(tmp_path / "config.json"), "--out-dir", str(out)],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    assert _error_line(capsys) == f"error: {src}: z-scoring needs at least two data rows"
    assert not out.exists()


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


def test_error_naming_a_key_with_line_breaks_is_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 1, "a\r\nb\u2028": 0}))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == "error: a\\r\\nb\\u2028: unknown key"


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
        (["sweep", "--p", "0.1", "--seeds", "1,2,1"], "seeds[2]: seed 1 is repeated"),
        (["sweep", "--p", "0.1,0.2,0.10"], "--p: a probability is repeated in [0.1, 0.2, 0.1]"),
    ],
    ids=["run_seed", "sweep_seeds", "sweep_empty_p", "sweep_repeated_seed", "sweep_repeated_p"],
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


def test_readme_experiment_commands_exist():
    """Each command of the README's experiment block parses and names a file that exists."""
    root = CONFIGS.parent
    block = (root / "README.md").read_text().split("## Experiment scripts", 1)[1].split("```")[1]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines() if line.strip()]
    assert commands
    for words in commands:
        if words[0] == "sgdexp":
            target = build_parser().parse_args(words[1:]).config
        else:
            assert words[0] == "python", words
            target = words[1]
        assert (root / target).is_file(), words


class _BreakingFile:
    """A text file that takes its first write and raises on the next."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise ValueError("no space left on the test's device")
        return self.fh.write(text)


@pytest.mark.parametrize(
    "command, target",
    [
        ("run", "results.csv"),
        ("run", "results.manifest.json"),
        ("run", "results.svg"),
        ("sweep", "sweep.csv"),
        ("drift-check", "drift_report.json"),
        ("dataset", "prep.csv"),
    ],
)
def test_failed_write_leaves_the_earlier_file(command, target, config_path, tmp_path, monkeypatch, capsys):
    """Each output is written whole or not at all: a write that fails midway leaves
    the file from the run before byte for byte, and no temp file."""
    out = tmp_path / "out"
    src = tmp_path / "raw.csv"
    src.write_text("a,b,y\n1,10,0\n2,20,1\n3,30,0\n")
    argv = {
        "run": ["run", str(config_path), "--out-dir", str(out)],
        "sweep": ["sweep", str(config_path), "--p", "0.1,0.3", "--out-dir", str(out)],
        "drift-check": ["drift-check", str(CONFIGS / "oblivious_high_p.json"), "--ctilde", "0.7979", "--out-dir", str(out)],
        "dataset": ["dataset", "prep", str(src), "--features", "a,b", "--response", "y", "-o", str(out / "prep.csv")],
    }[command] + ["--quiet"]
    assert main(argv) == 0
    before = (out / target).read_bytes()
    capsys.readouterr()

    real = sgdexp.results.replaced

    @contextlib.contextmanager
    def breaking(path, **kwargs):
        with real(path, **kwargs) as fh:
            yield _BreakingFile(fh) if Path(path).name == target else fh

    monkeypatch.setattr(sgdexp.results, "replaced", breaking)
    monkeypatch.setattr(sgdexp.cli, "replaced", breaking)
    assert main(argv) == 2
    assert _error_line(capsys) == "error: no space left on the test's device"
    assert (out / target).read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A drift-check config whose lam is inside the drift window at the sphere's ctilde, for the fuzz tests."""
    directory = tmp_path_factory.mktemp("fuzz")
    config = {
        "dimension": 8,
        "horizon": 300,
        "seeds": [1],
        "measurement": {"kind": "gaussian_sphere"},
        "corruption": {"kind": "residual_sign", "p": 0.3},
        "solvers": [{"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.00001, "G": "auto", "g_scale": 1.05}],
        "signal": {"kind": "scaled_standard_normal", "norm": 1.0},
    }
    (directory / "drift.json").write_text(json.dumps(config))
    return directory


def _exits_0_or_with_one_error_line(argv):
    """Run argv; return its exit code, having checked that a failure printed one error line and no warning."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code != 0:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


def _flags(**values):
    return [f"--{name}={value}" for name, value in values.items() if value is not None]


@given(
    K=_maybe(st.integers(-3, 400)),
    mc=_maybe(st.integers(-2, 3)),
    seed=_maybe(st.integers(-3, 2**64)),
    ctilde=_maybe(st.floats(allow_subnormal=True) | st.floats(0.5, 1.0)),
)
@settings(max_examples=25, deadline=None)
def test_drift_check_exits_0_or_with_one_error_line(fuzz_dir, K, mc, seed, ctilde):
    """Whatever --K, --mc, --seed and --ctilde hold, drift-check writes its whole report
    or exits 2 with one error line and no report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["drift-check", str(fuzz_dir / "drift.json"), "--out-dir", str(out), "--quiet"]
        code = _exits_0_or_with_one_error_line(argv + _flags(K=K, mc=mc, seed=seed, ctilde=ctilde))
        report = out / "drift_report.json"
        if code == 0:
            assert json.loads(report.read_text())["K"] == (300 if K is None else K)
        else:
            assert not report.exists()
        assert not out.exists() or [p.name for p in out.iterdir()] in ([], ["drift_report.json"])


@given(
    d=st.integers(-2, 12),
    samples=st.integers(-5, 400),
    directions=_maybe(st.integers(-2, 5)),
    seed=_maybe(st.integers(-3, 2**64)),
)
@settings(max_examples=25, deadline=None)
def test_ctilde_exits_0_or_with_one_error_line(d, samples, directions, seed):
    argv = ["ctilde", "--model", "gaussian_sphere", f"--d={d}", f"--samples={samples}"]
    _exits_0_or_with_one_error_line(argv + _flags(directions=directions, seed=seed))


# Comma-separated lists of numbers, of words and of nothing, for the list flags.
_ITEMS = st.one_of(
    st.floats(allow_subnormal=True).map(repr),
    st.integers(-3, 2**64).map(str),
    st.sampled_from(["", " ", "-0.0", "1e400", "0x1p-2", "1_0", "١"]),
    st.text(max_size=4),
)
_LISTS = st.lists(_ITEMS, max_size=4).map(",".join)


def _well_formed(items):
    return st.lists(items, min_size=1, max_size=3).map(",".join)


@given(
    p=st.one_of(_well_formed(st.floats(0.0, 0.5).map(repr)), _LISTS),
    seeds=_maybe(st.one_of(_well_formed(st.integers(0, 9).map(str)), _LISTS)),
)
@settings(max_examples=50, deadline=None)
def test_sweep_exits_0_or_with_one_error_line(fuzz_dir, p, seeds):
    """Whatever --p and --seeds hold, sweep writes its whole CSV or exits 2
    with one error line and no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["sweep", str(fuzz_dir / "drift.json"), f"--p={p}", "--out-dir", str(out), "--quiet"]
        code = _exits_0_or_with_one_error_line(argv + _flags(seeds=seeds))
        if code == 0:
            assert [path.name for path in out.iterdir()] == ["sweep.csv"]
            assert (out / "sweep.csv").read_text().startswith("solver,p,k,mean_value,n_seeds,metric\n")
        else:
            assert not out.exists()


@pytest.fixture(scope="module")
def prep_csv(tmp_path_factory):
    """A small CSV with a constant column and a row whose a and b are zero, for the dataset prep fuzz."""
    path = tmp_path_factory.mktemp("prep") / "raw.csv"
    path.write_text('a,b,c,y,"q;r"\n1,2,5,1,0\n0,0,5,0,1\n3,-1,5,2,x\n')
    return path


_COLUMNS = st.one_of(st.sampled_from(["a", "b", "c", "y", "q;r", "q", " a", ""]), st.text(max_size=3))


@given(
    features=st.one_of(
        _well_formed(st.sampled_from(["a", "b", "c"])), st.lists(_COLUMNS, max_size=3).map(",".join), _LISTS
    ),
    response=st.one_of(st.just("y"), _COLUMNS),
    delimiter=st.one_of(st.just(","), st.sampled_from([";", "\t", '"', "\n", "\r", "", ",,"]), st.text(max_size=2)),
    flags=st.sets(st.sampled_from(["--center", "--z-score", "--row-normalize", "--center-response"])),
)
@settings(max_examples=100, deadline=None)
def test_dataset_prep_exits_0_or_with_one_error_line(prep_csv, features, response, delimiter, flags):
    """Whatever --features, --response, --delimiter and the four preprocessing
    flags hold, dataset prep writes its whole CSV or exits 2 with one error
    line and no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out" / "prepped.csv"
        argv = [
            "dataset", "prep", str(prep_csv), f"--features={features}", f"--response={response}",
            f"--delimiter={delimiter}", "-o", str(out), "--quiet", *sorted(flags),
        ]
        if _exits_0_or_with_one_error_line(argv) == 0:
            assert [path.name for path in out.parent.iterdir()] == ["prepped.csv"]
            assert len(out.read_text().splitlines()) == 4
        else:
            assert not out.parent.exists()
