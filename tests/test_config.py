import json
import math
import re

import pytest

from sgdexp.cli import main
from sgdexp.config import ConfigError, load_config, validate_config


def minimal():
    return {
        "dimension": 10,
        "horizon": 1000,
        "seeds": [1],
        "measurement": {"kind": "gaussian_sphere"},
        "corruption": {"kind": "none"},
        "solvers": [{"method": "sgd_exp_linear", "lam": 1.001, "G": 1.0}],
    }


def test_minimal_config_parses():
    cfg = validate_config(minimal())
    assert cfg.dimension == 10
    assert cfg.checkpoint_every == 1000  # default
    assert cfg.signal == {"kind": "standard_normal"}  # default
    assert cfg.metrics == ["relative_error"]
    assert cfg.solvers[0]["name"] == "sgd_exp_linear"


def test_invalid_probability_names_key():
    data = minimal()
    data["corruption"] = {"kind": "sign_flip", "p": 1.3}
    with pytest.raises(ConfigError, match=r"corruption\.p"):
        validate_config(data)


def test_unknown_key_rejected_with_path():
    data = minimal()
    data["measurement"]["extra"] = 1
    with pytest.raises(ConfigError, match=r"measurement\.extra"):
        validate_config(data)
    data = minimal()
    data["frobnicate"] = True
    with pytest.raises(ConfigError, match="frobnicate"):
        validate_config(data)


def test_fingerprint_stable_under_reserialization():
    cfg = validate_config(minimal())
    again = validate_config(json.loads(json.dumps(cfg.to_dict())))
    assert again.fingerprint() == cfg.fingerprint()


def test_fingerprint_changes_with_content():
    cfg = validate_config(minimal())
    other = cfg.with_updates(horizon=2000)
    assert other.fingerprint() != cfg.fingerprint()


def test_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_seeds_must_be_nonempty_integers():
    data = minimal()
    data["seeds"] = []
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(data)
    data["seeds"] = [1, "two"]
    with pytest.raises(ConfigError, match=r"seeds\[1\]"):
        validate_config(data)
    data["seeds"] = [1, -1]
    with pytest.raises(ConfigError, match=r"seeds\[1\]: expected a nonnegative integer seed"):
        validate_config(data)


def test_solver_requirements():
    data = minimal()
    data["solvers"] = [{"method": "sgd_exp_linear", "lam": 1.001}]
    with pytest.raises(ConfigError, match=r"solvers\[0\]\.G"):
        validate_config(data)
    data["solvers"] = [{"method": "sgd_root_linear"}]
    with pytest.raises(ConfigError, match=r"solvers\[0\]\.gamma"):
        validate_config(data)
    data["solvers"] = [{"method": "glmtron", "m": 1}]
    with pytest.raises(ConfigError, match=r"solvers\[0\]\.schedule"):
        validate_config(data)
    data["solvers"] = [{"method": "glmtron", "schedule": "exp", "m": 1}]
    with pytest.raises(ConfigError, match=r"solvers\[0\]\.lam"):
        validate_config(data)


def test_lam_must_exceed_one():
    data = minimal()
    data["solvers"] = [{"method": "sgd_exp_linear", "lam": 0.99, "G": 1.0}]
    with pytest.raises(ConfigError, match="lam"):
        validate_config(data)


def test_duplicate_solver_names_rejected():
    data = minimal()
    data["solvers"] = [
        {"name": "s", "method": "sgd_exp_linear", "lam": 1.001, "G": 1.0},
        {"name": "s", "method": "sgd_root_linear", "gamma": 1.0},
    ]
    with pytest.raises(ConfigError, match="unique"):
        validate_config(data)


def test_response_method_consistency():
    data = minimal()
    data["solvers"] = [{"method": "sgd_exp_relu", "lam": 1.001, "G": 1.0}]
    with pytest.raises(ConfigError, match="inconsistent"):
        validate_config(data)
    data["response"] = "relu"
    validate_config(data)  # now fine


def test_fixed_signal_length_checked():
    data = minimal()
    data["signal"] = {"kind": "fixed", "values": [1.0, 2.0]}
    with pytest.raises(ConfigError, match=r"signal\.values"):
        validate_config(data)


def test_dataset_mode_constraints(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("a,b,y\n1,2,3\n4,5,6\n")
    data = {
        "dimension": 2,
        "horizon": 10,
        "seeds": [1],
        "measurement": {
            "kind": "dataset_rows",
            "path": str(csv),
            "features": ["a", "b"],
            "response": "y",
        },
        "corruption": {"kind": "none"},
        "solvers": [{"method": "sgd_exp_linear", "lam": 1.001, "G": 1.0}],
        "metrics": ["clean_l2_loss"],
    }
    cfg = validate_config(data)
    assert cfg.signal is None
    bad = dict(data)
    bad["signal"] = {"kind": "standard_normal"}
    with pytest.raises(ConfigError, match="signal"):
        validate_config(bad)
    bad = dict(data)
    bad["metrics"] = ["relative_error"]
    with pytest.raises(ConfigError, match="metrics"):
        validate_config(bad)


def test_synthetic_cannot_use_clean_loss():
    data = minimal()
    data["metrics"] = ["clean_l2_loss"]
    with pytest.raises(ConfigError, match="metrics"):
        validate_config(data)


def test_oblivious_law_required():
    data = minimal()
    data["corruption"] = {"kind": "additive_oblivious", "p": 0.5}
    with pytest.raises(ConfigError, match=r"corruption\.law"):
        validate_config(data)
    data["corruption"] = {
        "kind": "additive_oblivious",
        "p": 0.5,
        "law": {"kind": "uniform", "half_width": 300.0},
    }
    validate_config(data)
    data["corruption"]["law"] = {"kind": "gaussian", "variance": -3}
    with pytest.raises(ConfigError, match=r"corruption\.law\.variance"):
        validate_config(data)


def _fixed_signal(value):
    def spoil(data):
        values = [1.0] * data["dimension"]
        values[3] = value
        data["signal"] = {"kind": "fixed", "values": values}

    return spoil


NON_FINITE = [
    pytest.param("solvers[0].G", lambda d: d["solvers"][0].update(G=math.inf), id="G-inf"),
    pytest.param("solvers[0].G", lambda d: d["solvers"][0].update(G=10**400), id="G-overflow"),
    pytest.param("solvers[0].lam", lambda d: d["solvers"][0].update(lam=math.inf), id="lam-inf"),
    pytest.param("ctilde", lambda d: d.update(ctilde=math.inf), id="ctilde-inf"),
    pytest.param("signal.values[3]", _fixed_signal(math.nan), id="signal-nan"),
    pytest.param("signal.values[3]", _fixed_signal(-math.inf), id="signal-neg-inf"),
]


@pytest.mark.parametrize("path, spoil", NON_FINITE)
def test_non_finite_number_rejected(path, spoil, tmp_path, capsys):
    data = minimal()
    spoil(data)
    with pytest.raises(ConfigError, match=re.escape(path) + ": expected a finite number"):
        validate_config(data)

    # the CLI fails up front: one diagnostic line, no output files
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(data))  # writes Infinity / NaN literals
    out = tmp_path / "out"
    assert main(["run", str(config_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out.exists()
