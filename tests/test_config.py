import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdexp.cli import main
from sgdexp.config import ConfigError, load_config, validate_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    data["seeds"] = [3, 1, 3]
    with pytest.raises(ConfigError, match=r"seeds\[2\]: seed 3 is repeated"):
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


def test_delimiter_must_be_one_character(tmp_path):
    data = {
        "dimension": 2,
        "horizon": 10,
        "seeds": [1],
        "measurement": {
            "kind": "dataset_rows",
            "path": str(tmp_path / "d.csv"),
            "features": ["a", "b"],
            "response": "y",
            "delimiter": ";;",
        },
        "corruption": {"kind": "none"},
        "solvers": [{"method": "sgd_exp_linear", "lam": 1.001, "G": 1.0}],
        "metrics": ["clean_l2_loss"],
    }
    with pytest.raises(ConfigError, match=r"^measurement\.delimiter: expected a single character, got ';;'$"):
        validate_config(data)


@pytest.mark.parametrize("G", [1.0, "auto"])
def test_all_zero_fixed_signal_rejected_up_front(G, tmp_path, capsys):
    # Its relative error is undefined, and it is the only metric of a synthetic run.
    data = minimal()
    data["solvers"][0]["G"] = G
    data["signal"] = {"kind": "fixed", "values": [0.0] * data["dimension"]}
    with pytest.raises(ConfigError, match=r"^signal\.values: "):
        validate_config(data)
    config_path = tmp_path / "zero.json"
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", str(config_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: signal.values: ") and err.count("\n") == 1
    assert not out.exists()


def test_signal_norm_whose_square_overflows_rejected_up_front(tmp_path, capsys):
    # Its relative error would be NaN at every checkpoint, leaving nothing to plot.
    data = minimal()
    data["dimension"] = 5
    data["signal"] = {"kind": "scaled_standard_normal", "norm": 1e300}
    with pytest.raises(ConfigError, match=r"^signal\.norm: a signal norm needs a finite square"):
        validate_config(data)
    config_path = tmp_path / "huge.json"
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", str(config_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: signal.norm") and err.count("\n") == 1
    assert not out.exists()


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


# Every shipped config at a small horizon and two seeds; the dataset config
# reads a small CSV that the fuzz test writes (its path stands in for it).
WINE = "wine.csv"


def _small_shipped(path):
    data = json.loads(path.read_text())
    data.update(horizon=200, seeds=[1, 2], checkpoint_every=100)
    if data["measurement"]["kind"] == "dataset_rows":
        data["measurement"]["path"] = WINE
    return data


SHIPPED = {p.stem: _small_shipped(p) for p in sorted(CONFIGS.glob("*.json"))}
WINE_COLUMNS = SHIPPED["redwine"]["measurement"]
_KEYS = st.sampled_from(
    ["kind", "p", "law", "delimiter", "base", "norm", "values", "G", "gamma", "lam", "g_scale",
     "schedule", "m", "name", "method", "signal", "metrics", "ctilde", "response", "z_score"]
) | st.text(max_size=4)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["auto", "relu", "fixed", "uniform", "gaussian", "sign_flip", "none", ";;"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)


def _walk(obj, path=()):
    """(path, value) of the object and of everything inside it."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _walk(value, (*path, key))


@st.composite
def _edits(draw):
    """(config name, key path, value or None to drop): one key replaced, dropped or added."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    parents = [(p, v) for p, v in _walk(SHIPPED[name]) if isinstance(v, (dict, list))]
    parent, node = draw(st.sampled_from(parents))
    key = draw(st.sampled_from(sorted(node)) | _KEYS if isinstance(node, dict) else st.integers(0, len(node)))
    return name, (*parent, key), draw(st.none() | _JSON.map(lambda v: [v]))


def _apply(data, path, value):
    *parent, key = path
    for k in parent:
        data = data[k]
    if value is not None:
        if isinstance(data, list) and key == len(data):
            data.append(value[0])
        else:
            data[key] = value[0]
    elif isinstance(data, dict):
        data.pop(key, None)
    elif key < len(data):
        del data[key]


def _names_a_key_path(message, data):
    """Whether the message starts with a key path of ``data``, or of a key missing under one."""
    for path, _ in _walk(data):
        text = ""
        for k in path:  # as config.py writes a key path
            text = f"{text}[{k}]" if isinstance(k, int) else f"{text}.{k}" if text else k
        if message.startswith(f"{text}: ") or re.match(re.escape(f"{text}." if text else "") + r"\w+: ", message):
            return True
    return False


@given(edit=_edits())
@example(edit=("redwine", ("measurement", "delimiter"), [";;"]))
@settings(max_examples=150, deadline=None)
def test_edited_shipped_config_validates_or_names_its_key(edit):
    """One key replaced, dropped or added anywhere in a shipped config:
    validation returns or names a key path of the input, and ``run`` writes
    its outputs or exits 2 with one error line and no output directory."""
    name, path, value = edit
    data = json.loads(json.dumps(SHIPPED[name]))
    _apply(data, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        columns = [*WINE_COLUMNS["features"], WINE_COLUMNS["response"]]
        rows = [[(i * 7 + j * 3) % 11 for j in range(len(columns))] for i in range(30)]  # no constant column
        wine = Path(tmp) / WINE
        wine.write_text("".join(",".join(map(str, row)) + "\n" for row in [columns, *rows]))
        measurement = data.get("measurement")
        if isinstance(measurement, dict) and measurement.get("path") == WINE:
            measurement["path"] = str(wine)
        try:
            config = validate_config(data)
        except ConfigError as exc:
            assert _names_a_key_path(str(exc), data), str(exc)
            config = None
        # Larger runs are checked by validation alone, to keep the test fast.
        if config is not None and max(config.horizon, 1) * config.dimension * len(config.seeds) * len(
            config.solvers
        ) > 200_000:
            return
        config_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config_path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(config_path), "--out-dir", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert config is not None and (out / "results.csv").exists()
        else:
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()
