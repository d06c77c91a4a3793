"""Experiment configuration: JSON schema, validation, canonical form.

Configs are plain JSON.  Validation is strict: unknown keys are
rejected and every violation names the offending key path.  A loaded
config normalizes to a canonical dict whose SHA-256 digest serves as
the experiment fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .measurement import SUBGAUSSIAN_BASES
from .solvers import GLMTRON_SCHEDULES, METHODS, RELU_METHODS, _schedule

METRICS = ("relative_error", "clean_l2_loss")


class ConfigError(ValueError):
    """Schema violation; the message carries the offending key path."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_dict(obj, path, required, optional):
    """Validate one mapping level; returns the normalized dict."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}" if path else key, "unknown key")
    out = {}
    for key, check in required.items():
        if key not in obj:
            _fail(f"{path}.{key}" if path else key, "missing required key")
        out[key] = check(obj[key], f"{path}.{key}" if path else key)
    for key, (check, default) in optional.items():
        kp = f"{path}.{key}" if path else key
        out[key] = check(obj[key], kp) if key in obj else default
    return out


def _int_at_least(minimum):
    def check(v, path):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(path, f"expected an integer, got {v!r}")
        if v < minimum:
            _fail(path, f"must be at least {minimum}, got {v}")
        return v

    return check


def _number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, f"expected a finite number, got {v}")
    return v


def _positive(v, path):
    v = _number(v, path)
    if not v > 0:
        _fail(path, f"must be positive, got {v}")
    return v


def _probability(v, path):
    v = _number(v, path)
    if not 0.0 <= v <= 1.0:
        _fail(path, f"probability must lie in [0, 1], got {v}")
    return v


def _string(choices=None):
    def check(v, path):
        if not isinstance(v, str):
            _fail(path, f"expected a string, got {v!r}")
        if choices is not None and v not in choices:
            _fail(path, f"must be one of {list(choices)}, got {v!r}")
        return v

    return check


def _bool(v, path):
    if not isinstance(v, bool):
        _fail(path, f"expected a boolean, got {v!r}")
    return v


def _seed_list(v, path):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a nonempty list of nonnegative integer seeds")
    for i, s in enumerate(v):
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            _fail(f"{path}[{i}]", f"expected a nonnegative integer seed, got {s!r}")
        if v.index(s) < i:
            _fail(f"{path}[{i}]", f"seed {s} is repeated")
    return list(v)


def _string_list(v, path):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a nonempty list of strings")
    for i, s in enumerate(v):
        if not isinstance(s, str):
            _fail(f"{path}[{i}]", f"expected a string, got {s!r}")
    return list(v)


def _tagged(table):
    """Checker of an object whose ``kind`` picks its fields from ``table``."""

    def check(obj, path):
        if not isinstance(obj, dict):
            _fail(path, f"expected an object, got {type(obj).__name__}")
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in table:
            _fail(f"{path}.kind", f"must be one of {list(table)}, got {kind!r}")
        required, optional = table[kind]
        return _check_dict(obj, path, {"kind": _string(table), **required}, optional)

    return check


def _delimiter(v, path):
    v = _string()(v, path)
    if len(v) != 1:
        _fail(path, f"expected a single character, got {v!r}")
    return v


def _signal_values(v, path):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a nonempty list of numbers")
    values = [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]
    # The sum of squares is 0 or inf exactly where the engine's norm of the signal is.
    if not 0.0 < sum(x * x for x in values) < math.inf:
        _fail(path, "a fixed signal needs a nonzero, finite norm")
    return values


def _signal_norm(v, path):
    v = _positive(v, path)
    # The engine's norm of the signal is the root of its sum of squares.
    if not math.isfinite(v * v):
        _fail(path, f"a signal norm needs a finite square, got {v}")
    return v


#: Each section tagged by ``kind``: kind -> (required fields, optional fields with defaults).
MEASUREMENT_KINDS = {
    "gaussian_sphere": ({}, {}),
    "normalized_rademacher": ({}, {}),
    "normalized_iid_subgaussian": ({}, {"base": (_string(SUBGAUSSIAN_BASES), "uniform")}),
    "dataset_rows": (
        {"path": _string(), "features": _string_list, "response": _string()},
        {
            "z_score": (_bool, False),
            "center": (_bool, False),
            "row_normalize": (_bool, False),
            "center_response": (_bool, False),
            "delimiter": (_delimiter, ","),
        },
    ),
}
NOISE_LAW_KINDS = {
    "uniform": ({"half_width": _positive}, {}),
    "gaussian": ({"variance": _positive}, {}),
}
CORRUPTION_KINDS = {
    "none": ({}, {}),
    "sign_flip": ({"p": _probability}, {}),
    "residual_sign": ({"p": _probability}, {}),
    "additive_oblivious": ({"p": _probability, "law": _tagged(NOISE_LAW_KINDS)}, {}),
}
SIGNAL_KINDS = {
    "standard_normal": ({}, {}),
    "scaled_standard_normal": ({"norm": _signal_norm}, {}),
    "fixed": ({"values": _signal_values}, {}),
}


def _auto_or_positive(v, path):
    return "auto" if v == "auto" else _positive(v, path)


def _decay(v, path):
    v = _number(v, path)
    if not v > 1.0:
        _fail(path, f"lam must exceed 1, got {v}")
    return v


def _check_solver(obj, path):
    out = _check_dict(
        obj,
        path,
        {"method": _string(METHODS)},
        {
            "name": (_string(), None),
            "lam": (_decay, None),
            "G": (_auto_or_positive, None),
            "g_scale": (_positive, 1.0),
            "gamma": (_auto_or_positive, None),
            "schedule": (_string(GLMTRON_SCHEDULES), None),
            "m": (_int_at_least(1), None),
        },
    )
    method = out["method"]
    if out["name"] is None:
        out["name"] = method
    scale = METHODS[method][0]
    if scale is None:
        if out["schedule"] is None:
            _fail(f"{path}.schedule", f"{method} requires a schedule")
        if out["m"] is None:
            _fail(f"{path}.m", f"{method} requires m")
    if _schedule(method, out["schedule"]) == "exp" and out["lam"] is None:
        _fail(f"{path}.lam", f"the exp schedule of {method} requires lam")
    if scale is not None and out[scale] is None:
        _fail(f"{path}.{scale}", f"{method} requires {scale} (a number or 'auto')")
    return out


def _check_solvers(v, path):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a nonempty list of solver configs")
    out = [_check_solver(s, f"{path}[{i}]") for i, s in enumerate(v)]
    names = [s["name"] for s in out]
    if len(set(names)) != len(names):
        _fail(path, f"solver names must be unique, got {names}")
    return out


def _check_metrics(v, path):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a nonempty list of metrics")
    for i, m in enumerate(v):
        if m not in METRICS:
            _fail(f"{path}[{i}]", f"must be one of {list(METRICS)}, got {m!r}")
    if len(set(v)) != len(v):
        _fail(path, "duplicate metrics")
    return list(v)


@dataclass(eq=True)
class ExperimentConfig:
    """Validated experiment description; ``to_dict`` gives the canonical form."""

    dimension: int
    horizon: int
    seeds: list
    checkpoint_every: int
    response: str
    measurement: dict
    corruption: dict
    signal: Optional[dict]
    solvers: list
    metrics: list
    output_dir: Optional[str]
    ctilde: Optional[float]

    def to_dict(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if v is not None}
        out["solvers"] = [{k: v for k, v in s.items() if v is not None} for s in out["solvers"]]
        return out

    def fingerprint(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def with_updates(self, **kwargs) -> "ExperimentConfig":
        data = self.to_dict()
        data.update(kwargs)
        return validate_config(data)


def validate_config(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object and normalize it."""
    out = _check_dict(
        data,
        "",
        {
            "dimension": _int_at_least(1),
            "horizon": _int_at_least(0),
            "seeds": _seed_list,
            "measurement": _tagged(MEASUREMENT_KINDS),
            "corruption": _tagged(CORRUPTION_KINDS),
            "solvers": _check_solvers,
        },
        {
            "checkpoint_every": (_int_at_least(1), 1000),
            "response": (_string(("linear", "relu")), "linear"),
            "signal": (_tagged(SIGNAL_KINDS), None),
            "metrics": (_check_metrics, ["relative_error"]),
            "output_dir": (_string(), None),
            "ctilde": (_positive, None),
        },
    )

    is_dataset = out["measurement"]["kind"] == "dataset_rows"
    if is_dataset:
        if out["signal"] is not None:
            _fail("signal", "dataset_rows experiments take responses from the data")
        if "relative_error" in out["metrics"]:
            _fail("metrics", "relative_error needs a planted signal; use clean_l2_loss")
    else:
        if out["signal"] is None:
            out["signal"] = {"kind": "standard_normal"}
        if out["signal"]["kind"] == "fixed" and len(out["signal"]["values"]) != out["dimension"]:
            _fail(
                "signal.values",
                f"length {len(out['signal']['values'])} != dimension {out['dimension']}",
            )
        if "clean_l2_loss" in out["metrics"]:
            _fail("metrics", "clean_l2_loss requires a dataset_rows measurement")
        for i, s in enumerate(out["solvers"]):
            if (s["method"] in RELU_METHODS) != (out["response"] == "relu"):
                _fail(
                    f"solvers[{i}].method",
                    f"{s['method']!r} is inconsistent with response={out['response']!r}",
                )

    return ExperimentConfig(**out)


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return validate_config(data)
