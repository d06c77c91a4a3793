"""Frozen SHA-256 digests of small versions of every shipped config.

Each config runs at T=2000 with seeds [1, 2] through the library path that
``sgdexp run`` uses (run_experiment, emit_results, emit_plot); the
synthetic configs also run through ``run_sweep``, one of them at ten
seeds.  The digests cover the results CSV without its elapsed_seconds
column, the manifest and the SVG, so any change to the update rules, the
corruption channels, the draw order or the emission format moves them.
A change that moves a digest on purpose says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sgdexp.config import validate_config
from sgdexp.datasets import RED_WINE_FEATURES, RED_WINE_RESPONSE
from sgdexp.experiment import run_experiment, run_sweep
from sgdexp.results import emit_plot, emit_results, emit_sweep_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMALL = {"horizon": 2000, "seeds": [1, 2], "checkpoint_every": 250}
WINE_CSV = "winequality-red-small.csv"

# Computed at the commit before the engine's rule table, from that commit's code.
DIGESTS = {
    "linear_signflip": {
        "results": "a3a31dde55ecd8148a96250dde496cc1ee3c8c8ce3db4cd6e67962fbdcd1d286",
        "manifest": "629152cd37e24326dc8bc9a8e32d8fcff80d481b085eb8a51994d7ce7ce70d99",
        "svg": "4515cf2460ca46cf2296802f35dd918d77db4b27b93a6a2357e03e0325a8bf56",
    },
    "oblivious_high_p": {
        "results": "1423102e401968c0133133ea158b1b3f266b8a5fc3d4d8a203a56f5aeb2a2dbc",
        "manifest": "3ba9f72e93eb06495bda0cee78011c8018cc0ecbfce05b6e4939ccc0d8df087f",
        "svg": "bc86462fd66438507ebe7ed8e3811d87f97319f4568631a662c692063f003f1b",
    },
    "redwine": {
        "results": "7f3ef339cb21a0d5e61eb4ac81b8ff4f25fd2c55b6c8afd4dcc3f36021244827",
        "manifest": "473412504a42d026e47ca54d3a9836ffc9f4ba5f416e123e84af9171bbcef3a4",
        "svg": "744b7a87ad22d19fc062f436730c321b73d36582b3ae9d2f09bc5343380bc2b5",
    },
    "relu_clean_glmtron": {
        "results": "24c70ab1fd6067145f5e10d0ed86fd84c911d08ba54db4a8f2a6a23abd7e810a",
        "manifest": "756f39ebcbf90605527ca54bb8c8b0a25d63913887d4186309a004891b6310ad",
        "svg": "bfe48b5ef35323aaf82202cb7364dd92d48ca2ae2c433eb69197cf224313c3f7",
    },
    "relu_signflip": {
        "results": "ca2d3a606653f9614ccf85914bba4b9b39712d3eae7bfb2a3d429a88274dea03",
        "manifest": "078ec26b920508e621b302ec3476b32ca8ded99a7835e0172df2bea966aac93c",
        "svg": "4b1df36ff2f24b24aafc4b1db8b8ff2fb3701cf1704b93dfbfcdc349c98687b1",
    },
}
SWEEP_DIGEST = "2a4addef9ca4c7acc20861ceba5252342ccbcfec8b0f8c23302f4116053dcf75"

# Sweeps whose lanes mix rules, noise draws and channels, computed at the
# commit before the engine shared one stream across a config's solvers and
# p values: (p grid, corruption kind override or None, digest).
MIXED_SWEEPS = {
    "relu_signflip": (
        [0.2, 0.4],
        None,
        "afbd51eff2cbaf0af7da2169713049f36efbffe503ab353921e68ee71c8b9919",
    ),
    "oblivious_high_p": (
        [0.5, 0.9],
        None,
        "809715508c59d2fdcc740422dd4e844d8bf0c5b89a509b8edd169d4609a1204c",
    ),
    "linear_signflip": (
        [0.0, 0.3],
        "residual_sign",
        "b7a6624e70fff515f50e010c7abf4375ecd6c79fbc045b9cd71a6d0954a7c25a",
    ),
}

# A sweep over ten seeds at T=500, so that the mean over seeds sums past 8
# terms and a change to its order moves the digest, as two seeds cannot;
# computed at the commit before the compiled sphere pass, from that
# commit's code: (config, p grid, seeds, digest).
TEN_SEED_SWEEP = (
    "relu_signflip",
    [0.2, 0.4],
    range(1, 11),
    "9550a32d73414833581357ca8b036c7ad447d97b1ab7ce835cc8a57a951e8ad4",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_wine_csv(path: Path) -> None:
    """A 200-row CSV in the red-wine schema, fixed by its numpy seed."""
    rng = np.random.default_rng(20240301)
    X = rng.normal(size=(200, len(RED_WINE_FEATURES))) * 2.0 + 5.0
    quality = np.clip(np.round(5.6 + 0.3 * (X[:, 9] - 5.0) + rng.normal(size=200)), 3, 8)
    lines = [",".join(RED_WINE_FEATURES + [RED_WINE_RESPONSE])]
    for row, q in zip(X, quality):
        lines.append(",".join(format(v, ".6f") for v in row) + f",{int(q)}")
    path.write_text("\n".join(lines) + "\n")


def small_config(name: str):
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    data.update(SMALL)
    if data["measurement"]["kind"] == "dataset_rows":
        # Relative, so the fingerprint in the manifest does not depend on tmp_path.
        data["measurement"]["path"] = WINE_CSV
    return validate_config(data)


def emit_digests(name: str, out_dir: Path) -> dict:
    config = small_config(name)
    trajectories = run_experiment(config)
    csv_path, manifest_path = emit_results(trajectories, out_dir)
    metric = "clean_loss" if config.signal is None else "relative_error"
    svg_path = emit_plot(trajectories, out_dir / "results.svg", metric=metric)
    rows = csv_path.read_text().splitlines()
    assert rows[0].endswith(",elapsed_seconds")
    return {
        "results": _sha("\n".join(r.rsplit(",", 1)[0] for r in rows).encode()),
        "manifest": _sha(manifest_path.read_bytes()),
        "svg": _sha(svg_path.read_bytes()),
    }


def sweep_digest(out_dir: Path) -> str:
    rows = run_sweep(small_config("linear_signflip"), [0.1, 0.3])
    return _sha(emit_sweep_csv(rows, out_dir).read_bytes())


@pytest.mark.parametrize(
    "name",
    ["linear_signflip", "oblivious_high_p", "redwine", "relu_clean_glmtron", "relu_signflip"],
)
def test_shipped_config_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_wine_csv(tmp_path / WINE_CSV)
    assert emit_digests(name, tmp_path / "out") == DIGESTS[name]


def test_sweep_digest(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_DIGEST


@pytest.mark.parametrize("name", sorted(MIXED_SWEEPS))
def test_mixed_lane_sweep_digest(name, tmp_path):
    p_grid, kind, digest = MIXED_SWEEPS[name]
    config = small_config(name)
    if kind is not None:
        config = config.with_updates(corruption=dict(config.corruption, kind=kind))
    rows = run_sweep(config, p_grid)
    assert _sha(emit_sweep_csv(rows, tmp_path).read_bytes()) == digest


def test_ten_seed_sweep_digest(tmp_path):
    name, p_grid, seeds, digest = TEN_SEED_SWEEP
    config = small_config(name).with_updates(horizon=500, checkpoint_every=50)
    rows = run_sweep(config, p_grid, seeds)
    assert _sha(emit_sweep_csv(rows, tmp_path).read_bytes()) == digest
