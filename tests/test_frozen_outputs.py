"""Frozen SHA-256 digests of small versions of every shipped config.

Each config runs at T=2000 with seeds [1, 2] through the library path that
``sgdexp run`` uses (run_experiment, emit_results, emit_plot); the
synthetic configs also run through ``run_sweep``, one of them at ten
seeds.  The digests cover the results CSV without its elapsed_seconds
column, the manifest and the SVG, so any change to the update rules, the
corruption channels, the draw order or the emission format moves them.
The anti-concentration estimates that drift-check and ``sgdexp ctilde``
make are pinned bit for bit as well.  A change that moves a digest on
purpose says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from sgdexp.cli import main
from sgdexp.config import validate_config
from sgdexp.datasets import evaluate_clean_loss, least_squares_baseline, load_csv
from sgdexp.experiment import run_experiment, run_sweep
from sgdexp.measurement import DatasetRows, GaussianSphere, estimate_ctilde
from sgdexp.results import emit_plot, emit_results, emit_sweep_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMALL = {"horizon": 2000, "seeds": [1, 2], "checkpoint_every": 250}
WINE_CSV = "winequality-red-small.csv"
WINE_COLUMNS = json.loads((CONFIGS / "redwine.json").read_text())["measurement"]

# Computed at the commit before the engine's rule table, from that commit's code.
DIGESTS = {
    # Computed at the commit before this config shipped, from that commit's code.
    "hitting_time": {
        "results": "4dad3825e383602b21b5b8b05f2992344de4a21d2aa285a83f9c29f83896044e",
        "manifest": "44a2bf1cb3dfc1cfff39b740a7cab6c9f082a482fee00f2ef8a94efc0e5a1abd",
        "svg": "7818fa85f8cd51c8c5558935ba315a6f9ccb1ac2ab114588c7a6cd9611dce885",
    },
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
        # Recomputed when the manifest gained least_squares_clean_loss; nothing else moved.
        "manifest": "1839908aa69193c59efdcc379194e7f410ca346fcbb56f566581c3c3f0256b59",
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

# ``estimate_ctilde``'s (value, stderr) as float.hex, computed at the commit
# before the estimate streamed its chunks through row blocks: drift-check's
# own call when a config gives no ctilde (GaussianSphere(20), 200 000
# samples, default_rng(0), 16 directions), and ``sgdexp ctilde`` at d = 20,
# 200 000 samples and its default seed and 32 directions.
DRIFT_CHECK_CTILDE = ("0x1.9bf05e4d0d67ap-1", "0x1.58a12e3611fcfp-10")
CTILDE_CLI = {
    "gaussian_sphere": ("0x1.9bf2f654ca75dp-1", "0x1.58a2d01ba9714p-10"),
    "normalized_rademacher": ("0x1.9b6bfd6d15a6ap-1", "0x1.59ae6cc4c8174p-10"),
    "normalized_iid_subgaussian": ("0x1.9c375d438c462p-1", "0x1.5a55de5ce79d2p-10"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_wine_csv(path: Path) -> None:
    """A 200-row CSV in the red-wine schema, fixed by its numpy seed."""
    rng = np.random.default_rng(20240301)
    features = WINE_COLUMNS["features"]
    X = rng.normal(size=(200, len(features))) * 2.0 + 5.0
    quality = np.clip(np.round(5.6 + 0.3 * (X[:, 9] - 5.0) + rng.normal(size=200)), 3, 8)
    lines = [",".join(features + [WINE_COLUMNS["response"]])]
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
    ["hitting_time", "linear_signflip", "oblivious_high_p", "redwine", "relu_clean_glmtron", "relu_signflip"],
)
def test_shipped_config_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_wine_csv(tmp_path / WINE_CSV)
    assert emit_digests(name, tmp_path / "out") == DIGESTS[name]


def test_redwine_least_squares_reference(tmp_path, monkeypatch):
    """The manifest's least_squares_clean_loss is the clean loss of the
    least-squares fit to the run's preprocessed rows, bit for bit."""
    monkeypatch.chdir(tmp_path)
    _write_wine_csv(tmp_path / WINE_CSV)
    config = small_config("redwine")
    _, manifest_path = emit_results(run_experiment(config), tmp_path / "out")
    m = config.measurement
    preprocessing = ("center", "z_score", "row_normalize", "center_response", "delimiter")
    data = load_csv(m["path"], m["features"], m["response"], **{k: m[k] for k in preprocessing})
    model = DatasetRows(data.features, data.responses)
    want = evaluate_clean_loss(least_squares_baseline(model), model)
    assert json.loads(manifest_path.read_text())["least_squares_clean_loss"] == want


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


def test_drift_check_ctilde_estimate():
    est = estimate_ctilde(GaussianSphere(20), 200_000, np.random.default_rng(0), n_directions=16)
    assert (est.value.hex(), est.stderr.hex()) == DRIFT_CHECK_CTILDE


@pytest.mark.parametrize("model", sorted(CTILDE_CLI))
def test_ctilde_cli_estimate(model):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["ctilde", "--model", model, "--d", "20", "--samples", "200000"]) == 0
    report = json.loads(out.getvalue())
    assert report["n_directions"] == 32
    assert (report["value"].hex(), report["stderr"].hex()) == CTILDE_CLI[model]
