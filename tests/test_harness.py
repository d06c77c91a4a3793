import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sgdexp.config import ConfigError, validate_config
from sgdexp.experiment import aggregate_mean, run_experiment, run_sweep
from sgdexp.results import (
    CSV_HEADER,
    emit_plot,
    emit_results,
    emit_sweep_csv,
    read_results_csv,
)
from sgdexp.solvers import run_batch


def small_config(**overrides):
    data = {
        "dimension": 6,
        "horizon": 400,
        "seeds": [1, 2],
        "checkpoint_every": 100,
        "measurement": {"kind": "gaussian_sphere"},
        "corruption": {"kind": "sign_flip", "p": 0.2},
        "solvers": [
            {"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.01, "G": "auto"},
            {"name": "sgd-root", "method": "sgd_root_linear", "gamma": 0.5},
        ],
    }
    data.update(overrides)
    return validate_config(data)


def dataset_config(tmp_path, **overrides):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 3))
    x_star = np.array([1.0, -2.0, 0.5])
    y = A @ x_star
    path = tmp_path / "data.csv"
    lines = ["f1,f2,f3,y"]
    for row, resp in zip(A, y):
        lines.append(",".join(format(v, ".17g") for v in row) + f",{format(resp, '.17g')}")
    path.write_text("\n".join(lines) + "\n")
    data = {
        "dimension": 3,
        "horizon": 300,
        "seeds": [5],
        "checkpoint_every": 100,
        "measurement": {
            "kind": "dataset_rows",
            "path": str(path),
            "features": ["f1", "f2", "f3"],
            "response": "y",
        },
        "corruption": {"kind": "none"},
        "solvers": [{"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.01, "G": 1.0}],
        "metrics": ["clean_l2_loss"],
    }
    data.update(overrides)
    return validate_config(data)


class TestRunExperiment:
    def test_one_trajectory_per_cell(self):
        trajs = run_experiment(small_config())
        assert len(trajs) == 4  # 2 solvers x 2 seeds
        assert {(t.solver, t.seed) for t in trajs} == {
            ("sgd-exp", 1),
            ("sgd-exp", 2),
            ("sgd-root", 1),
            ("sgd-root", 2),
        }
        for t in trajs:
            assert t.fingerprint == small_config().fingerprint()

    def test_aggregate_is_pointwise_mean(self):
        trajs = run_experiment(small_config())
        agg = aggregate_mean(trajs)
        exp = [t for t in trajs if t.solver == "sgd-exp"]
        ks, means = agg["sgd-exp"]
        manual = np.mean(
            [[cp.relative_error for cp in t.checkpoints] for t in exp], axis=0
        )
        assert np.allclose(means, manual, rtol=0, atol=0)
        assert list(ks) == [cp.k for cp in exp[0].checkpoints]

    def test_deterministic_across_calls(self):
        t1 = run_experiment(small_config())
        t2 = run_experiment(small_config())
        for a, b in zip(t1, t2):
            assert np.array_equal(a.x_final, b.x_final)
            assert [c.relative_error for c in a.checkpoints] == [
                c.relative_error for c in b.checkpoints
            ]

    def test_matches_solo_run_bitwise(self):
        from sgdexp.experiment import build_stream, draw_signals, resolve_solver

        cfg = small_config()
        trajs = run_experiment(cfg)
        stream = build_stream(cfg)
        signals = draw_signals(cfg)
        norms = np.linalg.norm(signals, axis=1)
        spec, _, _ = resolve_solver(cfg.solvers[0], cfg, norms)  # spec.G is seed 1's auto G
        solo = run_batch(
            spec,
            stream,
            [cfg.seeds[0]],
            x_true=signals[0],
            checkpoint_every=cfg.checkpoint_every,
        )[0]
        batch_first = [t for t in trajs if t.solver == "sgd-exp" and t.seed == 1][0]
        assert np.array_equal(solo.x_final, batch_first.x_final)

    def test_dataset_clean_loss_metric(self, tmp_path):
        cfg = dataset_config(tmp_path)
        trajs = run_experiment(cfg)
        assert len(trajs) == 1
        losses = [cp.clean_loss for cp in trajs[0].checkpoints]
        assert all(v is not None for v in losses)
        assert all(cp.relative_error is None for cp in trajs[0].checkpoints)
        # noise-free consistent system: loss shrinks from ||y||^2 scale
        assert losses[-1] < losses[0]

    def test_zero_signal_draw_is_redrawn_from_the_same_generator(self, monkeypatch):
        import sgdexp.experiment as experiment_mod
        from sgdexp.experiment import draw_signals

        made = []

        class FirstDrawZero:
            """A generator whose first draw is the zero vector."""

            def __init__(self, seed):
                made.append(seed)
                self.draws = 0

            def standard_normal(self, d):
                # A redraw from a fresh generator would repeat the zero draw forever.
                assert len(made) <= 2, "zero signal redrawn from a new generator"
                self.draws += 1
                return np.zeros(d) if self.draws == 1 else np.arange(1.0, d + 1.0)

        monkeypatch.setattr(experiment_mod, "signal_rng", FirstDrawZero)
        cfg = small_config(signal={"kind": "scaled_standard_normal", "norm": 3.0})
        signals = draw_signals(cfg)
        assert made == [1, 2]
        assert np.allclose(np.linalg.norm(signals, axis=1), 3.0)

    def test_auto_gamma_needs_lam(self):
        cfg = small_config(
            solvers=[{"name": "r", "method": "sgd_root_linear", "gamma": "auto"}]
        )
        with pytest.raises(ConfigError, match="lam"):
            run_experiment(cfg)


class TestSweep:
    def test_mean_recomputation(self):
        cfg = small_config()
        rows = run_sweep(cfg, [0.1, 0.3], [1, 2])
        assert {r.p for r in rows} == {0.1, 0.3}
        cell = cfg.with_updates(
            corruption={"kind": "sign_flip", "p": 0.1}, seeds=[1, 2]
        )
        trajs = run_experiment(cell)
        agg = aggregate_mean(trajs)
        for solver, (ks, means) in agg.items():
            got = {r.k: r.mean_value for r in rows if r.solver == solver and r.p == 0.1}
            for k, v in zip(ks, means):
                assert got[int(k)] == pytest.approx(v, rel=0, abs=0)

    def test_sweep_requires_p_channel(self):
        cfg = small_config(corruption={"kind": "none"})
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep(cfg, [0.1])

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_sweep_rejects_invalid_p(self, p):
        with pytest.raises(ConfigError, match=r"^corruption\.p: "):
            run_sweep(small_config(), [0.2, p])

    def test_sweep_csv(self, tmp_path):
        rows = run_sweep(small_config(), [0.2], [1])
        path = emit_sweep_csv(rows, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "solver,p,k,mean_value,n_seeds,metric"
        assert len(lines) == 1 + len(rows)


class TestEmitResults:
    def test_csv_line_count(self, tmp_path):
        cfg = small_config(seeds=[1], horizon=300, solvers=[
            {"name": "sgd-exp", "method": "sgd_exp_linear", "lam": 1.01, "G": 1.0}
        ])
        trajs = run_experiment(cfg)
        # checkpoints at k = 0, 100, 200, 300
        trajs[0].checkpoints = trajs[0].checkpoints[1:]  # drop k=0 -> 3 checkpoints
        csv_path, _ = emit_results(trajs, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0] == ",".join(CSV_HEADER)

    def test_round_trip(self, tmp_path):
        trajs = run_experiment(small_config())
        csv_path, _ = emit_results(trajs, tmp_path)
        back = read_results_csv(csv_path)
        by_key = {(t.solver, t.seed): t for t in back}
        for t in trajs:
            parsed = by_key[(t.solver, t.seed)]
            assert [c.k for c in parsed.checkpoints] == [c.k for c in t.checkpoints]
            for a, b in zip(parsed.checkpoints, t.checkpoints):
                if b.relative_error is None:
                    assert a.relative_error is None
                else:
                    assert a.relative_error == b.relative_error  # 17g round-trips floats

    def test_byte_determinism_except_elapsed(self, tmp_path):
        cfg = small_config()
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        c1, m1 = emit_results(run_experiment(cfg), tmp_path / "r1")
        c2, m2 = emit_results(run_experiment(cfg), tmp_path / "r2")

        def strip_elapsed(path):
            rows = list(csv.reader(open(path)))
            return [row[:-1] for row in rows]

        assert strip_elapsed(c1) == strip_elapsed(c2)
        assert m1.read_bytes() == m2.read_bytes()  # manifest carries no timings

    def test_manifest_contents(self, tmp_path):
        cfg = small_config()
        trajs = run_experiment(cfg)
        _, manifest_path = emit_results(trajs, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["fingerprint"] == cfg.fingerprint()
        assert manifest["seeds"] == [1, 2]
        assert set(manifest["solvers"]) == {"sgd-exp", "sgd-root"}
        assert manifest["step_law_violations"] == 0
        assert "sgd-exp" in manifest["summary"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path)


class TestEmitPlot:
    def test_well_formed_svg_one_polyline_per_solver(self, tmp_path):
        trajs = run_experiment(small_config())
        path = emit_plot(trajs, tmp_path / "plot.svg")
        root = ET.parse(path).getroot()  # parse fails on malformed XML
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert "iteration k" in texts
        assert "relative error" in texts
        assert "sgd-exp" in texts and "sgd-root" in texts

    def test_plot_deterministic(self, tmp_path):
        cfg = small_config()
        p1 = emit_plot(run_experiment(cfg), tmp_path / "a.svg")
        p2 = emit_plot(run_experiment(cfg), tmp_path / "b.svg")
        assert p1.read_bytes() == p2.read_bytes()

    def test_clean_loss_metric(self, tmp_path):
        cfg_dir = tmp_path / "data"
        cfg_dir.mkdir()
        trajs = run_experiment(dataset_config(cfg_dir))
        path = emit_plot(trajs, tmp_path / "loss.svg", metric="clean_loss")
        root = ET.parse(path).getroot()
        assert len([e for e in root.iter() if e.tag.endswith("polyline")]) == 1

    def test_missing_metric_rejected(self, tmp_path):
        trajs = run_experiment(small_config())
        with pytest.raises(ValueError, match="clean_loss"):
            emit_plot(trajs, tmp_path / "x.svg", metric="clean_loss")
