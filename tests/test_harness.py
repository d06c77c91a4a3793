import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

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
from sgdexp.solvers import CheckpointTable, Trajectory, run_batch

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        manual = np.mean([t.checkpoints.relative_error for t in exp], axis=0)
        assert np.allclose(means, manual, rtol=0, atol=0)
        assert list(ks) == list(exp[0].checkpoints.k)

    def test_deterministic_across_calls(self):
        t1 = run_experiment(small_config())
        t2 = run_experiment(small_config())
        for a, b in zip(t1, t2):
            assert np.array_equal(a.x_final, b.x_final)
            assert a.checkpoints.relative_error.tolist() == b.checkpoints.relative_error.tolist()

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
        cps = trajs[0].checkpoints
        losses = cps.clean_loss
        assert cps.has_clean_loss.all()
        assert not cps.has_relative_error.any()
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
        trajs[0].checkpoints = CheckpointTable.from_rows(list(trajs[0].checkpoints)[1:])  # drop k=0
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
            assert parsed.checkpoints.k.tolist() == t.checkpoints.k.tolist()
            assert np.array_equal(parsed.checkpoints.has_relative_error, t.checkpoints.has_relative_error)
            # 17g round-trips floats; a value not measured reads back as not measured.
            assert np.array_equal(parsed.checkpoints.relative_error, t.checkpoints.relative_error, equal_nan=True)

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

    @pytest.mark.parametrize("name", ["oblivious_high_p", "relu_signflip"])
    def test_manifest_means_are_the_plotted_means(self, name, tmp_path):
        """At the config's ten seeds, past the 8 terms where numpy's pairwise
        sum starts, the manifest's final means are aggregate_mean's last
        points bit for bit."""
        data = json.loads((CONFIGS / f"{name}.json").read_text())
        data.update(horizon=2000, checkpoint_every=500)
        trajs = run_experiment(validate_config(data))
        _, manifest_path = emit_results(trajs, tmp_path)
        summary = json.loads(manifest_path.read_text())["summary"]
        for solver, (ks, means) in aggregate_mean(trajs).items():
            assert summary[solver]["final_k"] == ks[-1] == 2000
            assert summary[solver]["mean_final_relative_error"] == float(means[-1])
            assert summary[solver]["mean_final_clean_loss"] is None

    @pytest.mark.parametrize("name", ["linear_signflip", "relu_signflip", "relu_dataset"])
    def test_least_squares_reference_only_in_linear_dataset_manifests(self, name, tmp_path):
        if name == "relu_dataset":
            solver = {"name": "sgd-exp", "method": "sgd_exp_relu", "lam": 1.01, "G": 1.0}
            cfg = dataset_config(tmp_path, response="relu", solvers=[solver])
        else:
            data = json.loads((CONFIGS / f"{name}.json").read_text())
            data.update(horizon=200, seeds=[1], checkpoint_every=100)
            cfg = validate_config(data)
        _, manifest_path = emit_results(run_experiment(cfg), tmp_path / "out")
        assert "least_squares_clean_loss" not in json.loads(manifest_path.read_text())

    def test_least_squares_reference_of_a_duplicated_feature_column(self, tmp_path):
        cfg = dataset_config(tmp_path)
        cfg = cfg.with_updates(measurement=dict(cfg.measurement, features=["f1", "f2", "f1"]))
        trajs = run_experiment(cfg)
        _, manifest_path = emit_results(trajs, tmp_path / "out")
        reference = json.loads(manifest_path.read_text())["least_squares_clean_loss"]
        assert np.isfinite(reference)
        assert all(np.all(reference <= t.checkpoints.clean_loss) for t in trajs)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path)

    def test_rows_are_csv_writer_rows_for_names_that_need_quoting(self, tmp_path):
        """Solver names with a comma, a quote and a newline are quoted as
        ``csv.writer`` quotes them, every row has its bytes, and the file
        reads back."""
        values = [None, 0.0, -0.0, 1e-300, 0.1, 2.5e17, -7.0]
        trajs = [
            Trajectory(
                solver=name,
                seed=seed,
                checkpoints=CheckpointTable.from_rows(
                    (k, values[k % 7], values[(k + 3) % 7], 0.25 * k) for k in range(9)
                ),
                x_final=np.empty(0),
            )
            for name in ("a,b", 'say "hi"', "two\nlines", "plain")
            for seed in (3, -1)
        ]
        csv_path, _ = emit_results(trajs, tmp_path)
        with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for t in sorted(trajs, key=lambda t: (t.solver, t.seed)):
                for cp in t.checkpoints:
                    cells = (cp.relative_error, cp.clean_loss, cp.elapsed_seconds)
                    writer.writerow([t.solver, t.seed, cp.k, *("" if v is None else format(v, ".17g") for v in cells)])
        assert csv_path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        back = {(t.solver, t.seed): t.checkpoints for t in read_results_csv(csv_path)}
        assert back == {(t.solver, t.seed): t.checkpoints for t in trajs}

    def test_rows_keep_the_bytes_of_nan_infinity_and_negative_zero(self, tmp_path):
        """A column measured throughout and a column measured in part write
        each value as ``format(v, ".17g")`` does, and "" where not measured."""
        nan, inf = float("nan"), float("inf")
        rows = [(0, nan, -0.0, 0.0), (5, -inf, None, 1.5), (10, -0.0, nan, 2.0)]
        traj = Trajectory(solver="s%d", seed=7, checkpoints=CheckpointTable.from_rows(rows), x_final=np.empty(0))
        csv_path, _ = emit_results([traj], tmp_path)
        cells = [[str(row[0]), *("" if v is None else format(v, ".17g") for v in row[1:])] for row in rows]
        want = [",".join(CSV_HEADER), *(",".join(["s%d", "7", *c]) for c in cells)]
        assert csv_path.read_text().splitlines() == want
        assert "nan" in want[1] and "-inf" in want[2] and "-0" in want[3]


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
