"""What the benchmark under ``perfbench/`` reads from the program, checked without running the benchmark.

The probe counts a ``run_batch`` call's checkpoints with ``len`` of each
trajectory's checkpoints and sums its violation counts; the run_dataset
workload calls the library and ``emit_plot(metric="clean_loss")`` and
checks the CSV digest against ``perfbench/reference.json``.  The modules
are imported as the benchmark imports them, unchanged, and the probe's
wrappers are never installed.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import sgdexp.solvers as solvers_mod
from sgdexp.corruption import SignFlip
from sgdexp.measurement import GaussianSphere, sample_seeds
from sgdexp.solvers import Lanes, SolverSpec, StreamSpec, run_batch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    """perfbench's probe, child and workloads modules, imported from its directory as child.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    modules = {name: importlib.import_module(name) for name in ("probe", "child", "workloads")}
    yield modules
    for name in modules:
        sys.modules.pop(name, None)


def _norm_two_rows(model, rngs, out, uniforms=None):
    """sample_seeds with every row scaled to norm 2: each sgd_exp step breaks the step law."""
    idx = sample_seeds(model, rngs, out, uniforms)
    out *= 2.0
    return idx


@pytest.mark.parametrize("lanes", [False, True], ids=["spec", "lanes"])
def test_probe_counts_a_run_batch_result(perfbench, lanes, monkeypatch):
    monkeypatch.setattr(solvers_mod, "sample_seeds", _norm_two_rows)
    exp = SolverSpec("sgd_exp_linear", 4, 250, lam=1.01, G=1.0)
    root = SolverSpec("sgd_root_linear", 4, 250, gamma=0.5)
    spec = Lanes([(exp, 0.2, None), (root, 0.0, None)]) if lanes else exp
    seeds = [3, 4, 5]
    stream = StreamSpec(GaussianSphere(4), SignFlip(0.2))
    result = run_batch(spec, stream, seeds, x_true=np.ones(4), checkpoint_every=100)
    counts = perfbench["probe"]._run_batch_counts({"spec": spec, "seeds": seeds}, result)
    step_law = sum(t.step_law_violations for t in result)
    assert step_law > 0
    assert counts == {
        "lane_steps": 250 * len(seeds),
        "checkpoints": len(result) * 4,  # k = 0, 100, 200, 250
        "step_law_violations": step_law,
        "relu_gate_violations": 0,
    }
    probe = perfbench["probe"].Probe(trace=False, run_id="contract")
    probe._add_violations(result)
    assert probe.violations == {"step_law": step_law, "relu_gate": 0}
    # Rows as the probe and the workload scripts may read them.
    last = result[0].checkpoints[-1]
    assert (last.k, last.clean_loss) == (250, None) and last.relative_error > 0.0 and last.elapsed_seconds >= 0.0


def test_run_dataset_workload_matches_its_reference(perfbench, tmp_path):
    workloads = perfbench["workloads"]
    workload = workloads.WORKLOADS["run_dataset"]
    variant = 1
    args = workload.generate(variant, tmp_path)["args"]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc, extra = perfbench["child"].run_dataset(args, out_dir)
    assert (rc, extra) == (0, {})
    reference = workloads.load_reference()["run_dataset"][str(variant)]
    assert workload.check(out_dir, {}, reference) == []
    manifest = json.loads((out_dir / "results.manifest.json").read_text())
    assert manifest["summary"]["sgd-exp"]["final_k"] == workload.horizon
    assert (out_dir / "results.svg").read_text().count("<polyline") == 1
