"""Timing probe installed from outside the program, and the per-layer metrics derived from it.

sgdexp modules call each other through module globals (``run_batch`` in
``sgdexp.experiment``, ``sample_block`` in ``sgdexp.solvers``, ...).
The probe replaces those attributes with wrappers, so no file under
``src/`` changes:

* plain mode wraps only the first engine / Monte Carlo entry points, to
  stamp the moment set-up ends and to read the step-law and ReLU-gate
  violation counts that ``run_batch`` returns;
* trace mode wraps every public function of every layer, plus the
  noise laws' ``draw`` method, and records one span per call:
  ``[name, start, end, parent index, run id, counts]``.  Spans stay in
  memory and are written when the execution ends.

Inside ``run_batch`` the probe can only see the calls it makes into
other layers, so engine time splits into measurement sampling, noise
draws and the remainder (the step loop with its audit and checkpoints).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
import types

LAYERS = (
    "config",
    "datasets",
    "measurement",
    "corruption",
    "solvers",
    "drift",
    "experiment",
    "results",
    "cli",
)

#: The first call of any of these marks the end of set-up.
READY = frozenset(
    {
        "solvers.run_batch",
        "measurement.estimate_ctilde",
        "drift.mc_hitting_probability",
        "drift.mc_drift_linear_term",
        "drift.mc_drift_c2",
    }
)

#: The benchmark calls cli.main itself; its own time is what no layer span covers.
UNWRAPPED = frozenset({"cli.main"})

#: Largest share of the traced wall time that set-up plus top-level spans may leave uncovered.
UNACCOUNTED_MAX = 0.05


def clock() -> float:
    """System-wide monotonic clock, comparable between parent and child processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_batch_counts(bound, result):
    return {
        "lane_steps": bound["spec"].T * len(list(bound["seeds"])),
        "checkpoints": sum(len(t.checkpoints) for t in result),
        "step_law_violations": sum(t.step_law_violations for t in result),
        "relu_gate_violations": sum(t.relu_gate_violations for t in result),
    }


def _bytes_written(result):
    paths = result if isinstance(result, tuple) else (result,)
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# Per span name: counts taken from the bound arguments and the result.
COUNTERS = {
    "measurement.sample_block": lambda b, r: {"rows": b["n"]},
    "corruption.noise_draw": lambda b, r: {"values": 1 if b["size"] is None else b["size"]},
    "solvers.run_batch": _run_batch_counts,
    "measurement.estimate_ctilde": lambda b, r: {"samples": b["n_samples"]},
    "drift.mc_drift_linear_term": lambda b, r: {"samples": b["n_samples"]},
    "drift.mc_drift_c2": lambda b, r: {"samples": b["n_samples"]},
    "drift.mc_hitting_probability": lambda b, r: {"hits": round(r.empirical_prob * r.n_runs)},
    "results.emit_results": lambda b, r: _bytes_written(r),
    "results.emit_plot": lambda b, r: _bytes_written(r),
    "results.emit_sweep_csv": lambda b, r: _bytes_written(r),
}


class Probe:
    """Wrappers, spans and counters of one execution; ``install`` puts the wrappers in place."""

    def __init__(self, trace: bool, run_id: str):
        self.trace = trace
        self.run_id = run_id
        self.spans = []
        self.t_ready = None
        self.violations = {"step_law": 0, "relu_gate": 0}
        self.engine_calls = []
        self._recording = True
        self._stack = []

    def span(self, name: str):
        """Context manager recording one span around code the benchmark runs itself."""
        return _Span(self, name)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sgdexp.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("sgdexp."):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                if name in UNWRAPPED or (not self.trace and name not in READY):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, name)
                setattr(module, attr, wrappers[fn])
        if self.trace:
            corruption = importlib.import_module("sgdexp.corruption")
            for law in (corruption.Uniform, corruption.Gaussian):
                law.draw = self._wrap(law.draw, "corruption.noise_draw")

    def _wrap(self, fn, name):
        probe = self
        is_engine = name == "solvers.run_batch"
        if not self.trace:

            @functools.wraps(fn)
            def mark(*args, **kwargs):
                if probe.t_ready is None:
                    probe.t_ready = clock()
                result = fn(*args, **kwargs)
                if is_engine:
                    probe._add_violations(result)
                return result

            return mark

        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with probe.span(name) as span:
                if probe.t_ready is None and name in READY:
                    probe.t_ready = span[1]
                result = fn(*args, **kwargs)
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = count(bound.arguments, result)
            if is_engine:
                probe._add_violations(result)
                if probe._recording:
                    probe.engine_calls.append((args, kwargs))
            return result

        return traced

    def _add_violations(self, trajectories) -> None:
        for t in trajectories:
            self.violations["step_law"] += t.step_law_violations
            self.violations["relu_gate"] += t.relu_gate_violations

    def replay_without_audit(self) -> None:
        """Re-run every recorded run_batch call with validate_steps=False under a separate run id."""
        run_batch = importlib.import_module("sgdexp.solvers").run_batch
        main_id, self.run_id = self.run_id, f"{self.run_id}/replay"
        self._recording = False
        try:
            for args, kwargs in self.engine_calls:
                run_batch(*args, **dict(kwargs, validate_steps=False))
        finally:
            self.run_id = main_id
            self._recording = True


class _Span:
    def __init__(self, probe: Probe, name: str):
        self.probe, self.name = probe, name

    def __enter__(self) -> list:
        probe = self.probe
        parent = probe._stack[-1] if probe._stack else None
        self.span = [self.name, clock(), None, parent, probe.run_id, None]
        probe._stack.append(len(probe.spans))
        probe.spans.append(self.span)
        return self.span

    def __exit__(self, *exc):
        self.span[2] = clock()
        self.probe._stack.pop()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced execution.

#: name -> (unit, better); the order is the order of the printout.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "datasets.load_csv_s": ("s", "lower"),
    "datasets.clean_loss_s": ("s", "lower"),
    "datasets.clean_loss_calls": ("count", "lower"),
    "measurement.sample_s": ("s", "lower"),
    "measurement.sample_calls": ("count", "lower"),
    "measurement.rows_drawn": ("count", "lower"),
    "measurement.rows_per_lane_step": ("ratio", "lower"),
    "measurement.ctilde_s": ("s", "lower"),
    "corruption.noise_draw_s": ("s", "lower"),
    "corruption.noise_values": ("count", "lower"),
    "solvers.run_batch_s": ("s", "lower"),
    "solvers.run_batch_calls": ("count", "lower"),
    "solvers.lane_steps": ("count", "higher"),
    "solvers.checkpoints": ("count", "lower"),
    "solvers.step_self_s": ("s", "lower"),
    "solvers.step_us_per_lane_step": ("us", "lower"),
    "solvers.audit_us_per_lane_step": ("us", "lower"),
    "solvers.step_law_violations": ("count", "lower"),
    "solvers.relu_gate_violations": ("count", "lower"),
    "drift.hitting_s": ("s", "lower"),
    "drift.linear_term_s": ("s", "lower"),
    "drift.c2_s": ("s", "lower"),
    "drift.samples": ("count", "higher"),
    "drift.hits": ("count", "lower"),
    "experiment.self_s": ("s", "lower"),
    "results.emit_s": ("s", "lower"),
    "results.bytes": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_frac": ("ratio", "lower"),
}

#: Ratio -> the metric it is divided by, printed next to it.
RATIO_BASE = {
    "measurement.rows_per_lane_step": "solvers.lane_steps",
    "solvers.step_us_per_lane_step": "solvers.lane_steps",
    "solvers.audit_us_per_lane_step": "solvers.lane_steps",
    "trace.unaccounted_frac": "trace.wall_s",
}


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for name, start, end, parent, run_id, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]


def _under(spans, index, ancestor_name):
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def _engine_self(spans, self_time, run_id):
    return sum(
        self_time[i] for i, s in enumerate(spans) if s[0] == "solvers.run_batch" and s[4] == run_id
    )


def layer_metrics(spans, run_id, t_spawn, t_ready, t_done) -> dict:
    """Per-layer metrics of one traced execution; ``trace.overhead_s`` is added by the caller."""
    self_time = _self_times(spans)
    main = [i for i, s in enumerate(spans) if s[4] == run_id]

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in main if spans[i][0] == name)

    def calls(name):
        return sum(1 for i in main if spans[i][0] == name)

    def counted(name, key, under=None):
        return sum(
            spans[i][5][key]
            for i in main
            if spans[i][0] == name and (under is None or _under(spans, i, under))
        )

    lane_steps = counted("solvers.run_batch", "lane_steps")
    engine_self = _engine_self(spans, self_time, run_id)
    replay_self = _engine_self(spans, self_time, f"{run_id}/replay")
    per_step = (lambda s: 1e6 * s / lane_steps) if lane_steps else (lambda s: 0.0)

    # Set-up, then the top-level spans clipped to after set-up, must cover the wall time.
    covered = t_ready - t_spawn
    for i in main:
        name, start, end, parent = spans[i][:4]
        if parent is None:
            covered += max(0.0, min(end, t_done) - max(start, t_ready))
    wall = t_done - t_spawn

    return {
        "cli.import_s": total("cli.import"),
        "config.load_s": total("config.load_config"),
        "datasets.load_csv_s": total("datasets.load_csv"),
        "datasets.clean_loss_s": total("datasets.evaluate_clean_loss"),
        "datasets.clean_loss_calls": calls("datasets.evaluate_clean_loss"),
        "measurement.sample_s": total("measurement.sample_block"),
        "measurement.sample_calls": calls("measurement.sample_block"),
        "measurement.rows_drawn": counted("measurement.sample_block", "rows"),
        "measurement.rows_per_lane_step": (
            counted("measurement.sample_block", "rows", under="solvers.run_batch") / lane_steps
            if lane_steps
            else 0.0
        ),
        "measurement.ctilde_s": total("measurement.estimate_ctilde"),
        "corruption.noise_draw_s": total("corruption.noise_draw"),
        "corruption.noise_values": counted("corruption.noise_draw", "values"),
        "solvers.run_batch_s": total("solvers.run_batch"),
        "solvers.run_batch_calls": calls("solvers.run_batch"),
        "solvers.lane_steps": lane_steps,
        "solvers.checkpoints": counted("solvers.run_batch", "checkpoints"),
        "solvers.step_self_s": engine_self,
        "solvers.step_us_per_lane_step": per_step(engine_self),
        "solvers.audit_us_per_lane_step": per_step(engine_self - replay_self),
        "solvers.step_law_violations": counted("solvers.run_batch", "step_law_violations"),
        "solvers.relu_gate_violations": counted("solvers.run_batch", "relu_gate_violations"),
        "drift.hitting_s": total("drift.mc_hitting_probability"),
        "drift.linear_term_s": total("drift.mc_drift_linear_term"),
        "drift.c2_s": total("drift.mc_drift_c2"),
        "drift.samples": counted("drift.mc_drift_linear_term", "samples")
        + counted("drift.mc_drift_c2", "samples"),
        "drift.hits": counted("drift.mc_hitting_probability", "hits"),
        "experiment.self_s": sum(
            self_time[i] for i in main if spans[i][0].startswith("experiment.")
        ),
        "results.emit_s": sum(
            spans[i][2] - spans[i][1] for i in main if spans[i][0].startswith("results.emit")
        ),
        "results.bytes": sum(
            spans[i][5]["bytes"] for i in main if spans[i][0].startswith("results.emit")
        ),
        "trace.wall_s": wall,
        "trace.unaccounted_frac": 1.0 - covered / wall,
    }


def median_metrics(samples: list) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
