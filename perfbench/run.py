#!/usr/bin/env python3
"""Benchmark of sgdexp: one workload per invocation, every execution in a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_relu --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen):
    sweep_relu   ``sgdexp sweep`` of configs/relu_signflip.json over p in {0.2, 0.4}
    run_dataset  the red-wine pipeline on a synthesized red-wine-schema CSV
    drift_mc     ``sgdexp drift-check --mc 100`` plus the in-band and below-band validators

The run generates the workload's inputs from ``--seed``, then starts
executions of the workload one after another, each in a fresh Python
process with the BLAS thread counts pinned to 1, until ``--seconds``
have passed (at least three).  Every execution's outputs are checked
against reference.json.

With ``--trace 0`` it prints, per execution median with quartiles:
    wall_s       process start to exit
    setup_s      process start until the first engine or Monte Carlo call
    throughput   work units / (wall_s - setup_s)
    peak_rss_mb  the execution's maximum resident set size
and failed_frac, the share of executions that exited nonzero, missed a
reference digest or reported a step-law / ReLU-gate violation.  With
``--trace 1`` executions alternate between untraced and traced, and it
prints the per-layer metrics of probe.py.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A
record of the run, with every execution and, when traced, every span,
is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import probe
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"

#: One BLAS thread per execution, so that a BLAS thread pool does not compete
#: with the Python step loop for the few cores of a small machine.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_EXECUTIONS = 3
CHILD_TIMEOUT_S = 60.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info(sgdexp) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sgdexp": sgdexp.__version__,
        **THREAD_PINS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RSGD_OUT_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_PINS)
    return env


def spawn(argv, stdout, stderr):
    """Run argv to completion; returns (exit code, t_spawn, t_exit, peak RSS in MiB).

    The child is left unreaped until its exit time is stamped and the
    timeout timer is disarmed, so the timer can never signal a reused pid.
    """
    lock = threading.Lock()
    finished = False

    def kill_if_running():
        with lock:
            if not finished:
                proc.kill()

    t_spawn = probe.clock()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, kill_if_running)
    timer.start()
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    t_exit = probe.clock()
    with lock:
        finished = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, t_exit, usage.ru_maxrss / 1024.0


def execute(workload, inputs, mode, run_dir, run_id, index, check) -> dict:
    """One execution in a fresh process: timings, peak memory and failures.

    ``check(out_dir, result)`` inspects the outputs of a clean exit and
    returns a list of failures.
    """
    ex_dir = run_dir / f"execution{index}"
    out_dir = ex_dir / "out"
    out_dir.mkdir(parents=True)
    result_path = ex_dir / "result.json"
    spec = {
        "workload": workload.name,
        "mode": mode,
        "run_id": run_id,
        "src": str(SRC),
        "args": inputs["args"],
        "out_dir": str(out_dir),
        "result_path": str(result_path),
    }
    spec_path = ex_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(ex_dir / "stdout.txt", "wb") as out, open(ex_dir / "stderr.txt", "wb") as err:
        rc, t_spawn, t_exit, rss = spawn([sys.executable, str(CHILD), str(spec_path)], out, err)

    record = {"mode": mode, "wall_s": t_exit - t_spawn, "peak_rss_mb": rss, "failures": []}
    failures = record["failures"]
    if rc != 0:
        lines = (ex_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace").splitlines()
        failures.append(f"exit code {rc}: {lines[-1] if lines else 'no stderr'}")
    if not result_path.exists():
        failures.append("no result file")
    else:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result["t_ready"] is None:
            failures.append("no engine or Monte Carlo call was made")
        else:
            record["setup_s"] = result["t_ready"] - t_spawn
            record["work_s"] = result["t_done"] - t_spawn
            record["throughput"] = inputs["work_units"] / (record["wall_s"] - record["setup_s"])
        for kind, count in result["violations"].items():
            if count:
                failures.append(f"{count} {kind} violations")
        if rc == 0:
            try:
                failures.extend(check(out_dir, result))
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"output check failed: {exc!r}")
        if mode == "trace" and "setup_s" in record:
            record["layers"] = probe.layer_metrics(
                result["spans"], run_id, t_spawn, result["t_ready"], result["t_done"]
            )
            record["spans"] = result["spans"]
    shutil.rmtree(ex_dir)
    return record


def _number(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_executions(args, workload, inputs, run_dir, run_name, check) -> tuple:
    """Executions until --seconds have passed; untraced and traced ones alternate when tracing.

    Alternating makes trace.overhead_s compare executions made under the same load.
    """
    step, minimum = (2, 2) if args.trace else (1, MIN_EXECUTIONS)
    executions = []
    t_begin = probe.clock()
    while True:
        mode = "trace" if args.trace and len(executions) % 2 else "plain"
        run_id = f"{run_name}/{len(executions)}"
        executions.append(execute(workload, inputs, mode, run_dir, run_id, len(executions), check))
        if len(executions) % step:
            continue
        elapsed = probe.clock() - t_begin
        if len(executions) >= minimum and elapsed * (1 + step / len(executions)) > args.seconds:
            return executions, elapsed


def end_to_end_report(executions, workload) -> tuple:
    """Lines and result metrics: median and quartiles over the untraced executions."""
    timed = [e for e in executions if e["mode"] == "plain" and "setup_s" in e]
    good = [e for e in timed if not e["failures"]] or timed
    lines, metrics = [], {}
    for name, unit in END_TO_END.items():
        if not good:
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        q1, med, q3 = quartiles([e[name] for e in good])
        note = f" ({workload.unit} per second)" if name == "throughput" else ""
        lines.append(f"{name:<13} median {med:.6g} {unit}{note}, q1 {q1:.6g}, q3 {q3:.6g}, n {len(good)}")
        metrics[name] = {"value": med, "unit": unit}
    return lines, metrics


def layer_report(executions) -> tuple:
    """Lines, result metrics and run failures: per-layer medians over the traced executions."""
    traced = [e["layers"] for e in executions if "layers" in e]
    plain = [e["work_s"] for e in executions if e["mode"] == "plain" and "work_s" in e]
    medians = probe.median_metrics(traced) if traced else {}
    if medians and plain:
        medians["trace.overhead_s"] = medians["trace.wall_s"] - statistics.median(plain)
    lines = [f"per-layer medians over {len(traced)} traced executions:"]
    for name, (unit, _) in probe.PER_LAYER.items():
        if name in medians:
            base = probe.RATIO_BASE.get(name)
            note = f" (base {base} = {_number(medians[base])})" if base else ""
            lines.append(f"  {name:<34} {_number(medians[name])} {unit}{note}")
    failures = []
    if not medians or medians["trace.unaccounted_frac"] > probe.UNACCOUNTED_MAX:
        failures.append(
            f"set-up plus top-level spans leave more than {probe.UNACCOUNTED_MAX:.0%} "
            "of the traced wall time unaccounted"
        )
    metrics = {
        name: {"value": medians.get(name, 0.0), "unit": unit}
        for name, (unit, _) in probe.PER_LAYER.items()
    }
    return lines, metrics, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgdexp" / "__init__.py").is_file():
        print(f"error: no sgdexp sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sgdexp

    if SRC.resolve() not in Path(sgdexp.__file__).resolve().parents:
        print(f"error: imported sgdexp from {sgdexp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    variant = args.seed % workloads.N_VARIANTS
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = workload.generate(variant, run_dir)
    except workloads.WorkloadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()[args.workload][str(variant)]

    def check(out_dir, result):
        return workload.check(out_dir, result, reference)

    machine = machine_info(sgdexp)
    executions, elapsed = run_executions(args, workload, inputs, run_dir, run_name, check)
    shutil.rmtree(run_dir)

    failed = sum(1 for e in executions if e["failures"])
    lines = [
        f"perfbench {args.workload}: seed {args.seed} (input variant {variant}), "
        f"{len(executions)} executions in {elapsed:.1f} s, trace {args.trace}",
        "machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()),
    ]
    e2e_lines, metrics = end_to_end_report(executions, workload)
    lines += e2e_lines
    lines.append(
        f"{'failed_frac':<13} {failed / len(executions):.6g} "
        f"({failed} of {len(executions)} executions failed)"
    )
    for i, e in enumerate(executions):
        lines += [f"  execution {i} ({e['mode']}): {f}" for f in e["failures"]]
    run_failures = []
    if args.trace:
        layer_lines, metrics, run_failures = layer_report(executions)
        lines += layer_lines + [f"run check failed: {f}" for f in run_failures]

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "work_units": inputs["work_units"],
        "work_unit": workload.unit,
        "executions": executions,
        "metrics": metrics,
        "run_failures": run_failures,
    }
    (results_dir / f"{run_name}.json").write_text(json.dumps(record), encoding="utf-8")

    print("\n".join(lines))
    summary = {
        "correct": failed == 0 and not run_failures,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
