#!/usr/bin/env python3
"""Regenerate reference.json: the output digests of every input variant of every workload.

Usage (from the root of a checkout): python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each variant once, untraced, and stores what the workload's
``digests`` returns.  Only rerun it when a change is meant to alter the
program's output bytes, and say why in CHANGES.md.
"""

import json
import shutil
import sys

import run
import workloads


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    import sgdexp

    reference = json.loads(workloads.REFERENCE.read_text(encoding="utf-8")) if workloads.REFERENCE.exists() else {}
    reference["machine"] = run.machine_info(sgdexp)
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        table = reference[name] = {}
        for variant in range(workloads.N_VARIANTS):
            run_dir = run.WORK / "reference" / f"{name}-{variant}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            inputs = workload.generate(variant, run_dir)

            def record(out_dir, result):
                table[str(variant)] = workload.digests(out_dir, result)
                return workload.check(out_dir, result, table[str(variant)])

            ex = run.execute(workload, inputs, "plain", run_dir, f"reference/{name}/{variant}", 0, record)
            shutil.rmtree(run_dir)
            if ex["failures"]:
                print(f"error: {name} variant {variant}: {ex['failures']}", file=sys.stderr)
                return 1
            print(f"{name} {variant}: {ex['wall_s']:.2f} s", flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
