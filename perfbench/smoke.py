"""Smoke self-test of the benchmark at the smallest rung of every workload.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload it runs one untraced and one traced pass over the smallest
inputs and checks that every op meets its oracle, that both passes return
identical values, and that the traced pass yields every per-layer metric
named in ``BENCHMARK.json``.  Exits 0 on success, 1 on the first failure.
"""

import json
import os
import sys

import run  # pins BLAS threads before numpy is imported


def main():
    run.import_library()
    import harness
    import tracer as tracing
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    problems = []
    for name, (generate, _, _) in workloads.WORKLOADS.items():
        inputs, _ = generate(seed=0, smallest=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes = harness.run_passes(name, inputs, 0.0, tracer)
        finally:
            tracer.uninstall()
        summary = harness.summarize(passes)
        records = [r for p in passes for r in p.records]
        for r in records:
            if not r.ok:
                problems.append(f"{name}: {r.label}: {r.error}")
        if not summary["same_values"]:
            problems.append(f"{name}: traced and untraced passes returned different values")
        missing = [m for m in per_layer if m not in summary["layers"]]
        if missing:
            problems.append(f"{name}: per-layer metrics missing: {missing}")
        print(f"{name}: {len(records)} ops over {len(passes)} passes, "
              f"{sum(not r.ok for r in records)} failed")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
