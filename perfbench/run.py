"""torsionlab benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload lens-ladder --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output holds every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric, read from traced passes that alternate with untraced ones.  The line
before it is a report with the run's metadata, the input digest and every
failed op.  ``attempted`` and ``failed`` count each distinct op once, however
many passes ran it.  The library is imported from ``src/`` of the working directory
and nowhere else; without it the run exits with code 2.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6  # extra set-ups in child processes; setup_s is the median of 1 + these


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up, print it and exit (used for setup_s)")
    return ap.parse_args(argv)


def import_library():
    """Import torsionlab from ./src only; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "torsionlab", "__init__.py")):
        sys.stderr.write(f"no torsionlab sources under {SRC}; run from the repository root\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import torsionlab

    if not os.path.abspath(torsionlab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"torsionlab was imported from {torsionlab.__file__}, not {SRC}\n")
        sys.exit(2)


def setup(workload, seed, tracer=None):
    """Import, input generation and one materialization.

    Returns (inputs, digest, seconds, calibration factor for those seconds).
    """
    with calibrate.Sampler() as sampler:
        sampler.note()
        t0 = time.perf_counter()
        import_library()
        import workloads

        if workload not in workloads.WORKLOADS:
            sys.stderr.write(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}\n")
            sys.exit(2)
        generate, materialize, _ = workloads.WORKLOADS[workload]
        if tracer is not None:
            tracer.install()
            tracer.active = True
        inputs, digest = generate(seed)
        if tracer is not None:
            tracer.active = False
        materialize(inputs)
        t1 = time.perf_counter()
        sampler.note()
        return inputs, digest, t1 - t0, sampler.scale(t0, t1)


def setup_probes(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        seconds, scale = done.stdout.split()[-2:]
        out.append((float(seconds), float(scale)))
    return out


def metadata(args, digest):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    lines = 0
    for base, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        parts = top.stdout.split()
        if top.returncode == 0 and len(parts) == 2 and os.path.samefile(parts[0], ROOT):
            commit = parts[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": {v: os.environ.get(v) for v in BLAS_ENV}},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": lines,
    }


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        _, _, seconds, scale = setup(args.workload, args.seed)
        print(seconds, scale)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    inputs, digest, own_setup, setup_scale = setup(args.workload, args.seed, tracer)
    import harness
    import workloads

    setup_spans, _ = tracer.take() if tracer else ([], {})
    setup_samples = [(own_setup, setup_scale)] + ([] if args.trace else setup_probes(args))

    try:
        passes = harness.run_passes(args.workload, inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # Every pass issues the same ops on the same inputs, so each op counts
    # once: attempted and failed then depend on the seed alone, not on how
    # many passes fit in the run.  An op must fail in every pass or in none.
    ops = {}
    for r in (r for p in passes for r in p.records):
        if r.label not in ops or not r.ok:
            ops[r.label] = r
    failed = [r for r in ops.values() if not r.ok]
    same_outcomes = len({frozenset(r.label for r in p.records if not r.ok) for p in passes}) == 1
    unexpected = [r for r in failed if workloads.known_defect(r.label) is None]
    summary = harness.summarize(passes, setup_spans, setup_scale)
    if args.trace:
        wanted, values = spec["per_layer"], summary["layers"]
    else:
        values = dict(summary["e2e"])
        values["setup_s"] = statistics.median(t * k for t, k in setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]

    report = metadata(args, digest)
    report.update({
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "ops_per_pass": summary["ops_per_pass"],
        "op_tail_percentile": harness.tail_rank(summary["ops_per_pass"]),
        "setup_samples": [{"seconds": t, "scale": k} for t, k in setup_samples],
        "median_op_scale": summary["median_scale"],
        "op_latency_ms": summary["op_latency_ms"],
        "uncalibrated": summary["e2e_uncalibrated"],
        "traced_equals_untraced": summary["same_values"],
        "same_failures_every_pass": same_outcomes,
        "known_defects": {
            r.label: f"{r.error} [{workloads.known_defect(r.label)}]"
            for r in failed if workloads.known_defect(r.label)
        },
        "unexpected_failures": {r.label: r.error for r in unexpected},
        "left_out_for_length": workloads.LEFT_OUT,
    })
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not unexpected and summary["same_values"] and same_outcomes,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
