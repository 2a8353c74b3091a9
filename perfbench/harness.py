"""Runs a workload's passes, times every op, and turns records into metrics."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

import calibrate
import tracer as tracing
import workloads


@dataclass
class OpRecord:
    kind: str
    label: str
    seconds: float | None  # None: not run because an earlier op failed
    ok: bool
    value: str | None
    error: str | None
    triple: str | None
    scale: float = 1.0  # host-speed factor for this op, see calibrate.Sampler.scale


class Runner:
    """Issues ops one after another and checks each against its oracle.

    Only the call itself is timed and traced; the oracle runs afterwards with
    the tracer off.
    """

    def __init__(self, sampler, tracer=None):
        self.sampler = sampler
        self.tracer = tracer
        self.records = []

    def op(self, kind, label, call, check, triple=None, value=None):
        tr = self.tracer
        err = None
        self.sampler.note()
        if tr is not None:
            tr.op_id = len(self.records)
            tr.active = True
        t0 = time.perf_counter()
        try:
            out = call() if tr is None else tr.span(f"op.{kind}", call, (), {})
        except Exception as exc:  # an op that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        seconds = t1 - t0
        if tr is not None:
            tr.active = False
            tr.op_id = None
        self.sampler.note()
        scale = self.sampler.scale(t0, t1)
        ok, shown = False, None
        if err is None:
            try:
                shown = repr(value(out)) if value else None
                ok = bool(check(out))
                if not ok:
                    err = f"oracle missed (value {shown})"
            except Exception as exc:  # an oracle that cannot run is a miss
                err = f"oracle raised {type(exc).__name__}: {exc}"
        self.records.append(OpRecord(kind, label, seconds, ok, shown, err, triple, scale))
        return out if ok else None

    def skip_rest(self, ladder, rungs, failed_round):
        """Count the rungs an aborted ladder could not reach as failed ops."""
        top = max(max(v) for v in rungs.values())
        for r in range(failed_round, top + 1):
            if r > failed_round:
                self._skipped("subdivide", f"{ladder}/subdivide@{r}")
            for kind, rounds in rungs.items():
                if r in rounds:
                    self._skipped(kind, f"{ladder}/{kind}@{r}")

    def _skipped(self, kind, label):
        self.records.append(
            OpRecord(kind, label, None, False, None, "not run: subdivision failed", None)
        )


@dataclass
class Pass:
    traced: bool
    records: list
    clock_s: float  # wall clock of the whole pass, checks included
    spans: list
    counters: dict


def run_passes(workload, inputs, seconds, tracer=None):
    """Closed loop: whole passes until the next one would overrun ``seconds``.

    Every pass gets freshly built objects.  With a tracer, passes alternate
    untraced / traced, starting untraced, and at least one of each runs.
    """
    _, materialize, run_pass = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    passes = []
    with calibrate.Sampler() as sampler:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            objects = materialize(inputs)
            runner = Runner(sampler, tracer if traced else None)
            t0 = time.perf_counter()
            run_pass(objects, runner)
            clock = time.perf_counter() - t0
            spans, counters = tracer.take() if traced else ([], {})
            passes.append(Pass(traced, runner.records, clock, spans, counters))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.clock_s for p in passes)
            want_more = tracer is not None and len(passes) < 2
            if not want_more and elapsed + typical > seconds:
                return passes


# ---------------------------------------------------------------------------
# metrics


def tail_rank(n):
    """Percentile with at least 10 of a pass's n ops beyond it (None if n <= 10)."""
    return 100.0 * (n - 10) / n if n > 10 else None


def op_samples(passes, calibrated=True):
    """Latency samples of each op over the given passes, keyed by op label.

    Each sample is scaled by its op's host-speed factor, which removes most
    of the host's drift between speed regimes; medians across passes spread
    over the run remove what is left of short bursts.
    """
    samples = {}
    for p in passes:
        for r in p.records:
            if r.seconds is not None:
                t = r.seconds * (r.scale if calibrated else 1.0)
                samples.setdefault(r.label, (r.kind, []))[1].append(t)
    return samples


def hd_quantile(values, q, points_per_sample=32):
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A mean of all order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    mass over each one's rank interval.  Op latencies cluster by op, with
    wide gaps between clusters, and a plain order statistic jumps across a
    gap when one op's latency moves a little; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, points_per_sample * n + 1)
    inner = t[1:-1]
    logpdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(logpdf - logpdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    weights = np.diff(cdf[::points_per_sample])
    return float(weights @ x / weights.sum())


def latency_metrics(passes, calibrated=True):
    """Sums and quantiles of per-op medians over the passes.

    The quantiles are Harrell-Davis estimates over the per-op medians (a
    single pass's burst then moves them no more than it moves the sums); the
    tail is the quantile with 10 of a pass's ops beyond it, or, with 10 ops
    or fewer per pass, the slowest op's median.
    """
    samples = op_samples(passes, calibrated)
    medians = {label: (kind, statistics.median(v)) for label, (kind, v) in samples.items()}
    by_kind = {}
    for kind, t in medians.values():
        by_kind[kind] = by_kind.get(kind, 0.0) + t
    per_op = [t for _, t in medians.values()]
    pct = tail_rank(len(per_op))
    tail = hd_quantile(per_op, pct / 100.0) if pct else max(per_op)
    return {
        "wall_s": sum(t for _, t in medians.values()),
        "ft_s": by_kind.get("ft", 0.0),
        "exact_s": by_kind.get("exact", 0.0),
        "homology_s": by_kind.get("homology", 0.0),
        "subdivide_s": by_kind.get("subdivide", 0.0),
        "euler_s": by_kind.get("euler", 0.0),
        "op_p50_ms": 1e3 * hd_quantile(per_op, 0.5),
        "op_tail_ms": 1e3 * tail,
    }


def median_of(dicts):
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def summarize(passes, setup_spans=(), setup_scale=1.0):
    """End-to-end metrics from the untraced passes, per-layer ones from the traced.

    The untraced medians feed both: ``trace.overhead_frac`` compares traced
    with untraced ``wall_s``, and the op kinds that only one workload runs
    (homology, subdivide, euler) are reported next to the layers.
    """
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    e2e = latency_metrics(plain)
    first = [r.value for r in plain[0].records]
    out = {
        "e2e": e2e,
        "e2e_uncalibrated": latency_metrics(plain, calibrated=False),
        "median_scale": statistics.median(r.scale for p in passes for r in p.records),
        "op_latency_ms": {
            k: 1e3 * statistics.median(v) for k, (_, v) in op_samples(plain).items()
        },
        "same_values": all([r.value for r in p.records] == first for p in passes),
        "ops_per_pass": len(op_samples(plain[:1])),
    }
    if traced:
        layers = median_of([layer_metrics(p) for p in traced])
        _, setup_own = tracing.self_times(list(setup_spans))
        layers["corpus.random_flat_bundle.self_s"] += (
            setup_own.get("corpus.random_flat_bundle", 0.0) * setup_scale
        )
        layers["trace.overhead_frac"] = latency_metrics(traced)["wall_s"] / e2e["wall_s"] - 1.0
        for kind in ("homology", "subdivide", "euler"):
            layers[f"op.{kind}_s"] = e2e[f"{kind}_s"]
        out["layers"] = layers
    return out


# layers reported by call count, and by self time
CALLS = ("linalg_exact.matmul", "flat_bundle.transport", "linalg_exact.inverse",
         "linalg_exact.smith_normal_form", "torsion_engine.eigh",
         "complex_core.require_valid", "euler_struct.validate_spray",
         "flat_bundle.check_flatness")
SELF = ("linalg_exact.matmul", "flat_bundle.transport", "torsion_engine.assemble",
        "linalg_exact.inverse", "linalg_exact.det_prime_psd",
        "torsion_engine.t_comb_squared_exact", "linalg_exact.smith_normal_form",
        "complex_core.integral_homology", "complex_core.h1_lattice", "torsion_engine.eigh",
        "torsion_engine.laplacians", "torsion_engine.harmonic_data", "linalg_exact.vol_float",
        "flat_bundle.check_flatness", "linalg_exact.product_is_zero", "euler_struct.act",
        "barycentric.barycentric_subdivide", "barycentric.transport_reference",
        "analytic_model.zeta_det_laplacian", "analytic_model.analytic_torsion_circle",
        "corpus.random_flat_bundle")


def layer_metrics(p):
    calls, own = tracing.self_times(p.spans, [r.scale for r in p.records])
    counters = p.counters
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF:
        out[f"{name}.self_s"] = own.get(name, 0.0)
    triples = len({r.triple for r in p.records if r.triple is not None}) or 1
    out["linalg_exact.max_entry_bits"] = counters.get("linalg_exact.max_entry_bits", 0)
    out["torsion_engine.assemble.per_triple"] = calls.get("torsion_engine.assemble", 0) / triples
    out["flat_bundle.check_flatness.per_triple"] = (
        calls.get("flat_bundle.check_flatness", 0) / triples
    )
    degrees = counters.get("ft_degrees", 0)
    out["torsion_engine.eigh.per_degree"] = (
        calls.get("torsion_engine.eigh", 0) / degrees if degrees else 0.0
    )
    return out
