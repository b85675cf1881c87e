"""Per-layer metrics of the traced run, from spans and a few direct probes."""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np

import darkstate_sim as ds
from tracing import SpanIndex, covered
from workloads import MC_SETS, MC_TRAJECTORIES, derive_seed

KERNEL_POINTS = 16384
SHORT_GRID = 8


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def probes(tracer) -> dict:
    """Direct timings that no workload span isolates, and the fan-out check.

    ``run_ensemble`` is run at 1 and at nproc workers, traced, on every MC
    parameter set: the estimates must agree bit for bit, and the tracer must
    record the same spans from the thread pool as from one thread.
    """
    paper = ds.Parameters(1.0, 1.0, 1.0, 1e-3)
    times = np.linspace(0.0, ds.default_horizon(paper), KERNEL_POINTS)
    kernel = _median_time(lambda: ds.conditional_state(paper, times), 7)
    short = np.linspace(0.0, 15.0, SHORT_GRID)
    emission = _median_time(lambda: ds.emission_probabilities(paper, short), 200)

    # Two workers at least, so that the thread pool runs even on one core.
    nproc = max(len(os.sched_getaffinity(0)), 2)
    n = nproc * MC_TRAJECTORIES
    serial = parallel = 0.0
    identical = counts_equal = True
    for k, (kind, rates, grid) in enumerate(MC_SETS):
        params = ds.Parameters(*rates)
        seed = derive_seed(0, 6, k)
        results = {}
        for workers in (1, nproc):
            before = len(tracer.spans)
            t0 = time.perf_counter()
            est = tracer.operation(f"fanout:{kind}:{workers}",
                                   lambda w=workers: ds.run_ensemble(params, n, np.array(grid), seed, workers=w))
            elapsed = time.perf_counter() - t0
            results[workers] = (est, len(tracer.spans) - before)
            if workers == 1:
                serial += elapsed
            else:
                parallel += elapsed
        (one, spans_one), (many, spans_many) = results[1], results[nproc]
        for field in ("p0_hat", "p_cav_hat", "p_spon_hat", "p0_stderr", "p_cav_stderr", "p_spon_stderr"):
            identical &= np.array_equal(getattr(one, field), getattr(many, field))
        counts_equal &= spans_one == spans_many
    return {
        "kernel_points_per_s": KERNEL_POINTS / kernel,
        "emission_call_us": emission * 1e6,
        "fanout_efficiency": serial / (nproc * parallel),
        "identical": identical,
        "span_counts_equal": counts_equal,
        "nproc": nproc,
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def metrics(index: SpanIndex, verdicts: dict, probe: dict, overhead: float) -> dict:
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    # montecarlo, from the mc_ensemble operations.
    mc = "mc_ensemble"
    sims = index.select("montecarlo.simulate_trajectories", mc)
    kernels = [c for s in sims for c in index.kids(s) if c.name == "propagator.conditional_state"]
    put("montecarlo.kernel_calls_per_chunk", len(kernels) / len(sims), "count")
    put("montecarlo.kernel_points_per_trajectory", sum(k.count for k in kernels) / sum(s.count for s in sims), "count")
    put("montecarlo.kernel_share", sum(k.duration for k in kernels) / sum(s.duration for s in sims), "share")
    put("montecarlo.chunk_ms", _mean(s.duration for s in sims) * 1e3, "ms")
    put("montecarlo.invert_self_ms", _mean(index.self_time(s) for s in sims) * 1e3, "ms")
    put("montecarlo.tally_self_ms",
        _mean(index.self_time(s) for s in index.select("montecarlo.run_ensemble", mc)) * 1e3, "ms")
    put("montecarlo.fanout_efficiency", probe["fanout_efficiency"], "share")
    for kind in ("paper", "overdamped", "gamma0"):
        put(f"montecarlo.inversion_digits.{kind}", verdicts[mc].layer_digits[kind], "digits")

    # propagator and model, from the closed_form_regimes operations.
    cf = "closed_form_regimes"
    put("propagator.kernel_points_per_s", probe["kernel_points_per_s"], "1/s")
    put("propagator.emission_call_us", probe["emission_call_us"], "us")
    for method in ("spectral", "series"):
        spans = [s for s in index.select("propagator.matrix", cf) if s.tag == method]
        put(f"propagator.matrix_us_per_point.{method}",
            sum(s.duration for s in spans) / sum(s.count for s in spans) * 1e6, "us")
    put("propagator.build_us", _mean(s.duration for s in index.select("propagator.build", cf)) * 1e6, "us")
    cf_ops = [s for s in index.spans if s.parent is None and s.name.startswith(cf + ":")]
    layer = [s for s in index.spans if s.name.startswith("propagator.") and index.root(s).name.startswith(cf + ":")]
    put("propagator.self_ms", sum(index.self_time(s) for s in layer) / len(cf_ops) * 1e3, "ms")
    for kind in ("paper", "overdamped", "bad_cavity", "critical", "gamma0", "one_coupling"):
        put(f"propagator.digits.{kind}", verdicts[cf].layer_digits[kind], "digits")
    put("model.generator_us", _mean(s.duration for s in index.select("model.conditional_generator", cf)) * 1e6, "us")

    # entanglement, from the cli_tables and closed_form_regimes operations.
    cl = "cli_tables"
    put("entanglement.mixture_asymptotic_us",
        _mean(s.duration for s in index.select("entanglement.mixture_asymptotic", cl)) * 1e6, "us")
    put("entanglement.entropy_us", _mean(s.duration for s in index.select("entanglement.entropy", cl)) * 1e6, "us")
    put("entanglement.mixture_at_us", _mean(s.duration for s in index.select("entanglement.mixture_at", cf)) * 1e6, "us")
    mains = index.select("cli.main", cl)
    per_table = [sum(1 for c in index.kids(m) if c.name.startswith("entanglement.")) for m in mains]
    tables = [n for n in per_table if n]
    put("entanglement.calls_per_table", sum(tables) / len(tables), "count")

    # cli: parsing, lower layers, and what is left (formatting and writing).
    rows = sum(index.root(m).count for m in mains)
    parse = sum(c.duration for m in mains for c in index.kids(m) if c.name == "cli.parse")
    lower = sum(covered([(c.start, c.end) for c in index.kids(m) if c.name != "cli.parse"]) for m in mains)
    total = sum(m.duration for m in mains)
    put("cli.parse_us", parse / len(mains) * 1e6, "us")
    put("cli.format_write_us_per_row", sum(index.self_time(m) for m in mains) / rows * 1e6, "us")
    put("cli.compute_share", lower / total, "share")

    put("trace.overhead_share", overhead, "share")
    return out


def write_spans(spans, path) -> None:
    """Write the recorded spans as JSON: field names, then one row per span."""
    fields = ("id", "parent", "op", "name", "start", "end", "count", "tag")
    rows = [[s.ident, s.parent, s.op, s.name, s.start, s.end, s.count, s.tag] for s in spans]
    with open(path, "w") as handle:
        json.dump({"fields": fields, "spans": rows}, handle, separators=(",", ":"))
