"""The public names of the package, and the names the benchmark harness reaches."""

import sys
from pathlib import Path

import darkstate_sim

PUBLIC_NAMES = {
    # errors
    "SimulationError",
    "DegenerateCouplingError",
    "NegativeTimeError",
    "ProbabilityRangeError",
    "ZeroProbabilityConditionError",
    # result types
    "ProbabilityTriple",
    "EnsembleEstimate",
    "ConditionedMixture",
    "RepumpResult",
    # model and propagator
    "Parameters",
    "Propagator",
    "ConditionalGenerator",
    "conditional_generator",
    # the emission budget and the conditional state
    "emission_probabilities",
    "cavity_emission_saturation",
    "conditional_state",
    # Monte Carlo
    "default_horizon",
    "simulate_trajectories",
    "run_ensemble",
    # entanglement
    "mixture_at",
    "mixture_asymptotic",
    "relative_entropy_of_entanglement",
    "repump_round",
}

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_public_names():
    names = darkstate_sim.__all__
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC_NAMES | {"__version__"}
    assert len(PUBLIC_NAMES) == 23
    for name in names:
        assert getattr(darkstate_sim, name) is not None, name


def test_bench_harness_runs_round_zero_traced(tmp_path, monkeypatch):
    # The harness wraps package names while tracing; a deletion it relies on
    # would fail here rather than only in a benchmark run.
    monkeypatch.syspath_prepend(str(BENCH))
    for module in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    import tracing
    import workloads

    made = [workloads.make(name, 1, tmp_path / "cli") for name in
            ("mc_ensemble", "closed_form_regimes", "cli_tables")]
    matrix = darkstate_sim.Propagator.__dict__["matrix"]
    tracer = tracing.Tracer()
    with tracer:
        for workload in made:
            ops = workload.round(0)
            assert ops
            for op in ops:
                output = tracer.operation(f"{workload.name}:{op.kind}", op.fn, count=op.work)
                workload.observe(0, op, output)
    assert darkstate_sim.Propagator.__dict__["matrix"] is matrix  # the wrappers are gone
    names = {span.name for span in tracer.spans}
    for layer in ("montecarlo.run_ensemble", "montecarlo.simulate_trajectories",
                  "propagator.conditional_state", "propagator.emission_probabilities",
                  "propagator.matrix", "propagator.build", "model.conditional_generator",
                  "entanglement.mixture_at", "entanglement.mixture_asymptotic", "cli.main"):
        assert layer in names, layer
