"""The public names of the package, and the names the benchmark harness reaches."""

import sys
from pathlib import Path

import numpy as np
import pytest

import darkstate_sim
from conftest import INVERSION_REGIMES

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


# The scalar/array contract: a scalar t runs the closed forms on Python floats
# and an array on arrays, the same operations in the same order, so a scalar
# call returns a Python float (a (3,) array for the state) whose bits, sign of
# zero included, are those of the matching element of an array call.  The
# last four times are the other scalar types a time may come as.
CONTRACT_TIMES = (0.0, -0.0, 1e-300, 1.0, "horizon", 2, np.float32(0.5), np.float64(0.25), np.array(1.5))
CONTRACT_ETA = 0.8


def _budget(params, t):
    triple = darkstate_sim.emission_probabilities(params, t)
    return triple.t, triple.p0, triple.p_cav, triple.p_spon


def _state(params, t):
    return (darkstate_sim.conditional_state(params, t),)


def _mixture(params, t):
    mixture = darkstate_sim.mixture_at(params, t, eta=CONTRACT_ETA)
    return mixture.t, mixture.lam


def _asymptotic(params, t):
    mixture = darkstate_sim.mixture_asymptotic(params, t, eta=CONTRACT_ETA)
    return mixture.t, mixture.lam


def _entropy(params, t):
    mixture = darkstate_sim.mixture_at(params, t, eta=CONTRACT_ETA)
    return (darkstate_sim.relative_entropy_of_entanglement(mixture),)


def _repump(params, t):
    result = darkstate_sim.repump_round(darkstate_sim.mixture_at(params, t, eta=CONTRACT_ETA), 0.9)
    return result.mixture.t, result.mixture.lam, result.click_probability


@pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
@pytest.mark.parametrize("closed_form", [_budget, _state, _mixture, _asymptotic, _entropy, _repump])
def test_scalar_call_is_the_array_element_bit_for_bit(closed_form, name):
    params = INVERSION_REGIMES[name]
    horizon = darkstate_sim.default_horizon(params)
    times = [horizon if isinstance(t, str) else t for t in CONTRACT_TIMES]
    arrays = closed_form(params, np.array(times))
    for i, t in enumerate(times):
        for scalar, array in zip(closed_form(params, t), arrays):
            element = array[i]
            if isinstance(scalar, np.ndarray):
                assert scalar.shape == element.shape == (3,)
            else:
                assert type(scalar) is float, (t, type(scalar))
            assert np.asarray(scalar).tobytes() == np.asarray(element).tobytes(), (t, scalar, element)
