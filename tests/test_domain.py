"""Every rate set ``Parameters`` accepts, at times up to 1e300: a value or a named error.

Rates are drawn log-uniformly over the whole accepted range and times over
[0, 1e300].  Every time-dependent closed form, and the entropy and repump
round of each mixture, must return finite, in-range values, bit for bit
those of its scalar calls, or raise one of the errors that name an input at
fault: a time out of the domain (the bright phase S t/2 overflows before
e^{-a t/2} vanishes), both couplings zero, or a no-click condition of
probability zero.  A small ``run_ensemble`` must give counts that partition
the ensemble and move monotonically, or raise the same out-of-domain error.
Every CLI subcommand, run in process on such rates, must write a CSV of
finite values, none of them -0, or exit 2 with one error line.  pytest turns
every numpy RuntimeWarning into an error, so a product that overflows with a
warning fails here.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from darkstate_sim import cli, propagator
from darkstate_sim import (
    DegenerateCouplingError,
    Parameters,
    Propagator,
    ZeroProbabilityConditionError,
    conditional_state,
    emission_probabilities,
    mixture_asymptotic,
    mixture_at,
    relative_entropy_of_entanglement,
    repump_round,
    run_ensemble,
)

OUT_OF_DOMAIN = r"is out of the domain"
PROBABILITIES = (0.0, 0.5, 1.0)  # the detector efficiencies and repump detections drawn


def _log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda exponent: 10.0**exponent)


def _or_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


COUPLING = _or_zero(_log_uniform(1e-150, 6e153))
KAPPA = _log_uniform(1e-308, 1e308)
GAMMA = _or_zero(_log_uniform(1e-308, 1e308))
TIMES = st.lists(_or_zero(_log_uniform(1e-300, 1e300)), min_size=4, max_size=4).map(sorted)
SWEEP = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _parameters(g_a, g_b, kappa, gamma, eta=1.0) -> Parameters:
    """The rate set, when ``Parameters`` accepts it (the sweep covers only those)."""
    try:
        return Parameters(g_a, g_b, kappa, gamma, eta)
    except ValueError:
        assume(False)


def _outcome(call, t):
    """``call(t)`` as ("value", result) or ("error", exception), for the errors named above."""
    try:
        return "value", call(t)
    except ValueError as error:
        assert error.args[0].startswith("t = ") and OUT_OF_DOMAIN in error.args[0], error
        return "error", error
    except (DegenerateCouplingError, ZeroProbabilityConditionError) as error:
        return "error", error


def _arrays(name, result):
    """The arrays a closed form returns, each with the time on its first axis, and their range."""
    if name == "emission_probabilities":
        return [(np.asarray(field), 0.0, 1.0) for field in (result.p0, result.p_cav, result.p_spon)]
    if name in ("mixture_at", "mixture_asymptotic"):
        repumped = [repump_round(result, p_detect) for p_detect in PROBABILITIES]
        values = [result.lam, relative_entropy_of_entanglement(result)]
        values += [field for r in repumped for field in (r.mixture.lam, r.click_probability)]
        return [(np.asarray(value), 0.0, 1.0) for value in values]
    return [(np.asarray(result), -math.inf, math.inf)]


def _closed_forms(params):
    return {
        "conditional_state": lambda t: conditional_state(params, t),
        "emission_probabilities": lambda t: emission_probabilities(params, t),
        "mixture_at": lambda t: mixture_at(params, t),
        "mixture_asymptotic": lambda t: mixture_asymptotic(params, t),
        "matrix": lambda t: Propagator.from_parameters(params).matrix(t),
    }


@SWEEP
@given(g_a=COUPLING, g_b=COUPLING, kappa=KAPPA, gamma=GAMMA, eta=st.sampled_from(PROBABILITIES), times=TIMES)
# The bright phase overflows where e^{-a t/2} is 0: the dark part.
@example(g_a=1e100, g_b=1.0, kappa=1.0, gamma=0.0, eta=1.0, times=[0.0, 1.0, 1e209, 1e210])
# e^{-a t/2}, e^{-a t} and e^{-sigma t} overflow their products in an array call.
@example(g_a=1.0, g_b=1.0, kappa=1e150, gamma=0.0, eta=1.0, times=[0.0, 1.0, 5e199, 1e200])
@example(g_a=1.0, g_b=1.0, kappa=1.0, gamma=1e150, eta=1.0, times=[0.0, 5.0, 5e199, 1e200])
# The phase overflows before e^{-a t/2} vanishes: out of the domain from 1e299.
@example(g_a=1e10, g_b=1.0, kappa=1e-300, gamma=0.0, eta=1.0, times=[0.0, 1.0, 1e299, 2e299])
# The two terms of the entropy cancel at lam of about 2e-13; their round-off was -1.6e-16.
@example(g_a=10.0, g_b=0.0, kappa=1.0, gamma=0.0, eta=0.5, times=[0.0, 0.0, 0.0, 31.622776601683793])
def test_closed_forms_value_or_named_error(g_a, g_b, kappa, gamma, eta, times):
    params = _parameters(g_a, g_b, kappa, gamma, eta)
    grid = np.array(times)
    for name, call in _closed_forms(params).items():
        kind, result = _outcome(call, grid)
        scalars = [_outcome(call, t) for t in times]
        if kind == "error":
            # The array names the first time at fault; alone, that time raises the same error.
            assert any(type(error) is type(result) and str(error) == str(result) for k, error in scalars if k == "error")
            continue
        arrays = _arrays(name, result)
        for array, low, high in arrays:
            assert np.isfinite(array).all() and (array >= low).all() and (array <= high).all(), (name, array)
        for i, (scalar_kind, scalar) in enumerate(scalars):
            assert scalar_kind == "value", (name, times[i], scalar)
            for (array, _, _), (value, _, _) in zip(arrays, _arrays(name, scalar)):
                assert array[i].tobytes() == value.tobytes(), (name, times[i])


@settings(max_examples=48, deadline=None, derandomize=True, database=None)
@given(g_a=COUPLING, g_b=COUPLING, kappa=KAPPA, gamma=GAMMA, times=TIMES, seed=st.integers(0, 2**32))
# The start table's kernel call past the phase limit, where e^{-a t/2} is 0.
@example(g_a=1e100, g_b=1.0, kappa=1.0, gamma=0.0, times=[0.0, 1.0, 1e209, 1e210], seed=1)
@example(g_a=1e10, g_b=1.0, kappa=1e-300, gamma=0.0, times=[0.0, 1.0, 1e298, 1e299], seed=1)
# The table's w1' overflows at gamma = 1e154; the default horizon was inf at kappa = 1e-307
# and then the largest double, past which geomspace's last time overflows; a Newton step
# evaluates e^{-sigma t} past the largest double product at t of about 1e300.
@example(g_a=0.0, g_b=1.0, kappa=1.0, gamma=1e154, times=[0.0, 0.0, 0.0, 0.0], seed=0)
@example(g_a=1e-150, g_b=0.0, kappa=1e-307, gamma=0.0, times=[0.0, 0.0, 0.0, 0.0], seed=0)
@example(g_a=1.0, g_b=1.0, kappa=1e10, gamma=1e-300, times=[1e299, 1e300, 3e300, 1e301], seed=0)
def test_ensemble_partitions_or_names_the_horizon(g_a, g_b, kappa, gamma, times, seed):
    params = _parameters(g_a, g_b, kappa, gamma)
    n = 64
    try:
        counts = run_ensemble(params, n, times, seed).counts
    except DegenerateCouplingError:
        assert params.coupling_squared == 0.0
        return
    except ValueError as error:
        # Every t up to the horizon may be evaluated, so the first double past the phase limit is at fault.
        assert str(error).startswith(f"t = {times[-1]!r} is out of the domain")
        limit = propagator._rates(params).phase_limit
        assert times[-1] > limit
        with pytest.raises(ValueError, match=OUT_OF_DOMAIN):
            emission_probabilities(params, math.nextafter(limit, math.inf))
        return
    assert (counts >= 0).all() and (counts.sum(axis=0) == n).all()
    assert (np.diff(counts[0]) <= 0).all() and (np.diff(counts[1:], axis=1) >= 0).all()


@st.composite
def _cli_argv(draw):
    """A command line of any subcommand, with rates drawn as above and a log-uniform --tmax."""
    command = draw(st.sampled_from([name for name, *_ in cli._COMMANDS]))
    probability = st.sampled_from(PROBABILITIES + (-0.0,)).map(repr)
    kappa = draw(KAPPA)
    rates = {"--ga": draw(COUPLING), "--gb": draw(COUPLING), "--kappa": kappa, "--gamma": draw(GAMMA)}
    argv = [command] + [text for flag, rate in rates.items() for text in (flag, repr(rate))]
    if command == "repump":
        argv += ["--eta", draw(probability), "--p-detect", draw(probability), "--rounds", "3"]
        lambda0 = draw(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)))
        return argv + ([] if lambda0 is None else ["--lambda0", repr(lambda0)])
    # fidelity and entropy start their grid at the onset 5/kappa: draw --tmax above it.
    onset = 5.0 / kappa if command in ("fidelity", "entropy") else 1e-300
    low = math.log10(onset) if onset < 1e300 else 300.0
    tmax = draw(st.floats(low, 300.0).map(lambda exponent: 10.0**exponent))
    argv += ["--tmax", repr(tmax), "--steps", "3"]
    if command == "fidelity":
        return argv + ["--eta", *draw(st.lists(probability, min_size=1, max_size=2))]
    if command == "entropy":
        return argv + ["--eta", draw(probability)]
    if command == "trajectories":
        return argv + ["--trajectories", "64", "--eta", draw(probability), "--seed", str(draw(st.integers(0, 2**32)))]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=_cli_argv())
def test_cli_table_or_one_error_line(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return
    assert code == 0, (argv, code, err)
    rows = out.splitlines()
    assert len(rows) == (4 if argv[0] == "repump" else 3) + 1, (argv, out)
    cells = np.array([[float(cell) for cell in row.split(",")] for row in rows[1:]])
    assert np.isfinite(cells).all() and not np.signbit(cells[cells == 0.0]).any(), (argv, out)
    assert err == "" or (argv[0] == "trajectories" and err.startswith("trajectories: ") and err.count("\n") == 1), err
