"""Acceptance suite: end-to-end checks of the advertised guarantees.

Each test validates one numbered criterion and, on success, records a
one-line summary that the test harness prints after the run (see
``pytest_terminal_summary`` in conftest).  A failing criterion shows up as
the corresponding FAILED line in the pytest report.
"""

import math
import time

import numpy as np

from conftest import random_parameters
from oracles import central_difference, expm_taylor
from darkstate_sim import propagator
from darkstate_sim import (
    ConditionedMixture,
    Parameters,
    cavity_emission_saturation,
    conditional_generator,
    conditional_state,
    default_horizon,
    emission_probabilities,
    mixture_asymptotic,
    mixture_at,
    relative_entropy_of_entanglement,
    repump_round,
    run_ensemble,
    simulate_trajectories,
)

ACCEPTANCE_LINES = {}


def _record(number: int, detail: str) -> None:
    ACCEPTANCE_LINES[number] = f"ACCEPTANCE {number}: PASS - {detail}"


def _fig_params() -> Parameters:
    return Parameters(g_a=1.0, g_b=1.0, kappa=1.0, gamma=1e-3)


def test_criterion_01_conditional_state_matches_exponential_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    basis_state = np.array([0.0, 1.0, 0.0])
    for _ in range(50):
        params = random_parameters(rng)
        times = rng.uniform(0.0, 10.0, 200)
        closed = conditional_state(params, times)
        matrix = conditional_generator(params).matrix
        for k in range(200):
            oracle = (expm_taylor(-matrix * times[k]) @ basis_state).real
            worst = max(worst, float(np.max(np.abs(closed[k] - oracle))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    _record(
        1,
        f"closed-form state vs series expm oracle, 50 sets x 200 times: "
        f"max |diff| = {worst:.2e} (< 1e-9) in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_probability_budget_sums_to_one():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    times = np.linspace(0.0, 20.0, 1000)
    worst = 0.0
    for j in range(20):
        g_a = float(rng.uniform(0.1, 2.0))
        g_b = float(rng.uniform(0.1, 2.0))
        if j < 5:
            kappa = 10.0 * (g_a + g_b)  # strongly overdamped
        else:
            kappa = float(rng.uniform(0.2, 5.0))
        gamma = 0.0 if j % 4 == 0 else float(rng.uniform(0.0, 0.5))
        params = Parameters(g_a=g_a, g_b=g_b, kappa=kappa, gamma=gamma)
        triple = emission_probabilities(params, times)
        total = triple.p0 + triple.p_cav + triple.p_spon
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    _record(
        2,
        f"P0+Pcav+Pspon over 20 sets x 1000 times: max |sum-1| = {worst:.2e} "
        f"(< 1e-10) in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_03_emission_density_is_survival_slope():
    # The rate w1 that the Monte Carlo root finder reads from its kernel.
    params = _fig_params()
    kernel = propagator._survival_kernel(params)

    def survival(t):
        return emission_probabilities(params, t).p0

    worst = 0.0
    for t in np.linspace(0.01, 15.0, 120):
        density = float(kernel(np.array([t]))[1][0])
        slope = -central_difference(survival, float(t), 1.5e-4)
        worst = max(worst, abs(density - slope) / abs(density))
    assert worst < 1e-5
    _record(
        3,
        f"waiting density vs -dP0/dt on [0.01, 15]: max rel diff = {worst:.2e} (< 1e-5)",
    )


def test_criterion_04_cavity_saturation_value():
    value = cavity_emission_saturation(_fig_params())
    assert abs(value - 0.499251) < 1e-5
    _record(4, f"cavity budget saturates at {value:.6f} (0.499251 +/- 1e-5)")


def test_criterion_05_conditioned_fidelity_values():
    params = _fig_params()
    perfect = mixture_at(params, 50.0, eta=1.0).lam
    assert abs(perfect - 0.90349) < 1e-4
    onset = mixture_asymptotic(params, 0.0, eta=0.8).lam
    assert abs(onset - 0.83250) < 1e-3
    _record(
        5,
        f"fidelity lam(50, eta=1) = {perfect:.5f} (0.90349 +/- 1e-4); "
        f"post-transient onset lam(eta=0.8) = {onset:.5f} (0.83250 +/- 1e-3)",
    )


def test_criterion_06_entanglement_entropy_values():
    assert relative_entropy_of_entanglement(ConditionedMixture(1.0, 0.0)) == 1.0
    assert relative_entropy_of_entanglement(ConditionedMixture(0.0, 0.0)) == 0.0
    midpoint = relative_entropy_of_entanglement(ConditionedMixture(0.5, 0.0))
    assert abs(midpoint - 0.122556) < 1e-6
    _record(
        6,
        f"E(1) = 1 and E(0) = 0 exactly; E(0.5) = {midpoint:.6f} (0.122556 +/- 1e-6)",
    )


def test_criterion_07_monte_carlo_reproduces_budget():
    params = _fig_params()
    grid = np.array([1.0, 5.0, 50.0])
    start = time.perf_counter()
    serial = run_ensemble(params, 100_000, grid, seed=42, workers=1)
    threaded = run_ensemble(params, 100_000, grid, seed=42, workers=8)
    elapsed = time.perf_counter() - start
    assert np.array_equal(serial.p0_hat, threaded.p0_hat)
    assert np.array_equal(serial.p_cav_hat, threaded.p_cav_hat)
    assert np.array_equal(serial.p_spon_hat, threaded.p_spon_hat)
    exact = emission_probabilities(params, grid)
    worst_z = 0.0
    for hat, err, ref in [
        (serial.p0_hat, serial.p0_stderr, exact.p0),
        (serial.p_cav_hat, serial.p_cav_stderr, exact.p_cav),
        (serial.p_spon_hat, serial.p_spon_stderr, exact.p_spon),
    ]:
        z = np.abs(hat - ref) / err
        worst_z = max(worst_z, float(np.max(z)))
    assert worst_z < 3.0
    assert elapsed < 30.0
    _record(
        7,
        f"100k trajectories at t in (1, 5, 50): max |z| = {worst_z:.2f} (< 3); "
        f"1-worker and 8-worker runs bit-identical; {elapsed:.1f}s (< 30s)",
    )


def test_criterion_08_dark_state_eigenrelation():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        params = random_parameters(rng)
        gen = conditional_generator(params)
        dark = gen.dark_state
        residual = gen.matrix @ dark - params.gamma * dark
        worst = max(worst, float(np.max(np.abs(residual))))
    assert worst < 1e-12
    reference = conditional_generator(
        Parameters(g_a=1.3, g_b=0.4, kappa=1.0)
    ).dark_state
    for kappa in (0.2, 5.0):
        for gamma in (0.0, 0.3):
            other = conditional_generator(
                Parameters(g_a=1.3, g_b=0.4, kappa=kappa, gamma=gamma)
            ).dark_state
            assert np.array_equal(other, reference)
    _record(
        8,
        f"dark eigenrelation ||M d - gamma d|| over 100 sets: max = {worst:.2e} "
        f"(< 1e-12); dark state independent of kappa and gamma",
    )


def test_criterion_09_waiting_times_pass_ks_test():
    params = _fig_params()
    times, codes, _ = simulate_trajectories(params, 42, 0, 10_000)
    jump_times = np.sort(times[codes >= 0])
    n = jump_times.size
    p0_end = emission_probabilities(params, default_horizon(params)).p0
    cdf = (1.0 - emission_probabilities(params, jump_times).p0) / (1.0 - p0_end)
    ranks = np.arange(1, n + 1)
    statistic = max(
        float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1) / n))
    )
    critical = 1.6276 / math.sqrt(n)
    assert statistic < critical
    _record(
        9,
        f"KS on {n} sampled waiting times: D = {statistic:.5f} < {critical:.6f} (1% level)",
    )


def test_criterion_10_repump_purifies_in_three_rounds():
    mixture = ConditionedMixture(0.8325, 0.0)
    reached = None
    for round_index in range(1, 4):
        mixture = repump_round(mixture, 0.9).mixture
        if mixture.lam >= 0.999 and reached is None:
            reached = round_index
    assert mixture.lam >= 0.999
    _record(
        10,
        f"repump from lam = 0.8325 at p = 0.9: lam = {mixture.lam:.6f} >= 0.999 "
        f"after {reached} rounds (<= 3)",
    )
