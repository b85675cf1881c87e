import numpy as np
import pytest

from darkstate_sim import Parameters


# Regimes for the root finder: the paper set, an overdamped cavity, the exact
# critical point S = 0, a bad cavity and a far worse one, one coupling off,
# lossless atoms, and kappa << Omega, where P0 is a staircase of ~43 000 steps
# before the horizon, finer than the start table.
INVERSION_REGIMES = {
    "paper": Parameters(1.0, 1.0, 1.0, 1e-3),
    "overdamped": Parameters(1.0, 1.0, 20.0, 1e-3),
    "critical": Parameters(3.0, 4.0, 10.0 + 2.0**-10, 2.0**-10),
    "bad_cavity": Parameters(1.0, 1.0, 1e4, 1e-3),
    "kappa_1e6": Parameters(1.0, 1.0, 1e6, 1e-3),
    "gb_zero": Parameters(1.0, 0.0, 1.0, 1e-3),
    "gamma_zero": Parameters(1.0, 0.6, 1.0, 0.0),
    "staircase": Parameters(37.1, 63.0, 0.0267, 0.0),
}


@pytest.fixture
def fig_params() -> Parameters:
    """Working point used for the reference tables: g_a=g_b=kappa=1, gamma=1e-3."""
    return Parameters(g_a=1.0, g_b=1.0, kappa=1.0, gamma=1e-3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_parameters(
    rng: np.random.Generator,
    *,
    allow_overdamped: bool = True,
    allow_zero_gamma: bool = True,
) -> Parameters:
    """Random physical rates covering oscillatory and overdamped regimes."""
    g_a = float(rng.uniform(0.05, 3.0))
    g_b = float(rng.uniform(0.05, 3.0))
    kappa = float(rng.uniform(0.1, 10.0 if allow_overdamped else 2.0))
    if allow_zero_gamma and rng.random() < 0.25:
        gamma = 0.0
    else:
        gamma = float(rng.uniform(0.0, 0.5))
    return Parameters(g_a=g_a, g_b=g_b, kappa=kappa, gamma=gamma)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for number in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[number])
