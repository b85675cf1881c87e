import decimal
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darkstate_sim
from darkstate_sim import propagator
from conftest import INVERSION_REGIMES, random_parameters
from oracles import adaptive_simpson, central_difference, expm_decimal, expm_taylor
from darkstate_sim import (
    DegenerateCouplingError,
    NegativeTimeError,
    Parameters,
    Propagator,
    cavity_emission_saturation,
    conditional_generator,
    conditional_state,
    default_horizon,
    emission_probabilities,
    mixture_asymptotic,
    mixture_at,
    ProbabilityRangeError,
    run_ensemble,
)

# Frozen reference values for the working point g_a = g_b = kappa = 1,
# gamma = 1e-3, verified against independent quadrature/exponential oracles.
P0_AT_50 = 0.4524187090179798
P0_AT_10 = 0.4901324825542902
PCAV_SATURATION = 0.4992508740634678
PSPON_AT_50 = 0.04833041691855233


class TestPropagatorMatrix:
    def test_identity_at_time_zero(self, fig_params):
        prop = Propagator.from_parameters(fig_params)
        assert np.max(np.abs(prop.matrix(0.0) - np.eye(3))) < 1e-13

    def test_matches_series_oracle(self, rng):
        for _ in range(10):
            p = random_parameters(rng)
            prop = Propagator.from_parameters(p)
            for t in (0.1, 0.9, 3.7):
                oracle = expm_taylor(-conditional_generator(p).matrix * t).real
                assert np.max(np.abs(prop.matrix(t) - oracle)) < 1e-11

    def test_defective_generator_uses_series(self):
        # S = 0 exactly: the critical branch, labelled "series".
        p = Parameters(g_a=1.5, g_b=2.0, kappa=5.0)
        prop = Propagator.from_parameters(p)
        assert prop.method == "series"
        for t in (0.2, 1.0, 4.0):
            oracle = expm_taylor(-conditional_generator(p).matrix * t).real
            assert np.max(np.abs(prop.matrix(t) - oracle)) < 1e-11

    def test_semigroup_property(self, fig_params):
        prop = Propagator.from_parameters(fig_params)
        u_t = prop.matrix(0.7)
        u_s = prop.matrix(2.3)
        assert np.max(np.abs(prop.matrix(3.0) - u_t @ u_s)) < 1e-12

    def test_matrix_shape_follows_times(self, fig_params):
        prop = Propagator.from_parameters(fig_params)
        assert prop.matrix(1.0).shape == (3, 3)
        assert prop.matrix(np.linspace(0, 1, 7)).shape == (7, 3, 3)

    def test_negative_time_rejected(self, fig_params):
        prop = Propagator.from_parameters(fig_params)
        with pytest.raises(NegativeTimeError):
            prop.matrix(-0.5)
        with pytest.raises(NegativeTimeError):
            conditional_state(fig_params, [0.0, -1.0])

    @pytest.mark.parametrize(
        "entry",
        [
            lambda p, t: conditional_state(p, t),
            lambda p, t: Propagator.from_parameters(p).matrix(t),
            lambda p, t: emission_probabilities(p, t),
            lambda p, t: mixture_asymptotic(p, t),
        ],
        ids=["conditional_state", "matrix", "emission_probabilities", "mixture_asymptotic"],
    )
    @pytest.mark.parametrize("t", [float("nan"), [1.0, float("nan")]], ids=["scalar", "array"])
    def test_nan_time_rejected(self, fig_params, entry, t):
        # NaN is not a time: unchecked, it gave NaN arrays, or a misleading
        # range error from the budget.
        with pytest.raises(NegativeTimeError):
            entry(fig_params, t)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda p, t: conditional_state(p, t),
            lambda p, t: Propagator.from_parameters(p).matrix(t),
            lambda p, t: emission_probabilities(p, t),
            lambda p, t: mixture_at(p, t, eta=0.5),
            lambda p, t: mixture_asymptotic(p, t),
        ],
        ids=["conditional_state", "matrix", "emission_probabilities", "mixture_at",
             "mixture_asymptotic"],
    )
    @pytest.mark.parametrize("t", [math.inf, [1.0, math.inf]], ids=["scalar", "array"])
    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_infinite_time_rejected(self, entry, t, gamma):
        # Unchecked, inf gave NaN arrays with a RuntimeWarning (an error
        # under this suite's warning filter), or "P0 out of range by nan".
        with pytest.raises(ValueError, match="finite t"):
            entry(Parameters(g_a=1.0, g_b=1.0, kappa=1.0, gamma=gamma), t)

    def test_scipy_cross_check(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for _ in range(5):
            p = random_parameters(rng)
            prop = Propagator.from_parameters(p)
            m = conditional_generator(p).matrix
            for t in (0.3, 2.1):
                assert np.max(np.abs(prop.matrix(t) - scipy_linalg.expm(-m * t))) < 1e-10


class TestConditionalState:
    def test_starts_at_initial_state(self, fig_params):
        assert np.allclose(conditional_state(fig_params, 0.0), [0.0, 1.0, 0.0], atol=1e-14)

    def test_closed_form_matches_propagator(self, rng):
        for _ in range(8):
            p = random_parameters(rng)
            prop = Propagator.from_parameters(p)
            ts = np.linspace(0.0, 12.0, 200)
            closed = conditional_state(p, ts)
            propagated = prop.matrix(ts) @ np.array([0.0, 1.0, 0.0])
            assert np.max(np.abs(closed - propagated.real)) < 1e-11

    def test_dark_component_survives(self):
        # Lossless atoms: the state converges to the dark direction
        # (0, 1/2, -1/2) for equal couplings.
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0)
        amps = conditional_state(p, 60.0)
        assert np.allclose(amps, [0.0, 0.5, -0.5], atol=1e-10)

    def test_overdamped_no_overflow(self):
        p = Parameters(g_a=1.0, g_b=1.0, kappa=50.0, gamma=0.01)
        amps = conditional_state(p, np.array([0.0, 10.0, 500.0, 5000.0]))
        assert np.all(np.isfinite(amps))
        assert np.all(np.sum(amps**2, axis=-1) <= 1.0 + 1e-12)

    def test_small_phase_branch_matches_oracle(self):
        # Tiny times for generic rates, and every time for the defective
        # spectrum (S = 0), where sin(St/2)/S must tend to t/2 under the
        # decay envelope.
        basis_state = np.array([0.0, 1.0, 0.0])
        for p in (
            Parameters(1.0, 1.0, 1.0, 1e-3),
            Parameters(1.5, 2.0, 5.0),  # S = 0 exactly
            Parameters(1.0, 1.0, 10.0, 0.2),
        ):
            m = conditional_generator(p).matrix
            for t in (1e-7, 5e-5, 0.5, 3.0):
                oracle = (expm_taylor(-m * t) @ basis_state).real
                assert np.max(np.abs(conditional_state(p, t) - oracle)) < 1e-12


def _p0(params, t):
    return emission_probabilities(params, t).p0


def _p_cav(params, t):
    return emission_probabilities(params, t).p_cav


class TestNoEmissionProbability:
    def test_certain_at_time_zero(self, fig_params):
        assert _p0(fig_params, 0.0) == 1.0

    def test_reference_values(self, fig_params):
        assert _p0(fig_params, 10.0) == pytest.approx(P0_AT_10, abs=1e-12)
        assert _p0(fig_params, 50.0) == pytest.approx(P0_AT_50, abs=1e-12)

    def test_asymptotic_form_close_after_transient(self, fig_params):
        # At eta = 0 the post-transient mixture weight is the asymptotic P0.
        asym = mixture_asymptotic(fig_params, 10.0, eta=0.0).lam
        assert asym == pytest.approx(0.4900993366533776, abs=1e-12)
        assert abs(P0_AT_10 - asym) < 1e-4

    def test_monotone_nonincreasing(self, fig_params):
        p0 = _p0(fig_params, np.linspace(0.0, 30.0, 301))
        assert np.all(np.diff(p0) <= 1e-12)

    def test_lossless_atoms_floor_at_dark_weight(self):
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0)
        assert _p0(p, 80.0) == pytest.approx(0.5, abs=1e-12)


class TestFirstEmissionDensity:
    """The (P0, w1) kernel of the Monte Carlo root finder, ``_survival_kernel``."""

    def test_initial_rate_is_spontaneous(self, fig_params):
        # At t = 0 the photon is on atom a: only the 2*gamma channel is open.
        p0, w1, w_cav, w_a = propagator._survival_kernel(fig_params)(np.array([0.0]))
        assert p0[0] == 1.0
        assert w1[0] == pytest.approx(2.0 * fig_params.gamma, abs=1e-15)
        assert w_cav[0] == 0.0
        assert w_a[0] == 2.0 * fig_params.gamma

    def test_equals_negative_survival_slope(self, fig_params):
        kernel = propagator._survival_kernel(fig_params)
        for t in np.linspace(0.01, 15.0, 40):
            density = kernel(np.array([t]))[1]
            slope = -central_difference(lambda x: _p0(fig_params, x), float(t), 1.5e-4)
            assert density[0] == pytest.approx(slope, rel=1e-5)

    def test_array_times(self, fig_params):
        kernel = propagator._survival_kernel(fig_params)
        ts = np.linspace(0.01, 15.0, 40)
        p0, density, *_ = kernel(ts)
        assert p0.shape == density.shape == ts.shape
        singles = [kernel(np.array([t])) for t in ts]
        assert np.array_equal(p0, [one[0][0] for one in singles])
        assert np.array_equal(density, [one[1][0] for one in singles])
        slope = -central_difference(lambda t: _p0(fig_params, t), ts, 1.5e-4)
        np.testing.assert_allclose(density, slope, rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
    def test_kernel_p0_matches_budget(self, name):
        # The root finder inverts the same P0 that the budget reports, on
        # the Monte Carlo's own time range.
        params = INVERSION_REGIMES[name]
        horizon = default_horizon(params)
        ts = np.concatenate(([0.0], np.geomspace(1e-9 * horizon, horizon, 4096)))
        p0 = propagator._survival_kernel(params)(ts)[0]
        budget = _p0(params, ts)
        # Relative digits exist only for normal floats; past them (the
        # bright-only gb_zero state underflows) both must be below the range.
        normal = budget >= np.finfo(float).tiny
        assert np.all(np.abs(p0 - budget)[normal] <= 1e-14 * budget[normal])
        assert np.all(p0[~normal] < np.finfo(float).tiny)

    @pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
    def test_channel_rates_match_amplitudes(self, name):
        # The cavity and atom-a rates that pick a jump's channel are those of
        # the amplitudes, and with the atom-b rate they add up to w1.
        params = INVERSION_REGIMES[name]
        ts = np.concatenate(([0.0], np.geomspace(1e-6, 50.0 / params.kappa, 200)))
        _, w1, w_cav, w_a = propagator._survival_kernel(params)(ts)
        amps = conditional_state(params, ts)
        rates = 2.0 * np.array([params.kappa, params.gamma, params.gamma]) * amps**2
        np.testing.assert_allclose(w_cav, rates[:, 0], rtol=1e-13, atol=0.0)
        assert np.array_equal(w_a, rates[:, 1])
        np.testing.assert_allclose(w1, rates.sum(axis=-1), rtol=1e-13, atol=1e-300)


class TestCavityEmissionProbability:
    def test_zero_at_time_zero(self, fig_params):
        assert _p_cav(fig_params, 0.0) == 0.0

    def test_saturation_value(self, fig_params):
        sat = cavity_emission_saturation(fig_params)
        assert sat == pytest.approx(PCAV_SATURATION, abs=1e-15)
        assert _p_cav(fig_params, 50.0) == pytest.approx(PCAV_SATURATION, abs=1e-12)

    def test_matches_quadrature_of_cavity_rate(self, fig_params):
        def rate(t):
            return 2.0 * fig_params.kappa * conditional_state(fig_params, t)[0] ** 2

        integral = adaptive_simpson(rate, 0.0, 5.0, tol=1e-12)
        closed = _p_cav(fig_params, 5.0)
        assert closed == pytest.approx(integral, abs=1e-8)

    def test_quadrature_random_parameters(self, rng):
        for _ in range(3):
            p = random_parameters(rng)

            def rate(t, p=p):
                return 2.0 * p.kappa * conditional_state(p, t)[0] ** 2

            integral = adaptive_simpson(rate, 0.0, 3.0, tol=1e-12)
            assert _p_cav(p, 3.0) == pytest.approx(integral, abs=1e-8)

    def test_monotone_nondecreasing(self, fig_params):
        p_cav = _p_cav(fig_params, np.linspace(0.0, 30.0, 301))
        assert np.all(np.diff(p_cav) >= -1e-12)

    def test_defective_split_branch(self):
        # S = 0 exactly: the critical limit of the closed form must still
        # integrate the cavity rate.
        p = Parameters(g_a=1.5, g_b=2.0, kappa=5.0)

        def rate(t):
            return 2.0 * p.kappa * conditional_state(p, t)[0] ** 2

        integral = adaptive_simpson(rate, 0.0, 2.0, tol=1e-12)
        assert _p_cav(p, 2.0) == pytest.approx(integral, abs=1e-8)


class TestEmissionBudget:
    def test_initial_budget(self, fig_params):
        triple = emission_probabilities(fig_params, 0.0)
        assert (triple.p0, triple.p_cav, triple.p_spon) == (1.0, 0.0, 0.0)

    def test_reference_budget_at_50(self, fig_params):
        triple = emission_probabilities(fig_params, 50.0)
        assert triple.p0 == pytest.approx(P0_AT_50, abs=1e-12)
        assert triple.p_cav == pytest.approx(PCAV_SATURATION, abs=1e-12)
        assert triple.p_spon == pytest.approx(PSPON_AT_50, abs=1e-12)

    def test_budget_sums_to_one(self, rng):
        for _ in range(10):
            p = random_parameters(rng)
            triple = emission_probabilities(p, np.linspace(0.0, 20.0, 100))
            total = triple.p0 + triple.p_cav + triple.p_spon
            assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_spontaneous_asymptotic_complement(self, fig_params):
        ts = np.linspace(10.0, 60.0, 120)
        exact = emission_probabilities(fig_params, ts).p_spon
        # Late-time spontaneous budget: 1 - asymptotic P0 - P_cav(inf).
        asym = 1.0 - mixture_asymptotic(fig_params, ts, eta=0.0).lam - cavity_emission_saturation(fig_params)
        assert np.max(np.abs(exact - asym)) < 1e-6

    def test_spontaneous_split_matches_quadrature(self, fig_params):
        # Channel-resolved spontaneous budget at t = 50, atom a vs atom b.
        frozen_a = 0.024665207959781252
        frozen_b = 0.023665208958771194

        def rate_a(t):
            return 2.0 * fig_params.gamma * conditional_state(fig_params, t)[1] ** 2

        def rate_b(t):
            return 2.0 * fig_params.gamma * conditional_state(fig_params, t)[2] ** 2

        quad_a = adaptive_simpson(rate_a, 0.0, 50.0, tol=1e-12)
        quad_b = adaptive_simpson(rate_b, 0.0, 50.0, tol=1e-12)
        assert quad_a == pytest.approx(frozen_a, abs=1e-9)
        assert quad_b == pytest.approx(frozen_b, abs=1e-9)
        assert frozen_a + frozen_b == pytest.approx(PSPON_AT_50, abs=1e-12)


def _decimal_propagator(p: Parameters, t: float):
    return expm_decimal(-conditional_generator(p).matrix * t)


def _decimal_survival(p: Parameters, t: float) -> decimal.Decimal:
    u = _decimal_propagator(p, t)
    return sum(u[i][1] ** 2 for i in range(3))


def _relative_error(value: float, reference: decimal.Decimal, floor: float = 1e-30) -> float:
    return float(abs(decimal.Decimal(float(value)) - reference) / max(abs(reference), decimal.Decimal(floor)))


class TestDecimalOracle:
    """Hard regimes against the 50-digit exponential of ``oracles.expm_decimal``."""

    @pytest.mark.parametrize("offset", [2.0**-50, 0.0, -(2.0**-50)])
    def test_near_critical_matrix(self, offset):
        # kappa - gamma = 10 (1 + offset) = 2 Omega (1 + offset): just overdamped,
        # exactly critical, just oscillatory.
        gamma = 2.0**-10
        p = Parameters(g_a=3.0, g_b=4.0, kappa=10.0 * (1.0 + offset) + gamma, gamma=gamma)
        prop = Propagator.from_parameters(p)
        for t in (0.01, 0.3, 2.0, 20.0):
            reference = _decimal_propagator(p, t)
            u = prop.matrix(t)
            scale = max(abs(x) for row in reference for x in row)
            error = max(
                abs(decimal.Decimal(float(u[i, j])) - reference[i][j])
                for i in range(3)
                for j in range(3)
            )
            assert float(error / scale) <= 1e-13

    def test_bad_cavity_survival(self):
        # kappa / Omega = 7e5: the slow bright rate (kappa gamma + Omega^2) /
        # lambda_+ would lose digits if taken as the difference (a - sigma)/2.
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1e6, gamma=1e-3)
        reference = _decimal_survival(p, 1e3)
        assert _relative_error(emission_probabilities(p, 1e3).p0, reference) <= 1e-11
        p0 = propagator._survival_kernel(p)(np.array([1e3]))[0]
        assert _relative_error(p0[0], reference) <= 1e-11

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        log_ratio=st.floats(-3.0, 8.0),
        critical=st.sampled_from([None, -1, 0, 1]),
        g_a=st.floats(0.3, 3.0),
        g_b=st.floats(0.3, 3.0),
        off=st.sampled_from(["none", "g_a", "g_b"]),
        log_gamma=st.one_of(st.none(), st.floats(-4.0, -1.0)),
        eta=st.floats(0.0, 1.0),
    )
    def test_stiffness_sweep(self, log_ratio, critical, g_a, g_b, off, log_gamma, eta):
        # kappa / Omega from 1e-3 (good cavity) to 1e8 (bad cavity), or
        # kappa - gamma = 2 Omega (1 + critical 2^-40) at and around the
        # critical point S = 0, with lossless atoms (gamma = 0) and one
        # coupling switched off.
        g_a, g_b = (0.0 if off == "g_a" else g_a), (0.0 if off == "g_b" else g_b)
        omega = float(np.hypot(g_a, g_b))
        gamma = 0.0 if log_gamma is None else omega * 10.0**log_gamma
        if critical is None:
            kappa = omega * 10.0**log_ratio
        else:
            kappa = gamma + 2.0 * omega * (1.0 + critical * 2.0**-40)
        p = Parameters(g_a=g_a, g_b=g_b, kappa=kappa, gamma=gamma)
        # The MC horizon, or for lossless atoms 50 times the slower of the
        # cavity time 1/kappa and the bad-cavity bright lifetime kappa/Omega^2;
        # the last time is twice the horizon.
        horizon = 15.0 / gamma if gamma > 0.0 else 50.0 * max(1.0 / p.kappa, p.kappa / omega**2)
        ts = np.concatenate(([0.0], np.geomspace(1e-6 * horizon, horizon, 32), [2.0 * horizon]))
        triple = emission_probabilities(p, ts)
        assert np.max(np.abs(triple.p0 + triple.p_cav + triple.p_spon - 1.0)) < 1e-10
        assert np.all(np.diff(triple.p0) <= 1e-12)
        assert np.all(triple.p_cav <= cavity_emission_saturation(p))
        lam = mixture_at(p, ts, eta).lam
        assert np.all((lam >= 0.0) & (lam <= 1.0))
        for i in (8, 16, 24, 32, 33):
            assert _relative_error(triple.p0[i], _decimal_survival(p, ts[i])) <= 1e-11


def _run_optimized(code: str) -> str:
    """Stdout of ``code`` run by a ``python -O`` child that imports this package."""
    src = os.path.dirname(os.path.dirname(darkstate_sim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_range_violation_raises_under_optimize():
    # The check must not be an assert, which python -O strips.
    code = (
        "from darkstate_sim import ProbabilityRangeError\n"
        "from darkstate_sim.propagator import _clipped_probability\n"
        "try:\n"
        "    _clipped_probability(1.5)\n"
        "except ProbabilityRangeError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert _run_optimized(code).startswith("raised: probability out of range by 0.5")


def test_budget_range_violation_raises_under_optimize():
    code = (
        "from darkstate_sim import Parameters, ProbabilityRangeError, propagator\n"
        "propagator.cavity_emission_saturation = lambda params: 2.0\n"
        "try:\n"
        "    propagator.emission_probabilities(Parameters(1.0, 1.0, 1.0, 1e-3), 50.0)\n"
        "except ProbabilityRangeError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert _run_optimized(code).startswith("raised: P_cav out of range by 1.0")


class TestBudgetRangeCheck:
    """One pass over the raw (P0, P_cav, P_spon) names the quantity at fault."""

    TIMES = np.array([0.0, 1.0, 10.0, 50.0])

    def test_p0(self, fig_params, monkeypatch):
        exact = emission_probabilities(fig_params, self.TIMES)
        original = propagator._propagate
        monkeypatch.setattr(propagator, "_propagate", lambda *args: 2.0 * original(*args))
        with pytest.raises(ProbabilityRangeError) as info:
            emission_probabilities(fig_params, self.TIMES)
        assert str(info.value) == f"P0 out of range by {4.0 * np.max(exact.p0) - 1.0}"

    def test_p_cav(self, fig_params, monkeypatch):
        exact = emission_probabilities(fig_params, self.TIMES)
        saturation = cavity_emission_saturation(fig_params)
        monkeypatch.setattr(propagator, "cavity_emission_saturation", lambda p: 4.0 * saturation)
        with pytest.raises(ProbabilityRangeError) as info:
            emission_probabilities(fig_params, self.TIMES)
        assert str(info.value) == f"P_cav out of range by {4.0 * np.max(exact.p_cav) - 1.0}"

    def test_p_spon(self, fig_params, monkeypatch):
        # P0 and P_cav stay inside [0, 1]; only their complement leaves it.
        exact = emission_probabilities(fig_params, self.TIMES)
        saturation = cavity_emission_saturation(fig_params)
        monkeypatch.setattr(propagator, "cavity_emission_saturation", lambda p: 1.0)
        p_cav = exact.p_cav / saturation
        assert np.all(p_cav <= 1.0)
        with pytest.raises(ProbabilityRangeError, match=r"^P_spon out of range by ") as info:
            emission_probabilities(fig_params, self.TIMES)
        excess = float(str(info.value).rsplit(" ", 1)[1])
        assert excess == pytest.approx(np.max(exact.p0 + p_cav - 1.0), rel=1e-12)

    def test_nan_is_out_of_range(self, fig_params, monkeypatch):
        monkeypatch.setattr(propagator, "cavity_emission_saturation", lambda p: float("nan"))
        with pytest.raises(ProbabilityRangeError, match=r"^P_cav out of range by nan"):
            emission_probabilities(fig_params, 1.0)

    def test_empty_times(self, fig_params):
        triple = emission_probabilities(fig_params, np.array([]))
        assert triple.p0.shape == triple.p_cav.shape == triple.p_spon.shape == (0,)


class TestProjectorCache:
    """``_projectors`` builds each rate set's projectors once and shares them."""

    def _outputs(self, params, times):
        triple = emission_probabilities(params, times)
        return [
            triple.p0,
            triple.p_cav,
            triple.p_spon,
            conditional_state(params, times),
            Propagator.from_parameters(params).matrix(times),
            mixture_at(params, times).lam,
            mixture_at(params, float(times[-1])).lam,
        ]

    def test_shared_array_is_read_only(self, fig_params):
        for basis in (
            propagator._projectors(fig_params),
            Propagator.from_parameters(fig_params)._basis,
        ):
            with pytest.raises(ValueError):
                basis[0, 1, 1] = 0.0

    def test_one_miss_per_rate_set(self):
        propagator._rate_projectors.cache_clear()
        for eta in (1.0, 0.8, 0.3, 0.0):
            params = Parameters(g_a=0.7, g_b=2.1, kappa=9.3, gamma=0.004, eta=eta)
            emission_probabilities(params, np.array([0.0, 1.0]))
            mixture_at(params, 2.0)
            Propagator.from_parameters(params).matrix(3.0)
        info = propagator._rate_projectors.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits >= 11

    def test_cold_and_warm_bit_identical(self, rng):
        times = np.concatenate([[0.0], np.geomspace(1e-3, 200.0, 40)])
        for _ in range(5):
            params = random_parameters(rng)
            propagator._rate_projectors.cache_clear()
            cold = self._outputs(params, times)
            warm = self._outputs(params, times)
            for a, b in zip(cold, warm):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_negative_zero_rates_share_one_entry(self):
        # -0.0 and 0.0 are one cache key; the outputs of either must not
        # depend on which of them filled the entry.
        times = np.linspace(0.0, 20.0, 50)
        signed = Parameters(g_a=1.0, g_b=-0.0, kappa=1.0, gamma=-0.0)
        plain = Parameters(g_a=1.0, g_b=0.0, kappa=1.0, gamma=0.0)
        assert math.copysign(1.0, signed.g_b) == math.copysign(1.0, signed.gamma) == -1.0
        for params, other in [(signed, plain), (plain, signed)]:
            propagator._rate_projectors.cache_clear()
            cold = self._outputs(params, times)
            propagator._rate_projectors.cache_clear()
            self._outputs(other, times)
            after_other = self._outputs(params, times)
            assert propagator._rate_projectors.cache_info().currsize == 1
            for a, b in zip(cold, after_other):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_threads_match_serial(self, rng, fig_params):
        times = np.geomspace(1e-3, 100.0, 30)
        sets = [random_parameters(rng) for _ in range(24)]
        serial = [self._outputs(p, times) for p in sets]
        interval = sys.getswitchinterval()
        propagator._rate_projectors.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(self._outputs, p, times) for p in sets for _ in range(2)]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, outputs in enumerate(threaded):
            for a, b in zip(serial[k // 2], outputs):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        grid = np.linspace(0.0, 30.0, 7)
        propagator._rate_projectors.cache_clear()
        pooled = run_ensemble(fig_params, 40_000, grid, seed=7, workers=2)
        one = run_ensemble(fig_params, 40_000, grid, seed=7, workers=1)
        assert np.array_equal(pooled.counts, one.counts)

    def test_zero_couplings_raise_every_call(self):
        params = Parameters(g_a=0.0, g_b=0.0, kappa=1.0, gamma=1e-3)
        for _ in range(3):
            with pytest.raises(DegenerateCouplingError):
                propagator._projectors(params)
            with pytest.raises(DegenerateCouplingError):
                emission_probabilities(params, 1.0)
            with pytest.raises(DegenerateCouplingError):
                conditional_state(params, 1.0)
