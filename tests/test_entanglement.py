import math

import numpy as np
import pytest

from darkstate_sim import entanglement
from darkstate_sim import (
    ConditionedMixture,
    NegativeTimeError,
    Parameters,
    ZeroProbabilityConditionError,
    mixture_asymptotic,
    mixture_at,
    relative_entropy_of_entanglement,
    repump_round,
)

# Frozen references for g_a = g_b = kappa = 1, gamma = 1e-3.
LAMBDA_AT_50_PERFECT = 0.9034837717826031
LAMBDA_ONSET_ETA_080 = 0.8325018017441382
ENTROPY_AT_HALF = 0.12255624891826566
REPUMP_3_FROM_08325 = 0.9997988392725787


class TestMixture:
    def test_certain_at_time_zero(self, fig_params):
        assert mixture_at(fig_params, 0.0).lam == 1.0

    def test_reference_weight_at_50(self, fig_params):
        mix = mixture_at(fig_params, 50.0, eta=1.0)
        assert mix.lam == pytest.approx(LAMBDA_AT_50_PERFECT, abs=1e-12)
        assert mix.t == 50.0

    def test_asymptotic_route_matches_exact_late(self, fig_params):
        exact = mixture_at(fig_params, 50.0, eta=1.0).lam
        asym = mixture_asymptotic(fig_params, 50.0, eta=1.0).lam
        assert abs(exact - asym) < 1e-10

    def test_onset_weight_with_imperfect_detector(self, fig_params):
        mix = mixture_asymptotic(fig_params, 0.0, eta=0.8)
        assert mix.lam == pytest.approx(LAMBDA_ONSET_ETA_080, abs=1e-12)

    def test_eta_defaults_to_parameters(self):
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0, gamma=1e-3, eta=0.8)
        assert mixture_asymptotic(p, 0.0).lam == pytest.approx(
            LAMBDA_ONSET_ETA_080, abs=1e-12
        )

    def test_lower_efficiency_lowers_weight(self, fig_params):
        weights = [mixture_at(fig_params, 20.0, eta=eta).lam for eta in (1.0, 0.8, 0.5, 0.0)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_invalid_inputs_rejected(self, fig_params):
        with pytest.raises(ValueError):
            mixture_at(fig_params, 10.0, eta=1.5)
        with pytest.raises(ValueError):
            ConditionedMixture(lam=1.2, t=0.0)
        with pytest.raises(ValueError):
            ConditionedMixture(lam=float("nan"), t=0.0)

    @pytest.mark.parametrize("t", [50.0, np.array([1.0, 50.0])])
    def test_nan_weight_rejected(self, fig_params, monkeypatch, t):
        # Every mixture goes through the checked constructor: a NaN saturation
        # once gave lam = nan here (as an overflowed one did at g_a = 1e100,
        # kappa = 1e150).
        monkeypatch.setattr(entanglement, "cavity_emission_saturation", lambda params: math.nan)
        with pytest.raises(ValueError, match="mixture weight must be in"):
            mixture_asymptotic(fig_params, t)

    @pytest.mark.parametrize("t", [1e4, np.array([1.0, 1e4])])
    def test_zero_probability_conditioning_raises(self, t):
        # gamma = 0, g_b = 0, eta = 1: the no-click probability 1 - P_cav
        # reaches 0 together with P0, and the weight would be 0/0.
        params = Parameters(g_a=1.0, g_b=0.0, kappa=1.0, gamma=0.0)
        with pytest.raises(ZeroProbabilityConditionError):
            mixture_at(params, t)
        with pytest.raises(ZeroProbabilityConditionError):
            mixture_asymptotic(params, t)
        assert mixture_asymptotic(params, t, eta=0.8).lam == pytest.approx(0.0)


class TestEntropy:
    def test_exact_endpoints(self):
        assert relative_entropy_of_entanglement(ConditionedMixture(0.0, 0.0)) == 0.0
        assert relative_entropy_of_entanglement(ConditionedMixture(1.0, 0.0)) == 1.0

    def test_reference_midpoint(self):
        value = relative_entropy_of_entanglement(ConditionedMixture(0.5, 0.0))
        assert value == pytest.approx(ENTROPY_AT_HALF, abs=1e-14)

    def test_strictly_increasing(self):
        lams = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        values = [
            relative_entropy_of_entanglement(ConditionedMixture(float(lam), 0.0))
            for lam in lams
        ]
        diffs = np.diff(values)
        assert np.all(diffs > 0.0)

    def test_bounded_by_unit_interval(self):
        for lam in np.linspace(0.0, 1.0, 101):
            value = relative_entropy_of_entanglement(ConditionedMixture(float(lam), 0.0))
            assert 0.0 <= value <= 1.0

    def test_relative_accuracy_against_mpmath(self):
        # The defining formula at 340 digits, where its two terms cancel to lam^2 / (4 ln 2)
        # at a small lam and (1 - lam) log2(1 - lam) is finite at lam = 1 - 1e-16.
        mpmath = pytest.importorskip("mpmath")
        lams = np.concatenate([np.geomspace(1e-150, 0.5, 200), 1.0 - np.geomspace(1e-16, 0.5, 40)])
        values = relative_entropy_of_entanglement(ConditionedMixture(lams, 0.0))
        with mpmath.workdps(340):
            for lam, value in zip(lams, values):
                w = mpmath.mpf(lam)
                exact = ((w - 2) * mpmath.log(1 - w / 2) + (1 - w) * mpmath.log(1 - w)) / mpmath.log(2)
                assert abs(float((mpmath.mpf(value) - exact) / exact)) <= 1e-15, (lam, value)

    def test_small_weight_keeps_its_digits(self):
        # lam = 4.04e-9: the two log2 terms gave 1.66e-16, their round-off, against 5.885e-18.
        mixture = mixture_at(Parameters(10.0, 0.0, 1.0, 0.0, 0.5), 20.0)
        assert mixture.lam == pytest.approx(4.039537504834149e-09, rel=1e-12, abs=0.0)
        entropy = relative_entropy_of_entanglement(mixture)
        assert entropy == pytest.approx(mixture.lam**2 / (4.0 * math.log(2.0)), rel=1e-8, abs=0.0)
        assert entropy == pytest.approx(5.885425110125223e-18, rel=1e-15, abs=0.0)


class TestArrayPaths:
    """Array calls equal the per-point scalar calls bit for bit."""

    def test_mixture_at(self, fig_params):
        ts = np.linspace(0.0, 60.0, 200)
        mix = mixture_at(fig_params, ts, eta=0.8)
        assert np.array_equal(mix.t, ts)
        assert np.array_equal(mix.lam, [mixture_at(fig_params, float(t), eta=0.8).lam for t in ts])
        scalar = mixture_at(fig_params, 3.0, eta=0.8)
        assert isinstance(scalar.lam, float) and isinstance(scalar.t, float)

    def test_mixture_asymptotic(self, fig_params):
        ts = np.linspace(5.0, 500.0, 200)
        mix = mixture_asymptotic(fig_params, ts, eta=0.8)
        assert np.array_equal(mix.t, ts)
        assert np.array_equal(
            mix.lam, [mixture_asymptotic(fig_params, float(t), eta=0.8).lam for t in ts]
        )
        assert isinstance(mixture_asymptotic(fig_params, 5.0).lam, float)

    def test_entropy(self):
        lams = np.linspace(0.0, 1.0, 200)
        values = relative_entropy_of_entanglement(ConditionedMixture(lams, 0.0))
        expected = [
            relative_entropy_of_entanglement(ConditionedMixture(float(lam), 0.0)) for lam in lams
        ]
        assert np.array_equal(values, expected)
        assert isinstance(expected[1], float)

    def test_entropy_endpoints_exact(self):
        values = relative_entropy_of_entanglement(ConditionedMixture(np.array([0.0, 1.0]), 0.0))
        assert np.array_equal(values, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), 1.2, -0.1])
    def test_one_bad_element_rejected(self, bad):
        lams = np.linspace(0.0, 1.0, 11)
        lams[4] = bad
        with pytest.raises(ValueError):
            ConditionedMixture(lam=lams, t=np.zeros(11))

    def test_repump_round(self, fig_params):
        lams = np.concatenate([[0.0, -0.0, 1.0], np.linspace(0.0, 1.0, 41)])
        mixture = ConditionedMixture(lams, np.zeros(lams.size))
        for p_detect in (0.0, 0.37, 0.9, 1.0):
            result = repump_round(mixture, p_detect)
            scalars = [repump_round(ConditionedMixture(float(lam), 0.0), p_detect) for lam in lams]
            for got, want in [
                (result.mixture.lam, [r.mixture.lam for r in scalars]),
                (result.click_probability, [r.click_probability for r in scalars]),
            ]:
                assert np.asarray(got).tobytes() == np.array(want).tobytes()
            assert isinstance(scalars[0].mixture.lam, float)
            assert isinstance(scalars[0].click_probability, float)
            assert math.copysign(1.0, scalars[1].mixture.lam) == 1.0  # -0.0 maps to 0.0
        timed = repump_round(mixture_at(fig_params, [1.0, 5.0]), 0.9)
        assert np.array_equal(timed.mixture.t, [1.0, 5.0])
        assert timed.mixture.lam.shape == (2,)

    @pytest.mark.parametrize("wrap", [np.float64, np.array])
    def test_numpy_scalar_weight_gives_python_floats(self, wrap):
        # A mixture built by hand may hold lam as np.float64 or a 0-d array;
        # both run the float path, to the bits of the array element.
        lams = np.array([0.0, -0.0, 1e-300, 0.3, 0.5, 0.9034837717826031, 1.0 - 2.0**-53, 1.0])
        array = ConditionedMixture(lams, np.zeros(lams.size))
        entropies = relative_entropy_of_entanglement(array)
        repumped = repump_round(array, 0.9)
        for k, lam in enumerate(lams):
            mixture = ConditionedMixture(wrap(lam), 0.0)
            entropy = relative_entropy_of_entanglement(mixture)
            result = repump_round(mixture, 0.9)
            for got, want in [
                (entropy, entropies[k]),
                (result.mixture.lam, repumped.mixture.lam[k]),
                (result.click_probability, repumped.click_probability[k]),
            ]:
                assert type(got) is float, (lam, type(got))
                assert np.float64(got).tobytes() == want.tobytes(), (lam, got, want)

    def test_one_negative_time_rejected(self, fig_params):
        ts = np.linspace(0.0, 10.0, 5)
        ts[2] = -1.0
        with pytest.raises(NegativeTimeError):
            mixture_at(fig_params, ts)
        with pytest.raises(NegativeTimeError):
            mixture_asymptotic(fig_params, ts)


class TestUnclippedWeights:
    """The weights that mixture_asymptotic and repump_round form lie in [0, 1] unclipped."""

    TIMES = (0.0, 1e-300, 1e6)

    @pytest.mark.parametrize(
        "g_a, g_b, gamma", [(0.0, 1.0, 1e-3), (1.0, 0.0, 1e-3), (1.0, 1.0, 0.0), (0.7, 2.1, 4e-3)]
    )
    @pytest.mark.parametrize("t", [*TIMES, np.array(TIMES)])
    def test_asymptotic_weight(self, g_a, g_b, gamma, t):
        params = Parameters(g_a=g_a, g_b=g_b, kappa=1.0, gamma=gamma)
        weight = g_b**2 / params.coupling_squared * np.exp(-2.0 * gamma * np.asarray(t))
        assert np.all((weight >= 0.0) & (weight <= 1.0))
        # At eta = 0 the mixture's weight is the survival weight itself.
        lam = mixture_asymptotic(params, t, eta=0.0).lam
        assert np.asarray(lam).tobytes() == np.asarray(weight).tobytes()
        lam = mixture_asymptotic(params, t, eta=0.5).lam
        assert np.all((np.asarray(lam) >= 0.0) & (np.asarray(lam) <= 1.0))

    LAMS = (-0.0, 0.0, 5e-324, 0.5, 1.0)

    @pytest.mark.parametrize("p_detect", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [*LAMS, np.array(LAMS)])
    def test_repump_weight(self, lam, p_detect):
        new = repump_round(ConditionedMixture(lam, 0.0), p_detect).mixture.lam
        assert isinstance(new, np.ndarray if np.ndim(lam) else float)
        new = np.asarray(new)
        assert np.all((new >= 0.0) & (new <= 1.0))
        assert not np.signbit(new).any()


class TestRepump:
    def test_three_rounds_reach_target(self):
        mix = ConditionedMixture(0.8325, 0.0)
        for _ in range(3):
            mix = repump_round(mix, 0.9).mixture
        assert mix.lam == pytest.approx(REPUMP_3_FROM_08325, abs=1e-14)
        assert mix.lam >= 0.999

    def test_click_probability(self):
        result = repump_round(ConditionedMixture(0.8325, 0.0), 0.9)
        assert result.click_probability == pytest.approx((1.0 - 0.8325) * 0.9, abs=1e-15)

    def test_perfect_detection_purifies_in_one_round(self):
        result = repump_round(ConditionedMixture(0.4, 0.0), 1.0)
        assert result.mixture.lam == 1.0
        assert result.click_probability == pytest.approx(0.6, abs=1e-15)

    def test_weight_never_decreases(self):
        for lam in (0.1, 0.5, 0.9):
            for p in (0.0, 0.3, 0.9):
                new = repump_round(ConditionedMixture(lam, 0.0), p).mixture.lam
                assert new >= lam

    def test_fixed_points(self):
        assert repump_round(ConditionedMixture(1.0, 0.0), 0.7).mixture.lam == 1.0
        assert repump_round(ConditionedMixture(0.0, 0.0), 0.7).mixture.lam == 0.0
        # Degenerate corner: nothing survives the conditioning.
        assert repump_round(ConditionedMixture(0.0, 0.0), 1.0).mixture.lam == 0.0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            repump_round(ConditionedMixture(0.5, 0.0), 1.1)
        with pytest.raises(ValueError):
            repump_round(ConditionedMixture(0.5, 0.0), -0.1)

    def test_composition_matches_single_formula(self):
        # k rounds at detection p compose like one round at 1 - (1-p)^k.
        lam0, p, k = 0.6, 0.7, 4
        mix = ConditionedMixture(lam0, 0.0)
        for _ in range(k):
            mix = repump_round(mix, p).mixture
        combined = repump_round(ConditionedMixture(lam0, 0.0), 1.0 - (1.0 - p) ** k).mixture
        assert mix.lam == pytest.approx(combined.lam, abs=1e-12)
