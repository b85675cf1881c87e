import numpy as np
import pytest

from conftest import random_parameters
from darkstate_sim import (
    ATOM_A,
    ATOM_B,
    CAVITY_MODE,
    BASIS_LABELS,
    DegenerateCouplingError,
    Parameters,
    Propagator,
    StateVector,
    conditional_generator,
    initial_state,
)


class TestParameters:
    def test_defaults_and_coercion(self):
        p = Parameters(g_a=1, g_b=2, kappa=3)
        assert p.gamma == 0.0 and p.eta == 1.0
        assert isinstance(p.g_a, float) and p.g_a == 1.0

    def test_coupling_squared(self):
        p = Parameters(g_a=3.0, g_b=4.0, kappa=2.0, gamma=0.5)
        assert p.coupling_squared == 25.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g_a=-0.1, g_b=1.0, kappa=1.0),
            dict(g_a=1.0, g_b=-1.0, kappa=1.0),
            dict(g_a=1.0, g_b=1.0, kappa=0.0),
            dict(g_a=1.0, g_b=1.0, kappa=-2.0),
            dict(g_a=1.0, g_b=1.0, kappa=1.0, gamma=-1e-9),
            dict(g_a=1.0, g_b=1.0, kappa=1.0, eta=1.5),
            dict(g_a=1.0, g_b=1.0, kappa=1.0, eta=-0.2),
            dict(g_a=float("nan"), g_b=1.0, kappa=1.0),
            dict(g_a=1.0, g_b=float("inf"), kappa=1.0),
        ],
    )
    def test_invalid_rates_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Parameters(**kwargs)

    def test_zero_couplings_allowed_but_generator_refuses(self):
        p = Parameters(g_a=0.0, g_b=0.0, kappa=1.0)
        assert p.coupling_squared == 0.0
        with pytest.raises(DegenerateCouplingError):
            conditional_generator(p)


class TestStateVector:
    def test_initial_state_is_atom_a_excitation(self):
        state = initial_state()
        assert np.array_equal(state.amplitudes, [0.0, 1.0, 0.0])
        assert state.norm_squared == 1.0
        assert BASIS_LABELS[ATOM_A] == "010"
        assert (CAVITY_MODE, ATOM_A, ATOM_B) == (0, 1, 2)

    def test_amplitudes_are_read_only(self):
        state = initial_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0]))

    def test_total_weight_capped_at_one(self):
        with pytest.raises(ValueError):
            StateVector(np.array([0.0, 1.0, 0.5]))
        StateVector(np.array([0.0, 0.6, 0.7]))  # 0.85 total: fine

    def test_normalized(self):
        state = StateVector(np.array([0.3, 0.4, 0.0]))
        unit = state.normalized()
        assert unit.norm_squared == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            StateVector(np.zeros(3)).normalized()


class TestInteraction:
    def test_matrix_layout(self):
        # The coupling part of M, G = M - diag(kappa, gamma, gamma), is the
        # antisymmetric lossless generator.
        gen = conditional_generator(Parameters(g_a=2.0, g_b=3.0, kappa=1.0, gamma=0.5))
        h = gen.matrix - np.diag([1.0, 0.5, 0.5])
        expected = np.array([[0.0, 2.0, 3.0], [-2.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])
        assert np.array_equal(h, expected)
        assert np.array_equal(h, -h.T)

    def test_conditional_matrix_is_interaction_plus_decay(self, rng):
        for _ in range(10):
            p = random_parameters(rng)
            gen = conditional_generator(p)
            decay = np.diag([p.kappa, p.gamma, p.gamma])
            coupling = np.array(
                [[0.0, p.g_a, p.g_b], [-p.g_a, 0.0, 0.0], [-p.g_b, 0.0, 0.0]]
            )
            assert np.array_equal(gen.matrix - decay, coupling)


class TestConditionalGenerator:
    def test_dark_eigenvector_example(self):
        # couplings (0.6, 0.8): the dark direction is (0, -0.8, 0.6) up to
        # phase; the stored convention flips it to (0, 0.8, -0.6).
        gen = conditional_generator(Parameters(g_a=0.6, g_b=0.8, kappa=1.0))
        dark = gen.dark_state.amplitudes
        assert np.allclose(dark, [0.0, 0.8, -0.6], atol=1e-15)
        raw = np.array([0.0, -0.8, 0.6])
        overlap = abs(np.vdot(raw, dark))
        assert overlap == pytest.approx(1.0, abs=1e-15)

    def test_dark_state_single_coupling(self):
        gen = conditional_generator(Parameters(g_a=1.0, g_b=0.0, kappa=2.0))
        assert np.allclose(gen.dark_state.amplitudes, [0.0, 0.0, 1.0], atol=1e-15)

    def test_eigenvalues_lossless_atoms(self):
        # gamma = 0, g_a = g_b = kappa = 1: spectrum {0, (1 +/- i sqrt(7))/2}.
        gen = conditional_generator(Parameters(g_a=1.0, g_b=1.0, kappa=1.0))
        lam = gen.eigenvalues
        assert lam[0] == 0.0
        root7 = np.sqrt(7.0)
        assert np.allclose(lam[1], 0.5 * (1.0 + 1j * root7), atol=1e-14)
        assert np.allclose(lam[2], 0.5 * (1.0 - 1j * root7), atol=1e-14)

    def test_overdamped_spectrum_is_real(self):
        # kappa = 10 dominates the coupling: S = i sqrt(92), all rates real.
        gen = conditional_generator(Parameters(g_a=1.0, g_b=1.0, kappa=10.0))
        assert gen.s_parameter.real == pytest.approx(0.0, abs=1e-14)
        assert abs(gen.s_parameter.imag) == pytest.approx(np.sqrt(92.0), rel=1e-14)
        bright = gen.eigenvalues[1:]
        assert np.max(np.abs(bright.imag)) < 1e-12
        assert np.all(bright.real > 0.0)
        expected = sorted([(10.0 - np.sqrt(92.0)) / 2.0, (10.0 + np.sqrt(92.0)) / 2.0])
        assert np.allclose(sorted(bright.real), expected, rtol=1e-12)

    def test_dark_state_independent_of_loss_rates(self):
        reference = conditional_generator(
            Parameters(g_a=0.7, g_b=1.9, kappa=1.0)
        ).dark_state.amplitudes
        for kappa in (0.3, 2.0, 7.0):
            for gamma in (0.0, 0.2):
                dark = conditional_generator(
                    Parameters(g_a=0.7, g_b=1.9, kappa=kappa, gamma=gamma)
                ).dark_state.amplitudes
                assert np.array_equal(dark, reference)

    def test_defective_spectrum_flagged(self):
        # 4(g_a^2+g_b^2) = (kappa-gamma)^2 exactly: S = 0, one repeated rate,
        # labelled by the propagator's critical branch.
        p = Parameters(g_a=1.5, g_b=2.0, kappa=5.0)
        assert conditional_generator(p).s_parameter == 0.0
        assert Propagator.from_parameters(p).method == "series"

    def test_generic_spectrum_not_flagged(self, fig_params):
        assert conditional_generator(fig_params).s_parameter != 0.0
        assert Propagator.from_parameters(fig_params).method == "spectral"
