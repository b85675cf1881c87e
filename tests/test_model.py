import numpy as np
import pytest

from conftest import random_parameters
from darkstate_sim import (
    DegenerateCouplingError,
    Parameters,
    Propagator,
    conditional_generator,
    conditional_state,
    emission_probabilities,
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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(g_a=1e200, g_b=1.0, kappa=1.0), "g_a^2 + g_b^2"),
            (dict(g_a=1.0, g_b=1e200, kappa=1.0), "g_a^2 + g_b^2"),
            (dict(g_a=1e154, g_b=1e154, kappa=1.0), "g_a^2 + g_b^2"),  # only the sum overflows
            (dict(g_a=1.0, g_b=1.0, kappa=1e200), "(kappa - gamma)^2"),
            (dict(g_a=1.0, g_b=1.0, kappa=1.0, gamma=1e200), "(kappa - gamma)^2"),
            (dict(g_a=7e153, g_b=1.0, kappa=1.0), "S^2 = 4(g_a^2 + g_b^2) - (kappa - gamma)^2"),
            (dict(g_a=1.0, g_b=1.0, kappa=1e308, gamma=1e308), "kappa + gamma"),
        ],
    )
    def test_rates_whose_squares_overflow_rejected(self, kwargs, name):
        with pytest.raises(ValueError) as info:
            Parameters(**kwargs)
        assert str(info.value) == f"rates too large: {name} is not a finite float"

    def test_large_rates_with_finite_squares_accepted(self):
        p = Parameters(g_a=1e150, g_b=1e150, kappa=1e200, gamma=1e200)
        assert p.coupling_squared == pytest.approx(2e300)

    def test_largest_split_square_accepted(self):
        # 4 Omega^2 first overflows at g_a of about 6.7e153 (g_b = kappa = 1).
        p = Parameters(g_a=6e153, g_b=1.0, kappa=1.0)
        times = np.array([0.0, 1e-160, 1e-3, 30.0])
        triple = emission_probabilities(p, times)
        assert np.isfinite([triple.p0, triple.p_cav, triple.p_spon]).all()
        assert np.isfinite(conditional_state(p, times)).all()

    @pytest.mark.parametrize("g", [1.05e-154, 1e-161, 1e-162])
    def test_couplings_whose_square_underflows_rejected(self, g):
        # A subnormal Omega^2 loses bits, and with it S^2, the unit dark state
        # and the dark weight g_b^2/Omega^2.  Unchecked, |d|^2 is off 1 by
        # 1.6e-8 at g = 1e-158, the dark weight is off by 8.1e-4 relative at
        # (g_a, g_b) = (1e-160, 3e-161), and at 1e-162 Omega^2 = 0 is
        # reported as g_a = g_b = 0.
        with pytest.raises(ValueError) as info:
            Parameters(g_a=g, g_b=g, kappa=1.0)
        assert str(info.value) == (
            "rates too small: g_a^2 + g_b^2 is below the smallest normal float"
        )

    def test_smallest_normal_coupling_square_accepted(self):
        # Omega is about 1.5e-154, so the bright part barely couples to the
        # cavity and decays like the dark one: P0 = e^{-2 gamma t}.
        p = Parameters(g_a=1.06e-154, g_b=1.06e-154, kappa=1.0, gamma=1e-3)
        times = np.array([1.0, 100.0, 3000.0])
        p0 = emission_probabilities(p, times).p0
        assert np.max(np.abs(p0 - np.exp(-2.0 * p.gamma * times))) < 1e-14

    def test_one_tiny_coupling_accepted(self):
        p = Parameters(g_a=1e-160, g_b=1.0, kappa=1.0)
        assert p.coupling_squared == 1.0

    def test_zero_couplings_allowed_but_generator_refuses(self):
        p = Parameters(g_a=0.0, g_b=0.0, kappa=1.0)
        assert p.coupling_squared == 0.0
        with pytest.raises(DegenerateCouplingError):
            conditional_generator(p)


class TestStateVector:
    """The model's state vectors: the state grown from |010> and the dark vector."""

    def test_initial_state_is_atom_a_excitation(self, rng):
        for p in [Parameters(1.0, 1.0, 1.0, 1e-3)] + [random_parameters(rng) for _ in range(10)]:
            state = conditional_state(p, 0.0)
            assert np.array_equal(state, [0.0, 1.0, 0.0])
            assert np.sum(state**2) == 1.0

    def test_amplitudes_are_read_only(self):
        dark = conditional_generator(Parameters(g_a=0.6, g_b=0.8, kappa=1.0)).dark_state
        with pytest.raises(ValueError):
            dark[0] = 1.0

    def test_shape_validation(self, fig_params):
        # Three real amplitudes, on (|100>, |010>, |001>), per time.
        assert conditional_state(fig_params, 1.0).shape == (3,)
        assert conditional_state(fig_params, np.zeros((4, 2))).shape == (4, 2, 3)
        dark = conditional_generator(fig_params).dark_state
        assert dark.shape == (3,) and dark.dtype == np.float64

    def test_total_weight_capped_at_one(self, rng):
        times = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 200)))
        for _ in range(20):
            weight = np.sum(conditional_state(random_parameters(rng), times) ** 2, axis=-1)
            assert np.all(weight <= 1.0 + 1e-12)

    def test_normalized(self, rng):
        for _ in range(20):
            dark = conditional_generator(random_parameters(rng)).dark_state
            assert np.sum(dark**2) == pytest.approx(1.0, abs=1e-15)


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
        dark = gen.dark_state
        assert np.allclose(dark, [0.0, 0.8, -0.6], atol=1e-15)
        raw = np.array([0.0, -0.8, 0.6])
        overlap = abs(np.vdot(raw, dark))
        assert overlap == pytest.approx(1.0, abs=1e-15)

    def test_dark_state_single_coupling(self):
        gen = conditional_generator(Parameters(g_a=1.0, g_b=0.0, kappa=2.0))
        assert np.allclose(gen.dark_state, [0.0, 0.0, 1.0], atol=1e-15)

    def test_eigenvalues_lossless_atoms(self):
        # gamma = 0, g_a = g_b = kappa = 1: spectrum of M is {0, (1 +/- i sqrt(7))/2},
        # so U(t) = exp(-M t) has the eigenvalues exp(-t lambda).
        prop = Propagator.from_parameters(Parameters(g_a=1.0, g_b=1.0, kappa=1.0))
        root7 = np.sqrt(7.0)
        lam = np.array([0.0, 0.5 * (1.0 + 1j * root7), 0.5 * (1.0 - 1j * root7)])
        for t in (0.3, 1.7):
            values = np.sort_complex(np.linalg.eigvals(prop.matrix(t)))
            assert np.allclose(values, np.sort_complex(np.exp(-t * lam)), rtol=0.0, atol=1e-14)

    def test_overdamped_spectrum_is_real(self):
        # kappa = 10 dominates the coupling: S = i sqrt(92), all rates real,
        # lambda = {0, (10 +/- sqrt(92))/2}.
        prop = Propagator.from_parameters(Parameters(g_a=1.0, g_b=1.0, kappa=10.0))
        lam = np.array([0.0, (10.0 - np.sqrt(92.0)) / 2.0, (10.0 + np.sqrt(92.0)) / 2.0])
        for t in (0.05, 0.5):
            values = np.linalg.eigvals(prop.matrix(t))
            assert np.max(np.abs(values.imag)) < 1e-12
            assert np.allclose(np.sort(values.real), np.sort(np.exp(-t * lam)), rtol=1e-12, atol=0.0)

    def test_dark_state_independent_of_loss_rates(self):
        reference = conditional_generator(
            Parameters(g_a=0.7, g_b=1.9, kappa=1.0)
        ).dark_state
        for kappa in (0.3, 2.0, 7.0):
            for gamma in (0.0, 0.2):
                dark = conditional_generator(
                    Parameters(g_a=0.7, g_b=1.9, kappa=kappa, gamma=gamma)
                ).dark_state
                assert np.array_equal(dark, reference)

    def test_defective_spectrum_flagged(self):
        # 4(g_a^2+g_b^2) = (kappa-gamma)^2 exactly: S = 0, one repeated rate,
        # labelled by the propagator's critical branch.
        p = Parameters(g_a=1.5, g_b=2.0, kappa=5.0)
        assert Propagator.from_parameters(p).method == "series"

    def test_generic_spectrum_not_flagged(self, fig_params):
        assert Propagator.from_parameters(fig_params).method == "spectral"
