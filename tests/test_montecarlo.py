import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from darkstate_sim import (
    NegativeTimeError,
    Parameters,
    SimulationError,
    conditional_state,
    default_horizon,
    emission_probabilities,
    run_ensemble,
    simulate_trajectories,
)
from conftest import INVERSION_REGIMES
from darkstate_sim import model, montecarlo, propagator
from oracles import inverse_log_survival_derivatives

# Conditional channel probabilities by t = 50 for g_a = g_b = kappa = 1,
# gamma = 1e-3 (cavity, spontaneous-from-a, spontaneous-from-b), frozen from
# quadrature of the closed-form rates.
CHANNEL_BUDGET_AT_50 = np.array(
    [0.4992508740634678, 0.024665207959781252, 0.023665208958771194]
)

# One-percent critical values: Kolmogorov-Smirnov (asymptotic, 1.6276/sqrt(n))
# and chi-squared with two degrees of freedom.
KS_COEFFICIENT_1PC = 1.6276
CHI2_2DF_1PC = 9.21034

CHUNK = 16_384

# Integer run_ensemble counts, as committed in data/golden (see TestGoldenCounts).
GOLDEN_COUNTS = Path(__file__).parent / "data" / "golden" / "ensemble_counts.csv"
GOLDEN_COUNT_SEEDS = (11, 12)
GOLDEN_COUNT_SIZE = 2 * CHUNK + 7232  # two full chunks and a partial one
GOLDEN_COUNT_HEADER = "regime,seed,t,no_jump,cavity,spontaneous"


def _table(params, horizon):
    """The kernel and the (cached) start table of ``simulate_trajectories``."""
    return montecarlo._survival_kernel(params), montecarlo._start_table(params, horizon)


def _inversion(params, u, wrap=lambda kernel: kernel):
    """Jump times and rates (w1, w_cav, w_a) for the uniforms ``u``, by the batch root finder alone.

    ``wrap`` may replace the closed-form kernel with one built on it.
    """
    kernel, table = _table(params, default_horizon(params))
    return montecarlo._invert_survival(wrap(kernel), table, np.asarray(u, dtype=float), montecarlo._Workspace())


def _roots(params, u):
    """Jump times for the uniforms ``u``, by the batch root finder alone."""
    return _inversion(params, u)[0]


def _waiting_draws(seed, count):
    """The waiting-time uniforms u of trajectories 0 .. count-1 under ``seed``."""
    draws = np.random.Generator(np.random.Philox(key=seed, counter=0)).random((count, 4))
    return 1.0 - draws[:, 0]


class TestWaitingTime:
    def test_u_one_maps_to_time_zero(self, fig_params):
        # u = 1 starts at t = 0 exactly (the first evaluation is there) and
        # the inversion leaves it there, also beside roots that do move.
        for params in (fig_params, INVERSION_REGIMES["gamma_zero"]):
            starts = []

            def first_times(kernel):
                def recording(t, out=None):
                    starts.append(t.copy())
                    return kernel(t, out)

                return recording

            times, total, cavity, atom_a = _inversion(params, [1.0, 0.5, 1.0], first_times)
            assert starts[0][0] == starts[0][2] == 0.0
            assert times[0] == times[2] == 0.0
            assert times[1] > 0.0
            # At t = 0 only atom a radiates: rates (w1, w_cav, w_a) = (2 gamma, 0, 2 gamma).
            gamma2 = 2.0 * params.gamma
            for k in (0, 2):
                assert (total[k], cavity[k], atom_a[k]) == (gamma2, 0.0, gamma2)

    def test_root_self_consistency(self, fig_params):
        u = np.array([0.9, 0.6, 0.47])
        times = _roots(fig_params, u)
        assert np.all(times > 0.0)
        p0 = emission_probabilities(fig_params, times).p0
        assert np.max(np.abs(p0 - u) / u) <= 1e-13

    def test_no_jump_when_dark_weight_survives(self):
        # Lossless atoms trap the dark weight: a trajectory does not jump
        # (NaN time, code -1) exactly when its u is at most P0(horizon).
        for params in (Parameters(g_a=1.0, g_b=1.0, kappa=1.0), INVERSION_REGIMES["gamma_zero"]):
            horizon = default_horizon(params)
            times, codes, detected = simulate_trajectories(params, 31, 0, 4096)
            u = _waiting_draws(31, 4096)
            stays = u <= emission_probabilities(params, horizon).p0
            assert 0 < np.count_nonzero(stays) < stays.size
            assert np.array_equal(np.isnan(times), stays)
            assert np.array_equal(codes == -1, stays)
            assert not np.any(detected[stays])
            assert np.all(times[~stays] <= horizon)

    def test_bad_horizon_rejected(self, fig_params):
        with pytest.raises(NegativeTimeError):
            simulate_trajectories(fig_params, 42, 0, 4, horizon=-1.0)

    @pytest.mark.parametrize("horizon", [1e-316, 5e-324])
    def test_subnormal_horizon_runs(self, fig_params, horizon):
        # Below a horizon of about 5e-315 the start table's first time
        # underflowed to 0 and numpy raised "Geometric sequence cannot
        # include zero"; P0 is 1 there, so every trajectory survives.
        times, codes, detected = simulate_trajectories(fig_params, 1, 0, 50, horizon=horizon)
        assert np.all(np.isnan(times))
        assert np.all(codes == -1)
        assert not np.any(detected)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, fig_params, horizon):
        # Unchecked, NaN and inf passed the positivity test and every
        # trajectory came back as no jump.
        with pytest.raises(ValueError, match="horizon must be finite"):
            simulate_trajectories(fig_params, 42, 0, 4, horizon=horizon)

    def test_default_horizon(self, fig_params):
        assert default_horizon(fig_params) == 15.0 / 1e-3
        assert default_horizon(Parameters(1.0, 1.0, 2.0)) == 25.0
        # 15/gamma overflows for a subnormal gamma: the gamma = 0 horizon.
        assert default_horizon(Parameters(1.0, 1.0, 2.0, 1e-310)) == 25.0
        # 15/gamma is finite, but the closed form's exponents overflow there.
        assert default_horizon(Parameters(1.0, 1.0, 2.0, 1e-307)) == 25.0
        assert default_horizon(Parameters(1.0, 1.0, 2.0, 1e-70)) == 1.5e71
        # 50/kappa overflows too: cut to the largest double over kappa + gamma + 2 Omega.
        rate = 1e-308 + 2.0 * math.sqrt(2.0)
        assert default_horizon(Parameters(1.0, 1.0, 1e-308)) == sys.float_info.max / rate

    def test_unconverged_inversion_raises(self, fig_params, monkeypatch):
        # Roots still moving when the step budget runs out raise; unchecked,
        # the unconverged times were returned and tallied as jumps.  (At
        # gamma = 1e-70 a table that started at 1e-9 * 15/gamma once made
        # this happen; the budget is cut here to reach the check at all.)
        monkeypatch.setattr(montecarlo, "_MAX_STEPS", 1)
        with pytest.raises(SimulationError, match="did not converge"):
            run_ensemble(fig_params, 4000, [1.0, 5.0], 3)

    @pytest.mark.parametrize("gamma", [0.0, 1e-310, 1e-307, 1e-70, 1e-64, 1e-3])
    def test_tiny_gamma_ensemble_matches_budget(self, gamma):
        # The start table reaches down into the cavity transient for every
        # gamma.  Once, at 1e-310 the horizon 15/gamma = inf raised "horizon
        # must be finite" although the caller passed none; at 1e-307 the
        # horizon overflowed the closed form and every trajectory was tallied
        # as no jump, with only warnings; at 1e-70 the table started past
        # every early root and the inversion gave up.  Warnings are errors
        # here (pyproject.toml).
        params = Parameters(1.0, 1.0, 1.0, gamma)
        n, grid = 4000, [1.0, 5.0]
        est = run_ensemble(params, n, grid, 3)
        exact = emission_probabilities(params, grid)
        for hat, ref in [(est.p0_hat, exact.p0), (est.p_cav_hat, exact.p_cav)]:
            assert np.all(np.abs(hat - ref) <= 3.0 * np.sqrt(ref * (1.0 - ref) / n))

    @pytest.mark.parametrize("gamma", [0.0, 1e-310])
    @pytest.mark.parametrize("kappa", [1e-306, 5e-307, 1e-308])
    def test_tiny_kappa_ensemble_matches_budget(self, kappa, gamma):
        # Once, at 1e-308 the horizon 50/kappa = inf raised "horizon must be
        # finite" although the caller passed none, and at 1e-306 and 5e-307
        # the Newton step overflowed (a RuntimeWarning, an error here).
        params = Parameters(1.0, 1.0, kappa, gamma)
        n, grid = 4000, [1.0, 5.0, 1e306]
        est = run_ensemble(params, n, grid, 3)
        exact = emission_probabilities(params, grid)
        for hat, ref in [(est.p0_hat, exact.p0), (est.p_cav_hat, exact.p_cav)]:
            assert np.all(np.abs(hat - ref) <= 3.0 * np.sqrt(ref * (1.0 - ref) / n))

    def test_non_finite_table_raises(self, fig_params, monkeypatch):
        # A survival law that is not finite is a broken invariant of the
        # closed form: no trajectory may be tallied from its table.
        factory = montecarlo._survival_kernel

        def nan_factory(params):
            kernel = factory(params)

            def nan_kernel(times, out=None):
                p0, *rates = kernel(times, out)
                p0[-1] = np.nan
                return (p0, *rates)

            return nan_kernel

        monkeypatch.setattr(montecarlo, "_survival_kernel", nan_factory)
        montecarlo._rate_table.cache_clear()
        try:
            with pytest.raises(SimulationError, match="not finite"):
                simulate_trajectories(fig_params, 3, 0, 16)
        finally:
            montecarlo._rate_table.cache_clear()

    def test_horizon_past_phase_limit_matches_budget(self, fig_params):
        # The phase S t/2 overflows from t of about 1.36e308, where e^{-a t/2}
        # is long 0: the table is finite and exact, every trajectory jumps
        # (u >= 2^-53 is reached by t of about 18 000), and the channel split
        # is the budget's.  (It once raised "survival law not finite".)
        horizon, n = 1.5e308, CHUNK
        assert propagator._rates(fig_params).phase_limit < horizon
        times, codes, _ = simulate_trajectories(fig_params, 3, 0, n, horizon=horizon)
        assert np.isfinite(times).all() and (times <= 20_000.0).all()
        exact = emission_probabilities(fig_params, horizon)
        assert exact.p0 == 0.0
        for hat, ref in [(np.mean(codes == 0), exact.p_cav), (np.mean(codes > 0), exact.p_spon)]:
            assert abs(hat - ref) <= 3.0 * math.sqrt(ref * (1.0 - ref) / n)


class TestClassifyJump:
    """The channel pick of ``simulate_trajectories`` (``montecarlo._classify``)."""

    V = np.array([0.0, 0.3, 0.5, 0.6, 0.999, 0.9999])

    @staticmethod
    def _classify(v, rates):
        return montecarlo._classify(v, *rates, np.empty((2, v.size)))

    @staticmethod
    def _rates(params, weights, size):
        """(w1, w_cav, w_a) of ``size`` jumps at the weights |c|^2 (cavity, a, b)."""
        w_cav, w_a, w_b = 2.0 * np.array([params.kappa, params.gamma, params.gamma]) * weights
        return np.full(size, w_cav + w_a + w_b), np.full(size, w_cav), np.full(size, w_a)

    def test_lossless_atoms_always_cavity(self):
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0)
        codes = self._classify(self.V, self._rates(p, np.array([0.36, 0.25, 0.09]), self.V.size))
        assert np.array_equal(codes, np.zeros(self.V.size))
        # At the jumps of a batch too: every lossless jump leaves by the mirrors.
        _, batch_codes, _ = simulate_trajectories(p, 8, 0, 2000)
        assert set(np.unique(batch_codes)) == {-1, 0}

    def test_zero_cavity_rate_never_cavity(self):
        # Stand-in with kappa = 0 (the library itself requires kappa > 0):
        # the cavity rate drops out of the thresholds entirely.
        fake = SimpleNamespace(kappa=0.0, gamma=1.0)
        codes = self._classify(self.V, self._rates(fake, np.array([0.64, 0.16, 0.16]), self.V.size))
        assert set(codes.tolist()) == {1, 2}
        assert np.array_equal(codes, np.where(self.V < 0.5, 1, 2))

    def test_threshold_order(self, fig_params):
        w_cav = 2.0 * fig_params.kappa * 0.25
        w_a = 2.0 * fig_params.gamma * 0.25
        total = w_cav + 2.0 * w_a
        v = np.array([w_cav / total - 1e-9, w_cav / total + 1e-9, (w_cav + w_a) / total + 1e-9])
        codes = self._classify(v, self._rates(fig_params, np.full(3, 0.25), 3))
        assert codes.dtype == np.int8
        assert codes.tolist() == [0, 1, 2]

    def test_zero_total_rate_is_cavity(self):
        # At gamma = 0 and t = 0 every rate vanishes: the channel as t -> 0+
        # is the cavity, whatever the draw.
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0)  # gamma = 0
        codes = self._classify(self.V, self._rates(p, np.array([0.0, 1.0, 0.0]), self.V.size))
        assert codes.tolist() == [0] * self.V.size

    @pytest.mark.parametrize("total", [-1e-300, -1.0, np.nan])
    def test_negative_or_nan_total_rate_raises(self, total):
        rates = (np.array([1.0, total]), np.array([0.5, 0.0]), np.array([0.25, 0.0]))
        with pytest.raises(SimulationError, match="negative or NaN"):
            self._classify(np.array([0.5, 0.5]), rates)

    def test_zero_draw_at_gamma_zero_is_cavity_jump(self, monkeypatch):
        # A zero Philox draw gives u = 1, whose root is t = 0, where all
        # three rates vanish at gamma = 0.  It is a cavity jump at t = 0, and
        # every other trajectory is left as it was.
        params = INVERSION_REGIMES["gamma_zero"]
        zeroed = 3 * CHUNK // 2 + 5
        draws = montecarlo._uniform_blocks

        def zero_one_draw(seed, start, out):
            out = draws(seed, start, out)
            if start <= zeroed < start + out.shape[0]:
                out[zeroed - start, 0] = 0.0
            return out

        plain = simulate_trajectories(params, 5, CHUNK, CHUNK)
        grid = [0.0, 1.0, 100.0]
        plain_counts = run_ensemble(params, 2 * CHUNK, grid, 5, workers=1).counts
        monkeypatch.setattr(montecarlo, "_uniform_blocks", zero_one_draw)
        times, codes, detected = simulate_trajectories(params, 5, CHUNK, CHUNK)
        k = zeroed - CHUNK
        assert (times[k], codes[k], detected[k]) == (0.0, 0, True)  # eta = 1
        others = np.arange(CHUNK) != k
        for got, want in zip((times, codes, detected), plain):
            assert np.array_equal(got[others], want[others], equal_nan=got.dtype.kind == "f")
        # In the ensemble the trajectory moves from its bin at each grid time
        # (no jump yet, or its plain channel) to the cavity's.
        expected = plain_counts.copy()
        channel_row = 1 if plain[1][k] == 0 else 2
        for j, t in enumerate(grid):
            expected[channel_row if plain[0][k] <= t else 0, j] -= 1  # NaN <= t is false
            expected[1, j] += 1
        assert np.array_equal(run_ensemble(params, 2 * CHUNK, grid, 5, workers=1).counts, expected)

    @pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
    def test_codes_match_amplitude_pick(self, name):
        # The rates of the converged Newton step pick the same channel as the
        # amplitudes formed afresh at the returned jump times.
        params = INVERSION_REGIMES[name]
        for seed in (2024, 77):
            times, codes, _ = simulate_trajectories(params, seed, 0, CHUNK)
            jumped = codes >= 0
            v = np.random.Generator(np.random.Philox(key=seed, counter=0)).random((CHUNK, 4))[jumped, 1]
            weights = conditional_state(params, times[jumped]) ** 2
            w_cav, w_a, w_b = (2.0 * np.array([params.kappa, params.gamma, params.gamma]) * weights).T
            total = w_cav + w_a + w_b
            expected = np.where(v < w_cav / total, 0, np.where(v < (w_cav + w_a) / total, 1, 2))
            assert np.array_equal(codes[jumped], expected)


class TestTrajectories:
    def test_single_matches_batch_element(self, fig_params):
        times, codes, detected = simulate_trajectories(fig_params, 42, 0, 16)
        for index in (0, 7, 15):
            single = simulate_trajectories(fig_params, 42, index, 1)
            assert np.array_equal(single[0], times[index : index + 1], equal_nan=True)
            assert np.array_equal(single[1], codes[index : index + 1])
            assert np.array_equal(single[2], detected[index : index + 1])

    def test_partition_independence(self, fig_params):
        whole = simulate_trajectories(fig_params, 42, 0, 64)
        first = simulate_trajectories(fig_params, 42, 0, 17)
        second = simulate_trajectories(fig_params, 42, 17, 47)
        assert np.array_equal(whole[0], np.concatenate([first[0], second[0]]), equal_nan=True)
        assert np.array_equal(whole[1], np.concatenate([first[1], second[1]]))
        assert np.array_equal(whole[2], np.concatenate([first[2], second[2]]))

    def test_sampled_times_satisfy_survival_law(self, fig_params):
        times, codes, _ = simulate_trajectories(fig_params, 11, 0, 64, horizon=50.0)
        jumped = codes >= 0
        p0 = emission_probabilities(fig_params, times[jumped][:10]).p0
        assert np.all((0.0 < p0) & (p0 < 1.0))  # root strictly inside the bracket

    def test_cavity_fraction_matches_budget(self, fig_params):
        times, codes, _ = simulate_trajectories(fig_params, 123, 0, 20_000, horizon=50.0)
        jumped = codes >= 0
        n_jumped = int(jumped.sum())
        fraction = float((codes == 0).sum()) / n_jumped
        expected = CHANNEL_BUDGET_AT_50[0] / CHANNEL_BUDGET_AT_50.sum()
        sigma = math.sqrt(expected * (1.0 - expected) / n_jumped)
        assert abs(fraction - expected) < 3.0 * sigma

    def test_channel_split_chi_squared(self, fig_params):
        times, codes, _ = simulate_trajectories(fig_params, 42, 0, 10_000, horizon=50.0)
        jumped = codes >= 0
        n_jumped = int(jumped.sum())
        counts = np.array([(codes == c).sum() for c in (0, 1, 2)], dtype=float)
        expected = n_jumped * CHANNEL_BUDGET_AT_50 / CHANNEL_BUDGET_AT_50.sum()
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_2DF_1PC

    def test_waiting_time_distribution_ks(self, fig_params):
        times, codes, _ = simulate_trajectories(fig_params, 42, 0, 10_000)
        jump_times = np.sort(times[codes >= 0])
        n = jump_times.size
        assert n == 10_000  # the horizon leaves only ~5e-14 survival weight
        horizon = default_horizon(fig_params)
        p0_end = emission_probabilities(fig_params, horizon).p0
        cdf = (1.0 - emission_probabilities(fig_params, jump_times).p0) / (1.0 - p0_end)
        ranks = np.arange(1, n + 1)
        statistic = max(
            float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1) / n))
        )
        assert statistic < KS_COEFFICIENT_1PC / math.sqrt(n)

    def test_detection_thinning(self):
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0, gamma=1e-3, eta=0.8)
        _, codes, detected = simulate_trajectories(p, 7, 0, 20_000, horizon=50.0)
        cavity = codes == 0
        assert np.all(cavity[detected])  # only mirror photons can click
        n_cav = int(cavity.sum())
        fraction = float(detected[cavity].mean())
        sigma = math.sqrt(0.8 * 0.2 / n_cav)
        assert abs(fraction - 0.8) < 3.0 * sigma

    def test_unit_efficiency_detects_every_cavity_jump(self, fig_params):
        _, codes, detected = simulate_trajectories(fig_params, 5, 0, 2_000, horizon=50.0)
        assert np.array_equal(detected, codes == 0)

    @pytest.mark.parametrize("eta", [1.0, 0.8, 0.3, 0.0])
    def test_detection_reads_the_third_draw(self, eta):
        # A cavity jump clicks when draw 2 of its trajectory's Philox block,
        # not the spare draw 3, is below eta, on every inversion regime, in
        # every chunk of a wide batch and in a batch of one trajectory.
        seed, start = 23, 9
        for name, rates in INVERSION_REGIMES.items():
            params = dataclasses.replace(rates, eta=eta)
            for count in (CHUNK + 3001, 1):
                _, codes, detected = simulate_trajectories(params, seed, start, count)
                draws = np.random.Generator(np.random.Philox(key=seed, counter=start)).random((count, 4))
                assert np.array_equal(detected, (codes == 0) & (draws[:, 2] < eta)), (name, count)
        # The staircase set's one trajectory does not jump: a chunk with no jumper.
        assert simulate_trajectories(INVERSION_REGIMES["staircase"], seed, start, 1)[1][0] == -1

    def test_argument_validation(self, fig_params):
        with pytest.raises(ValueError):
            simulate_trajectories(fig_params, 42, -1, 4)
        with pytest.raises(ValueError):
            simulate_trajectories(fig_params, 42, 0, 0)
        with pytest.raises(ValueError):
            simulate_trajectories(fig_params, -1, 0, 4)
        with pytest.raises(ValueError):
            simulate_trajectories(fig_params, 2**64, 0, 4)
        with pytest.raises(NegativeTimeError):
            simulate_trajectories(fig_params, 42, 0, 4, horizon=0.0)


class TestInversion:
    @pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
    def test_jump_times_solve_survival_law(self, name):
        params = INVERSION_REGIMES[name]
        times, codes, _ = simulate_trajectories(params, 2024, 0, CHUNK)
        jumped = codes >= 0
        assert np.all(np.isnan(times) == ~jumped)
        draws = np.random.Generator(np.random.Philox(key=2024, counter=0)).random((CHUNK, 4))
        u = 1.0 - draws[jumped, 0]
        p0 = emission_probabilities(params, times[jumped]).p0
        assert np.max(np.abs(p0 - u) / u) <= 1e-13

    @pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
    def test_uneven_splits_are_bit_identical(self, name):
        # The active set of each batch shrinks differently, so a root must
        # not depend on which other roots share its batch.
        params = INVERSION_REGIMES[name]
        whole = simulate_trajectories(params, 77, 0, CHUNK)
        parts = [
            simulate_trajectories(params, 77, start, count)
            for start, count in ((0, 1000), (1000, 7), (1007, CHUNK - 1007))
        ]
        for k in range(3):
            joined = np.concatenate([part[k] for part in parts])
            assert np.array_equal(whole[k], joined, equal_nan=True)

    @staticmethod
    def _kernel_points(params, monkeypatch):
        """Points of each Newton-step kernel call of one chunk, and per jump.

        The chunk runs on a cold start-table cache, whose one table call is
        counted apart, and again on the warm cache, which must take the same
        steps and make no table call.  The channel pick evaluates nothing:
        the amplitudes are formed only inside the kernel calls.
        """
        points, amplitude_points = [], []
        factory = montecarlo._survival_kernel
        amplitudes = propagator._amplitudes

        def counting_factory(p):
            kernel = factory(p)

            def counting(t, out=None):
                points.append(t.size)
                return kernel(t, out)

            return counting

        def counting_amplitudes(p, factors, out=None):
            amplitude_points.append(np.size(factors[0]))
            return amplitudes(p, factors, out)

        def no_amplitudes(*args):
            raise AssertionError("amplitudes formed for the channel pick")

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_survival_kernel", counting_factory)
            patch.setattr(montecarlo, "conditional_state", no_amplitudes)
            patch.setattr(propagator, "_amplitudes", counting_amplitudes)
            montecarlo._rate_table.cache_clear()
            _, codes, _ = simulate_trajectories(params, 42, 0, CHUNK)
            (table, *steps), points[:] = points, []
            simulate_trajectories(params, 42, 0, CHUNK)
        assert table == montecarlo._TABLE_POINTS + 1
        assert points == steps
        assert amplitude_points == [table, *steps, *steps]
        return steps, sum(steps) / int(np.sum(codes >= 0))

    def test_kernel_calls_per_chunk(self, monkeypatch):
        # One table call on a cold cache plus a few Newton steps, each on the
        # trajectories still active.  The quintic start meets the residual
        # tolerance at once for most roots, so a chunk costs about one point
        # per jump; bisection of [0, horizon], Newton fallen back to linear
        # convergence, or steps over the whole chunk cost far more.
        for name in ("paper", "overdamped", "gamma_zero"):
            steps, per_jump = self._kernel_points(INVERSION_REGIMES[name], monkeypatch)
            assert len(steps) <= 3, name
            assert per_jump <= 1.3, name
            if name == "paper":
                # ~18.9k points, against 25.1k from the cubic start and
                # 45.6k when the table was rebuilt per chunk and the
                # amplitudes re-evaluated for the channel.
                assert sum(steps) <= 20_000

    # Newton kernel calls of a warm chunk at seed 42.  Each call evaluates a
    # root still moving; a pass after every root has stopped on the
    # bracket-width or unchanged-t rule would evaluate only stopped roots.
    NEWTON_CALLS = {
        "paper": 2,
        "overdamped": 2,
        "critical": 2,
        "bad_cavity": 2,
        "kappa_1e6": 3,
        "gamma_zero": 3,
        "gb_zero": 3,
        "staircase": 18,
    }

    @pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
    def test_no_kernel_pass_after_last_root_stops(self, name, monkeypatch):
        steps, _ = self._kernel_points(INVERSION_REGIMES[name], monkeypatch)
        assert len(steps) <= self.NEWTON_CALLS[name]

    def test_kernel_points_when_kappa_is_small(self, monkeypatch):
        # The staircase defeats the table start, so more steps are taken,
        # but only over the few roots that have not yet converged.
        _, per_jump = self._kernel_points(INVERSION_REGIMES["staircase"], monkeypatch)
        assert per_jump <= 6.4

    @pytest.mark.parametrize("name", ["paper", "gamma_zero"])
    def test_single_root_matches_batch(self, name):
        # A root inverted on its own is the root of the batch, bit for bit.
        params = INVERSION_REGIMES[name]
        times, codes, _ = simulate_trajectories(params, 5, 0, 64)
        u = _waiting_draws(5, 64)
        jumped = np.flatnonzero(codes >= 0)[:12]
        for i in jumped:
            single = _roots(params, u[i : i + 1])
            assert single[0] == times[i]
            assert abs(emission_probabilities(params, single[0]).p0 - u[i]) <= 1e-13 * u[i]


class TestStopRules:
    """Roots that cannot meet the residual tolerance stop on the other two rules.

    The real kernel is wrapped to round P0 to a relative grid of 2^-40, so
    that |log P0 - log u| stays near 1e-12 for almost every root and the
    inversion must end it on the bracket width or on a step that leaves t
    unchanged, after the stop test and the gather have run.
    """

    @staticmethod
    def _quantized(kernel):
        def rounded(t, out=None):
            p0, *rates = kernel(t, out)
            mantissa, exponent = np.frexp(p0)
            np.ldexp(np.round(np.ldexp(mantissa, 40)), exponent - 40, out=p0)
            return (p0, *rates)

        return rounded

    @pytest.mark.parametrize("name", ["paper", "staircase"])
    def test_roots_stop_on_bracket_or_unchanged_time(self, name):
        params = INVERSION_REGIMES[name]
        kernel, table = _table(params, default_horizon(params))
        u = _waiting_draws(6, 3000)
        u = u[u > table.p0_end]
        roots = _inversion(params, u, self._quantized)
        times = roots[0]
        assert np.all((times >= 0.0) & (times <= table.times[-1]))
        p0, *rates = self._quantized(kernel)(times)
        for returned, evaluated in zip(roots[1:], rates):
            assert np.array_equal(returned, evaluated)
        missed = np.abs(np.log(p0) - np.log(u)) > montecarlo._RESIDUAL_TOL
        assert np.count_nonzero(missed) > 0.9 * u.size
        for i in range(0, u.size, 23):
            assert np.array_equal(_inversion(params, u[i : i + 1], self._quantized), roots[:, i : i + 1])


class TestStartTableCache:
    """``_start_table`` builds each (rates, horizon) table once and shares it."""

    @staticmethod
    def _outputs(params, seed=42):
        """A chunk's results and its table, as bytes."""
        results = simulate_trajectories(params, seed, 0, 4096)
        table = montecarlo._start_table(params, default_horizon(params))
        return [np.asarray(a).tobytes() for a in (*results, *table)]

    def test_shared_arrays_are_read_only(self, fig_params):
        table = montecarlo._start_table(fig_params, default_horizon(fig_params))
        for array in (table.times, table.descending, table.intervals):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("name", ["paper", "overdamped", "critical", "gamma_zero", "staircase"])
    def test_derivatives_match_oracle(self, name):
        # Each interval's quintic starts with dt/dy and d2t/dy2 of the
        # inverse t(y), y = log P0, at its lower table time, and the quintic
        # of the interval before ends with the same second derivative.  The
        # oracle differentiates log P0 in 50-digit decimal arithmetic.
        params = INVERSION_REGIMES[name]
        table = montecarlo._start_table(params, default_horizon(params))
        matrix = model._generator_matrix(params)
        checked = 0
        for k in (1, 300, 1500, 2500, 3500, 4000):
            rows = table.intervals[k - 1 : k + 1]
            if not np.isfinite(rows).all():
                continue  # a flat step of the envelope, or w1 = 0 at t = 0
            t = table.times[k]
            tangent, curvature = inverse_log_survival_derivatives(matrix, t, 1e-9 * t)
            (_, inverse_before, _, *before), (_, inverse, _, a1, a2, *_) = rows
            # On the staircase w1 comes from amplitudes near a cancellation
            # and carries up to ~1e-8 relative error.  Where y'' is ~0 (a
            # pure exponential), the table's d2t/dy2 is round-off on the
            # scale of (dt/dy)^2 / t.
            rel = 1e-6 if name == "staircase" else 1e-8
            assert a1 * inverse == pytest.approx(tangent, rel=rel)
            tolerance = rel * abs(curvature) + 1e-9 * tangent * tangent / t
            assert abs(2.0 * a2 * inverse * inverse - curvature) <= tolerance
            terms = np.array([2.0, 6.0, 12.0, 20.0]) * before[1:] * inverse_before * inverse_before
            assert abs(terms.sum() - curvature) <= tolerance + 1e-12 * np.abs(terms).sum()
            checked += 1
        assert checked >= 4

    def test_cold_and_warm_bit_identical(self):
        for params in INVERSION_REGIMES.values():
            montecarlo._rate_table.cache_clear()
            cold = self._outputs(params)
            assert montecarlo._rate_table.cache_info().misses == 1
            warm = self._outputs(params)
            assert montecarlo._rate_table.cache_info().misses == 1
            assert cold == warm

    def test_threads_match_serial(self):
        sets = list(INVERSION_REGIMES.values())
        serial = [self._outputs(p, seed) for p in sets for seed in (1, 2)]
        interval = sys.getswitchinterval()
        montecarlo._rate_table.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(self._outputs, p, seed) for p in sets for seed in (1, 2)]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_negative_zero_rates_share_one_entry(self):
        # -0.0 and 0.0 are one cache key; the results of either must not
        # depend on which of them filled the entry.
        signed = Parameters(g_a=1.0, g_b=-0.0, kappa=1.0, gamma=-0.0)
        plain = Parameters(g_a=1.0, g_b=0.0, kappa=1.0, gamma=0.0)
        assert math.copysign(1.0, signed.g_b) == math.copysign(1.0, signed.gamma) == -1.0
        for params, other in [(signed, plain), (plain, signed)]:
            montecarlo._rate_table.cache_clear()
            cold = self._outputs(params)
            montecarlo._rate_table.cache_clear()
            self._outputs(other)
            after_other = self._outputs(params)
            assert montecarlo._rate_table.cache_info().currsize == 1
            assert cold == after_other

    def test_ensemble_sweep_holds_at_most_eight_tables(self):
        # A sweep over many rate sets keeps only the last few tables.
        montecarlo._rate_table.cache_clear()
        for k in range(20):
            run_ensemble(Parameters(1.0, 1.0 + 0.01 * k, 1.0, 1e-3), 64, [1.0], k)
        info = montecarlo._rate_table.cache_info()
        assert (info.misses, info.currsize) == (20, 8)

    def test_benchmark_sets_built_once(self):
        # The three rate sets of the mc_ensemble benchmark, cycled as its
        # rounds cycle them: each table is built once.
        sets = [
            (Parameters(1.0, 1.0, 1.0, 1e-3), [0.5, 5000.0]),
            (Parameters(1.0, 1.0, 20.0, 1e-3), [0.5, 5000.0]),
            (Parameters(1.0, 0.6, 1.0, 0.0), [0.5, 50.0]),
        ]
        montecarlo._rate_table.cache_clear()
        for seed in (1, 2):
            for params, grid in sets:
                run_ensemble(params, 256, grid, seed)
        info = montecarlo._rate_table.cache_info()
        assert (info.misses, info.currsize) == (3, 3)

    def test_cache_is_bounded(self, fig_params):
        montecarlo._rate_table.cache_clear()
        maxsize = montecarlo._rate_table.cache_info().maxsize
        assert maxsize == 8
        for k in range(maxsize + 5):
            montecarlo._start_table(fig_params, 50.0 + k)
        assert montecarlo._rate_table.cache_info().currsize == maxsize


class TestWorkspace:
    """Each thread's chunks compute in one set of buffers, kept between calls."""

    def test_second_chunk_allocates_little(self, fig_params):
        # A warm chunk allocates its results (160 KiB), the argsort and the
        # table search; with fresh intermediates it peaked at 4.4 MiB.
        simulate_trajectories(fig_params, 7, 0, CHUNK)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_trajectories(fig_params, 8, 0, CHUNK)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_many_step_chunk_allocates_little(self, monkeypatch):
        # A warm staircase chunk takes about 20 Newton steps over ~4200
        # jumps.  Each step may allocate the indices of the roots it keeps,
        # but gathers them into the kept buffers: fresh arrays for the
        # gathered rows raise the steps' sum from 0.34 to 1.8 MiB (1.0 MiB
        # for the state rows alone), while the chunk's peak, 0.43 MiB, rises
        # only to 1.1 MiB, since each is freed a step later.  A step's
        # allocation is the traced peak above the memory at its start; the
        # first mark ends the work before the first step.
        params = INVERSION_REGIMES["staircase"]
        steps, start, peaks = [], [0], []
        kernel_factory, invert = montecarlo._survival_kernel, montecarlo._invert_survival

        def mark():
            peaks.append(tracemalloc.get_traced_memory()[1])
            steps.append(peaks[-1] - start[0])
            tracemalloc.reset_peak()
            start[0] = tracemalloc.get_traced_memory()[0]

        def marking_factory(p):
            kernel = kernel_factory(p)

            def marking(t, out=None):
                mark()
                return kernel(t, out)

            return marking

        def marking_invert(*args):
            roots = invert(*args)
            mark()
            return roots

        monkeypatch.setattr(montecarlo, "_survival_kernel", marking_factory)
        monkeypatch.setattr(montecarlo, "_invert_survival", marking_invert)
        simulate_trajectories(params, 7, 0, CHUNK)
        steps.clear()
        tracemalloc.start()
        try:
            start[0] = base = tracemalloc.get_traced_memory()[0]
            simulate_trajectories(params, 8, 0, CHUNK)
            peak = max(*peaks, tracemalloc.get_traced_memory()[1]) - base
        finally:
            tracemalloc.stop()
        assert len(steps) >= 15
        assert peak <= 1.5 * 2**20
        assert sum(steps[1:]) <= 0.75 * 2**20

    def test_kept_buffers_bounded_by_chunk(self, fig_params):
        # A wider batch runs chunk by chunk in the thread's buffers: a warm
        # 4-chunk batch peaks at its results, their parts and one chunk's
        # allocations (1.25 MiB); buffers of the batch's own width peaked at
        # 20.4 MiB.  Its results are those of any other split.
        simulate_trajectories(fig_params, 3, 0, CHUNK)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_trajectories(fig_params, 3, 0, 4 * CHUNK)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20
        size = 3 * CHUNK + 5
        for params in (fig_params, INVERSION_REGIMES["staircase"]):
            for start in (0, 777):
                wide = simulate_trajectories(params, 3, start, size)
                parts = [
                    simulate_trajectories(params, 3, begin, min(10_000, start + size - begin))
                    for begin in range(start, start + size, 10_000)
                ]
                for k in range(3):
                    whole = np.concatenate([part[k] for part in parts])
                    assert np.array_equal(wide[k], whole, equal_nan=True)

    def test_concurrent_threads_on_different_rates_match_serial(self):
        # Three threads (more than the cores of a small machine) run chunks
        # of different widths on different rate sets at once; each must get
        # the results of a serial run.
        jobs = [
            (INVERSION_REGIMES["paper"], [(0, CHUNK), (5, 300), (CHUNK, CHUNK)]),
            (INVERSION_REGIMES["staircase"], [(0, 4000), (0, CHUNK), (77, 5)]),
            (INVERSION_REGIMES["overdamped"], [(3, 999), (0, CHUNK), (1, 1)]),
        ]

        def run(params, spans):
            return [
                [np.asarray(a).tobytes() for a in simulate_trajectories(params, 9, start, count)]
                for start, count in spans
            ]

        serial = [run(*job) for job in jobs]
        barrier = threading.Barrier(len(jobs))
        threaded = [None] * len(jobs)

        def worker(k):
            barrier.wait(timeout=60)
            threaded[k] = run(*jobs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial


class TestEnsemble:
    def test_single_trajectory_is_one_hot(self, fig_params):
        grid = np.array([0.0, 1.0, 5.0])
        est = run_ensemble(fig_params, 1, grid, seed=3)
        stacked = np.stack([est.p0_hat, est.p_cav_hat, est.p_spon_hat])
        assert np.all((stacked == 0.0) | (stacked == 1.0))
        assert np.array_equal(stacked.sum(axis=0), np.ones(3))
        assert np.all(est.p0_stderr == 0.0)

    def test_budget_partition_is_exact(self, fig_params):
        grid = np.linspace(0.0, 50.0, 11)
        est = run_ensemble(fig_params, 5_000, grid, seed=9)
        total = est.p0_hat + est.p_cav_hat + est.p_spon_hat
        assert np.max(np.abs(total - 1.0)) < 1e-12
        assert np.array_equal(est.counts.sum(axis=0), np.full(grid.size, 5_000))
        assert np.array_equal(est.p_cav_hat, est.counts[1] / 5_000)
        assert not est.counts.flags.writeable

    def test_estimates_match_closed_form(self, fig_params):
        grid = np.array([1.0, 5.0, 50.0])
        est = run_ensemble(fig_params, 20_000, grid, seed=42)
        exact = emission_probabilities(fig_params, grid)
        for hat, err, ref in [
            (est.p0_hat, est.p0_stderr, exact.p0),
            (est.p_cav_hat, est.p_cav_stderr, exact.p_cav),
            (est.p_spon_hat, est.p_spon_stderr, exact.p_spon),
        ]:
            assert np.all(np.abs(hat - ref) < 4.0 * err + 1e-12)

    def test_worker_count_does_not_change_results(self, fig_params):
        grid = np.linspace(0.0, 30.0, 7)
        serial = run_ensemble(fig_params, 40_000, grid, seed=7, workers=1)
        threaded = run_ensemble(fig_params, 40_000, grid, seed=7, workers=8)
        assert np.array_equal(serial.p0_hat, threaded.p0_hat)
        assert np.array_equal(serial.p_cav_hat, threaded.p_cav_hat)
        assert np.array_equal(serial.p_spon_hat, threaded.p_spon_hat)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, fig_params, workers):
        grid = np.linspace(0.0, 10.0, 5)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_ensemble(fig_params, 100, grid, seed=1, workers=workers)

    @pytest.mark.parametrize("workers", [2.5, np.float64(2.0), "2"])
    def test_non_integral_worker_count_rejected(self, fig_params, workers):
        # int() once truncated it: workers = 2.5 ran 2 workers.
        with pytest.raises(TypeError):
            run_ensemble(fig_params, 100, [1.0], seed=1, workers=workers)

    @staticmethod
    def _pool_sizes(monkeypatch, cpus):
        """Fix the usable CPUs and record the size of every pool run_ensemble builds."""
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize(
        "cpus, chunks, pool",
        [(8, 1, None), (8, 5, None), (8, 6, 2), (8, 12, 4), (8, 61, 8), (2, 61, 2), (1, 61, None)],
    )
    def test_automatic_worker_count(self, monkeypatch, fig_params, cpus, chunks, pool):
        # One worker per _CHUNKS_PER_WORKER chunks, at most one per usable
        # CPU; below two workers no pool is built.  The chunks' tallies are
        # faked: only the pool's size is under test.
        sizes = self._pool_sizes(monkeypatch, cpus)
        monkeypatch.setattr(montecarlo, "_tally_chunk", lambda *args: (np.zeros(1, np.int64),) * 2)
        est = run_ensemble(fig_params, chunks * CHUNK, [1.0], seed=1)
        assert est.counts[0, 0] == chunks * CHUNK
        assert sizes == ([] if pool is None else [pool])
        assert montecarlo._CHUNKS_PER_WORKER == 3

    @pytest.mark.parametrize("n", [CHUNK, 2 * CHUNK, 5 * CHUNK, 6 * CHUNK, 61 * CHUNK, 6 * CHUNK + 1234])
    def test_automatic_count_matches_one_worker(self, monkeypatch, fig_params, n):
        sizes = self._pool_sizes(monkeypatch, 4)
        grid = np.linspace(0.0, 30.0, 7)
        automatic = run_ensemble(fig_params, n, grid, seed=7)
        assert sizes == ([min(4, -(-n // CHUNK) // 3)] if n >= 6 * CHUNK else [])
        serial = run_ensemble(fig_params, n, grid, seed=7, workers=1)
        assert np.array_equal(automatic.counts, serial.counts)

    def test_usable_cpus_follow_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._usable_cpus() == len(os.sched_getaffinity(0))
        assert montecarlo._usable_cpus() >= 1

    def test_stderr_formula(self, fig_params):
        grid = np.array([5.0])
        est = run_ensemble(fig_params, 1_000, grid, seed=2)
        expected = np.sqrt(est.p0_hat * (1.0 - est.p0_hat) / 1_000)
        assert np.allclose(est.p0_stderr, expected, atol=1e-15)

    def test_grid_validation(self, fig_params):
        with pytest.raises(ValueError, match="at least one time"):
            run_ensemble(fig_params, 10, np.array([]), seed=0)
        with pytest.raises(NegativeTimeError):
            run_ensemble(fig_params, 10, np.array([-1.0, 2.0]), seed=0)
        with pytest.raises(ValueError):
            run_ensemble(fig_params, 10, np.array([2.0, 1.0]), seed=0)
        with pytest.raises(ValueError):
            run_ensemble(fig_params, 0, np.array([1.0]), seed=0)

    @pytest.mark.parametrize("n, seed", [(2.9, 1), (np.float64(100.0), 1), (100, 1.7), (100, np.float64(3.0))])
    def test_non_integral_size_or_seed_rejected(self, fig_params, n, seed):
        # int() once truncated them: n = 2.9 ran 2 trajectories, seed = 1.7 ran seed 1.
        with pytest.raises(TypeError):
            run_ensemble(fig_params, n, [1.0], seed)
        with pytest.raises(TypeError):
            simulate_trajectories(fig_params, seed, 0, n)

    def test_numpy_integers_accepted(self, fig_params):
        plain = run_ensemble(fig_params, 300, [1.0, 5.0], 3)
        numpy_ints = run_ensemble(fig_params, np.int64(300), [1.0, 5.0], np.uint64(3))
        assert np.array_equal(plain.counts, numpy_ints.counts)
        assert type(numpy_ints.n) is int

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_grid_rejected(self, fig_params, bad):
        # Unchecked, inf tallied nobody as jumped by t = 1, and NaN was
        # tallied as t -> infinity.
        with pytest.raises(ValueError, match="grid times must be finite"):
            run_ensemble(fig_params, 200, [1.0, bad], 3)

    def test_grid_beyond_default_horizon_extends_sampling(self):
        # Lossless atoms keep 50% survival: grid times past the default
        # horizon must still tally correctly (no jump ever lands beyond it).
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0)
        est = run_ensemble(p, 2_000, np.array([10.0, 200.0]), seed=4)
        assert est.p0_hat[-1] == pytest.approx(0.5, abs=0.05)


class TestChunkContract:
    """``run_ensemble`` is one ``montecarlo.simulate_trajectories`` call per chunk, at the last grid time.

    No jump after the last grid time is tallied, so no root is solved past
    it.  A benchmark tracer wraps that module-global name and divides by its
    calls.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, CHUNK, 2 * CHUNK + 1])
    def test_one_call_per_chunk(self, monkeypatch, fig_params, n, workers):
        calls, lock = [], threading.Lock()
        simulate = montecarlo.simulate_trajectories

        def recording(params, seed, start, count, horizon=None):
            with lock:
                calls.append((start, count, horizon))
            return simulate(params, seed, start, count, horizon)

        monkeypatch.setattr(montecarlo, "simulate_trajectories", recording)
        run_ensemble(fig_params, n, [0.0, 2.0, 7.5], 5, workers=workers)
        assert sorted(calls) == [(start, min(CHUNK, n - start), 7.5) for start in range(0, n, CHUNK)]
        # A grid that ends at t = 0 leaves simulate_trajectories its default horizon.
        calls.clear()
        run_ensemble(fig_params, n, [0.0], 5, workers=workers)
        assert sorted(calls) == [(start, min(CHUNK, n - start), None) for start in range(0, n, CHUNK)]

    @pytest.mark.parametrize("name", sorted(INVERSION_REGIMES))
    def test_counts_are_a_tally_of_the_trajectories(self, name):
        params, n = INVERSION_REGIMES[name], CHUNK + 77
        grid = np.array([0.0, 1e-4, 0.3, 2.0, 9.0])
        for seed in (3, 40):
            counts = run_ensemble(params, n, grid, seed, workers=1).counts
            times, codes, _ = simulate_trajectories(params, seed, 0, n, grid[-1])
            jumped = np.where(np.isnan(times), np.inf, times)[:, None] <= grid
            cavity = np.sum(jumped & (codes == 0)[:, None], axis=0)
            spontaneous = np.sum(jumped & (codes > 0)[:, None], axis=0)
            assert np.array_equal(counts, [n - cavity - spontaneous, cavity, spontaneous])


def _golden_count_grid(params):
    """0 and 64 log-spaced times from the cavity transient up to the default horizon.

    Every jump lies at or before the horizon, so the last time counts them all.
    """
    horizon = default_horizon(params)
    grid = np.concatenate(([0.0], np.geomspace(1e-3 / (params.kappa + params.gamma), horizon, 64)))
    grid[-1] = horizon
    return grid


def _golden_count_lines(grids=None):
    """The lines of data/golden/ensemble_counts.csv, computed by the installed package.

    ``grids`` maps each regime to its grid times, by default
    ``_golden_count_grid``.  Rewrite the file with ``PYTHONPATH=src:tests
    python -c "import test_montecarlo as m; m._write_golden_counts()"``.
    """
    yield GOLDEN_COUNT_HEADER
    for name in sorted(INVERSION_REGIMES):
        params = INVERSION_REGIMES[name]
        grid = _golden_count_grid(params) if grids is None else grids[name]
        for seed in GOLDEN_COUNT_SEEDS:
            counts = run_ensemble(params, GOLDEN_COUNT_SIZE, grid, seed, workers=1).counts
            for t, column in zip(grid, counts.T):
                yield ",".join([name, str(seed), repr(float(t)), *map(str, column)])


def _write_golden_counts():
    GOLDEN_COUNTS.write_text("".join(line + "\n" for line in _golden_count_lines()))


class TestGoldenCounts:
    """run_ensemble counts, exactly as committed in data/golden/ensemble_counts.csv.

    Eight regimes, two seeds, 40 000 trajectories each (two full chunks and
    a partial one) on ``_golden_count_grid``.  A change to the inversion or
    the tally that moves any jump across a grid time, or into another
    channel, changes a count here.
    """

    def test_matches_committed_counts(self):
        committed = GOLDEN_COUNTS.read_text().splitlines()
        assert committed[0] == GOLDEN_COUNT_HEADER
        assert len(committed) == 1 + len(INVERSION_REGIMES) * len(GOLDEN_COUNT_SEEDS) * 65
        # The grid is read back from the file's t column, whose repr round-trips:
        # numpy picks its exp and log kernels by CPU, so geomspace may move a
        # time by an ulp elsewhere, and a jump at that time to the next bin.
        grids = {}
        for line in committed[1:]:
            name, seed, t = line.split(",")[:3]
            if int(seed) == GOLDEN_COUNT_SEEDS[0]:
                grids.setdefault(name, []).append(float(t))
        for name, grid in grids.items():
            np.testing.assert_allclose(grid, _golden_count_grid(INVERSION_REGIMES[name]), rtol=1e-13, atol=0.0)
        assert list(_golden_count_lines(grids)) == committed
