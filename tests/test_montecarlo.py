import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from darkstate_sim import (
    EmptyGridError,
    NegativeTimeError,
    Parameters,
    SimulationError,
    ZeroRateError,
    conditional_state,
    default_horizon,
    emission_probabilities,
    run_ensemble,
    simulate_trajectories,
)
from conftest import INVERSION_REGIMES
from darkstate_sim import montecarlo, propagator

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


def _table(params, horizon):
    """The kernel and the (cached) start table of ``simulate_trajectories``."""
    return montecarlo._survival_kernel(params), montecarlo._start_table(params, horizon)


def _roots(params, u):
    """Jump times for the uniforms ``u``, by the batch root finder alone."""
    kernel, table = _table(params, default_horizon(params))
    bracket = montecarlo._bracket_from_table(table, np.asarray(u, dtype=float))
    return montecarlo._invert_survival(kernel, *bracket)[0]


def _waiting_draws(seed, count):
    """The waiting-time uniforms u of trajectories 0 .. count-1 under ``seed``."""
    draws = np.random.Generator(np.random.Philox(key=seed, counter=0)).random((count, 4))
    return 1.0 - draws[:, 0]


class TestWaitingTime:
    def test_u_one_maps_to_time_zero(self, fig_params):
        # u = 1 starts at t = 0 exactly and the inversion leaves it there,
        # also beside roots that do move.
        for params in (fig_params, INVERSION_REGIMES["gamma_zero"]):
            kernel, table = _table(params, default_horizon(params))
            u = np.array([1.0, 0.5, 1.0])
            bracket = montecarlo._bracket_from_table(table, u)
            assert bracket[3][0] == bracket[3][2] == 0.0
            times, total, cavity, atom_a = montecarlo._invert_survival(kernel, *bracket)
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

    def test_non_finite_table_raises(self, fig_params):
        # A horizon past which the closed form's exponents overflow: the
        # table is not finite, and no trajectory may be tallied from it.
        with pytest.raises(SimulationError, match="not finite"):
            simulate_trajectories(fig_params, 3, 0, 16, horizon=1.5e308)


class TestClassifyJump:
    """The channel pick of ``simulate_trajectories`` (``montecarlo._classify``)."""

    V = np.array([0.0, 0.3, 0.5, 0.6, 0.999, 0.9999])

    @staticmethod
    def _rates(params, weights, size):
        """(w1, w_cav, w_a) of ``size`` jumps at the weights |c|^2 (cavity, a, b)."""
        w_cav, w_a, w_b = 2.0 * np.array([params.kappa, params.gamma, params.gamma]) * weights
        return np.full(size, w_cav + w_a + w_b), np.full(size, w_cav), np.full(size, w_a)

    def test_lossless_atoms_always_cavity(self):
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0)
        codes = montecarlo._classify(self.V, *self._rates(p, np.array([0.36, 0.25, 0.09]), self.V.size))
        assert np.array_equal(codes, np.zeros(self.V.size))
        # At the jumps of a batch too: every lossless jump leaves by the mirrors.
        _, batch_codes, _ = simulate_trajectories(p, 8, 0, 2000)
        assert set(np.unique(batch_codes)) == {-1, 0}

    def test_zero_cavity_rate_never_cavity(self):
        # Stand-in with kappa = 0 (the library itself requires kappa > 0):
        # the cavity rate drops out of the thresholds entirely.
        fake = SimpleNamespace(kappa=0.0, gamma=1.0)
        codes = montecarlo._classify(self.V, *self._rates(fake, np.array([0.64, 0.16, 0.16]), self.V.size))
        assert set(codes.tolist()) == {1, 2}
        assert np.array_equal(codes, np.where(self.V < 0.5, 1, 2))

    def test_threshold_order(self, fig_params):
        w_cav = 2.0 * fig_params.kappa * 0.25
        w_a = 2.0 * fig_params.gamma * 0.25
        total = w_cav + 2.0 * w_a
        v = np.array([w_cav / total - 1e-9, w_cav / total + 1e-9, (w_cav + w_a) / total + 1e-9])
        codes = montecarlo._classify(v, *self._rates(fig_params, np.full(3, 0.25), 3))
        assert codes.dtype == np.int8
        assert codes.tolist() == [0, 1, 2]

    def test_zero_total_rate_raises(self):
        p = Parameters(g_a=1.0, g_b=1.0, kappa=1.0)  # gamma = 0
        with pytest.raises(ZeroRateError):
            montecarlo._classify(np.array([0.5]), *self._rates(p, np.array([0.0, 1.0, 0.0]), 1))

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
        the amplitudes are never formed.
        """
        points = []
        factory = montecarlo._survival_kernel

        def counting_factory(p):
            kernel = factory(p)

            def counting(t):
                points.append(t.size)
                return kernel(t)

            return counting

        def no_amplitudes(*args):
            raise AssertionError("amplitudes formed for the channel pick")

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_survival_kernel", counting_factory)
            patch.setattr(montecarlo, "conditional_state", no_amplitudes)
            patch.setattr(propagator, "_propagate", no_amplitudes)
            montecarlo._rate_table.cache_clear()
            _, codes, _ = simulate_trajectories(params, 42, 0, CHUNK)
            (table, *steps), points[:] = points, []
            simulate_trajectories(params, 42, 0, CHUNK)
        assert table == montecarlo._TABLE_POINTS + 1
        assert points == steps
        return steps, sum(steps) / int(np.sum(codes >= 0))

    def test_kernel_calls_per_chunk(self, monkeypatch):
        # One table call on a cold cache plus a few Newton steps, each on the
        # trajectories still active; bisection of [0, horizon], Newton fallen
        # back to linear convergence, or steps over the whole chunk cost far
        # more.
        for name in ("paper", "overdamped", "gamma_zero"):
            steps, per_jump = self._kernel_points(INVERSION_REGIMES[name], monkeypatch)
            assert len(steps) <= 5, name
            assert per_jump <= 2.5, name
            if name == "paper":
                # ~25k points, against 45.6k when the table was rebuilt per
                # chunk and the amplitudes re-evaluated for the channel.
                assert sum(steps) <= 27_000

    def test_kernel_points_when_kappa_is_small(self, monkeypatch):
        # The staircase defeats the table start, so more steps are taken,
        # but only over the few roots that have not yet converged.
        _, per_jump = self._kernel_points(INVERSION_REGIMES["staircase"], monkeypatch)
        assert per_jump <= 8.0

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
        for array in table[:4]:
            with pytest.raises(ValueError):
                array[0] = 0.0

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

    def test_cache_is_bounded(self, fig_params):
        montecarlo._rate_table.cache_clear()
        maxsize = montecarlo._rate_table.cache_info().maxsize
        assert maxsize == 128
        for k in range(maxsize + 5):
            montecarlo._start_table(fig_params, 50.0 + k)
        assert montecarlo._rate_table.cache_info().currsize == maxsize


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

    def test_thread_environment_cap(self, fig_params, monkeypatch):
        grid = np.linspace(0.0, 10.0, 5)
        baseline = run_ensemble(fig_params, 20_000, grid, seed=1, workers=1)
        monkeypatch.setenv("DARKSTATE_THREADS", "8")
        from_env = run_ensemble(fig_params, 20_000, grid, seed=1)
        assert np.array_equal(baseline.p0_hat, from_env.p0_hat)
        monkeypatch.setenv("DARKSTATE_THREADS", "not-a-number")
        with pytest.raises(ValueError):
            run_ensemble(fig_params, 100, grid, seed=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, fig_params, monkeypatch, workers):
        grid = np.linspace(0.0, 10.0, 5)
        monkeypatch.delenv("DARKSTATE_THREADS", raising=False)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_ensemble(fig_params, 100, grid, seed=1, workers=workers)
        monkeypatch.setenv("DARKSTATE_THREADS", str(workers))
        with pytest.raises(ValueError, match="DARKSTATE_THREADS must be at least 1"):
            run_ensemble(fig_params, 100, grid, seed=1)

    def test_stderr_formula(self, fig_params):
        grid = np.array([5.0])
        est = run_ensemble(fig_params, 1_000, grid, seed=2)
        expected = np.sqrt(est.p0_hat * (1.0 - est.p0_hat) / 1_000)
        assert np.allclose(est.p0_stderr, expected, atol=1e-15)

    def test_grid_validation(self, fig_params):
        with pytest.raises(EmptyGridError):
            run_ensemble(fig_params, 10, np.array([]), seed=0)
        with pytest.raises(NegativeTimeError):
            run_ensemble(fig_params, 10, np.array([-1.0, 2.0]), seed=0)
        with pytest.raises(ValueError):
            run_ensemble(fig_params, 10, np.array([2.0, 1.0]), seed=0)
        with pytest.raises(ValueError):
            run_ensemble(fig_params, 0, np.array([1.0]), seed=0)

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
