"""Quantum-trajectory unraveling of the conditional dynamics.

Each trajectory starting from |010> experiences at most one jump: the
excitation either leaks through the cavity mirrors, is emitted spontaneously
by one of the atoms, or survives (asymptotically trapped in the dark state).
The waiting time is sampled by inverting the survival law P0(t) = u with a
uniform u, and the channel is chosen from the instantaneous rate weights
(2 kappa |c_100|^2 : 2 gamma |c_010|^2 : 2 gamma |c_001|^2) at the jump.
The inversion is safeguarded Newton on log P0(t) - log u, whose slope
-w1/P0 comes from the same rate weights (w1 = -dP0/dt is their sum).  A batch
starts from a table of P0 on log-spaced times, which brackets every root.

Randomness is counter-based: trajectory ``index`` under master ``seed``
consumes exactly one Philox block, ``Generator(Philox(key=seed,
counter=index)).random(4)`` — (waiting, channel, detection, spare).  The
outcome stream is therefore a pure function of (seed, index), independent of
chunking and of the worker count used to evaluate it.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import EmptyGridError, InvalidUniformError, NegativeTimeError, ZeroRateError
from .model import Parameters, StateVector, _emission_rates
from .propagator import Propagator, conditional_state

# Start table of P0: t = 0 plus log-spaced times from 1e-9 * horizon to the
# horizon.  Neighbouring times differ by 0.5 %, so the interpolated start lies
# within a few Newton steps of the root.
_TABLE_POINTS = 4096
_TABLE_START = 1e-9

# A trajectory stops once |log P0(t) - log u| <= _RESIDUAL_TOL, once its
# bracket is _BRACKET_ULPS ulp wide, or once a Newton step leaves t unchanged.
# A stop test on the step size alone never fires where round-off in P0 moves
# the Newton step by more than a few ulp.  _MAX_STEPS only guards termination:
# batches stop within about 5 steps, or 15 when kappa << Omega makes P0 a
# staircase finer than the table; a single root started at mid-[0, horizon]
# stops within about 50.
_RESIDUAL_TOL = 1e-15
_BRACKET_ULPS = 4
_MAX_STEPS = 200

_DRAWS_PER_TRAJECTORY = 4  # one Philox block
_CHUNK = 16384

_CODE_CAVITY, _CODE_SPON_A, _CODE_SPON_B, _CODE_NONE = 0, 1, 2, -1


class Channel(enum.Enum):
    """Decay port that fired first, or NONE for a surviving trajectory."""

    CAVITY = "cavity"
    SPON_A = "spon_a"
    SPON_B = "spon_b"
    NONE = "none"


_CODE_TO_CHANNEL = {
    _CODE_CAVITY: Channel.CAVITY,
    _CODE_SPON_A: Channel.SPON_A,
    _CODE_SPON_B: Channel.SPON_B,
    _CODE_NONE: Channel.NONE,
}


@dataclasses.dataclass(frozen=True)
class TrajectoryOutcome:
    """Result of one conditional trajectory.

    ``first_jump_time`` is None when no jump occurred within the horizon
    (channel NONE); ``detected`` is True only for CAVITY jumps that passed
    the detector-efficiency thinning.
    """

    first_jump_time: float | None
    channel: Channel
    detected: bool


@dataclasses.dataclass(frozen=True, eq=False)
class EnsembleEstimate:
    """Frequency estimates of the emission budget on a time grid.

    At each grid time, every trajectory is in exactly one bin: not yet
    jumped (p0), jumped through the mirrors (p_cav), or jumped spontaneously
    (p_spon), so the three frequencies partition the ensemble.  ``*_stderr``
    are the binomial standard errors sqrt(p(1-p)/n).
    """

    n: int
    t_grid: np.ndarray
    p0_hat: np.ndarray
    p_cav_hat: np.ndarray
    p_spon_hat: np.ndarray
    p0_stderr: np.ndarray
    p_cav_stderr: np.ndarray
    p_spon_stderr: np.ndarray


def default_horizon(params: Parameters) -> float:
    """Sampling horizon: 15 spontaneous lifetimes, or 50/kappa when gamma=0."""
    if params.gamma > 0.0:
        return 15.0 / params.gamma
    return 50.0 / params.kappa


def _uniform_blocks(seed: int, start: int, count: int) -> np.ndarray:
    """The (count, 4) uniform draws for trajectories start..start+count-1."""
    bitgen = np.random.Philox(key=seed, counter=start)
    return np.random.Generator(bitgen).random((count, _DRAWS_PER_TRAJECTORY))


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


def _bracket_from_table(table_t, table_p0, u):
    """Bracket [lo, hi] and start for each root of P0(t) = u from a table.

    The bracket is the pair of neighbouring table times around u (on a
    monotone envelope, which absorbs round-off wiggles of P0); the start
    interpolates log P0 linearly inside it.  u = 1 starts at t = 0 exactly.
    """
    envelope = np.minimum.accumulate(table_p0)
    upper = np.clip(np.searchsorted(-envelope, -u, side="left"), 1, table_t.size - 1)
    lo, hi = table_t[upper - 1], table_t[upper]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_table = np.log(envelope)
        share = (log_table[upper - 1] - np.log(u)) / (log_table[upper - 1] - log_table[upper])
        start = lo + share * (hi - lo)
    start = np.where((start >= lo) & (start <= hi), start, 0.5 * (lo + hi))
    return lo, hi, np.where(u < 1.0, start, 0.0)


def _invert_survival(params: Parameters, weights_at, log_u, lo, hi, t):
    """Safeguarded Newton (Numerical Recipes ``rtsafe``) on log P0(t) = log u.

    ``weights_at(t)`` returns the weights |c|^2 of the evolved amplitudes,
    shape (n, 3), at an array of n times.  Each root must satisfy
    P0(lo) > u >= P0(hi), and ``t`` is a start inside [lo, hi].  A Newton
    step that leaves the bracket, or that does not halve the step before
    last, becomes a bisection, and every evaluation tightens the bracket.
    Each element stops on its own rule (see _RESIDUAL_TOL) and is then frozen
    under a mask, so its result never depends on the rest of the batch.
    Elements with u = 1 keep their start.  Updates ``lo``, ``hi`` and ``t``
    in place and returns the times and the weights there.
    """
    active = log_u < 0.0
    step = hi - lo
    step_old = step.copy()
    weights = weights_at(t)
    for _ in range(_MAX_STEPS):
        if not _newton_step(params, weights, log_u, lo, hi, t, step, step_old, active):
            break
        np.copyto(weights, weights_at(t), where=active[:, None])
    return t, weights


def _newton_step(params, weights, log_u, lo, hi, t, step, step_old, active) -> bool:
    """One ``rtsafe`` step, in place, from the weights |c|^2 at ``t``.

    Tightens the brackets, stops converged elements (clearing ``active``) and
    moves the rest to their next times.  Returns whether any element moved.
    Its temporaries are freed on return, so they never coexist with those of
    the next kernel evaluation.
    """
    # P0 = |psi|^2, and w1 = -dP0/dt is the sum of the channel rates.
    p0 = np.sum(weights, axis=-1)
    w_cav, w_a, w_b = _emission_rates(params, weights)
    w1 = w_cav + w_a + w_b
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = np.log(p0) - log_u
        newton = residual * p0 / w1  # -f/f' for f = log P0 - log u
    np.copyto(lo, t, where=active & (residual > 0.0))
    np.copyto(hi, t, where=active & (residual <= 0.0))
    active &= (np.abs(residual) > _RESIDUAL_TOL) & (hi - lo > _BRACKET_ULPS * np.spacing(hi))
    t_newton = t + newton
    bisect = ~((t_newton > lo) & (t_newton < hi) & (2.0 * np.abs(newton) <= np.abs(step_old)))
    half = 0.5 * (hi - lo)
    np.copyto(step_old, step, where=active)
    np.copyto(step, np.where(bisect, half, newton), where=active)
    t_next = np.where(bisect, lo + half, t_newton)
    active &= t_next != t
    np.copyto(t, t_next, where=active)
    return bool(np.any(active))


def sample_waiting_time(
    prop: Propagator, state: StateVector, u: float, horizon: float | None = None
) -> float | None:
    """Invert the survival law: the t with ||U(t) state||^2 = u.

    ``u`` must lie in (0, 1]; u = 1 maps to t = 0 exactly.  Returns None when
    the survival at the horizon still exceeds u (no jump within the horizon;
    for gamma = 0 this happens with the finite probability of the dark
    weight).  The root is bracketed by [0, horizon] and polished by the same
    safeguarded Newton iteration as ``simulate_trajectories``.
    """
    if not (isinstance(u, (int, float)) and math.isfinite(u)) or not 0.0 < u <= 1.0:
        raise InvalidUniformError(f"waiting-time uniform must be in (0, 1], got {u!r}")
    if horizon is None:
        horizon = default_horizon(prop.generator.params)
    horizon = float(horizon)
    if horizon <= 0.0:
        raise NegativeTimeError("horizon must be positive")
    if u == 1.0:
        return 0.0
    if u <= prop.survival(state, horizon):
        return None
    t, _ = _invert_survival(
        prop.generator.params,
        lambda times: np.abs(prop.apply(state, times)) ** 2,
        np.log([u]),
        np.zeros(1),
        np.full(1, horizon),
        np.full(1, 0.5 * horizon),
    )
    return float(t[0])


def _classify(params, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Channel codes from the weights |c|^2 at the jumps, shape (n, 3).

    Thresholds are cumulative in the fixed order CAVITY, SPON_A, SPON_B:
    v < w_cav/w1 selects CAVITY, v < (w_cav+w_a)/w1 selects SPON_A, and
    SPON_B otherwise, with the channel rates w_cav, w_a, w_b of
    ``model._emission_rates`` summing to w1.
    """
    w_cav, w_a, w_b = _emission_rates(params, weights)
    total = w_cav + w_a + w_b
    if np.any(total <= 0.0):
        raise ZeroRateError("total emission rate vanishes at the jump state")
    return np.where(
        v < w_cav / total,
        _CODE_CAVITY,
        np.where(v < (w_cav + w_a) / total, _CODE_SPON_A, _CODE_SPON_B),
    ).astype(np.int8)


def classify_jump(prop: Propagator, state_at_jump: StateVector, v: float) -> Channel:
    """Pick the emission channel from the rate weights at the jump moment.

    The thresholds are those of the trajectory batches (see ``_classify``).
    """
    if not (isinstance(v, (int, float)) and math.isfinite(v)) or not 0.0 <= v <= 1.0:
        raise InvalidUniformError(f"channel uniform must be in [0, 1], got {v!r}")
    weights = np.abs(state_at_jump.amplitudes[None, :]) ** 2
    code = _classify(prop.generator.params, weights, np.array([v]))[0]
    return _CODE_TO_CHANNEL[int(code)]


def simulate_trajectories(
    params: Parameters,
    seed: int,
    start: int,
    count: int,
    horizon: float | None = None,
):
    """Vectorized batch of trajectories ``start .. start+count-1`` from |010>.

    Returns (times, codes, detected): jump times (NaN when none), channel
    codes (0 cavity, 1 spontaneous from atom a, 2 from atom b, -1 none), and
    the detector-thinning flags.  Identical results regardless of how the
    index range is split into batches.
    """
    seed = _check_seed(seed)
    if start < 0 or count < 1:
        raise ValueError("need start >= 0 and count >= 1")
    if horizon is None:
        horizon = default_horizon(params)
    horizon = float(horizon)
    if horizon <= 0.0:
        raise NegativeTimeError("horizon must be positive")

    draws = _uniform_blocks(seed, start, count)
    u = 1.0 - draws[:, 0]  # in (0, 1]: u = 1 must map to t = 0 exactly
    v = draws[:, 1]
    detect_draw = draws[:, 2]

    times = np.full(count, np.nan)
    codes = np.full(count, _CODE_NONE, dtype=np.int8)
    detected = np.zeros(count, dtype=bool)

    table_t = np.concatenate(([0.0], np.geomspace(_TABLE_START * horizon, horizon, _TABLE_POINTS)))
    table_t[-1] = horizon
    table_p0 = np.sum(conditional_state(params, table_t) ** 2, axis=-1)
    jumping = u > table_p0[-1]
    if not np.any(jumping):
        return times, codes, detected

    u_j = u[jumping]
    t_jump, weights = _invert_survival(
        params,
        lambda t: conditional_state(params, t) ** 2,
        np.log(u_j),
        *_bracket_from_table(table_t, table_p0, u_j),
    )

    code_j = _classify(params, weights, v[jumping])

    times[jumping] = t_jump
    codes[jumping] = code_j
    detected[jumping] = (code_j == _CODE_CAVITY) & (detect_draw[jumping] < params.eta)
    return times, codes, detected


def simulate_trajectory(
    params: Parameters, seed: int, index: int, horizon: float | None = None
) -> TrajectoryOutcome:
    """Outcome of the single trajectory ``index`` under master ``seed``."""
    times, codes, detected = simulate_trajectories(params, seed, index, 1, horizon)
    time = None if math.isnan(times[0]) else float(times[0])
    return TrajectoryOutcome(
        first_jump_time=time,
        channel=_CODE_TO_CHANNEL[int(codes[0])],
        detected=bool(detected[0]),
    )


def _worker_count(requested: int | None) -> int:
    cap_env = os.environ.get("DARKSTATE_THREADS")
    cap = None
    if cap_env is not None:
        try:
            cap = int(cap_env)
        except ValueError as exc:
            raise ValueError(f"DARKSTATE_THREADS must be an integer, got {cap_env!r}") from exc
    if requested is None:
        requested = cap if cap is not None else 1
    if cap is not None:
        requested = min(requested, cap)
    return max(1, int(requested))


def _tally_chunk(params, seed, start, count, horizon, grid):
    times, codes, _ = simulate_trajectories(params, seed, start, count, horizon)
    cavity_times = np.sort(times[codes == _CODE_CAVITY])
    spon_times = np.sort(times[(codes == _CODE_SPON_A) | (codes == _CODE_SPON_B)])
    n_cav = np.searchsorted(cavity_times, grid, side="right").astype(np.int64)
    n_spon = np.searchsorted(spon_times, grid, side="right").astype(np.int64)
    return n_cav, n_spon


def run_ensemble(
    params: Parameters,
    n: int,
    t_grid,
    seed: int,
    workers: int | None = None,
) -> EnsembleEstimate:
    """Frequency estimates of (P0, P_cav, P_spon) from n trajectories.

    Trajectories are simulated in fixed-size chunks whose per-index
    randomness never depends on the partitioning, so the estimate is
    bit-identical for any worker count.  ``workers`` defaults to the
    DARKSTATE_THREADS environment variable (which also caps an explicit
    request), else 1.
    """
    n = int(n)
    if n < 1:
        raise ValueError("ensemble size n must be at least 1")
    seed = _check_seed(seed)
    grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise EmptyGridError("t_grid must contain at least one time")
    if np.any(grid < 0.0):
        raise NegativeTimeError("grid times must be nonnegative")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("t_grid must be sorted in ascending order")

    horizon = max(default_horizon(params), float(grid[-1]))
    starts = list(range(0, n, _CHUNK))
    jobs = [(start, min(_CHUNK, n - start)) for start in starts]

    worker_count = _worker_count(workers)
    if worker_count > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            results = list(
                pool.map(
                    lambda job: _tally_chunk(params, seed, job[0], job[1], horizon, grid),
                    jobs,
                )
            )
    else:
        results = [_tally_chunk(params, seed, s, c, horizon, grid) for s, c in jobs]

    n_cav = np.zeros(grid.shape, dtype=np.int64)
    n_spon = np.zeros(grid.shape, dtype=np.int64)
    for cav, spon in results:
        n_cav += cav
        n_spon += spon
    n_p0 = n - n_cav - n_spon

    def _freq_and_err(counts):
        freq = counts / n
        err = np.sqrt(freq * (1.0 - freq) / n)
        return freq, err

    p0_hat, p0_err = _freq_and_err(n_p0)
    p_cav_hat, p_cav_err = _freq_and_err(n_cav)
    p_spon_hat, p_spon_err = _freq_and_err(n_spon)
    grid = grid.copy()
    grid.setflags(write=False)
    return EnsembleEstimate(
        n=n,
        t_grid=grid,
        p0_hat=p0_hat,
        p_cav_hat=p_cav_hat,
        p_spon_hat=p_spon_hat,
        p0_stderr=p0_err,
        p_cav_stderr=p_cav_err,
        p_spon_stderr=p_spon_err,
    )
