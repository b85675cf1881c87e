"""Quantum-trajectory unraveling of the conditional dynamics.

Each trajectory starting from |010> experiences at most one jump: the
excitation either leaks through the cavity mirrors, is emitted spontaneously
by one of the atoms, or survives (asymptotically trapped in the dark state).
The waiting time is sampled by inverting the survival law P0(t) = u with a
uniform u, and the channel is chosen from the instantaneous rates
(2 kappa |c_100|^2 : 2 gamma |c_010|^2 : 2 gamma |c_001|^2) at the jump.
The inversion is safeguarded Newton on log P0(t) - log u, whose slope
-w1/P0 comes from the total rate w1 = -dP0/dt, the sum of the three.

A batch evaluates the closed form once per point, through
``propagator._survival_kernel``: P0, w1 and the cavity and atom-a rates,
from the three real factors alone.  A root's last evaluation is at its
accepted time, so the rates it leaves behind pick the channel, and the
amplitudes are never formed.  The start table of (P0, w1) on log-spaced
times brackets every root; it depends only on the rates and the horizon,
so it is built once per (g_a, g_b, kappa, gamma, horizon) and shared,
read-only, by every batch and thread.  Each root starts from the inverse
cubic Hermite interpolant of t in log P0, whose end slopes -P0/w1 come with
the table.  Each Newton step evaluates only the roots still active: on the
paper's set a 16 384-trajectory chunk takes three steps over about 25 000
points in all, 1.5 per jump, and no other evaluation.

``simulate_trajectories`` (one batch of trajectories) and ``run_ensemble``
(the budget frequencies on a time grid) are the entry points; both start
from |010>, and both reject a horizon or grid time that is not finite.

Randomness is counter-based: trajectory ``index`` under master ``seed``
consumes exactly one Philox block, ``Generator(Philox(key=seed,
counter=index)).random(4)`` — (waiting, channel, detection, spare).  The
outcome stream is therefore a pure function of (seed, index), independent of
chunking and of the worker count used to evaluate it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import EmptyGridError, NegativeTimeError, SimulationError, ZeroRateError
from .model import Parameters

# ``conditional_state`` is no longer called here; the name stays importable
# from this module because bench/tracing.py wraps montecarlo.conditional_state.
from .propagator import _survival_kernel, conditional_state  # noqa: F401

# Start table of P0: t = 0 plus _TABLE_POINTS log-spaced times up to the
# horizon, from _TABLE_START * horizon or, when that lies past the bright
# transient, from _TRANSIENT_START / (kappa + gamma).  With the horizon's
# start, neighbouring times differ by 0.5 %, so the interpolated start lies
# within a few Newton steps of the root; the transient's start keeps the
# early roots of a tiny gamma (a horizon 15/gamma far beyond 1/kappa)
# inside the table, at a coarser spacing (4 % at gamma = 1e-70).
_TABLE_POINTS = 4096
_TABLE_START = 1e-9
_TRANSIENT_START = 1e-3

# A trajectory stops once |log P0(t) - log u| <= _RESIDUAL_TOL, once its
# bracket is _BRACKET_ULPS ulp wide, or once a Newton step leaves t unchanged.
# A stop test on the step size alone never fires where round-off in P0 moves
# the Newton step by more than a few ulp.  _MAX_STEPS guards termination (a
# root still moving after it raises SimulationError): from the table start,
# batches stop within 2 to 5 steps, or about 20 when kappa << Omega makes P0
# a staircase finer than the table (each step over fewer roots: 1 to 2
# kernel points per jump in all, 6 to 7 on the staircase, the cached table
# not counted).
_RESIDUAL_TOL = 1e-15
_BRACKET_ULPS = 4
_MAX_STEPS = 200
# The jump batch and the active set of each inversion step are padded to a
# multiple of _WIDTH_QUANTUM elements with copies of one of their elements,
# which evolve exactly like it and write back equal values.  Unpadded, their
# arrays took ever-changing sizes, and a process running chunk after chunk
# while keeping small results grew its peak RSS, the heap pinned by freed
# blocks of odd sizes between the kept ones.  Padded, the float arrays never
# go below 1 KiB and take sizes from a short list that later chunks reuse.
_WIDTH_QUANTUM = 128

_DRAWS_PER_TRAJECTORY = 4  # one Philox block
_CHUNK = 16384

_CODE_CAVITY, _CODE_SPON_A, _CODE_SPON_B, _CODE_NONE = 0, 1, 2, -1


@dataclasses.dataclass(frozen=True, eq=False)
class EnsembleEstimate:
    """Frequency estimates of the emission budget on a time grid.

    ``counts`` holds, at each grid time, how many of the n trajectories have
    not yet jumped (row 0, p0), have jumped through the mirrors (row 1,
    p_cav), or have jumped spontaneously (row 2, p_spon).  Every trajectory
    is in exactly one bin, so the three frequencies partition the ensemble.
    The frequencies ``*_hat`` and their binomial standard errors
    ``*_stderr``, sqrt(p(1-p)/n), are derived from the counts on access, so
    that a kept estimate holds two small arrays.
    """

    n: int
    t_grid: np.ndarray
    counts: np.ndarray

    def _frequency(self, row: int) -> np.ndarray:
        return self.counts[row] / self.n

    def _stderr(self, row: int) -> np.ndarray:
        freq = self._frequency(row)
        return np.sqrt(freq * (1.0 - freq) / self.n)

    p0_hat = property(lambda self: self._frequency(0))
    p_cav_hat = property(lambda self: self._frequency(1))
    p_spon_hat = property(lambda self: self._frequency(2))
    p0_stderr = property(lambda self: self._stderr(0))
    p_cav_stderr = property(lambda self: self._stderr(1))
    p_spon_stderr = property(lambda self: self._stderr(2))


def default_horizon(params: Parameters) -> float:
    """Sampling horizon: 15 spontaneous lifetimes, or 50/kappa when gamma=0.

    A gamma so small that the closed form's exponents may overflow at
    15/gamma, with 15/gamma * (kappa + gamma + 2 Omega) not finite (gamma
    below about 3.2e-307 at g = kappa = 1, the subnormals included), gets
    the gamma=0 horizon.
    """
    if params.gamma > 0.0:
        horizon = 15.0 / params.gamma
        rate = params.kappa + params.gamma + 2.0 * math.sqrt(params.coupling_squared)
        if math.isfinite(horizon * rate):
            return horizon
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


class _StartTable(NamedTuple):
    """The start table of ``simulate_trajectories``, shared read-only.

    ``times`` are the table times, ``descending`` is -E for the monotone
    envelope E = minimum.accumulate(P0) (ascending, for searchsorted),
    ``log_envelope`` is log E, ``tangent`` is dt/dlog P0 = -P0/w1, and
    ``p0_end`` is P0 at the horizon.
    """

    times: np.ndarray
    descending: np.ndarray
    log_envelope: np.ndarray
    tangent: np.ndarray
    p0_end: float


def _start_table(params: Parameters, horizon: float) -> _StartTable:
    """The start table for the four rates and ``horizon``, built once (see _rate_table)."""
    # -0.0 and 0.0 are one cache key, so the table is built from + 0.0 and
    # never depends on which of them filled the entry.
    return _rate_table(
        params.g_a + 0.0, params.g_b + 0.0, params.kappa + 0.0, params.gamma + 0.0, horizon + 0.0
    )


# Bounded like propagator._rate_projectors: 128 tables of 130 KiB hold every
# rate set and horizon a CLI run or a benchmark round cycles through.
@functools.lru_cache(maxsize=128)
def _rate_table(g_a: float, g_b: float, kappa: float, gamma: float, horizon: float) -> _StartTable:
    first = min(_TABLE_START * horizon, _TRANSIENT_START / (kappa + gamma))
    times = np.concatenate(([0.0], np.geomspace(first, horizon, _TABLE_POINTS)))
    times[-1] = horizon
    with np.errstate(over="ignore", invalid="ignore"):
        p0, w1, _, _ = _survival_kernel(Parameters(g_a, g_b, kappa, gamma))(times)
    if not (np.isfinite(p0).all() and np.isfinite(w1).all()):
        raise SimulationError(f"survival law not finite on [0, {horizon!r}]: the horizon is too long")
    envelope = np.minimum.accumulate(p0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        arrays = times, -envelope, np.log(envelope), -p0 / w1
    for array in arrays:
        array.setflags(write=False)
    return _StartTable(*arrays, float(p0[-1]))


def _bracket_from_table(table: _StartTable, u):
    """log u, bracket [lo, hi] and start for each root of P0(t) = u from the table.

    The bracket is the pair of neighbouring table times around u (on the
    monotone envelope, which absorbs round-off wiggles of P0).  The start is
    the inverse cubic Hermite interpolant of t in log P0 through the two
    table points, whose end slopes dt/dlog P0 = -P0/w1 come with the table.
    Where that start is not finite or leaves the bracket (w1 = 0 at t = 0
    when gamma = 0, the flat steps of a staircase), log P0 is interpolated
    linearly instead, and the bracket is halved where that fails too.
    u = 1 starts at t = 0 exactly.
    """
    times, log_table, tangent = table.times, table.log_envelope, table.tangent
    upper = np.clip(np.searchsorted(table.descending, -u, side="left"), 1, times.size - 1)
    lower = upper - 1
    lo, hi = times[lower], times[upper]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        height = log_table[upper] - log_table[lower]
        log_u = np.log(u)
        share = (log_u - log_table[lower]) / height
        rest = 1.0 - share
        hermite = rest * rest * ((1.0 + 2.0 * share) * lo + share * height * tangent[lower]) + (
            share * share * ((3.0 - 2.0 * share) * hi - rest * height * tangent[upper])
        )
        linear = lo + share * (hi - lo)
    start = np.where((linear >= lo) & (linear <= hi), linear, 0.5 * (lo + hi))
    start = np.where((hermite >= lo) & (hermite <= hi), hermite, start)
    return log_u, lo, hi, np.where(u < 1.0, start, 0.0)


def _invert_survival(kernel, log_u, lo, hi, t):
    """Safeguarded Newton (Numerical Recipes ``rtsafe``) on log P0(t) = log u.

    ``kernel(t)`` returns (P0, w1, w_cav, w_a) at an array of times, where
    w1 = -dP0/dt is the total emission rate, so that -w1/P0 is the slope of
    log P0.  Each root must satisfy P0(lo) > u >= P0(hi), and ``t`` is a
    start inside [lo, hi].  A Newton step that leaves the bracket, or that
    does not halve the step before last, becomes a bisection, and every
    evaluation tightens the bracket.  Each element stops on its own rule (see
    _RESIDUAL_TOL).  Only the elements still active are evaluated: each step
    gathers them into short arrays (see _WIDTH_QUANTUM), and every step
    writes back the time it evaluated with the rates there, so an element
    that stops leaves its last evaluation.  The kernel is elementwise, so a
    result never depends on the rest of the batch.  Elements with u = 1
    stop at their start t = 0, at residual 0.

    Returns the times and the rates (w1, w_cav, w_a) at them; raises
    SimulationError if some root still moves after _MAX_STEPS steps.
    """
    times, total, cavity, atom_a = np.empty((4, t.size))
    index = np.arange(t.size)
    step = step_old = hi - lo
    for _ in range(_MAX_STEPS):
        p0, w1, w_cav, w_a = kernel(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = np.log(p0) - log_u
            newton = residual * p0 / w1  # -f/f' for f = log P0 - log u
        lo = np.where(residual > 0.0, t, lo)
        hi = np.where(residual <= 0.0, t, hi)
        t_newton = t + newton
        bisect = ~((t_newton > lo) & (t_newton < hi) & (2.0 * np.abs(newton) <= np.abs(step_old)))
        half = 0.5 * (hi - lo)
        step_old, step = step, np.where(bisect, half, newton)
        t_next = np.where(bisect, lo + half, t_newton)
        moving = (
            (np.abs(residual) > _RESIDUAL_TOL)
            & (hi - lo > _BRACKET_ULPS * np.spacing(hi))
            & (t_next != t)
        )
        times[index], total[index], cavity[index], atom_a[index] = t, w1, w_cav, w_a
        count = np.count_nonzero(moving)
        if count == 0:
            return times, total, cavity, atom_a
        # The moving elements, in order, padded with copies of the first.
        # The buffer takes the full current width, a size already in use.
        width = min(moving.size, -(-count // _WIDTH_QUANTUM) * _WIDTH_QUANTUM)
        keep = np.empty(moving.size, np.intp)[:width]
        keep[:count] = np.flatnonzero(moving)
        keep[count:] = keep[0]
        index, log_u, lo, hi, t, step, step_old = (
            array[keep] for array in (index, log_u, lo, hi, t_next, step, step_old)
        )
    raise SimulationError(
        f"waiting-time inversion did not converge in {_MAX_STEPS} steps "
        f"(bracket [{lo[0]:.6g}, {hi[0]:.6g}])"
    )


def _classify(v, total, cavity, atom_a) -> np.ndarray:
    """Channel codes from the rates (w1, w_cav, w_a) at the jumps.

    Thresholds are cumulative in the fixed order CAVITY, SPON_A, SPON_B:
    v < w_cav/w1 selects CAVITY, v < (w_cav+w_a)/w1 selects SPON_A, and
    SPON_B otherwise.  Raises ZeroRateError where the total rate w1 is not
    positive.
    """
    if (total <= 0.0).any():
        raise ZeroRateError("total emission rate vanishes at the jump state")
    return np.where(
        v < cavity / total,
        _CODE_CAVITY,
        np.where(v < (cavity + atom_a) / total, _CODE_SPON_A, _CODE_SPON_B),
    ).astype(np.int8)


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
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    if horizon <= 0.0:
        raise NegativeTimeError("horizon must be positive")

    draws = _uniform_blocks(seed, start, count)
    u = 1.0 - draws[:, 0]  # in (0, 1]: u = 1 must map to t = 0 exactly
    v = draws[:, 1]
    detect_draw = draws[:, 2]

    times = np.full(count, np.nan)
    codes = np.full(count, _CODE_NONE, dtype=np.int8)
    detected = np.zeros(count, dtype=bool)

    table = _start_table(params, horizon)
    # The jumping trajectories, in increasing u: neighbours then take alike
    # paths through the inversion, and the table search walks in one
    # direction.  Padded with copies of the last one (see _WIDTH_QUANTUM).
    order = np.argsort(u)
    first = np.searchsorted(u[order], table.p0_end, side="right")
    if first == count:
        return times, codes, detected
    jumping = np.full(-(-(count - first) // _WIDTH_QUANTUM) * _WIDTH_QUANTUM, order[-1])
    jumping[: count - first] = order[first:]

    bracket = _bracket_from_table(table, u[jumping])
    t_jump, *rates = _invert_survival(_survival_kernel(params), *bracket)
    code_j = _classify(v[jumping], *rates)

    times[jumping] = t_jump
    codes[jumping] = code_j
    detected[jumping] = (code_j == _CODE_CAVITY) & (detect_draw[jumping] < params.eta)
    return times, codes, detected


def _worker_count(requested: int | None) -> int:
    cap_env = os.environ.get("DARKSTATE_THREADS")
    cap = None
    if cap_env is not None:
        try:
            cap = int(cap_env)
        except ValueError as exc:
            raise ValueError(f"DARKSTATE_THREADS must be an integer, got {cap_env!r}") from exc
        if cap < 1:
            raise ValueError(f"DARKSTATE_THREADS must be at least 1, got {cap_env!r}")
    if requested is None:
        requested = cap if cap is not None else 1
    elif requested < 1:
        raise ValueError(f"workers must be at least 1, got {requested!r}")
    if cap is not None:
        requested = min(requested, cap)
    return int(requested)


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
    request), else 1; a count below 1 from either raises ValueError.
    """
    n = int(n)
    if n < 1:
        raise ValueError("ensemble size n must be at least 1")
    seed = _check_seed(seed)
    grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise EmptyGridError("t_grid must contain at least one time")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid times must be finite")
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

    counts = np.zeros((3, grid.size), dtype=np.int64)
    for cav, spon in results:
        counts[1] += cav
        counts[2] += spon
    counts[0] = n - counts[1] - counts[2]
    counts.setflags(write=False)
    grid = grid.copy()
    grid.setflags(write=False)
    return EnsembleEstimate(n=n, t_grid=grid, counts=counts)
