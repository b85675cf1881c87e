"""Quantum-trajectory unraveling of the conditional dynamics.

Each trajectory starting from |010> experiences at most one jump: the
excitation either leaks through the cavity mirrors, is emitted spontaneously
by one of the atoms, or survives (asymptotically trapped in the dark state).
The waiting time is sampled by inverting the survival law P0(t) = u with a
uniform u, and the channel is chosen from the instantaneous rates
(2 kappa |c_100|^2 : 2 gamma |c_010|^2 : 2 gamma |c_001|^2) at the jump.
``_invert_survival`` takes the draws to their roots: a start from a table of
P0 on log-spaced times up to the horizon, then safeguarded Newton on
log P0(t) - log u over the roots still active.  Each evaluation is one call
of ``propagator._survival_kernel``: P0 (bit for bit the budget's), the total
rate w1 = -dP0/dt, and the cavity and atom-a rates.  A root's last
evaluation is at its accepted time, so the rates it leaves behind pick the
channel.  On the paper's set a 16 384-trajectory chunk takes two steps over
about 19 000 points in all.  The table depends only on the rates and the
horizon, so ``_rate_table`` builds it once and shares it read-only with
every batch and thread.  Every kappa > 0 gets a finite default horizon.  An
ensemble tallies no jump after its last grid time, so it solves roots only
up to that time, its horizon, and keys its start table on it.

A chunk of up to _CHUNK trajectories computes in buffers its thread allocates
once (``_Workspace``), so a serial run neither grows nor trims the heap; a
wider batch, or an ensemble, runs chunk by chunk (``_chunks``), in about its
results' memory plus a chunk's.

``simulate_trajectories`` (one batch of trajectories) and ``run_ensemble``
(the budget frequencies on a time grid) are the entry points; both start
from |010>, and both reject a horizon or grid time that is not finite, or
one past the phase limit where e^{-a t/2} has not vanished (``_check_phase``).

Randomness is counter-based: trajectory ``index`` under master ``seed``
consumes exactly one Philox block, ``Generator(Philox(key=seed,
counter=index)).random(4)`` — (waiting, channel, detection, spare).  The
outcome stream is therefore a pure function of (seed, index), independent of
chunking and of the worker count used to evaluate it.  Ensemble counts
depend on (seed, n, grid, rates) alone; a jump time depends on its horizon
too, at the last-ulp level, through the start table.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import os
import sys
import threading
from typing import NamedTuple

import numpy as np

from .errors import NegativeTimeError, SimulationError
from .model import Parameters, _generator_matrix, _rate_key

# ``conditional_state`` is no longer called here; the name stays importable
# from this module because bench/tracing.py wraps montecarlo.conditional_state.
from .propagator import _KERNEL_ROWS, _check_phase, _rates, _survival_kernel, conditional_state  # noqa: F401

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

# A root stops once |log P0(t) - log u| <= _RESIDUAL_TOL, tested right after
# each evaluation, the one stop point.  One that misses it, but whose bracket
# is then _BRACKET_ULPS ulp wide or whose step leaves t unchanged, keeps its t
# and leaves at the next test (a test on the step alone never fires where
# round-off in P0 moves the step by more than a few ulp).  _MAX_STEPS
# evaluations guard termination: from the quintic start a chunk stops within
# 2 or 3 steps (1.0 to 1.3 kernel points per jump), or about 20 (4 to 6) where
# kappa << Omega makes P0 a staircase finer than the table.
_RESIDUAL_TOL = 1e-15
_BRACKET_ULPS = 4
_MAX_STEPS = 200
_DRAWS_PER_TRAJECTORY = 4  # one Philox block
_CHUNK = 16384
# A pool's threads live for one call and fault their buffers (_Workspace) in:
# on 2 CPUs two workers lose at 2 to 4 chunks (0.71-0.82x) and win from 6 (1.3x,
# 1.7x at 61), so the automatic worker count gives each this many chunks or more.
_CHUNKS_PER_WORKER = 3

# Channel codes: 0 cavity, 1 and 2 spontaneous from atom a and b, -1 no jump.
_CODE_CAVITY, _CODE_NONE = 0, -1


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
    the gamma=0 horizon, cut to the largest double over the larger of 1 and
    kappa + gamma + 2 Omega where shorter (kappa below 7.9e-307 at g = 1).
    """
    rate = params.kappa + params.gamma + 2.0 * math.sqrt(params.coupling_squared)
    if params.gamma > 0.0:
        horizon = 15.0 / params.gamma
        if math.isfinite(horizon * rate):
            return horizon
    return min(50.0 / params.kappa, sys.float_info.max / max(rate, 1.0))


def _uniform_blocks(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """The uniform draws of trajectories start, start+1, ..., one row each, into ``out``, C-contiguous (count, 4)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=start)).random(out=out)


def _check_seed(seed: int) -> int:
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


def _chunks(start: int, count: int) -> list:
    """The (start, count) spans of at most _CHUNK trajectories that cover start .. start+count-1."""
    return [(k, min(_CHUNK, start + count - k)) for k in range(start, start + count, _CHUNK)]


class _StartTable(NamedTuple):
    """The start table of ``simulate_trajectories``, shared read-only.

    ``times`` are the table times, ``descending`` is -E for the monotone
    envelope E = minimum.accumulate(P0) (ascending, for searchsorted), and
    ``p0_end`` is P0 at the horizon.  Row k of ``intervals`` belongs to
    [times[k], times[k+1]]: log E[k], the inverse height 1/(log E[k+1] -
    log E[k]), and the coefficients a_0 .. a_5 of the quintic t = sum a_j s^j
    in s = (log u - log E[k]) * inverse height (see _rate_table).
    """

    times: np.ndarray
    descending: np.ndarray
    intervals: np.ndarray
    p0_end: float


def _start_table(params: Parameters, horizon: float) -> _StartTable:
    """The start table for the four rates and ``horizon``, built once (see _rate_table)."""
    return _rate_table(*_rate_key(params), horizon)


# Sized by the traffic: a round of the mc_ensemble benchmark cycles 3 tables,
# of cli_tables 2, a CLI process builds 1, and the closed forms none; 8
# tables of 320 KiB hold them all, and a sweep over many rate sets 2.5 MiB.
@functools.lru_cache(maxsize=8)
def _rate_table(g_a: float, g_b: float, kappa: float, gamma: float, horizon: float) -> _StartTable:
    """The start table for the four rates and ``horizon``, from one kernel evaluation.

    With y = log P0, y' = -w1/P0 and y'' = -w1'/P0 - y'^2, the inverse t(y)
    has dt/dy = -P0/w1 and d2t/dy2 = -y''/y'^3; w1' comes from the amplitudes
    c that the kernel leaves in its rows 0 to 2, through dc/dt = -M c.  Each
    interval's a_0 .. a_5 are those of the quintic Hermite interpolant of
    t(s), s in [0, 1], that matches t, height * dt/dy and height^2 * d2t/dy2
    at both ends; they are not finite where those are not (w1 = 0 at t = 0
    when gamma = 0) or the height is 0 (a flat step of the envelope).  Raises
    SimulationError where P0 or w1 is not finite, a broken invariant.
    """
    # A horizon below about 5e-315 underflows the first time to 0, which geomspace rejects.
    first = max(min(_TABLE_START * horizon, _TRANSIENT_START / (kappa + gamma)), math.ulp(0.0))
    params = Parameters(g_a, g_b, kappa, gamma)
    buffer = np.empty((_KERNEL_ROWS, _TABLE_POINTS + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # geomspace's last time at 1.8e308, w1' at gamma = 1e154
        times = np.concatenate(([0.0], np.geomspace(first, horizon, _TABLE_POINTS)))
        times[-1] = horizon
        p0, w1, _, _ = _survival_kernel(params)(times, buffer)
        products = np.matmul(-_generator_matrix(params), buffer[:3])
        products *= buffer[:3]
        w1_rate = np.add(products[1], products[2], out=products[1])
        w1_rate *= 4.0 * gamma
        w1_rate += 4.0 * kappa * products[0]
    if not (np.isfinite(p0).all() and np.isfinite(w1).all()):
        raise SimulationError(f"survival law not finite on [0, {horizon!r}]: a broken invariant of the closed form")
    envelope = np.minimum.accumulate(p0)
    intervals = np.empty((_TABLE_POINTS, 8))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = -w1 / p0
        tangent = -p0 / w1
        curvature = (w1_rate / p0 + slope * slope) / (slope * slope * slope)
        log_envelope = np.log(envelope)
        height = np.diff(log_envelope)
        intervals[:, 0] = log_envelope[:-1]
        np.divide(1.0, height, out=intervals[:, 1])
        span = np.diff(times)
        v0, v1 = height * tangent[:-1], height * tangent[1:]
        c0, c1 = height * height * curvature[:-1], height * height * curvature[1:]
        intervals[:, 2] = times[:-1]
        intervals[:, 3] = v0
        intervals[:, 4] = 0.5 * c0
        intervals[:, 5] = 10.0 * span - 6.0 * v0 - 4.0 * v1 - 1.5 * c0 + 0.5 * c1
        intervals[:, 6] = -15.0 * span + 8.0 * v0 + 7.0 * v1 + 1.5 * c0 - c1
        intervals[:, 7] = 6.0 * span - 3.0 * (v0 + v1) - 0.5 * (c0 - c1)
    arrays = times, -envelope, intervals
    for array in arrays:
        array.setflags(write=False)
    return _StartTable(*arrays, float(p0[-1]))


# Rows of a Newton state: log u, the bracket [lo, hi], t, the step and the one before.
_STATE_ROWS = 6
_SCRATCH_ROWS = 6


class _Workspace(threading.local):
    """Scratch buffers of a chunk of up to _CHUNK trajectories, one set per thread.

    Every intermediate array of a chunk is written into them (``out=``), each
    viewed as a contiguous (rows, n) prefix (``_rows``).  A thread allocates
    them once (about 5 MiB) and keeps them, so its chunks allocate little
    beyond their results, while a thread of ``run_ensemble``'s pool faults
    them in for its one call.  Fresh arrays would grow and trim the heap by
    about 2 MiB per chunk, faulting the same pages in on every call.
    """

    def __init__(self):
        self.draws = np.empty(_DRAWS_PER_TRAJECTORY * _CHUNK)
        self.states = np.empty((2, _STATE_ROWS * _CHUNK))  # current and next Newton state
        self.kernel = np.empty(_KERNEL_ROWS * _CHUNK)  # also the bracket's interval rows
        self.scratch = np.empty(_SCRATCH_ROWS * _CHUNK)
        self.roots = np.empty(4 * _CHUNK)
        self.flags = np.empty(3 * _CHUNK, dtype=bool)
        self.index = np.empty((2, _CHUNK), dtype=np.intp)


_WORKSPACE = _Workspace()


def _rows(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first rows * width elements of a flat buffer, as a C-contiguous (rows, width) array."""
    return buffer[: rows * width].reshape(rows, width)


def _invert_survival(kernel, table: _StartTable, u: np.ndarray, work: _Workspace):
    """The roots of P0(t) = u, each u in (P0(horizon), 1], by a table start and safeguarded Newton.

    A root starts inside its bracket, the neighbouring table times around u
    on the monotone envelope (which absorbs round-off wiggles of P0), at one
    Horner evaluation of the interval's inverse quintic (``_StartTable``).
    Where that is not finite or leaves the bracket (w1 = 0 at t = 0 when
    gamma = 0, the flat steps of a staircase), it starts at the linear
    interpolant of log P0, or else at the midpoint.  u = 1 starts, and stays,
    at t = 0 exactly.

    Then Numerical Recipes' ``rtsafe`` on log P0 - log u, whose slope is
    -w1/P0, from ``kernel(t, out)`` = (P0, w1, w_cav, w_a): a Newton step that
    leaves the bracket, is not finite or does not halve the step before last
    becomes a bisection, and every evaluation tightens the bracket.  Each
    step evaluates the active roots alone and writes their times and rates
    back (so a root that stops leaves its last evaluation); runs the stop
    test, the one place where roots leave; gathers the rest, their Newton
    state with the residual, P0 and w1, into the other buffers of ``work``;
    and on them alone forms the step, the bracket and the bracket-width and
    unchanged-t rules.  A root these stop keeps its t, is evaluated there
    once more (bit for bit as before) and leaves at the next test; once none
    moves, the call returns.  The kernel is elementwise, so a root never
    depends on the rest of the batch.  ``u`` must not lie in the first state
    buffer of ``work``.

    Returns the (4, n) rows of the times and the rates (w1, w_cav, w_a) at
    them, in ``work``; raises SimulationError if some root still moves after
    _MAX_STEPS steps.
    """
    n = u.size
    log_u, lo, hi, t, step, step_old = state = _rows(work.states[0], _STATE_ROWS, n)
    share = _rows(work.scratch, _SCRATCH_ROWS, n)[0]
    flag, inside, _ = _rows(work.flags, 3, n)
    times = table.times
    upper = np.searchsorted(table.descending, np.negative(u, out=t), side="left")
    np.clip(upper, 1, times.size - 1, out=upper)
    np.take(times, upper, out=hi, mode="clip")
    upper -= 1
    np.take(times, upper, out=lo, mode="clip")
    rows = np.take(table.intervals, upper, axis=0, out=_rows(work.kernel, n, 8), mode="clip")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.log(u, out=log_u)
        np.subtract(log_u, rows[:, 0], out=share)
        share *= rows[:, 1]
        np.multiply(rows[:, 7], share, out=t)
        for column in (6, 5, 4, 3):
            t += rows[:, column]
            t *= share
        t += rows[:, 2]
    np.greater_equal(t, lo, out=inside)
    inside &= np.less_equal(t, hi, out=flag)
    if not inside.all():
        bad = np.flatnonzero(~inside)
        lo_bad, hi_bad = lo[bad], hi[bad]
        with np.errstate(invalid="ignore", over="ignore"):
            linear = lo_bad + share[bad] * (hi_bad - lo_bad)
        t[bad] = np.where((linear >= lo_bad) & (linear <= hi_bad), linear, 0.5 * (lo_bad + hi_bad))
    np.copyto(t, 0.0, where=np.greater_equal(u, 1.0, out=flag))
    np.subtract(hi, lo, out=step)
    np.copyto(step_old, step)

    roots = _rows(work.roots, 4, n)
    index, side = slice(None), 0  # on the first step every element is active, in order
    _rows(work.flags, 3, n)[2].fill(True)  # every element moves into the first step
    for _ in range(_MAX_STEPS):
        p0, w1, w_cav, w_a = kernel(state[3], _rows(work.kernel, _KERNEL_ROWS, n))
        for row, value in zip(roots, (state[3], w1, w_cav, w_a)):
            row[index] = value
        flag, _, moving = _rows(work.flags, 3, n)  # moving: the last step's, nothing gathered since
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = np.log(p0, out=w_cav)  # w_cav and w_a are written back
            residual -= state[0]
        np.greater(np.abs(residual, out=w_a), _RESIDUAL_TOL, out=flag)
        keep = np.flatnonzero(np.logical_and(flag, moving, out=flag))
        if not (n := keep.size):
            return roots
        side = 1 - side
        state = np.take(state, keep, axis=1, out=_rows(work.states[side], _STATE_ROWS, n), mode="clip")
        if isinstance(index, slice):  # the first step's: every element, in order
            index = keep
        else:
            index = np.take(index, keep, out=work.index[side][:n], mode="clip")
        newton, residual, t_newton, width, half, t_next = _rows(work.scratch, _SCRATCH_ROWS, n)
        # P0 and w1 go to the rows of the Newton step and t_newton, formed from them.
        for value, out in ((p0, newton), (w_cav, residual), (w1, t_newton)):
            np.take(value, keep, out=out, mode="clip")
        _, lo, hi, t, step, step_old = state
        flag, ok, moving = _rows(work.flags, 3, n)
        np.copyto(lo, t, where=np.greater(residual, 0.0, out=flag))
        np.copyto(hi, t, where=np.less_equal(residual, 0.0, out=flag))
        # A Newton step is taken where it stays inside the bracket (an overflowed
        # one does not) and at least halves the step before last; elsewhere the
        # bracket is halved.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.multiply(residual, newton, out=newton)
            newton /= t_newton  # -f/f' for f = log P0 - log u
            np.add(t, newton, out=t_newton)
            spare = np.abs(newton, out=residual)  # the residual is free from here on
            spare *= 2.0
        np.greater(t_newton, lo, out=ok)
        ok &= np.less(t_newton, hi, out=flag)
        ok &= np.less_equal(spare, np.abs(step_old, out=width), out=flag)
        np.subtract(hi, lo, out=width)
        np.multiply(0.5, width, out=half)
        np.add(lo, half, out=t_next)
        np.copyto(t_next, t_newton, where=ok)
        np.copyto(step_old, step)  # rtsafe's dxold = dx
        np.copyto(step, half)
        np.copyto(step, newton, where=ok)
        np.spacing(hi, out=spare)
        spare *= _BRACKET_ULPS
        np.greater(width, spare, out=moving)
        moving &= np.not_equal(t_next, t, out=flag)
        np.copyto(t, t_next, where=moving)
        if not moving.any():
            return roots
    raise SimulationError(
        f"waiting-time inversion did not converge in {_MAX_STEPS} steps "
        f"(bracket [{lo[moving][0]:.6g}, {hi[moving][0]:.6g}])"
    )


def _classify(v, total, cavity, atom_a, out) -> np.ndarray:
    """Channel codes from the rates (w1, w_cav, w_a) at the jumps.

    Thresholds are cumulative in the fixed order CAVITY, SPON_A, SPON_B:
    v < w_cav/w1 selects CAVITY, v < (w_cav+w_a)/w1 selects SPON_A, and
    SPON_B otherwise.  The code is the number of thresholds at or below v,
    which grow in that order.  ``out`` holds two arrays of the rates' shape
    for the thresholds.  A zero total, only at gamma = 0 where both atomic
    rates vanish identically, selects CAVITY: the channel as t -> 0+ (a zero
    draw), where the 0/0 thresholds are NaN and compare false.  The total
    is a sum of squares times nonnegative rates, so a negative or NaN one is
    a broken invariant and raises SimulationError.
    """
    if not (total >= 0.0).all():
        raise SimulationError("total emission rate negative or NaN at the jump state")
    cavity_share, atom_share = out
    with np.errstate(invalid="ignore"):
        np.divide(cavity, total, out=cavity_share)
        np.add(cavity, atom_a, out=atom_share)
        atom_share /= total
    codes = np.greater_equal(v, cavity_share).view(np.int8)
    codes += np.greater_equal(v, atom_share)
    return codes


def simulate_trajectories(params: Parameters, seed: int, start: int, count: int, horizon: float | None = None):
    """Vectorized batch of trajectories ``start .. start+count-1`` from |010>.

    Returns (times, codes, detected): jump times (NaN when none), channel
    codes (0 cavity, 1 spontaneous from atom a, 2 from atom b, -1 none), and
    the detector-thinning flags.  Identical results regardless of how the
    index range is split into batches.  A batch wider than _CHUNK runs chunk
    by chunk, in about the memory of its results plus one chunk.
    """
    seed = _check_seed(seed)
    start, count = operator.index(start), operator.index(count)
    if start < 0 or count < 1:
        raise ValueError("need start >= 0 and count >= 1")
    horizon = default_horizon(params) if horizon is None else float(horizon)
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    if horizon <= 0.0:
        raise NegativeTimeError("horizon must be positive")
    if horizon > (record := _rates(params)).phase_limit:  # the inversion may evaluate any t up to it
        _check_phase(record, math.nextafter(record.phase_limit, math.inf), horizon)

    if count > _CHUNK:
        parts = [simulate_trajectories(params, seed, *span, horizon) for span in _chunks(start, count)]
        return tuple(map(np.concatenate, zip(*parts)))

    work = _WORKSPACE
    draws = _uniform_blocks(seed, start, _rows(work.draws, count, _DRAWS_PER_TRAJECTORY))
    # The second Newton state is free until the inversion's first step.
    u, sorted_u = _rows(work.states[1], 2, count)
    np.subtract(1.0, draws[:, 0], out=u)  # in (0, 1]: u = 1 must map to t = 0 exactly

    times = np.full(count, np.nan)
    codes = np.full(count, _CODE_NONE, dtype=np.int8)
    detected = np.zeros(count, dtype=bool)

    table = _start_table(params, horizon)
    # The jumping trajectories, in increasing u: neighbours then take alike
    # paths through the inversion, and the table search walks in one
    # direction.
    order = np.argsort(u)
    np.take(u, order, out=sorted_u, mode="clip")
    first = int(np.searchsorted(sorted_u, table.p0_end, side="right"))
    jumping = order[first:]

    with np.errstate(over="ignore"):  # an exponent's product past the largest double: -inf, whose exp is 0
        t_jump, *rates = _invert_survival(_survival_kernel(params), table, sorted_u[first:], work)
    jumps = jumping.size
    v, detect_draw, *thresholds = _rows(work.scratch, _SCRATCH_ROWS, jumps)[:4]
    np.take(draws[:, 1], jumping, out=v, mode="clip")
    code_j = _classify(v, *rates, out=thresholds)
    np.take(draws[:, 2], jumping, out=detect_draw, mode="clip")
    cavity_click, flag, _ = _rows(work.flags, 3, jumps)
    np.equal(code_j, _CODE_CAVITY, out=cavity_click)
    cavity_click &= np.less(detect_draw, params.eta, out=flag)

    times[jumping] = t_jump
    codes[jumping] = code_j
    detected[jumping] = cavity_click
    return times, codes, detected


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (``taskset``), else all."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _tally_chunk(params, seed, horizon, grid, job):
    """The cavity and the spontaneous jumps by each grid time, of one chunk (``job``)."""
    times, codes, _ = simulate_trajectories(params, seed, *job, horizon)
    channels = codes == _CODE_CAVITY, codes > _CODE_CAVITY
    return [np.searchsorted(np.sort(times[jumped]), grid, side="right").astype(np.int64) for jumped in channels]


def run_ensemble(params: Parameters, n: int, t_grid, seed: int, workers: int | None = None) -> EnsembleEstimate:
    """Frequency estimates of (P0, P_cav, P_spon) from n trajectories.

    Trajectories are simulated in chunks of _CHUNK whose per-index
    randomness never depends on the partitioning, so the estimate is
    bit-identical for any worker count.  Each chunk is one call of
    ``simulate_trajectories`` whose horizon is the last grid time (the
    default horizon when that is 0): a later jump is never tallied.
    ``workers=None`` runs one worker per _CHUNKS_PER_WORKER chunks, at most
    one per usable CPU, and below two runs on the calling thread; a given
    count must be an integer of at least 1.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("ensemble size n must be at least 1")
    seed = _check_seed(seed)
    grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("t_grid must contain at least one time")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid times must be finite")
    if np.any(grid < 0.0):
        raise NegativeTimeError("grid times must be nonnegative")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("t_grid must be sorted in ascending order")

    jobs = _chunks(0, n)
    if workers is None:
        workers = min(_usable_cpus(), len(jobs) // _CHUNKS_PER_WORKER)
    elif (workers := operator.index(workers)) < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")

    # No jump after the last grid time is tallied, so that time is the horizon;
    # a grid that ends at t = 0 leaves simulate_trajectories its default.
    tally = functools.partial(_tally_chunk, params, seed, float(grid[-1]) or None, grid)
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here, as serial calls need no pool
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(tally, jobs))
    else:
        results = list(map(tally, jobs))

    counts = np.zeros((3, grid.size), dtype=np.int64)
    counts[1:] = np.sum(results, axis=0)
    counts[0] = n - counts[1] - counts[2]
    counts.setflags(write=False)
    grid = grid.copy()
    grid.setflags(write=False)
    return EnsembleEstimate(n=n, t_grid=grid, counts=counts)
