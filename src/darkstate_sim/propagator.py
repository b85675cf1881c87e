"""Exact no-detection propagation and the emission probability budget.

One real closed form evaluates U(t) = exp(-M t) in every regime.  The unit
dark state d of ``conditional_generator`` is a left and a right eigenvector
of M with eigenvalue gamma, so the dark projector D = d d^T commutes with M
and the bright plane P = I - D (the cavity mode and the coupled atomic
combination) is invariant.  On that plane (M - a/2)^2 = -S^2/4, with
a = kappa + gamma and S^2 = 4 Omega^2 - (kappa - gamma)^2, so that

    U(t) = e0 D + c P + s Q,    Q = (a I - 2 M) P,
    e0 = e^{-gamma t},  c = e^{-a t/2} cos(S t/2),  s = e^{-a t/2} sin(S t/2) / S.

``_split_factors`` evaluates (e0, c, s) in real arithmetic and branches once
per parameter set on the sign of S^2: cos and sin when the cavity is
oscillatory (S^2 > 0), their limits c = e^{-a t/2}, s = (t/2) e^{-a t/2} at
the critical point (S^2 = 0, where M is defective), and the two real bright
decays when it is overdamped (S^2 < 0).  There the slow rate is taken from
the product lambda_+ lambda_- = kappa gamma + Omega^2, not from the difference
(a - sqrt(-S^2))/2, which cancels in a bad cavity (kappa >> Omega).  The
conditional state grown from |010> is column 1 of U(t); ``_amplitudes`` forms
its components (c_100, c_010, c_001), and ``conditional_state``, the budget's
P0 = c_100^2 + c_010^2 + c_001^2 and the Monte Carlo kernel
``_survival_kernel`` all read that one evaluation.  The cavity emission
probability is a closed form in the same three factors, which
``emission_probabilities``, the one entry point for the budget, shares.

All time-dependent quantities accept scalar or array times; a negative or
NaN time raises NegativeTimeError, and an infinite one, or one past the
phase limit where e^{-a t/2} has not vanished (``_check_phase``), ValueError.
Probabilities are clipped to [0, 1].  ``emission_probabilities`` clips P0
and P_cav, forms P_spon = 1 - P0 - P_cav from the clipped values, and then
checks all three unclipped quantities in one pass: the largest excess
outside [0, 1] is computed once, and past round-off (or on NaN)
ProbabilityRangeError names the quantity and its excess.  A scalar time
runs every closed form on Python floats (numpy only for exp, expm1, cos and
sin), to the bits and error messages of the matching array element.

The projectors, and all else the closed forms read from the four rates, are
built once per rate set into a ``_Rates`` record (a bounded cache keyed on
(g_a, g_b, kappa, gamma), shared by every eta), read-only for every thread.
D and P are dimensionless and Q's entries are of order kappa + gamma + g, so
every rate set that ``Parameters`` accepts evaluates; it holds every limit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import NegativeTimeError, ProbabilityRangeError
from .model import (
    ConditionalGenerator,
    Parameters,
    _rate_key,
    _require_coupling,
    conditional_generator,
)

_PROB_TOL = 1e-10
_BUDGET_NAMES = ("P0", "P_cav", "P_spon")


def _as_float(value):
    """``value`` as a float array, or as a Python float when it is 0-d."""
    value = np.asarray(value, dtype=float)
    return float(value) if value.ndim == 0 else value


def _check_times(t):
    """``t`` as floats (``_as_float``) and its largest time; raises on a negative, NaN or infinite one."""
    times = _as_float(t)
    # The extremes of the times (NaN if one is NaN); the time itself when scalar.
    low, high = (times, times) if type(times) is float else (times.min(initial=0.0), times.max(initial=0.0))
    if not low >= 0.0:  # also rejects NaN
        raise NegativeTimeError("conditional evolution requires t >= 0")
    if not high < math.inf:
        raise ValueError("conditional evolution requires a finite t")
    return times, high


class _Rates(NamedTuple):
    """What the closed forms read from the four rates, built once per rate set."""

    basis: np.ndarray  # (D, P, Q), stacked, read-only; P = I - D, so D + P = I exactly at t = 0
    column: tuple  # row k of column 1 of basis: (D[k, 1], P[k, 1], Q[k, 1]), as floats
    gamma: float
    mean_decay: float  # a = kappa + gamma
    split_squared: float  # S^2 = 4 Omega^2 - (kappa - gamma)^2: > 0 oscillatory, < 0 overdamped
    split: float  # S, or sigma = sqrt(-S^2) when overdamped
    slow: float  # the overdamped slow rate lambda_- = (kappa gamma + Omega^2) / lambda_+
    phase_limit: float  # the largest t with a finite phase (S/2) t; inf unless oscillatory
    time_limit: float  # up to it no exponent's product overflows and the phase is finite


def _rates(params: Parameters) -> _Rates:
    return _rate_projectors(*_rate_key(params))


# Bounded so that a sweep over many rate sets cannot grow it without limit;
# 128 holds every rate set a CLI run or a benchmark round cycles through.
@functools.lru_cache(maxsize=128)
def _rate_projectors(g_a: float, g_b: float, kappa: float, gamma: float) -> _Rates:
    params = Parameters(g_a=g_a, g_b=g_b, kappa=kappa, gamma=gamma)
    generator = conditional_generator(params)  # an exception is not cached, so every call checks
    mean_decay = kappa + gamma
    dark = np.outer(generator.dark_state, generator.dark_state)
    plane = np.eye(3) - dark
    basis = np.stack([dark, plane, (mean_decay * np.eye(3) - 2.0 * generator.matrix) @ plane])
    basis.setflags(write=False)
    split_sq = 4.0 * params.coupling_squared - (kappa - gamma) ** 2
    split = math.sqrt(abs(split_sq))
    slow = (kappa * gamma + params.coupling_squared) / (0.5 * (mean_decay + split))
    phase_limit = sys.float_info.max / (0.5 * split) if split_sq > 0.0 else math.inf
    while split_sq > 0.0 and math.isinf(0.5 * split * phase_limit):  # one step down at most
        phase_limit = math.nextafter(phase_limit, 0.0)
    column = tuple(map(tuple, basis[:, :, 1].T.tolist()))
    time_limit = min(phase_limit, 0.5 * sys.float_info.max / mean_decay)  # every exponent's rate is at most a
    return _Rates(basis, column, gamma, mean_decay, split_sq, split, slow, phase_limit, time_limit)


def _clip(value: float) -> float:
    """``ndarray.clip(0.0, 1.0)`` on one float: NaN and -0.0 pass through."""
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


# Keyword arguments of ufunc calls that allocate their result.
_NO_OUT = ({}, {}, {})


def _scaled(rate, times, into: dict):
    # With no buffer, the * operator: the same ufunc, called faster, on an array; a float product on a float.
    return np.multiply(rate, times, **into) if into else rate * times


def _transcendental(ufunc, x, into: dict = _NO_OUT[0]):
    """``ufunc(x)`` into ``into``, or a Python float at a float x.

    numpy's loop at every shape, so a float's bits are the array element's (``math``'s are not).
    """
    return float(ufunc(x)) if type(x) is float else ufunc(x, **into)


def _split_factors(rates: _Rates, times, out=None, clamp=True):
    """The real factors (e0, c, s) of U(t) = e0 D + c P + s Q (module docstring).

    Python floats at a float t.  ``out``, when given, is an array of shape
    (3,) + t.shape that receives them, row by row, with no array allocated;
    otherwise they are new arrays.  Each factor starts as a ufunc result and
    is finished in place, so every path does the same operations in the same
    order.  The phase S t/2 is taken at min(t, ``rates.phase_limit``), past
    which c and s are 0 (``_check_phase``); ``clamp=False`` skips that pass.
    """
    into_e0, into_cos, into_sin = _NO_OUT if out is None else ({"out": row} for row in out)
    if rates.split_squared > 0.0:
        envelope = _transcendental(np.exp, _scaled(-0.5 * rates.mean_decay, times, into_cos), into_cos)
        phase_time = times if not clamp else (
            min(times, rates.phase_limit) if type(times) is float else np.minimum(times, rates.phase_limit, **into_sin))
        phase = _scaled(0.5 * rates.split, phase_time, into_sin)
        cosine = _transcendental(np.cos, phase, into_e0)
        sin_factor = _transcendental(np.sin, phase, into_sin)
        sin_factor *= envelope
        sin_factor /= rates.split
        envelope *= cosine
        cos_factor = envelope
    elif rates.split_squared == 0.0:
        cos_factor = _transcendental(np.exp, _scaled(-0.5 * rates.mean_decay, times, into_cos), into_cos)
        sin_factor = _scaled(0.5, times, into_sin)
        sin_factor *= cos_factor
    else:
        # Overdamped: bright rates lambda_+- = (a +- sigma)/2, with
        # c = (e^{-lambda_- t} + e^{-lambda_+ t})/2 and
        # s = (e^{-lambda_- t} - e^{-lambda_+ t})/(2 sigma).
        sin_factor = _transcendental(np.expm1, _scaled(-rates.split, times, into_sin), into_sin)  # the gap
        cos_factor = _transcendental(np.exp, _scaled(-rates.slow, times, into_cos), into_cos)  # the slow decay
        half_gap = _scaled(0.5, sin_factor, into_e0)
        half_gap += 1.0
        sin_factor *= cos_factor
        sin_factor /= -2.0 * rates.split
        cos_factor *= half_gap
    e0 = _transcendental(np.exp, _scaled(-rates.gamma, times, into_e0), into_e0)
    return e0, cos_factor, sin_factor


def _check_phase(rates: _Rates, first: float, time=None) -> None:
    """Raises ValueError naming ``time`` (or ``first``) unless e^{-a t/2} is 0 at ``first``, past the phase limit."""
    if np.exp(-0.5 * rates.mean_decay * first) > 0.0:
        raise ValueError(f"t = {time or first!r} is out of the domain: the phase S t/2 overflows before e^(-a t/2) vanishes")


def _checked_factors(rates: _Rates, t):
    """The checked times t (``_check_times``), them capped where e^{-a t} is 0, and their factors (e0, c, s).

    One comparison up to ``rates.time_limit``; past it ``_check_phase``, and products may be -inf (exp: 0), unwarned.
    """
    times, high = _check_times(t)
    if not high > rates.time_limit:
        return times, times, _split_factors(rates, times, clamp=False)
    _check_phase(rates, float(np.min(times, where=np.greater(times, rates.phase_limit), initial=math.inf)))
    with np.errstate(over="ignore"):
        factors = _split_factors(rates, times)
    return times, times if type(times) is float else np.minimum(times, 0.5 * sys.float_info.max / rates.mean_decay), factors


def _propagate(factors, basis: np.ndarray, out=None) -> np.ndarray:
    """e0 D + c P + s Q over ``basis``, (D, P, Q) or their column 1 stacked: basis.shape[1:] + t.shape.

    Elementwise by broadcasting, so that a time's result does not depend on how
    many are evaluated together.  ``out``, when given, is a pair of arrays of
    that shape: the result, and each product before it is added.
    """
    e0, cos_factor, sin_factor = factors
    into_total, into_term = _NO_OUT[:2] if out is None else ({"out": array} for array in out)
    basis = basis.reshape(basis.shape + (1,) * getattr(e0, "ndim", 0))
    total = _scaled(basis[0], e0, into_total)
    total += _scaled(basis[1], cos_factor, into_term)
    total += _scaled(basis[2], sin_factor, into_term)
    return total


def _amplitudes(rates: _Rates, factors, out=None):
    """(c_100, c_010, c_001): the state grown from |010>, column 1 of U(t).

    Three Python floats at a float t, row k (d e0 + p c) + q s for (d, p, q)
    row k of ``rates.column``; otherwise the (3,) + t.shape array of
    ``_propagate`` (``out`` is its pair of buffers).  The same operations in
    the same order, so the bits match.
    """
    e0, cos_factor, sin_factor = factors
    if type(e0) is float:
        return [d * e0 + p * cos_factor + q * sin_factor for d, p, q in rates.column]
    return _propagate(factors, rates.basis[:, :, 1], out)


# Rows of a _survival_kernel buffer: the amplitudes, left there for the
# caller; their products and then squares; the factors and then the rates.
_KERNEL_ROWS = 9


def _survival_kernel(params: Parameters):
    """P0, w1 and two channel rates at an array of times, for the state from |010>.

    From the amplitudes of ``_amplitudes``: P0 = c_100^2 + c_010^2 + c_001^2,
    bit for bit the budget's, the cavity rate w_cav = 2 kappa c_100^2, the
    atom-a rate w_a = 2 gamma c_010^2, and the total rate w1 = -dP0/dt =
    w_cav + 2 gamma (c_010^2 + c_001^2), a sum of nonnegative terms, so that
    a root's last evaluation also picks its channel.  Elementwise.

    ``kernel(times, out)`` computes in ``out``, a (_KERNEL_ROWS,) + t.shape
    array (allocated when not given), and returns views of it; rows 0 to 2
    then hold the amplitudes (c_100, c_010, c_001).
    """
    rates = _rates(params)
    kappa2, gamma2 = 2.0 * params.kappa, 2.0 * params.gamma

    def kernel(times: np.ndarray, out=None):
        if out is None:
            out = np.empty((_KERNEL_ROWS,) + times.shape)
        factors = _split_factors(rates, times, out[6:])
        amplitudes = _amplitudes(rates, factors, (out[:3], out[3:6]))
        cavity, atom_a, atom_b = np.square(amplitudes, out=out[3:6])
        p0, w_cav, w1 = factors  # spent: the rates take their rows
        np.add(cavity, atom_a, out=p0)
        p0 += atom_b
        np.multiply(kappa2, cavity, out=w_cav)
        np.add(atom_a, atom_b, out=w1)
        w1 *= gamma2
        w1 += w_cav
        return p0, w1, w_cav, np.multiply(gamma2, atom_a, out=atom_a)

    return kernel


class Propagator:
    """Evaluates U(t) = exp(-M t) for a fixed conditional generator.

    ``method`` is a read-only label of the branch of ``_split_factors``
    taken: "series" when the generator is defective (S^2 = 0 exactly),
    "spectral" otherwise.  "series" names a Taylor fallback that the closed
    form replaced; the benchmark's per-path metrics are keyed on the label,
    so it is renamed with the benchmark.  Instances are immutable and safe
    to share across threads.
    """

    def __init__(self, generator: ConditionalGenerator):
        self.generator = generator
        self._rates = _rates(generator.params)

    @classmethod
    def from_parameters(cls, params: Parameters) -> "Propagator":
        return cls(conditional_generator(params))

    @property
    def method(self) -> str:
        return "series" if self._rates.split_squared == 0.0 else "spectral"

    def matrix(self, t) -> np.ndarray:
        """U(t) as a real array of shape t.shape + (3, 3)."""
        entries = _propagate(_checked_factors(self._rates, t)[2], self._rates.basis)
        return np.ascontiguousarray(entries.transpose(*range(2, entries.ndim), 0, 1))


def conditional_state(params: Parameters, t) -> np.ndarray:
    """Closed-form unnormalized conditional state grown from |010>.

    Column 1 of U(t): the dark component decays only at the spontaneous rate,
    the two bright components at the mean rate (kappa+gamma)/2 while
    precessing with S/2 (or at the two real bright rates when overdamped).
    Returns real amplitudes of shape t.shape + (3,).
    """
    rates = _rates(params)
    amps = np.asarray(_amplitudes(rates, _checked_factors(rates, t)[2]))
    return np.ascontiguousarray(amps.transpose(*range(1, amps.ndim), 0))


def cavity_emission_saturation(params: Parameters) -> float:
    """Total probability that the excitation ever leaves through the mirrors.

    kappa/(kappa+gamma) * g_a^2/(g_a^2+g_b^2+kappa*gamma), the t -> infinity
    limit of the cavity emission probability.  Both factors lie in [0, 1], so
    it neither overflows nor divides by a product that underflowed to zero.
    """
    _require_coupling(params)
    bright_rates = params.coupling_squared + params.kappa * params.gamma  # lambda_+ lambda_-
    return params.kappa / (params.kappa + params.gamma) * (params.g_a**2 / bright_rates)


@dataclasses.dataclass(frozen=True)
class ProbabilityTriple:
    """Exclusive event budget: no emission yet, mirror decay, spontaneous decay.

    Fields are scalars or arrays matching the ``t`` passed in; the three
    probabilities sum to one at every time.
    """

    t: object
    p0: object
    p_cav: object
    p_spon: object


def emission_probabilities(params: Parameters, t) -> ProbabilityTriple:
    """The exhaustive probability split (P0, P_cav, P_spon) at time(s) t.

    P0 is the squared norm of the conditional state.  P_cav is the time
    integral of the cavity rate 2 kappa |c_100(t')|^2; writing a = kappa+gamma,
    the bracket multiplying the saturation value is

        1 - e^{-a t} [ 1 + a^2 (1-cos(S t))/S^2 + a sin(S t)/S ]
          = 1 - e^{-a t} - 2 a s (a s + c)

    in the factors c, s of ``_split_factors``, which keeps it real and
    overflow-free in every regime.  P_spon is the complement 1 - P0 - P_cav,
    so the triple sums to one by construction.  Accepts a scalar or an array
    of times.
    """
    rates = _rates(params)
    times, capped, factors = _checked_factors(rates, t)
    _, cos_factor, sin_factor = factors
    mean_decay = rates.mean_decay
    cavity, atom_a, atom_b = (amplitude * amplitude for amplitude in _amplitudes(rates, factors))
    decay = _transcendental(np.exp, -mean_decay * capped)
    bracket = 1.0 - decay - 2.0 * mean_decay * sin_factor * (mean_decay * sin_factor + cos_factor)
    p0 = cavity + atom_a + atom_b
    p_cav = cavity_emission_saturation(params) * bracket + 0.0  # -0.0 (at g_a = 0) to 0.0
    if type(times) is float:  # the array code below, element for element, on Python floats
        raw = [p0, p_cav, 1.0 - _clip(p0) - _clip(p_cav)]
        clipped = [_clip(value) for value in raw]
        for name, value, bounded in zip(_BUDGET_NAMES, raw, clipped):
            if not abs(value - bounded) < _PROB_TOL:  # also NaN
                raise ProbabilityRangeError(f"{name} out of range by {abs(value - bounded)}")
        return ProbabilityTriple(times, *clipped)
    raw = np.empty((3,) + times.shape)
    raw[:2] = p0, p_cav
    p0, p_cav = raw[:2].clip(0.0, 1.0)
    raw[2] = 1.0 - p0 - p_cav
    clipped = raw.clip(0.0, 1.0)  # rows 0 and 1 as above
    excess = np.abs(raw - clipped)
    if not float(excess.max(initial=0.0)) < _PROB_TOL:  # then the first row at fault, NaN included
        for name, row in zip(_BUDGET_NAMES, excess.reshape(3, -1)):
            if not (row_worst := float(row.max(initial=0.0))) < _PROB_TOL:
                raise ProbabilityRangeError(f"{name} out of range by {row_worst}")
    return ProbabilityTriple(times, *clipped)
