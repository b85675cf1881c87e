"""Exact no-detection propagation and the emission probability budget.

One real closed form evaluates U(t) = exp(-M t) in every regime.  The dark
vector d = (0, g_b, -g_a)/Omega is a left and a right eigenvector of M with
eigenvalue gamma, so the dark projector D = d d^T commutes with M and the
bright plane P = I - D (the cavity mode and the coupled atomic combination)
is invariant.  On that plane (M - a/2)^2 = -S^2/4, with a = kappa + gamma and
S^2 = 4 Omega^2 - (kappa - gamma)^2, so that

    U(t) = e0 D + c P + s Q,    Q = 2 (a/2 - M) P,
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
NaN time raises NegativeTimeError and an infinite one ValueError.
Probabilities are clipped to [0, 1].  ``emission_probabilities`` clips P0
and P_cav, forms P_spon = 1 - P0 - P_cav from the clipped values, and then
checks all three unclipped quantities in one pass: the largest excess
outside [0, 1] is computed once, and past round-off (or on NaN)
ProbabilityRangeError names the quantity and its excess.

The projectors depend only on the four rates, so ``_projectors`` builds them
once per rate set (a bounded cache keyed on (g_a, g_b, kappa, gamma), shared
by every eta) and hands out one read-only array to every caller and thread.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import NegativeTimeError, ProbabilityRangeError
from .model import (
    ConditionalGenerator,
    Parameters,
    _generator_matrix,
    _rate_key,
    _require_coupling,
    _split_squared,
    conditional_generator,
)

_PROB_TOL = 1e-10


def _check_times(t):
    # [()] makes a 0-d array a numpy scalar and leaves any other array whole, so
    # a scalar t runs the array code in numpy's cheaper scalar arithmetic.
    times = np.asarray(t, dtype=float)[()]
    if not ((times >= 0.0) & (times < np.inf)).all():
        if not (times >= 0.0).all():  # also rejects NaN
            raise NegativeTimeError("conditional evolution requires t >= 0")
        raise ValueError("conditional evolution requires a finite t")
    return times


def _check_range(raw: np.ndarray, clipped: np.ndarray, names) -> float:
    """The largest excess |raw - clipped| outside [0, 1] over ``raw``, whose rows are ``names``.

    Raises ProbabilityRangeError, naming the first row at fault, when the
    excess is not below _PROB_TOL (NaN included).
    """
    excess = np.abs(raw - clipped)
    worst = float(excess.max(initial=0.0))
    if not worst < _PROB_TOL:
        for name, row in zip(names, excess.reshape(len(names), -1)):
            row_worst = float(row.max(initial=0.0))
            if not row_worst < _PROB_TOL:
                raise ProbabilityRangeError(f"{name} out of range by {row_worst}")
    return worst


# Keyword arguments of ufunc calls that allocate their result.  A ufunc passed
# out=None leaves numpy's fast path for scalars, and the closed forms are
# called at scalar times too, so ``out`` is passed only when there is one.
_NO_OUT = ({}, {}, {})


def _scaled(rate: float, times, into: dict):
    # With no buffer, the * operator: the same ufunc on an array, cheaper on a numpy scalar.
    return np.multiply(rate, times, **into) if into else rate * times


def _split_factors(params: Parameters, times: np.ndarray, out=None):
    """The real factors (e0, c, s) of U(t) = e0 D + c P + s Q (module docstring).

    ``out``, when given, is an array of shape (3,) + t.shape that receives
    them, row by row, with no array allocated; otherwise they are new arrays
    (numpy scalars at a scalar t).  Each factor starts as a ufunc result and is
    finished in place, so both paths do the same operations in the same
    order.
    """
    into_e0, into_cos, into_sin = _NO_OUT if out is None else ({"out": row} for row in out)
    mean_decay = params.kappa + params.gamma
    split_sq = _split_squared(params)
    if split_sq > 0.0:
        split = math.sqrt(split_sq)
        envelope = np.exp(_scaled(-0.5 * mean_decay, times, into_cos), **into_cos)
        phase = _scaled(0.5 * split, times, into_sin)
        cosine = np.cos(phase, **into_e0)
        sin_factor = np.sin(phase, **into_sin)
        sin_factor *= envelope
        sin_factor /= split
        envelope *= cosine
        cos_factor = envelope
    elif split_sq == 0.0:
        cos_factor = np.exp(_scaled(-0.5 * mean_decay, times, into_cos), **into_cos)
        sin_factor = _scaled(0.5, times, into_sin)
        sin_factor *= cos_factor
    else:
        # Overdamped: bright rates lambda_+- = (a +- sigma)/2, with
        # c = (e^{-lambda_- t} + e^{-lambda_+ t})/2 and
        # s = (e^{-lambda_- t} - e^{-lambda_+ t})/(2 sigma).
        sigma = math.sqrt(-split_sq)
        slow = (params.kappa * params.gamma + params.coupling_squared) / (0.5 * (mean_decay + sigma))
        sin_factor = np.expm1(_scaled(-sigma, times, into_sin), **into_sin)  # the gap
        cos_factor = np.exp(_scaled(-slow, times, into_cos), **into_cos)  # the slow decay
        half_gap = np.multiply(0.5, sin_factor, **into_e0)
        half_gap += 1.0
        sin_factor *= cos_factor
        sin_factor /= -2.0 * sigma
        cos_factor *= half_gap
    e0 = np.exp(_scaled(-params.gamma, times, into_e0), **into_e0)
    return e0, cos_factor, sin_factor


def _projectors(params: Parameters) -> np.ndarray:
    """Omega^2 (D, P, Q), stacked, for U(t) = e0 D + c P + s Q.

    Left unnormalized so that D + P = I holds exactly at t = 0.  The array
    is shared by every call on the same four rates, so it is read-only.
    """
    return _rate_projectors(*_rate_key(params))


# Bounded so that a sweep over many rate sets cannot grow it without limit;
# 128 holds every rate set a CLI run or a benchmark round cycles through.
@functools.lru_cache(maxsize=128)
def _rate_projectors(g_a: float, g_b: float, kappa: float, gamma: float) -> np.ndarray:
    params = Parameters(g_a=g_a, g_b=g_b, kappa=kappa, gamma=gamma)
    _require_coupling(params)  # an exception is not cached, so every call checks
    dark = np.array([0.0, g_b, -g_a])
    bright = np.array([0.0, g_a, g_b])
    plane = np.outer(bright, bright)
    plane[0, 0] = params.coupling_squared  # the cavity mode
    # Q grows like Omega^3 and overflows long before the squares that
    # Parameters checks (from g_a of about 4.5e102 at g_b = kappa = 1).
    with np.errstate(over="ignore", invalid="ignore"):
        sine = (kappa + gamma) * plane - 2.0 * _generator_matrix(params) @ plane
    if not np.isfinite(sine).all():
        raise ValueError(
            f"rates too large: Q = 2(a/2 - M)P is not finite for g_a={g_a!r}, "
            f"g_b={g_b!r}, kappa={kappa!r}, gamma={gamma!r}"
        )
    out = np.stack([np.outer(dark, dark), plane, sine])
    out.setflags(write=False)
    return out


def _propagate(params: Parameters, factors, basis: np.ndarray, out=None) -> np.ndarray:
    """e0 D + c P + s Q from (e0, c, s), component-major: basis.shape[1:] + t.shape.

    ``basis`` stacks entries of ``_projectors`` on its first axis (all of it,
    or a column), so each entry comes back as one contiguous array over the
    times.  Elementwise, not a matrix product, so that each time's result
    does not depend on how many times are evaluated together.  ``out``, when
    given, is a pair of arrays of the result's shape: the result is
    accumulated in the first, and the second holds each product before it
    is added.
    """
    e0, cos_factor, sin_factor = factors
    into_total, into_term = _NO_OUT[:2] if out is None else ({"out": array} for array in out)
    basis = basis.reshape(basis.shape + (1,) * e0.ndim)  # an outer product by broadcasting
    total = np.multiply(basis[0], e0, **into_total)
    total += np.multiply(basis[1], cos_factor, **into_term)
    total += np.multiply(basis[2], sin_factor, **into_term)
    total /= params.coupling_squared
    return total


def _amplitudes(params: Parameters, factors, out=None) -> np.ndarray:
    """(c_100, c_010, c_001): the state grown from |010>, column 1 of U(t).

    ``out`` is the pair of (3,) + t.shape buffers of ``_propagate``.
    """
    return _propagate(params, factors, _projectors(params)[:, :, 1], out)


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
    kappa2, gamma2 = 2.0 * params.kappa, 2.0 * params.gamma

    def kernel(times: np.ndarray, out=None):
        if out is None:
            out = np.empty((_KERNEL_ROWS,) + times.shape)
        factors = _split_factors(params, times, out[6:])
        amplitudes = _amplitudes(params, factors, (out[:3], out[3:6]))
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
        self._basis = _projectors(generator.params)

    @classmethod
    def from_parameters(cls, params: Parameters) -> "Propagator":
        return cls(conditional_generator(params))

    @property
    def method(self) -> str:
        return "series" if _split_squared(self.generator.params) == 0.0 else "spectral"

    def matrix(self, t) -> np.ndarray:
        """U(t) as a real array of shape t.shape + (3, 3)."""
        params = self.generator.params
        entries = _propagate(params, _split_factors(params, _check_times(t)), self._basis)
        return np.ascontiguousarray(entries.transpose(*range(2, entries.ndim), 0, 1))


def conditional_state(params: Parameters, t) -> np.ndarray:
    """Closed-form unnormalized conditional state grown from |010>.

    Column 1 of U(t): the dark component decays only at the spontaneous rate,
    the two bright components at the mean rate (kappa+gamma)/2 while
    precessing with S/2 (or at the two real bright rates when overdamped).
    Returns real amplitudes of shape t.shape + (3,).
    """
    amps = _amplitudes(params, _split_factors(params, _check_times(t)))
    return np.ascontiguousarray(amps.transpose(*range(1, amps.ndim), 0))


def cavity_emission_saturation(params: Parameters) -> float:
    """Total probability that the excitation ever leaves through the mirrors.

    kappa g_a^2 / ((kappa+gamma)(g_a^2+g_b^2+kappa*gamma)); this is the
    t -> infinity limit of the cavity emission probability.
    """
    _require_coupling(params)
    mean_decay = params.kappa + params.gamma
    bright_rates = params.coupling_squared + params.kappa * params.gamma  # lambda_+ lambda_-
    return params.kappa * params.g_a**2 / (mean_decay * bright_rates)


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
    times = _check_times(t)
    factors = _split_factors(params, times)
    _, cos_factor, sin_factor = factors
    mean_decay = params.kappa + params.gamma
    cavity, atom_a, atom_b = np.square(_amplitudes(params, factors))
    decay = np.exp(-mean_decay * times)
    bracket = 1.0 - decay - 2.0 * mean_decay * sin_factor * (mean_decay * sin_factor + cos_factor)
    raw = np.empty((3,) + times.shape)
    raw[0] = cavity + atom_a + atom_b
    raw[1] = cavity_emission_saturation(params) * bracket
    p0, p_cav = raw[:2].clip(0.0, 1.0)
    raw[2] = 1.0 - p0 - p_cav
    clipped = raw.clip(0.0, 1.0)  # rows 0 and 1 as above
    _check_range(raw, clipped, ("P0", "P_cav", "P_spon"))
    p0, p_cav, p_spon = clipped
    if times.ndim == 0:
        times, p0, p_cav, p_spon = float(times), float(p0), float(p_cav), float(p_spon)
    return ProbabilityTriple(t=times, p0=p0, p_cav=p_cav, p_spon=p_spon)
