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
conditional state grown from |010> is column 1 of U(t), and the cavity
emission probability is a closed form in the same three factors;
``emission_probabilities`` evaluates both from one set of factors, and the
single-quantity functions are views of it.

All time-dependent quantities accept scalar or array times.  Probabilities
are clipped to [0, 1]; a violation beyond round-off raises
ProbabilityRangeError.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import NegativeTimeError, ProbabilityRangeError
from .model import (
    ConditionalGenerator,
    Parameters,
    StateVector,
    _emission_rates,
    _generator_matrix,
    _require_coupling,
    _split_squared,
    conditional_generator,
)

_PROB_TOL = 1e-10


def _check_times(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise NegativeTimeError("conditional evolution requires t >= 0")
    return arr


def _clipped_probability(p: np.ndarray):
    arr = np.asarray(p, dtype=float)
    if arr.size:
        worst = float(max(np.max(-arr), np.max(arr - 1.0), 0.0))
        if not worst < _PROB_TOL:
            raise ProbabilityRangeError(f"probability out of range by {worst}")
    out = np.clip(arr, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _split_factors(params: Parameters, times: np.ndarray):
    """The real factors (e0, c, s) of U(t) = e0 D + c P + s Q (module docstring)."""
    mean_decay = params.kappa + params.gamma
    split_sq = _split_squared(params)
    e0 = np.exp(-params.gamma * times)
    if split_sq > 0.0:
        split = math.sqrt(split_sq)
        envelope = np.exp(-0.5 * mean_decay * times)
        phase = 0.5 * split * times
        return e0, envelope * np.cos(phase), envelope * np.sin(phase) / split
    if split_sq == 0.0:
        envelope = np.exp(-0.5 * mean_decay * times)
        return e0, envelope, 0.5 * times * envelope
    # Overdamped: bright rates lambda_+- = (a +- sigma)/2, with
    # c = (e^{-lambda_- t} + e^{-lambda_+ t})/2 and
    # s = (e^{-lambda_- t} - e^{-lambda_+ t})/(2 sigma).
    sigma = math.sqrt(-split_sq)
    slow = (params.kappa * params.gamma + params.coupling_squared) / (0.5 * (mean_decay + sigma))
    slow_decay = np.exp(-slow * times)
    gap = np.expm1(-sigma * times)
    return e0, slow_decay * (1.0 + 0.5 * gap), -slow_decay * gap / (2.0 * sigma)


def _projectors(params: Parameters) -> np.ndarray:
    """Omega^2 (D, P, Q), stacked, for U(t) = e0 D + c P + s Q.

    Left unnormalized so that D + P = I holds exactly at t = 0.
    """
    _require_coupling(params)
    dark = np.array([0.0, params.g_b, -params.g_a])
    bright = np.array([0.0, params.g_a, params.g_b])
    plane = np.outer(bright, bright)
    plane[0, 0] = params.coupling_squared  # the cavity mode
    mean_decay = params.kappa + params.gamma
    sine = mean_decay * plane - 2.0 * _generator_matrix(params) @ plane
    return np.stack([np.outer(dark, dark), plane, sine])


def _propagate(params: Parameters, factors, basis: np.ndarray) -> np.ndarray:
    """e0 D + c P + s Q from (e0, c, s) and the rows of ``_projectors`` (or columns).

    Elementwise, not a matrix product, so that each time's result does not
    depend on how many times are evaluated together.
    """
    e0, cos_factor, sin_factor = factors
    total = (
        np.multiply.outer(e0, basis[0])
        + np.multiply.outer(cos_factor, basis[1])
        + np.multiply.outer(sin_factor, basis[2])
    )
    return total / params.coupling_squared


class Propagator:
    """Evaluates U(t) = exp(-M t) for a fixed conditional generator.

    ``method`` is a read-only label of the regime: "series" when the
    generator is defective (S^2 = 0 exactly), "spectral" otherwise.  Both
    evaluate the same closed form; the label only names the branch of
    ``_split_factors`` taken.  Instances are immutable after construction
    and safe to share across threads.
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
        return _propagate(params, _split_factors(params, _check_times(t)), self._basis)

    def apply(self, state, t) -> np.ndarray:
        """Amplitudes of U(t) applied to ``state`` (StateVector or length-3)."""
        if isinstance(state, StateVector):
            psi = state.amplitudes
        else:
            psi = np.asarray(state)
            if psi.shape != (3,):
                raise ValueError("state must have three amplitudes")
        return self.matrix(t) @ psi

    def survival(self, state, t):
        """Squared norm of the conditionally evolved state (not clipped)."""
        amps = self.apply(state, t)
        out = np.sum(np.abs(amps) ** 2, axis=-1)
        return float(out) if out.ndim == 0 else out


def conditional_state(params: Parameters, t) -> np.ndarray:
    """Closed-form unnormalized conditional state grown from |010>.

    Column 1 of U(t): the dark component decays only at the spontaneous rate,
    the two bright components at the mean rate (kappa+gamma)/2 while
    precessing with S/2 (or at the two real bright rates when overdamped).
    Returns real amplitudes of shape t.shape + (3,).
    """
    return _propagate(params, _split_factors(params, _check_times(t)), _projectors(params)[:, :, 1])


def no_emission_probability(prop: Propagator, t):
    """P0(t): probability that no photon has been emitted by time t."""
    return emission_probabilities(prop.generator.params, t).p0


def no_emission_probability_asymptotic(params: Parameters, t):
    """Late-time form of P0: the surviving dark weight (g_b^2/Omega^2) e^{-2 gamma t}.

    Valid once the bright components have rung down (t >> 1/(kappa+gamma)).
    """
    _require_coupling(params)
    times = _check_times(t)
    weight = params.g_b**2 / params.coupling_squared
    return _clipped_probability(weight * np.exp(-2.0 * params.gamma * times))


def first_emission_density(prop: Propagator, t):
    """Waiting-time density w1(t) for the first emission from |010>.

    Sum of the channel rates (``model._emission_rates``) on the conditional
    state; equals -dP0/dt.
    """
    params = prop.generator.params
    w_cav, w_a, w_b = _emission_rates(params, conditional_state(params, t) ** 2)
    out = w_cav + w_a + w_b
    return float(out) if out.ndim == 0 else out


def cavity_emission_saturation(params: Parameters) -> float:
    """Total probability that the excitation ever leaves through the mirrors.

    kappa g_a^2 / ((kappa+gamma)(g_a^2+g_b^2+kappa*gamma)); this is the
    t -> infinity limit of the cavity emission probability.
    """
    _require_coupling(params)
    g_sq = params.coupling_squared
    mean_decay = params.kappa + params.gamma
    return float(
        params.kappa * params.g_a**2 / (mean_decay * (g_sq + params.kappa * params.gamma))
    )


def cavity_emission_probability(params: Parameters, t):
    """P_cav(t): probability of a mirror emission by time t."""
    return emission_probabilities(params, t).p_cav


def spontaneous_emission_probability_asymptotic(params: Parameters, t):
    """Late-time spontaneous-emission budget: 1 - P0_asymptotic - P_cav(inf)."""
    times = _check_times(t)
    leftover = (
        1.0
        - no_emission_probability_asymptotic(params, times)
        - cavity_emission_saturation(params)
    )
    return _clipped_probability(leftover)


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
    amps = _propagate(params, factors, _projectors(params)[:, :, 1])
    p0 = _clipped_probability(np.sum(amps**2, axis=-1))
    bracket = (
        1.0
        - np.exp(-mean_decay * times)
        - 2.0 * mean_decay * sin_factor * (mean_decay * sin_factor + cos_factor)
    )
    p_cav = _clipped_probability(cavity_emission_saturation(params) * bracket)
    p_spon = _clipped_probability(1.0 - p0 - p_cav)
    return ProbabilityTriple(
        t=float(times) if times.ndim == 0 else times,
        p0=p0,
        p_cav=p_cav,
        p_spon=p_spon,
    )
