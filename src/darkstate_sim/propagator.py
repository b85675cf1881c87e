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
``emission_probabilities``, the one entry point for the budget, evaluates
both from one set of factors.  ``_survival_kernel`` gives P0 and its rate
w1 = -dP0/dt from the factors alone, without the amplitudes, for the Monte
Carlo root finder.

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
    _require_coupling,
    _split_squared,
    conditional_generator,
)

_PROB_TOL = 1e-10


def _check_times(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    # The .all() methods skip the dispatch of np.all: this runs on every call.
    if not (arr >= 0.0).all():  # also rejects NaN
        raise NegativeTimeError("conditional evolution requires t >= 0")
    if not (arr < np.inf).all():
        raise ValueError("conditional evolution requires a finite t")
    return arr


def _check_range(raw: np.ndarray, names) -> float:
    """The largest excess outside [0, 1] over ``raw``, whose rows are ``names``.

    Raises ProbabilityRangeError, naming the first row at fault, when the
    excess is not below _PROB_TOL (NaN included).
    """
    excess = np.maximum(-raw, raw - 1.0)
    worst = float(np.max(excess, initial=0.0))
    if not worst < _PROB_TOL:
        for name, row in zip(names, excess.reshape(len(names), -1)):
            row_worst = float(np.max(row, initial=0.0))
            if not row_worst < _PROB_TOL:
                raise ProbabilityRangeError(f"{name} out of range by {row_worst}")
    return worst


def _clipped_probability(p: np.ndarray):
    arr = np.asarray(p, dtype=float)
    _check_range(arr[np.newaxis], ("probability",))
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

    Left unnormalized so that D + P = I holds exactly at t = 0.  The array
    is shared by every call on the same four rates, so it is read-only.
    """
    _require_coupling(params)
    # -0.0 and 0.0 are one cache key, so the array is built from + 0.0 and
    # never depends on which of them filled the entry.
    return _rate_projectors(
        params.g_a + 0.0, params.g_b + 0.0, params.kappa + 0.0, params.gamma + 0.0
    )


# Bounded so that a sweep over many rate sets cannot grow it without limit;
# 128 holds every rate set a CLI run or a benchmark round cycles through.
@functools.lru_cache(maxsize=128)
def _rate_projectors(g_a: float, g_b: float, kappa: float, gamma: float) -> np.ndarray:
    params = Parameters(g_a=g_a, g_b=g_b, kappa=kappa, gamma=gamma)
    dark = np.array([0.0, g_b, -g_a])
    bright = np.array([0.0, g_a, g_b])
    plane = np.outer(bright, bright)
    plane[0, 0] = params.coupling_squared  # the cavity mode
    sine = (kappa + gamma) * plane - 2.0 * _generator_matrix(params) @ plane
    out = np.stack([np.outer(dark, dark), plane, sine])
    out.setflags(write=False)
    return out


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


def _survival_kernel(params: Parameters):
    """P0, w1 and two channel rates at an array of times, for the state from |010>.

    With f = (e0, c, s), the state is B^T f / Omega^2, B holding column 1 of
    each of Omega^2 (D, P, Q), so P0 = f^T G f / Omega^4 with the Gram matrix
    G = B B^T, formed here once.  D and P have no (0, 1) entry, so the cavity
    amplitude is c_100 = -2 g_a s, and with x = 4 g_a^2 s^2 the total rate
    w1 = -dP0/dt is 2 kappa x + 2 gamma (P0 - x).  The kernel returns
    (P0, w1, w_cav, w_a): besides the pair, the cavity rate 2 kappa x and the
    atom-a rate 2 gamma c_010^2, with c_010 = f . B[:, 1] / Omega^2, so that a
    root's last evaluation also picks its channel.  The full amplitude vector
    is never formed, and the evaluation is elementwise, so a time's result
    does not depend on how many times are evaluated together.
    """
    basis = _projectors(params)[:, :, 1]
    gram = basis @ basis.T / params.coupling_squared**2
    g_ee, g_ec, g_es = gram[0, 0], 2.0 * gram[0, 1], 2.0 * gram[0, 2]
    g_cc, g_cs, g_ss = gram[1, 1], 2.0 * gram[1, 2], gram[2, 2]
    b_e, b_c, b_s = basis[:, 1]
    cavity_sq = 4.0 * params.g_a**2
    coupling_sq = params.coupling_squared
    kappa2, gamma2 = 2.0 * params.kappa, 2.0 * params.gamma

    def kernel(times: np.ndarray):
        e0, c, s = _split_factors(params, times)
        p0 = e0 * (g_ee * e0 + g_ec * c + g_es * s) + c * (g_cc * c + g_cs * s) + g_ss * s * s
        x = cavity_sq * s * s
        c_010 = (e0 * b_e + c * b_c + s * b_s) / coupling_sq
        w_cav = kappa2 * x
        return p0, w_cav + gamma2 * (p0 - x), w_cav, gamma2 * c_010**2

    return kernel


class Propagator:
    """Evaluates U(t) = exp(-M t) for a fixed conditional generator.

    ``method`` is a read-only label of the branch of ``_split_factors``
    taken: "series" when the generator is defective (S^2 = 0 exactly),
    "spectral" otherwise.  Both evaluate the same closed form.  "series"
    names a Taylor fallback that the closed form replaced; the label keeps
    it because the benchmark's ``propagator.matrix_us_per_point.series``
    metric and its path counts are keyed on it, so it is renamed together
    with the benchmark.  Instances are immutable after construction and safe
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
        return _propagate(params, _split_factors(params, _check_times(t)), self._basis)


def conditional_state(params: Parameters, t) -> np.ndarray:
    """Closed-form unnormalized conditional state grown from |010>.

    Column 1 of U(t): the dark component decays only at the spontaneous rate,
    the two bright components at the mean rate (kappa+gamma)/2 while
    precessing with S/2 (or at the two real bright rates when overdamped).
    Returns real amplitudes of shape t.shape + (3,).
    """
    return _propagate(params, _split_factors(params, _check_times(t)), _projectors(params)[:, :, 1])


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
    bracket = (
        1.0
        - np.exp(-mean_decay * times)
        - 2.0 * mean_decay * sin_factor * (mean_decay * sin_factor + cos_factor)
    )
    raw = np.empty((3,) + times.shape)
    raw[0] = np.sum(amps**2, axis=-1)
    raw[1] = cavity_emission_saturation(params) * bracket
    p0, p_cav = np.clip(raw[:2], 0.0, 1.0)
    raw[2] = 1.0 - p0 - p_cav
    _check_range(raw, ("P0", "P_cav", "P_spon"))
    p_spon = np.clip(raw[2], 0.0, 1.0)
    if times.ndim == 0:
        times, p0, p_cav, p_spon = float(times), float(p0), float(p_cav), float(p_spon)
    return ProbabilityTriple(t=times, p0=p0, p_cav=p_cav, p_spon=p_spon)
