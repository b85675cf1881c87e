"""Entanglement diagnostics for the no-detection conditioned mixture.

With detector efficiency eta, observing no click up to time t leaves the
two atoms in a rank-2 mixture of the maximally entangled dark-state pair
(weight lam) and the ground state (weight 1 - lam), where
lam = P0(t) / (1 - eta * P_cav(t)): undetected cavity decays contaminate
the conditioning.  The relative entropy of entanglement of that mixture is

    E(lam) = (lam - 2) log2(1 - lam/2) + (1 - lam) log2(1 - lam),

increasing from E(0) = 0 to E(1) = 1.  The mixture and E accept a scalar or
an array of times (or weights): scalars give floats, arrays give arrays of
the same shape, element for element equal to the scalar calls; E and the
repump round are one expression for both.  A repump-and-wait cycle removes
the ground-state admixture: each no-click round maps lam to
lam / (lam + (1 - lam)(1 - p)) at click probability (1 - lam) p.

Where no click has probability zero (gamma = 0, g_b = 0, eta = 1), there is
nothing to condition on, and the mixture raises ZeroProbabilityConditionError.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ZeroProbabilityConditionError
from .model import Parameters
from .propagator import _as_float, _check_times, _transcendental
from .propagator import cavity_emission_saturation, emission_probabilities


@dataclasses.dataclass(frozen=True)
class ConditionedMixture:
    """No-click conditioned two-atom state: dark-pair weight(s) lam at time(s) t."""

    lam: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self) -> None:
        lam = self.lam if type(self.lam) is float else np.asarray(self.lam, dtype=float)
        # Two comparisons on a float, elementwise otherwise; both reject NaN.
        if not (0.0 <= lam <= 1.0 if type(lam) is float else ((lam >= 0.0) & (lam <= 1.0)).all()):
            raise ValueError(f"mixture weight must be in [0, 1], got {self.lam!r}")


def _probability(value, name: str) -> float:
    value = float(value) + 0.0  # -0.0 to 0.0, so that a click probability (1 - lam) p writes 0, not -0
    if not 0.0 <= value <= 1.0:  # also rejects NaN and infinities
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _resolve_eta(params: Parameters, eta: float | None) -> float:
    return params.eta if eta is None else _probability(eta, "detector efficiency")


def _mixture(p0, p_cav, eta: float, times) -> ConditionedMixture:
    """The mixture of weight lam = P0 / (1 - eta P_cav), for P0 and P_cav in [0, 1]."""
    no_click = 1.0 - eta * p_cav  # a float also at an array of times when P_cav is one
    if no_click <= 0.0 if type(no_click) is float else np.count_nonzero(no_click <= 0.0):
        raise ZeroProbabilityConditionError(
            "no click has probability zero (as at gamma = 0, g_b = 0, eta = 1): "
            "the conditioned state is undefined"
        )
    lam = p0 / no_click  # clipped to [0, 1] by min(lam, 1), as P0 >= 0 and no_click > 0
    if type(times) is float:
        return ConditionedMixture(1.0 if lam > 1.0 else lam, times)  # np.minimum's result
    return ConditionedMixture(np.minimum(lam, 1.0), times)


def mixture_at(params: Parameters, t, eta: float | None = None) -> ConditionedMixture:
    """Conditioned mixture from the exact emission budget at time(s) t."""
    eta = _resolve_eta(params, eta)
    triple = emission_probabilities(params, t)
    return _mixture(triple.p0, triple.p_cav, eta, triple.t)


def mixture_asymptotic(params: Parameters, t, eta: float | None = None) -> ConditionedMixture:
    """Conditioned mixture in the post-transient regime (t >> 1/(kappa+gamma)).

    Uses the asymptotic survival weight, the dark weight (g_b^2/Omega^2)
    e^{-2 gamma t} that is left once the bright components have rung down,
    together with the saturated cavity budget: the working point after the
    cavity transient has decayed and only the slow spontaneous envelope
    evolves.  At eta = 0, lam is that survival weight itself.  Both of its
    factors lie in [0, 1] after rounding (g_b^2 <= g_a^2 + g_b^2, and the
    exponent is not positive), so it needs no clip.
    """
    eta = _resolve_eta(params, eta)
    saturation = cavity_emission_saturation(params)
    weight = params.g_b**2 / params.coupling_squared
    times, high = _check_times(t)
    # From t = 1e307/gamma the weight is 0: capped there, an array product cannot overflow (a float one never warns).
    capped = times if type(times) is float or not params.gamma * float(high) > 1e307 else np.minimum(times, 1e307 / params.gamma)
    return _mixture(weight * _transcendental(np.exp, -2.0 * params.gamma * capped), saturation, eta, times)


def relative_entropy_of_entanglement(mixture: ConditionedMixture):
    """E(lam) = (lam - 2) log2(1 - lam/2) + (1 - lam) log2(1 - lam), in bits.

    With x = lam / (2 - lam), 1 - lam = (1 - lam/2)^2 (1 - x^2), so E is
    [(1 - lam) log1p(-x^2) - lam log1p(-lam/2)] / ln 2, whose terms cancel by
    at most a factor of 2: within 6e-16 of mpmath for lam in [1e-150, 1].
    The factor (lam < 1) gives 0 log 0 = 0 at lam = 1 with no branch, so
    E(0) = 0 and E(1) = 1 exactly.
    """
    lam = _as_float(mixture.lam)
    x = lam / (2.0 - lam)
    ground = (1.0 - lam) * _transcendental(np.log1p, -x * x * (lam < 1.0))
    return (ground - lam * _transcendental(np.log1p, -0.5 * lam)) / math.log(2.0)


@dataclasses.dataclass(frozen=True)
class RepumpResult:
    """One repump-and-wait round: updated mixture and the click probability(ies)."""

    mixture: ConditionedMixture
    click_probability: float | np.ndarray


def repump_round(mixture: ConditionedMixture, p_detect: float) -> RepumpResult:
    """Purify by one repump round, conditioning on no click.

    The ground-state fraction is re-excited and detected with probability
    ``p_detect``; observing no click updates the dark-pair weight to
    lam / (lam + (1 - lam)(1 - p_detect)).  Elementwise on an array-valued
    mixture.  The denominator rounds to at least lam, so the new weight lies
    in [0, 1] with no clip; it is 0 only at lam = 0, p_detect = 1, where
    adding (denominator == 0) makes it 1 and the weight 0.
    """
    p_detect = _probability(p_detect, "repump detection probability")
    lam = _as_float(mixture.lam)
    click = (1.0 - lam) * p_detect
    denominator = lam + (1.0 - lam) * (1.0 - p_detect)
    new_lam = lam / (denominator + (denominator == 0.0)) + 0.0  # + 0.0: a -0.0 weight writes 0, not -0
    return RepumpResult(ConditionedMixture(new_lam, mixture.t), click)
