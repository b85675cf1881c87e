"""Entanglement diagnostics for the no-detection conditioned mixture.

With detector efficiency eta, observing no click up to time t leaves the
two atoms in a rank-2 mixture of the maximally entangled dark-state pair
(weight lam) and the ground state (weight 1 - lam), where
lam = P0(t) / (1 - eta * P_cav(t)): undetected cavity decays contaminate
the conditioning.  The relative entropy of entanglement of that mixture is

    E(lam) = (lam - 2) log2(1 - lam/2) + (1 - lam) log2(1 - lam),

increasing from E(0) = 0 to E(1) = 1.  The mixture and E accept a scalar or
an array of times (or weights): scalars give floats, arrays give arrays of
the same shape, element for element equal to the scalar calls.  A
repump-and-wait cycle removes the ground-state admixture: each no-click round
maps lam to lam / (lam + (1 - lam)(1 - p)) at click probability (1 - lam) p.

Where no click has probability zero (gamma = 0, g_b = 0, eta = 1), there is
nothing to condition on, and the mixture raises ZeroProbabilityConditionError.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ZeroProbabilityConditionError
from .model import Parameters
from .propagator import _check_times, cavity_emission_saturation, emission_probabilities


@dataclasses.dataclass(frozen=True)
class ConditionedMixture:
    """No-click conditioned two-atom state: dark-pair weight(s) lam at time(s) t."""

    lam: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=float)[()]  # a numpy scalar at 0-d
        if not ((lam >= 0.0) & (lam <= 1.0)).all():  # also rejects NaN
            raise ValueError(f"mixture weight must be in [0, 1], got {self.lam!r}")


def _probability(value, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:  # also rejects NaN and infinities
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _resolve_eta(params: Parameters, eta: float | None) -> float:
    return params.eta if eta is None else _probability(eta, "detector efficiency")


def _mixture(p0, p_cav, eta: float, times) -> ConditionedMixture:
    """The mixture of weight lam = P0 / (1 - eta P_cav), for P0 and P_cav in [0, 1]."""
    no_click = 1.0 - eta * p_cav
    if np.count_nonzero(no_click <= 0.0):
        raise ZeroProbabilityConditionError(
            "no click has probability zero (as at gamma = 0, g_b = 0, eta = 1): "
            "the conditioned state is undefined"
        )
    lam = np.minimum(p0 / no_click, 1.0)  # the clip to [0, 1], as P0 >= 0 and no_click > 0
    if lam.ndim == 0:
        return ConditionedMixture(lam=float(lam), t=float(times))
    return ConditionedMixture(lam=lam, t=times)


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
    times = _check_times(t)
    return _mixture(weight * np.exp(-2.0 * params.gamma * times), saturation, eta, times)


def relative_entropy_of_entanglement(mixture: ConditionedMixture):
    """E(lam) = (lam - 2) log2(1 - lam/2) + (1 - lam) log2(1 - lam), in bits.

    With 0 log 0 = 0 the formula gives E(0) = 0 and E(1) = 1 exactly.
    """
    lam = np.asarray(mixture.lam, dtype=float)[()]
    first = (lam - 2.0) * np.log2(1.0 - 0.5 * lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        second = np.where(lam < 1.0, (1.0 - lam) * np.log2(1.0 - lam), 0.0)
    out = first + second
    return float(out) if out.ndim == 0 else out


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
    in [0, 1] with no clip; a zero denominator (lam = 0, p_detect = 1) gives 0.
    """
    p_detect = _probability(p_detect, "repump detection probability")
    lam = np.asarray(mixture.lam, dtype=float)[()]
    click = (1.0 - lam) * p_detect
    denominator = lam + (1.0 - lam) * (1.0 - p_detect)
    # + 0.0 maps a -0.0 weight to 0.0, so that the CSV writes 0, not -0.
    new_lam = np.divide(lam, denominator, out=np.zeros_like(lam), where=denominator > 0.0) + 0.0
    if new_lam.ndim == 0:
        new_lam, click = float(new_lam), float(click)
    return RepumpResult(ConditionedMixture(lam=new_lam, t=mixture.t), click)
