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
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import Parameters
from .propagator import (
    cavity_emission_saturation,
    emission_probabilities,
    no_emission_probability_asymptotic,
)


@dataclasses.dataclass(frozen=True)
class ConditionedMixture:
    """No-click conditioned two-atom state: dark-pair weight(s) lam at time(s) t."""

    lam: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=float)
        if not np.all((lam >= 0.0) & (lam <= 1.0)):  # also rejects NaN
            raise ValueError(f"mixture weight must be in [0, 1], got {self.lam!r}")


def _resolve_eta(params: Parameters, eta: float | None) -> float:
    if eta is None:
        return params.eta
    eta = float(eta)
    if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
        raise ValueError(f"detector efficiency must be in [0, 1], got {eta!r}")
    return eta


def _mixture(lam, t) -> ConditionedMixture:
    lam = np.clip(lam, 0.0, 1.0)
    if lam.ndim == 0:
        return ConditionedMixture(lam=float(lam), t=float(t))
    return ConditionedMixture(lam=lam, t=np.asarray(t, dtype=float))


def mixture_at(params: Parameters, t, eta: float | None = None) -> ConditionedMixture:
    """Conditioned mixture from the exact emission budget at time(s) t."""
    eta = _resolve_eta(params, eta)
    triple = emission_probabilities(params, t)
    return _mixture(triple.p0 / (1.0 - eta * triple.p_cav), triple.t)


def mixture_asymptotic(params: Parameters, t, eta: float | None = None) -> ConditionedMixture:
    """Conditioned mixture in the post-transient regime (t >> 1/(kappa+gamma)).

    Uses the asymptotic survival weight together with the saturated cavity
    budget, which is the working point after the cavity transient has decayed
    and only the slow spontaneous envelope evolves.
    """
    eta = _resolve_eta(params, eta)
    p0 = no_emission_probability_asymptotic(params, t)
    return _mixture(p0 / (1.0 - eta * cavity_emission_saturation(params)), t)


def fidelity(mixture: ConditionedMixture):
    """Overlap of the mixture with the maximally entangled dark pair (= lam)."""
    return mixture.lam


def relative_entropy_of_entanglement(mixture: ConditionedMixture):
    """E(lam) = (lam - 2) log2(1 - lam/2) + (1 - lam) log2(1 - lam), in bits.

    With 0 log 0 = 0 the formula gives E(0) = 0 and E(1) = 1 exactly.
    """
    lam = np.asarray(mixture.lam, dtype=float)
    first = (lam - 2.0) * np.log2(1.0 - 0.5 * lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        second = np.where(lam < 1.0, (1.0 - lam) * np.log2(1.0 - lam), 0.0)
    out = first + second
    return float(out) if out.ndim == 0 else out


@dataclasses.dataclass(frozen=True)
class RepumpResult:
    """One repump-and-wait round: updated mixture and the click probability."""

    mixture: ConditionedMixture
    click_probability: float


def repump_round(mixture: ConditionedMixture, p_detect: float) -> RepumpResult:
    """Purify by one repump round, conditioning on no click.

    The ground-state fraction is re-excited and detected with probability
    ``p_detect``; observing no click updates the dark-pair weight to
    lam / (lam + (1 - lam)(1 - p_detect)).
    """
    p_detect = float(p_detect)
    if not (math.isfinite(p_detect) and 0.0 <= p_detect <= 1.0):
        raise ValueError(f"repump detection probability must be in [0, 1], got {p_detect!r}")
    lam = mixture.lam
    click = (1.0 - lam) * p_detect
    denominator = lam + (1.0 - lam) * (1.0 - p_detect)
    new_lam = lam / denominator if denominator > 0.0 else 0.0
    new_lam = min(1.0, max(0.0, new_lam))
    return RepumpResult(
        mixture=ConditionedMixture(lam=new_lam, t=mixture.t),
        click_probability=click,
    )
