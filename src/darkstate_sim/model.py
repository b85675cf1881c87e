"""Single-excitation model of two atoms coupled to a leaky cavity mode.

The system carries at most one excitation, shared between a cavity mode and
two two-level atoms (a and b).  The working basis, in this fixed order, is

    |100>   photon in the cavity mode,
    |010>   atom a excited,
    |001>   atom b excited,

while the common ground state |000>, reached by any emission, lies outside it.
All rates (couplings g_a, g_b, cavity amplitude decay kappa, atomic amplitude
decay gamma) share one inverse-time unit; intensities decay at twice the
amplitude rates.

Between detection events the unnormalized state evolves as exp(-M t) with the
real, non-normal generator

    M = [[kappa,  g_a,   g_b ],
         [-g_a,   gamma, 0   ],
         [-g_b,   0,     gamma]].

Its spectrum is known in closed form: lambda_0 = gamma belongs to the dark
state (g_a|001> - g_b|010>)/sqrt(g_a^2+g_b^2), which never populates the
cavity and is immune to cavity loss; the two remaining eigenvalues are
(kappa + gamma +/- i S)/2 with S^2 = 4(g_a^2+g_b^2) - (kappa-gamma)^2.
S is real in the oscillatory regime, zero at the critical point (where M is
defective) and imaginary when the cavity is overdamped.  Nothing forms these
eigenvalues: the propagator works with the real S^2 and builds its spectral
projectors from the unit dark state of ``conditional_generator`` (see
``propagator``).  ``Parameters`` rejects every rate set whose squares, S^2
or kappa + gamma overflow, or whose Omega^2 is subnormal.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .errors import DegenerateCouplingError


@dataclasses.dataclass(frozen=True)
class Parameters:
    """Physical rates of the two-atom/cavity system.

    Attributes
    ----------
    g_a, g_b : float
        Vacuum Rabi couplings of atoms a and b to the cavity mode (>= 0).
    kappa : float
        Cavity field (amplitude) decay rate (> 0).
    gamma : float
        Atomic spontaneous-emission amplitude decay rate (>= 0).
    eta : float
        Detector efficiency for photons leaving through the cavity mirrors,
        in [0, 1].
    """

    g_a: float
    g_b: float
    kappa: float
    gamma: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        for name in ("g_a", "g_b", "kappa", "gamma", "eta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.g_a < 0 or self.g_b < 0:
            raise ValueError("couplings g_a, g_b must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("cavity decay rate kappa must be positive")
        if self.gamma < 0:
            raise ValueError("spontaneous decay rate gamma must be nonnegative")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("detector efficiency eta must lie in [0, 1]")
        # Every "rates too large" limit of the closed form: it squares the
        # rates (x * x gives inf where x**2 raises), and forms S^2 and a.
        coupling_sq = self.g_a * self.g_a + self.g_b * self.g_b
        split_sq = (self.kappa - self.gamma) * (self.kappa - self.gamma)
        for name, value in (("g_a^2 + g_b^2", coupling_sq), ("(kappa - gamma)^2", split_sq),
                            ("S^2 = 4(g_a^2 + g_b^2) - (kappa - gamma)^2", 4.0 * coupling_sq - split_sq),
                            ("kappa + gamma", self.kappa + self.gamma)):
            if not math.isfinite(value):
                raise ValueError(f"rates too large: {name} is not a finite float")
        # A subnormal Omega^2 loses bits, and with it S^2, the unit dark state
        # and the dark weight g_b^2/Omega^2.
        if (self.g_a or self.g_b) and coupling_sq < sys.float_info.min:
            raise ValueError("rates too small: g_a^2 + g_b^2 is below the smallest normal float")

    @property
    def coupling_squared(self) -> float:
        """g_a^2 + g_b^2, the squared collective coupling."""
        return self.g_a**2 + self.g_b**2


def _require_coupling(params: Parameters) -> None:
    if params.coupling_squared == 0.0:
        raise DegenerateCouplingError(
            "g_a = g_b = 0: no dark state exists for vanishing coupling"
        )


def _rate_key(params: Parameters) -> tuple:
    """The four rates as a cache key, each + 0.0 so that -0.0 and 0.0 share an entry."""
    return params.g_a + 0.0, params.g_b + 0.0, params.kappa + 0.0, params.gamma + 0.0


def _generator_matrix(params: Parameters) -> np.ndarray:
    """The real 3x3 generator M of the no-detection evolution exp(-M t)."""
    g_a, g_b = params.g_a, params.g_b
    return np.array(
        [
            [params.kappa, g_a, g_b],
            [-g_a, params.gamma, 0.0],
            [-g_b, 0.0, params.gamma],
        ]
    )


@dataclasses.dataclass(frozen=True, eq=False)
class ConditionalGenerator:
    """The no-detection generator M together with its dark state.

    Attributes
    ----------
    params : Parameters
        Rates the generator was built from.
    matrix : ndarray
        The real 3x3 generator M (amplitudes evolve as exp(-M t)).
    dark_state : ndarray
        Read-only real unit eigenvector of the dark eigenvalue gamma;
        independent of kappa and gamma, with its largest component positive.
    """

    params: Parameters
    matrix: np.ndarray
    dark_state: np.ndarray


def conditional_generator(params: Parameters) -> ConditionalGenerator:
    """Build M and its dark state for the given rates.

    The dark eigenvector equals the lossless one: it decouples from the
    cavity, so loss rates only shift its eigenvalue to gamma.
    """
    _require_coupling(params)
    g_a, g_b = params.g_a, params.g_b
    sign = 1.0 if g_b >= g_a else -1.0
    dark = sign * np.array([0.0, g_b, -g_a]) / math.sqrt(params.coupling_squared)
    dark.setflags(write=False)
    return ConditionalGenerator(params=params, matrix=_generator_matrix(params), dark_state=dark)
