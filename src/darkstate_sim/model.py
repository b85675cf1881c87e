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
defective) and imaginary when the cavity is overdamped.  The propagator never
forms these eigenvalues: it works with the real S^2 and the dark projector
(see ``propagator``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateCouplingError

# Basis indices, in the order documented above.
CAVITY_MODE = 0
ATOM_A = 1
ATOM_B = 2

BASIS_LABELS = ("100", "010", "001")


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

    @property
    def coupling_squared(self) -> float:
        """g_a^2 + g_b^2, the squared collective coupling."""
        return self.g_a**2 + self.g_b**2


def _require_coupling(params: Parameters) -> None:
    if params.coupling_squared == 0.0:
        raise DegenerateCouplingError(
            "g_a = g_b = 0: no dark state exists for vanishing coupling"
        )


@dataclasses.dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state in the single-excitation sector.

    ``amplitudes`` holds the complex coefficients on (|100>, |010>, |001>);
    the total weight never exceeds one.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (3,):
            raise ValueError("amplitudes must have exactly three components")
        total = float(np.sum(np.abs(amps) ** 2))
        if total > 1.0 + 1e-12:
            raise ValueError(f"total weight {total} exceeds one")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_squared(self) -> float:
        """Squared norm of the excited-sector amplitudes."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def normalized(self) -> "StateVector":
        """Unit-norm copy of the state."""
        norm = math.sqrt(self.norm_squared)
        if norm == 0.0:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.amplitudes / norm)


def initial_state() -> StateVector:
    """Preparation used throughout: the excitation starts on atom a, |010>."""
    return StateVector(np.array([0.0, 1.0, 0.0]))


def _split_squared(params: Parameters) -> float:
    """S^2 = 4(g_a^2+g_b^2) - (kappa-gamma)^2: > 0 oscillatory, < 0 overdamped."""
    return 4.0 * params.coupling_squared - (params.kappa - params.gamma) ** 2


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
    """The no-detection generator M together with its closed-form spectrum.

    Attributes
    ----------
    params : Parameters
        Rates the generator was built from.
    matrix : ndarray
        The real 3x3 generator M (amplitudes evolve as exp(-M t)).
    eigenvalues : ndarray
        (gamma, (kappa+gamma+iS)/2, (kappa+gamma-iS)/2), dark value first.
    s_parameter : complex
        S = sqrt(4(g_a^2+g_b^2) - (kappa-gamma)^2); real in the oscillatory
        regime, purely imaginary when overdamped.
    dark_state : StateVector
        Eigenvector of the dark eigenvalue; independent of kappa and gamma,
        with its largest component real and positive.
    """

    params: Parameters
    matrix: np.ndarray
    eigenvalues: np.ndarray
    s_parameter: complex
    dark_state: StateVector


def conditional_generator(params: Parameters) -> ConditionalGenerator:
    """Build M and its closed-form eigensystem for the given rates.

    The dark eigenvector equals the lossless one (it decouples from the
    cavity, so loss rates only shift its eigenvalue to gamma), while the two
    bright eigenvalues acquire the mean decay (kappa+gamma)/2 and split by
    +/- iS/2.
    """
    _require_coupling(params)
    g_a, g_b = params.g_a, params.g_b
    s_parameter = complex(np.sqrt(complex(_split_squared(params))))
    mean_decay = params.kappa + params.gamma
    eigenvalues = np.array(
        [
            params.gamma,
            (mean_decay + 1j * s_parameter) / 2.0,
            (mean_decay - 1j * s_parameter) / 2.0,
        ],
        dtype=complex,
    )
    sign = 1.0 if g_b >= g_a else -1.0
    dark = sign * np.array([0.0, g_b, -g_a]) / math.sqrt(params.coupling_squared)
    return ConditionalGenerator(
        params=params,
        matrix=_generator_matrix(params),
        eigenvalues=eigenvalues,
        s_parameter=s_parameter,
        dark_state=StateVector(dark),
    )
