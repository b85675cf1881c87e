"""Conditional dynamics of two atoms coupled to a leaky cavity mode.

The package simulates the no-detection evolution of a single shared
excitation, the Monte Carlo unraveling of its decay channels, and the
entanglement left in the two atoms when no photon has been detected.
"""

from .entanglement import (
    ConditionedMixture,
    RepumpResult,
    mixture_asymptotic,
    mixture_at,
    relative_entropy_of_entanglement,
    repump_round,
)
from .errors import (
    DegenerateCouplingError,
    NegativeTimeError,
    ProbabilityRangeError,
    SimulationError,
    ZeroProbabilityConditionError,
)
from .model import ConditionalGenerator, Parameters, conditional_generator
from .montecarlo import EnsembleEstimate, default_horizon, run_ensemble, simulate_trajectories
from .propagator import (
    ProbabilityTriple,
    Propagator,
    cavity_emission_saturation,
    conditional_state,
    emission_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionalGenerator",
    "ConditionedMixture",
    "DegenerateCouplingError",
    "EnsembleEstimate",
    "NegativeTimeError",
    "Parameters",
    "ProbabilityRangeError",
    "ProbabilityTriple",
    "Propagator",
    "RepumpResult",
    "SimulationError",
    "ZeroProbabilityConditionError",
    "cavity_emission_saturation",
    "conditional_generator",
    "conditional_state",
    "default_horizon",
    "emission_probabilities",
    "mixture_asymptotic",
    "mixture_at",
    "relative_entropy_of_entanglement",
    "repump_round",
    "run_ensemble",
    "simulate_trajectories",
    "__version__",
]
