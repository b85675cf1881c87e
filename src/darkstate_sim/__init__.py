"""Conditional dynamics of two atoms coupled to a leaky cavity mode.

The package simulates the no-detection evolution of a single shared
excitation, the Monte Carlo unraveling of its decay channels, and the
entanglement left in the two atoms when no photon has been detected.
"""

from .entanglement import (
    ConditionedMixture,
    RepumpResult,
    fidelity,
    mixture_asymptotic,
    mixture_at,
    relative_entropy_of_entanglement,
    repump_round,
)
from .errors import (
    DegenerateCouplingError,
    EmptyGridError,
    InvalidUniformError,
    NegativeTimeError,
    ProbabilityRangeError,
    SimulationError,
    ZeroProbabilityConditionError,
    ZeroRateError,
)
from .model import (
    ATOM_A,
    ATOM_B,
    BASIS_LABELS,
    CAVITY_MODE,
    ConditionalGenerator,
    Parameters,
    StateVector,
    conditional_generator,
    initial_state,
)
from .montecarlo import (
    Channel,
    EnsembleEstimate,
    TrajectoryOutcome,
    classify_jump,
    default_horizon,
    run_ensemble,
    sample_waiting_time,
    simulate_trajectories,
    simulate_trajectory,
)
from .propagator import (
    ProbabilityTriple,
    Propagator,
    cavity_emission_probability,
    cavity_emission_saturation,
    conditional_state,
    emission_probabilities,
    first_emission_density,
    no_emission_probability,
    no_emission_probability_asymptotic,
    spontaneous_emission_probability_asymptotic,
)

__version__ = "0.1.0"

__all__ = [
    "ATOM_A",
    "ATOM_B",
    "BASIS_LABELS",
    "CAVITY_MODE",
    "Channel",
    "ConditionalGenerator",
    "ConditionedMixture",
    "DegenerateCouplingError",
    "EmptyGridError",
    "EnsembleEstimate",
    "InvalidUniformError",
    "NegativeTimeError",
    "Parameters",
    "ProbabilityRangeError",
    "ProbabilityTriple",
    "Propagator",
    "RepumpResult",
    "SimulationError",
    "StateVector",
    "TrajectoryOutcome",
    "ZeroProbabilityConditionError",
    "ZeroRateError",
    "cavity_emission_probability",
    "cavity_emission_saturation",
    "classify_jump",
    "conditional_generator",
    "conditional_state",
    "default_horizon",
    "emission_probabilities",
    "fidelity",
    "first_emission_density",
    "initial_state",
    "mixture_asymptotic",
    "mixture_at",
    "no_emission_probability",
    "no_emission_probability_asymptotic",
    "relative_entropy_of_entanglement",
    "repump_round",
    "run_ensemble",
    "sample_waiting_time",
    "simulate_trajectories",
    "simulate_trajectory",
    "spontaneous_emission_probability_asymptotic",
    "__version__",
]
