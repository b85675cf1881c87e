"""Exception types shared across the simulation modules."""


class SimulationError(Exception):
    """Base class for domain errors raised by this package."""


class DegenerateCouplingError(SimulationError):
    """Both couplings vanish, so no dark state exists (g_a = g_b = 0)."""


class NegativeTimeError(SimulationError):
    """A propagation time was negative; conditional evolution runs forward only."""


class ProbabilityRangeError(SimulationError):
    """A computed probability left [0, 1] by more than round-off."""


class ZeroProbabilityConditionError(SimulationError):
    """The no-click event conditioned on has probability zero.

    At gamma = 0, g_b = 0 and eta = 1 every trajectory ends in a detected
    cavity photon, so no atomic state is left to condition on.
    """
