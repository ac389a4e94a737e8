"""Exception types shared across the package."""


class CatTeleportError(Exception):
    """Base class for all package-specific errors."""


class NullState(CatTeleportError):
    """A superposition collapsed to the null vector (zero norm)."""


class ConsistencyError(CatTeleportError):
    """Internal numerical consistency violated (e.g. complex norm residue)."""


class TruncationBreach(CatTeleportError):
    """Fock-space truncation left too much tail probability."""


class StepSizeRejected(CatTeleportError):
    """Halving the integrator step changed the result beyond tolerance."""


class ConfigError(CatTeleportError):
    """Run configuration file could not be parsed or validated."""
