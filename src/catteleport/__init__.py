"""Teleportation of Schroedinger-cat field states inside a lossy bimodal cavity.

Symbolic coherent-state protocol engine, analytic dissipative mode dynamics,
teleportation fidelity curves, and an independent truncated-Fock Lindblad
oracle, with a CSV-emitting batch CLI.
"""

__version__ = "0.1.0"

from .dynamics import (
    ChiMode,
    DrainParams,
    EvolutionMatrix,
    ModeSystem,
    decoherence_Z,
    drain_params,
    u_full,
    u_simplified,
)
from .errors import (
    AmbiguousCluster,
    CatTeleportError,
    ConfigError,
    ConsistencyError,
    NullState,
    StepSizeRejected,
    TruncationBreach,
)
from .fidelity import CatMixture, FidelityCurve, build_rho1, fidelity, fidelity_curve
from .protocol import (
    BranchOutcome,
    Classification,
    ProtocolConfig,
    apply_correction,
    dispersive_pi,
    displace_mode2,
    ramsey_half_pulse,
    run_protocol,
)
from .states import (
    AtomLevel,
    CatSpec,
    Term,
    TermState,
    cat_norm,
    overlap,
    project_atom,
    term_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
