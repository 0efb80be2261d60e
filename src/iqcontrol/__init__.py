"""Indirect quantum control: steering a system through a coupled probe.

Modules:
    opkit    dense complex-matrix kernel (kron, partial trace, eig, expm)
    qubit    two-level system + two-level probe closed forms and solver
    nlevel   N-level conditional decomposition, Kraus channels, reachability
    thermal  thermal probe preparation
    verify   brute-force composite-evolution oracle
    cli      the ``iqctl`` experiment runner
"""

# No eager ``cli`` import: ``python -m iqcontrol.cli`` then runs warning-free.
from . import nlevel, opkit, qubit, thermal, verify
from .errors import (
    DegenerateConditionError,
    DegenerateProbeError,
    DimensionError,
    DomainError,
    HermiticityError,
    InfeasibleError,
    IQControlError,
    ProbabilityError,
    StateError,
)

__all__ = [
    "cli", "nlevel", "opkit", "qubit", "thermal", "verify",
    "IQControlError", "DimensionError", "HermiticityError", "StateError",
    "DegenerateProbeError", "DegenerateConditionError", "InfeasibleError",
    "ProbabilityError", "DomainError",
]

__version__ = "0.1.0"
