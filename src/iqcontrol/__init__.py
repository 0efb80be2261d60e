"""Indirect quantum control: steering a system through a coupled probe.

Modules:
    opkit    dense complex-matrix kernel (kron, partial trace, eig, expm)
    qubit    two-level system + two-level probe closed forms and solver
    nlevel   N-level conditional decomposition, Kraus channels, reachability
    thermal  thermal probe preparation
    verify   brute-force composite-evolution oracle
    cli      the ``iqctl`` experiment runner
"""

import importlib

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

# No eager submodule import: each loads on first access (PEP 562), so a
# process imports only the modules it uses, and ``python -m iqcontrol.cli``
# runs warning-free.  The submodules are the lower-case names.
_SUBMODULES = [name for name in __all__ if name.islower()]

__version__ = "0.1.0"


def __getattr__(name):
    # importing a submodule binds it here, so this runs once per name
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
