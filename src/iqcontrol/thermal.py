"""Thermal-equilibrium preparation of the probe's diagonal state.

Units with k_B = 1.  The probe occupancy of the ground level |0> at
equilibrium is the two-level Boltzmann weight

    p_p = exp(-E0/T) / (exp(-E0/T) + exp(-E1/T)) = 1 / (1 + exp(-(E1-E0)/T)),

computed in the logistic form, which is overflow-free for any gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleError


@dataclass(frozen=True)
class ThermalSpec:
    """Finite level energies and a finite positive temperature (k_B = 1)."""

    e0: float
    e1: float
    temperature: float

    def __post_init__(self):
        if not (math.isfinite(self.e0) and math.isfinite(self.e1)):
            raise DomainError(f"energies {self.e0}, {self.e1} must be finite")
        if not 0.0 < self.temperature < math.inf:
            raise DomainError(f"temperature {self.temperature} outside (0, inf)")


def thermal_occupancy(spec: ThermalSpec) -> float:
    """Equilibrium occupancy p_p of |0> in (0, 1)."""
    x = (spec.e1 - spec.e0) / spec.temperature
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def required_gap(p_p: float, temperature: float) -> float:
    """Energy spacing e1 - e0 realizing occupancy p_p at the given temperature."""
    if not 0.0 < temperature < math.inf:
        raise DomainError(f"temperature {temperature} outside (0, inf)")
    if not 0.0 < p_p < 1.0:
        raise InfeasibleError(
            f"occupancy {p_p} needs an infinite gap; exact pure states are "
            "not reachable thermally")
    return temperature * math.log(p_p / (1.0 - p_p))
