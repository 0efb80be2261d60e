"""Brute-force composite-system oracle.

Evolves the full system (x) probe state by direct matrix exponentiation
and partial trace, using only the kernel primitives.  Deliberately never
touches the conditional-decomposition code paths, so it stays an
independent check of every closed form and solver result.  Speed is a
non-goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opkit
from .errors import DimensionError, StateError

# Local Pauli literals ({|1>, |0>} ordering), kept separate from the qubit
# module on purpose.
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class CompositeScenario:
    """Full composite Hamiltonian plus an uncorrelated initial state."""

    dim_s: int
    dim_p: int
    h_full: np.ndarray
    rho_s0: np.ndarray
    rho_p0: np.ndarray

    def __post_init__(self):
        h = opkit.require_hermitian(self.h_full)
        if h.shape[0] != self.dim_s * self.dim_p:
            raise DimensionError(
                f"h_full dim {h.shape[0]} != dim_s*dim_p = {self.dim_s * self.dim_p}")
        rs = opkit.validate_density_matrix(self.rho_s0)
        rp = opkit.validate_density_matrix(self.rho_p0)
        if rs.shape[0] != self.dim_s or rp.shape[0] != self.dim_p:
            raise DimensionError("initial state dimensions inconsistent")
        object.__setattr__(self, "h_full", h)
        object.__setattr__(self, "rho_s0", rs)
        object.__setattr__(self, "rho_p0", rp)


def _evolve_reduced(h, rho, t: float, dim_s: int, dim_p: int) -> np.ndarray:
    """Tr_p[ exp(-i H t) rho exp(+i H t) ], checked as a state."""
    u = opkit.expm_i_hermitian(h, t)
    reduced = opkit.partial_trace_probe(u @ rho @ opkit.dag(u), dim_s, dim_p)
    return opkit.validate_density_matrix(reduced)


def evolve_full(sc: CompositeScenario, t: float) -> np.ndarray:
    """Tr_p[ exp(-i H t) (rho_s0 (x) rho_p0) exp(+i H t) ]."""
    return _evolve_reduced(sc.h_full, opkit.kron(sc.rho_s0, sc.rho_p0), t,
                           sc.dim_s, sc.dim_p)


def interaction_from_couplings(g1: float, g2: complex, g3: float, g4: float
                               ) -> np.ndarray:
    """Independent 4x4 construction of the qubit interaction Hamiltonian."""
    sys_part = g1 * _SZ + g2 * _SP + np.conj(g2) * _SM
    probe_part = g3 * _SX + g4 * _SZ
    return opkit.kron(sys_part, probe_part)


def check_solution(sol, p_s: float, target) -> float:
    """End-to-end distance of a solved control protocol to its target.

    Checks p_s and p_p as scalars, as validating diag(1-p, p) would, the
    floor through ``require_psd``; evolves diag(1-p_s, p_s) (x)
    diag(1-p_p, p_p) under the couplings' Hamiltonian (checked in
    ``eig_hermitian``); checks the reduced state (Hermitian to the default
    bound TRACE_TOL) and returns its trace distance to the target.
    """
    for p in (p_s, sol.p_p):
        if not math.isfinite(p):
            raise StateError("matrix contains NaN or Inf entries")
        opkit.require_psd(min(p, 1.0 - p))
    g = sol.couplings
    h = interaction_from_couplings(g.g1, g.g2, g.g3, g.g4)
    rho = np.diag(np.outer([1 - p_s, p_s], [1 - sol.p_p, sol.p_p]).ravel())
    return opkit.trace_distance(_evolve_reduced(h, rho, sol.t, 2, 2), target)
