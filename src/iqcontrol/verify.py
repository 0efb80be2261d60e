"""Brute-force composite-system oracle.

Evolves the full system (x) probe state by direct matrix exponentiation
and partial trace, using only the kernel primitives.  Deliberately never
touches the conditional-decomposition code paths and shares no code with
``qubit``, so it stays an independent check of every closed form and
solver result.  It stays brute force but does not re-check an array it
has built itself: the inputs are checked once, H once (in the
eigendecomposition) and the evolved reduced state once, as a state.
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


def evolve_full(sc: CompositeScenario, t: float) -> np.ndarray:
    """Tr_p[ exp(-i H t) (rho_s0 (x) rho_p0) exp(+i H t) ], checked as a
    state."""
    u = opkit.expm_i_hermitian(sc.h_full, t)
    rho = opkit.kron(sc.rho_s0, sc.rho_p0)
    return opkit.validate_density_matrix(opkit.partial_trace_probe(
        u @ rho @ opkit.dag(u), sc.dim_s, sc.dim_p))


def interaction_from_couplings(g1: float, g2: complex, g3: float, g4: float
                               ) -> np.ndarray:
    """Independent 4x4 construction of the qubit interaction Hamiltonian:
    one broadcast product of its two Pauli-built factors, as bytes the
    same as ``opkit.kron`` of them."""
    sys_part = g1 * _SZ + g2 * _SP + np.conj(g2) * _SM
    probe_part = g3 * _SX + g4 * _SZ
    return (sys_part[:, None, :, None]
            * probe_part[None, :, None, :]).reshape(4, 4)


def check_solution(sol, p_s: float, target) -> float:
    """End-to-end distance of a solved control protocol to its target.

    Checks p_s, p_p and t as finite scalars and p_s and p_p as
    validating diag(1-p, p) would, the floor through ``require_psd``.
    Evolves diag(1-p_s, p_s) (x) diag(1-p_p, p_p), d its diagonal, under
    the couplings' H (checked in ``eig_hermitian``) as (U with its columns
    scaled by d) U^dag, and traces out the probe by reshape; checks the
    reduced state (Hermitian to the default bound TRACE_TOL) and returns
    its trace distance to the target.
    """
    if not all(map(math.isfinite, (p_s, sol.p_p, sol.t))):
        raise StateError("matrix contains NaN or Inf entries")
    for p in (p_s, sol.p_p):
        opkit.require_psd(min(p, 1.0 - p))
    g = sol.couplings
    u = opkit.expm_i_hermitian(
        interaction_from_couplings(g.g1, g.g2, g.g3, g.g4), sol.t)
    d = np.array([a * b for a in (1.0 - p_s, p_s)
                  for b in (1.0 - sol.p_p, sol.p_p)])
    r = ((u * d) @ opkit.dag(u)).reshape(2, 2, 2, 2)
    reduced = opkit.validate_density_matrix(r[:, 0, :, 0] + r[:, 1, :, 1])
    return opkit.trace_distance(reduced, target)
