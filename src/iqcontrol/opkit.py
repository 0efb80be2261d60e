"""Dense complex-matrix kernel.

Construction helpers, tensor products, partial trace over the probe,
Hermitian eigendecomposition, unitary matrix exponentials and the trace
distance.  Everything operates on plain ``numpy`` arrays (``complex128``);
density matrices are validated, not wrapped in a class.  Validation and the
trace distance also take stacks (..., n, n), and the matrix exponential an
array of times, so one call serves a whole time series.  All functions are
pure, so they are safe to call from concurrent contexts.

Tensor ordering is system (x) probe throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError, StateError

# Tolerances: double precision leaves ample headroom at dims <= 64.
HERM_TOL = 1e-10
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite, square complex matrix or a stack (..., n, n) of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise StateError("matrix contains NaN or Inf entries")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix in a stack)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def herm_defect(a: np.ndarray) -> float:
    """Max-entry deviation from Hermiticity."""
    return float(np.abs(a - dag(a)).max(initial=0.0))


def require_hermitian(a, tol: float = HERM_TOL) -> np.ndarray:
    m = as_matrix(a)
    d = herm_defect(m)
    if d > tol:
        raise HermiticityError(f"matrix is not Hermitian (defect {d:.3e} > {tol:.0e})")
    return m


def validate_density_matrix(rho, herm_tol: float = TRACE_TOL,
                            trace_tol: float = TRACE_TOL,
                            psd_floor: float = PSD_FLOOR) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array.

    A stack (..., n, n) passes only if every matrix in it does.
    """
    m = as_matrix(rho)
    d = herm_defect(m)
    if d > herm_tol:
        raise StateError(f"density matrix not Hermitian (defect {d:.3e})")
    tr = np.asarray(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0) > trace_tol
    if off.any():
        raise StateError(f"density matrix trace {complex(tr[off][0])} differs from 1")
    lowest = np.linalg.eigvalsh(0.5 * (m + dag(m))).min(initial=np.inf)
    if lowest < psd_floor:
        raise StateError(f"density matrix has eigenvalue {lowest:.3e} < {psd_floor:.0e}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product (system factor first)."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace_probe(rho, dim_s: int, dim_p: int) -> np.ndarray:
    """Trace out the probe from a (dim_s*dim_p)-dimensional operator.

    The composite ordering is system (x) probe, so the probe occupies the
    inner (fast) index.
    """
    m = as_matrix(rho)
    if m.shape[-1] != dim_s * dim_p:
        raise DimensionError(
            f"operator dim {m.shape[-1]} != dim_s*dim_p = {dim_s * dim_p}")
    return np.trace(m.reshape(m.shape[:-2] + (dim_s, dim_p, dim_s, dim_p)),
                    axis1=-3, axis2=-1)


def eig_hermitian(a, tol: float = HERM_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with values ascending and orthonormal
    eigenvector columns.  Each eigenvector's phase is fixed by making its
    largest-magnitude component real and positive, so downstream phase
    extractions are deterministic.
    """
    values, vectors = np.linalg.eigh(require_hermitian(a, tol))
    # A unit vector's largest-magnitude component is never zero.
    i = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    top = np.take_along_axis(vectors, i, axis=-2)
    return values, vectors * (np.abs(top) / top)


def expm_i_hermitian(h, t, tol: float = HERM_TOL) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via one eigendecomposition.

    An array of times gives a stack (..., n, n) with one propagator per
    time.  Unitary up to the eigensolver tolerance; exact at t = 0.
    """
    values, vectors = eig_hermitian(h, tol)
    phases = np.exp(np.multiply.outer(t, -1j * values))
    return (vectors * phases[..., None, :]) @ dag(vectors)


def trace_distance(a, b):
    """Trace distance (1/2)||a - b||_1 between two density matrices.

    A stack (..., n, n) on either side gives an array of distances.
    """
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[-1] != mb.shape[-1]:
        raise DimensionError(f"shape mismatch {ma.shape} vs {mb.shape}")
    diff = ma - mb
    evals = np.linalg.eigvalsh(0.5 * (diff + dag(diff)))
    dist = 0.5 * np.sum(np.abs(evals), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
