"""Dense complex-matrix kernel.

Construction helpers, tensor products, partial trace over the probe,
Hermitian eigendecomposition, unitary matrix exponentials and the trace
distance.  Everything operates on plain ``numpy`` arrays (``complex128``);
density matrices are validated, not wrapped in a class.  The density-matrix
check and the trace distance read the spectrum of a 2x2 in closed form on
Python scalars, and call LAPACK only for larger matrices.  The matrix
exponential takes an array of times and returns a stack (..., n, n), one
propagator per time, from one eigendecomposition; ``dag`` works on stacks,
and every other function takes one matrix.  All functions are pure, so
they are safe to call from concurrent contexts.

Tensor ordering is system (x) probe throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, HermiticityError, StateError

# Tolerances: double precision leaves ample headroom at dims <= 64.
HERM_TOL = 1e-10
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite, square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise StateError("matrix contains NaN or Inf entries")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix in a stack)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def herm_defect(a: np.ndarray) -> float:
    """Max-entry deviation from Hermiticity.

    Each |x| is libm's hypot(re, im), as Python's ``abs(complex)`` reads it,
    so the 2x2 closed form below gets the same bits; ``np.abs`` of a
    complex array uses a SIMD formula that differs in the last bit.
    """
    d = a - dag(a)
    return float(np.hypot(d.real, d.imag).max(initial=0.0))


def require_hermitian(a) -> np.ndarray:
    """``as_matrix(a)`` if its Hermiticity defect is at most HERM_TOL."""
    m = as_matrix(a)
    d = herm_defect(m)
    if d > HERM_TOL:
        raise HermiticityError(
            f"matrix is not Hermitian (defect {d:.3e} > {HERM_TOL:.0e})")
    return m


def _hermitian_spectrum(m: np.ndarray):
    """``(herm_defect(m), trace, ascending eigenvalues of (m + m^dag)/2)``.

    A 2x2 is read in closed form from its entries as Python scalars:
    lambda = (a + d)/2 -+ hypot((a - d)/2, |b + conj(c)|/2) on the real
    diagonal.  Larger matrices go through ``np.linalg.eigvalsh``.
    """
    if m.shape != (2, 2):
        return (herm_defect(m), complex(np.trace(m)),
                np.linalg.eigvalsh(0.5 * (m + dag(m))))
    (a, b), (c, d) = m.tolist()
    defect = max(abs(a - a.conjugate()), abs(b - c.conjugate()),
                 abs(d - d.conjugate()))
    mean = 0.5 * (a.real + d.real)
    radius = math.hypot(0.5 * (a.real - d.real),
                        abs(0.5 * (b + c.conjugate())))
    return defect, a + d, (mean - radius, mean + radius)


def validate_density_matrix(rho, herm_tol: float = TRACE_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array."""
    m = as_matrix(rho)
    d, tr, evals = _hermitian_spectrum(m)
    if d > herm_tol:
        raise StateError(f"density matrix not Hermitian (defect {d:.3e})")
    if abs(tr.real - 1.0) > TRACE_TOL:
        raise StateError(f"density matrix trace {tr} differs from 1")
    require_psd(evals[0])
    return m


def require_psd(lowest) -> None:
    """Raise ``StateError`` when a state's smallest eigenvalue ``lowest``
    lies below PSD_FLOOR; NaN passes, for the caller's finiteness check."""
    if lowest < PSD_FLOOR:
        raise StateError(f"density matrix has eigenvalue {lowest:.3e} < {PSD_FLOOR:.0e}")


def kron(a, b) -> np.ndarray:
    """Kronecker product (system factor first); the same bytes as np.kron."""
    a, b = as_matrix(a), as_matrix(b)
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def partial_trace_probe(rho, dim_s: int, dim_p: int) -> np.ndarray:
    """Trace out the probe from a (dim_s*dim_p)-dimensional operator.

    The composite ordering is system (x) probe, so the probe occupies the
    inner (fast) index.
    """
    m = as_matrix(rho)
    if min(dim_s, dim_p) < 1 or m.shape[0] != dim_s * dim_p:
        raise DimensionError(
            f"operator dim {m.shape[0]} does not split as {dim_s} x {dim_p}")
    return np.trace(m.reshape(dim_s, dim_p, dim_s, dim_p), axis1=1, axis2=3)


def eig_hermitian(a):
    """The package's one eigendecomposition, of a Hermitian matrix.

    ``(values, vectors)`` as ``np.linalg.eigh`` returns them: values
    ascending, orthonormal columns with the eigensolver's phases.
    """
    return np.linalg.eigh(require_hermitian(a))


def expm_i_hermitian(h, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via one ``eig_hermitian`` call.

    An array of times gives a stack (..., n, n) with one propagator per
    time.  Unitary up to the eigensolver tolerance; at t = 0 it returns
    V V^dag, the identity to roundoff, whatever phases V's columns carry.
    """
    values, vectors = eig_hermitian(h)
    phases = np.exp(np.multiply.outer(t, -1j * values))
    return (vectors * phases[..., None, :]) @ dag(vectors)


def trace_distance(a, b) -> float:
    """Trace distance (1/2)||a - b||_1 between two density matrices."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return 0.5 * float(sum(map(abs, _hermitian_spectrum(ma - mb)[2])))
