"""Indirect control of an N-level system through an N-level probe.

For a product interaction h_s (x) h_p the composite propagator factorizes
over the probe eigenbasis into conditional unitaries
U_M = exp(-i E_M h_s t).  Weighting them by the probe's eigenbasis
diagonal gives a completely positive trace-preserving (Kraus) channel on
the system.  The reachability machinery expresses a diagonal target in a
reference evolved basis and solves for the probe spectrum on the
probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opkit
from .errors import (
    DimensionError,
    NormalizationError,
    ProbabilityError,
)


@dataclass(frozen=True)
class ProductHamiltonian:
    """Factor pair (h_s, h_p) with the probe factor's eigensystem.

    System and probe must share the same dimension.
    """

    h_s: np.ndarray
    h_p: np.ndarray
    probe_values: np.ndarray = field(init=False)
    probe_vectors: np.ndarray = field(init=False)

    def __post_init__(self):
        h_s = opkit.require_hermitian(self.h_s)
        h_p = opkit.require_hermitian(self.h_p)
        if h_s.shape != h_p.shape:
            raise DimensionError(
                f"system dim {h_s.shape[0]} != probe dim {h_p.shape[0]}")
        object.__setattr__(self, "h_s", h_s)
        object.__setattr__(self, "h_p", h_p)
        values, vectors = opkit.eig_hermitian(h_p)
        object.__setattr__(self, "probe_values", values)
        object.__setattr__(self, "probe_vectors", vectors)

    @property
    def dim(self) -> int:
        return self.h_s.shape[0]


@dataclass(frozen=True)
class ConditionalDecomposition:
    """Conditional unitaries U_M = exp(-i E_M h_s t), one per probe eigenvalue."""

    energies: np.ndarray
    unitaries: list
    probe_vectors: np.ndarray


@dataclass(frozen=True)
class KrausChannel:
    """Weighted conditional unitaries forming a CPTP map."""

    weights: np.ndarray
    unitaries: list

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-12:
            raise ProbabilityError(f"channel weights {w} are not a distribution")
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))
        dim = self.unitaries[0].shape[0]
        for u in self.unitaries:
            if u.shape != (dim, dim):
                raise DimensionError("channel unitaries have mixed dimensions")
            defect = np.max(np.abs(opkit.dag(u) @ u - np.eye(dim)))
            if defect > 1e-10:
                raise ProbabilityError(
                    f"channel operator not unitary (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]

    def kraus_operators(self) -> list:
        return [np.sqrt(w) * u for w, u in zip(self.weights, self.unitaries)]


def conditional_decomposition(h: ProductHamiltonian, t: float
                              ) -> ConditionalDecomposition:
    """Split exp(-i (h_s (x) h_p) t) over the probe eigenbasis.

    One eigendecomposition of h_s serves every probe energy.
    """
    unitaries = list(opkit.expm_i_hermitian(h.h_s, h.probe_values * t))
    return ConditionalDecomposition(energies=h.probe_values.copy(),
                                    unitaries=unitaries,
                                    probe_vectors=h.probe_vectors.copy())


def kraus_from_probe(decomp: ConditionalDecomposition, probe_state
                     ) -> KrausChannel:
    """Channel with weights <M| rho_p |M> in the probe eigenbasis.

    Probe coherences between eigenvectors do not reach the reduced
    dynamics, so only the diagonal enters.
    """
    rho_p = opkit.as_matrix(probe_state)
    v = decomp.probe_vectors
    if rho_p.shape[0] != v.shape[0]:
        raise DimensionError(
            f"probe state dim {rho_p.shape[0]} != decomposition dim {v.shape[0]}")
    weights = np.real(np.einsum("iM,ij,jM->M", v.conj(), rho_p, v))
    return KrausChannel(weights=weights, unitaries=list(decomp.unitaries))


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Sum_M K_M rho K_M^dag."""
    rho = opkit.as_matrix(rho)
    if rho.shape[0] != ch.dim:
        raise DimensionError(f"state dim {rho.shape[0]} != channel dim {ch.dim}")
    out = np.zeros_like(rho)
    for k in ch.kraus_operators():
        out += k @ rho @ opkit.dag(k)
    return out


def pure_state_transporter(src, dst) -> np.ndarray:
    """A unitary U with U src = dst (up to roundoff).

    Both vectors are completed to orthonormal bases by Gram-Schmidt
    against the standard basis in index order, skipping candidates whose
    residual falls below 1e-8; U maps basis to basis.
    """
    src = np.asarray(src, dtype=complex).ravel()
    dst = np.asarray(dst, dtype=complex).ravel()
    if src.shape != dst.shape:
        raise DimensionError("source and destination dimensions differ")
    for name, v in (("source", src), ("destination", dst)):
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-10:
            raise NormalizationError(f"{name} vector norm {n} != 1")

    def complete(v):
        dim = v.size
        basis = [v]
        for k in range(dim):
            cand = np.zeros(dim, dtype=complex)
            cand[k] = 1.0
            for b in basis:
                cand = cand - np.vdot(b, cand) * b
            n = np.linalg.norm(cand)
            if n >= 1e-8:
                basis.append(cand / n)
            if len(basis) == dim:
                break
        return np.column_stack(basis)

    b_src = complete(src)
    b_dst = complete(dst)
    return b_dst @ opkit.dag(b_src)


def expansion_coefficients(h_s, energies, t: float, ref_time: float
                           ) -> np.ndarray:
    """Coefficients c[alpha, j, m] = <ref_alpha| exp(-i h_s E_m t) |j>.

    The reference basis is {exp(-i h_s ref_time)|alpha>}, orthonormal by
    construction, so each (j, m) column has unit norm.
    """
    h_s = opkit.require_hermitian(h_s)
    energies = np.asarray(energies, dtype=float)
    w_ref = opkit.expm_i_hermitian(h_s, ref_time)
    u = opkit.expm_i_hermitian(h_s, energies * t)
    return np.moveaxis(opkit.dag(w_ref) @ u, 0, -1)


@dataclass(frozen=True)
class ReachabilityProblem:
    """Linear reachability system for the probe spectrum.

    coefficients c[alpha, j, m] expand the evolved initial eigenvectors in
    the target basis; initial_weights p_j and target_weights q_alpha are
    probability vectors.
    """

    initial_weights: np.ndarray
    target_weights: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.initial_weights, dtype=float)
        q = np.asarray(self.target_weights, dtype=float)
        c = np.asarray(self.coefficients, dtype=complex)
        for name, v in (("initial", p), ("target", q)):
            if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-10:
                raise ProbabilityError(f"{name} weights are not a distribution")
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != p.size:
            raise DimensionError(f"coefficient tensor shape {c.shape} invalid")
        if q.size != p.size:
            raise DimensionError(
                f"{q.size} target weights for {p.size} initial weights")
        col_norms = np.sum(np.abs(c) ** 2, axis=0)
        if np.max(np.abs(col_norms - 1.0)) > 1e-10:
            raise ProbabilityError("coefficient columns are not unit norm")
        object.__setattr__(self, "initial_weights", p)
        object.__setattr__(self, "target_weights", q)
        object.__setattr__(self, "coefficients", c)

    @property
    def dim(self) -> int:
        return self.initial_weights.size


def _gram_tensor(prob: ReachabilityProblem) -> np.ndarray:
    """G[beta, gamma, m] = sum_j p_j c[beta,j,m] c[gamma,j,m]^*."""
    c = prob.coefficients
    return np.einsum("j,bjm,gjm->bgm", prob.initial_weights, c, c.conj())


def reachability_residual(prob: ReachabilityProblem, w):
    """Defects of the reachability system at probe diagonal w.

    Returns (diag_residuals, offdiag_residuals): the per-target-weight
    defects q_alpha - sum_jm ..., and the ordered beta != gamma
    off-diagonal sums (all of which must vanish for an exact realization).
    """
    w, n = np.asarray(w, dtype=float), prob.dim
    if w.size != n:
        raise DimensionError(f"candidate has {w.size} entries, expected {n}")
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-10:
        raise ProbabilityError(f"candidate {w} is not a probability vector")
    value = _gram_tensor(prob) @ w
    diag = prob.target_weights - np.real(np.diagonal(value))
    off = [complex(value[b, c]) for b in range(n) for c in range(n) if b != c]
    return diag, off


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _stacked_system(prob: ReachabilityProblem):
    """Real least-squares form M w = b of the full residual system."""
    g = _gram_tensor(prob)
    n = prob.dim
    # Diagonal rows, then re and im of each beta < gamma entry in row order.
    upper = g[np.triu_indices(n, k=1)]
    m = np.concatenate([np.real(np.diagonal(g)).T,
                        np.hstack([upper.real, upper.imag]).reshape(-1, n)])
    return m, np.concatenate([prob.target_weights, np.zeros(len(m) - n)])


def _min_norm_point(a: np.ndarray) -> np.ndarray:
    """Barycentric weights of the least-norm point in the hull of a's columns.

    Major cycles add the column most opposed to the current point x; minor
    cycles move x to the least-norm point of the active columns' affine
    hull, dropping columns whose weight would turn negative.  Ties go to
    the lowest index, and the walk stops once a cycle no longer lowers |x|.
    """
    active = [int(np.argmin(np.einsum("ij,ij->j", a, a)))]
    lam, x = np.ones(1), a[:, active[0]]
    while True:
        j = int(np.argmin(a.T @ x))
        if j in active or x @ x - a[:, j] @ x <= 0.0:
            break
        s, mu_s = active + [j], np.append(lam, 0.0)
        while True:
            pts = a[:, s]
            nu = np.linalg.lstsq(pts[:, 1:] - pts[:, :1], -pts[:, 0],
                                 rcond=None)[0]
            mu = np.concatenate([[1.0 - nu.sum()], nu])
            if np.all(mu >= 0.0):
                break
            # Step from mu_s towards mu until a weight hits zero; drop it.
            neg = np.flatnonzero(mu < 0.0)
            ratios = mu_s[neg] / (mu_s[neg] - mu[neg])
            k = int(np.argmin(ratios))
            mu_s = mu_s + ratios[k] * (mu - mu_s)
            mu_s[neg[k]] = 0.0
            s, mu_s = [i for i, v in zip(s, mu_s) if v > 0.0], mu_s[mu_s > 0.0]
        y = a[:, s] @ mu
        if y @ y >= x @ x:
            break
        active, lam, x = s, mu, y
    w = np.zeros(a.shape[1])
    w[active] = lam
    return w / w.sum()


def solve_probe_spectrum(prob: ReachabilityProblem):
    """Probe spectrum minimizing the reachability defects over the simplex.

    On the simplex 1^T w = 1, so the stacked defect M w - b equals
    (M - b 1^T) w: w holds the barycentric weights of the least-norm point
    in the convex hull of the columns of A = M - b 1^T.  Wolfe's
    minimum-norm-point algorithm (P. Wolfe, "Finding the nearest point in
    a polytope", Math. Programming 11, 1976) finds it exactly in finitely
    many steps, here on R from A = QR (same Gram matrix, n x n).  Returns
    (w, residual), residual the 2-norm of the stacked defect vector.
    """
    m, b = _stacked_system(prob)
    w = _min_norm_point(np.linalg.qr(m - b[:, None], mode="r"))
    return w, float(np.linalg.norm(m @ w - b))
