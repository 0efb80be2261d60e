"""Indirect control of an N-level system through an N-level probe.

For a product interaction h_s (x) h_p the composite propagator factorizes
over the probe eigenbasis into conditional unitaries U_M = exp(-i E_M h_s t)
= V exp(-i E_M t Lambda) V^dag, held as h_s's eigenvectors V and one phase
row per probe level.  Weighted by the probe's eigenbasis diagonal they form
a Kraus channel that only dephases h_s's eigenbasis.  The reachability
machinery expresses a diagonal target in a reference evolved basis and
solves for the probe spectrum on the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opkit
from .errors import DimensionError, ProbabilityError


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


def _is_distribution(w: np.ndarray, tol: float) -> bool:
    """Entries >= -1e-12 and |sum - 1| <= tol; False if any entry is NaN."""
    return bool(np.all(w >= -1e-12)) and abs(w.sum() - 1.0) <= tol


@dataclass(frozen=True)
class ConditionalDecomposition:
    """Conditional unitaries U_M = exp(-i E_M h_s t) = V diag(phases[M]) V^dag,
    held as h_s's eigenvectors V and the (N, n) phases exp(-i E_M t lambda)."""

    vectors: np.ndarray
    phases: np.ndarray
    probe_vectors: np.ndarray

    @property
    def unitaries(self) -> np.ndarray:
        """The (N, n, n) stack, in ``opkit.expm_i_hermitian``'s expressions."""
        v = self.vectors
        return (v * self.phases[:, None, :]) @ opkit.dag(v)


@dataclass(frozen=True)
class KrausChannel:
    """The CPTP map sum_M w_M U_M rho U_M^dag, one weight per probe level."""

    weights: np.ndarray
    decomposition: ConditionalDecomposition

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not _is_distribution(w, 1e-12):
            raise ProbabilityError(f"channel weights {w} are not a distribution")
        n = self.decomposition.phases.shape[0]
        if w.shape != (n,):
            raise DimensionError(f"{w.size} channel weights for {n} probe levels")
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))

    @property
    def dim(self) -> int:
        return self.decomposition.vectors.shape[0]

    def kraus_operators(self) -> np.ndarray:
        return np.sqrt(self.weights)[:, None, None] * self.decomposition.unitaries


def conditional_decomposition(h: ProductHamiltonian, t: float
                              ) -> ConditionalDecomposition:
    """Split exp(-i (h_s (x) h_p) t) over the probe eigenbasis, with one
    eigendecomposition of h_s for every probe energy."""
    values, vectors = opkit.eig_hermitian(h.h_s)
    phases = np.exp(np.multiply.outer(h.probe_values * t, -1j * values))
    return ConditionalDecomposition(vectors, phases, h.probe_vectors.copy())


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
    return KrausChannel(weights=weights, decomposition=decomp)


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Sum_M w_M U_M rho U_M^dag as V (Phi o V^dag rho V) V^dag, where for
    the phases P, Phi = P^T diag(w) P^*: Phi_ab = sum_M w_M exp(-i E_M t
    (lambda_a - lambda_b)), a dephasing of h_s's eigenbasis."""
    rho = opkit.as_matrix(rho)
    if rho.shape[0] != ch.dim:
        raise DimensionError(f"state dim {rho.shape[0]} != channel dim {ch.dim}")
    v, phases = ch.decomposition.vectors, ch.decomposition.phases
    phi = phases.T @ (ch.weights[:, None] * phases.conj())
    return v @ (phi * (opkit.dag(v) @ rho @ v)) @ opkit.dag(v)


def expansion_coefficients(h_s, energies, t: float, ref_time: float
                           ) -> np.ndarray:
    """Coefficients c[alpha, j, m] = <ref_alpha| exp(-i h_s E_m t) |j>.

    The reference basis is {exp(-i h_s ref_time)|alpha>}, orthonormal by
    construction, so each (j, m) column has unit norm.  Since
    W_ref^dag U_m = exp(-i h_s (E_m t - ref_time)), the coefficients come
    from one propagator stack.
    """
    times = np.asarray(energies, dtype=float) * t - ref_time
    return np.moveaxis(opkit.expm_i_hermitian(h_s, times), 0, -1)


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
            if not _is_distribution(v, 1e-10):
                raise ProbabilityError(f"{name} weights are not a distribution")
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != p.size:
            raise DimensionError(f"coefficient tensor shape {c.shape} invalid")
        if q.size != p.size:
            raise DimensionError(
                f"{q.size} target weights for {p.size} initial weights")
        col_norms = np.sum(np.abs(c) ** 2, axis=0)
        if not np.max(np.abs(col_norms - 1.0)) <= 1e-10:
            raise ProbabilityError("coefficient columns are not unit norm")
        object.__setattr__(self, "initial_weights", p)
        object.__setattr__(self, "target_weights", q)
        object.__setattr__(self, "coefficients", c)

    @property
    def dim(self) -> int:
        return self.initial_weights.size


def reachability_residual(prob: ReachabilityProblem, w):
    """Defects of the reachability system at probe diagonal w.

    Returns (diag_residuals, offdiag_residuals): the per-target-weight
    defects q_alpha - rho_alpha,alpha, and the beta != gamma entries of rho
    in row-major order (all of which must vanish for an exact realization).
    rho = C diag(p (x) w) C^dag, C the coefficients as an n x n^2 matrix,
    is built apart from the solver's defect matrix, so it checks the solver.
    """
    w, n = np.asarray(w, dtype=float), prob.dim
    if w.size != n:
        raise DimensionError(f"candidate has {w.size} entries, expected {n}")
    if not _is_distribution(w, 1e-10):
        raise ProbabilityError(f"candidate {w} is not a probability vector")
    c = prob.coefficients.reshape(n, n * n)
    value = (c * np.kron(prob.initial_weights, w)) @ c.conj().T
    diag = prob.target_weights - np.real(np.diagonal(value))
    return diag, value[~np.eye(n, dtype=bool)]


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sort-based)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0 or not np.isfinite(v).all():
        raise ProbabilityError(f"cannot project {v} onto the simplex")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _defect_matrix(prob: ReachabilityProblem) -> np.ndarray:
    """Defect matrix A, whose column m is the defect vector at w = e_m: rows
    diag(G_m) - q, then re and im of each beta < gamma entry in row order.
    G[beta, gamma, m] = sum_j p_j c[beta,j,m] c[gamma,j,m]^* comes from one
    batched product C_m diag(p) C_m^dag over the probe levels m."""
    c, n = prob.coefficients.transpose(2, 0, 1), prob.dim
    g = ((c * prob.initial_weights) @ c.conj().transpose(0, 2, 1)
         ).transpose(1, 2, 0)
    upper = g[np.triu_indices(n, k=1)]
    return np.concatenate(
        [np.real(np.diagonal(g)).T - prob.target_weights[:, None],
         np.hstack([upper.real, upper.imag]).reshape(-1, n)])


def _affine_min(pts: np.ndarray):
    """Affine least-norm weights (sum 1) and the rank of column differences."""
    nu, _, rank, _ = np.linalg.lstsq(pts[:, 1:] - pts[:, :1], -pts[:, 0],
                                     rcond=None)
    return np.concatenate([[1.0 - nu.sum()], nu]), rank


def _min_norm_point(a: np.ndarray) -> np.ndarray:
    """Barycentric weights of the least-norm point in the hull of a's columns.

    The walk starts from every column if they are affinely independent and
    their affine hull's least-norm point has weights >= 0 (then it is the
    answer, after one least-squares solve), else from the least-norm column.
    Major cycles add the column most opposed to the current point x; minor
    cycles move x to the least-norm point of the active columns' affine
    hull, dropping columns whose weight would turn negative.  Ties go to
    the lowest index, and the walk stops once a cycle no longer lowers |x|.
    """
    lam, rank = _affine_min(a)
    if rank == a.shape[1] - 1 and np.all(lam >= 0.0):
        active = list(range(a.shape[1]))
    else:
        active = [int(np.argmin(np.einsum("ij,ij->j", a, a)))]
        lam = np.ones(1)
    x = a[:, active] @ lam
    while True:
        j = int(np.argmin(a.T @ x))
        if j in active or x @ x - a[:, j] @ x <= 0.0:
            break
        s, mu_s = active + [j], np.append(lam, 0.0)
        while True:
            mu = _affine_min(a[:, s])[0]
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

    On the simplex the defect vector at w is A w, A = ``_defect_matrix``,
    so w holds the barycentric weights of the least-norm point in the
    convex hull of A's columns.  Wolfe's minimum-norm-point algorithm (P.
    Wolfe, "Finding the nearest point in a polytope", Math. Programming 11,
    1976) finds it exactly in finitely many steps, here on R from A = QR
    (same Gram matrix, n x n).  The walk starts from every probe level when
    their affine hull's least-norm point lies in the hull, so a reachable
    target with a full-support probe spectrum costs one least-squares
    solve; otherwise it starts from one level.  Returns (w, |A w|).
    """
    a = _defect_matrix(prob)
    w = _min_norm_point(np.linalg.qr(a, mode="r"))
    return w, float(np.linalg.norm(a @ w))
