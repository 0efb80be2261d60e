"""Indirect control of a qubit through a two-level probe.

The interaction is

    H = (g1 sz + g2 s+ + g2* s-) (x) (g3 px + g4 pz),

a product of a system factor and a probe factor.  Diagonalizing the probe
factor splits the composite evolution into two conditional unitaries
U_+/U_- acting on the system alone, which yields a closed-form reduced
state parametrized by the probe mixing angle theta, the overlap angles
(alpha, beta) of the conditionally evolved states, and the probe ground
occupancy p_p.  The closed-form functions work element by element on
arrays, so one eigendecomposition serves a whole time series or grid; a
scalar input still gives a scalar result.

Basis convention: states are written in the {|1>, |0>} order with
sz|1> = +|1>, |0> the ground state, and s+ = |1><0|.  A diagonal system
state carries weight p_s on |0><0|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opkit
from .errors import (
    DegenerateConditionError,
    DegenerateProbeError,
    InfeasibleError,
    StateError,
)

# Pauli matrices in the {|1>, |0>} ordering.
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
KET_EXCITED = np.array([1.0, 0.0], dtype=complex)   # |1>
KET_GROUND = np.array([0.0, 1.0], dtype=complex)    # |0>


@dataclass(frozen=True)
class QubitCouplings:
    """Coupling vector (g1, g2, g3, g4); g2 may be complex."""

    g1: float
    g2: complex
    g3: float
    g4: float

    def __post_init__(self):
        # hypot, not g3**2 + g4**2: squaring a float beyond ~1e154 overflows.
        if np.hypot(self.g3, self.g4) == 0.0:
            raise DegenerateProbeError("probe factor vanishes: g3 = g4 = 0")


@dataclass(frozen=True)
class LocalRotation:
    """System-local unitary parameters, theta in [0, pi], phi in [0, 2pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi <= 2.0 * np.pi:
            raise ValueError(f"phi {self.phi} outside [0, 2pi]")


@dataclass(frozen=True)
class OverlapAngles:
    """alpha in [0, pi/2]; beta a phase in (-pi, pi]."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class PMProbeComponents:
    """Probe state components in the +/- eigenbasis of the probe factor."""

    pp_plus: float
    pp_minus: float
    pm_cross: float


@dataclass(frozen=True)
class SpectralForm:
    """Eigen-decomposition of a 2x2 state given by its entries."""

    e_plus: float
    e_minus: float
    gamma: float
    mixing: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray


@dataclass(frozen=True)
class SolverBudget:
    tol: float = 1e-8


@dataclass(frozen=True)
class ControlSolution:
    couplings: QubitCouplings
    theta: float
    alpha: float
    p_p: float
    t: float
    residual: float
    feasible: bool = True


def _unbox(x):
    """A 0-d result as a Python scalar; any other result as an array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def system_factor(g: QubitCouplings) -> np.ndarray:
    """g1 sz + g2 s+ + g2* s- (2x2 Hermitian, traceless)."""
    g2 = complex(g.g2)
    return g.g1 * SIGMA_Z + g2 * SIGMA_PLUS + np.conj(g2) * SIGMA_MINUS


def probe_factor(g: QubitCouplings) -> np.ndarray:
    """g3 px + g4 pz (2x2 Hermitian)."""
    return g.g3 * SIGMA_X + g.g4 * SIGMA_Z


def build_interaction(g: QubitCouplings) -> np.ndarray:
    """The full 4x4 interaction Hamiltonian, system (x) probe."""
    return opkit.kron(system_factor(g), probe_factor(g))


def local_rotation_matrix(r: LocalRotation) -> np.ndarray:
    """The 2x2 system block f of the local transformation f (x) I."""
    c, s = np.cos(r.theta / 2.0), np.sin(r.theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * r.phi) * s],
         [np.exp(-1j * r.phi) * s, c]], dtype=complex)


def transform_couplings(r: LocalRotation, g: QubitCouplings) -> QubitCouplings:
    """Couplings g' with H(g') = (f (x) I) H(g) (f (x) I)^dag.

    The probe couplings g3, g4 are untouched; the conjugated system factor
    stays in the span of {sz, s+, s-}, so (g1', g2') are read off its
    entries.
    """
    f = local_rotation_matrix(r)
    h = f @ system_factor(g) @ opkit.dag(f)
    return QubitCouplings(g1=float(h[0, 0].real), g2=complex(h[0, 1]),
                          g3=g.g3, g4=g.g4)


def probe_mixing_angle(g: QubitCouplings) -> float:
    """Angle theta with sin(theta) = g3/r, cos(theta) = g4/r, r = |(g3,g4)|.

    Lies in [0, pi] for g3 >= 0 and extends continuously to (-pi, 0) for
    g3 < 0; either way cos(theta/2)|1> + sin(theta/2)|0> is the +r
    eigenvector of the probe factor.
    """
    r = np.hypot(g.g3, g.g4)
    if r == 0.0:
        raise DegenerateProbeError("probe factor vanishes")
    return float(np.arctan2(g.g3, g.g4))


def probe_pm_vectors(theta: float):
    """The |+> and |-> eigenvectors of the probe factor, for eigenvalues +r, -r."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus = np.array([c, s], dtype=complex)
    minus = np.array([s, -c], dtype=complex)
    return plus, minus


def conditional_unitaries(g: QubitCouplings, t):
    """(U_+, U_-) with U_pm = exp(-i H_pm t), H_pm = +/- r (g1 sz + g2 s+ + g2* s-).

    An array of times gives stacks (..., 2, 2).
    """
    r = np.hypot(g.g3, g.g4)
    u_plus = opkit.expm_i_hermitian(r * system_factor(g), t)
    return u_plus, opkit.dag(u_plus)


def overlap_angles(g: QubitCouplings, t, tol: float = 1e-12) -> OverlapAngles:
    """Overlap angles of U_-|0> against the basis {U_+|0>, U_+|1>}.

    cos(alpha) = |<psi_+0|psi_-0>|; beta is the phase of <perp|psi_-0>
    relative to <psi_+0|psi_-0>.  When either overlap vanishes beta is set
    to 0 by convention (it then multiplies a zero coherence).
    """
    u_plus, _ = conditional_unitaries(g, t)
    return _overlap_angles(u_plus, tol)


def _overlap_angles(u_plus, tol: float = 1e-12) -> OverlapAngles:
    """overlap_angles from U_+ (or a stack of them)."""
    # With U_- = U_+^dag, <U_+ k|U_- 0> = conj(<0|U_+^2|k>): row 1 (|0>) of
    # U_+^2 holds both overlaps, for k = |1> (index 0) and k = |0> (index 1).
    row = (u_plus @ u_plus)[..., 1, :].conj()
    ip_perp, ip = row[..., 0], row[..., 1]
    # arctan2 of the two magnitudes avoids the arccos error amplification
    # near alpha = 0 and alpha = pi/2.
    mag_perp, mag = np.abs(ip_perp), np.abs(ip)
    alpha = np.arctan2(mag_perp, mag)
    beta = (np.angle(ip_perp) - np.angle(ip) + np.pi) % (2.0 * np.pi) - np.pi
    beta = np.where(beta <= -np.pi, beta + 2.0 * np.pi, beta)
    beta = np.where((mag <= tol) | (mag_perp <= tol), 0.0, beta)
    return OverlapAngles(alpha=_unbox(alpha), beta=_unbox(beta))


def pm_components(theta, p_p) -> PMProbeComponents:
    """Diagonal probe diag(1-p_p, p_p) re-expressed in the +/- basis."""
    pp_plus = np.cos(theta / 2.0) ** 2 - p_p * np.cos(theta)
    pm_cross = 0.5 * np.sin(theta) - p_p * np.sin(theta)
    return PMProbeComponents(pp_plus=_unbox(pp_plus),
                             pp_minus=_unbox(1.0 - pp_plus),
                             pm_cross=_unbox(pm_cross))


def reduced_state_closed_form(p_s, theta, p_p, ang: OverlapAngles):
    """Entries (rho00, rho11, rho10) of the evolved state in the
    {U_+|0>, U_+|1>} basis.

    rho10 is the (row U_+|1>, column U_+|0>) entry; its phase carries
    e^{+i beta}, which is the sign the brute-force oracle confirms.
    """
    pm = pm_components(theta, p_p)
    ca2 = np.cos(ang.alpha) ** 2
    sa2 = np.sin(ang.alpha) ** 2
    rho00 = p_s * pm.pp_plus + pm.pp_minus * (p_s * ca2 + (1.0 - p_s) * sa2)
    rho11 = 1.0 - rho00
    rho10 = (0.5 * pm.pp_minus * np.sin(2.0 * ang.alpha)
             * np.exp(1j * ang.beta) * (2.0 * p_s - 1.0))
    return _unbox(rho00), _unbox(rho11), _unbox(rho10)


def closed_form_reduced_state(g: QubitCouplings, t, p_s: float,
                              p_p: float) -> np.ndarray:
    """Evolved reduced state assembled in the computational basis.

    Combines the closed-form entries with the conditional basis vectors;
    diagonal initial states only (weight p_s on |0><0|).  One
    eigendecomposition per call; an array of times gives a stack
    (..., 2, 2).
    """
    u_plus, _ = conditional_unitaries(g, t)
    rho00, rho11, rho10 = reduced_state_closed_form(
        p_s, probe_mixing_angle(g), p_p, _overlap_angles(u_plus))
    # The entries in the basis of U_+'s columns, (U_+|1>, U_+|0>).
    m = np.stack([np.stack([rho11, rho10], axis=-1),
                  np.stack([np.conj(rho10), rho00], axis=-1)], axis=-2)
    return u_plus @ m @ opkit.dag(u_plus)


def conditional_reduced_state(g: QubitCouplings, t: float,
                              rho_s0: np.ndarray,
                              rho_p0: np.ndarray) -> np.ndarray:
    """General conditional-evolution form of the reduced state.

    Works for arbitrary system states and arbitrary probe states
    (coherences included): only the +/- basis diagonal of the probe
    enters, the cross terms cancel under the partial trace.
    """
    rho_s0 = opkit.as_matrix(rho_s0)
    rho_p0 = opkit.as_matrix(rho_p0)
    theta = probe_mixing_angle(g)
    plus, minus = probe_pm_vectors(theta)
    w_plus = float(np.real(np.vdot(plus, rho_p0 @ plus)))
    w_minus = float(np.real(np.vdot(minus, rho_p0 @ minus)))
    u_plus, u_minus = conditional_unitaries(g, t)
    return (w_plus * u_plus @ rho_s0 @ opkit.dag(u_plus)
            + w_minus * u_minus @ rho_s0 @ opkit.dag(u_minus))


def spectral_form(rho00: float, rho11: float, rho01: complex,
                  tol: float = 1e-10) -> SpectralForm:
    """Eigenvalues/eigenvectors of [[rho00, rho01], [rho01*, rho11]].

    E_pm = (1/2)[(rho00+rho11) +/- sqrt((rho00-rho11)^2 + 4|rho01|^2)],
    cos(mixing) = (rho00-rho11)/sqrt(...), gamma = Arg(rho01).  For the
    maximally mixed case the standard basis is returned.
    """
    if abs(rho00 + rho11 - 1.0) > 1e-10:
        raise StateError(f"rho00 + rho11 = {rho00 + rho11} != 1")
    d = rho00 - rho11
    root = np.sqrt(d * d + 4.0 * abs(rho01) ** 2)
    e_plus = 0.5 * ((rho00 + rho11) + root)
    e_minus = 0.5 * ((rho00 + rho11) - root)
    gamma = float(np.angle(rho01)) if abs(rho01) > tol else 0.0
    if root > tol:
        mixing = float(np.arccos(np.clip(d / root, -1.0, 1.0)))
    else:
        mixing = 0.0
    ch, sh = np.cos(mixing / 2.0), np.sin(mixing / 2.0)
    psi_plus = np.array([ch, sh * np.exp(-1j * gamma)], dtype=complex)
    psi_minus = np.array([sh, -ch * np.exp(-1j * gamma)], dtype=complex)
    return SpectralForm(e_plus=float(e_plus), e_minus=float(e_minus),
                        gamma=gamma, mixing=mixing,
                        psi_plus=psi_plus, psi_minus=psi_minus)


def analytic_conditions(p_s: float, q: float, theta: float, alpha: float,
                        den_tol: float = 1e-12) -> float:
    """Probe occupancy p_p solving rho00 = q at the given (p_s, theta, alpha).

    Evaluates the printed occupancy formula literally.  The denominator
    factors as cos(theta) sin^2(alpha) (1 - 2 p_s): it vanishes at
    alpha = n pi, at theta = pi/2, and at p_s = 1/2, which is surfaced as
    DegenerateConditionError rather than divided through.
    """
    c2, s2 = np.cos(theta / 2.0) ** 2, np.sin(theta / 2.0) ** 2
    sa2 = np.sin(alpha) ** 2
    c2a = np.cos(2.0 * alpha)
    num = q - p_s * c2 - s2 * sa2 - p_s * s2 * c2a
    den = (np.cos(theta) * sa2 + p_s * np.cos(theta) * c2a
           - p_s * np.cos(theta))
    if abs(den) <= den_tol:
        raise DegenerateConditionError(
            f"occupancy formula denominator {den:.3e} is degenerate")
    p_p = num / den
    if not -1e-12 <= p_p <= 1.0 + 1e-12:
        raise InfeasibleError(f"required occupancy {p_p} outside [0, 1]")
    return float(min(max(p_p, 0.0), 1.0))


def zero_coherence_condition(theta: float, p_p: float, alpha: float,
                             tol: float = 1e-10) -> bool:
    """Whether (theta, p_p, alpha) satisfies cos(theta) = 1/(1-2p_p) and
    alpha = n pi, both to the given tolerance."""
    if abs(1.0 - 2.0 * p_p) <= tol:
        return False
    cos_ok = abs(np.cos(theta) - 1.0 / (1.0 - 2.0 * p_p)) <= tol
    n = np.round(alpha / np.pi)
    alpha_ok = abs(alpha - n * np.pi) <= tol
    return bool(cos_ok and alpha_ok)


def _bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a 2x2 state in the {|1>, |0>} ordering."""
    return np.array([
        float(np.real(np.trace(rho @ SIGMA_X))),
        float(np.real(np.trace(rho @ SIGMA_Y))),
        float(np.real(np.trace(rho @ SIGMA_Z))),
    ])


def _couplings_from_axis(n_hat: np.ndarray) -> QubitCouplings:
    """Couplings whose conditional Hamiltonian axis is n_hat (unit), with
    probe factor pz (theta = 0, r = 1)."""
    return QubitCouplings(g1=float(n_hat[2]),
                          g2=complex(n_hat[0] - 1j * n_hat[1]),
                          g3=0.0, g4=1.0)


def solve_controls_numeric(p_s: float, target, budget: SolverBudget | None = None
                           ) -> ControlSolution:
    """Find (g, t, p_p) steering diag(1-p_s, p_s) onto the target state.

    The solution is closed form: the conditional rotation axis is chosen
    perpendicular to the initial Bloch vector inside the plane spanned by
    the initial and target Bloch vectors; the rotation angle and the +/-
    branch imbalance then follow from two scalar projections.  Targets
    with Bloch radius above |1-2p_s| are unreachable (the channel is
    unital on the spectrum); for those the closest reachable state is
    returned and the solution is flagged infeasible.  A residual above
    ``budget.tol`` is flagged infeasible too; it is not searched further.
    """
    budget = budget or SolverBudget()
    rho_t = opkit.validate_density_matrix(target)
    r_tau = _bloch(rho_t)
    rad = float(np.linalg.norm(r_tau))
    m0 = abs(1.0 - 2.0 * p_s)

    z = np.array([0.0, 0.0, 1.0])
    e_hat = z if p_s <= 0.5 else -z

    if m0 < 1e-14:
        # Maximally mixed initial state: it is a fixed point of every
        # admissible channel.
        g = QubitCouplings(g1=0.0, g2=1.0 + 0.0j, g3=0.0, g4=1.0)
        rho = closed_form_reduced_state(g, 0.0, p_s, 0.5)
        res = opkit.trace_distance(rho, rho_t)
        return ControlSolution(couplings=g, theta=0.0, alpha=0.0, p_p=0.5,
                               t=0.0, residual=res,
                               feasible=res <= budget.tol)

    feasible_geom = rad <= m0 + 1e-9
    r_aim = r_tau if (feasible_geom or rad == 0.0) else r_tau * (m0 / rad)

    perp = r_aim - np.dot(r_aim, e_hat) * e_hat
    pn = float(np.linalg.norm(perp))
    if pn > 1e-13:
        m_hat = perp / pn
    else:
        m_hat = np.array([1.0, 0.0, 0.0])
    n_hat = np.cross(e_hat, m_hat)

    x = float(np.clip(np.dot(r_aim, e_hat) / m0, -1.0, 1.0))
    phi = float(np.arccos(x))
    sphi = np.sin(phi)
    if sphi > 1e-12:
        u = float(np.clip(np.dot(r_aim, m_hat) / (m0 * sphi), -1.0, 1.0))
    else:
        u = 0.0

    t = phi / 2.0
    p_p = (1.0 - u) / 2.0
    g = _couplings_from_axis(n_hat)
    rho = closed_form_reduced_state(g, t, p_s, p_p)
    res = opkit.trace_distance(rho, rho_t)
    ang = overlap_angles(g, t)
    return ControlSolution(couplings=g, theta=probe_mixing_angle(g),
                           alpha=ang.alpha, p_p=p_p, t=t, residual=res,
                           feasible=res <= budget.tol)
