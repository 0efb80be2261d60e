"""Indirect control of a qubit through a two-level probe.

The interaction is

    H = (g1 sz + g2 s+ + g2* s-) (x) (g3 px + g4 pz),

a system factor n.sigma, n = (Re g2, -Im g2, g1), times a probe factor;
only the oracle (``verify.interaction_from_couplings``) builds it as a
matrix.  Diagonalizing the probe factor splits the composite evolution
into two conditional unitaries U_+/U_- acting on the system alone, which
yields a closed-form reduced state of the probe mixing angle theta, the
probe ground occupancy p_p and the overlap products cos^2 alpha,
sin^2 alpha and sin 2alpha e^{i beta}.  The kernels know U_+ = cos(a) I -
i sin(a) n_hat.sigma only as (a, n_hat): U_+^2 gives the overlaps, and
U_+ and U_- = U_+^dag rotate Bloch vectors by +2a and -2a about n_hat, so
every reduced state is a Bloch vector, a probe-weighted pair of rotations
built without 2x2 matrices; a system-local unitary rotates n.  The
closed forms act element-wise; a scalar gives a scalar.

Basis convention: states are written in the {|1>, |0>} order with
sz|1> = +|1>, |0> the ground state, and s+ = |1><0|.  A diagonal system
state carries weight p_s on |0><0|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import opkit
from .errors import (
    DegenerateConditionError,
    DegenerateProbeError,
    DimensionError,
    DomainError,
    InfeasibleError,
    StateError,
)

@dataclass(frozen=True)
class QubitCouplings:
    """Finite coupling vector (g1, g2, g3, g4); g2 may be complex."""

    g1: float
    g2: complex
    g3: float
    g4: float

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.g1, self.g2, self.g3, self.g4))):
            raise DomainError(f"non-finite coupling in {self}")
        # hypot, not g3**2 + g4**2: squaring a float beyond ~1e154 overflows.
        if math.hypot(self.g3, self.g4) == 0.0:
            raise DegenerateProbeError("probe factor vanishes: g3 = g4 = 0")


@dataclass(frozen=True)
class LocalRotation:
    """System-local unitary parameters, theta in [0, pi], phi in [0, 2pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise DomainError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi <= 2.0 * np.pi:
            raise DomainError(f"phi {self.phi} outside [0, 2pi]")


@dataclass(frozen=True)
class OverlapAngles:
    """alpha in [0, pi/2]; beta a phase in (-pi, pi]."""

    alpha: float
    beta: float


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
class ControlSolution:
    couplings: QubitCouplings
    theta: float
    alpha: float
    p_p: float
    t: float
    residual: float
    feasible: bool = True


def _require_unit(name: str, v):
    """Every entry of v, a number or an array, lies in [0, 1] (NaN fails)."""
    inside = (0.0 <= v) & (v <= 1.0)
    if not np.all(inside):
        bad = np.asarray(v)[np.logical_not(inside)].flat[0]
        raise DomainError(f"{name} {bad} outside [0, 1]")


def _unbox(x):
    """A 0-d result as a Python scalar; any other result as an array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def local_rotation_matrix(r: LocalRotation) -> np.ndarray:
    """The 2x2 system block f of the local transformation f (x) I."""
    c, s = np.cos(r.theta / 2.0), np.sin(r.theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * r.phi) * s],
         [np.exp(-1j * r.phi) * s, c]], dtype=complex)


def transform_couplings(r: LocalRotation, g: QubitCouplings) -> QubitCouplings:
    """Couplings g' with H(g') = (f (x) I) H(g) (f (x) I)^dag.

    f = exp(-i theta/2 m_hat.sigma), m_hat = (sin phi, cos phi, 0), turns
    the system axis n = (Re g2, -Im g2, g1) by theta about m_hat into n':
    g1' = n'_z, g2' = n'_x - i n'_y, and g3, g4 are kept."""
    n = (g.g2.real, -g.g2.imag, g.g1)
    m_hat = (np.sin(r.phi), np.cos(r.phi), 0.0)
    x, y, z = _rotate(n, np.cos(r.theta), np.sin(r.theta), m_hat)
    return QubitCouplings(g1=float(z), g2=complex(x, -y), g3=g.g3, g4=g.g4)


def probe_mixing_angle(g: QubitCouplings) -> float:
    """Angle theta with sin(theta) = g3/r, cos(theta) = g4/r, r = |(g3,g4)|.

    Lies in [0, pi] for g3 >= 0 and extends continuously to (-pi, 0) for
    g3 < 0; either way cos(theta/2)|1> + sin(theta/2)|0> is the +r
    eigenvector of the probe factor.
    """
    return math.atan2(g.g3, g.g4)


def _axis_angle(g: QubitCouplings, t):
    """U_+ = exp(-i r h_s t) = cos(a) I - i sin(a) n_hat.sigma as (a, n_hat);
    h_s = n.sigma, n = (Re g2, -Im g2, g1), a = r|n|t, n_hat = n/|n| or 0."""
    norm = np.hypot(g.g1, abs(g.g2))
    n = np.array([g.g2.real, -g.g2.imag, g.g1])
    a = np.hypot(g.g3, g.g4) * norm * np.asarray(t, dtype=float)
    return a, (n / norm if norm else n)


def conditional_unitaries(g: QubitCouplings, t):
    """(U_+, U_-) with U_pm = exp(-i H_pm t), H_pm = +/- r (g1 sz + g2 s+ + g2* s-).

    U_+ from ``_axis_angle``, U_- = U_+^dag; an array of times gives stacks.
    """
    a, (nx, ny, nz) = _axis_angle(g, t)
    n_sigma = np.array([[nz, complex(nx, -ny)], [complex(nx, ny), -nz]])
    u_plus = (np.multiply.outer(np.cos(a), np.eye(2))
              - 1j * np.multiply.outer(np.sin(a), n_sigma))
    return u_plus, opkit.dag(u_plus)


def overlap_angles(g: QubitCouplings, t) -> OverlapAngles:
    """Overlap angles of U_-|0> against the basis {U_+|0>, U_+|1>}.

    cos(alpha) = |<psi_+0|psi_-0>|; beta is the phase of <perp|psi_-0>
    relative to <psi_+0|psi_-0>.  When either overlap is exactly 0 beta is
    set to 0 by convention (it then multiplies a zero coherence).
    """
    a, n_hat = _axis_angle(g, t)
    ip, ip_perp = _square_overlaps(np.cos(2.0 * a), np.sin(2.0 * a), *n_hat)
    # arctan2 of the two magnitudes avoids the arccos error amplification
    # near alpha = 0 and alpha = pi/2.
    mag_perp, mag = np.abs(ip_perp), np.abs(ip)
    alpha = np.arctan2(mag_perp, mag)
    beta = (np.angle(ip_perp) - np.angle(ip) + np.pi) % (2.0 * np.pi) - np.pi
    beta = np.where(beta <= -np.pi, beta + 2.0 * np.pi, beta)
    beta = np.where((mag == 0.0) | (mag_perp == 0.0), 0.0, beta)
    return OverlapAngles(alpha=_unbox(alpha), beta=_unbox(beta))


def _square_overlaps(c, s, nx, ny, nz):
    """<U_+k|U_-0> for k = 0, 1 from U_+^2 = c I - i s n_hat.sigma."""
    # With U_- = U_+^dag, <U_+ k|U_- 0> = conj(<0|U_+^2|k>): row |0> of
    # U_+^2, conjugated, is (i s (n_x - i n_y), c - i s n_z) for k = |1>, |0>.
    return c - 1j * (s * nz), s * complex(ny, nx)


def reduced_state_closed_form(p_s, theta, p_p, ca2, sa2, cross):
    """Entries (rho00, rho11, rho10) of the evolved state in the
    {U_+|0>, U_+|1>} basis, from ca2 = cos^2(alpha), sa2 = sin^2(alpha)
    and cross = sin(2 alpha) e^{i beta}.

    rho10 is the (row U_+|1>, column U_+|0>) entry; its phase carries
    e^{+i beta}, which is the sign the brute-force oracle confirms.  The
    probe diag(1-p_p, p_p) puts pp_plus, pp_minus on the +/- eigenvectors.
    DomainError unless p_s and every p_p lie in [0, 1].
    """
    _require_unit("p_s", p_s)
    _require_unit("p_p", p_p)
    pp_plus = np.cos(theta / 2.0) ** 2 - p_p * np.cos(theta)
    pp_minus = 1.0 - pp_plus
    rho00 = p_s * pp_plus + pp_minus * (p_s * ca2 + (1.0 - p_s) * sa2)
    rho11 = 1.0 - rho00
    rho10 = 0.5 * pp_minus * cross * (2.0 * p_s - 1.0)
    return _unbox(rho00), _unbox(rho11), _unbox(rho10)


def closed_form_reduced_state(g: QubitCouplings, t, p_s: float, p_p: float):
    """Evolved reduced state as ``(r, (rho00, rho11, rho10), (ip, ip_perp))``.

    r, the Bloch vector, is (3,) or (..., 3) for an array of times.  The
    entries take |ip|^2, |ip_perp|^2 and 2 ip_perp ip*, which is 0 wherever
    either overlap is.  Diagonal initial states only (weight p_s on |0><0|).
    """
    a, (nx, ny, nz) = _axis_angle(g, t)
    c, s = np.cos(2.0 * a), np.sin(2.0 * a)
    ip, ip_perp = _square_overlaps(c, s, nx, ny, nz)
    rho00, rho11, rho10 = entries = reduced_state_closed_form(
        p_s, probe_mixing_angle(g), p_p, c * c + (s * nz) ** 2,
        s * s * (nx * nx + ny * ny), 2.0 * ip_perp * np.conj(ip))
    # The Bloch vector in the basis (U_+|1>, U_+|0>), rotated by 2a.
    v = (2.0 * np.real(rho10), -2.0 * np.imag(rho10), rho11 - rho00)
    return _rotate(v, c, s, (nx, ny, nz)), entries, (ip, ip_perp)


def _rotate(v, c, s, n_hat):
    """Rodrigues' formula c v + s (n_hat x v) + (1 - c)(n_hat . v) n_hat,
    stacked on the last axis; a rotation about n_hat when c^2 + s^2 = 1."""
    (vx, vy, vz), (nx, ny, nz) = v, n_hat
    dot = (1.0 - c) * (nx * vx + ny * vy + nz * vz)
    return np.stack([c * vx + s * (ny * vz - nz * vy) + dot * nx,
                     c * vy + s * (nz * vx - nx * vz) + dot * ny,
                     c * vz + s * (nx * vy - ny * vx) + dot * nz], axis=-1)


def conditional_reduced_state(g: QubitCouplings, t: float,
                              rho_s0: np.ndarray,
                              rho_p0: np.ndarray) -> np.ndarray:
    """General conditional-evolution form of the reduced state.

    Any system and probe states (coherences included): the probe enters
    only through its +/- basis weights, whose cross terms cancel under
    the partial trace.  The system's Bloch vector r0 goes to
    w_+ R(2a) r0 + w_- R(-2a) r0, one rotation whose sine is scaled by
    w_+ - w_- = (g3 r_p,x + g4 r_p,z)/|(g3, g4)| for the probe's Bloch
    vector r_p; it becomes a 2x2 matrix only on return.
    """
    r0 = bloch_vector(opkit.validate_density_matrix(rho_s0))
    rp = bloch_vector(opkit.validate_density_matrix(rho_p0))
    imbalance = (g.g3 * rp[0] + g.g4 * rp[2]) / np.hypot(g.g3, g.g4)
    a, n_hat = _axis_angle(g, t)
    x, y, z = _rotate(r0, np.cos(2.0 * a), imbalance * np.sin(2.0 * a), n_hat)
    return 0.5 * np.array([[1.0 + z, complex(x, -y)],
                           [complex(x, y), 1.0 - z]])


def spectral_form(rho00: float, rho11: float, rho01: complex) -> SpectralForm:
    """Eigenvalues/eigenvectors of [[rho00, rho01], [rho01*, rho11]].

    E_pm = (1/2)[(rho00+rho11) +/- sqrt((rho00-rho11)^2 + 4|rho01|^2)],
    cos(mixing) = (rho00-rho11)/sqrt(...), gamma = Arg(rho01).  For the
    maximally mixed case the standard basis is returned.
    """
    if not np.isfinite([rho00, rho11, rho01]).all():
        raise StateError("state entries contain NaN or Inf")
    if abs(rho00 + rho11 - 1.0) > 1e-10:
        raise StateError(f"rho00 + rho11 = {rho00 + rho11} != 1")
    d = rho00 - rho11
    root = np.sqrt(d * d + 4.0 * abs(rho01) ** 2)
    e_plus = 0.5 * ((rho00 + rho11) + root)
    e_minus = 0.5 * ((rho00 + rho11) - root)
    gamma = float(np.angle(rho01)) if abs(rho01) > 1e-10 else 0.0
    if root > 1e-10:
        mixing = float(np.arccos(np.clip(d / root, -1.0, 1.0)))
    else:
        mixing = 0.0
    ch, sh = np.cos(mixing / 2.0), np.sin(mixing / 2.0)
    psi_plus = np.array([ch, sh * np.exp(-1j * gamma)], dtype=complex)
    psi_minus = np.array([sh, -ch * np.exp(-1j * gamma)], dtype=complex)
    return SpectralForm(e_plus=float(e_plus), e_minus=float(e_minus),
                        gamma=gamma, mixing=mixing,
                        psi_plus=psi_plus, psi_minus=psi_minus)


def analytic_conditions(p_s: float, q: float, theta: float, alpha: float) -> float:
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
    if abs(den) <= 1e-12:
        raise DegenerateConditionError(
            f"occupancy formula denominator {den:.3e} is degenerate")
    p_p = num / den
    if not -1e-12 <= p_p <= 1.0 + 1e-12:
        raise InfeasibleError(f"required occupancy {p_p} outside [0, 1]")
    return float(min(max(p_p, 0.0), 1.0))


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector r = Re tr(rho sigma) of a 2x2 state in the {|1>, |0>}
    ordering, or an array (..., 3) of them for a stack (..., 2, 2).

    For unit-trace states the eigenvalues are (1 +/- |r|)/2 and the trace
    distance between two states is |r_a - r_b|/2.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise DimensionError(f"expected a 2x2 state, got shape {rho.shape}")
    r00, r01, r10, r11 = (rho[..., i, j] for i in (0, 1) for j in (0, 1))
    return np.stack([np.real(r01 + r10), np.imag(r10 - r01),
                     np.real(r00 - r11)], axis=-1)


def solve_controls_numeric(p_s: float, target, tol: float = 1e-8
                           ) -> ControlSolution:
    """Find (g, t, p_p) steering diag(1-p_s, p_s) onto the target state.

    The initial Bloch vector is (0, 0, z0), z0 = 1 - 2p_s, so the solve is
    a closed form in the plane of z and m, the unit xy-direction of the
    target's Bloch vector r; the conditional rotation axis is sign(z0) z x m.
    With m0 = |z0|, h = sqrt(m0^2 - r_z^2) (0 beyond the poles) the ball's
    xy-radius at the target's height and xy = max(|r_xy|, h), the rotation
    angle is phi = 2t = atan2(xy, sign(z0) r_z) and the +/- branch
    imbalance u = 1 - 2p_p = |r_xy| / xy (0 when xy = 0).  That meets a
    target inside the ball exactly.  One with Bloch radius above m0 is
    unreachable (the channel is unital on the spectrum): it gets u = 1 and
    its nearest reachable state m0 r/|r|, flagged infeasible, as is any
    residual above ``tol``; nothing is searched further.  No step divides
    by m0, so p_s = 1/2 (the ball is the point 0) needs no case.  An xy-part
    at or below 1e-13 counts as zero, along x: a subnormal one would give
    m a length other than 1.
    """
    r_tau = bloch_vector(opkit.validate_density_matrix(target))
    z0 = 1.0 - 2.0 * p_s
    m0 = abs(z0)
    ax, ay, az = r_tau.tolist()
    pn = math.hypot(ax, ay)
    mx, my, pn = (ax / pn, ay / pn, pn) if pn > 1e-13 else (1.0, 0.0, 0.0)
    e = math.copysign(1.0, z0)
    # inside the ball xy = h; outside it xy = pn, so u = 1
    h = math.sqrt(max((m0 - abs(az)) * (m0 + abs(az)), 0.0))
    xy = max(pn, h)
    phi = math.atan2(xy, e * az)
    u = pn / xy if xy else 0.0
    # g2 = n_x - i n_y for the axis n = e z x m = (-e m_y, e m_x, 0);
    # "0.0 -" writes a zero part as 0.0, not -0.0
    g2 = complex(0.0 - e * my, 0.0 - e * mx)
    t, p_p = phi / 2.0, (1.0 - u) / 2.0
    g = QubitCouplings(g1=0.0, g2=g2, g3=0.0, g4=1.0)
    r, _, (ip, ip_perp) = closed_form_reduced_state(g, t, p_s, p_p)
    res = 0.5 * float(np.linalg.norm(r - r_tau))
    return ControlSolution(
        couplings=g, theta=probe_mixing_angle(g), p_p=p_p, t=t,
        alpha=float(np.arctan2(np.abs(ip_perp), np.abs(ip))),
        residual=res, feasible=res <= tol)
