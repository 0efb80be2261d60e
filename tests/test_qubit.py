import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    KET_EXCITED,
    KET_GROUND,
    nlevel_qubit_state,
    qubit_mixed_target,
    rand_couplings,
    rand_density,
)
from iqcontrol import opkit, qubit, verify
from iqcontrol.errors import (
    DegenerateConditionError,
    DegenerateProbeError,
    DimensionError,
    DomainError,
    InfeasibleError,
    StateError,
)
from iqcontrol.qubit import (
    LocalRotation,
    OverlapAngles,
    QubitCouplings,
)

def oracle_interaction(g):
    """The 4x4 interaction H(g), built by the brute-force oracle."""
    return verify.interaction_from_couplings(g.g1, g.g2, g.g3, g.g4)


def angle_products(alpha, beta):
    """The closed form's inputs cos^2 alpha, sin^2 alpha and
    sin 2alpha e^{i beta}, from overlap angles."""
    return (np.cos(alpha) ** 2, np.sin(alpha) ** 2,
            np.sin(2.0 * alpha) * np.exp(1j * beta))


def probe_pm_vectors(theta):
    """The |+>, |-> eigenvectors of the probe factor (eigenvalues +r, -r)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return (np.array([c, s], dtype=complex),
            np.array([s, -c], dtype=complex))


def probe_pm_weights(theta, p_p):
    """Weights of the probe diag(1 - p_p, p_p) on the |+>, |-> vectors."""
    rho_p = np.diag([1.0 - p_p, p_p])
    return tuple(float(np.real(np.vdot(v, rho_p @ v)))
                 for v in probe_pm_vectors(theta))


class TestBuildInteraction:
    """The coupling vector's own checks, and the H it stands for as the
    oracle builds it."""

    def test_diagonal_paulis(self):
        g = QubitCouplings(g1=1.0, g2=0.0, g3=0.0, g4=1.0)
        np.testing.assert_allclose(oracle_interaction(g),
                                   np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_zero_system_factor(self):
        g = QubitCouplings(g1=0.0, g2=0.0, g3=1.0, g4=0.0)
        np.testing.assert_allclose(oracle_interaction(g), np.zeros((4, 4)))

    def test_sigma_x_pair(self):
        g = QubitCouplings(g1=0.0, g2=1.0, g3=1.0, g4=0.0)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(oracle_interaction(g),
                                   np.kron(sigma_x, sigma_x))

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h = oracle_interaction(rand_couplings(rng))
            assert opkit.herm_defect(h) <= 1e-12

    def test_degenerate_probe_rejected(self):
        with pytest.raises(DegenerateProbeError):
            QubitCouplings(g1=1.0, g2=1.0, g3=0.0, g4=0.0)

    @pytest.mark.parametrize("g", [
        (np.nan, 0.0, 0.0, 1.0), (0.0, complex(np.nan, 0.0), 0.0, 1.0),
        (0.0, complex(0.0, np.inf), 0.0, 1.0), (0.0, 0.0, np.nan, 1.0),
        (0.0, 0.0, np.nan, 0.0), (0.0, 0.0, 1.0, -np.inf)],
        ids=["g1_nan", "g2_nan", "g2_inf", "g3_nan", "g3_nan_g4_zero",
             "g4_inf"])
    def test_non_finite_coupling_rejected(self, g):
        # hypot(nan, 1) is NaN, so the g3 = g4 = 0 check alone lets it by
        with pytest.raises(DomainError, match="^non-finite coupling"):
            QubitCouplings(*g)


class TestLocalRotation:
    @pytest.mark.parametrize("theta, phi, name", [
        (-0.1, 1.0, "theta"), (np.pi + 1e-9, 1.0, "theta"),
        (1.0, -1e-9, "phi"), (1.0, 2.0 * np.pi + 0.1, "phi")])
    def test_out_of_range_rejected(self, theta, phi, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            LocalRotation(theta, phi)

    def test_range_ends_accepted(self):
        LocalRotation(0.0, 0.0)
        LocalRotation(np.pi, 2.0 * np.pi)


class TestTransformCouplings:
    def test_identity_rotation(self):
        g = QubitCouplings(g1=0.3, g2=0.4 - 0.2j, g3=1.0, g4=0.5)
        gp = qubit.transform_couplings(LocalRotation(0.0, 1.2), g)
        assert gp == g

    def test_pi_rotation(self):
        g = QubitCouplings(g1=0.3, g2=0.4 - 0.2j, g3=1.0, g4=0.5)
        gp = qubit.transform_couplings(LocalRotation(np.pi, 0.0), g)
        assert gp.g1 == pytest.approx(-0.3)
        assert gp.g2 == pytest.approx(-np.conj(g.g2))
        assert (gp.g3, gp.g4) == (g.g3, g.g4)

    def test_conjugation_identity(self):
        # the rotated coupling axis against f H f^dag, both H from the oracle
        rng = np.random.default_rng(1)
        for _ in range(500):
            g = rand_couplings(rng)
            r = LocalRotation(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            gp = qubit.transform_couplings(r, g)
            f = qubit.local_rotation_matrix(r)
            big_f = np.kron(f, np.eye(2))
            np.testing.assert_allclose(
                oracle_interaction(gp),
                big_f @ oracle_interaction(g) @ big_f.conj().T,
                rtol=0, atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(2)
        g = rand_couplings(rng)
        r = LocalRotation(1.1, 0.7)
        gp = qubit.transform_couplings(r, g)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(oracle_interaction(g)),
            np.linalg.eigvalsh(oracle_interaction(gp)), atol=1e-10)


class TestProbeMixingAngle:
    def test_pure_x(self):
        g = QubitCouplings(g1=0, g2=0, g3=1.0, g4=0.0)
        assert qubit.probe_mixing_angle(g) == pytest.approx(np.pi / 2.0)

    def test_pure_z(self):
        g = QubitCouplings(g1=0, g2=0, g3=0.0, g4=1.0)
        assert qubit.probe_mixing_angle(g) == pytest.approx(0.0)

    def test_three_quarter(self):
        g = QubitCouplings(g1=0, g2=0, g3=1.0, g4=-1.0)
        assert qubit.probe_mixing_angle(g) == pytest.approx(3.0 * np.pi / 4.0)

    def test_pm_eigenvectors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rand_couplings(rng)
            theta = qubit.probe_mixing_angle(g)
            r = np.hypot(g.g3, g.g4)
            plus, minus = probe_pm_vectors(theta)
            hp = np.array([[g.g4, g.g3], [g.g3, -g.g4]])   # g3 px + g4 pz
            np.testing.assert_allclose(hp @ plus, r * plus, atol=1e-12)
            np.testing.assert_allclose(hp @ minus, -r * minus, atol=1e-12)


class TestConditionalUnitaries:
    def test_zero_time(self):
        rng = np.random.default_rng(4)
        up, um = qubit.conditional_unitaries(rand_couplings(rng), 0.0)
        np.testing.assert_allclose(up, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(um, np.eye(2), atol=1e-12)

    def test_diagonal_case(self):
        g = QubitCouplings(g1=1.0, g2=0.0, g3=0.0, g4=1.0)
        t = 0.83
        up, _ = qubit.conditional_unitaries(g, t)
        np.testing.assert_allclose(
            up, np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-12)

    def test_minus_is_adjoint(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = rand_couplings(rng)
            t = rng.uniform(0, 10)
            up, um = qubit.conditional_unitaries(g, t)
            np.testing.assert_allclose(um, up.conj().T, atol=1e-12)

    @staticmethod
    def reference(g, t):
        """U_+ through the general eigendecomposition-based kernel."""
        r = np.hypot(g.g3, g.g4)
        h_s = np.array([[g.g1, g.g2], [np.conj(g.g2), -g.g1]])
        return opkit.expm_i_hermitian(r * h_s, t)

    def test_matches_expm_reference(self):
        # the SU(2) closed form against exp(-i r h_s t) by eigendecomposition,
        # for scalar and array times, couplings in [-2, 2] and t in [0, 50]
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = rand_couplings(rng, scale=2.0)
            t = rng.uniform(0.0, 50.0)
            up, um = qubit.conditional_unitaries(g, t)
            assert up.shape == (2, 2)
            np.testing.assert_allclose(up, self.reference(g, t),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(um, up.conj().T, rtol=0, atol=0)
        for _ in range(20):
            g = rand_couplings(rng, scale=2.0)
            times = np.append(rng.uniform(0.0, 50.0, size=63), [0.0, 50.0])
            up, _ = qubit.conditional_unitaries(g, times)
            assert up.shape == (65, 2, 2)
            np.testing.assert_allclose(up, self.reference(g, times),
                                       rtol=0, atol=1e-12)

    def test_zero_system_factor_is_identity(self):
        # g1 = g2 = 0: h_s vanishes, so U_+ = I at every time
        g = QubitCouplings(g1=0.0, g2=0.0, g3=0.7, g4=-1.3)
        times = np.linspace(0.0, 50.0, 11)
        for t in (0.0, 17.5, times):
            up, um = qubit.conditional_unitaries(g, t)
            np.testing.assert_array_equal(up, np.broadcast_to(np.eye(2),
                                                              up.shape))
            np.testing.assert_array_equal(um, up)
            np.testing.assert_allclose(up, self.reference(g, t), atol=1e-12)


class TestBlochVector:
    """bloch_vector measures a 2x2 state: checked against the
    eigendecomposition-based trace distance and eigenvalues."""

    def test_trace_distance_and_eigenvalues(self):
        rng = np.random.default_rng(7)
        pairs = [(rand_density(rng, 2), rand_density(rng, 2))
                 for _ in range(200)]
        pairs.append((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        pairs.append((np.eye(2) / 2.0, np.eye(2) / 2.0))
        for a, b in pairs:
            ra, rb = qubit.bloch_vector(a), qubit.bloch_vector(b)
            assert ra.shape == (3,)
            assert abs(0.5 * np.linalg.norm(ra - rb)
                       - opkit.trace_distance(a, b)) <= 1e-14
            radius = np.linalg.norm(ra)
            np.testing.assert_allclose(
                [(1.0 - radius) / 2.0, (1.0 + radius) / 2.0],
                np.linalg.eigvalsh(a), rtol=0, atol=1e-14)

    def test_pauli_eigenstates(self):
        # (I + sigma_k)/2 for k = x, y, z
        for rho, axis in (([[0.5, 0.5], [0.5, 0.5]], 0),
                          ([[0.5, -0.5j], [0.5j, 0.5]], 1),
                          ([[1.0, 0.0], [0.0, 0.0]], 2)):
            r = qubit.bloch_vector(np.array(rho))
            np.testing.assert_array_equal(r, np.eye(3)[axis])
        # sz|1> = +|1>, and |1> comes first in the basis
        np.testing.assert_array_equal(
            qubit.bloch_vector(np.outer(KET_EXCITED, KET_EXCITED)),
            [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("rho", [
        np.eye(1), np.diag([0.5, 0.3, 0.2]), np.full((4, 3, 3), np.eye(3) / 3.0),
        np.array([0.5, 0.5]), np.full((3, 2), 0.5),
        np.full((3, 2, 2), np.eye(2) / 2.0)],
        ids=["1x1", "3x3", "stack_3x3", "vector", "3x2", "stack_2x2"])
    def test_non_2x2_raises(self, rho):
        # one state per call: a stack of 2x2 states is another shape
        with pytest.raises(DimensionError, match="expected a 2x2 state"):
            qubit.bloch_vector(rho)

    @pytest.mark.parametrize("target", [np.eye(1), np.diag([0.5, 0.3, 0.2]),
                                        np.full((4, 3, 3), np.eye(3) / 3.0)],
                             ids=["1x1", "3x3", "stack_3x3"])
    def test_solver_rejects_non_2x2_target(self, target):
        # a 3-level target used to be read through its top-left 2x2 block
        with pytest.raises(DimensionError):
            qubit.solve_controls_numeric(0.1, target)


class TestOverlapAngles:
    def test_diagonal_couplings_alpha_zero(self):
        g = QubitCouplings(g1=0.8, g2=0.0, g3=0.4, g4=0.9)
        for t in (0.0, 1.3, 7.7):
            ang = qubit.overlap_angles(g, t)
            assert ang.alpha == pytest.approx(0.0, abs=1e-12)

    def test_sigma_x_overlap(self):
        g = QubitCouplings(g1=0.0, g2=1.0, g3=0.0, g4=1.0)
        for t in (0.2, 0.9, 2.4):
            ang = qubit.overlap_angles(g, t)
            assert np.cos(ang.alpha) == pytest.approx(abs(np.cos(2 * t)),
                                                      abs=1e-12)

    def test_zero_time(self):
        rng = np.random.default_rng(6)
        ang = qubit.overlap_angles(rand_couplings(rng), 0.0)
        assert ang.alpha == pytest.approx(0.0, abs=1e-12)
        assert ang.beta == 0.0

    @pytest.mark.parametrize("t, beta", [
        (5e-12, np.pi / 2), (np.pi / 4 - 5e-12, np.pi / 2),
        (5e-14, np.pi / 2), (np.pi / 4 - 5e-14, np.pi / 2)])
    def test_beta_zero_only_below_overlap_floor(self, t, beta):
        # near t = 0 the overlap <perp|psi_-0> is ~2t, near t = pi/4 the
        # overlap <psi_+0|psi_-0> is ~pi/2 - 2t: the floor is exactly 0, so
        # however small a nonzero overlap is, beta is its true phase, the
        # one U_+'s matrix square gives
        g = QubitCouplings(g1=0.0, g2=1.0, g3=0.0, g4=1.0)
        u_plus, _ = qubit.conditional_unitaries(g, t)
        assert qubit.overlap_angles(g, t).beta \
            == matrix_overlap_angles(u_plus).beta == beta

    @pytest.mark.parametrize("g2, t", [(1.0, 0.0), (0.0, 0.7), (0.0, 2.9)])
    def test_beta_zero_at_a_vanishing_overlap(self, g2, t):
        # at t = 0 and for g2 = 0, <perp|psi_-0> is exactly 0; at t = 2.9,
        # sin 2a < 0 makes it -0 - 0j, whose np.angle is -pi
        g = QubitCouplings(g1=0.6, g2=g2, g3=0.0, g4=1.0)
        u_plus, _ = qubit.conditional_unitaries(g, t)
        assert qubit.overlap_angles(g, t).beta \
            == matrix_overlap_angles(u_plus).beta == 0.0

    def test_beta_wraps_minus_pi_to_pi(self):
        # with the coupling axis along y the phase difference lands on
        # exactly -pi, which the convention beta in (-pi, pi] reads as pi
        g = QubitCouplings(g1=0.0, g2=1j, g3=0.0, g4=1.0)
        assert qubit.overlap_angles(g, 0.3).beta == np.pi

    def test_alpha_reproducible_from_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rand_couplings(rng)
            t = rng.uniform(0, 10)
            ang = qubit.overlap_angles(g, t)
            up, um = qubit.conditional_unitaries(g, t)
            ov = np.vdot(up @ KET_GROUND, um @ KET_GROUND)
            assert np.cos(ang.alpha) == pytest.approx(abs(ov), abs=1e-10)


class TestReducedStateClosedForm:
    @pytest.mark.parametrize("p_s, p_p, message", [
        (1.5, 0.3, "p_s 1.5"), (-0.5, 0.3, "p_s -0.5"),
        (np.nan, 0.3, "p_s nan"),
        (0.3, -0.5, "p_p -0.5"), (0.3, np.nan, "p_p nan"),
        (0.3, np.linspace(0.0, 1.0, 5) + [0, 0, 0, 0, 1e-12],
         "p_p 1.000000000001"),
        (0.3, np.array([0.1, 0.2, np.nan, 0.4]), "p_p nan"),
        (0.3, -1e-12, "p_p -1e-12"), (0.3, 1.0 + 1e-12, "p_p 1.000000000001"),
        (0.3, np.array([0.0, 0.5, 1.5, 1.0]), "p_p 1.5"),
        (0.3, np.array([[0.2], [np.nan]]), "p_p nan")])
    def test_rejects_probabilities_outside_unit(self, p_s, p_p, message):
        # one bad entry of an array p_p is enough
        with pytest.raises(DomainError,
                           match=rf"^{message} outside \[0, 1\]$"):
            qubit.reduced_state_closed_form(p_s, 0.3, p_p,
                                            *angle_products(0.2, 0.0))

    def test_unit_range_ends_accepted(self):
        products = angle_products(np.array([0.2, 0.9]), 0.0)
        for p_s in (0.0, 1.0):
            rho00, rho11, _ = qubit.reduced_state_closed_form(
                p_s, 0.3, np.array([0.0, 1.0]), *products)
            assert np.all((0.0 <= rho00) & (rho00 <= 1.0))
            assert np.allclose(rho00 + rho11, 1.0)

    def test_balanced_system_no_coherence(self):
        _, _, rho10 = qubit.reduced_state_closed_form(
            0.5, 1.2, 0.3, *angle_products(0.7, 1.1))
        assert rho10 == 0.0

    def test_pure_plus_probe(self):
        # cos(theta) = 1/(1 - 2p_p) puts the probe wholly on the + vector:
        # pp_minus = 0 leaves the diagonal untouched and no coherence
        for theta, p_p in ((0.0, 0.0), (np.pi, 1.0)):
            rho00, rho11, rho10 = qubit.reduced_state_closed_form(
                0.3, theta, p_p, *angle_products(0.9, 0.4))
            assert rho00 == pytest.approx(0.3)
            assert rho11 == pytest.approx(0.7)
            assert rho10 == 0.0

    def test_orthogonal_overlap(self):
        p_s, theta, p_p = 0.2, 0.8, 0.6
        w_plus, w_minus = probe_pm_weights(theta, p_p)
        rho00, _, rho10 = qubit.reduced_state_closed_form(
            p_s, theta, p_p, *angle_products(np.pi / 2.0, 0.0))
        assert abs(rho10) <= 1e-15
        assert rho00 == pytest.approx(p_s * w_plus + (1 - p_s) * w_minus)

    @pytest.mark.parametrize("g2, t", [
        (0.6 - 0.8j, 0.0), (0.0, 1.3), (0.0, np.linspace(0.0, 9.0, 7)),
        (0.6 - 0.8j, np.zeros(3))])
    def test_coherence_exactly_zero_where_ip_perp_is(self, g2, t):
        # at t = 0 and for g2 = 0 the overlap ip_perp is exactly 0, so the
        # cross product 2 ip_perp ip* and rho10 are too, both parts: the
        # kernel needs no rule for beta
        g = QubitCouplings(g1=0.4, g2=g2, g3=0.5, g4=0.7)
        _, (_, _, rho10), (_, ip_perp) = qubit.closed_form_reduced_state(
            g, t, 0.2, 0.6)
        assert np.all(ip_perp == 0.0)
        assert np.all(np.real(rho10) == 0.0) and np.all(np.imag(rho10) == 0.0)

    def test_coherence_exactly_zero_where_ip_is(self):
        # cos 2a = 0 with n_z = 0 makes ip = 0 - 0j; no float time puts
        # cos 2a exactly at 0, so the overlaps are formed from c, s directly
        ip, ip_perp = qubit._square_overlaps(0.0, 1.0, 0.6, 0.8, 0.0)
        assert ip == 0.0 and abs(ip_perp) == 1.0
        _, _, rho10 = qubit.reduced_state_closed_form(
            0.2, 0.9, 0.6, 0.0, 1.0, 2.0 * ip_perp * np.conj(ip))
        assert rho10.real == 0.0 and rho10.imag == 0.0

    def test_unit_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            products = angle_products(rng.uniform(0, np.pi / 2),
                                      rng.uniform(-np.pi, np.pi))
            rho00, rho11, _ = qubit.reduced_state_closed_form(
                rng.uniform(), rng.uniform(0, np.pi), rng.uniform(), *products)
            assert rho00 + rho11 == pytest.approx(1.0, abs=1e-15)

    def test_coherence_magnitude_invariant(self):
        # |rho10| = (1/2)|pp_minus||sin 2a||2p_s - 1| against direct
        # matrix-element extraction
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = rand_couplings(rng)
            t = rng.uniform(0, 10)
            p_s, p_p = rng.uniform(), rng.uniform()
            theta = qubit.probe_mixing_angle(g)
            ang = qubit.overlap_angles(g, t)
            _, _, rho10 = qubit.reduced_state_closed_form(
                p_s, theta, p_p, *angle_products(ang.alpha, ang.beta))
            rho = qubit.conditional_reduced_state(
                g, t, np.diag([1 - p_s, p_s]).astype(complex),
                np.diag([1 - p_p, p_p]).astype(complex))
            up, _ = qubit.conditional_unitaries(g, t)
            elem = np.vdot(up @ KET_EXCITED, rho @ (up @ KET_GROUND))
            assert abs(rho10) == pytest.approx(abs(elem), abs=1e-10)
            _, w_minus = probe_pm_weights(theta, p_p)
            expect = 0.5 * abs(w_minus) * abs(np.sin(2 * ang.alpha)) \
                * abs(2 * p_s - 1)
            assert abs(rho10) == pytest.approx(expect, abs=1e-12)


class TestDecompositionAgainstOracle:
    def test_random_scenarios(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = rand_couplings(rng, scale=2.0)
            t = rng.uniform(0, 10)
            rho_s, rho_p = rand_density(rng, 2), rand_density(rng, 2)
            sc = verify.CompositeScenario(2, 2, oracle_interaction(g),
                                          rho_s, rho_p)
            closed = qubit.conditional_reduced_state(g, t, rho_s, rho_p)
            assert opkit.trace_distance(closed, verify.evolve_full(sc, t)) \
                <= 1e-10

    def test_scalar_form_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            g = rand_couplings(rng, scale=2.0)
            t = rng.uniform(0, 10)
            p_s, p_p = rng.uniform(), rng.uniform()
            sc = verify.CompositeScenario(
                2, 2, oracle_interaction(g),
                np.diag([1 - p_s, p_s]).astype(complex),
                np.diag([1 - p_p, p_p]).astype(complex))
            r, _, (ip, ip_perp) = qubit.closed_form_reduced_state(
                g, t, p_s, p_p)
            oracle = qubit.bloch_vector(verify.evolve_full(sc, t))
            assert 0.5 * np.linalg.norm(r - oracle) <= 1e-10
            assert np.arctan2(np.abs(ip_perp), np.abs(ip)) \
                == qubit.overlap_angles(g, t).alpha


class TestFourImplementationsAtNTwo:
    """The qubit closed form is the scheme's N = 2 case: the N-level Kraus
    channel, the general conditional form, the closed form and the
    brute-force oracle give one reduced state."""

    # The largest |r_i - r_j| over every pair, in units of eps (1 + a),
    # a = r|n|t the conditional rotation angle: these 300 draws read 5.4
    # on diagonal states and 12.4 on general ones, in ~0.25 s.
    BOUND = 32.0

    def test_bloch_vectors_agree(self):
        rng = np.random.default_rng(30)
        eps = np.finfo(float).eps
        worst = {"diagonal": 0.0, "general": 0.0}
        for _ in range(300):
            g = rand_couplings(rng, scale=2.0)
            t = rng.uniform(0.0, 5.0)
            p_s, p_p = rng.uniform(), rng.uniform()
            scale = eps * (1.0 + np.hypot(g.g3, g.g4)
                           * np.hypot(g.g1, abs(g.g2)) * t)
            h = oracle_interaction(g)
            diagonal = (np.diag([1 - p_s, p_s]).astype(complex),
                        np.diag([1 - p_p, p_p]).astype(complex))
            for kind, (rho_s, rho_p) in (
                    ("diagonal", diagonal),
                    ("general", (rand_density(rng, 2), rand_density(rng, 2)))):
                sc = verify.CompositeScenario(2, 2, h, rho_s, rho_p)
                states = [nlevel_qubit_state(g, t, rho_s, rho_p),
                          qubit.conditional_reduced_state(g, t, rho_s, rho_p),
                          verify.evolve_full(sc, t)]
                vectors = [qubit.bloch_vector(rho) for rho in states]
                if kind == "diagonal":
                    vectors.append(
                        qubit.closed_form_reduced_state(g, t, p_s, p_p)[0])
                spread = max(np.linalg.norm(x - y)
                             for x in vectors for y in vectors)
                worst[kind] = max(worst[kind], spread / scale)
        assert max(worst.values()) <= self.BOUND, worst


def matrix_overlaps(u_plus):
    """(ip, ip_perp) read from the matrix square U_+ @ U_+: row |0>,
    conjugated, holds <U_+ k|U_- 0> for k = |1>, |0>."""
    row = (u_plus @ u_plus)[..., 1, :].conj()
    return row[..., 1], row[..., 0]


def matrix_overlap_angles(u_plus):
    """Overlap angles of the matrix square's overlaps."""
    ip, ip_perp = matrix_overlaps(u_plus)
    mag_perp, mag = np.abs(ip_perp), np.abs(ip)
    beta = (np.angle(ip_perp) - np.angle(ip) + np.pi) % (2.0 * np.pi) - np.pi
    beta = np.where(beta <= -np.pi, beta + 2.0 * np.pi, beta)
    beta = np.where((mag == 0.0) | (mag_perp == 0.0), 0.0, beta)
    return OverlapAngles(alpha=np.arctan2(mag_perp, mag), beta=beta)


def matrix_reduced_state(g, t, p_s, p_p):
    """The reduced state assembled as U_+ m U_+^dag from (..., 2, 2) stacks,
    m holding the closed-form entries in the basis (U_+|1>, U_+|0>), their
    inputs the products of the matrix square's overlaps."""
    u_plus, _ = qubit.conditional_unitaries(g, t)
    ip, ip_perp = matrix_overlaps(u_plus)
    rho00, rho11, rho10 = qubit.reduced_state_closed_form(
        p_s, qubit.probe_mixing_angle(g), p_p, np.abs(ip) ** 2,
        np.abs(ip_perp) ** 2, 2.0 * ip_perp * np.conj(ip))
    m = np.stack([np.stack([rho11, rho10], axis=-1),
                  np.stack([np.conj(rho10), rho00], axis=-1)], axis=-2)
    return (u_plus @ m @ opkit.dag(u_plus), (rho00, rho11, rho10),
            (ip, ip_perp))


class TestBlochKernel:
    """The Bloch-vector closed form against the matrix assembly it
    replaced, to rounding."""

    @staticmethod
    def cases(rng):
        # every block of 8 takes scalar and array t with each kind of p_s
        for k in range(160):
            g = rand_couplings(rng, scale=2.0)
            if k // 8 % 5 == 0:   # h_s vanishes: U_+ = I
                g = QubitCouplings(g1=0.0, g2=0.0, g3=g.g3, g4=g.g4)
            t = (rng.uniform(0.0, 50.0) if k % 2 else
                 np.append(rng.uniform(0.0, 50.0, size=63), [0.0, 50.0]))
            p_s = (0.0, 0.5, 1.0, rng.uniform())[k // 2 % 4]
            yield g, t, p_s, rng.uniform()

    def test_matches_matrix_assembly(self):
        rng = np.random.default_rng(14)
        for g, t, p_s, p_p in self.cases(rng):
            r, entries, overlaps = qubit.closed_form_reduced_state(
                g, t, p_s, p_p)
            rho, ref_entries, ref_overlaps = matrix_reduced_state(
                g, t, p_s, p_p)
            assert r.shape == np.shape(t) + (3,)
            # one matrix at a time: the reader takes a single 2x2 state
            ref = [qubit.bloch_vector(m) for m in rho.reshape(-1, 2, 2)]
            np.testing.assert_allclose(r, np.reshape(ref, r.shape),
                                       rtol=0, atol=1e-14)
            for x, y in zip(entries + overlaps, ref_entries + ref_overlaps):
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-14)
            ip, ip_perp = overlaps
            np.testing.assert_array_equal(
                np.arctan2(np.abs(ip_perp), np.abs(ip)),
                qubit.overlap_angles(g, t).alpha)


class TestScalarTime:
    """A float time takes ``math``'s functions and an array numpy's, on the
    same expressions; the two give one state and one pair of overlaps."""

    # The largest difference of r, an entry or an overlap, in units of
    # eps (1 + a), a = r|n|t: 20,000 random draws read 3.07.
    BOUND = 8.0

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(g=st.tuples(*[st.floats(-2.0, 2.0)] * 5),
           axis_free=st.booleans(),
           t=st.just(0.0) | st.floats(0.0, 50.0),
           p_s=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
           p_p=st.floats(0.0, 1.0))
    def test_float_time_matches_array(self, g, axis_free, t, p_s, p_p):
        g1, g2_re, g2_im, g3, g4 = g
        if axis_free:   # n_hat = 0: U_+ = I
            g1 = g2_re = g2_im = 0.0
        if np.hypot(g3, g4) == 0.0:
            g3 = 1.0
        g = QubitCouplings(g1=g1, g2=complex(g2_re, g2_im), g3=g3, g4=g4)
        r, entries, overlaps = qubit.closed_form_reduced_state(g, t, p_s, p_p)
        r_a, entries_a, overlaps_a = qubit.closed_form_reduced_state(
            g, np.array([t]), p_s, p_p)
        assert type(r) is np.ndarray and r.shape == (3,)
        assert [type(x) for x in entries + overlaps] \
            == [float, float, complex, complex, complex]
        a = np.hypot(g3, g4) * np.hypot(g1, abs(g.g2)) * t
        bound = self.BOUND * np.finfo(float).eps * (1.0 + a)
        assert np.max(np.abs(r - r_a[0])) <= bound
        for x, y in zip(entries + overlaps, entries_a + overlaps_a):
            assert abs(x - y[0]) <= bound


def matrix_conditional_reduced_state(g, t, rho_s0, rho_p0):
    """w_+ U_+ rho U_+^dag + w_- U_- rho U_-^dag from 2x2 matrices, w_pm the
    probe's weights on the probe factor's |+>, |-> eigenvectors."""
    plus, minus = probe_pm_vectors(qubit.probe_mixing_angle(g))
    w_plus = float(np.real(np.vdot(plus, rho_p0 @ plus)))
    w_minus = float(np.real(np.vdot(minus, rho_p0 @ minus)))
    u_plus, u_minus = qubit.conditional_unitaries(g, t)
    return (w_plus * u_plus @ rho_s0 @ opkit.dag(u_plus)
            + w_minus * u_minus @ rho_s0 @ opkit.dag(u_minus))


class TestConditionalReducedState:
    """The general reduced state as a weighted pair of Bloch rotations,
    against the matrix form it replaced."""

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(21)
        for k in range(1200):
            g = rand_couplings(rng, scale=2.0)
            if k % 10 == 0:   # h_s vanishes: U_+ = I
                g = QubitCouplings(g1=0.0, g2=0.0, g3=g.g3, g4=g.g4)
            t = rng.uniform(0.0, 50.0)
            rho_s, rho_p = rand_density(rng, 2), rand_density(rng, 2)
            np.testing.assert_allclose(
                qubit.conditional_reduced_state(g, t, rho_s, rho_p),
                matrix_conditional_reduced_state(g, t, rho_s, rho_p),
                rtol=0, atol=1e-14)

    def test_no_unitary_matrices(self, unitary_calls):
        rng = np.random.default_rng(22)
        for _ in range(5):
            qubit.conditional_reduced_state(
                rand_couplings(rng), rng.uniform(0.0, 10.0),
                rand_density(rng, 2), rand_density(rng, 2))
        assert unitary_calls == []

    @pytest.mark.parametrize("side", [0, 1], ids=["system", "probe"])
    @pytest.mark.parametrize("bad, error", [
        (np.eye(3) / 3.0, DimensionError),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), StateError),
        (np.diag([0.6, 0.6]), StateError)],
        ids=["3x3", "non_hermitian", "trace_1.2"])
    def test_invalid_state_raises(self, side, bad, error):
        # these used to reach matmul, or pass unchecked
        g = QubitCouplings(g1=0.3, g2=0.4 - 0.2j, g3=1.0, g4=0.5)
        states = [np.eye(2) / 2.0, np.eye(2) / 2.0]
        states[side] = bad
        with pytest.raises(error):
            qubit.conditional_reduced_state(g, 0.4, *states)


class TestFInvariance:
    def test_reduced_states_related_by_local_unitary(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rand_couplings(rng)
            r = LocalRotation(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            t = rng.uniform(0, 10)
            rho_s, rho_p = rand_density(rng, 2), rand_density(rng, 2)
            f = qubit.local_rotation_matrix(r)
            plain = verify.evolve_full(
                verify.CompositeScenario(2, 2, oracle_interaction(g),
                                         rho_s, rho_p), t)
            gp = qubit.transform_couplings(r, g)
            rotated = verify.evolve_full(
                verify.CompositeScenario(2, 2, oracle_interaction(gp),
                                         f @ rho_s @ f.conj().T, rho_p), t)
            np.testing.assert_allclose(np.linalg.eigvalsh(plain),
                                       np.linalg.eigvalsh(rotated), atol=1e-10)
            assert opkit.trace_distance(f.conj().T @ rotated @ f, plain) \
                <= 1e-10


class TestSpectralForm:
    def test_pure_state(self):
        sf = qubit.spectral_form(1.0, 0.0, 0.0)
        assert (sf.e_plus, sf.e_minus, sf.mixing) == (1.0, 0.0, 0.0)

    def test_maximally_mixed(self):
        sf = qubit.spectral_form(0.5, 0.5, 0.0)
        assert sf.e_plus == pytest.approx(0.5)
        assert sf.e_minus == pytest.approx(0.5)
        assert abs(np.vdot(sf.psi_plus, sf.psi_minus)) <= 1e-10

    def test_equal_superposition(self):
        sf = qubit.spectral_form(0.5, 0.5, 0.5)
        assert sf.e_plus == pytest.approx(1.0)
        assert sf.e_minus == pytest.approx(0.0, abs=1e-12)
        assert sf.mixing == pytest.approx(np.pi / 2.0)

    def test_inconsistent_entries(self):
        with pytest.raises(StateError):
            qubit.spectral_form(0.7, 0.7, 0.0)

    @pytest.mark.parametrize("entries", [
        (0.5, 0.5, float("nan")), (float("nan"), 0.5, 0.0),
        (0.5, float("nan"), 0.0), (0.5, 0.5, complex(0.1, float("nan"))),
        (float("inf"), float("-inf"), 0.0), (0.5, 0.5, float("inf"))],
        ids=["nan_coherence", "nan_rho00", "nan_rho11", "nan_imag",
             "inf_diagonal", "inf_coherence"])
    def test_non_finite_entries_raise(self, entries):
        # NaN passes every "> 1e-10" test, so it is rejected up front
        with pytest.raises(StateError, match="NaN or Inf"):
            qubit.spectral_form(*entries)

    def test_cross_check_against_eig(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = rand_density(rng, 2)
            sf = qubit.spectral_form(float(rho[0, 0].real),
                                     float(rho[1, 1].real),
                                     complex(rho[0, 1]))
            values, _ = opkit.eig_hermitian(rho)
            assert sf.e_minus == pytest.approx(values[0], abs=1e-10)
            assert sf.e_plus == pytest.approx(values[1], abs=1e-10)
            np.testing.assert_allclose(rho @ sf.psi_plus,
                                       sf.e_plus * sf.psi_plus, atol=1e-10)
            np.testing.assert_allclose(rho @ sf.psi_minus,
                                       sf.e_minus * sf.psi_minus, atol=1e-10)
            assert abs(np.vdot(sf.psi_plus, sf.psi_minus)) <= 1e-10
            assert sf.e_plus + sf.e_minus == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("excess", [5e-11, 5e-10])
    def test_trace_check_edge(self, excess):
        # rho00 + rho11 may miss 1 by at most 1e-10
        if excess < 1e-10:
            assert qubit.spectral_form(0.5 + excess, 0.5, 0.0).e_plus \
                == 0.5 + excess
        else:
            with pytest.raises(StateError, match="rho00 \\+ rho11"):
                qubit.spectral_form(0.5 + excess, 0.5, 0.0)

    @pytest.mark.parametrize("d, mixing", [(-0.5e-10, 0.0), (-2e-10, np.pi)])
    def test_root_floor_edge(self, d, mixing):
        # with rho01 = 0 the root is |rho00 - rho11|; below 1e-10 the
        # standard basis is kept, above it the eigenvectors swap
        sf = qubit.spectral_form(0.5 + d / 2.0, 0.5 - d / 2.0, 0.0)
        assert sf.mixing == mixing

    @pytest.mark.parametrize("size, gamma", [(0.5e-10, 0.0),
                                             (2e-10, np.pi / 2.0)])
    def test_coherence_floor_edge(self, size, gamma):
        # gamma = Arg(rho01) only for |rho01| above 1e-10
        sf = qubit.spectral_form(0.5, 0.5, complex(0.0, size))
        assert sf.gamma == gamma


class TestAnalyticConditions:
    def test_alpha_multiple_of_pi_degenerate(self):
        for alpha in (0.0, np.pi, 2.0 * np.pi):
            with pytest.raises(DegenerateConditionError):
                qubit.analytic_conditions(0.3, 0.6, 0.4, alpha)

    def test_theta_right_angle_degenerate(self):
        with pytest.raises(DegenerateConditionError):
            qubit.analytic_conditions(0.3, 0.6, np.pi / 2.0, 1.0)

    def test_simple_reduction(self):
        # p_s = 0, theta = 0, alpha = pi/2 collapses to p_p = q
        for q in (0.1, 0.5, 0.9):
            assert qubit.analytic_conditions(0.0, q, 0.0, np.pi / 2.0) \
                == pytest.approx(q)

    def test_out_of_range_infeasible(self):
        with pytest.raises(InfeasibleError):
            qubit.analytic_conditions(0.0, 5.0, 0.0, np.pi / 2.0)

    @pytest.mark.parametrize("den", [0.5e-12, 2e-12])
    def test_denominator_floor(self, den):
        # p_s = 0, theta = 0: the denominator is sin^2(alpha), the numerator q
        alpha = np.arcsin(np.sqrt(den))
        q = 0.5 * np.sin(alpha) ** 2
        if den < 1e-12:
            with pytest.raises(DegenerateConditionError):
                qubit.analytic_conditions(0.0, q, 0.0, alpha)
        else:
            assert qubit.analytic_conditions(0.0, q, 0.0, alpha) \
                == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("q, p_p", [
        (-0.5e-12, 0.0), (1.0 + 0.5e-12, 1.0), (-2e-12, None),
        (1.0 + 2e-12, None)])
    def test_occupancy_slack(self, q, p_p):
        # p_s = 0, theta = 0, alpha = pi/2 gives p_p = q exactly; within
        # 1e-12 of [0, 1] it is clipped, beyond that infeasible
        if p_p is None:
            with pytest.raises(InfeasibleError):
                qubit.analytic_conditions(0.0, q, 0.0, np.pi / 2.0)
        else:
            assert qubit.analytic_conditions(0.0, q, 0.0, np.pi / 2.0) == p_p

    def test_consistency_with_closed_form(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 50:
            p_s = rng.uniform()
            theta = rng.uniform(0, np.pi)
            alpha = rng.uniform(0, np.pi / 2)
            q = rng.uniform()
            try:
                p_p = qubit.analytic_conditions(p_s, q, theta, alpha)
            except (DegenerateConditionError, InfeasibleError):
                continue
            rho00, _, _ = qubit.reduced_state_closed_form(
                p_s, theta, p_p, *angle_products(alpha, 0.0))
            assert rho00 == pytest.approx(q, abs=1e-8)
            checked += 1


def frame_solve(p_s, target, tol=1e-8):
    """The solver in a general 3-D frame: the axis e_hat x m_hat from
    np.cross, the angle and the branch imbalance from dot products with
    e_hat and m_hat.  Kept as the reference for the z-frame closed form.
    It divides by m0, so m0 = 0 keeps the fixed point t = 0, p_p = 1/2."""
    r_tau = qubit.bloch_vector(opkit.validate_density_matrix(target))
    rad = float(np.linalg.norm(r_tau))
    m0 = abs(1.0 - 2.0 * p_s)
    z = np.array([0.0, 0.0, 1.0])
    e_hat = z if p_s <= 0.5 else -z
    if m0 == 0.0:
        n_hat, t, p_p = np.array([1.0, 0.0, 0.0]), 0.0, 0.5
    else:
        r_aim = r_tau if rad <= m0 else r_tau * (m0 / rad)
        perp = r_aim - np.dot(r_aim, e_hat) * e_hat
        pn = float(np.linalg.norm(perp))
        m_hat = perp / pn if pn > 1e-13 else np.array([1.0, 0.0, 0.0])
        n_hat = np.cross(e_hat, m_hat)
        x = float(np.clip(np.dot(r_aim, e_hat) / m0, -1.0, 1.0))
        phi = float(np.arccos(x))
        sphi = np.sin(phi)
        if sphi > 1e-12:
            u = float(np.clip(np.dot(r_aim, m_hat) / (m0 * sphi), -1.0, 1.0))
        else:
            u = 0.0
        t, p_p = phi / 2.0, (1.0 - u) / 2.0
    g = QubitCouplings(g1=float(n_hat[2]),
                       g2=complex(n_hat[0] - 1j * n_hat[1]), g3=0.0, g4=1.0)
    r, _, (ip, ip_perp) = qubit.closed_form_reduced_state(g, t, p_s, p_p)
    res = 0.5 * float(np.linalg.norm(r - r_tau))
    return qubit.ControlSolution(
        couplings=g, theta=qubit.probe_mixing_angle(g),
        alpha=float(np.arctan2(np.abs(ip_perp), np.abs(ip))),
        p_p=p_p, t=t, residual=res, feasible=res <= tol)


class TestSolver:
    @staticmethod
    def bloch_state(r):
        x, y, z = r
        return 0.5 * np.array([[1.0 + z, complex(x, -y)],
                               [complex(x, y), 1.0 - z]])

    @pytest.mark.parametrize("p_s", [-1e-12, 1.0 + 1e-12, 1.5, np.nan,
                                     np.inf])
    def test_p_s_outside_unit_rejected(self, p_s):
        # diag(1 - p_s, p_s) is not a state: no solution, feasible or not
        with pytest.raises(DomainError,
                           match=rf"^p_s {p_s} outside \[0, 1\]$"):
            qubit.solve_controls_numeric(p_s, [[0.6, 0.1], [0.1, 0.4]])

    @pytest.mark.parametrize("p_s, p_p, name", [
        (1.5, 0.3, "p_s"), (-0.5, 0.3, "p_s"), (np.nan, 0.3, "p_s"),
        (0.3, 1.5, "p_p"), (0.3, -1e-12, "p_p"), (0.3, np.nan, "p_p")])
    def test_closed_form_rejects_probabilities_outside_unit(self, p_s, p_p,
                                                            name):
        g = QubitCouplings(g1=0.4, g2=complex(0.2, -0.3), g3=0.5, g4=0.7)
        with pytest.raises(DomainError, match=rf"^{name} .* outside \[0, 1\]$"):
            qubit.closed_form_reduced_state(g, 1.0, p_s, p_p)

    def test_do_nothing_target(self):
        p_s = 0.25
        target = np.diag([1 - p_s, p_s]).astype(complex)
        sol = qubit.solve_controls_numeric(p_s, target)
        assert sol.t == 0.0
        assert sol.residual <= 1e-12
        assert sol.feasible

    def test_pure_target_from_pure_initial(self):
        rng = np.random.default_rng(16)
        for p_s in (0.0, 1.0):
            for _ in range(5):
                target = qubit_mixed_target(rng, 1.0)
                sol = qubit.solve_controls_numeric(p_s, target)
                assert sol.feasible and sol.residual <= 1e-8
                assert verify.check_solution(sol, p_s, target) <= 1e-8
                # pure targets need no probe mixing: one branch carries
                # all the weight
                assert min(sol.p_p, 1 - sol.p_p) <= 1e-8

    def test_diagonal_target_occupancy(self):
        # from |1>, a diagonal target q on |1> needs branch weight q
        target = np.diag([0.7, 0.3]).astype(complex)
        sol = qubit.solve_controls_numeric(0.0, target)
        assert sol.feasible and sol.residual <= 1e-8
        assert verify.check_solution(sol, 0.0, target) <= 1e-8

    def test_mixed_initial_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p_s = rng.uniform()
            cap = max(p_s, 1 - p_s)
            target = qubit_mixed_target(rng, rng.uniform(0.5, cap))
            sol = qubit.solve_controls_numeric(p_s, target)
            assert sol.feasible and sol.residual <= 1e-8
            assert verify.check_solution(sol, p_s, target) <= 1e-8

    def test_infeasible_flagged(self):
        # leading target eigenvalue above max(p_s, 1-p_s) is unreachable
        target = np.diag([0.95, 0.05]).astype(complex)
        sol = qubit.solve_controls_numeric(0.3, target)
        assert not sol.feasible
        assert sol.residual == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("excess, feasible", [(1e-8, True),
                                                  (4e-8, False)])
    def test_default_tol_edge(self, excess, feasible):
        # a target just outside the reachable radius |z0| = 0.8 is met at
        # residual excess / 2, which the default tol of 1e-8 judges
        r = np.array([0.36, 0.48, 0.8]) * (0.8 + excess)
        sol = qubit.solve_controls_numeric(0.1, self.bloch_state(r))
        assert sol.residual == pytest.approx(excess / 2.0, rel=1e-6)
        assert sol.feasible is feasible

    @pytest.mark.parametrize("r", [(3.79e-5, 0.0, 0.8),
                                   (1e-6, 0.0, 0.8000000000004)])
    def test_near_pole_target_projected(self, r):
        # radius 9.0e-10 and 1.0e-12 above |z0| = 0.8: shrunk onto the ball
        # like any target outside it, not met with cos(phi) clipped to 1
        # (t = 0 and a residual of half the xy-part)
        target = self.bloch_state(r)
        sol = qubit.solve_controls_numeric(0.1, target)
        assert sol.feasible and sol.residual <= 1e-9
        assert sol.t > 0.0
        oracle = verify.check_solution(sol, 0.1, target)
        assert abs(oracle - sol.residual) <= 1e-15

    @staticmethod
    def near_pole_targets():
        """(p_s, Bloch vector) on the ball |r| = |1 - 2p_s| (pushed 2^-50
        outward, so rounding cannot put it inside), then outside it by the
        factor 1 + 1e-6 and by 1.2 (capped at radius 1), at either pole,
        with an xy-part from 1e-2 down to 1e-12 of the radius."""
        for out in (1.0 + 2.0 ** -50, 1.0 + 1e-6, 1.2):
            for p_s in (0.1, 0.3, 0.7):
                m0 = abs(1.0 - 2.0 * p_s)
                m0 *= min(out, 1.0 / m0)
                for k in range(2, 13, 2):
                    s = 10.0 ** -k
                    for pole in (1.0, -1.0):
                        yield p_s, m0 * np.array(
                            [0.6 * s, -0.8 * s, pole * np.sqrt(1.0 - s * s)])

    @pytest.mark.parametrize("p_s, r", [(0.1, (1e-6, 0.0, 0.8000000000004)),
                                        *near_pole_targets()])
    def test_on_ball_target_met_to_rounding(self, p_s, r):
        # met within 1e-12 of the target's own distance to the ball; an
        # angle from acos(r_z / z0) misses by up to 5e-9 near the poles
        target = self.bloch_state(r)
        m0 = abs(1.0 - 2.0 * p_s)
        rad = float(np.linalg.norm(qubit.bloch_vector(target)))
        assert rad >= m0
        sol = qubit.solve_controls_numeric(p_s, target)
        assert sol.residual <= (rad - m0) / 2.0 + 1e-12
        assert verify.check_solution(sol, p_s, target) \
            <= (rad - m0) / 2.0 + 1e-12

    @staticmethod
    def surface_targets():
        """(p_s, Bloch vector) on either side of the ball surface: at one
        height r_z, an xy-part h (1 -/+ 2^-40) for the ball's xy-radius
        h = sqrt(m0^2 - r_z^2) there; then an xy-part of 1e-12 to 1e-6
        (above the 1e-13 floor) at r_z = +/-m0 (1 -/+ 2^-40), either side
        of the slab edge |r_z| = m0."""
        sides = (1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40)
        for p_s in (0.0, 0.1, 0.3, 0.45, 0.7, 1.0):
            m0 = abs(1.0 - 2.0 * p_s)
            for f in (0.0, 0.5, -0.5, 0.99, -0.99, 1.0 - 1e-6, 1e-6 - 1.0):
                r_z = f * m0
                h = np.sqrt((m0 - abs(r_z)) * (m0 + abs(r_z)))
                for k in sides:
                    yield p_s, (0.6 * h * k, -0.8 * h * k, r_z)
            for s in (1e-12, 1e-9, 1e-6):
                for pole in (1.0, -1.0):
                    for k in sides:
                        yield p_s, (0.6 * s, -0.8 * s, pole * m0 * k)

    @pytest.mark.parametrize("p_s, r", surface_targets())
    def test_ball_surface_met_to_rounding(self, p_s, r):
        # inside the ball the target itself is met, outside it the nearest
        # point m0 r/|r|, both to rounding and with 0 <= p_p <= 1
        target = self.bloch_state(r)
        m0 = abs(1.0 - 2.0 * p_s)
        rad = float(np.linalg.norm(qubit.bloch_vector(target)))
        sol = qubit.solve_controls_numeric(p_s, target)
        assert sol.residual <= max(rad - m0, 0.0) / 2.0 + 1e-15
        assert verify.check_solution(sol, p_s, target) \
            <= max(rad - m0, 0.0) / 2.0 + 1e-12
        assert 0.0 <= sol.p_p <= 1.0

    def test_subnormal_xy_part_read_as_zero(self):
        # the subnormal xy-part (1e-323, 1e-323) is below the 1e-13 floor,
        # so it counts as zero along x; divided by its length 1.5e-323 it
        # would give a "unit" direction of length 0.94 and miss by 2.5e-2
        c = 5e-324 - 5e-324j
        sol = qubit.solve_controls_numeric(
            0.1, np.array([[0.65, c], [c.conjugate(), 0.35]]))
        assert sol.feasible and sol.residual <= 1e-16
        assert sol.couplings.g2 == -1.0j

    def test_maximally_mixed_initial(self):
        sol = qubit.solve_controls_numeric(0.5, np.eye(2) / 2.0)
        assert sol.feasible and sol.residual <= 1e-12
        sol = qubit.solve_controls_numeric(0.5, np.diag([0.8, 0.2]))
        assert not sol.feasible

    @pytest.mark.parametrize("k", [0, 1, 90, 91])
    def test_mixed_initial_floor(self, k):
        # m0 = |1 - 2p_s| = k 2^-53, from 0 to ~1e-14: the closed form has
        # no floor under m0; every target but the maximally mixed one lies
        # outside the ball, and the residual is the oracle's distance
        p_s = 0.5 - k * 2.0 ** -54
        for r in ([0.0, 0.0, 0.0], [0.0, 0.0, 0.6], [0.3, 0.0, 0.0],
                  [0.1, -0.2, 0.3], [0.0, 0.0, -1.0]):
            target = self.bloch_state(r)
            sol = qubit.solve_controls_numeric(p_s, target)
            oracle = verify.check_solution(sol, p_s, target)
            assert abs(sol.residual - oracle) <= 1e-15
            assert sol.feasible == (r == [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("r_y, g2", [(1e-13, -1.0j), (2e-13, -1.0)])
    def test_xy_direction_floor(self, r_y, g2):
        # a target's xy-part of length at most 1e-13 is read as the x
        # direction (axis -y, g2 = -i); above it its own direction y sets
        # the axis x, g2 = -1
        sol = qubit.solve_controls_numeric(0.1,
                                           self.bloch_state([0.0, r_y, 0.5]))
        assert sol.couplings.g2 == g2
        assert sol.feasible

    @pytest.mark.parametrize("r_x, t, p_p", [(1e-13, 0.0, 0.5),
                                             (1e-12, 5e-13, 0.0)])
    def test_on_ball_xy_floor(self, r_x, t, p_p):
        # from p_s = 0 the target (r_x, 0, 1) is on the ball: an xy-part at
        # the 1e-13 floor counts as zero, so xy = 0 leaves the pole
        # untouched (u = 0); above it xy = r_x turns by phi = r_x, u = 1
        sol = qubit.solve_controls_numeric(
            0.0, self.bloch_state([r_x, 0.0, 1.0]))
        assert (sol.t, sol.p_p) == (t, p_p)

    @pytest.mark.parametrize("r00, r11, r_x, p_p", [
        (0.75, 0.25 + 2.0 ** -54, 2.0 ** -28, 0.25),
        (0.25 + 2.0 ** -54, 0.75, 2.0 ** -28, 0.25),
        (0.75, 0.25, 1e-17, 0.5), (0.25, 0.75, 1e-17, 0.5)],
        ids=["below_1", "above_-1", "at_1", "at_-1"])
    def test_rotation_angle_ends(self, r00, r11, r_x, p_p):
        # from p_s = 1/4 (z0 = 1/2), r_z / z0 is the double next to 1 or
        # -1, where the ball's xy-radius h = 2^-27 still sets the imbalance
        # u = r_x / h (p_p = 1/4 for u = 1/2), or exactly +/-1, where h = 0
        # and the xy-part below the floor give xy = 0 and u = 0
        sol = qubit.solve_controls_numeric(
            0.25, np.array([[r00, r_x / 2.0], [r_x / 2.0, r11]]))
        assert sol.feasible and sol.residual <= 1e-16
        assert sol.p_p == pytest.approx(p_p, rel=0, abs=1e-8)

    @staticmethod
    def adversarial_targets(rng, count):
        """(p_s, Bloch vector) pairs: interior, boundary radius |1-2p_s|,
        pure initial states, p_s near 1/2, do-nothing and unreachable."""
        def unit():
            v = rng.normal(size=3)
            return v / np.linalg.norm(v)

        for _ in range(count):
            p_s = rng.uniform()
            m0 = abs(1 - 2 * p_s)
            yield p_s, rng.uniform(0, m0) * unit()
            yield p_s, m0 * unit()
            yield p_s, np.array([0.0, 0.0, 1 - 2 * p_s])
            yield float(rng.integers(2)), rng.uniform(0, 1) * unit()
            yield float(rng.integers(2)), unit()
            half = 0.5 + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -2)
            yield half, rng.uniform(0, abs(1 - 2 * half)) * unit()
            yield half, abs(1 - 2 * half) * unit()
            p_s = rng.uniform(0.05, 0.45)
            yield p_s, rng.uniform(1 - 2 * p_s + 1e-6, 1) * unit()

    def test_closed_form_exact_against_oracle(self):
        # the closed form is the whole solver: every geometrically feasible
        # target is met to rounding, every other one is flagged and gets
        # the nearest reachable state, the target shrunk to radius m0
        rng = np.random.default_rng(18)
        for p_s, r in self.adversarial_targets(rng, 40):
            target = self.bloch_state(r)
            m0, rad = abs(1 - 2 * p_s), np.linalg.norm(r)
            sol = qubit.solve_controls_numeric(p_s, target)
            oracle = verify.check_solution(sol, p_s, target)
            assert sol.feasible == (rad <= m0 + 1e-9)
            if sol.feasible:
                assert sol.residual <= 1e-12
                assert oracle <= 1e-8
            else:
                assert sol.residual == pytest.approx((rad - m0) / 2, abs=1e-12)
                assert oracle == pytest.approx(sol.residual, abs=1e-8)

    def test_matches_frame_construction(self):
        # the z-frame closed form against the 3-D frame it replaced:
        # exact where the frame's values are exact, else to rounding
        rng = np.random.default_rng(20)
        for p_s, r in self.adversarial_targets(rng, 40):
            target = self.bloch_state(r)
            sol, ref = (qubit.solve_controls_numeric(p_s, target),
                        frame_solve(p_s, target))
            assert ((sol.feasible, sol.theta, sol.couplings.g1,
                     sol.couplings.g3, sol.couplings.g4)
                    == (ref.feasible, ref.theta, ref.couplings.g1,
                        ref.couplings.g3, ref.couplings.g4))
            for a, b in ((sol.t, ref.t), (sol.p_p, ref.p_p),
                         (sol.alpha, ref.alpha), (sol.residual, ref.residual),
                         (sol.couplings.g2, ref.couplings.g2)):
                assert abs(a - b) <= 1e-14
        # maximally mixed initial state: the frame's own fixed point and
        # the closed form's controls both leave it in place
        target = self.bloch_state([0.1, -0.2, 0.3])
        sol, ref = (qubit.solve_controls_numeric(0.5, target),
                    frame_solve(0.5, target))
        assert sol.feasible == ref.feasible
        assert abs(sol.residual - ref.residual) <= 1e-15

    def test_one_eigendecomposition_per_solve(self, eig_calls):
        # the state, the residual and the reported alpha all come from one
        # closed-form evaluation of U_+, which needs no eigendecomposition
        rng = np.random.default_rng(19)
        cases = list(self.adversarial_targets(rng, 3))
        cases.append((0.5, np.zeros(3)))   # maximally mixed initial state
        for p_s, r in cases:
            target = self.bloch_state(r)
            eig_calls.clear()
            qubit.solve_controls_numeric(p_s, target)
            assert len(eig_calls) == 0

    def test_no_unitary_stack_per_solve(self, unitary_calls):
        # the solve path measures the state by its Bloch vector and never
        # builds U_+ as a matrix
        target = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        for p_s in (0.1, 0.5, 1.0):
            qubit.solve_controls_numeric(p_s, target)
        assert unitary_calls == []

    def test_tol_flags_residual(self):
        target = np.diag([0.95, 0.05]).astype(complex)
        assert not qubit.solve_controls_numeric(0.3, target).feasible
        assert qubit.solve_controls_numeric(0.3, target, tol=0.3).feasible
