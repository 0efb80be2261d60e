import numpy as np
import pytest

from conftest import rand_couplings, rand_density, qubit_mixed_target
from iqcontrol import opkit, qubit, verify
from iqcontrol.errors import (
    DegenerateConditionError,
    DegenerateProbeError,
    InfeasibleError,
    StateError,
)
from iqcontrol.qubit import (
    LocalRotation,
    OverlapAngles,
    QubitCouplings,
)


class TestBuildInteraction:
    def test_diagonal_paulis(self):
        g = QubitCouplings(g1=1.0, g2=0.0, g3=0.0, g4=1.0)
        np.testing.assert_allclose(qubit.build_interaction(g),
                                   np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_zero_system_factor(self):
        g = QubitCouplings(g1=0.0, g2=0.0, g3=1.0, g4=0.0)
        np.testing.assert_allclose(qubit.build_interaction(g),
                                   np.zeros((4, 4)))

    def test_sigma_x_pair(self):
        g = QubitCouplings(g1=0.0, g2=1.0, g3=1.0, g4=0.0)
        np.testing.assert_allclose(qubit.build_interaction(g),
                                   np.kron(qubit.SIGMA_X, qubit.SIGMA_X))

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h = qubit.build_interaction(rand_couplings(rng))
            assert opkit.herm_defect(h) <= 1e-12

    def test_degenerate_probe_rejected(self):
        with pytest.raises(DegenerateProbeError):
            QubitCouplings(g1=1.0, g2=1.0, g3=0.0, g4=0.0)


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
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rand_couplings(rng)
            r = LocalRotation(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            gp = qubit.transform_couplings(r, g)
            f = qubit.local_rotation_matrix(r)
            big_f = np.kron(f, np.eye(2))
            np.testing.assert_allclose(
                qubit.build_interaction(gp),
                big_f @ qubit.build_interaction(g) @ big_f.conj().T,
                atol=1e-10)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(2)
        g = rand_couplings(rng)
        r = LocalRotation(1.1, 0.7)
        gp = qubit.transform_couplings(r, g)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(qubit.build_interaction(g)),
            np.linalg.eigvalsh(qubit.build_interaction(gp)), atol=1e-10)


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
            plus, minus = qubit.probe_pm_vectors(theta)
            hp = qubit.probe_factor(g)
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

    def test_alpha_reproducible_from_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rand_couplings(rng)
            t = rng.uniform(0, 10)
            ang = qubit.overlap_angles(g, t)
            up, um = qubit.conditional_unitaries(g, t)
            ov = np.vdot(up @ qubit.KET_GROUND, um @ qubit.KET_GROUND)
            assert np.cos(ang.alpha) == pytest.approx(abs(ov), abs=1e-10)


class TestPMComponents:
    def test_theta_zero_pure(self):
        pm = qubit.pm_components(0.0, 0.0)
        assert (pm.pp_plus, pm.pp_minus, pm.pm_cross) == (1.0, 0.0, 0.0)

    def test_theta_right_angle(self):
        pm = qubit.pm_components(np.pi / 2.0, 0.3)
        assert pm.pp_plus == pytest.approx(0.5)
        assert pm.pp_minus == pytest.approx(0.5)
        assert pm.pm_cross == pytest.approx(0.2)

    def test_balanced_probe_no_cross(self):
        for theta in (0.3, 1.1, 2.9):
            assert qubit.pm_components(theta, 0.5).pm_cross \
                == pytest.approx(0.0, abs=1e-15)

    def test_normalization(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pm = qubit.pm_components(rng.uniform(0, np.pi), rng.uniform())
            assert pm.pp_plus + pm.pp_minus == pytest.approx(1.0, abs=1e-12)


class TestReducedStateClosedForm:
    def test_balanced_system_no_coherence(self):
        ang = OverlapAngles(alpha=0.7, beta=1.1)
        _, _, rho10 = qubit.reduced_state_closed_form(0.5, 1.2, 0.3, ang)
        assert rho10 == 0.0

    def test_pure_plus_probe(self):
        # pp_minus = 0 leaves the diagonal untouched
        ang = OverlapAngles(alpha=0.9, beta=0.4)
        rho00, rho11, rho10 = qubit.reduced_state_closed_form(0.3, 0.0, 0.0, ang)
        assert rho00 == pytest.approx(0.3)
        assert rho11 == pytest.approx(0.7)
        assert rho10 == 0.0

    def test_orthogonal_overlap(self):
        ang = OverlapAngles(alpha=np.pi / 2.0, beta=0.0)
        p_s, theta, p_p = 0.2, 0.8, 0.6
        pm = qubit.pm_components(theta, p_p)
        rho00, _, rho10 = qubit.reduced_state_closed_form(p_s, theta, p_p, ang)
        assert abs(rho10) <= 1e-15
        assert rho00 == pytest.approx(p_s * pm.pp_plus + (1 - p_s) * pm.pp_minus)

    def test_unit_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ang = OverlapAngles(alpha=rng.uniform(0, np.pi / 2),
                                beta=rng.uniform(-np.pi, np.pi))
            rho00, rho11, _ = qubit.reduced_state_closed_form(
                rng.uniform(), rng.uniform(0, np.pi), rng.uniform(), ang)
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
            _, _, rho10 = qubit.reduced_state_closed_form(p_s, theta, p_p, ang)
            rho = qubit.conditional_reduced_state(
                g, t, np.diag([1 - p_s, p_s]).astype(complex),
                np.diag([1 - p_p, p_p]).astype(complex))
            up, _ = qubit.conditional_unitaries(g, t)
            elem = np.vdot(up @ qubit.KET_EXCITED, rho @ (up @ qubit.KET_GROUND))
            assert abs(rho10) == pytest.approx(abs(elem), abs=1e-10)
            pm = qubit.pm_components(theta, p_p)
            expect = 0.5 * abs(pm.pp_minus) * abs(np.sin(2 * ang.alpha)) \
                * abs(2 * p_s - 1)
            assert abs(rho10) == pytest.approx(expect, abs=1e-12)


class TestDecompositionAgainstOracle:
    def test_random_scenarios(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = rand_couplings(rng, scale=2.0)
            t = rng.uniform(0, 10)
            rho_s, rho_p = rand_density(rng, 2), rand_density(rng, 2)
            sc = verify.CompositeScenario(2, 2, qubit.build_interaction(g),
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
                2, 2, qubit.build_interaction(g),
                np.diag([1 - p_s, p_s]).astype(complex),
                np.diag([1 - p_p, p_p]).astype(complex))
            closed = qubit.closed_form_reduced_state(g, t, p_s, p_p)
            assert opkit.trace_distance(closed, verify.evolve_full(sc, t)) \
                <= 1e-10


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
                verify.CompositeScenario(2, 2, qubit.build_interaction(g),
                                         rho_s, rho_p), t)
            gp = qubit.transform_couplings(r, g)
            rotated = verify.evolve_full(
                verify.CompositeScenario(2, 2, qubit.build_interaction(gp),
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
                p_s, theta, p_p, OverlapAngles(alpha=alpha, beta=0.0))
            assert rho00 == pytest.approx(q, abs=1e-8)
            checked += 1


class TestZeroCoherenceCondition:
    def test_satisfied_cases(self):
        assert qubit.zero_coherence_condition(0.0, 0.0, 0.0)
        assert qubit.zero_coherence_condition(np.pi, 1.0, np.pi)

    def test_violations(self):
        assert not qubit.zero_coherence_condition(0.1, 0.0, 0.0)
        assert not qubit.zero_coherence_condition(0.0, 0.3, 0.0)
        assert not qubit.zero_coherence_condition(0.0, 0.0, 0.3)
        assert not qubit.zero_coherence_condition(0.0, 0.5, 0.0)


class TestSolver:
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

    def test_maximally_mixed_initial(self):
        sol = qubit.solve_controls_numeric(0.5, np.eye(2) / 2.0)
        assert sol.feasible and sol.residual <= 1e-12
        sol = qubit.solve_controls_numeric(0.5, np.diag([0.8, 0.2]))
        assert not sol.feasible

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
            target = 0.5 * (np.eye(2) + r[0] * qubit.SIGMA_X
                            + r[1] * qubit.SIGMA_Y + r[2] * qubit.SIGMA_Z)
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
