import dataclasses

import numpy as np
import pytest

from conftest import rand_couplings, rand_density, rand_hermitian
from iqcontrol import opkit, qubit, verify
from iqcontrol.errors import DimensionError, StateError


class TestCompositeScenario:
    def test_dimension_mismatch(self):
        rng = np.random.default_rng(50)
        with pytest.raises(DimensionError):
            verify.CompositeScenario(dim_s=2, dim_p=3,
                                     h_full=rand_hermitian(rng, 4),
                                     rho_s0=rand_density(rng, 2),
                                     rho_p0=rand_density(rng, 3))

    @pytest.mark.parametrize("n_s, n_p", [(3, 2), (2, 2), (3, 3)])
    def test_state_dimensions_inconsistent(self, n_s, n_p):
        # h_full matches dim_s * dim_p = 2 * 3, the state sizes do not
        rng = np.random.default_rng(53)
        with pytest.raises(DimensionError, match="initial state dimensions"):
            verify.CompositeScenario(dim_s=2, dim_p=3,
                                     h_full=rand_hermitian(rng, 6),
                                     rho_s0=rand_density(rng, n_s),
                                     rho_p0=rand_density(rng, n_p))

    def test_invalid_state(self):
        rng = np.random.default_rng(51)
        with pytest.raises(StateError):
            verify.CompositeScenario(dim_s=2, dim_p=2,
                                     h_full=rand_hermitian(rng, 4),
                                     rho_s0=np.eye(2, dtype=complex),
                                     rho_p0=rand_density(rng, 2))


class TestEvolveFull:
    def test_zero_time_returns_initial(self):
        rng = np.random.default_rng(52)
        rs, rp = rand_density(rng, 2), rand_density(rng, 3)
        sc = verify.CompositeScenario(dim_s=2, dim_p=3,
                                      h_full=rand_hermitian(rng, 6),
                                      rho_s0=rs, rho_p0=rp)
        np.testing.assert_allclose(verify.evolve_full(sc, 0.0), rs,
                                   atol=1e-12)

    def test_commuting_hamiltonian_leaves_diagonal_fixed(self):
        # H diagonal, states diagonal: nothing moves
        sc = verify.CompositeScenario(
            dim_s=2, dim_p=2,
            h_full=np.diag([1.0, -0.5, 0.3, 2.0]).astype(complex),
            rho_s0=np.diag([0.7, 0.3]).astype(complex),
            rho_p0=np.diag([0.4, 0.6]).astype(complex))
        np.testing.assert_allclose(verify.evolve_full(sc, 3.7),
                                   np.diag([0.7, 0.3]), atol=1e-12)


class TestInteractionFromCouplings:
    def test_hermitian(self):
        h = verify.interaction_from_couplings(0.3, 0.2 - 0.7j, 1.1, -0.4)
        assert opkit.herm_defect(h) <= 1e-14


class TestCheckSolution:
    def test_do_nothing_solution_scores_zero(self):
        sol = qubit.ControlSolution(
            couplings=qubit.QubitCouplings(g1=0.0, g2=0.0, g3=0.0, g4=1.0),
            theta=0.0, alpha=0.0, p_p=0.5, t=0.0, residual=0.0, feasible=True)
        target = np.diag([0.8, 0.2]).astype(complex)
        assert verify.check_solution(sol, 0.2, target) <= 1e-12

    def test_detects_wrong_solution(self):
        sol = qubit.ControlSolution(
            couplings=qubit.QubitCouplings(g1=0.0, g2=0.0, g3=0.0, g4=1.0),
            theta=0.0, alpha=0.0, p_p=0.5, t=0.0, residual=0.0, feasible=True)
        target = np.diag([0.2, 0.8]).astype(complex)
        assert verify.check_solution(sol, 0.2, target) > 0.5

    def test_oracle_cost_by_counts(self, count_calls):
        # one eigendecomposition, of the 4x4 propagator; the two 2x2
        # spectra (the reduced state and the trace distance) are read in
        # closed form, and p_s and p_p are checked as scalars; H is one
        # broadcast product, the product state is never built as a
        # matrix and the probe is traced out by a reshape, so only H, the
        # reduced state and the trace distance's two operands are coerced
        rng = np.random.default_rng(55)
        sol = qubit.ControlSolution(
            couplings=rand_couplings(rng), theta=0.3, alpha=0.4, p_p=0.3,
            t=1.7, residual=0.0, feasible=True)
        eigh = count_calls(np.linalg, "eigh")
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        krons = count_calls(np, "kron")
        coerced = count_calls(opkit, "as_matrix")
        own_krons = count_calls(opkit, "kron")
        traces = count_calls(opkit, "partial_trace_probe")
        verify.check_solution(sol, 0.2, rand_density(rng, 2))
        assert [np.shape(a) for a, *_ in eigh] == [(4, 4)]
        assert eigvalsh == []
        assert krons == [] and own_krons == [] and traces == []
        assert len(coerced) <= 4

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("quiet", [False, True])
    def test_non_finite_time_checked_as_scalar(self, t, quiet):
        # raised before any array arithmetic, so no numpy warning escapes
        # whether or not the caller silences them (the suite makes
        # warnings errors)
        sol = dataclasses.replace(self.probe_solution(0.3), t=t)
        target = np.diag([0.6, 0.4]).astype(complex)
        with np.errstate(all="ignore" if quiet else "warn"), \
                pytest.raises(StateError) as err:
            verify.check_solution(sol, 0.2, target)
        assert str(err.value) == "matrix contains NaN or Inf entries"

    def test_matches_composite_route(self):
        # the product state built in place evolves to the same bits as
        # CompositeScenario + evolve_full, the general-state reference
        rng = np.random.default_rng(56)
        for k in range(200):
            p_s, p_p = rng.uniform(size=2) if k % 4 else rng.choice(
                [0.0, 0.5, 1.0], size=2)
            sol = qubit.ControlSolution(
                couplings=rand_couplings(rng), theta=0.0, alpha=0.0,
                p_p=float(p_p), t=5.0 * rng.uniform(), residual=0.0,
                feasible=True)
            g, target = sol.couplings, rand_density(rng, 2)
            sc = verify.CompositeScenario(
                dim_s=2, dim_p=2,
                h_full=verify.interaction_from_couplings(g.g1, g.g2, g.g3,
                                                         g.g4),
                rho_s0=np.diag([1.0 - p_s, p_s]).astype(complex),
                rho_p0=np.diag([1.0 - p_p, p_p]).astype(complex))
            assert verify.check_solution(sol, float(p_s), target) \
                == opkit.trace_distance(verify.evolve_full(sc, sol.t), target)

    @staticmethod
    def probe_solution(p_p):
        return qubit.ControlSolution(
            couplings=qubit.QubitCouplings(g1=0.0, g2=1.0, g3=0.0, g4=1.0),
            theta=0.0, alpha=0.0, p_p=p_p, t=0.3, residual=0.0,
            feasible=True)

    @pytest.mark.parametrize("p_s, p_p, message", [
        (0.2, 1.5, "density matrix has eigenvalue -5.000e-01 < -1e-10"),
        (0.2, -1e-9, "density matrix has eigenvalue -1.000e-09 < -1e-10"),
        (0.2, np.nan, "matrix contains NaN or Inf entries"),
        (0.2, np.inf, "matrix contains NaN or Inf entries"),
        (0.2, -np.inf, "matrix contains NaN or Inf entries"),
        (1.5, 0.3, "density matrix has eigenvalue -5.000e-01 < -1e-10"),
        (np.nan, 0.3, "matrix contains NaN or Inf entries"),
    ])
    def test_probabilities_checked_as_states(self, p_s, p_p, message):
        # the messages validate_density_matrix gives diag(1 - p, p)
        target = np.diag([0.6, 0.4]).astype(complex)
        with pytest.raises(StateError) as err:
            verify.check_solution(self.probe_solution(p_p), p_s, target)
        assert str(err.value) == message

    # 50-digit decimal values of (1/2)|r - r_target| at these float inputs
    # are 0.224677242098297227 and 0.224677242085526063; the pins are 3.9
    # and 2.2 ulp below them
    @pytest.mark.parametrize("p_p, distance", [
        (-1e-10, 0.22467724209829712),
        (1.0 + 5e-11, 0.224677242085526),
    ])
    def test_probabilities_within_floor_accepted(self, p_p, distance):
        # min(p, 1 - p) at or above PSD_FLOOR passes
        target = np.diag([0.6, 0.4]).astype(complex)
        assert verify.check_solution(self.probe_solution(p_p), 0.2,
                                     target) == distance
