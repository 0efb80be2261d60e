from itertools import combinations

import numpy as np
import pytest

from conftest import (
    forward_reachability_instance,
    rand_density,
    rand_hermitian,
    rand_unitary,
)
from iqcontrol import nlevel, opkit
from iqcontrol.errors import (
    DimensionError,
    HermiticityError,
    ProbabilityError,
)


def enumerated_supports_residual(m, b):
    """Brute-force reference for min |M w - b| over the simplex.

    Solves the KKT system of every one of the 2^N - 1 supports and keeps
    the best feasible point; exponential in N, so only for small N.
    """
    n = m.shape[1]
    best = np.inf
    for size in range(1, n + 1):
        for s in map(list, combinations(range(n), size)):
            ms = m[:, s]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * ms.T @ ms
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([2.0 * ms.T @ b, [1.0]])
            ws = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if np.any(ws < -1e-10):
                continue
            cand = np.zeros(n)
            cand[s] = np.clip(ws, 0.0, None)
            if cand.sum() > 0.0:
                best = min(best, np.linalg.norm(m @ (cand / cand.sum()) - b))
    return best


def einsum_gram(prob):
    """Reference Gram tensor G[beta, gamma, m], as one einsum."""
    c = prob.coefficients
    return np.einsum("j,bjm,gjm->bgm", prob.initial_weights, c, c.conj())


def stacked_reference(prob):
    """Reference form (M, b) of the defect system, from the einsum Gram tensor.

    Rows of M: diag(G_m), then re and im of each beta < gamma entry in row
    order; b holds the target weights, then zeros.
    """
    g, n = einsum_gram(prob), prob.dim
    upper = g[np.triu_indices(n, k=1)]
    m = np.concatenate([np.real(np.diagonal(g)).T,
                        np.hstack([upper.real, upper.imag]).reshape(-1, n)])
    return m, np.concatenate([prob.target_weights, np.zeros(len(m) - n)])


def incompatible_instance(rng, n):
    """One unitary for every probe level and a target purer than p."""
    p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    shift = np.full(n, -0.5 / (n - 1))
    shift[0] = 0.5
    q = np.sort(nlevel.project_simplex(p + shift))[::-1]
    u = rand_unitary(rng, n)
    return nlevel.ReachabilityProblem(initial_weights=p, target_weights=q,
                                      coefficients=np.stack([u] * n, axis=2))


def identical_blocks_instance(rng, n):
    """One unitary for every probe level and a pure target: every column of
    the defect matrix is the same vector, so the hull is a single point
    away from the origin and its columns are affinely dependent."""
    p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    q = np.zeros(n)
    q[0] = 1.0
    u = rand_unitary(rng, n)
    return nlevel.ReachabilityProblem(initial_weights=p, target_weights=q,
                                      coefficients=np.stack([u] * n, axis=2))


def random_target_instance(rng, n):
    """Random blocks and a random target: generally unreachable, with the
    optimum on a face of the simplex."""
    prob, _ = forward_reachability_instance(rng, n)
    return nlevel.ReachabilityProblem(
        initial_weights=prob.initial_weights,
        target_weights=rng.dirichlet(np.ones(n)),
        coefficients=prob.coefficients)


def assert_simplex(w, n):
    assert w.shape == (n,)
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12


def factorized_propagator(h, t):
    """Assemble sum_M exp(-i E_M h_s t) (x) |M><M| by hand."""
    total = np.zeros((h.dim ** 2, h.dim ** 2), dtype=complex)
    for m in range(h.dim):
        vec = h.probe_vectors[:, m]
        proj = np.outer(vec, vec.conj())
        u_m = opkit.expm_i_hermitian(h.h_s, float(h.probe_values[m]) * t)
        total += opkit.kron(u_m, proj)
    return total


def random_decomposition(rng, n):
    h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                  h_p=rand_hermitian(rng, n))
    return nlevel.conditional_decomposition(h, 1.0)


def loop_kraus_operators(ch):
    """Per-operator reference for the stacked Kraus operators."""
    return [np.sqrt(w) * u
            for w, u in zip(ch.weights, ch.decomposition.unitaries)]


def loop_apply_channel(ch, rho):
    """Per-operator Kraus sum, the reference for the Schur-multiplier
    channel."""
    out = np.zeros_like(rho)
    for k in loop_kraus_operators(ch):
        out += k @ rho @ opkit.dag(k)
    return out


def comprehension_offdiag(value):
    """Reference order of the off-diagonal sums: beta-major, beta != gamma."""
    n = value.shape[0]
    return [complex(value[b, c]) for b in range(n) for c in range(n) if b != c]


class TestProductHamiltonian:
    def test_eigensystem_stored(self):
        rng = np.random.default_rng(20)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 3),
                                      h_p=rand_hermitian(rng, 3))
        hp = h.h_p
        np.testing.assert_allclose(
            (h.probe_vectors * h.probe_values) @ h.probe_vectors.conj().T,
            hp, atol=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(21)
        with pytest.raises(DimensionError):
            nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 2),
                                      h_p=rand_hermitian(rng, 3))

    def test_non_hermitian(self):
        with pytest.raises(HermiticityError):
            nlevel.ProductHamiltonian(
                h_s=np.array([[0, 1], [0, 0]], dtype=complex),
                h_p=np.eye(2, dtype=complex))


class TestConditionalDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_factorization_identity(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                          h_p=rand_hermitian(rng, n))
            t = rng.uniform(0.0, 5.0)
            full = opkit.expm_i_hermitian(opkit.kron(h.h_s, h.h_p), t)
            assert np.max(np.abs(factorized_propagator(h, t) - full)) <= 1e-10

    def test_unitaries_are_unitary(self):
        rng = np.random.default_rng(22)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 3),
                                      h_p=rand_hermitian(rng, 3))
        decomp = nlevel.conditional_decomposition(h, 1.3)
        for u in decomp.unitaries:
            np.testing.assert_allclose(opkit.dag(u) @ u, np.eye(3),
                                       atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_one_eigendecomposition_per_decomposition(self, n, eig_calls):
        # all N conditional unitaries come from one eigendecomposition of
        # h_s, and have the bytes of one expm per probe energy
        rng = np.random.default_rng(23 + n)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                      h_p=rand_hermitian(rng, n))
        t = rng.uniform(0.0, 5.0)
        eig_calls.clear()
        decomp = nlevel.conditional_decomposition(h, t)
        assert len(eig_calls) == 1
        assert len(decomp.unitaries) == n
        for e, u in zip(h.probe_values, decomp.unitaries):
            np.testing.assert_array_equal(
                u, opkit.expm_i_hermitian(h.h_s, float(e) * t))


    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_unitaries_are_one_stack(self, n):
        rng = np.random.default_rng(24 + n)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                      h_p=rand_hermitian(rng, n))
        decomp = nlevel.conditional_decomposition(h, 0.7)
        assert isinstance(decomp.unitaries, np.ndarray)
        assert decomp.unitaries.shape == (n, n, n)


class TestKrausChannel:
    def test_completeness(self):
        rng = np.random.default_rng(23)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 3),
                                      h_p=rand_hermitian(rng, 3))
        decomp = nlevel.conditional_decomposition(h, 0.8)
        ch = nlevel.kraus_from_probe(decomp, rand_density(rng, 3))
        total = sum(opkit.dag(k) @ k for k in ch.kraus_operators())
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)

    def test_channel_matches_full_evolution(self):
        rng = np.random.default_rng(24)
        for n in (2, 3, 4):
            h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                          h_p=rand_hermitian(rng, n))
            t = rng.uniform(0.0, 4.0)
            rho_s = rand_density(rng, n)
            rho_p = rand_density(rng, n)
            decomp = nlevel.conditional_decomposition(h, t)
            out = nlevel.apply_channel(nlevel.kraus_from_probe(decomp, rho_p),
                                       rho_s)
            u = opkit.expm_i_hermitian(opkit.kron(h.h_s, h.h_p), t)
            oracle = opkit.partial_trace_probe(
                u @ opkit.kron(rho_s, rho_p) @ opkit.dag(u), n, n)
            np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_probe_coherence_irrelevant(self):
        # Off-diagonal probe terms in the eigenbasis never reach the
        # reduced dynamics, so scrubbing them changes nothing.
        rng = np.random.default_rng(25)
        n = 3
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                      h_p=rand_hermitian(rng, n))
        t = 1.7
        rho_s = rand_density(rng, n)
        rho_p = rand_density(rng, n)
        v = h.probe_vectors
        diag_only = v @ np.diag(np.diag(opkit.dag(v) @ rho_p @ v)) @ opkit.dag(v)
        decomp = nlevel.conditional_decomposition(h, t)
        out_a = nlevel.apply_channel(nlevel.kraus_from_probe(decomp, rho_p),
                                     rho_s)
        out_b = nlevel.apply_channel(nlevel.kraus_from_probe(decomp, diag_only),
                                     rho_s)
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)

    def test_output_is_density_matrix(self):
        rng = np.random.default_rng(26)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 4),
                                      h_p=rand_hermitian(rng, 4))
        decomp = nlevel.conditional_decomposition(h, 2.2)
        ch = nlevel.kraus_from_probe(decomp, rand_density(rng, 4))
        out = nlevel.apply_channel(ch, rand_density(rng, 4))
        opkit.validate_density_matrix(out, herm_tol=1e-10)

    def test_probe_state_dimension_mismatch(self):
        rng = np.random.default_rng(27)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 3),
                                      h_p=rand_hermitian(rng, 3))
        decomp = nlevel.conditional_decomposition(h, 0.5)
        with pytest.raises(DimensionError, match="probe state dim 2"):
            nlevel.kraus_from_probe(decomp, rand_density(rng, 2))

    def test_system_state_dimension_mismatch(self):
        rng = np.random.default_rng(28)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 3),
                                      h_p=rand_hermitian(rng, 3))
        decomp = nlevel.conditional_decomposition(h, 0.5)
        ch = nlevel.kraus_from_probe(decomp, rand_density(rng, 3))
        with pytest.raises(DimensionError, match="^state dim 2 != channel dim 3"):
            nlevel.apply_channel(ch, rand_density(rng, 2))

    def test_bad_weights_raise(self):
        decomp = random_decomposition(np.random.default_rng(29), 2)
        with pytest.raises(ProbabilityError):
            nlevel.KrausChannel(weights=np.array([0.7, 0.7]),
                                decomposition=decomp)

    @pytest.mark.parametrize("n", [*range(1, 9), 16, 32, 64])
    def test_stack_matches_loop_reference(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(5):
            h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                          h_p=rand_hermitian(rng, n))
            decomp = nlevel.conditional_decomposition(h, rng.uniform(0.0, 5.0))
            ch = nlevel.kraus_from_probe(decomp, rand_density(rng, n))
            rho = rand_density(rng, n)
            k = ch.kraus_operators()
            assert k.shape == (n, n, n)
            assert np.max(np.abs(k - loop_kraus_operators(ch))) <= 1e-14
            assert np.max(np.abs(nlevel.apply_channel(ch, rho)
                                 - loop_apply_channel(ch, rho))) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    def test_eigenbasis_populations_invariant(self, n):
        # the channel only dephases h_s's eigenbasis
        rng = np.random.default_rng(720 + n)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                      h_p=rand_hermitian(rng, n))
        decomp = nlevel.conditional_decomposition(h, rng.uniform(0.0, 5.0))
        ch = nlevel.kraus_from_probe(decomp, rand_density(rng, n))
        rho = rand_density(rng, n)
        v = opkit.eig_hermitian(h.h_s)[1]
        out = nlevel.apply_channel(ch, rho)
        assert np.max(np.abs(np.diagonal(opkit.dag(v) @ out @ v)
                             - np.diagonal(opkit.dag(v) @ rho @ v))) <= 1e-14

    def test_channel_cost_by_counts(self, count_calls):
        # one eigendecomposition, of h_s; no propagator stack and no Kraus
        # operators between the decomposition and the channel's output
        rng = np.random.default_rng(730)
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 4),
                                      h_p=rand_hermitian(rng, 4))
        rho_p, rho_s = rand_density(rng, 4), rand_density(rng, 4)
        eigh = count_calls(np.linalg, "eigh")
        expms = count_calls(opkit, "expm_i_hermitian")
        krauses = count_calls(nlevel.KrausChannel, "kraus_operators")
        decomp = nlevel.conditional_decomposition(h, 0.9)
        nlevel.apply_channel(nlevel.kraus_from_probe(decomp, rho_p), rho_s)
        assert [np.shape(a) for a, *_ in eigh] == [(4, 4)]
        assert expms == [] and krauses == []

    @pytest.mark.parametrize("weights,levels,match", [
        ([0.5, 0.5], 1, "^2 channel weights for 1 probe levels$"),
        ([1.0], 2, "^1 channel weights for 2 probe levels$"),
    ], ids=["too_few", "too_many"])
    def test_stack_shape_errors(self, weights, levels, match):
        decomp = random_decomposition(np.random.default_rng(31), levels)
        with pytest.raises(DimensionError, match=match):
            nlevel.KrausChannel(weights=np.array(weights),
                                decomposition=decomp)

    def test_sum_tolerance_edge(self):
        # the weights may miss a unit sum by 1e-12
        decomp = random_decomposition(np.random.default_rng(33), 2)
        nlevel.KrausChannel(weights=np.array([0.5, 0.5 + 5e-13]),
                            decomposition=decomp)
        with pytest.raises(ProbabilityError, match="are not a distribution"):
            nlevel.KrausChannel(weights=np.array([0.5, 0.5 + 5e-11]),
                                decomposition=decomp)

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0],
                                         [np.inf, -np.inf]])
    def test_nan_weights_raise(self, weights):
        decomp = random_decomposition(np.random.default_rng(32), 2)
        with pytest.raises(ProbabilityError, match="are not a distribution"):
            nlevel.KrausChannel(weights=np.array(weights),
                                decomposition=decomp)


class TestExpansionCoefficients:
    def test_unit_columns(self):
        rng = np.random.default_rng(32)
        h_s = rand_hermitian(rng, 3)
        c = nlevel.expansion_coefficients(h_s, [0.3, -1.1, 2.0], 1.4, 0.6)
        norms = np.sum(np.abs(c) ** 2, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_against_direct_overlap(self):
        rng = np.random.default_rng(33)
        h_s = rand_hermitian(rng, 3)
        energies = np.array([0.5, -0.2, 1.7])
        t, ref = 0.9, 2.1
        c = nlevel.expansion_coefficients(h_s, energies, t, ref)
        w_ref = opkit.expm_i_hermitian(h_s, ref)
        for m, e in enumerate(energies):
            u = opkit.expm_i_hermitian(h_s, float(e) * t)
            for a in range(3):
                for j in range(3):
                    assert abs(c[a, j, m]
                               - np.vdot(w_ref[:, a], u[:, j])) <= 1e-12

    def test_one_eigendecomposition_per_coefficient_set(self, eig_calls):
        # one propagator stack, with the reference time folded into it
        rng = np.random.default_rng(34)
        for n in (2, 4, 6):
            eig_calls.clear()
            c = nlevel.expansion_coefficients(rand_hermitian(rng, n),
                                              rng.normal(size=n), 0.9, 2.1)
            assert c.shape == (n, n, n)
            assert len(eig_calls) == 1


class TestProjectSimplex:
    def test_already_feasible(self):
        w = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(nlevel.project_simplex(w), w, atol=1e-14)

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            v = rng.normal(scale=3.0, size=rng.integers(2, 7))
            w = nlevel.project_simplex(v)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_is_nearest_point(self):
        # compare against a dense random scan of the simplex
        rng = np.random.default_rng(35)
        v = np.array([0.9, -0.4, 0.6])
        w = nlevel.project_simplex(v)
        d_opt = np.linalg.norm(w - v)
        for _ in range(2000):
            cand = rng.dirichlet(np.ones(3))
            assert np.linalg.norm(cand - v) >= d_opt - 1e-9

    @pytest.mark.parametrize("v", [[], [np.nan, 0.5], [np.inf, 0.0],
                                   [0.2, -np.inf]])
    def test_empty_or_non_finite_rejected(self, v):
        with pytest.raises(ProbabilityError, match="onto the simplex"):
            nlevel.project_simplex(v)


class TestReachability:
    def test_residual_zero_at_construction_point(self):
        rng = np.random.default_rng(36)
        for n in (2, 3):
            prob, w_star = forward_reachability_instance(rng, n)
            diag, off = nlevel.reachability_residual(prob, w_star)
            assert np.max(np.abs(diag)) <= 1e-12
            assert max(abs(x) for x in off) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_offdiag_order_matches_comprehension(self, n):
        rng = np.random.default_rng(750 + n)
        prob, _ = forward_reachability_instance(rng, n)
        w = rng.dirichlet(np.ones(n))
        diag, off = nlevel.reachability_residual(prob, w)
        ref = np.array(comprehension_offdiag(einsum_gram(prob) @ w))
        assert diag.shape == (n,)
        # the residual rebuilds rho by its own product, so it matches the
        # einsum reference to roundoff; entries lie far further apart than
        # that, so any other order fails
        gaps = np.abs(ref[:, None] - ref[None, :])[~np.eye(ref.size, dtype=bool)]
        assert np.all(gaps > 1e-12)
        np.testing.assert_allclose(off, ref, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 32])
    def test_gram_tensor_matches_einsum(self, n):
        # the residual's rho = C diag(p (x) w) C^dag is G w for the einsum G
        rng = np.random.default_rng(760 + n)
        prob = random_target_instance(rng, n)
        w = rng.dirichlet(np.ones(n))
        diag, off = nlevel.reachability_residual(prob, w)
        value = einsum_gram(prob) @ w
        assert value.shape == (n, n)
        assert np.max(np.abs(diag - prob.target_weights
                             + np.real(np.diagonal(value)))) <= 1e-15
        assert np.max(np.abs(off - value[~np.eye(n, dtype=bool)]),
                      initial=0.0) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 32])
    def test_defect_matrix_matches_stacked_system(self, n):
        # A = M - b 1^T, row for row
        rng = np.random.default_rng(770 + n)
        prob = random_target_instance(rng, n)
        m, b = stacked_reference(prob)
        a = nlevel._defect_matrix(prob)
        assert a.shape == (n * n, n)
        assert np.max(np.abs(a - (m - b[:, None]))) <= 1e-15

    def test_solver_recovers_feasible_point(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 12, 16, 32, 64):
            for _ in range(5 if n < 12 else 2):
                prob, _ = forward_reachability_instance(rng, n)
                w, res = nlevel.solve_probe_spectrum(prob)
                assert res <= 1e-8
                assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-10

    def test_incompatible_spectrum_has_large_residual(self):
        # A single-energy decomposition is unitary, so the output spectrum
        # must equal the input spectrum; a gap forces a large defect.
        rng = np.random.default_rng(38)
        n = 3
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([1.0, 0.0, 0.0])
        u = rand_unitary(rng, n)
        c = np.stack([u] * n, axis=2)
        prob = nlevel.ReachabilityProblem(initial_weights=p, target_weights=q,
                                          coefficients=c)
        _, res = nlevel.solve_probe_spectrum(prob)
        assert res > 1e-3

    def test_invalid_weights_raise(self):
        c = np.stack([np.eye(2, dtype=complex)] * 2, axis=2)
        with pytest.raises(ProbabilityError):
            nlevel.ReachabilityProblem(initial_weights=np.array([0.9, 0.9]),
                                       target_weights=np.array([0.5, 0.5]),
                                       coefficients=c)

    def test_distribution_tolerance_edge(self):
        # the weights may miss a unit sum by 1e-10
        c = np.stack([np.eye(2, dtype=complex)] * 2, axis=2)
        q = np.array([0.5, 0.5])
        nlevel.ReachabilityProblem(np.array([0.5, 0.5 + 0.5e-10]), q, c)
        with pytest.raises(ProbabilityError, match="initial weights"):
            nlevel.ReachabilityProblem(np.array([0.5, 0.5 + 2e-10]), q, c)

    def test_column_norm_tolerance_edge(self):
        # a squared column norm may miss 1 by 1e-10
        q = np.array([0.5, 0.5])
        c = np.stack([np.eye(2, dtype=complex)] * 2, axis=2)
        nlevel.ReachabilityProblem(q, q, np.sqrt(1.0 + 5e-11) * c)
        with pytest.raises(ProbabilityError, match="not unit norm"):
            nlevel.ReachabilityProblem(q, q, np.sqrt(1.0 + 5e-10) * c)

    @pytest.mark.parametrize("q", [[1.0], [0.5, 0.25, 0.25]])
    def test_target_weights_length_mismatch_raises(self, q):
        c = np.stack([np.eye(2, dtype=complex)] * 2, axis=2)
        with pytest.raises(DimensionError):
            nlevel.ReachabilityProblem(initial_weights=np.array([0.6, 0.4]),
                                       target_weights=np.array(q),
                                       coefficients=c)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3, 2), (3, 3, 3)])
    def test_coefficient_shape_mismatch_raises(self, shape):
        with pytest.raises(DimensionError, match="coefficient tensor shape"):
            nlevel.ReachabilityProblem(initial_weights=np.array([0.6, 0.4]),
                                       target_weights=np.array([0.5, 0.5]),
                                       coefficients=np.ones(shape))

    def test_non_unit_columns_raise(self):
        c = np.stack([2.0 * np.eye(2, dtype=complex)] * 2, axis=2)
        with pytest.raises(ProbabilityError):
            nlevel.ReachabilityProblem(initial_weights=np.array([0.5, 0.5]),
                                       target_weights=np.array([0.5, 0.5]),
                                       coefficients=c)

    @pytest.mark.parametrize("w", [[1.0], [0.2, 0.3, 0.5]])
    def test_candidate_size_mismatch_raises(self, w):
        rng = np.random.default_rng(38)
        prob, _ = forward_reachability_instance(rng, 2)
        with pytest.raises(DimensionError, match="expected 2"):
            nlevel.reachability_residual(prob, np.array(w))

    @pytest.mark.parametrize("field", ["initial_weights", "target_weights"])
    def test_nan_weights_raise(self, field):
        kwargs = dict(initial_weights=np.array([0.5, 0.5]),
                      target_weights=np.array([0.5, 0.5]),
                      coefficients=np.stack([np.eye(2, dtype=complex)] * 2,
                                            axis=2))
        kwargs[field] = np.array([np.nan, np.nan])
        with pytest.raises(ProbabilityError, match="weights are not a"):
            nlevel.ReachabilityProblem(**kwargs)

    def test_nan_coefficients_raise(self):
        c = np.stack([np.eye(2, dtype=complex)] * 2, axis=2)
        c[0, 1, 0] = np.nan
        with pytest.raises(ProbabilityError, match="not unit norm"):
            nlevel.ReachabilityProblem(initial_weights=np.array([0.5, 0.5]),
                                       target_weights=np.array([0.5, 0.5]),
                                       coefficients=c)

    @pytest.mark.parametrize("w", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_nan_candidate_raises(self, w):
        rng = np.random.default_rng(39)
        prob, _ = forward_reachability_instance(rng, 2)
        with pytest.raises(ProbabilityError, match="not a probability vector"):
            nlevel.reachability_residual(prob, np.array(w))

    @pytest.mark.parametrize("w, ok", [
        ([-1e-12, 1.0 + 1e-12], True), ([-2e-12, 1.0 + 2e-12], False),
        ([0.5, 0.5 + 5e-11], True), ([0.5, 0.5 + 5e-10], False)],
        ids=["entry_at_floor", "entry_below_floor", "sum_inside",
             "sum_outside"])
    def test_candidate_tolerance_edges(self, w, ok):
        # a candidate entry may reach -1e-12 and its sum may miss 1 by 1e-10
        prob, _ = forward_reachability_instance(np.random.default_rng(39), 2)
        if ok:
            nlevel.reachability_residual(prob, np.array(w))
        else:
            with pytest.raises(ProbabilityError,
                               match="not a probability vector"):
                nlevel.reachability_residual(prob, np.array(w))

    def test_candidate_outside_simplex_raises(self):
        rng = np.random.default_rng(39)
        prob, _ = forward_reachability_instance(rng, 2)
        with pytest.raises(ProbabilityError):
            nlevel.reachability_residual(prob, np.array([0.8, 0.8]))


class TestMinNormSolver:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_support_enumeration(self, n):
        rng = np.random.default_rng(400 + n)
        probs = [forward_reachability_instance(rng, n)[0],
                 incompatible_instance(rng, n),
                 random_target_instance(rng, n),
                 random_target_instance(rng, n)]
        for prob in probs:
            w, res = nlevel.solve_probe_spectrum(prob)
            assert_simplex(w, n)
            reference = enumerated_supports_residual(*stacked_reference(prob))
            assert res <= reference + 1e-12

    def test_min_norm_point_of_point_clouds(self):
        # Low-dimensional clouds with more points than dimensions and
        # repeated points exercise the drop steps of the minor cycles and
        # affinely dependent active sets.
        rng = np.random.default_rng(41)
        for k in range(60):
            d, n = 2 + k % 3, 4 + k % 5
            pts = rng.normal(size=(d, n)) + rng.normal(size=(d, 1)) * (k % 4)
            if k % 5 == 0:
                pts[:, 1:3] = pts[:, :1]
            w = nlevel._min_norm_point(pts)
            assert_simplex(w, n)
            reference = enumerated_supports_residual(pts, np.zeros(d))
            assert np.linalg.norm(pts @ w) <= reference + 1e-12

    def test_tie_ends_the_walk(self):
        # Cloud k = 21 of test_min_norm_point_of_point_clouds.  The origin
        # lies inside the triangle of columns 0, 2, 3; once x is there to
        # rounding, column 4 still looks improving, the minor cycle drops it
        # again and y == x bit for bit.  Only the ">=" of "y @ y >= x @ x"
        # ends the walk then; with ">" it never ends.
        pts = np.array([
            [0.33436394500396815, -0.9533377786634875, -1.6270862487162168,
             -0.2552887348875013, 0.7430353340465827],
            [0.771568788256428, 1.618155112180969, 0.15864281978318295,
             -0.9864193804000527, 2.3472808718940987]])
        w = nlevel._min_norm_point(pts)
        support = [0, 2, 3]
        expected = np.zeros(5)
        expected[support] = np.linalg.solve(
            np.vstack([pts[:, support], np.ones(3)]), [0.0, 0.0, 1.0])
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-14)
        assert np.linalg.norm(pts @ w) <= 1e-15

    def test_two_drop_steps_in_one_minor_cycle(self):
        # This cloud's walk drops two columns in one minor cycle, so the
        # weights mu_s must stay aligned with s after the first drop.
        pts = np.random.default_rng(83).normal(size=(4, 7))
        w = nlevel._min_norm_point(pts)
        assert_simplex(w, 7)
        reference = enumerated_supports_residual(pts, np.zeros(4))
        assert np.linalg.norm(pts @ w) <= reference + 1e-12

    # Integer points whose least-squares weights and dot products are exact,
    # so the walk's thresholds are met with equality.
    FACE = [[0.0, 1.0, -1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]

    def test_zero_start_weight_starts_from_every_column(self, count_calls):
        # The affine hull's least-norm point (0, 1, 0) has weight exactly 0
        # on column 0; it still lies in the hull, so the start takes it.
        calls = count_calls(np.linalg, "lstsq")
        w = nlevel._min_norm_point(np.array(self.FACE))
        assert len(calls) == 1 and w[0] == 0.0
        np.testing.assert_allclose(w, [0.0, 0.5, 0.5], rtol=0, atol=1e-15)

    def test_zero_weight_in_a_minor_cycle_is_kept(self):
        # Column 3 puts the origin in the affine hull but not in the hull, so
        # the walk runs and its last minor cycle meets weights (0, 1/2, 1/2)
        # with nothing negative to drop.
        pts = np.hstack([self.FACE, [[0.0], [5.0], [0.0]]])
        w = nlevel._min_norm_point(pts)
        np.testing.assert_allclose(w, [0.0, 0.5, 0.5, 0.0], rtol=0,
                                   atol=1e-15)

    def test_no_descent_ends_the_walk(self, count_calls):
        # Collinear columns (affinely dependent): the walk starts at column
        # 2, and column 0 ties it, a_0 . x == |x|^2, so no cycle runs.
        calls = count_calls(np.linalg, "lstsq")
        w = nlevel._min_norm_point(np.array([[1.0, 1.0, 1.0],
                                             [1.0, -1.0, 0.0]]))
        assert len(calls) == 1
        assert w.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_identical_blocks_rank_deficient(self, n):
        prob = identical_blocks_instance(np.random.default_rng(600 + n), n)
        w, res = nlevel.solve_probe_spectrum(prob)
        assert_simplex(w, n)
        assert res > 1e-3

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_forward_instance_takes_one_least_squares_solve(self, n,
                                                           count_calls):
        # A full-support feasible point: the affine hull's least-norm point
        # already has weights >= 0, so the walk starts and ends there.
        prob, _ = forward_reachability_instance(
            np.random.default_rng(800 + n), n)
        calls = count_calls(np.linalg, "lstsq")
        w, res = nlevel.solve_probe_spectrum(prob)
        assert len(calls) == 1
        assert_simplex(w, n)
        assert res <= 1e-14

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_identical_blocks_keep_the_vertex_walk(self, n, count_calls):
        # Affinely dependent columns: the walk starts at the least-norm
        # column of R and the first major cycle ends it there.
        prob = identical_blocks_instance(np.random.default_rng(600 + n), n)
        r = np.linalg.qr(nlevel._defect_matrix(prob), mode="r")
        vertex = np.zeros(n)
        vertex[np.argmin(np.einsum("ij,ij->j", r, r))] = 1.0
        calls = count_calls(np.linalg, "lstsq")
        w, _ = nlevel.solve_probe_spectrum(prob)
        assert len(calls) == 1
        assert w.tobytes() == vertex.tobytes()

    def test_duplicated_column_keeps_the_vertex_walk(self):
        # n + 1 columns of rank n - 1 whose affine least-norm point has
        # weights >= 0: only the rank condition keeps the copy of column 1
        # out of the start, so it ends with weight 0.
        n = 4
        prob, _ = forward_reachability_instance(np.random.default_rng(n), n)
        r = np.linalg.qr(nlevel._defect_matrix(prob), mode="r")
        pts = np.hstack([r, r[:, 1:2]])
        mu, rank = nlevel._affine_min(pts)
        assert rank == n - 1 and np.all(mu >= 0.0) and mu[-1] > 0.1
        w = nlevel._min_norm_point(pts)
        assert w[-1] == 0.0
        assert_simplex(w, n + 1)
        assert np.linalg.norm(pts @ w) <= 1e-14

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_random_target_walks(self, n, count_calls):
        # Optimum on a face (2, 4 and 4 levels of support): the start
        # fails its weight test and the walk goes on from a vertex.
        prob = random_target_instance(np.random.default_rng(710 + n), n)
        calls = count_calls(np.linalg, "lstsq")
        w, res = nlevel.solve_probe_spectrum(prob)
        assert len(calls) > 1 and np.count_nonzero(w) < n
        assert_simplex(w, n)
        reference = enumerated_supports_residual(*stacked_reference(prob))
        assert res <= reference + 1e-12

    @pytest.mark.parametrize("n", [10, 16, 24])
    @pytest.mark.parametrize("make", [
        lambda rng, n: forward_reachability_instance(rng, n)[0],
        identical_blocks_instance,
        random_target_instance,
    ], ids=["forward", "identical_blocks", "random_target"])
    def test_optimality_certificate(self, n, make):
        # Wolfe's termination test: x = A w is the least-norm point of the
        # hull iff min_j a_j^T x >= |x|^2.  Checked past support
        # enumeration's reach.
        prob = make(np.random.default_rng(900 + n), n)
        w, _ = nlevel.solve_probe_spectrum(prob)
        a = nlevel._defect_matrix(prob)
        x = a @ w
        gap = x @ x - np.min(a.T @ x)
        assert gap <= 1e-12 * np.max(np.einsum("ij,ij->j", a, a))

    def test_reruns_bitwise_identical(self):
        rng = np.random.default_rng(42)
        for prob in (forward_reachability_instance(rng, 6)[0],
                     random_target_instance(rng, 6)):
            w_a, res_a = nlevel.solve_probe_spectrum(prob)
            w_b, res_b = nlevel.solve_probe_spectrum(prob)
            assert w_a.tobytes() == w_b.tobytes()
            assert res_a == res_b
