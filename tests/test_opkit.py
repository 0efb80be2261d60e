import numpy as np
import pytest

from conftest import rand_density, rand_hermitian, rand_unitary
from iqcontrol import opkit
from iqcontrol.errors import DimensionError, HermiticityError, StateError

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(opkit.kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(opkit.kron(SZ, SZ),
                                   np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_sigma_plus_pair(self):
        # hand expansion of |row 0, col 3| = 1, everything else 0
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1.0
        np.testing.assert_allclose(opkit.kron(sp, sp), expected)

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(StateError):
            opkit.kron(bad, I2)

    def test_matches_np_kron_bytes(self):
        # one complex product per entry, as np.kron makes it: the bytes
        # agree, signed zeros and overflow to inf included
        rng = np.random.default_rng(60)
        special = np.array([-0.0, 0.0, 1e308, -1e308, 1.0, -1.0])
        for na in range(1, 5):
            for nb in range(1, 5):
                for _ in range(10):
                    a = (rng.normal(size=(na, na))
                         + 1j * rng.normal(size=(na, na)))
                    b = (rng.normal(size=(nb, nb))
                         + 1j * rng.normal(size=(nb, nb)))
                    for m in (a, b):
                        mask = rng.random(m.shape) < 0.4
                        m[mask] = (rng.choice(special, mask.sum())
                                   + 1j * rng.choice(special, mask.sum()))
                    with np.errstate(over="ignore", invalid="ignore"):
                        got, want = opkit.kron(a, b), np.kron(a, b)
                    assert got.shape == (na * nb, na * nb)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(0.0, np.nan),
                                       complex(1.0, -np.inf)])
    def test_rejects_non_finite_either_factor(self, entry):
        # a complex entry is finite only if both of its parts are
        bad = np.eye(2, dtype=complex)
        bad[1, 0] = entry
        for a, b in ((bad, I2), (I2, bad)):
            with pytest.raises(StateError):
                opkit.kron(a, b)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), ()])
    def test_rejects_non_square(self, shape):
        bad = np.ones(shape, dtype=complex)
        for a, b in ((bad, I2), (I2, bad)):
            with pytest.raises(DimensionError):
                opkit.kron(a, b)


def contraction_oracle(rho, dim_s, dim_p):
    """Double-loop partial trace, independent of the reshape-based path."""
    out = np.zeros((dim_s, dim_s), dtype=complex)
    for i in range(dim_s):
        for j in range(dim_s):
            for m in range(dim_p):
                out[i, j] += rho[i * dim_p + m, j * dim_p + m]
    return out


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        rs, rp = rand_density(rng, 2), rand_density(rng, 3)
        np.testing.assert_allclose(
            opkit.partial_trace_probe(opkit.kron(rs, rp), 2, 3), rs,
            atol=1e-14)

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(opkit.partial_trace_probe(rho, 2, 2),
                                   np.eye(2) / 2.0, atol=1e-14)

    def test_matches_contraction_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rand_unitary(rng, 4)
            rho = u @ rand_density(rng, 4) @ u.conj().T
            np.testing.assert_allclose(opkit.partial_trace_probe(rho, 2, 2),
                                       contraction_oracle(rho, 2, 2),
                                       atol=1e-13)

    def test_kron_trace_identity(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            opkit.partial_trace_probe(opkit.kron(a, b), 3, 2),
            a * np.trace(b), atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(10)
        rho = rand_density(rng, 6)
        reduced = opkit.partial_trace_probe(rho, 2, 3)
        assert abs(np.trace(reduced) - np.trace(rho)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            opkit.partial_trace_probe(np.eye(4), 2, 3)

    @pytest.mark.parametrize("dim_s, dim_p", [(1, 3), (3, 1)])
    def test_dimension_one_traced(self, dim_s, dim_p):
        # 1 is the smallest factor allowed: a trivial system or probe
        rho = rand_density(np.random.default_rng(11), 3)
        np.testing.assert_allclose(
            opkit.partial_trace_probe(rho, dim_s, dim_p),
            contraction_oracle(rho, dim_s, dim_p), atol=1e-15)

    @pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 0), (4, 0)])
    def test_dimensions_below_one_rejected(self, dims):
        # (-2, -2) multiplies to 4, which used to reach numpy's reshape
        with pytest.raises(DimensionError, match="does not split"):
            opkit.partial_trace_probe(np.eye(4) / 4, *dims)


class TestEigHermitian:
    def test_diagonal(self):
        values, _ = opkit.eig_hermitian(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(values, [1.0, 2.0])

    def test_sigma_x(self):
        values, vectors = opkit.eig_hermitian(SX)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [s, s], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [s, s], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        h = rand_hermitian(rng, dim)
        values, vectors = opkit.eig_hermitian(h)
        np.testing.assert_allclose(
            (vectors * values) @ vectors.conj().T, h, atol=1e-10)
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(dim),
                                   atol=1e-10)
        assert np.all(np.diff(values) >= -1e-12)

    def test_non_hermitian_raises(self):
        with pytest.raises(HermiticityError):
            opkit.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestRequireHermitian:
    def test_tolerance_edge(self):
        # HERM_TOL = 1e-10 on the largest entry of a - a^dag
        near = np.array([[0.0, 0.5e-10], [0.0, 0.0]], dtype=complex)
        np.testing.assert_array_equal(opkit.require_hermitian(near), near)
        # a defect of exactly HERM_TOL passes
        tie = np.array([[0.5, 1e-10], [0.0, 0.5]], dtype=complex)
        np.testing.assert_array_equal(opkit.require_hermitian(tie), tie)
        with pytest.raises(HermiticityError, match="defect 2.000e-10"):
            opkit.require_hermitian(np.array([[0.0, 2e-10], [0.0, 0.0]]))


class TestExpm:
    def test_zero_time(self):
        rng = np.random.default_rng(12)
        np.testing.assert_allclose(
            opkit.expm_i_hermitian(rand_hermitian(rng, 3), 0.0), np.eye(3),
            atol=1e-12)

    def test_diagonal(self):
        t = 0.37
        np.testing.assert_allclose(
            opkit.expm_i_hermitian(SZ, t),
            np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-14)

    def test_sigma_x_quarter_turn(self):
        # exp(-i theta sx) = cos(theta) I - i sin(theta) sx at theta = pi/2
        np.testing.assert_allclose(opkit.expm_i_hermitian(SX, np.pi / 2.0),
                                   -1j * SX, atol=1e-14)

    def test_unitarity_and_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = rand_hermitian(rng, 4)
            t = rng.uniform(0, 10)
            u = opkit.expm_i_hermitian(h, t)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
            np.testing.assert_allclose(u @ opkit.expm_i_hermitian(h, -t),
                                       np.eye(4), atol=1e-10)

    def test_non_hermitian_raises(self):
        with pytest.raises(HermiticityError):
            opkit.expm_i_hermitian(np.array([[0, 1], [0, 0]]), 1.0)

    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_independent_of_eigenvector_phases(self, n):
        # V exp(-i Lambda t) V^dag is the same whatever phase each column of
        # V carries, so the propagator needs no phase convention
        rng = np.random.default_rng(70 + n)
        h = rand_hermitian(rng, n)
        values, vectors = opkit.eig_hermitian(h)
        spun = vectors * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        for t in (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0, size=5)):
            phases = np.exp(np.multiply.outer(t, -1j * values))[..., None, :]
            got = opkit.expm_i_hermitian(h, t)
            for v in (vectors, spun):
                np.testing.assert_allclose(got, (v * phases) @ v.conj().T,
                                           rtol=0, atol=1e-14)


class TestTraceDistance:
    def test_identical(self):
        rng = np.random.default_rng(14)
        rho = rand_density(rng, 3)
        assert opkit.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert opkit.trace_distance(np.diag([1.0, 0.0]),
                                    np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_pure_vs_maximally_mixed(self):
        # eigenvalues of the difference are +/- 1/2
        assert opkit.trace_distance(np.diag([1.0, 0.0]), np.eye(2) / 2.0) \
            == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            opkit.trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_one_matrix_only(self):
        stack = np.stack([np.eye(2) / 2] * 3)
        with pytest.raises(DimensionError):
            opkit.trace_distance(stack, np.eye(2) / 2)
        with pytest.raises(DimensionError):
            opkit.validate_density_matrix(stack)


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        rng = np.random.default_rng(15)
        opkit.validate_density_matrix(rand_density(rng, 4))

    def test_rejects_trace(self):
        with pytest.raises(StateError):
            opkit.validate_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateError):
            opkit.validate_density_matrix(
                np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(StateError):
            opkit.validate_density_matrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("excess", [0.5e-12, 2e-12, -0.5e-12, -2e-12])
    def test_trace_tolerance_edge(self, excess):
        # TRACE_TOL = 1e-12 on |tr - 1|
        rho = np.diag([0.5 + excess, 0.5])
        if abs(excess) < 1e-12:
            assert opkit.validate_density_matrix(rho) is not None
        else:
            with pytest.raises(StateError, match="trace"):
                opkit.validate_density_matrix(rho)

    @pytest.mark.parametrize("defect", [0.5e-12, 2e-12])
    def test_hermiticity_tolerance_edge(self, defect):
        # by default the Hermiticity defect is held to TRACE_TOL as well
        rho = np.array([[0.5, 0.1 + defect], [0.1, 0.5]])
        if defect < 1e-12:
            assert opkit.validate_density_matrix(rho) is not None
        else:
            with pytest.raises(StateError, match="not Hermitian"):
                opkit.validate_density_matrix(rho)
