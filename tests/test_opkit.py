from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


class TestRequirePsd:
    # the one floor check: validate_density_matrix, the simulate rows and
    # the oracle's scalar probabilities all go through it
    def test_accepts_exactly_the_floor(self):
        assert opkit.require_psd(opkit.PSD_FLOOR) is None

    def test_accepts_nan(self):
        # a NaN state is left to the caller's finiteness check
        assert opkit.require_psd(np.nan) is None
        assert opkit.require_psd(np.float64("nan")) is None

    @pytest.mark.parametrize("lowest", [
        np.nextafter(opkit.PSD_FLOOR, -np.inf),
        float(np.nextafter(opkit.PSD_FLOOR, -np.inf))])
    def test_rejects_one_ulp_below_the_floor(self, lowest):
        with pytest.raises(StateError) as err:
            opkit.require_psd(lowest)
        assert str(err.value) \
            == "density matrix has eigenvalue -1.000e-10 < -1e-10"


def reference_validate(rho, herm_tol=opkit.TRACE_TOL):
    """``validate_density_matrix`` with every spectrum from LAPACK and the
    defect from ``np.abs``."""
    m = opkit.as_matrix(rho)
    d = float(np.abs(m - opkit.dag(m)).max())
    if d > herm_tol:
        raise StateError(f"density matrix not Hermitian (defect {d:.3e})")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > opkit.TRACE_TOL:
        raise StateError(f"density matrix trace {tr} differs from 1")
    lowest = np.linalg.eigvalsh(0.5 * (m + opkit.dag(m)))[0]
    if lowest < opkit.PSD_FLOOR:
        raise StateError(f"density matrix has eigenvalue {lowest:.3e} "
                         f"< {opkit.PSD_FLOOR:.0e}")
    return m


def outcome(validate, rho, herm_tol):
    try:
        return validate(rho, herm_tol=herm_tol).tobytes()
    except StateError as exc:
        return str(exc)


def exact_spectrum(h):
    """Ascending eigenvalues of a Hermitian 2x2 float matrix, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, d = Decimal(h[0, 0].real), Decimal(h[1, 1].real)
        re, im = Decimal(h[0, 1].real), Decimal(h[0, 1].imag)
        mean = (a + d) / 2
        radius = (((a - d) / 2) ** 2 + re * re + im * im).sqrt()
        return mean - radius, mean + radius


def ulps_off(got, exact, m):
    """|got - exact| in units of eps max|entry of m|, to 50 digits; a few
    subnormal spacings of absolute error, from gradual underflow, are
    forgiven."""
    with localcontext() as ctx:
        ctx.prec = 50
        tiny = 4 * Decimal(np.finfo(float).smallest_subnormal)
        unit = Decimal(np.finfo(float).eps) * Decimal(np.abs(m).max())
        error = max(abs(Decimal(got) - exact) - tiny, 0)
        return error / unit if unit else error


UNIT = st.floats(-1.0, 1.0)
FLOOR = opkit.PSD_FLOOR
SPECTRA = {
    "random": st.tuples(UNIT, UNIT),
    "pure": st.just((0.0, 1.0)),
    "degenerate": UNIT.map(lambda x: (x, x)),
    "floor_low": st.just((FLOOR, 1.0 - FLOOR)),
    "floor_high": st.just((-FLOOR, 1.0 + FLOOR)),
}


@st.composite
def near_hermitian(draw, spectrum):
    """U diag(spectrum) U^dag (or the diagonal itself) times 10^k, k in
    [-150, 150], made exactly Hermitian, left as rounded, or given a
    non-Hermitian part of up to HERM_TOL times the scale."""
    lam = np.array(draw(spectrum))
    if draw(st.booleans()):
        m = np.diag(lam).astype(complex)
    else:
        half, phi = draw(st.floats(0.0, np.pi / 2)), draw(st.floats(0.0, 7.0))
        c, s = np.cos(half), np.exp(1j * phi) * np.sin(half)
        u = np.array([[c, -s.conjugate()], [s, c]])
        m = (u * lam) @ u.conj().T
    scale = 10.0 ** draw(st.integers(-150, 150))
    m = scale * m
    kind = draw(st.sampled_from(["hermitian", "rounded", "defect"]))
    if kind == "hermitian":
        m = 0.5 * (m + opkit.dag(m))
    elif kind == "defect":
        e = np.array(draw(st.lists(UNIT, min_size=8, max_size=8)))
        e = (e[:4] + 1j * e[4:]).reshape(2, 2)
        m = m + (0.5 * opkit.HERM_TOL * scale) * e
    return m


@pytest.mark.parametrize("name", sorted(SPECTRA))
@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_closed_form_spectrum(name, data):
    # the closed form is within 2 eps max|entry| of the exact spectrum
    # of the Hermitian part (1.74 is the worst seen over 60k draws);
    # LAPACK's own error reached 6.5 eps max|entry| there, so the two
    # are held to 8
    m = data.draw(near_hermitian(SPECTRA[name]))
    defect, trace, evals = opkit._hermitian_spectrum(m)
    assert defect == opkit.herm_defect(m)
    assert trace == complex(np.trace(m))
    h = 0.5 * (m + opkit.dag(m))
    assert all(ulps_off(x, y, m) <= 2
               for x, y in zip(evals, exact_spectrum(h)))
    assert all(ulps_off(x, Decimal(y), m) <= 8
               for x, y in zip(evals, np.linalg.eigvalsh(h)))
    assert evals[0] <= evals[1]


@pytest.mark.parametrize("name", sorted(SPECTRA))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_closed_form_trace_distance(name, data):
    a = data.draw(near_hermitian(SPECTRA[name]))
    b = data.draw(near_hermitian(SPECTRA[name]))
    h = 0.5 * ((a - b) + opkit.dag(a - b))
    got = opkit.trace_distance(a, b)
    lo, hi = exact_spectrum(h)
    assert ulps_off(got, (abs(lo) + abs(hi)) / 2, a - b) <= 2
    lapack = 0.5 * np.abs(np.linalg.eigvalsh(h)).sum()
    assert ulps_off(got, Decimal(lapack), a - b) <= 8


class TestClosedFormSpectrum:
    """The 2x2 closed form against the LAPACK path it replaces."""

    def test_larger_matrices_use_lapack(self, count_calls):
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        rho = rand_density(np.random.default_rng(16), 3)
        defect, trace, evals = opkit._hermitian_spectrum(rho)
        assert [np.shape(a) for a, *_ in eigvalsh] == [(3, 3)]
        assert (defect, trace) == (opkit.herm_defect(rho),
                                   complex(np.trace(rho)))

    # targets a solve config can carry: malformed in each check, at and
    # beside each tolerance, and the valid ones of the CLI's malformed
    # configs
    TARGETS = [
        [[0.5, 0.1 + 2e-10], [0.1, 0.5]],
        [[0.5, 0.1 + 5e-11], [0.1, 0.5]],
        [[0.5, 0.1 + 2e-12], [0.1, 0.5]],
        [[0.5 + 1e-9j, 0.0], [0.0, 0.5]],
        [[0.5 + 2e-12, 0.0], [0.0, 0.5]],
        [[0.5 - 0.5e-12, 0.0], [0.0, 0.5]],
        [[1.5, 0.0], [0.0, -0.5]],
        [[1.0 + 1e-9, 0.0], [0.0, -1e-9]],
        [[1.0 + 5e-11, 0.0], [0.0, -5e-11]],
        [[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]],
        [[0.5, 0.5j], [-0.5j, 0.5]],
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.25, 0.1 + 0.05j], [0.1 - 0.05j, 0.75]],
        [[0.5, np.nan], [np.nan, 0.5]],
        [[1e150, 0.0], [0.0, 1.0 - 1e150]],
    ]

    def test_validate_messages_unchanged(self):
        from test_cli import TestMalformedConfigs
        from iqcontrol import cli
        targets = [np.array(t, dtype=complex) for t in self.TARGETS] + [
            cli._parse_matrix(doc["target"], "config.target")
            for doc in TestMalformedConfigs.CASES.values() if "target" in doc]
        assert len(targets) > len(self.TARGETS)
        for rho in targets:
            for herm_tol in (opkit.TRACE_TOL, 1e-10):
                assert outcome(opkit.validate_density_matrix, rho, herm_tol) \
                    == outcome(reference_validate, rho, herm_tol)
