"""Shared random-matrix helpers and fixtures for the test suite."""

import signal

import numpy as np
import pytest

# Above acceptance criterion 5's 60 s budget, so only a runaway test trips it.
TEST_TIME_LIMIT_S = 120

# Basis kets of a qubit in the package's {|1>, |0>} ordering.
KET_EXCITED = np.array([1.0, 0.0], dtype=complex)   # |1>
KET_GROUND = np.array([0.0, 1.0], dtype=complex)    # |0>


def rand_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def rand_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m)


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rand_pure(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def rand_couplings(rng, scale=1.0):
    from iqcontrol.qubit import QubitCouplings
    while True:
        g = scale * rng.uniform(-1.0, 1.0, size=5)
        if g[3] ** 2 + g[4] ** 2 > 1e-6:
            return QubitCouplings(g1=g[0], g2=complex(g[1], g[2]),
                                  g3=g[3], g4=g[4])


def qubit_mixed_target(rng, q):
    """q |v><v| + (1-q) |v_perp><v_perp| for a random pure v."""
    v = rand_pure(rng, 2)
    vp = np.array([-np.conj(v[1]), np.conj(v[0])])
    return (q * np.outer(v, v.conj())
            + (1.0 - q) * np.outer(vp, vp.conj()))


def nlevel_qubit_state(g, t, rho_s, rho_p):
    """The reduced qubit state through the N-level path at N = 2: the
    interaction (g1 sz + g2 s+ + g2* s-) (x) (g3 px + g4 pz) as a
    ``ProductHamiltonian``, its conditional decomposition at time t, the
    probe's Kraus channel, applied to rho_s."""
    from iqcontrol import nlevel
    h = nlevel.ProductHamiltonian(
        h_s=np.array([[g.g1, g.g2], [np.conj(g.g2), -g.g1]]),
        h_p=np.array([[g.g4, g.g3], [g.g3, -g.g4]], dtype=complex))
    decomp = nlevel.conditional_decomposition(h, t)
    return nlevel.apply_channel(nlevel.kraus_from_probe(decomp, rho_p), rho_s)


def forward_reachability_instance(rng, n):
    """A reachability problem with a known exactly-feasible probe diagonal.

    Random unitary coefficient blocks are rotated into the eigenbasis of
    the reduced state they produce at a chosen probe diagonal w*, so both
    residual families vanish at w* by construction.
    """
    from iqcontrol import opkit
    from iqcontrol.nlevel import ReachabilityProblem
    p = rng.dirichlet(np.ones(n))
    w_star = rng.dirichlet(np.ones(n))
    blocks = [rand_unitary(rng, n) for _ in range(n)]
    rho = sum(w * b @ np.diag(p).astype(complex) @ b.conj().T
              for w, b in zip(w_star, blocks))
    vals, vecs = opkit.eig_hermitian(rho)
    q = vals[::-1].copy()
    basis = vecs[:, ::-1]
    c = np.stack([basis.conj().T @ b for b in blocks], axis=2)
    prob = ReachabilityProblem(initial_weights=p, target_weights=q,
                               coefficients=c)
    return prob, w_star


@pytest.fixture(autouse=True)
def wall_clock_limit():
    """Fail any test that runs longer than TEST_TIME_LIMIT_S, so a loop that
    never ends fails its test instead of hanging the suite."""
    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` for the test by
    a wrapper that calls through, and returns a list that gains the
    positional arguments of each call."""
    def count(owner, name):
        calls, func = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count


@pytest.fixture
def eig_calls(count_calls):
    """One entry per ``np.linalg.eigh`` call: every eigendecomposition,
    the ones made outside ``opkit.eig_hermitian`` included."""
    return count_calls(np.linalg, "eigh")


@pytest.fixture
def parse_calls(count_calls):
    """One entry per ``cli._parse_complex`` call."""
    from iqcontrol import cli
    return count_calls(cli, "_parse_complex")


@pytest.fixture
def unitary_calls(count_calls):
    """One entry per ``qubit.conditional_unitaries`` call."""
    from iqcontrol import qubit
    return count_calls(qubit, "conditional_unitaries")
