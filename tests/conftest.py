"""Shared random-matrix helpers and fixtures for the test suite."""

import numpy as np
import pytest


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


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that gains one entry per ``opkit.eig_hermitian`` call."""
    from iqcontrol import opkit
    calls, eig = [], opkit.eig_hermitian

    def counted(*args, **kwargs):
        calls.append(args)
        return eig(*args, **kwargs)

    monkeypatch.setattr(opkit, "eig_hermitian", counted)
    return calls


@pytest.fixture
def parse_calls(monkeypatch):
    """A list that gains one entry per ``cli._parse_complex`` call."""
    from iqcontrol import cli
    calls, parse = [], cli._parse_complex

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "_parse_complex", counted)
    return calls
