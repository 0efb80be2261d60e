"""Seeded config generators for the four benchmark workloads.

Every workload has a fixed shape (how many configs, how many rows or grid
points or levels each has); the seed only draws the physical parameters.
So runs with different seeds do the same amount of work, and their
timings can be compared as repeats of one measurement.

A generator returns a list of ``Config`` records: the JSON document the
program receives, the number of work items it stands for, and whether it
was built to be feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Why each workload was chosen: the layers it stresses and what it costs.
WHY = {
    "simulate_rows": (
        "qubit and opkit heavy: each row does 3 expms and 5 eigensolves "
        "(~0.45 ms per row), so kernel batching shows here and cli is ~5%."),
    "sweep_grid": (
        "qubit scalar closed form without opkit (~15 us per point); cli row "
        "building and CSV formatting take ~60%, capping any kernel gain."),
    "small_configs": (
        "per-config overhead: ~3.6 ms per solve, over half in cli.main; the "
        "only workload that exercises the verify oracle and thermal."),
    "reach_ladder": (
        "the only nlevel workload: 10k projected-descent steps per call plus "
        "2^N support enumeration (~0.65 s at N=12); qubit and opkit idle."),
}

# Items are rows, grid points, configs and problems respectively.
ITEM_UNIT = {"simulate_rows": "rows", "sweep_grid": "points",
             "small_configs": "configs", "reach_ladder": "problems"}

# Row counts of the 20 simulate configs (6850 rows per pass).
SIMULATE_ROWS = (100, 100, 100, 120, 120, 140, 140, 160, 160, 180,
                 200, 220, 250, 280, 320, 360, 400, 500, 1000, 2000)

# Axis counts of the 30 sweep configs (1 to 3 axes, 100 to 20000 points,
# 121556 points per pass).
SWEEP_SHAPES = (
    (100,), (150,), (12, 12), (250,), (20, 15), (400,), (8, 8, 8),
    (25, 24), (800,), (10, 10, 10), (40, 25), (40, 30), (1500,), (50, 40),
    (2500,), (15, 15, 12), (3000,), (60, 50), (60, 60), (4000,),
    (20, 20, 12), (5000,), (25, 20, 10), (80, 75), (7000,), (20, 20, 20),
    (100, 100), (12000,), (15000,), (20000,))

# Solve target classes and how many configs each gets; 200 thermal configs
# ride along, half in each input form.
SOLVE_CLASSES = (("interior", 300), ("boundary", 150), ("pure", 150),
                 ("near_half", 150), ("do_nothing", 100), ("purer", 150))
THERMAL_PER_FORM = 100

# Levels of the reach problems: REACH_FEASIBLE_EACH forward-feasible
# instances per entry of REACH_FEASIBLE_N and one incompatible instance per
# entry of REACH_INCOMPATIBLE_N.  How many descent steps a feasible
# instance takes before it stops early varies between instances (2k to the
# full 10k), so several per level keep the per-pass cost steady across
# seeds.
REACH_FEASIBLE_N = (2, 3, 4, 6, 8, 10, 12)
REACH_FEASIBLE_EACH = 4
REACH_INCOMPATIBLE_N = (3, 4, 6)

# The unit-trace 2x2 Pauli basis in the {|1>, |0>} ordering iqcontrol uses.
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass
class Config:
    """One generated config and what its outputs are checked against."""

    doc: dict
    items: int
    command: str = "run"
    # False for reach problems built to be incompatible, which must exit 2.
    # Solve targets need no flag: the checks read feasibility off the
    # target's Bloch radius.
    feasible: bool = True


def _pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix(m: np.ndarray) -> list:
    return [[_pair(x) for x in row] for row in m]


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _state_from_bloch(r) -> np.ndarray:
    return 0.5 * (np.eye(2) + r[0] * _SX + r[1] * _SY + r[2] * _SZ)


def _couplings(rng) -> dict:
    while True:
        g = rng.uniform(-2.0, 2.0, size=5)
        if g[3] ** 2 + g[4] ** 2 > 1e-2:
            return {"g1": g[0], "g2": [g[1], g[2]], "g3": g[3], "g4": g[4]}


def _edge_or_interior(rng, k: int) -> float:
    """0, 1/2, 1 or a uniform interior value, cycling with k."""
    return (0.0, 0.5, 1.0, float(rng.uniform(0.01, 0.99)))[k % 4]


def simulate_rows(rng) -> list:
    configs = []
    for i, rows in enumerate(rng.permutation(SIMULATE_ROWS)):
        doc = {"mode": "simulate", "couplings": _couplings(rng),
               "p_s": _edge_or_interior(rng, i),
               "p_p": _edge_or_interior(rng, i // 4),
               "times": {"start": 0.0, "stop": float(rng.uniform(5.0, 10.0)),
                         "count": int(rows)}}
        if i % 2 == 0:
            radius = rng.uniform(0.0, 1.0)
            doc["target"] = _matrix(_state_from_bloch(
                radius * _unit_vector(rng)))
        configs.append(Config(doc=doc, items=int(rows)))
    return configs


_SWEEP_RANGE = {"theta": (-np.pi, np.pi), "alpha": (0.0, np.pi / 2.0),
                "p_p": (0.0, 1.0)}


def sweep_grid(rng) -> list:
    configs = []
    for i in rng.permutation(len(SWEEP_SHAPES)):
        shape = SWEEP_SHAPES[i]
        names = list(rng.permutation(list(_SWEEP_RANGE)))
        axes = []
        for name, count in zip(names, shape):
            lo, hi = _SWEEP_RANGE[name]
            start, stop = sorted(rng.uniform(lo, hi, size=2))
            if rng.integers(2):
                start, stop = stop, start
            axes.append({"name": name, "start": float(start),
                         "stop": float(stop), "count": int(count)})
        fixed = {name: float(rng.uniform(*_SWEEP_RANGE[name]))
                 for name in names[len(shape):]}
        beta = 0.0 if i % 5 == 0 else float(rng.uniform(-np.pi, np.pi))
        doc = {"mode": "sweep", "p_s": _edge_or_interior(rng, int(i)),
               "beta": beta, "axes": axes, "fixed": fixed}
        configs.append(Config(doc=doc, items=int(np.prod(shape)),
                              command="sweep"))
    return configs


def _solve_target(rng, kind: str):
    """(p_s, Bloch vector) of a target of the given class."""
    if kind == "pure":
        return float(rng.integers(2)), _unit_vector(rng)
    if kind == "near_half":
        p_s = 0.5 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -2.0)
    elif kind == "purer":
        p_s = rng.uniform(0.05, 0.95)
        while abs(1.0 - 2.0 * p_s) > 0.9:
            p_s = rng.uniform(0.05, 0.95)
    else:
        p_s = rng.uniform(0.0, 1.0)
    m0 = abs(1.0 - 2.0 * p_s)
    if kind == "do_nothing":
        return p_s, np.array([0.0, 0.0, 1.0 - 2.0 * p_s])
    if kind == "boundary":
        return p_s, m0 * _unit_vector(rng)
    if kind == "purer":
        return p_s, rng.uniform(m0 + 0.05, 1.0) * _unit_vector(rng)
    return p_s, rng.uniform(0.0, m0) * _unit_vector(rng)


def _thermal(rng, form: str) -> dict:
    if form == "p_p":
        return {"mode": "thermal", "temperature": float(rng.uniform(0.05, 20.0)),
                "p_p": float(rng.uniform(1e-6, 1.0 - 1e-6))}
    temperature = float(rng.uniform(0.01, 10.0))
    if rng.integers(2):
        x = rng.uniform(-9.0, 9.0)
    else:
        # Far beyond exp overflow (|x| > 709) in either direction.
        x = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(np.log10(800.0), 5.0)
    e0 = float(rng.uniform(-5.0, 5.0))
    return {"mode": "thermal", "temperature": temperature,
            "e0": e0, "e1": e0 + float(x) * temperature}


def small_configs(rng) -> list:
    configs = []
    for kind, count in SOLVE_CLASSES:
        for _ in range(count):
            p_s, r = _solve_target(rng, kind)
            doc = {"mode": "solve", "p_s": float(p_s),
                   "target": _matrix(_state_from_bloch(r))}
            configs.append(Config(doc=doc, items=1))
    for form in ("p_p", "energies"):
        for _ in range(THERMAL_PER_FORM):
            configs.append(Config(doc=_thermal(rng, form), items=1))
    return [configs[i] for i in rng.permutation(len(configs))]


def _rand_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    k = idx[u - css / idx > 0][-1]
    return np.maximum(v - css[k - 1] / k, 0.0)


def _forward_instance(rng, n: int):
    """Coefficients, p and q with an exactly feasible probe diagonal.

    Random unitary blocks are rotated into the eigenbasis of the reduced
    state they produce at a random probe diagonal, so both residual
    families vanish there by construction.
    """
    p = rng.dirichlet(np.ones(n))
    w_star = rng.dirichlet(np.ones(n))
    blocks = [_rand_unitary(rng, n) for _ in range(n)]
    rho = sum(w * b @ np.diag(p).astype(complex) @ b.conj().T
              for w, b in zip(w_star, blocks))
    vals, vecs = np.linalg.eigh(rho)
    basis = vecs[:, ::-1]
    c = np.stack([basis.conj().T @ b for b in blocks], axis=2)
    return c, p, vals[::-1].copy()


def _incompatible_instance(rng, n: int):
    """One unitary for every probe level, and a target spectrum purer than p.

    The reduced state is then u diag(p) u^dag whatever the probe diagonal,
    so a target spectrum different from p cannot be reached.  Draws with
    ||p - q|| < 0.05 (p already nearly pure) are redrawn.
    """
    shift = np.full(n, -0.5 / (n - 1))
    shift[0] = 0.5
    while True:
        p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        q = np.sort(_project_simplex(p + shift))[::-1]
        if np.linalg.norm(p - q) >= 0.05:
            break
    u = _rand_unitary(rng, n)
    return np.stack([u] * n, axis=2), p, q


def reach_ladder(rng) -> list:
    problems = [(n, True) for n in REACH_FEASIBLE_N
                for _ in range(REACH_FEASIBLE_EACH)]
    problems += [(n, False) for n in REACH_INCOMPATIBLE_N]
    configs = []
    for i in rng.permutation(len(problems)):
        n, feasible = problems[i]
        if feasible:
            c, p, q = _forward_instance(rng, n)
        else:
            c, p, q = _incompatible_instance(rng, n)
        doc = {"mode": "reach", "initial_weights": [float(x) for x in p],
               "target_weights": [float(x) for x in q],
               "coefficients": [[[_pair(c[a, j, m]) for m in range(n)]
                                 for j in range(n)] for a in range(n)],
               "tol": 1e-8}
        configs.append(Config(doc=doc, items=1, feasible=feasible))
    return configs


GENERATORS = {"simulate_rows": simulate_rows, "sweep_grid": sweep_grid,
              "small_configs": small_configs, "reach_ladder": reach_ladder}


def generate(workload: str, seed: int) -> list:
    """The workload's configs for this seed; the same seed gives the same list."""
    index = list(GENERATORS).index(workload)
    return GENERATORS[workload](np.random.default_rng([seed, index]))
