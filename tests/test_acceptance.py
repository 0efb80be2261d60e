"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line so the suite
can be audited from the -s output alone.  Criteria with stated runtime
budgets assert the elapsed wall time as well.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    forward_reachability_instance,
    rand_density,
    rand_hermitian,
    rand_unitary,
)
from iqcontrol import cli, nlevel, opkit, qubit, thermal, verify
from iqcontrol.errors import DegenerateConditionError, InfeasibleError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(name: str, ok: bool, detail: str):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def rand_couplings_bounded(rng, bound=2.0):
    while True:
        g = rng.uniform(-bound, bound, size=5)
        if g[3] ** 2 + g[4] ** 2 > 1e-6:
            return qubit.QubitCouplings(g1=g[0], g2=complex(g[1], g[2]),
                                        g3=g[3], g4=g[4])


def test_criterion_1_conditional_decomposition_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        g = rand_couplings_bounded(rng)
        t = rng.uniform(0.0, 10.0)
        rho_s0 = rand_density(rng, 2)
        rho_p0 = rand_density(rng, 2)
        closed = qubit.conditional_reduced_state(g, t, rho_s0, rho_p0)
        sc = verify.CompositeScenario(
            dim_s=2, dim_p=2, h_full=verify.interaction_from_couplings(g.g1, g.g2, g.g3, g.g4),
            rho_s0=rho_s0, rho_p0=rho_p0)
        worst = max(worst, opkit.trace_distance(closed,
                                                verify.evolve_full(sc, t)))
    elapsed = time.perf_counter() - start
    report("1 qubit closed form vs oracle",
           worst <= 1e-10 and elapsed <= 5.0,
           f"worst distance {worst:.3e}, {elapsed:.2f}s over 200 scenarios")


def test_criterion_2_nlevel_factorization():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        n = int(rng.choice([2, 3, 4]))
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                      h_p=rand_hermitian(rng, n))
        t = rng.uniform(0.0, 5.0)
        decomp = nlevel.conditional_decomposition(h, t)
        total = np.zeros((n * n, n * n), dtype=complex)
        for m in range(n):
            vec = decomp.probe_vectors[:, m]
            total += opkit.kron(decomp.unitaries[m],
                                np.outer(vec, vec.conj()))
        full = opkit.expm_i_hermitian(opkit.kron(h.h_s, h.h_p), t)
        worst = max(worst, float(np.max(np.abs(total - full))))
    elapsed = time.perf_counter() - start
    report("2 N-level propagator factorization",
           worst <= 1e-10 and elapsed <= 10.0,
           f"worst entry error {worst:.3e}, {elapsed:.2f}s over 100 instances")


def test_criterion_3_local_frame_invariance():
    rng = np.random.default_rng(103)
    worst_spec = 0.0
    worst_back = 0.0
    for _ in range(100):
        g = rand_couplings_bounded(rng)
        r = qubit.LocalRotation(theta=rng.uniform(0.0, np.pi),
                                phi=rng.uniform(0.0, 2.0 * np.pi))
        t = rng.uniform(0.0, 8.0)
        rho_s0 = rand_density(rng, 2)
        rho_p0 = rand_density(rng, 2)
        f = qubit.local_rotation_matrix(r)
        plain = qubit.conditional_reduced_state(g, t, rho_s0, rho_p0)
        moved = qubit.conditional_reduced_state(
            qubit.transform_couplings(r, g), t,
            f @ rho_s0 @ opkit.dag(f), rho_p0)
        worst_spec = max(worst_spec, float(np.max(np.abs(
            np.linalg.eigvalsh(plain) - np.linalg.eigvalsh(moved)))))
        worst_back = max(worst_back, opkit.trace_distance(
            opkit.dag(f) @ moved @ f, plain))
    report("3 local frame invariance",
           worst_spec <= 1e-10 and worst_back <= 1e-10,
           f"spectrum {worst_spec:.3e}, rotated-back {worst_back:.3e}, "
           "100 protocols")


def test_criterion_4_kraus_channel_laws():
    rng = np.random.default_rng(104)
    worst_complete = 0.0
    worst_trace = 0.0
    worst_eig = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 3, 4]))
        h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, n),
                                      h_p=rand_hermitian(rng, n))
        decomp = nlevel.conditional_decomposition(h, rng.uniform(0.0, 5.0))
        ch = nlevel.kraus_from_probe(decomp, rand_density(rng, n))
        total = sum(opkit.dag(k) @ k for k in ch.kraus_operators())
        worst_complete = max(worst_complete,
                             float(np.max(np.abs(total - np.eye(n)))))
        out = nlevel.apply_channel(ch, rand_density(rng, n))
        worst_trace = max(worst_trace, abs(float(np.real(np.trace(out))) - 1.0))
        worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(out))))
    # probe-coherence irrelevance on N = 3
    h = nlevel.ProductHamiltonian(h_s=rand_hermitian(rng, 3),
                                  h_p=rand_hermitian(rng, 3))
    decomp = nlevel.conditional_decomposition(h, 1.3)
    rho_p = rand_density(rng, 3)
    v = decomp.probe_vectors
    scrubbed = v @ np.diag(np.diag(opkit.dag(v) @ rho_p @ v)) @ opkit.dag(v)
    rho_s = rand_density(rng, 3)
    coher = opkit.trace_distance(
        nlevel.apply_channel(nlevel.kraus_from_probe(decomp, rho_p), rho_s),
        nlevel.apply_channel(nlevel.kraus_from_probe(decomp, scrubbed), rho_s))
    ok = (worst_complete <= 1e-10 and worst_trace <= 1e-12
          and worst_eig <= 1e-10 and coher <= 1e-12)
    report("4 Kraus channel laws", ok,
           f"completeness {worst_complete:.3e}, trace {worst_trace:.3e}, "
           f"eig floor {worst_eig:.3e}, coherence effect {coher:.3e}")


def test_criterion_5_solver_end_to_end():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        p_s = float(rng.integers(0, 2))
        q = rng.uniform(0.5, 1.0)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        vp = np.array([-np.conj(v[1]), np.conj(v[0])])
        target = (q * np.outer(v, v.conj())
                  + (1.0 - q) * np.outer(vp, vp.conj()))
        sol = qubit.solve_controls_numeric(p_s, target)
        dist = verify.check_solution(sol, p_s, target)
        worst = max(worst, dist)
        assert sol.feasible, f"target {k} wrongly flagged infeasible"
    # a purer-than-initial target must be flagged, not mis-solved
    bad = qubit.solve_controls_numeric(0.3, np.diag([1.0, 0.0]).astype(complex))
    elapsed = time.perf_counter() - start
    report("5 solver end to end",
           worst <= 1e-6 and not bad.feasible and elapsed <= 60.0,
           f"worst oracle distance {worst:.3e}, infeasible flagged, "
           f"{elapsed:.2f}s over 50 targets")


def test_criterion_6_occupancy_formula_consistency():
    rng = np.random.default_rng(106)
    worst = 0.0
    checked = 0
    tried = 0
    while checked < 1000 and tried < 100_000:
        tried += 1
        p_s = rng.uniform(0.0, 1.0)
        theta = rng.uniform(-np.pi, np.pi)
        alpha = rng.uniform(0.0, np.pi / 2.0)
        den = (np.cos(theta) * np.sin(alpha) ** 2
               * (1.0 - 2.0 * p_s))
        if abs(den) <= 1e-3:
            continue
        q = rng.uniform(0.0, 1.0)
        try:
            p_p = qubit.analytic_conditions(p_s, q, theta, alpha)
        except InfeasibleError:
            continue
        rho00, _, _ = qubit.reduced_state_closed_form(
            p_s, theta, p_p, qubit.OverlapAngles(alpha=alpha, beta=0.0))
        worst = max(worst, abs(rho00 - q))
        checked += 1
    degeneracy_raises = True
    for alpha in (0.0, np.pi, 2.0 * np.pi):
        try:
            qubit.analytic_conditions(0.2, 0.5, 0.4, alpha)
            degeneracy_raises = False
        except DegenerateConditionError:
            pass
    report("6 occupancy formula consistency",
           checked == 1000 and worst <= 1e-8 and degeneracy_raises,
           f"worst defect {worst:.3e} over {checked} samples, "
           "degenerate alpha raises")


def test_criterion_7_reachability_forward_inverse():
    rng = np.random.default_rng(107)
    worst_feasible = 0.0
    for k in range(50):
        n = 2 + (k % 2)
        prob, _ = forward_reachability_instance(rng, n)
        _, res = nlevel.solve_probe_spectrum(prob)
        worst_feasible = max(worst_feasible, res)
    best_infeasible = np.inf
    for _ in range(10):
        n = 3
        p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        q = nlevel.project_simplex(p + np.array([0.5, -0.25, -0.25]))
        q = np.sort(q)[::-1]
        u = rand_unitary(rng, n)
        prob = nlevel.ReachabilityProblem(
            initial_weights=p, target_weights=q,
            coefficients=np.stack([u] * n, axis=2))
        _, res = nlevel.solve_probe_spectrum(prob)
        best_infeasible = min(best_infeasible, res)
    report("7 reachability forward and inverse",
           worst_feasible <= 1e-8 and best_infeasible > 1e-3,
           f"feasible residual {worst_feasible:.3e}, "
           f"incompatible residual {best_infeasible:.3e}")


def test_criterion_8_thermal_round_trip():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        temperature = rng.uniform(0.05, 20.0)
        gap = rng.uniform(-9.0, 9.0) * temperature
        p_p = thermal.thermal_occupancy(
            thermal.ThermalSpec(e0=0.0, e1=gap, temperature=temperature))
        back = thermal.required_gap(p_p, temperature)
        worst = max(worst, abs(back - gap) / max(1.0, abs(gap)))
    raises = True
    for p_p in (0.0, 1.0):
        try:
            thermal.required_gap(p_p, 1.0)
            raises = False
        except InfeasibleError:
            pass
    report("8 thermal round trip", worst <= 1e-12 and raises,
           f"worst relative defect {worst:.3e} over 1000 pairs, "
           "pure occupancy raises")


def test_criterion_9_cli_determinism(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, f"no bundled configs in {CONFIG_DIR}"
    mismatched = []
    for cfg in configs:
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code_a = cli.main(["run", str(cfg), "--out", str(out_a), "--quiet"])
        code_b = cli.main(["run", str(cfg), "--out", str(out_b), "--quiet"])
        assert code_a == code_b and code_a in (0, 2)
        name_a = next(out_a.glob(cfg.stem + ".*"))
        name_b = out_b / name_a.name
        if name_a.read_bytes() != name_b.read_bytes():
            mismatched.append(cfg.name)
    sweep_cfg = CONFIG_DIR / "sweep_example.json"
    doc = json.loads(sweep_cfg.read_text())
    expected = 1
    for ax in doc["axes"]:
        expected *= ax["count"]
    rows = (tmp_path / "a" / "sweep_example.csv").read_text().splitlines()
    rows_ok = len(rows) == expected + 1
    report("9 CLI determinism",
           not mismatched and rows_ok,
           f"{len(configs)} configs byte-identical on rerun, "
           f"sweep rows {len(rows) - 1} == {expected}")


def test_criterion_10_reachability_system_oracle():
    # the N-level reach system at a known probe diagonal w against the
    # brute-force evolution of diag(p) (x) V_p diag(w) V_p^dag under
    # h_s (x) h_p, read in the reference basis W = exp(-i h_s ref_time)
    rng = np.random.default_rng(110)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 3, 4]))
        h_s, h_p = rand_hermitian(rng, n), rand_hermitian(rng, n)
        energies, v_p = opkit.eig_hermitian(h_p)
        t, ref_time = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        p, w = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        sc = verify.CompositeScenario(
            dim_s=n, dim_p=n, h_full=opkit.kron(h_s, h_p),
            rho_s0=np.diag(p).astype(complex),
            rho_p0=(v_p * w) @ opkit.dag(v_p))
        ref = opkit.expm_i_hermitian(h_s, ref_time)
        rho = opkit.dag(ref) @ verify.evolve_full(sc, t) @ ref
        q = np.real(np.diagonal(rho))
        prob = nlevel.ReachabilityProblem(
            initial_weights=p, target_weights=q,
            coefficients=nlevel.expansion_coefficients(h_s, energies, t,
                                                       ref_time))
        diag, off = nlevel.reachability_residual(prob, w)
        worst = max(worst, float(np.max(np.abs(diag))), float(np.max(
            np.abs(off - rho[~np.eye(n, dtype=bool)]))))
    elapsed = time.perf_counter() - start
    report("10 N-level reach system vs oracle",
           worst <= 1e-10 and elapsed <= 10.0,
           f"worst entry error {worst:.3e}, {elapsed:.2f}s over 100 instances")
