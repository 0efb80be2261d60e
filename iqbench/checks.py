"""Independent checks of every output the benchmark makes the program write.

Each check takes a generated config, the exit code the program returned
and the bytes it wrote, and returns the reasons the output is wrong (an
empty list when it is right).  The tolerances are those of the acceptance
suite (tests/test_acceptance.py and tests/test_cli.py); none is looser.
The checks rebuild what they compare against from the config, through
the brute-force oracle in ``iqcontrol.verify`` or plain numpy, never
through the code path that produced the output.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import numpy as np

ORACLE_TOL = 1e-10       # simulate rows against the oracle (criterion 1)
SOLVE_ORACLE_TOL = 1e-6  # solved protocol against its target (criterion 5)
RESIDUAL_TOL = 1e-8      # feasible solve and reach residuals
INCOMPATIBLE_MIN = 1e-3  # incompatible reach residual (criterion 7)
THERMAL_TOL = 1e-12      # thermal round trip (criterion 8)
GEOMETRY_SLACK = 1e-9    # Bloch radius slack of the solver's feasibility test
ROUNDING = 1e-12         # physicality bounds on sweep entries
SAMPLE_ROWS = 8          # simulate rows checked against the oracle per config

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _parse_json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def _parse_csv(data: bytes):
    text = data.decode("utf-8")
    header, _, body = text.partition("\n")
    values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return header.split(","), values


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(*x) if isinstance(x, list) else complex(x)
                      for x in row] for row in rows])


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(
        0.5 * (diff + diff.conj().T)))))


def _diag(p: float) -> np.ndarray:
    return np.diag([1.0 - p, p]).astype(complex)


def _oracle_state(verify, couplings: dict, p_s: float, p_p: float, t: float):
    g2 = couplings.get("g2", 0.0)
    g2 = complex(*g2) if isinstance(g2, list) else complex(g2)
    h = verify.interaction_from_couplings(couplings["g1"], g2,
                                          couplings["g3"], couplings["g4"])
    sc = verify.CompositeScenario(dim_s=2, dim_p=2, h_full=h,
                                  rho_s0=_diag(p_s), rho_p0=_diag(p_p))
    return verify.evolve_full(sc, t)


def check_simulate(cfg, data: bytes, verify) -> list:
    doc = cfg.doc
    header, values = _parse_csv(data)
    times = doc["times"]
    if header != ["t", "rho00", "rho11", "re_rho10", "im_rho10", "e_plus",
                  "e_minus", "trace_distance_to_target"]:
        return [f"unexpected header {header}"]
    if values.shape[0] != times["count"]:
        return [f"{values.shape[0]} rows, expected {times['count']}"]
    if not np.all(np.isfinite(values)):
        return ["non-finite value in CSV"]
    target = (_matrix(doc["target"]) if "target" in doc
              else _diag(doc["p_s"]))
    expected_t = np.linspace(times["start"], times["stop"], times["count"])
    reasons = []
    for i in np.unique(np.linspace(0, times["count"] - 1, SAMPLE_ROWS,
                                   dtype=int)):
        t, e_plus, e_minus, dist = (float(x) for x in values[i, [0, 5, 6, 7]])
        if t != expected_t[i]:
            reasons.append(f"row {i}: t={t!r}, expected {expected_t[i]!r}")
            continue
        rho = _oracle_state(verify, doc["couplings"], doc["p_s"], doc["p_p"], t)
        lo, hi = np.linalg.eigvalsh(rho)
        for name, got, want in (("e_plus", e_plus, hi), ("e_minus", e_minus, lo),
                                ("trace_distance_to_target", dist,
                                 _trace_distance(rho, target))):
            if not abs(got - want) <= ORACLE_TOL:
                reasons.append(f"row {i}: {name}={got!r}, oracle {want!r}")
    return reasons


def check_sweep(cfg, data: bytes) -> list:
    doc = cfg.doc
    header, values = _parse_csv(data)
    names = [ax["name"] for ax in doc["axes"]]
    if header != names + ["rho00", "abs_rho10"]:
        return [f"unexpected header {header}"]
    expected = int(np.prod([ax["count"] for ax in doc["axes"]]))
    if values.shape[0] != expected:
        return [f"{values.shape[0]} rows, expected {expected}"]
    if not np.all(np.isfinite(values)):
        return ["non-finite value in CSV"]
    rho00, abs10 = values[:, -2], values[:, -1]
    reasons = []
    if np.any(rho00 < -ROUNDING) or np.any(rho00 > 1.0 + ROUNDING):
        reasons.append("rho00 outside [0, 1]")
    bound = np.sqrt(np.clip(rho00 * (1.0 - rho00), 0.0, None))
    if np.any(abs10 > bound + ROUNDING):
        worst = int(np.argmax(abs10 - bound))
        reasons.append(f"row {worst}: abs_rho10={float(abs10[worst])!r} "
                       f"exceeds sqrt(rho00*rho11)={float(bound[worst])!r}")
    return reasons


def _bloch_radius(rho: np.ndarray) -> float:
    return float(np.linalg.norm([np.real(np.trace(rho @ s))
                                 for s in (_SX, _SY, _SZ)]))


def expected_solve_code(cfg) -> int:
    """0 when the target lies inside the reachable Bloch ball, else 2."""
    m0 = abs(1.0 - 2.0 * cfg.doc["p_s"])
    rad = _bloch_radius(_matrix(cfg.doc["target"]))
    return 0 if rad <= m0 + GEOMETRY_SLACK else 2


def check_solve(cfg, code: int, data: bytes, verify) -> list:
    out = _parse_json(data)
    p_s, target = cfg.doc["p_s"], _matrix(cfg.doc["target"])
    c = out["couplings"]
    sol = SimpleNamespace(
        couplings=SimpleNamespace(g1=c["g1"], g2=complex(*c["g2"]),
                                  g3=c["g3"], g4=c["g4"]),
        p_p=out["p_p"], t=out["t"])
    oracle = verify.check_solution(sol, p_s, target)
    reasons = []
    if not abs(oracle - out["oracle_distance"]) <= 1e-12:
        reasons.append(f"oracle_distance {out['oracle_distance']!r}, "
                       f"recomputed {oracle!r}")
    if out["feasible"] != (code == 0):
        reasons.append(f"feasible={out['feasible']} with exit {code}")
    if code == 0:
        if not out["residual"] <= RESIDUAL_TOL:
            reasons.append(f"feasible residual {out['residual']!r}")
        if not oracle <= SOLVE_ORACLE_TOL:
            reasons.append(f"oracle distance {oracle!r} > {SOLVE_ORACLE_TOL}")
    return reasons


def reach_residual(doc: dict, w: np.ndarray) -> float:
    """2-norm of the reachability defects at probe diagonal w.

    The reduced state is rebuilt as sum_m w_m sum_j p_j c_jm c_jm^dag with
    c_jm the (j, m) coefficient column; the defects are its diagonal
    against the target weights and the real and imaginary parts of its
    upper off-diagonal entries.
    """
    c = np.array([[[complex(*x) for x in row] for row in block]
                  for block in doc["coefficients"]])
    p = np.array(doc["initial_weights"])
    q = np.array(doc["target_weights"])
    rho = np.zeros((p.size, p.size), dtype=complex)
    for m in range(p.size):
        for j in range(p.size):
            col = c[:, j, m]
            rho += w[m] * p[j] * np.outer(col, col.conj())
    upper = rho[np.triu_indices(p.size, k=1)]
    return float(np.linalg.norm(np.concatenate(
        [q - np.real(np.diag(rho)), upper.real, upper.imag])))


def check_reach(cfg, code: int, data: bytes) -> list:
    out = _parse_json(data)
    w = np.array(out["probe_diagonal"], dtype=float)
    if w.size != len(cfg.doc["initial_weights"]):
        return [f"probe_diagonal has {w.size} entries"]
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-10:
        return [f"probe_diagonal {w} is not a probability vector"]
    res = reach_residual(cfg.doc, w)
    reasons = []
    if not abs(res - out["residual"]) <= 1e-9:
        reasons.append(f"residual {out['residual']!r}, rebuilt {res!r}")
    if out["reachable"] != (code == 0):
        reasons.append(f"reachable={out['reachable']} with exit {code}")
    if cfg.feasible and not res <= RESIDUAL_TOL:
        reasons.append(f"feasible problem has residual {res!r}")
    if not cfg.feasible and not res > INCOMPATIBLE_MIN:
        reasons.append(f"incompatible problem has residual {res!r}")
    return reasons


def _logistic(x: float) -> float:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def check_thermal(cfg, data: bytes) -> list:
    doc, out = cfg.doc, _parse_json(data)
    temperature = doc["temperature"]
    if out["temperature"] != temperature:
        return [f"temperature {out['temperature']!r} not echoed"]
    if "p_p" in doc:
        if out["p_p"] != doc["p_p"]:
            return [f"p_p {out['p_p']!r} not echoed"]
        gap = out["gap"]
    else:
        gap = doc["e1"] - doc["e0"]
        if out["gap"] != gap:
            return [f"gap {out['gap']!r}, expected {gap!r}"]
    x = gap / temperature
    p_p = out["p_p"]
    reasons = []
    if not 0.0 <= p_p <= 1.0 or not abs(p_p - _logistic(x)) <= THERMAL_TOL:
        reasons.append(f"p_p {p_p!r} at gap/T={x!r}, expected {_logistic(x)!r}")
    if abs(x) <= 9.0:
        back = temperature * np.log(p_p / (1.0 - p_p))
        if not abs(back - gap) <= THERMAL_TOL * max(1.0, abs(gap)):
            reasons.append(f"gap {gap!r} round-trips to {back!r}")
    return reasons


def expected_code(cfg) -> int:
    mode = cfg.doc["mode"]
    if mode == "solve":
        return expected_solve_code(cfg)
    if mode == "reach":
        return 0 if cfg.feasible else 2
    return 0


def check_output(cfg, code, data, verify) -> list:
    """Reasons the program's exit code and output for this config are wrong."""
    want = expected_code(cfg)
    if code != want:
        return [f"exit {code}, expected {want}"]
    if data is None:
        return ["no output file"]
    mode = cfg.doc["mode"]
    try:
        if mode == "simulate":
            return check_simulate(cfg, data, verify)
        if mode == "sweep":
            return check_sweep(cfg, data)
        if mode == "solve":
            return check_solve(cfg, code, data, verify)
        if mode == "reach":
            return check_reach(cfg, code, data)
        return check_thermal(cfg, data)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
