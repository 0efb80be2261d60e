"""Config-driven experiment runner (the ``iqctl`` command).

Subcommands:
    iqctl run <config>     execute a simulate/solve/reach/thermal config
    iqctl sweep <config>   map closed-form entries over parameter grids
    iqctl check <config>   validate a config without executing it

Configs are UTF-8 JSON with a top-level "mode" discriminator; complex
numbers are [re, im] pairs and matrices nested row-major lists of pairs.
Results are CSV (time series, grids) or JSON (solve/reach/thermal), both
fully deterministic: 17 significant digits, "\n" line endings, sorted
JSON keys.  Exit codes: 0 success, 1 error, 2 infeasible-but-completed.
A result with a non-finite number is an error, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import opkit, qubit, thermal, verify
from .errors import IQControlError
from .nlevel import ReachabilityProblem, solve_probe_spectrum

MODES = ("simulate", "solve", "reach", "thermal", "sweep")
SWEEP_PARAMS = ("theta", "alpha", "p_p")
# Rows of a simulate result and grid points of a sweep.  A run holds its
# whole result in memory: 10^6 simulate rows peak at ~0.66 GB.
MAX_ROWS = 10**6


class ConfigError(IQControlError):
    """Config file is malformed or fails validation."""


def _expect(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_number(x) -> bool:
    """A JSON number that converts to a finite float (no NaN, no overflow)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _get(cfg: dict, key: str, typ, where: str, default=None):
    if default is not None and key not in cfg:
        return default
    _expect(key in cfg, f"{where}: missing key '{key}'")
    val = cfg[key]
    if typ is float:
        _expect(_is_number(val), f"{where}: '{key}' must be a finite number")
        return float(val)
    if typ is int:
        _expect(isinstance(val, int) and not isinstance(val, bool),
                f"{where}: '{key}' must be an integer")
        return val
    _expect(isinstance(val, typ), f"{where}: '{key}' has the wrong type")
    return val


def _get_positive(cfg: dict, key: str, where: str, default=None) -> float:
    val = _get(cfg, key, float, where, default)
    _expect(val > 0.0, f"{where}: '{key}' must be > 0")
    return val


def _parse_numbers(val, where: str) -> np.ndarray:
    _expect(isinstance(val, list) and all(map(_is_number, val)),
            f"{where}: expected a list of finite numbers")
    return np.array(val, dtype=float)


def _parse_complex(val, where: str) -> complex:
    if _is_number(val):
        return complex(val)
    _expect(isinstance(val, list) and len(val) == 2
            and all(map(_is_number, val)),
            f"{where}: expected a finite number or an [re, im] pair")
    return complex(val[0], val[1])


def _parse_matrix(val, where: str) -> np.ndarray:
    _expect(isinstance(val, list) and val, f"{where}: expected a matrix")
    rows = []
    for i, row in enumerate(val):
        _expect(isinstance(row, list), f"{where}: row {i} is not a list")
        rows.append([_parse_complex(x, f"{where}[{i}][{j}]")
                     for j, x in enumerate(row)])
    widths = {len(r) for r in rows}
    _expect(len(widths) == 1, f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _parse_target(val) -> np.ndarray:
    where = "config.target"
    try:
        m = opkit.validate_density_matrix(_parse_matrix(val, where),
                                          herm_tol=1e-10)
    except IQControlError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    _expect(m.shape == (2, 2), f"{where}: must be 2x2")
    return m


def _parse_couplings(cfg: dict, where: str) -> qubit.QubitCouplings:
    _expect(isinstance(cfg, dict), f"{where}: expected an object")
    try:
        return qubit.QubitCouplings(
            g1=_get(cfg, "g1", float, where),
            g2=_parse_complex(cfg.get("g2", 0.0), f"{where}.g2"),
            g3=_get(cfg, "g3", float, where),
            g4=_get(cfg, "g4", float, where))
    except IQControlError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_times(val, where: str) -> np.ndarray:
    if isinstance(val, list):
        _expect(len(val) <= MAX_ROWS, f"{where}: more than {MAX_ROWS} times")
        return _parse_numbers(val, where)
    _expect(isinstance(val, dict), f"{where}: expected a list or a range object")
    return _parse_range(val, where)


def _parse_range(cfg: dict, where: str) -> np.ndarray:
    count = _get(cfg, "count", int, where)
    _expect(0 <= count <= MAX_ROWS, f"{where}: count must lie in [0, {MAX_ROWS}]")
    return np.linspace(_get(cfg, "start", float, where),
                       _get(cfg, "stop", float, where), count)


def _parse_unit(cfg: dict, key: str, where: str) -> float:
    v = _get(cfg, key, float, where)
    _expect(0.0 <= v <= 1.0, f"{where}: '{key}' must lie in [0, 1]")
    return v


def _parse_axis(ax, where: str):
    _expect(isinstance(ax, dict), f"{where}: expected an object")
    name = _get(ax, "name", str, where)
    _expect(name in SWEEP_PARAMS,
            f"{where}: axis name '{name}' not one of {SWEEP_PARAMS}")
    return name, _parse_range(ax, where)


def _reject_constant(name: str):
    raise ConfigError(f"invalid JSON: non-finite number '{name}'")


def load_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer beyond the digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _expect(isinstance(cfg, dict), "config root must be an object")
    mode = _get(cfg, "mode", str, "config")
    _expect(mode in MODES, f"config: mode '{mode}' not one of {MODES}")
    return cfg


def validate_config(cfg: dict):
    """Full semantic validation; returns the parsed payload per mode."""
    mode = cfg["mode"]
    if mode == "simulate":
        payload = {
            "couplings": _parse_couplings(_get(cfg, "couplings", dict, "config"),
                                          "config.couplings"),
            "p_s": _parse_unit(cfg, "p_s", "config"),
            "p_p": _parse_unit(cfg, "p_p", "config"),
            "times": _parse_times(_get(cfg, "times", (list, dict), "config"),
                                  "config.times"),
        }
        if "target" in cfg:
            payload["target"] = _parse_target(cfg["target"])
        return payload
    if mode == "solve":
        target = _parse_target(_get(cfg, "target", list, "config"))
        budget_cfg = cfg.get("budget", {})
        _expect(isinstance(budget_cfg, dict), "config.budget: expected object")
        where = "config.budget"
        budget = qubit.SolverBudget(
            tol=_get_positive(budget_cfg, "tol", where, 1e-8))
        return {"p_s": _parse_unit(cfg, "p_s", "config"),
                "target": target, "budget": budget}
    if mode == "reach":
        c_raw = _get(cfg, "coefficients", list, "config")
        n = len(c_raw)
        c = [_parse_matrix(block, f"config.coefficients[{a}]")
             for a, block in enumerate(c_raw)]
        _expect(all(block.shape == (n, n) for block in c),
                f"config.coefficients: expected {n} blocks of {n}x{n} entries")
        p, q = (_parse_numbers(_get(cfg, key, list, "config"), f"config.{key}")
                for key in ("initial_weights", "target_weights"))
        try:
            prob = ReachabilityProblem(initial_weights=p, target_weights=q,
                                       coefficients=np.array(c))
        except IQControlError as exc:
            raise ConfigError(f"config: {exc}") from exc
        return {"problem": prob,
                "tol": _get_positive(cfg, "tol", "config", 1e-8)}
    if mode == "thermal":
        temperature = _get_positive(cfg, "temperature", "config")
        if "p_p" in cfg:
            return {"temperature": temperature,
                    "p_p": _get(cfg, "p_p", float, "config")}
        return {"temperature": temperature,
                "e0": _get(cfg, "e0", float, "config"),
                "e1": _get(cfg, "e1", float, "config")}
    # sweep
    axes_raw = _get(cfg, "axes", list, "config")
    axes = [_parse_axis(ax, f"config.axes[{i}]") for i, ax in enumerate(axes_raw)]
    names = [n for n, _ in axes]
    _expect(len(set(names)) == len(names), "config.axes: duplicate axis names")
    _expect(math.prod(len(vals) for _, vals in axes) <= MAX_ROWS,
            f"config.axes: more than {MAX_ROWS} grid points")
    fixed = cfg.get("fixed", {})
    _expect(isinstance(fixed, dict), "config.fixed: expected object")
    params = {p: _get(fixed, p, float, "config.fixed")
              for p in SWEEP_PARAMS if p not in names}
    if "p_p" in params:
        _expect(0.0 <= params["p_p"] <= 1.0, "config.fixed: p_p outside [0, 1]")
    return {"p_s": _parse_unit(cfg, "p_s", "config"),
            "beta": _get(cfg, "beta", float, "config", 0.0),
            "axes": axes, "fixed": params}


def _json_result(path: Path, doc: dict):
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"result has a non-finite value: {exc}") from exc
    path.write_text(text + "\n", encoding="utf-8")


def _csv_result(path: Path, header: list, table: np.ndarray):
    """Write a numeric table as CSV with 17 significant digits; a table with
    a non-finite cell is an error, and no file is written."""
    if not np.all(np.isfinite(table)):
        raise ConfigError("result has a non-finite value")
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(r) for r in table.tolist())


def _run_simulate(payload, out_path: Path) -> int:
    g, times = payload["couplings"], payload["times"]
    p_s, p_p = payload["p_s"], payload["p_p"]
    target = payload.get("target")
    if target is None:
        target = np.diag([1.0 - p_s, p_s]).astype(complex)
    ang = qubit.overlap_angles(g, times)
    rho00, rho11, rho10 = qubit.reduced_state_closed_form(
        p_s, qubit.probe_mixing_angle(g), p_p, ang)
    rho = opkit.validate_density_matrix(
        qubit.closed_form_reduced_state(g, times, p_s, p_p), herm_tol=1e-10)
    e_minus, e_plus = np.linalg.eigvalsh(rho).T
    _csv_result(out_path, ["t", "rho00", "rho11", "re_rho10", "im_rho10",
                           "e_plus", "e_minus", "trace_distance_to_target"],
                np.column_stack([times, rho00, rho11, rho10.real, rho10.imag,
                                 e_plus, e_minus,
                                 opkit.trace_distance(rho, target)]))
    return 0


def _run_solve(payload, out_path: Path) -> int:
    sol = qubit.solve_controls_numeric(payload["p_s"], payload["target"],
                                       payload["budget"])
    oracle = verify.check_solution(sol, payload["p_s"], payload["target"])
    doc = {
        "couplings": {"g1": sol.couplings.g1,
                      "g2": [sol.couplings.g2.real, sol.couplings.g2.imag],
                      "g3": sol.couplings.g3, "g4": sol.couplings.g4},
        "theta": sol.theta, "alpha": sol.alpha, "p_p": sol.p_p, "t": sol.t,
        "residual": sol.residual, "oracle_distance": oracle,
        "feasible": sol.feasible,
    }
    _json_result(out_path, doc)
    return 0 if sol.feasible else 2


def _run_reach(payload, out_path: Path) -> int:
    w, residual = solve_probe_spectrum(payload["problem"])
    reachable = residual <= payload["tol"]
    _json_result(out_path, {"probe_diagonal": list(w),
                            "residual": residual,
                            "reachable": bool(reachable)})
    return 0 if reachable else 2


def _run_thermal(payload, out_path: Path) -> int:
    if "p_p" in payload:
        gap = thermal.required_gap(payload["p_p"], payload["temperature"])
        _json_result(out_path, {"gap": gap,
                                "temperature": payload["temperature"],
                                "p_p": payload["p_p"]})
        return 0
    spec = thermal.ThermalSpec(e0=payload["e0"], e1=payload["e1"],
                               temperature=payload["temperature"])
    _json_result(out_path, {"p_p": thermal.thermal_occupancy(spec),
                            "gap": spec.e1 - spec.e0,
                            "temperature": spec.temperature})
    return 0


def _run_sweep(payload, out_path: Path) -> int:
    names = [n for n, _ in payload["axes"]]
    # "ij" indexing puts the last axis fastest, as nested loops would.
    grid = np.meshgrid(*(vals for _, vals in payload["axes"]), indexing="ij")
    params = dict(payload["fixed"], **dict(zip(names, grid)))
    ang = qubit.OverlapAngles(alpha=params["alpha"], beta=payload["beta"])
    rho00, _, rho10 = qubit.reduced_state_closed_form(
        payload["p_s"], params["theta"], params["p_p"], ang)
    columns = np.broadcast_arrays(*grid, rho00, np.abs(rho10))
    _csv_result(out_path, names + ["rho00", "abs_rho10"],
                np.column_stack([c.ravel() for c in columns]))
    return 0


def _execute(cfg: dict, config_path: Path, out_dir: Path, quiet: bool) -> int:
    payload = validate_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = cfg["mode"]
    suffix = ".csv" if mode in ("simulate", "sweep") else ".json"
    out_path = out_dir / (config_path.stem + suffix)
    runner = {"simulate": _run_simulate, "solve": _run_solve,
              "reach": _run_reach, "thermal": _run_thermal,
              "sweep": _run_sweep}[mode]
    code = runner(payload, out_path)
    if not quiet:
        print(f"{mode}: wrote {out_path}")
    return code


# An overflow reaches the user as the one error line of a finiteness check
# (on the config, a matrix or the result), not as numpy warnings.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iqctl",
        description="Indirect quantum control experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "execute a config"),
                            ("sweep", "run a parameter sweep config"),
                            ("check", "validate a config without executing")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default ./out)")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "check":
            validate_config(cfg)
            if not args.quiet:
                print(f"{args.config}: valid ({cfg['mode']})")
            return 0
        if args.command == "sweep" and cfg["mode"] != "sweep":
            raise ConfigError(
                f"'iqctl sweep' requires mode 'sweep', got '{cfg['mode']}'")
        return _execute(cfg, args.config, args.out, args.quiet)
    except IQControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
