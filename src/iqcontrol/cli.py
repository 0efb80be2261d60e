"""Config-driven experiment runner (the ``iqctl`` command).

Subcommands:
    iqctl run <config>     execute a simulate/solve/reach/thermal config
    iqctl sweep <config>   map closed-form entries over parameter grids
    iqctl check <config>   validate a config without executing it

Configs are UTF-8 JSON with a top-level "mode" discriminator; a complex
number is a finite real number or an [re, im] pair, and a matrix a nested
row-major list of them.
Results are CSV (time series, grids) or JSON (solve/reach/thermal), both
fully deterministic with "\n" line endings: CSV numbers have 17
significant digits, JSON numbers are the shortest repr that reads back to
the same float, and JSON keys are sorted.  Exit codes: 0 success, 1 error,
2 infeasible-but-completed.
A result with a non-finite number is an error, and no file or directory
is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import opkit, qubit, thermal, verify
from .errors import IQControlError, StateError
from .nlevel import ReachabilityProblem, solve_probe_spectrum

MODES = ("simulate", "solve", "reach", "thermal", "sweep")
SWEEP_PARAMS = ("theta", "alpha", "p_p")
# Rows of a simulate result and grid points of a sweep.  A run computes its
# whole result in memory and writes it in chunks: 10^6 simulate rows peak
# at ~0.51 GB, 10^6 sweep points at ~0.13 GB.
MAX_ROWS = 10**6
# CSV rows formatted per "%" call.
_CSV_CHUNK = 4096


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


def _parse_array(val, shape: tuple):
    """``val`` as a float array of ``shape`` in one pass, or None to leave
    it to the per-entry parsers.  Only nested lists of ints and floats below
    the float maximum are taken: numpy also takes tuples, strings and bools,
    and an int above the maximum can round down to it."""
    level = [val]
    for n in shape:
        if not ({list}.issuperset(map(type, level))
                and set(map(len, level)) == {n}):
            return None
        level = list(chain.from_iterable(level))
    if not {int, float}.issuperset(map(type, level)):
        return None
    try:
        a = np.array(level, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    return a.reshape(shape) if np.all(np.abs(a) < sys.float_info.max) else None


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
    """A 2x2 density matrix, Hermitian to 1e-10; its Hermitian part is
    returned, so the library's stricter check downstream holds too."""
    where = "config.target"
    try:
        m = opkit.validate_density_matrix(_parse_matrix(val, where),
                                          herm_tol=1e-10)
    except IQControlError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    _expect(m.shape == (2, 2), f"{where}: must be 2x2")
    return 0.5 * (m + opkit.dag(m))


def _parse_coefficients(val: list) -> np.ndarray:
    """The reach tensor c[a, j, m]: N blocks of N x N complex entries."""
    n = len(val)
    pairs = _parse_array(val, (n, n, n, 2))
    if pairs is not None:
        # bit-identical to complex(re, im); re + 1j * im turns -0.0 into 0.0
        return pairs.view(complex)[..., 0]
    blocks = [_parse_matrix(block, f"config.coefficients[{a}]")
              for a, block in enumerate(val)]
    _expect(all(block.shape == (n, n) for block in blocks),
            f"config.coefficients: expected {n} blocks of {n}x{n} entries")
    return np.array(blocks)


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
    vals = _parse_range(ax, where)
    if name == "p_p":
        _expect(0.0 <= ax["start"] <= 1.0 and 0.0 <= ax["stop"] <= 1.0,
                f"{where}: p_p outside [0, 1]")
    return name, vals


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
        budget = cfg.get("budget", {})
        _expect(isinstance(budget, dict), "config.budget: expected object")
        return {"p_s": _parse_unit(cfg, "p_s", "config"), "target": target,
                "tol": _get_positive(budget, "tol", "config.budget", 1e-8)}
    if mode == "reach":
        c = _parse_coefficients(_get(cfg, "coefficients", list, "config"))
        p, q = (_parse_numbers(_get(cfg, key, list, "config"), f"config.{key}")
                for key in ("initial_weights", "target_weights"))
        try:
            prob = ReachabilityProblem(initial_weights=p, target_weights=q,
                                       coefficients=c)
        except IQControlError as exc:
            raise ConfigError(f"config: {exc}") from exc
        return {"problem": prob,
                "tol": _get_positive(cfg, "tol", "config", 1e-8)}
    if mode == "thermal":
        temperature = _get_positive(cfg, "temperature", "config")
        if "p_p" in cfg:
            p_p = _get(cfg, "p_p", float, "config")
            _expect(0.0 < p_p < 1.0, "config: 'p_p' must lie in (0, 1)")
            return {"temperature": temperature, "p_p": p_p}
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def _csv_result(path: Path, header: list, columns: list):
    """Write float columns as CSV with 17 significant digits.

    A column is an array, or a pair ``(values, index)`` that stands for
    ``values[index]`` and whose distinct values are formatted once.  A
    result with a non-finite cell is an error, and no file is written.
    """
    cells = []  # (texts of the distinct values or None, array of rows)
    for col in columns:
        if isinstance(col, tuple):
            values, index = col
            finite = np.isfinite(values)[index]
            texts = np.array(["%.17g" % v for v in values.tolist()],
                             dtype=object)
            cells.append((texts, index))
        else:
            finite = np.isfinite(col)
            cells.append((None, col))
        if not np.all(finite):
            raise ConfigError("result has a non-finite value")
    row = ",".join("%.17g" if texts is None else "%s"
                   for texts, _ in cells) + "\n"
    n = len(cells[0][1])
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # one "%" call per chunk, with Python objects for that chunk only
        for start in range(0, n, _CSV_CHUNK):
            part = slice(start, start + _CSV_CHUNK)
            cols = [(rows[part] if texts is None else texts[rows[part]])
                    .tolist() for texts, rows in cells]
            flat = tuple(chain.from_iterable(zip(*cols)))
            fh.write(row * len(cols[0]) % flat)


def _run_simulate(payload, out_path: Path) -> int:
    g, times = payload["couplings"], payload["times"]
    p_s, p_p = payload["p_s"], payload["p_p"]
    target = payload.get("target")
    if target is None:
        target = np.diag([1.0 - p_s, p_s]).astype(complex)
    rho, ang = qubit.closed_form_reduced_state(g, times, p_s, p_p)
    r = qubit.bloch_vector(rho)
    radius = np.linalg.norm(r, axis=-1)
    e_plus, e_minus = 0.5 * (1.0 + radius), 0.5 * (1.0 - radius)
    if np.any(e_minus < opkit.PSD_FLOOR):
        raise StateError(f"density matrix has eigenvalue {e_minus.min():.3e}"
                         f" < {opkit.PSD_FLOOR:.0e}")
    rho00, rho11, rho10 = qubit.reduced_state_closed_form(
        p_s, qubit.probe_mixing_angle(g), p_p, ang)
    distance = 0.5 * np.linalg.norm(r - qubit.bloch_vector(target), axis=-1)
    _csv_result(out_path, ["t", "rho00", "rho11", "re_rho10", "im_rho10",
                           "e_plus", "e_minus", "trace_distance_to_target"],
                [times, rho00, rho11, rho10.real, rho10.imag, e_plus, e_minus,
                 distance])
    return 0


def _run_solve(payload, out_path: Path) -> int:
    sol = qubit.solve_controls_numeric(payload["p_s"], payload["target"],
                                       payload["tol"])
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
    axis_values = [vals for _, vals in payload["axes"]]
    # "ij" indexing puts the last axis fastest, as nested loops would.
    grid = np.meshgrid(*axis_values, indexing="ij")
    params = dict(payload["fixed"], **dict(zip(names, grid)))
    ang = qubit.OverlapAngles(alpha=params["alpha"], beta=payload["beta"])
    rho00, _, rho10 = qubit.reduced_state_closed_form(
        payload["p_s"], params["theta"], params["p_p"], ang)
    shape = tuple(len(vals) for vals in axis_values)
    index = [i.ravel() for i in np.indices(shape)]
    _csv_result(out_path, names + ["rho00", "abs_rho10"],
                list(zip(axis_values, index))
                + [np.broadcast_to(c, shape).ravel()
                   for c in (rho00, np.abs(rho10))])
    return 0


def _execute(cfg: dict, config_path: Path, out_dir: Path, quiet: bool) -> int:
    payload = validate_config(cfg)
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


_PARSER = argparse.ArgumentParser(
    prog="iqctl", description="Indirect quantum control experiment runner")
_PARSER.add_argument("command", choices=("run", "sweep", "check"),
                     help="run: execute a config; sweep: run a parameter "
                          "sweep config; check: validate a config without "
                          "executing")
_PARSER.add_argument("config", type=Path)
_PARSER.add_argument("--out", type=Path, default=Path("out"),
                     help="output directory (default ./out)")
_PARSER.add_argument("--quiet", action="store_true")


# An overflow reaches the user as the one error line of a finiteness check
# (on the config, a matrix or the result), not as numpy warnings.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

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
