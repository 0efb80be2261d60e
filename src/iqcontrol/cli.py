"""Config-driven experiment runner (the ``iqctl`` command).

Subcommands:
    iqctl run <config>     execute a simulate/solve/reach/thermal config
    iqctl sweep <config>   map closed-form entries over parameter grids
    iqctl check <config>   validate a config without executing it

Configs are UTF-8 JSON with a top-level "mode" discriminator; a complex
number is a finite real number or an [re, im] pair, and a matrix a nested
row-major list of them.
Results are CSV (time series, grids) or JSON (solve/reach/thermal), both
fully deterministic with "\n" line endings: a CSV number is the bytes of
Python's "%.17g" (17 significant digits, ties to even).  A JSON result is
the text of ``json.dumps(doc, sort_keys=True, indent=2)``, built directly:
a number is the shortest repr that reads back to the same float, and keys
are sorted.
Exit codes: 0 success, 1 error, 2 infeasible-but-completed.
A result with a non-finite number is an error, and no file or directory
is written.  An unreadable config, an unwritable output path and a failed
write (which may leave a partial file) also exit 1 with one "error:" line;
the output directory is made only when a result is written.

``validate_config`` returns the mode's run, its ``_run_*`` bound to the
parsed values; a run returns (exit code, (suffix, chunks)) and main writes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import opkit, qubit, thermal, verify
from .errors import IQControlError
from .nlevel import ReachabilityProblem, solve_probe_spectrum

MODES = ("simulate", "solve", "reach", "thermal", "sweep")
SWEEP_PARAMS = ("theta", "alpha", "p_p")
# Rows of a simulate result and grid points of a sweep.  A run computes its
# whole result in memory, stacks its per-row columns once and writes it in
# chunks: 10^6 simulate rows peak at ~230 MB, 10^6 sweep points at ~110 MB
# (one axis; ~87 MB as 100 x 100 x 100), as the process's own ru_maxrss.
MAX_ROWS = 10**6
# CSV rows formatted per kernel call.
_CSV_CHUNK = 4096
# Opening a result file makes it, or empties the one already there.
_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


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
    """A 2x2 density matrix with a Hermiticity defect of at most 1e-10; its
    Hermitian part is returned, so the library's stricter check holds too."""
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
        fd = os.open(path, os.O_RDONLY)
        try:
            # A regular file comes whole in the first read; a pipe has no
            # size and a file may grow, so read on until EOF, each read
            # asking for one byte more than the last one gave.
            parts = [os.read(fd, os.fstat(fd).st_size + 1)]
            while parts[-1]:
                parts.append(os.read(fd, len(parts[-1]) + 1))
        finally:
            os.close(fd)
        text = b"".join(parts[:-1]).decode("utf-8")
    except OSError as exc:
        # a directory opens, and only its read fails, naming no file
        exc.filename = os.fspath(path)
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # e.g. an integer beyond the digit limit, or arrays nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _expect(isinstance(cfg, dict), "config root must be an object")
    mode = _get(cfg, "mode", str, "config")
    _expect(mode in MODES, f"config: mode '{mode}' not one of {MODES}")
    return cfg


def validate_config(cfg: dict):
    """Full semantic validation; returns the mode's run, a callable that
    computes and formats the result and returns (exit code, (suffix,
    chunks)).  Nothing is computed before it is called."""
    mode = cfg["mode"]
    if mode == "simulate":
        couplings = _parse_couplings(_get(cfg, "couplings", dict, "config"),
                                     "config.couplings")
        p_s = _parse_unit(cfg, "p_s", "config")
        p_p = _parse_unit(cfg, "p_p", "config")
        times = _parse_times(_get(cfg, "times", (list, dict), "config"),
                             "config.times")
        target = (_parse_target(cfg["target"]) if "target" in cfg
                  else np.diag([1.0 - p_s, p_s]))
        return partial(_run_simulate, couplings, p_s, p_p, times, target)
    if mode == "solve":
        target = _parse_target(_get(cfg, "target", list, "config"))
        budget = cfg.get("budget", {})
        _expect(isinstance(budget, dict), "config.budget: expected object")
        return partial(_run_solve, _parse_unit(cfg, "p_s", "config"), target,
                       _get_positive(budget, "tol", "config.budget", 1e-8))
    if mode == "reach":
        c = _parse_coefficients(_get(cfg, "coefficients", list, "config"))
        p, q = (_parse_numbers(_get(cfg, key, list, "config"), f"config.{key}")
                for key in ("initial_weights", "target_weights"))
        try:
            prob = ReachabilityProblem(initial_weights=p, target_weights=q,
                                       coefficients=c)
        except IQControlError as exc:
            raise ConfigError(f"config: {exc}") from exc
        return partial(_run_reach, prob,
                       _get_positive(cfg, "tol", "config", 1e-8))
    if mode == "thermal":
        temperature = _get_positive(cfg, "temperature", "config")
        if "p_p" in cfg:
            p_p = _get(cfg, "p_p", float, "config")
            _expect(0.0 < p_p < 1.0, "config: 'p_p' must lie in (0, 1)")
            return partial(_run_thermal_gap, temperature, p_p)
        return partial(_run_thermal_occupancy, temperature,
                       _get(cfg, "e0", float, "config"),
                       _get(cfg, "e1", float, "config"))
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
    return partial(_run_sweep, _parse_unit(cfg, "p_s", "config"),
                   _get(cfg, "beta", float, "config", 0.0), axes, params)


def _write_result(path: Path, chunks):
    """Write the byte strings of ``chunks`` to ``path``.  Its directory is
    made only when the open finds it missing; a failed open, write or close
    is one error, and may leave a partial file."""
    try:
        try:
            fd = os.open(path, _WRITE, 0o666)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, _WRITE, 0o666)
        try:
            for chunk in chunks:
                view = memoryview(chunk)
                while view:  # a write may take only part of it
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write result: {exc}") from exc


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for dicts with plain
    ASCII keys, lists, bools, ints and finite floats (any other type raises
    TypeError); ``indent`` is the line break and indent ``value`` is on."""
    if isinstance(value, float):
        text = float.__repr__(value)  # np.float64's repr names its type
        if not math.isfinite(value):
            raise ConfigError("result has a non-finite value: Out of range "
                              f"float values are not JSON compliant: {text}")
        return text
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f'{inner}"{key}": {_json_text(value[key], inner)}'
                 for key in sorted(value)]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, list):
        items = [inner + _json_text(item, inner) for item in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


def _json_result(doc: dict):
    return ".json", [(_json_text(doc) + "\n").encode()]


# The CSV cell kernel (``_csv_cells``) gives the bytes of b"%.17g" % v.  A
# cell is _CELL bytes, NUL where it has no character:
#   [sign] ["0." and -e - 1 zeros] [d0 p0 d1 p1 ... p15 d16] [separator]
# with the 17 significant digits d_i and point slots p_i.  Read as five
# 64-bit words, a cell is gathered from one table: word 0 is "-0.000" d0 "."
# and words 1-4 hold four digits each, "." after every one.  One AND with
# the keep row of (sign, e, s), e the decimal exponent and s the count of
# significant digits left after cutting trailing zeros, clears each byte
# the cell has no character in.  The tables are built as bytes, so the AND
# does not depend on byte order, and on the first CSV result, so a JSON
# run never builds them.
_CELL = 40
_E_LO, _E_HI = -4, 15  # fixed notation for 1e-4 <= |v| < 1e16
_SPLIT = 2.0**27 + 1.0


def _halves(a):
    """Veltkamp's split a = hi + lo into two halves of 26 bits or fewer."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# 10^(16 - e) for every exponent a log10 estimate can give in range; all
# are exact doubles (<= 10^21).
_POW = np.array([float(10**(16 - e)) for e in range(_E_LO - 1, _E_HI + 2)])
_POW_HI, _POW_LO = _halves(_POW)


@cache
def _cell_tables():
    """(words, keep, sig).  Word v < 10^4 is "%04d" % v on its even bytes
    and "." on its odd ones, word 10^4 + d is "-0.000" d "."; keep[k] is
    word k of the keep row of (sign, e, s), s in [0, 17]; sig[k][v] is s
    up to the last nonzero digit of v as word k + 1's group, 0 for 0."""
    digits = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10
    words = np.full((10**4 + 10, 8), ord("."), np.uint8)
    words[:10**4, ::2] = digits + ord("0")
    words[10**4:, :6] = list(b"-0.000")
    words[10**4:, 6] = np.arange(ord("0"), ord("9") + 1)
    last = np.max((digits != 0) * np.arange(1, 5), axis=1)
    sig = np.where(last, np.arange(1, 14, 4)[:, None] + last, 0)
    keep = np.zeros((2, _E_HI - _E_LO + 1, 18, _CELL), np.uint8)
    keep[1, ..., 0] = 0xFF
    for e in range(_E_LO, _E_HI + 1):
        for s in range(18):
            row = keep[:, e - _E_LO, s]
            if e < 0:
                row[:, 1:2 - e] = 0xFF
            row[:, 6:6 + 2 * max(s, e + 1):2] = 0xFF
            if 0 <= e < s - 1:
                row[:, 7 + 2 * e] = 0xFF
    keep = keep.reshape(-1, _CELL).view(np.uint64).T.copy()
    return words.view(np.uint64).ravel(), keep, sig.astype(np.int8)


def _scaled_digits(a, e):
    """round-half-even(a 10^(16 - e)) as int64, exact.

    Dekker's two-product gives the product as hi + lo exactly; from 2^53 on
    hi is an even integer, so rounding lo alone rounds the sum."""
    k = e - (_E_LO - 1)
    hi = a * _POW[k]
    a_hi, a_lo = _halves(a)
    p_hi, p_lo = _POW_HI[k], _POW_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _csv_cells(x, out=None) -> np.ndarray:
    """The cells of float64 ``x`` as five 64-bit words each, separator byte
    NUL, written into ``out`` (shape ``x.shape + (5,)``; a new array when
    None) and returned.  Stripped of NULs each is b"%.17g" % v: zero and
    1e-4 <= |v| < 1e16 are built here, every other value by "%"."""
    shape, x = x.shape, x.reshape(-1)
    if out is None:
        out = np.empty(shape + (5,), np.uint64)
    a = np.abs(x)
    zero = a == 0.0
    fast = zero | ((a >= 1e-4) & (a < 1e16))
    a = np.where(fast & ~zero, a, 1.0)
    # the estimate is off by one at worst, next to a power of ten
    e = np.floor(np.log10(a)).astype(np.intp)
    d = _scaled_digits(a, e)
    for off, step in ((d >= 10**17, 1), (d < 10**16, -1)):
        if off.any():
            e[off] += step
            d[off] = _scaled_digits(a[off], e[off])
    d[zero] = 0
    words, keep, sig = _cell_tables()
    groups, s = [], np.ones(x.size, np.int8)  # words 4 to 1, then word 0
    for k in range(3, -1, -1):
        q = d // 10**4
        groups.append(d - q * 10**4)
        np.maximum(s, sig[k].take(groups[-1]), out=s)
        d = q
    groups.append(d + 10**4)
    row = ((np.signbit(x) * (_E_HI - _E_LO + 1) + e - _E_LO) * 18
           + s).reshape(shape)
    for k, g in enumerate(reversed(groups)):
        np.bitwise_and(words.take(g.reshape(shape)), keep[k].take(row),
                       out=out[..., k])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((b"%.17g" % v).ljust(_CELL, b"\0")
                        for v in x[slow].tolist())
        out[np.unravel_index(slow, shape)] = np.frombuffer(
            text, np.uint64).reshape(-1, 5)
    return out


def _csv_result(header: list, axes: list, columns: list):
    """``(".csv", chunks)``: float columns as CSV cells b"%.17g" % v, each
    chunk formatted only when the writer asks for it.

    ``axes`` are the value arrays of an "ij" grid, the last fastest; they
    are the first columns, and each value is formatted once.  ``columns``,
    at least one, hold a value per row.  A result with a non-finite cell
    is an error, raised before any chunk; a grid with no rows has no axis
    cells, so it writes only its header, whatever its axis values.
    """
    stack = np.column_stack(columns)
    rows, sizes = len(stack), [len(values) for values in axes]
    if not (np.all(np.isfinite(stack))
            and (rows == 0 or all(np.all(np.isfinite(v)) for v in axes))):
        raise ConfigError("result has a non-finite value")
    # the chunks refer to the stack and to the axis cells, not to the
    # inputs, so those can be freed before the write
    cells = (np.split(_csv_cells(np.concatenate(axes)),
                      np.cumsum(sizes[:-1])) if axes else [])
    strides = [math.prod(sizes[k + 1:]) for k in range(len(axes))]

    def chunks():
        yield ",".join(header).encode() + b"\n"
        for start in range(0, rows, _CSV_CHUNK):
            row = np.arange(start, min(rows, start + _CSV_CHUNK))
            words = np.empty((len(row), len(axes) + len(columns), 5),
                             np.uint64)
            _csv_cells(stack[start:start + len(row)], words[:, len(axes):])
            for j, (axis_cells, stride) in enumerate(zip(cells, strides)):
                words[:, j] = axis_cells.take(row // stride % len(axis_cells),
                                              axis=0)
            block = words.view(np.uint8)
            block[:, :, -1] = ord(",")
            block[:, -1, -1] = ord("\n")
            yield block.tobytes().translate(None, b"\0")

    return ".csv", chunks()


def _run_simulate(g, p_s, p_p, times, target):
    r, (rho00, rho11, rho10), _ = qubit.closed_form_reduced_state(
        g, times, p_s, p_p)
    radius = np.linalg.norm(r, axis=-1)
    e_plus, e_minus = 0.5 * (1.0 + radius), 0.5 * (1.0 - radius)
    opkit.require_psd(e_minus.min(initial=np.inf))
    distance = 0.5 * np.linalg.norm(r - qubit.bloch_vector(target), axis=-1)
    return 0, _csv_result(["t", "rho00", "rho11", "re_rho10", "im_rho10",
                           "e_plus", "e_minus", "trace_distance_to_target"],
                          [], [times, rho00, rho11, rho10.real, rho10.imag,
                           e_plus, e_minus, distance])


def _run_solve(p_s, target, tol):
    sol = qubit.solve_controls_numeric(p_s, target, tol)
    oracle = verify.check_solution(sol, p_s, target)
    doc = {
        "couplings": {"g1": sol.couplings.g1,
                      "g2": [sol.couplings.g2.real, sol.couplings.g2.imag],
                      "g3": sol.couplings.g3, "g4": sol.couplings.g4},
        "theta": sol.theta, "alpha": sol.alpha, "p_p": sol.p_p, "t": sol.t,
        "residual": sol.residual, "oracle_distance": oracle,
        "feasible": sol.feasible,
    }
    return (0 if sol.feasible else 2), _json_result(doc)


def _run_reach(problem, tol):
    w, residual = solve_probe_spectrum(problem)
    reachable = residual <= tol
    return (0 if reachable else 2), _json_result(
        {"probe_diagonal": list(w), "residual": residual,
         "reachable": bool(reachable)})


def _run_thermal_gap(temperature, p_p):
    return 0, _json_result({"gap": thermal.required_gap(p_p, temperature),
                            "temperature": temperature, "p_p": p_p})


def _run_thermal_occupancy(temperature, e0, e1):
    spec = thermal.ThermalSpec(e0=e0, e1=e1, temperature=temperature)
    return 0, _json_result({"p_p": thermal.thermal_occupancy(spec),
                            "gap": e1 - e0, "temperature": temperature})


def _run_sweep(p_s, beta, axes, fixed):
    names = [n for n, _ in axes]
    axis_values = [vals for _, vals in axes]
    grid = np.meshgrid(*axis_values, indexing="ij", sparse=True)
    params = dict(fixed, **dict(zip(names, grid)))
    alpha = params["alpha"]
    rho00, _, rho10 = qubit.reduced_state_closed_form(
        p_s, params["theta"], params["p_p"], np.cos(alpha) ** 2,
        np.sin(alpha) ** 2, np.sin(2.0 * alpha) * np.exp(1j * beta))
    shape = tuple(len(vals) for vals in axis_values)
    columns = [np.broadcast_to(c, shape).ravel()
               for c in (rho00, np.abs(rho10))]
    # One axis is passed as a plain column: formatted with the state
    # columns in one kernel call per chunk, it takes ~9% less format time
    # than gathered from its own cells.
    if len(axis_values) == 1:
        axis_values, columns = [], axis_values + columns
    return 0, _csv_result(names + ["rho00", "abs_rho10"], axis_values,
                          columns)


_COMMANDS = ("run", "sweep", "check")
_PARSER = argparse.ArgumentParser(
    prog="iqctl", description="Indirect quantum control experiment runner")
_PARSER.add_argument("command", choices=_COMMANDS,
                     help="run: execute a config; sweep: run a parameter "
                          "sweep config; check: validate a config without "
                          "executing")
_PARSER.add_argument("config", type=Path)
_PARSER.add_argument("--out", type=Path, default=Path("out"),
                     help="output directory (default ./out)")
_PARSER.add_argument("--quiet", action="store_true")


def _documented_args(argv):
    """``_PARSER.parse_args(argv)`` for the documented form
    ``COMMAND CONFIG`` followed by any of ``--quiet`` and ``--out DIR``,
    with neither CONFIG nor DIR starting with "-"; None for any other argv,
    which ``_PARSER`` then parses and reports."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if (len(argv) < 2 or argv[0] not in _COMMANDS
            or argv[1].startswith("-")):
        return None
    args = argparse.Namespace(command=argv[0], config=Path(argv[1]),
                              out=_PARSER.get_default("out"), quiet=False)
    options = iter(argv[2:])
    for option in options:
        if option == "--quiet":
            args.quiet = True
        elif option == "--out":
            out = next(options, "-")
            if out.startswith("-"):
                return None
            args.out = Path(out)
        else:
            return None
    return args


# An overflow reaches the user as the one error line of a finiteness check
# (on the config, a matrix or the result), not as numpy warnings.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = _documented_args(argv) or _PARSER.parse_args(argv)

    try:
        cfg = load_config(args.config)
        mode = cfg["mode"]
        if args.command == "sweep" and mode != "sweep":
            raise ConfigError(
                f"'iqctl sweep' requires mode 'sweep', got '{mode}'")
        run = validate_config(cfg)
        if args.command == "check":
            if not args.quiet:
                print(f"{args.config}: valid ({mode})")
            return 0
        code, (suffix, chunks) = run()
        out_path = args.out / (args.config.stem + suffix)
        _write_result(out_path, chunks)
        if not args.quiet:
            print(f"{mode}: wrote {out_path}")
        return code
    except IQControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
