import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import forward_reachability_instance
from iqcontrol import cli, opkit, qubit, verify
from iqcontrol.errors import IQControlError


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def simulate_config():
    return {
        "mode": "simulate",
        "couplings": {"g1": 0.2, "g2": [0.3, -0.1], "g3": 0.8, "g4": 0.4},
        "p_s": 0.3,
        "p_p": 0.7,
        "times": {"start": 0.0, "stop": 5.0, "count": 11},
    }


class TestConfigParsing:
    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "simulate",\n  oops}', encoding="utf-8")
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.load_config(tmp_path / "absent.json")

    def test_unknown_mode(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"mode": "transmute"})
        with pytest.raises(cli.ConfigError, match="transmute"):
            cli.load_config(path)

    def test_missing_key(self, tmp_path):
        doc = simulate_config()
        del doc["p_p"]
        path = write_config(tmp_path, "c.json", doc)
        with pytest.raises(cli.ConfigError, match="p_p"):
            cli.validate_config(cli.load_config(path))

    def test_probability_out_of_range(self, tmp_path):
        doc = simulate_config()
        doc["p_s"] = 1.5
        path = write_config(tmp_path, "c.json", doc)
        with pytest.raises(cli.ConfigError, match="p_s"):
            cli.validate_config(cli.load_config(path))

    def test_complex_pair_parsing(self):
        assert cli._parse_complex([1.5, -2.0], "x") == 1.5 - 2.0j
        assert cli._parse_complex(3, "x") == 3.0 + 0.0j
        with pytest.raises(cli.ConfigError):
            cli._parse_complex([1.0], "x")

    def test_ragged_matrix_rejected(self):
        with pytest.raises(cli.ConfigError, match="ragged"):
            cli._parse_matrix([[1.0, 0.0], [0.0]], "m")

    def test_bad_density_matrix_rejected(self, tmp_path):
        doc = {"mode": "solve", "p_s": 0.0,
               "target": [[1.0, 0.0], [0.0, 1.0]]}
        path = write_config(tmp_path, "c.json", doc)
        with pytest.raises(cli.ConfigError, match="target"):
            cli.validate_config(cli.load_config(path))


class TestCheckCommand:
    def test_valid_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "sim.json", simulate_config())
        assert cli.main(["check", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "sim.json", {"mode": "simulate"})
        assert cli.main(["check", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_check_writes_nothing(self, tmp_path):
        path = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "out"
        cli.main(["check", str(path), "--out", str(out)])
        assert not out.exists()


class TestRunSimulate:
    def test_output_shape_and_header(self, tmp_path):
        path = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        lines = (out / "sim.csv").read_text().splitlines()
        assert lines[0].startswith("t,rho00,rho11,re_rho10,im_rho10")
        assert len(lines) == 12

    def test_rows_match_oracle(self, tmp_path):
        # CSV entries are expressed in the conditional evolved basis;
        # rebuild the state from them and compare to the brute-force
        # oracle in the computational basis.  The eigenvalue and distance
        # columns are frame-independent and compared directly, against the
        # initial state (no target given) and against an explicit target.
        g = qubit.QubitCouplings(g1=0.2, g2=0.3 - 0.1j, g3=0.8, g4=0.4)
        sc = verify.CompositeScenario(
            dim_s=2, dim_p=2,
            h_full=verify.interaction_from_couplings(g.g1, g.g2, g.g3, g.g4),
            rho_s0=np.diag([0.7, 0.3]).astype(complex),
            rho_p0=np.diag([0.3, 0.7]).astype(complex))
        explicit = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        for target in (None, explicit):
            doc = simulate_config()
            if target is None:
                target = sc.rho_s0
            else:
                doc["target"] = [[[x.real, x.imag] for x in row]
                                 for row in target]
            path = write_config(tmp_path, "sim.json", doc)
            out = tmp_path / "out"
            cli.main(["run", str(path), "--out", str(out), "--quiet"])
            lines = (out / "sim.csv").read_text().splitlines()[1:]
            assert len(lines) == 11
            for line in lines:
                vals = [float(x) for x in line.split(",")]
                t, rho00, rho11 = vals[0], vals[1], vals[2]
                rho10 = complex(vals[3], vals[4])
                u_plus, _ = qubit.conditional_unitaries(g, t)
                psi0 = u_plus @ qubit.KET_GROUND
                psi1 = u_plus @ qubit.KET_EXCITED
                rebuilt = (rho00 * np.outer(psi0, psi0.conj())
                           + rho11 * np.outer(psi1, psi1.conj())
                           + rho10 * np.outer(psi1, psi0.conj())
                           + np.conj(rho10) * np.outer(psi0, psi1.conj()))
                oracle = verify.evolve_full(sc, t)
                np.testing.assert_allclose(rebuilt, oracle, atol=1e-10)
                e_minus, e_plus = np.linalg.eigvalsh(oracle)
                dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(oracle - target)))
                np.testing.assert_allclose(vals[5:], [e_plus, e_minus, dist],
                                           rtol=0, atol=1e-10)

    def test_one_eigendecomposition_per_run(self, tmp_path, eig_calls,
                                            monkeypatch):
        # the state and its conditional-frame columns come from one
        # closed-form evaluation of U_+ over all times, and every column
        # from its Bloch vectors: the only eigensolve left is the
        # validation of the one 2x2 target
        shapes, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        doc = dict(simulate_config(), target=[[0.4, 0.1], [0.1, 0.6]])
        path = write_config(tmp_path, "sim.json", doc)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert len(eig_calls) == 0
        assert shapes == [(2, 2)]

    def test_deterministic_reruns(self, tmp_path):
        path = write_config(tmp_path, "sim.json", simulate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", str(path), "--out", str(out_a), "--quiet"])
        cli.main(["run", str(path), "--out", str(out_b), "--quiet"])
        assert (out_a / "sim.csv").read_bytes() == (out_b / "sim.csv").read_bytes()


class TestRunSolve:
    def test_feasible_target(self, tmp_path):
        doc = {"mode": "solve", "p_s": 0.0,
               "target": [[0.25, [0.1, 0.05]], [[0.1, -0.05], 0.75]]}
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        doc_out = json.loads((out / "s.json").read_text())
        assert doc_out["feasible"] is True
        assert doc_out["oracle_distance"] <= 1e-6
        assert set(doc_out) == {"couplings", "theta", "alpha", "p_p", "t",
                                "residual", "oracle_distance", "feasible"}

    def test_infeasible_target_exit_two(self, tmp_path):
        # mixed target from a pure initial state cannot gain purity
        doc = {"mode": "solve", "p_s": 0.3,
               "target": [[1.0, 0.0], [0.0, 0.0]]}
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 2
        doc_out = json.loads((out / "s.json").read_text())
        assert doc_out["feasible"] is False


class TestSolveTargetTolerance:
    """``check`` and ``run`` accept and reject the same solve targets."""

    @staticmethod
    def target_config(defect):
        return {"mode": "solve", "p_s": 0.0,
                "target": [[0.25, [0.1, 0.05]], [[0.1, -0.05 + defect], 0.75]]}

    def test_small_defect_accepted_by_both(self, tmp_path):
        path = write_config(tmp_path, "s.json", self.target_config(5e-11))
        out = tmp_path / "out"
        assert cli.main(["check", str(path), "--quiet"]) == 0
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "s.json").read_text())["oracle_distance"] \
            <= 1e-8

    def test_large_defect_rejected_by_both(self, tmp_path):
        path = write_config(tmp_path, "s.json", self.target_config(1e-9))
        out = tmp_path / "out"
        assert cli.main(["check", str(path), "--quiet"]) == 1
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        assert not out.exists()


class TestRunReach:
    def test_reachable_instance(self, tmp_path):
        rng = np.random.default_rng(60)
        prob, _ = forward_reachability_instance(rng, 2)
        c = prob.coefficients
        doc = {
            "mode": "reach",
            "initial_weights": list(prob.initial_weights),
            "target_weights": list(prob.target_weights),
            "coefficients": [[[[c[a, j, m].real, c[a, j, m].imag]
                               for m in range(2)] for j in range(2)]
                             for a in range(2)],
        }
        path = write_config(tmp_path, "r.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        doc_out = json.loads((out / "r.json").read_text())
        assert doc_out["reachable"] is True
        assert doc_out["residual"] <= 1e-8

    def test_unreachable_instance_exit_two(self, tmp_path):
        doc = {
            "mode": "reach",
            "initial_weights": [0.6, 0.4],
            "target_weights": [1.0, 0.0],
            "coefficients": [[[1.0, 1.0], [0.0, 0.0]],
                             [[0.0, 0.0], [1.0, 1.0]]],
        }
        path = write_config(tmp_path, "r.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 2
        doc_out = json.loads((out / "r.json").read_text())
        assert doc_out["reachable"] is False


class TestRunThermal:
    def test_gap_from_occupancy(self, tmp_path):
        doc = {"mode": "thermal", "temperature": 2.0, "p_p": 0.75}
        path = write_config(tmp_path, "t.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        doc_out = json.loads((out / "t.json").read_text())
        assert doc_out["gap"] == pytest.approx(2.0 * np.log(3.0))

    def test_occupancy_from_levels(self, tmp_path):
        doc = {"mode": "thermal", "temperature": 1.0, "e0": 0.0, "e1": 1.0}
        path = write_config(tmp_path, "t.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        doc_out = json.loads((out / "t.json").read_text())
        assert doc_out["p_p"] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))

    def test_pure_occupancy_exit_one(self, tmp_path, capsys):
        doc = {"mode": "thermal", "temperature": 1.0, "p_p": 1.0}
        path = write_config(tmp_path, "t.json", doc)
        assert cli.main(["run", str(path), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def sweep_config(self):
        return {
            "mode": "sweep",
            "p_s": 0.0,
            "axes": [
                {"name": "p_p", "start": 0.0, "stop": 1.0, "count": 5},
                {"name": "alpha", "start": 0.0, "stop": 3.0, "count": 4},
            ],
            "fixed": {"theta": 0.5},
        }

    def test_row_count_matches_grid(self, tmp_path):
        path = write_config(tmp_path, "sw.json", self.sweep_config())
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out), "--quiet"]) == 0
        lines = (out / "sw.csv").read_text().splitlines()
        assert lines[0] == "p_p,alpha,rho00,abs_rho10"
        assert len(lines) == 1 + 5 * 4

    def test_sweep_command_rejects_other_modes(self, tmp_path, capsys):
        path = write_config(tmp_path, "sim.json", simulate_config())
        assert cli.main(["sweep", str(path)]) == 1
        assert "requires mode 'sweep'" in capsys.readouterr().err

    def test_run_accepts_sweep_mode(self, tmp_path):
        path = write_config(tmp_path, "sw.json", self.sweep_config())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0

    def test_missing_fixed_value(self, tmp_path):
        doc = self.sweep_config()
        doc["fixed"] = {}
        path = write_config(tmp_path, "sw.json", doc)
        with pytest.raises(cli.ConfigError, match="theta"):
            cli.validate_config(cli.load_config(path))

    def test_duplicate_axes_rejected(self, tmp_path):
        doc = self.sweep_config()
        doc["axes"].append({"name": "p_p", "start": 0.0, "stop": 1.0,
                            "count": 2})
        path = write_config(tmp_path, "sw.json", doc)
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.validate_config(cli.load_config(path))


def reach_config():
    return {"mode": "reach", "initial_weights": [0.6, 0.4],
            "target_weights": [0.5, 0.5],
            "coefficients": [[[1.0, 0.0], [0.0, 1.0]],
                             [[0.0, 1.0], [1.0, 0.0]]]}


def pairs(node):
    """Every number of a nested list as an [re, im] pair."""
    return [pairs(x) for x in node] if isinstance(node, list) else [node, 0.0]


def reach_pairs_config():
    doc = reach_config()
    return dict(doc, coefficients=pairs(doc["coefficients"]))


def exact_message_cases():
    """Malformed pair-form configs as JSON text, each with its error text."""
    entry = ("config.coefficients[1][0][1]: "
             "expected a finite number or an [re, im] pair")
    cases = {}
    for name, value in (("string", "1.5"), ("bool", True), ("null", None),
                        ("re_string", ["1.5", 0.0]), ("im_bool", [0.0, True]),
                        ("re_null", [None, 0.0]),
                        ("three_numbers", [0.0, 1.0, 0.0]),
                        ("re_401_digits", [10**400, 0.0]),
                        ("re_1e400", [12345.5, 0.0])):
        doc = reach_pairs_config()
        doc["coefficients"][1][0][1] = value
        cases[f"reach_entry_{name}"] = (
            json.dumps(doc).replace("12345.5", "1e400"), entry)
    doc = reach_pairs_config()
    del doc["coefficients"][1][0][1]
    cases["reach_short_row"] = (json.dumps(doc),
                                "config.coefficients[1]: ragged rows")
    doc = reach_pairs_config()
    del doc["coefficients"][1]
    cases["reach_missing_block"] = (
        json.dumps(doc),
        "config.coefficients: expected 1 blocks of 1x1 entries")
    cases["reach_weights_bools"] = (
        json.dumps(dict(reach_pairs_config(), initial_weights=[True, False])),
        "config.initial_weights: expected a list of finite numbers")
    cases["simulate_times_string"] = (
        json.dumps(dict(simulate_config(), times=[0.0, "1.0"])),
        "config.times: expected a list of finite numbers")
    return cases


def solve_config(**budget):
    return {"mode": "solve", "p_s": 0.0,
            "target": [[0.25, [0.1, 0.05]], [[0.1, -0.05], 0.75]],
            "budget": budget}


def sweep_config(**extra):
    return dict({"mode": "sweep", "p_s": 0.0,
                 "axes": [{"name": "p_p", "start": 0.0, "stop": 1.0,
                           "count": 3}],
                 "fixed": {"theta": 0.5, "alpha": 0.2}}, **extra)


class TestMalformedConfigs:
    """Each config fails with exit 1 and a single error line, no traceback."""

    CASES = {
        "reach_tol_list": dict(reach_config(), tol=[1]),
        "reach_tol_negative": dict(reach_config(), tol=-1),
        "reach_tol_zero": dict(reach_config(), tol=0),
        "reach_tol_infinity": dict(reach_config(), tol=float("inf")),
        "reach_weights_strings": dict(reach_config(),
                                      initial_weights=["a", "b"]),
        "reach_one_target_weight": dict(reach_config(), target_weights=[1.0]),
        "reach_three_target_weights": dict(reach_config(),
                                           target_weights=[0.5, 0.25, 0.25]),
        "solve_tol_string": solve_config(tol="abc"),
        "solve_tol_zero": solve_config(tol=0),
        "solve_tol_negative": solve_config(tol=-1e-8),
        "sweep_beta_string": sweep_config(beta="x"),
        "sweep_p_p_axis_0_3": sweep_config(
            axes=[{"name": "p_p", "start": 0, "stop": 3, "count": 4}]),
        "thermal_p_p_1_5": {"mode": "thermal", "temperature": 1, "p_p": 1.5},
        "thermal_p_p_0": {"mode": "thermal", "temperature": 1, "p_p": 0.0},
    }

    def assert_one_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rejected(self, name, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", self.CASES[name])
        out = tmp_path / "out"
        for command in ("check", "run"):
            code = cli.main([command, str(path), "--out", str(out), "--quiet"])
            self.assert_one_error(code, capsys)
            assert not out.exists()

    THERMAL = '{"mode":"thermal","temperature":%s,"e0":%s,"e1":%s}'
    NON_FINITE = {
        "e0_infinity": THERMAL % (1, "Infinity", "Infinity"),
        "e0_minus_infinity": THERMAL % (1, "-Infinity", 0),
        "temperature_nan": THERMAL % ("NaN", 0, 1),
        # finite input whose gap overflows to inf
        "gap_overflow": THERMAL % (1, "-1e308", "1e308"),
        # literals beyond the float range, and past the integer digit limit
        "e0_1e400": THERMAL % (1, "1e400", 0),
        "e0_401_digits": THERMAL % (1, "1" + "0" * 400, 0),
        "e0_5001_digits": THERMAL % (1, "1" + "0" * 5000, 0),
        "reach_tol_1e400": json.dumps(dict(reach_config(), tol=1.0)).replace(
            '"tol": 1.0', '"tol": 1e400'),
        "reach_weight_1e400": json.dumps(reach_config()).replace("0.6", "1e400"),
        # finite inputs whose results overflow, and sizes over the cap
        "sweep_alpha_1e308": json.dumps(sweep_config(
            axes=[{"name": "alpha", "start": 0, "stop": 1e308, "count": 3}],
            fixed={"theta": 0.5, "p_p": 0.3})),
        "couplings_1e200": json.dumps(dict(
            simulate_config(), couplings={"g1": 1e200, "g3": 1e200, "g4": 0})),
        "times_count_1e12": json.dumps(dict(
            simulate_config(), times={"start": 0, "stop": 1, "count": 10**12})),
        # the axis values themselves overflow: linspace gives a NaN
        "sweep_axis_span_overflow": json.dumps(sweep_config(
            axes=[{"name": "theta", "start": -1e308, "stop": 1e308,
                   "count": 3}],
            fixed={"alpha": 0.2, "p_p": 0.3})),
        "sweep_points_over_cap": json.dumps(sweep_config(
            axes=[{"name": n, "start": 0, "stop": 1, "count": 1001}
                  for n in ("alpha", "p_p")], fixed={"theta": 0.5})),
    }

    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_numbers(self, name, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(self.NON_FINITE[name], encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
        self.assert_one_error(code, capsys)
        assert not out.exists()

    EXACT = exact_message_cases()

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_exact_message(self, name, tmp_path, capsys):
        text, message = self.EXACT[name]
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        for command in ("check", "run"):
            code = cli.main([command, str(path), "--out", str(out), "--quiet"])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_valid_budget_and_beta_accepted(self, tmp_path):
        for name, doc in (("s.json", solve_config(tol=1e-9, grid=8,
                                                  max_evals=0)),
                          ("sw.json", sweep_config(beta=0.3))):
            path = write_config(tmp_path, name, doc)
            assert cli.main(["check", str(path), "--quiet"]) == 0


# The per-entry config parsers, kept as the reference that the one-pass
# parse must match: the same bytes for an array, the same message for
# malformed input.
def reference_is_number(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def reference_expect(cond, msg):
    if not cond:
        raise cli.ConfigError(msg)


def reference_numbers(val, where):
    reference_expect(isinstance(val, list)
                     and all(map(reference_is_number, val)),
                     f"{where}: expected a list of finite numbers")
    return np.array(val, dtype=float)


def reference_complex(val, where):
    if reference_is_number(val):
        return complex(val)
    reference_expect(isinstance(val, list) and len(val) == 2
                     and all(map(reference_is_number, val)),
                     f"{where}: expected a finite number or an [re, im] pair")
    return complex(val[0], val[1])


def reference_matrix(val, where):
    reference_expect(isinstance(val, list) and val,
                     f"{where}: expected a matrix")
    rows = []
    for i, row in enumerate(val):
        reference_expect(isinstance(row, list),
                         f"{where}: row {i} is not a list")
        rows.append([reference_complex(x, f"{where}[{i}][{j}]")
                     for j, x in enumerate(row)])
    reference_expect(len({len(r) for r in rows}) == 1, f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def reference_coefficients(val):
    n = len(val)
    blocks = [reference_matrix(block, f"config.coefficients[{a}]")
              for a, block in enumerate(val)]
    reference_expect(all(block.shape == (n, n) for block in blocks),
                     f"config.coefficients: expected {n} blocks of {n}x{n} "
                     "entries")
    return np.array(blocks)


def reference_target(val):
    where = "config.target"
    try:
        m = opkit.validate_density_matrix(reference_matrix(val, where),
                                          herm_tol=1e-10)
    except IQControlError as exc:
        raise cli.ConfigError(f"{where}: {exc}") from exc
    reference_expect(m.shape == (2, 2), f"{where}: must be 2x2")
    return 0.5 * (m + opkit.dag(m))


PARSERS = {
    "coefficients": (cli._parse_coefficients, reference_coefficients),
    "target": (cli._parse_target, reference_target),
    "initial_weights": (
        lambda v: cli._parse_numbers(v, "config.initial_weights"),
        lambda v: reference_numbers(v, "config.initial_weights")),
    "times": (lambda v: cli._parse_numbers(v, "config.times"),
              lambda v: reference_numbers(v, "config.times")),
}
# Leaves numpy converts where the per-entry parsers reject them, or where
# the conversion could differ: signed zero, subnormals, ints past 2**53,
# ints beyond the float range and one just above the maximum, which rounds
# down to it.
SPECIAL_LEAVES = [-0.0, 5e-324, 1e308, -1e308, sys.float_info.max, 2**53 + 1,
                  10**400, 2**1024 - 2**970 - 1, "1.5", True, None, [],
                  [0.5, 0.25, 0.125], 0.5, (0.5, 0.0), np.float64(0.5)]


def parse_outcome(parse, val):
    """Bytes of the parsed array, or the error text; under the same errstate
    as ``cli.main``."""
    try:
        with np.errstate(all="ignore"):
            a = parse(val)
    except cli.ConfigError as exc:
        return str(exc)
    return a.dtype.str, a.shape, a.tobytes()


@st.composite
def parse_documents(draw):
    """A kind of array, its JSON value, and at most one edit of a node:
    a special leaf, a dropped element or a list turned into a tuple."""
    kind = draw(st.sampled_from(sorted(PARSERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "coefficients":
        n = draw(st.integers(1, 6))
        c = rng.normal(size=(n, n, n, 2))
        c[rng.random(c.shape) < 0.2] *= 0.0  # zeros of either sign
        val = c.tolist()
    elif kind == "target":
        r = rng.normal(size=3)
        r /= max(1.0, np.linalg.norm(r) * rng.uniform(0.5, 2.0))
        m = 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]],
                            [r[0] + 1j * r[1], 1 - r[2]]])
        val = np.stack([m.real, m.imag], axis=-1).tolist()
    else:
        val = (rng.dirichlet(np.ones(draw(st.integers(1, 8))))
               * 10.0 ** draw(st.integers(-300, 300))).tolist()
    edit = draw(st.sampled_from([None, "leaf", "drop", "tuple"]))
    if edit is None:
        return kind, val
    parent, key, node = None, None, val
    for _ in range(draw(st.integers(1, 4))):
        if not isinstance(node, list) or not node:
            break
        parent, key = node, draw(st.integers(0, len(node) - 1))
        node = node[key]
    if edit == "leaf" and parent is not None:
        parent[key] = draw(st.sampled_from(SPECIAL_LEAVES))
    elif edit == "drop" and isinstance(node, list) and node:
        del node[-1]
    elif edit == "tuple" and isinstance(node, list):
        if parent is None:
            val = tuple(val)
        else:
            parent[key] = tuple(node)
    return kind, val


def reference_csv(path, header, table):
    """The per-row writer the chunked one must match byte for byte."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(r) for r in table.tolist())


class TestCsvWriter:
    """``cli._csv_result`` writes the bytes of ``reference_csv``."""

    SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0,
                        -3.0, 1e16, 0.1, 1.0 / 3.0, np.pi])

    @staticmethod
    def table(rows, cols=4):
        rng = np.random.default_rng(rows)
        t = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
            -20, 20, size=(rows, cols))
        flat = t.reshape(-1)
        flat[::3] = np.resize(TestCsvWriter.SPECIAL, flat[::3].size)
        return t

    @pytest.mark.parametrize("rows", [0, 1, cli._CSV_CHUNK - 1, cli._CSV_CHUNK,
                                      cli._CSV_CHUNK + 1])
    def test_columns_match_reference(self, rows, tmp_path):
        header = ["a", "b", "c", "d"]
        table = self.table(rows)
        reference_csv(tmp_path / "ref.csv", header, table)
        cli._csv_result(tmp_path / "new.csv", header, list(table.T))
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, cli._CSV_CHUNK + 1])
    def test_indexed_column_matches_expanded(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        values = np.concatenate([self.SPECIAL, [np.nan]])
        # the NaN is never referenced, so no cell is non-finite
        index = rng.integers(len(self.SPECIAL), size=rows)
        plain = self.table(rows, cols=2)
        header = ["x", "p", "q"]
        reference_csv(tmp_path / "ref.csv", header,
                      np.column_stack([values[index], plain]))
        cli._csv_result(tmp_path / "new.csv", header,
                        [(values, index)] + list(plain.T))
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_writes_nothing(self, bad, tmp_path):
        path = tmp_path / "c.csv"
        values, plain = np.array([0.0, bad]), np.zeros(3)
        for columns in ([(values, np.array([0, 1, 0])), plain],
                        [plain, np.array([1.0, bad, 2.0])]):
            with pytest.raises(cli.ConfigError, match="non-finite"):
                cli._csv_result(path, ["x", "y"], columns)
            assert not path.exists()


class TestArgv:
    """The command line: a command, a config, ``--out`` and ``--quiet``."""

    @pytest.mark.parametrize("command, doc", [
        ("run", simulate_config()),
        ("sweep", sweep_config()),
        ("check", simulate_config()),
    ])
    def test_command_accepts_out_and_quiet(self, command, doc, tmp_path,
                                           capsys):
        path = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert len(list(out.glob("c.*"))) == (command != "check")

    @pytest.mark.parametrize("argv", [["transmute", "c.json"], ["run"], []])
    def test_usage_errors_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage: iqctl" in capsys.readouterr().err

    def test_no_parser_built_per_call(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "c.json", simulate_config())
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(3):
            assert cli.main(["check", str(path), "--quiet"]) == 0
        assert built == []

    def test_module_entry_point(self):
        # ``python -m iqcontrol.cli`` runs with nothing on stderr
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "iqcontrol.cli", "check",
             str(root / "configs" / "solve_example.json")],
            cwd=root, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(root / "src"), os.environ.get("PYTHONPATH", "")])})
        assert proc.returncode == 0
        assert proc.stderr == ""


def numeric_leaves(node, path=()):
    """Key paths of every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        is_number = isinstance(node, (int, float)) and not isinstance(node, bool)
        return [path] if is_number else []
    return [p for key, val in items for p in numeric_leaves(val, path + (key,))]


EXAMPLES = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in
            sorted((Path(__file__).parents[1] / "configs").glob("*.json"))}
LEAVES = [(name, path) for name, doc in EXAMPLES.items()
          for path in numeric_leaves(doc)]
# Floats include NaN and +-Infinity, which json.dumps writes as constants;
# integers stay small enough that a valid count runs in milliseconds.
MUTATIONS = st.one_of(
    st.floats(), st.integers(-3, 400),
    st.sampled_from([10**6 + 1, 10**12, -10**12, 10**400, 1e308, -1e308,
                     1e200, 5e-324]))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestFuzzContract:
    """One numeric leaf of a bundled example config, mutated: exit 0, 1 or
    2, nothing escapes cli.main, exit 1 prints one error line and writes
    nothing, and every output is strict JSON or a finite CSV."""

    # A warning would print to stderr next to the error line.
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(leaf=st.sampled_from(LEAVES), value=MUTATIONS)
    @example(leaf=("sweep_example.json", ("axes", 1, "stop")), value=1e308)
    @example(leaf=("simulate_example.json", ("couplings", "g3")), value=1e200)
    @example(leaf=("simulate_example.json", ("times", "count")), value=10**12)
    def test_mutated_example_keeps_contract(self, leaf, value):
        name, path = leaf
        doc = copy.deepcopy(EXAMPLES[name])
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / name
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["run", str(cfg), "--out", str(out), "--quiet"])
            assert code in (0, 1, 2)
            written = sorted(out.glob("*")) if out.exists() else []
            if code == 1:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert not out.exists()
            for result in written:
                text = result.read_text(encoding="utf-8")
                if result.suffix == ".json":
                    json.loads(text, parse_constant=_reject_constant)
                else:
                    body = text.partition("\n")[2]
                    values = np.loadtxt(io.StringIO(body), delimiter=",",
                                        ndmin=2)
                    assert np.all(np.isfinite(values))


class TestOnePassParsing:
    """An all-pairs reach tensor parses in one pass, and every numeric array
    of a config to the bytes and error messages of the per-entry parsers."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=parse_documents())
    @example(case=("initial_weights", [0.5, 2**1024 - 2**970 - 1]))
    @example(case=("times", [1.0, sys.float_info.max]))
    @example(case=("coefficients", [[[[-0.0, -0.0]]]]))
    @example(case=("coefficients", [[[["1.5", 0.0]]]]))
    @example(case=("coefficients", [[[[0.0, True]]]]))
    @example(case=("coefficients", [[[[None, 0.0]]]]))
    @example(case=("coefficients", [[[(0.5, 0.0)]]]))
    @example(case=("coefficients", [[[[0.5, 2**1024 - 2**970 - 1]]]]))
    def test_matches_per_entry_reference(self, case):
        kind, val = case
        parse, reference = PARSERS[kind]
        assert parse_outcome(parse, val) == parse_outcome(reference, val)

    @pytest.mark.parametrize("path", [(1,), (1, 0), (1, 0, 1)])
    def test_tuples_rejected_by_validate_config(self, path):
        # numpy reads tuples as rows; the config must not
        doc = reach_pairs_config()
        parent = doc["coefficients"]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = tuple(parent[path[-1]])
        with pytest.raises(cli.ConfigError) as exc:
            cli.validate_config(doc)
        with pytest.raises(cli.ConfigError) as ref:
            reference_coefficients(doc["coefficients"])
        assert str(exc.value) == str(ref.value)

    @staticmethod
    def pair_reach_doc(n):
        prob, _ = forward_reachability_instance(np.random.default_rng(n), n)
        c = prob.coefficients
        return {"mode": "reach",
                "initial_weights": prob.initial_weights.tolist(),
                "target_weights": prob.target_weights.tolist(),
                "coefficients": np.stack([c.real, c.imag], -1).tolist()}

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_pair_reach_config_parses_in_one_pass(self, n, parse_calls):
        doc = self.pair_reach_doc(n)
        c = cli.validate_config(doc)["problem"].coefficients
        assert parse_calls == []
        assert c.tobytes() == \
            reference_coefficients(doc["coefficients"]).tobytes()

    @pytest.mark.parametrize("doc, key, calls", [
        (reach_config(), "coefficients", 8),
        (EXAMPLES["solve_example.json"], "target", 4)])
    def test_bare_reals_parse_per_entry(self, doc, key, calls, parse_calls):
        payload = cli.validate_config(copy.deepcopy(doc))
        parsed = (payload["problem"].coefficients if key == "coefficients"
                  else payload["target"])
        reference = PARSERS[key][1](doc[key])
        assert len(parse_calls) == calls
        assert parsed.tobytes() == reference.tobytes()
