import argparse
import contextlib
import copy
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    KET_EXCITED,
    KET_GROUND,
    forward_reachability_instance,
    nlevel_qubit_state,
)
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


class TestValidationEdges:
    """Each size cap and closed range of ``validate_config`` admits its
    edge value.  Nothing is computed."""

    @pytest.mark.parametrize("times", [
        [0.0] * cli.MAX_ROWS, {"start": 0.0, "stop": 1.0, "count": 0},
        {"start": 0.0, "stop": 1.0, "count": cli.MAX_ROWS}],
        ids=["list_at_cap", "count_0", "count_at_cap"])
    def test_times_accepted(self, times):
        cli.validate_config(dict(simulate_config(), times=times))

    def test_times_list_over_cap_rejected(self):
        with pytest.raises(cli.ConfigError, match="more than 1000000 times"):
            cli.validate_config(dict(simulate_config(),
                                     times=[0.0] * (cli.MAX_ROWS + 1)))

    def test_sweep_grid_at_cap_accepted(self):
        # 100 x 100 x 100 points
        cli.validate_config(sweep_config(
            axes=[{"name": n, "start": 0.0, "stop": 1.0, "count": 100}
                  for n in cli.SWEEP_PARAMS], fixed={}))

    @pytest.mark.parametrize("p_p", [0.0, 1.0])
    def test_sweep_fixed_p_p_accepted(self, p_p):
        cli.validate_config(sweep_config(
            axes=[{"name": "theta", "start": 0.0, "stop": 1.0, "count": 3}],
            fixed={"alpha": 0.2, "p_p": p_p}))


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
                psi0 = u_plus @ KET_GROUND
                psi1 = u_plus @ KET_EXCITED
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

    def test_rows_match_nlevel_channel(self, tmp_path):
        # sampled rows against the N-level Kraus path, which shares no
        # kernel with the closed form: the eigenvalues and the distance
        # of its state, read by numpy's eigensolver; all 2001 rows agree
        # to 1.3e-15
        g = qubit.QubitCouplings(g1=-0.7, g2=1.1 + 0.4j, g3=0.3, g4=-0.9)
        p_s, p_p = 0.15, 0.35
        target = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]])
        doc = {"mode": "simulate",
               "couplings": {"g1": g.g1, "g2": [g.g2.real, g.g2.imag],
                             "g3": g.g3, "g4": g.g4},
               "p_s": p_s, "p_p": p_p,
               "times": {"start": 0.0, "stop": 5.0, "count": 2001},
               "target": [[[x.real, x.imag] for x in row] for row in target]}
        path = write_config(tmp_path, "sim.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(out / "sim.csv", delimiter=",", skiprows=1)
        rho_s = np.diag([1 - p_s, p_s]).astype(complex)
        rho_p = np.diag([1 - p_p, p_p]).astype(complex)
        rng = np.random.default_rng(31)
        for row in rows[rng.choice(len(rows), size=60, replace=False)]:
            rho = nlevel_qubit_state(g, row[0], rho_s, rho_p)
            e_minus, e_plus = np.linalg.eigvalsh(rho)
            dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - target)))
            np.testing.assert_allclose(row[5:], [e_plus, e_minus, dist],
                                       rtol=0, atol=1e-14)

    def test_one_eigendecomposition_per_run(self, tmp_path, eig_calls,
                                            count_calls):
        # the state and its conditional-frame columns come from one
        # closed-form evaluation of U_+ over all times, and every column
        # from its Bloch vectors; the one 2x2 target's spectrum is read in
        # closed form, so no eigensolver runs at all
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        doc = dict(simulate_config(), target=[[0.4, 0.1], [0.1, 0.6]])
        path = write_config(tmp_path, "sim.json", doc)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert len(eig_calls) == 0
        assert eigvalsh == []

    def test_no_unitary_stack_per_run(self, tmp_path, unitary_calls):
        # every column comes from the Bloch-vector closed form; U_+ is
        # never built as a matrix
        path = write_config(tmp_path, "sim.json", simulate_config())
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert unitary_calls == []

    def test_no_overlap_angles_per_run(self, tmp_path, count_calls):
        # the kernel takes the overlaps' products, not their angles
        calls = [count_calls(np, name) for name in ("arctan2", "angle")]
        path = write_config(tmp_path, "sim.json", simulate_config())
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert calls == [[], []]

    def test_unphysical_state_exit_one(self, tmp_path, monkeypatch, capsys):
        # a Bloch vector of radius 1 + 1e-9 has eigenvalue -5e-10 < PSD_FLOOR
        closed_form = qubit.closed_form_reduced_state

        def overshoot(*args):
            r, rho, overlaps = closed_form(*args)
            radius = np.linalg.norm(r, axis=-1, keepdims=True)
            return r * ((1.0 + 1e-9) / radius), rho, overlaps

        monkeypatch.setattr(qubit, "closed_form_reduced_state", overshoot)
        path = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: density matrix has eigenvalue "
                                "-5.000e-10 < -1e-10\n")
        assert not out.exists()

    @pytest.mark.parametrize("times", [
        {"start": 0.0, "stop": 1.0, "count": 0}, []])
    def test_zero_rows_write_only_the_header(self, tmp_path, times):
        # no row means no eigenvalue below the floor
        path = write_config(tmp_path, "sim.json",
                            dict(simulate_config(), times=times))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        assert (out / "sim.csv").read_bytes() == (
            b"t,rho00,rho11,re_rho10,im_rho10,e_plus,e_minus,"
            b"trace_distance_to_target\n")

    def test_nan_rows_fail_the_finiteness_check(self, tmp_path, monkeypatch,
                                                capsys):
        # a NaN e_minus passes the floor check and fails the CSV's own
        closed_form = qubit.closed_form_reduced_state

        def poisoned(*args):
            r, rho, overlaps = closed_form(*args)
            r = r.copy()
            r[3] = np.nan
            return r, rho, overlaps

        monkeypatch.setattr(qubit, "closed_form_reduced_state", poisoned)
        path = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err \
            == "error: result has a non-finite value\n"
        assert not out.exists()

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

    def test_eigensolves_per_run(self, tmp_path, eig_calls, count_calls):
        # one eigendecomposition, of the oracle's 4x4 propagator; the four
        # 2x2 spectra (the target's, checked by _parse_target and again by
        # the solver, the oracle's reduced state and the trace distance)
        # are read in closed form, with no eigvalsh call
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        path = Path(__file__).resolve().parents[1] / "configs" / \
            "solve_example.json"
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert [np.shape(a) for a, *_ in eig_calls] == [(4, 4)]
        assert eigvalsh == []


class TestDefaultTolerance:
    """Solve and reach default ``tol`` to 1e-8: a residual just above it
    exits 2, and a config with a larger ``tol``, or one equal to the
    residual, exits 0."""

    def run(self, tmp_path, doc):
        path = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
        return code, json.loads((out / "c.json").read_text())

    @pytest.mark.parametrize("extra, code",
                             [({}, 2), ({"budget": {"tol": 1e-7}}, 0)])
    def test_solve(self, extra, code, tmp_path):
        # Bloch radius m0 + 4e-8 for m0 = |1 - 2 p_s| = 0.4: the solve
        # returns the closest reachable state, 2e-8 away
        doc = {"mode": "solve", "p_s": 0.3,
               "target": [[0.70000002, 0.0], [0.0, 0.29999998]], **extra}
        got, result = self.run(tmp_path, doc)
        assert 1.5e-8 < result["residual"] < 2.5e-8
        assert (got, result["feasible"]) == (code, code == 0)

    @pytest.mark.parametrize("extra, code", [({}, 2), ({"tol": 1e-6}, 0)])
    def test_reach(self, extra, code, tmp_path):
        # rho00 reaches [0.4, 0.6] at most: a target 1e-7 beyond it leaves
        # a residual of sqrt(2) 1e-7
        doc = dict(reach_config(), target_weights=[0.6 + 1e-7, 0.4 - 1e-7],
                   **extra)
        got, result = self.run(tmp_path, doc)
        assert 1e-8 < result["residual"] <= 1e-6
        assert (got, result["reachable"]) == (code, code == 0)

    @pytest.mark.parametrize("mode", ["solve", "reach"])
    def test_residual_equal_to_tol_passes(self, mode, tmp_path):
        # the two configs above, rerun with tol set to their own residual
        if mode == "solve":
            doc = {"mode": "solve", "p_s": 0.3,
                   "target": [[0.70000002, 0.0], [0.0, 0.29999998]]}
            key, where = "feasible", doc.setdefault("budget", {})
        else:
            doc = dict(reach_config(),
                       target_weights=[0.6 + 1e-7, 0.4 - 1e-7])
            key, where = "reachable", doc
        residual = self.run(tmp_path, doc)[1]["residual"]
        where["tol"] = residual
        got, result = self.run(tmp_path, doc)
        assert result["residual"] == residual
        assert (got, result[key]) == (0, True)


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

    def test_defect_at_tolerance_accepted_by_both(self, tmp_path):
        # a Hermiticity defect of exactly 1e-10 is still accepted
        doc = {"mode": "solve", "p_s": 0.0,
               "target": [[0.5, 1e-10], [0.0, 0.5]]}
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["check", str(path), "--quiet"]) == 0
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        assert (out / "s.json").exists()

    def test_imaginary_diagonal_defect_accepted_by_both(self, tmp_path,
                                                        capsys):
        # a defect of 1e-11 on the diagonal puts 1e-11j into the trace;
        # the Hermitian part, whose trace is checked, has trace 1
        doc = {"mode": "solve", "p_s": 0.1,
               "target": [[[0.5, 1e-11], 0.0], [0.0, 0.5]]}
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["check", str(path), "--quiet"]) == 0
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "s.json").exists()

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


class TestRunStdout:
    @pytest.mark.parametrize("doc, ext", [
        (simulate_config(), "csv"),
        ({"mode": "thermal", "temperature": 2.0, "p_p": 0.75}, "json")],
        ids=["simulate", "thermal"])
    def test_one_line_naming_the_output(self, doc, ext, tmp_path, capsys):
        # without --quiet, a run reports the file it wrote and nothing else
        path = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            f"{doc['mode']}: wrote {out / ('c.' + ext)}\n", "")


class TestUnwritableOut:
    """An --out that cannot hold the result exits 1 with one error line."""

    @pytest.mark.parametrize("doc", [
        simulate_config(), {"mode": "thermal", "temperature": 2.0, "p_p": 0.75}],
        ids=["simulate", "thermal"])
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_one_error_line(self, doc, out, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        path = write_config(tmp_path, "c.json", doc)
        code = cli.main(["run", str(path), "--out", str(tmp_path / out),
                         "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot write result: ")
        assert err.count("\n") == 1
        assert afile.read_text(encoding="utf-8") == "kept\n"


class TestOutDirectory:
    """--out is made, nested if need be, only when a result is written."""

    def test_existing_out_makes_no_directory(self, tmp_path, count_calls):
        path = write_config(tmp_path, "c.json", simulate_config())
        out = tmp_path / "out"
        out.mkdir()
        mkdir = count_calls(Path, "mkdir")
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        assert mkdir == [] and (out / "c.csv").is_file()

    def test_missing_nested_out_is_made(self, tmp_path):
        path = write_config(tmp_path, "c.json", simulate_config())
        out = tmp_path / "a" / "b" / "c"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        assert (out / "c.csv").is_file()

    def test_failed_run_makes_no_out(self, tmp_path, capsys):
        doc = {"mode": "thermal", "temperature": 1.0, "p_p": 1.0}
        path = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "a" / "b"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "a").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("doc, ext", [
        (simulate_config(), "csv"),
        ({"mode": "thermal", "temperature": 2.0, "p_p": 0.75}, "json")],
        ids=["simulate", "thermal"])
    def test_failed_write_one_error_line(self, doc, ext, tmp_path, capsys):
        # the open succeeds and the write or the close finds the disk full
        path = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        out.mkdir()
        (out / f"c.{ext}").symlink_to("/dev/full")
        code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == ("error: cannot write result: "
                                           "[Errno 28] No space left on device\n")


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
        # the mode is checked before any key, so an invalid config says so too
        for doc in (simulate_config(), {"mode": "simulate"}):
            path = write_config(tmp_path, "sim.json", doc)
            assert cli.main(["sweep", str(path)]) == 1
            assert capsys.readouterr().err == (
                "error: 'iqctl sweep' requires mode 'sweep', got 'simulate'\n")

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

    # Pauli literals ({|1>, |0>} ordering), independent of qubit.
    SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    SM = SP.T.copy()

    def oracle_row(self, p_s, beta, theta, alpha, p_p):
        """(rho00, |rho10|) of a physical realization of one sweep row.

        With g1 = 0, g2 = sin(beta) - i cos(beta), (g3, g4) = (sin, cos) of
        theta and t = alpha/2, the system factor is a unit axis and U_+^2
        has overlap angles (alpha, beta).  The columns depend on alpha only
        through cos^2 and |sin 2 alpha|, so alpha is folded into [0, pi/2]
        first.  The brute-force state is rotated into the basis
        (U_+|1>, U_+|0>) by an independent 2x2 exponential.
        """
        g2 = complex(np.sin(beta), -np.cos(beta))
        t = 0.5 * np.arctan2(abs(np.sin(alpha)), abs(np.cos(alpha)))
        sc = verify.CompositeScenario(
            dim_s=2, dim_p=2,
            h_full=verify.interaction_from_couplings(
                0.0, g2, np.sin(theta), np.cos(theta)),
            rho_s0=np.diag([1.0 - p_s, p_s]).astype(complex),
            rho_p0=np.diag([1.0 - p_p, p_p]).astype(complex))
        u_plus = opkit.expm_i_hermitian(g2 * self.SP + np.conj(g2) * self.SM,
                                        t)
        rho_c = opkit.dag(u_plus) @ verify.evolve_full(sc, t) @ u_plus
        return rho_c[1, 1].real, abs(rho_c[0, 1])

    @pytest.mark.parametrize("doc", [
        {"p_s": 0.0, "beta": 0.4, "fixed": {"theta": 0.5, "alpha": 2.2},
         "axes": [{"name": "p_p", "start": 0.0, "stop": 1.0, "count": 7}]},
        {"p_s": 0.3, "beta": -2.5, "fixed": {"theta": -1.1},
         "axes": [{"name": "alpha", "start": -1.0, "stop": 4.0, "count": 9},
                  {"name": "p_p", "start": 1.0, "stop": 0.0, "count": 5}]},
        {"p_s": 1.0, "fixed": {},
         "axes": [{"name": "theta", "start": -4.0, "stop": 4.0, "count": 6},
                  {"name": "p_p", "start": 0.0, "stop": 1.0, "count": 3},
                  {"name": "alpha", "start": 0.0, "stop": 3.5, "count": 5}]},
        {"p_s": 0.5, "beta": 1.0, "fixed": {"p_p": 0.25},
         "axes": [{"name": "alpha", "start": 0.0, "stop": 3.0, "count": 4},
                  {"name": "theta", "start": 0.0, "stop": 3.0, "count": 4}]},
    ], ids=["one_axis", "two_axes", "three_axes", "p_s_half"])
    def test_rows_match_oracle(self, doc, tmp_path):
        path = write_config(tmp_path, "sw.json", dict(doc, mode="sweep"))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out), "--quiet"]) == 0
        lines = (out / "sw.csv").read_text().splitlines()
        names = [ax["name"] for ax in doc["axes"]]
        assert lines[0] == ",".join(names + ["rho00", "abs_rho10"])
        assert len(lines) == 1 + np.prod([ax["count"] for ax in doc["axes"]])
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            params = dict(doc["fixed"], **dict(zip(names, vals)))
            expected = self.oracle_row(doc["p_s"], doc.get("beta", 0.0),
                                       params["theta"], params["alpha"],
                                       params["p_p"])
            np.testing.assert_allclose(vals[-2:], expected, rtol=0, atol=1e-10)

    # Grids the benchmark never draws: an axis of one value after, before
    # and between longer ones, over a chunk end in two of them.
    EDGE_AXES = {
        "a_1": [("alpha", -1.0, 4.0, cli._CSV_CHUNK + 1), ("p_p", 0.3, 0.3, 1)],
        "1_b": [("theta", 0.7, 0.7, 1), ("alpha", 0.0, 3.0, 7)],
        "a_1_c": [("theta", -4.0, 4.0, 9), ("p_p", 0.6, 0.6, 1),
                  ("alpha", 0.0, 3.5, 500)],
    }

    @pytest.mark.parametrize("name", sorted(EDGE_AXES))
    def test_edge_shapes_match_expanded(self, name, tmp_path):
        axes = [dict(zip(("name", "start", "stop", "count"), ax))
                for ax in self.EDGE_AXES[name]]
        names = [ax["name"] for ax in axes]
        fixed = {k: v for k, v in zip(cli.SWEEP_PARAMS, (0.5, 2.2, 0.25))
                 if k not in names}
        path = write_config(tmp_path, "sw.json", {
            "mode": "sweep", "p_s": 0.3, "beta": -2.5, "axes": axes,
            "fixed": fixed})
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out), "--quiet"]) == 0
        # the axis columns from the expanded grid, the state columns as the
        # closed form gives them on its sparse grid
        values = [np.linspace(ax["start"], ax["stop"], ax["count"])
                  for ax in axes]
        params = dict(fixed, **dict(zip(names, np.meshgrid(
            *values, indexing="ij", sparse=True))))
        alpha = params["alpha"]
        rho00, _, rho10 = qubit.reduced_state_closed_form(
            0.3, params["theta"], params["p_p"], np.cos(alpha) ** 2,
            np.sin(alpha) ** 2, np.sin(2.0 * alpha) * np.exp(1j * -2.5))
        shape = [ax["count"] for ax in axes]
        reference_csv(tmp_path / "ref.csv", names + ["rho00", "abs_rho10"],
                      np.column_stack(expanded(values) + [
                          np.broadcast_to(c, shape).ravel()
                          for c in (rho00, np.abs(rho10))]))
        assert (out / "sw.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    def test_one_axis_is_a_plain_column(self, tmp_path, count_calls):
        # formatted with the state columns, in one kernel call per chunk
        kernel = count_calls(cli, "_csv_cells")
        path = write_config(tmp_path, "sw.json", sweep_config())
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert [args[0].shape for args in kernel] == [(3, 3)]

    def test_zero_count_axis_writes_the_header(self, tmp_path, capsys):
        # the other axis's values overflow, but no row shows them
        path = write_config(tmp_path, "sw.json", sweep_config(axes=[
            {"name": "theta", "start": -1e308, "stop": 1e308, "count": 3},
            {"name": "alpha", "start": 0.0, "stop": 1.0, "count": 0}],
            fixed={"p_p": 0.3}))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out), "--quiet"]) == 0
        assert (out / "sw.csv").read_bytes() == b"theta,alpha,rho00,abs_rho10\n"
        assert capsys.readouterr() == ("", "")


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
    for key in ("initial_weights", "target_weights"):
        cases[f"reach_{key}_not_a_distribution"] = (
            json.dumps(dict(reach_pairs_config(), **{key: [0.7, 0.7]})),
            f"config: {key.split('_')[0]} weights are not a distribution")
    doc = reach_config()
    doubled = (2.0 * np.array(doc["coefficients"])).tolist()
    cases["reach_columns_not_unit_norm"] = (
        json.dumps(dict(doc, coefficients=pairs(doubled))),
        "config: coefficient columns are not unit norm")
    cases["thermal_p_p_1"] = (
        json.dumps({"mode": "thermal", "temperature": 1, "p_p": 1.0}),
        "config: 'p_p' must lie in (0, 1)")
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
        "sweep_two_axes_span_overflow": json.dumps(sweep_config(
            axes=[{"name": "theta", "start": -1e308, "stop": 1e308,
                   "count": 3},
                  {"name": "alpha", "start": 0, "stop": 1, "count": 2}],
            fixed={"p_p": 0.3})),
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

    # Bytes that do not decode, or that nest past the parser's depth.
    RAW = {
        "non_utf8_byte": (
            b'{"mode": "thermal", "temperature": 1, "p_p": 0.5\xff}',
            "cannot read config: 'utf-8' codec can't decode byte 0xff"),
        "arrays_nested_100000_deep": (
            b'{"mode": "sweep", "axes": ' + b"[" * 10**5 + b"]" * 10**5
            + b"}", "invalid JSON: maximum recursion depth exceeded"),
    }

    @pytest.mark.parametrize("name", sorted(RAW))
    def test_unreadable_bytes(self, name, tmp_path, capsys):
        data, message = self.RAW[name]
        path = tmp_path / "c.json"
        path.write_bytes(data)
        out = tmp_path / "out"
        for command in ("check", "run"):
            code = cli.main([command, str(path), "--out", str(out), "--quiet"])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(f"error: {message}")
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("name", ["gap_overflow", "sweep_alpha_1e308"])
    def test_check_computes_nothing(self, name, tmp_path, capsys):
        # the input is finite and only the result overflows, so it is valid
        path = tmp_path / "c.json"
        path.write_text(self.NON_FINITE[name], encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["check", str(path), "--out", str(out), "--quiet"]) == 0
        code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
        self.assert_one_error(code, capsys)
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


def csv_bytes(header, axes, columns):
    """The bytes of ``cli._csv_result``'s chunks, checking its suffix."""
    suffix, chunks = cli._csv_result(header, axes, columns)
    assert suffix == ".csv"
    return b"".join(chunks)


def expanded(axes):
    """One column per axis: the rows of their "ij" grid, the last axis
    fastest."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


class TestCsvWriter:
    """``cli._csv_result`` gives the bytes of ``reference_csv``."""

    SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0,
                        -3.0, 1e16, 0.1, 1.0 / 3.0, np.pi])
    # the special values and values of the kernel's "%" fallback
    AXIS = np.concatenate([SPECIAL, [3e-5, -7e17, 1e20, -2.5e-9]])

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
        assert csv_bytes(header, [], list(table.T)) \
            == (tmp_path / "ref.csv").read_bytes()

    def axis(self, n, rng):
        """``n`` axis values: the special and fallback ones, then random
        ones from 1e-8 to 1e20 in magnitude, shuffled."""
        pool = np.concatenate([self.AXIS, rng.uniform(-1.0, 1.0, n)
                               * 10.0 ** rng.integers(-8, 20, n)])
        return rng.permutation(pool[:max(n, len(self.AXIS))])[:n]

    # Grids of one, two and three axes per row count; an axis of one value
    # sits after, before and between longer ones.
    GRIDS = {0: [(0,), (3, 0), (2, 0, 3)],
             1: [(1,), (1, 1), (1, 1, 1)],
             cli._CSV_CHUNK + 1: [(4097,), (17, 241), (1, 4097), (17, 1, 241),
                                  (4097, 1)]}

    @pytest.mark.parametrize("rows", sorted(GRIDS))
    def test_indexed_column_matches_expanded(self, rows, tmp_path):
        # an axis column is indexed by the row: row r holds the value at
        # r // stride % len(values)
        for shape in self.GRIDS[rows]:
            assert math.prod(shape) == rows
            rng = np.random.default_rng([rows, *shape])
            axes = [self.axis(n, rng) for n in shape]
            if rows == 0:  # a grid with no rows shows none of its values
                axes[0][:1] = np.nan
            plain = self.table(rows, cols=2)
            header = [f"x{k}" for k in range(len(shape))] + ["p", "q"]
            reference_csv(tmp_path / "ref.csv", header,
                          np.column_stack(expanded(axes) + list(plain.T)))
            assert csv_bytes(header, axes, list(plain.T)) \
                == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def assert_cells_match_percent(x):
        # one cell per line, each b"%.17g" % v
        assert csv_bytes(["x"], [], [x]) \
            == b"x\n" + b"".join(b"%.17g\n" % v for v in x.tolist())

    def test_random_doubles_in_every_binade(self):
        # 2^20 doubles of either sign: half with an exponent field drawn
        # over every finite binade (subnormals included), half over the
        # binades that overlap [1e-4, 1e16)
        rng = np.random.default_rng(20)
        n = 1 << 20
        exponent = np.concatenate([rng.integers(0, 2047, n // 2),
                                   rng.integers(1023 - 14, 1023 + 54, n // 2)])
        bits = ((rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63))
                | (exponent.astype(np.uint64) << np.uint64(52))
                | rng.integers(0, 1 << 52, n, dtype=np.uint64))
        self.assert_cells_match_percent(bits.view(np.float64))

    def test_neighbours_of_powers_of_ten(self):
        # 1 ulp either side of 10^k, k = -5..17, and of the fixed-notation
        # range ends 1e-4 and 1e16 themselves
        centres = np.array([float(10**k) if k >= 0 else 10.0**k
                            for k in range(-5, 18)] + [1e-4, 1e16])
        x = np.concatenate([np.nextafter(centres, 0.0), centres,
                            np.nextafter(centres, np.inf)])
        self.assert_cells_match_percent(np.concatenate([x, -x]))

    def test_low_exponent_estimate_is_corrected(self, monkeypatch):
        # a log10 one too low gives 18 digits, 10^17 itself for a = 1.0 or
        # 10.0, which the kernel must move up one decade
        rng = np.random.default_rng(23)
        centres = np.array([float(10**k) if k >= 0 else 10.0**k
                            for k in range(-4, 16)])
        x = np.concatenate([np.nextafter(centres, 0.0), centres,
                            np.nextafter(centres, np.inf),
                            10.0 ** rng.uniform(-4.0, 16.0, 10**4)])
        x = x[(x >= 1e-4) & (x < 1e16)]
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) - 1.0)
        self.assert_cells_match_percent(x)

    def test_exact_ties_round_to_even(self):
        # m + t/2^j with m of 18 - j digits has exactly 18 significant
        # digits, the last a 5: a tie at the 17th, e.g. 1234567890123456.25
        # -> ...56.2 and .75 -> ...56.8
        rng = np.random.default_rng(21)
        x = [1234567890123456.25, 1234567890123456.75]
        for j in range(2, 18):
            lo, hi = 10**(17 - j), min(10**(18 - j), 2**(53 - j))
            m = rng.integers(lo, hi, 200)
            t = 2 * rng.integers(0, 2**(j - 1), 200) + 1
            x.extend((m + t / 2.0**j).tolist())
        x = np.array(x)
        assert len({(b"%.18g" % v)[-1:] for v in x.tolist()}) == 1  # all 5
        self.assert_cells_match_percent(np.concatenate([x, -x]))

    @staticmethod
    def exponent_and_digits(v):
        """(e, s) of b"%.17g" % v in fixed notation: the decimal exponent
        and the count of significant digits."""
        text = b"%.17g" % abs(v)
        digits = text.replace(b".", b"").lstrip(b"0")
        e = (len(digits) - len(text) + 1 if text.startswith(b"0.")
             else len(text.split(b".")[0]) - 1)
        return e, len(digits.rstrip(b"0"))

    def test_every_sign_exponent_and_digit_count(self):
        # all 2 x 20 x 17 (sign, e, s) a fixed-notation cell can have;
        # candidates are D 10^(e - s + 1), D of s digits with a nonzero
        # last one, and dyadic m / 2^j, each kept when its %.17g shows the
        # e and s it was made for
        rng = np.random.default_rng(27)
        candidates = []
        for e in range(cli._E_LO, cli._E_HI + 1):
            for s in range(1, 18):
                d = (rng.integers(10**(s - 1), 10**s, 100) // 10 * 10
                     + rng.integers(1, 10, 100))
                candidates += [(float(f"{D}e{e - s + 1}"), e, s)
                               for D in d.tolist()]
        for j in range(24):
            for m in (2 * rng.integers(0, 2**11, 50) + 1).tolist():
                s = len(str(m * 5**j))
                if s - 1 - j >= cli._E_LO:
                    candidates.append((m / 2.0**j, s - 1 - j, s))
        x = np.array([v for v, e, s in candidates
                      if self.exponent_and_digits(v) == (e, s)])
        x = np.concatenate([x, -x])
        rows = {(v < 0, *self.exponent_and_digits(v)) for v in x.tolist()}
        assert rows == {(sign, e, s) for sign in (False, True)
                        for e in range(cli._E_LO, cli._E_HI + 1)
                        for s in range(1, 18)}
        assert len(rows) == 680
        self.assert_cells_match_percent(x)

    def test_special_values(self):
        # zeros, subnormals, +-1e300 and the normal range's ends
        self.assert_cells_match_percent(np.concatenate([self.SPECIAL, [
            2.2250738585072009e-308, -2.2250738585072014e-308,
            1.7976931348623157e308]]))

    def test_fast_and_fallback_cells_in_one_csv(self, tmp_path):
        # cells of the kernel's fixed notation and of its "%" fallback
        # (|v| from 1e-8 to 1e20), zeros of both signs, and two axes
        # holding both kinds, over more than one chunk
        rng = np.random.default_rng(22)
        axes = [np.array([3e-5, 0.25, -7e17, 0.0]),
                rng.uniform(-1.0, 1.0, 1025) * 10.0 ** rng.integers(-8, 20,
                                                                    1025)]
        rows = 4 * 1025
        scale = 10.0 ** rng.integers(-8, 20, size=(rows, 3))
        table = np.column_stack([
            rng.uniform(-1.0, 1.0, (rows, 3)) * scale,
            np.where(rng.integers(2, size=rows), 0.0, -0.0),
            rng.uniform(1e-4, 1.0, rows)])
        header = ["x", "y", "a", "b", "c", "z", "u"]
        reference_csv(tmp_path / "ref.csv", header,
                      np.column_stack(expanded(axes) + list(table.T)))
        assert csv_bytes(header, axes, list(table.T)) \
            == (tmp_path / "ref.csv").read_bytes()

    def test_three_axes_over_two_chunk_ends(self, tmp_path, count_calls):
        # axes of 13, 6 and 107 values: the first holds the special ones,
        # the second "%" fallback cells and zeros of both signs; three
        # columns after them
        rng = np.random.default_rng(30)
        axes = [np.concatenate([self.SPECIAL, [2.5e-310]]),
                np.array([3e-5, -7e17, 0.0, -0.0, 0.25, -1.5]),
                rng.uniform(-1.0, 1.0, 107)]
        rows = 13 * 6 * 107
        plain = self.table(rows, cols=3)
        header = [f"c{j}" for j in range(6)]
        reference_csv(tmp_path / "ref.csv", header,
                      np.column_stack(expanded(axes) + list(plain.T)))
        kernel = count_calls(cli, "_csv_cells")
        assert csv_bytes(header, axes, list(plain.T)) \
            == (tmp_path / "ref.csv").read_bytes()
        # every axis value in the first call, then one call per chunk
        assert [args[0].shape for args in kernel] \
            == [(126,), (cli._CSV_CHUNK, 3), (cli._CSV_CHUNK, 3),
                (rows - 2 * cli._CSV_CHUNK, 3)]

    def test_tables_built_on_first_csv_result(self, tmp_path):
        tables = (cli._cell_tables,)
        for table in tables:
            table.cache_clear()
        out = str(tmp_path / "out")
        json_run = write_config(tmp_path, "s.json", solve_config())
        assert cli.main(["run", str(json_run), "--out", out, "--quiet"]) == 0
        assert [t.cache_info().currsize for t in tables] == [0]
        csv_run = write_config(tmp_path, "w.json", sweep_config())
        assert cli.main(["sweep", str(csv_run), "--out", out, "--quiet"]) == 0
        assert [t.cache_info().currsize for t in tables] == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_writes_nothing(self, bad):
        # the formatter raises when called, before any chunk is made; that
        # main then writes nothing is TestRunReturnsResult's non_finite_csv
        for axes, column in (([np.array([0.0, bad]), np.zeros(3)],
                              np.zeros(6)),
                             ([], np.array([1.0, bad, 2.0]))):
            with pytest.raises(cli.ConfigError, match="non-finite"):
                cli._csv_result(["x"] * (len(axes) + 1), axes, [column])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_a_later_chunk_raises_on_call(self, bad):
        # the single finiteness pass covers rows past the first chunk
        rows = 2 * cli._CSV_CHUNK
        plain = self.table(rows, cols=3)
        plain[cli._CSV_CHUNK + 1, -1] = bad
        for axes in ([self.SPECIAL[:2], np.linspace(0.0, 1.0, rows // 2)],
                     []):
            with pytest.raises(cli.ConfigError, match="non-finite"):
                cli._csv_result(["x"] * (len(axes) + 3), axes,
                                list(plain.T))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command, doc", [
        ("run", dict(simulate_config(),
                     times={"start": 0.0, "stop": 5.0,
                            "count": cli._CSV_CHUNK + 2})),
        ("sweep", sweep_config(axes=[
            {"name": "p_p", "start": 0.0, "stop": 1.0, "count": 65},
            {"name": "alpha", "start": 0.0, "stop": 3.0, "count": 64}]))])
    def test_non_finite_in_a_later_chunk_writes_nothing(
            self, bad, command, doc, tmp_path, monkeypatch, capsys):
        csv_result = cli._csv_result

        def poisoned(header, axes, columns):
            columns[-1] = columns[-1].copy()
            columns[-1][cli._CSV_CHUNK + 1] = bad
            return csv_result(header, axes, columns)
        monkeypatch.setattr(cli, "_csv_result", poisoned)
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        assert cli.main([command, str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr() \
            == ("", "error: result has a non-finite value\n")


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

    @pytest.mark.parametrize("argv", [
        ["run", "c.json"], ["check", "c.json", "--quiet"],
        ["sweep", "c.json", "--out", "d"],
        ["run", "c.json", "--out", "d", "--quiet"],  # the benchmark's form
        ["run", "c.json", "--quiet", "--out", "a", "--out", ""]])
    def test_documented_forms_read_directly(self, argv):
        assert cli._documented_args(argv) == cli._PARSER.parse_args(argv)

    TOKENS = ["run", "sweep", "check", "transmute", "c.json", "d", "", "-",
              "--", "-5", "-h", "--out", "--out=d", "--o", "--quiet", "--qu"]
    # any 0-6 tokens, or a command, a config and two option groups near
    # the documented ones, so that both outcomes are drawn often
    ARGV = st.lists(st.sampled_from(TOKENS), max_size=6) | st.builds(
        lambda command, config, groups: [command, config, *chain(*groups)],
        st.sampled_from(TOKENS[:3]), st.sampled_from(["c.json", ""]),
        st.lists(st.sampled_from([["--quiet"], ["--out", "d"], ["--out", ""],
                                  ["--out", "-"], ["--out"], ["--qu"],
                                  ["--out=d"], ["--"]]), max_size=2))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(argv=ARGV)
    @example(argv=["run", "c.json", "--out=d", "d"])
    def test_direct_read_is_argparse_or_none(self, argv):
        # argparse parses, and reports, every form the direct read leaves
        args = cli._documented_args(argv)
        assert args is None or args == cli._PARSER.parse_args(argv)

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
        assert proc.stdout.endswith("solve_example.json: valid (solve)\n")


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
        problem, _ = cli.validate_config(doc).args
        c = problem.coefficients
        assert parse_calls == []
        assert c.tobytes() == \
            reference_coefficients(doc["coefficients"]).tobytes()

    @pytest.mark.parametrize("doc, key, calls", [
        (reach_config(), "coefficients", 8),
        (EXAMPLES["solve_example.json"], "target", 4)])
    def test_bare_reals_parse_per_entry(self, doc, key, calls, parse_calls):
        # the run's bound arguments: (problem, tol) or (p_s, target, tol)
        args = cli.validate_config(copy.deepcopy(doc)).args
        parsed = (args[0].coefficients if key == "coefficients"
                  else args[1])
        reference = PARSERS[key][1](doc[key])
        assert len(parse_calls) == calls
        assert parsed.tobytes() == reference.tobytes()


class TestRunReturnsResult:
    """A run returns its exit code and (suffix, chunks); ``main`` writes
    them with one ``_write_result`` call, and a failed run makes none."""

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_run_returns_what_main_writes(self, name, tmp_path):
        code, (suffix, chunks) = cli.validate_config(
            copy.deepcopy(EXAMPLES[name]))()
        cfg = write_config(tmp_path, name, EXAMPLES[name])
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out), "--quiet"]) == code
        assert [p.name for p in out.iterdir()] == [cfg.stem + suffix]
        assert (out / (cfg.stem + suffix)).read_bytes() == b"".join(chunks)

    @pytest.mark.parametrize("doc, code, name", [
        (simulate_config(), 0, "c.csv"),
        ({"mode": "solve", "p_s": 0.5, "target": [[1.0, 0.0], [0.0, 0.0]]},
         2, "c.json"),
        ({"mode": "thermal", "temperature": 1.0, "p_p": 1.0}, 1, None),
        ({"mode": "thermal", "temperature": 1.0, "e0": -1e308, "e1": 1e308},
         1, None),
        (dict(simulate_config(), couplings={"g1": 1e200, "g3": 1e200,
                                            "g4": 0}), 1, None)],
        ids=["simulate", "infeasible_solve", "failed_run", "non_finite_json",
             "non_finite_csv"])
    def test_one_write_per_completed_run(self, doc, code, name, tmp_path,
                                         count_calls, capsys):
        write = count_calls(cli, "_write_result")
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out), "--quiet"]) == code
        assert [args[0] for args in write] == ([] if name is None
                                               else [out / name])
        assert capsys.readouterr().err.startswith("error: ") == (code == 1)


# Result documents: finite floats (np.float64, -0.0 and subnormals among
# them), bools and ints in nested dicts and lists; keys are plain names.
JSON_KEYS = st.text("abcdefghijklmnopqrstuvwxyzAZ_019", max_size=6)
JSON_TREES = st.recursive(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
              st.sampled_from([-0.0, 5e-324, 2.5e-310, -1e-320, 1e16, 1e-5,
                               np.float64(1e16), np.float64(-0.0)]),
              st.booleans(), st.integers()),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(JSON_KEYS, children, max_size=4)),
    max_leaves=20)


class TestJsonResult:
    """A JSON result is the text of ``json.dumps(doc, sort_keys=True,
    indent=2)`` and a line break, built without the json encoder."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(JSON_KEYS, JSON_TREES, max_size=5))
    @example({})
    @example({"empty": {}, "none": [], "nested": [[], {}, [{}], {"a": []}]})
    @example({"b": True, "f": False, "i": -7, "big": 10**30, "z": 0})
    def test_text_is_json_dumps(self, doc):
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert cli._json_result(doc) == (".json", [text.encode()])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["scalar", "nested"])
    def test_non_finite_value_exits_one(self, bad, where, tmp_path,
                                        monkeypatch, capsys):
        # the error line is the one the json encoder's ValueError gives
        # for a float; an np.float64 reads as one
        if where == "scalar":
            monkeypatch.setattr(cli.thermal, "required_gap",
                                lambda p_p, temperature: bad)
            name, value = "thermal_example.json", bad
        else:
            monkeypatch.setattr(cli, "solve_probe_spectrum",
                                lambda problem: (np.array([0.5, bad]), 0.0))
            name, value = "reach_example.json", [0.5, bad]
        with pytest.raises(ValueError) as old:
            json.dumps({"x": value}, indent=2, allow_nan=False)
        cfg = write_config(tmp_path, name, EXAMPLES[name])
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr() == (
            "", f"error: result has a non-finite value: {old.value}\n")
        assert not out.exists()

    def test_non_finite_probe_weight_names_no_type(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve_probe_spectrum", lambda problem: (
            [0.5, np.float64("nan")], 0.0))
        cfg = write_config(tmp_path, "r.json", EXAMPLES["reach_example.json"])
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr() == ("", (
            "error: result has a non-finite value: Out of range float "
            "values are not JSON compliant: nan\n"))
        assert not out.exists()


class TestReadConfig:
    """A config is read to EOF with os.read, and a failed read is one
    ``cannot read config`` line that names the path as open() did."""

    def test_directory_names_its_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("check", "run"):
            assert cli.main([command, str(tmp_path), "--out", str(out),
                             "--quiet"]) == 1
            assert capsys.readouterr().err == (
                "error: cannot read config: [Errno 21] Is a directory: "
                f"{str(tmp_path)!r}\n")
        assert not out.exists()

    def test_regular_file_reads_its_size_plus_one(self, tmp_path,
                                                  count_calls):
        # the second read only sees EOF; no read asks for more than the
        # file's size and one byte
        path = write_config(tmp_path, "c.json", simulate_config())
        reads = count_calls(os, "read")
        assert cli.load_config(path) == simulate_config()
        size = path.stat().st_size
        assert [n for _, n in reads] == [size + 1, size + 1]

    def test_short_reads_load_the_whole_config(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "c.json", simulate_config())
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 7)))
        assert cli.load_config(path) == simulate_config()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_fifo_reads_to_eof(self, tmp_path):
        # a pipe has no size, and this text is more than one pipe buffer
        fifo = tmp_path / "c.json"
        os.mkfifo(fifo)
        text = json.dumps(simulate_config()) + " " * 200_000
        writer = threading.Thread(target=fifo.write_text, args=(text,),
                                  daemon=True)
        writer.start()
        try:
            assert cli.load_config(fifo) == simulate_config()
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


class TestWriteLoop:
    """``_write_result`` writes each chunk with os.write until all of it is
    taken, and closes the file whatever happens."""

    @pytest.mark.parametrize("doc, name", [
        (dict(simulate_config(), times={"start": 0.0, "stop": 5.0,
                                        "count": cli._CSV_CHUNK + 3}),
         "c.csv"),
        (EXAMPLES["solve_example.json"], "c.json")], ids=["csv", "json"])
    def test_short_writes_give_the_same_bytes(self, doc, name, tmp_path,
                                              monkeypatch):
        cfg = write_config(tmp_path, "c.json", doc)
        argv = ["run", str(cfg), "--quiet", "--out"]
        assert cli.main(argv + [str(tmp_path / "whole")]) == 0
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
        assert cli.main(argv + [str(tmp_path / "short")]) == 0
        assert (tmp_path / "short" / name).read_bytes() \
            == (tmp_path / "whole" / name).read_bytes()

    def test_failing_chunks_close_the_file(self, tmp_path, count_calls):
        def chunks():
            yield b"first\n"
            raise RuntimeError("formatter failed")
        closed = count_calls(os, "close")
        with pytest.raises(RuntimeError, match="formatter failed"):
            cli._write_result(tmp_path / "c.csv", chunks())
        assert len(closed) == 1
        with pytest.raises(OSError):
            os.fstat(closed[0][0])
        assert (tmp_path / "c.csv").read_bytes() == b"first\n"


def test_json_runs_leave_no_reference_cycles(tmp_path):
    # with the collector off, garbage in cycles would stay for gc.collect
    argvs = []
    for name in ("solve_example.json", "reach_example.json",
                 "thermal_example.json"):
        cfg = write_config(tmp_path, name, EXAMPLES[name])
        argvs.append(["run", str(cfg), "--out", str(tmp_path / "out"),
                      "--quiet"])
    for argv in argvs:  # first-call set-up, and the output files
        cli.main(argv)
    gc.collect()
    gc.disable()
    try:
        for argv in argvs * 50:
            cli.main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
