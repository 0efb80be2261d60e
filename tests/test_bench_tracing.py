"""The benchmark's tracer (iqbench/tracing.py) wraps iqcontrol functions by
name, so every name it lists must exist on the module it names, and the CLI
must reach each of them through that name when it runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from iqcontrol import cli, nlevel, opkit, qubit, thermal, verify

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "iqbench" / "tracing.py"
MODULES = {"cli": cli, "qubit": qubit, "opkit": opkit, "nlevel": nlevel,
           "verify": verify, "thermal": thermal}


@pytest.fixture
def tracing(monkeypatch):
    # imported from its file, read-only: no bytecode is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("iqbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve(tracing):
    assert set(tracing.WRAPPED) <= set(MODULES)
    missing = [f"{mod}.{name}" for mod, names in tracing.WRAPPED.items()
               for name in names if not callable(getattr(MODULES[mod], name, None))]
    assert missing == []


@pytest.mark.parametrize("config, spans", [
    ("reach_example.json", {"nlevel.solve_probe_spectrum": 1}),
    ("solve_example.json", {"qubit.solve_controls_numeric": 1,
                            "verify.check_solution": 1,
                            "opkit.expm_i_hermitian": 1,
                            "opkit.eig_hermitian": 1}),
    ("thermal_example.json", {"thermal.required_gap": 1}),
])
def test_cli_run_passes_through_wrapped_names(config, spans, tracing,
                                              tmp_path):
    # a runner that bound a wrapped function at import time records nothing
    rec = tracing.Recorder()
    with tracing.traced(rec, MODULES):
        code = cli.main(["run", str(ROOT / "configs" / config),
                         "--out", str(tmp_path), "--quiet"])
    assert code == 0
    expected = {"cli.validate_config": 1, **spans}
    assert {name: rec.calls[name] for name in expected} == expected
