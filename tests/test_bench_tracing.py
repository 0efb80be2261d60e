"""The benchmark's tracer (iqbench/tracing.py) wraps iqcontrol functions by
name, so every name it lists must exist on the module it names."""

import importlib.util
import sys
from pathlib import Path

from iqcontrol import cli, nlevel, opkit, qubit, thermal, verify

TRACING = Path(__file__).resolve().parents[1] / "iqbench" / "tracing.py"
MODULES = {"cli": cli, "qubit": qubit, "opkit": opkit, "nlevel": nlevel,
           "verify": verify, "thermal": thermal}


def test_wrapped_names_resolve(monkeypatch):
    # imported from its file, read-only: no bytecode is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("iqbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.WRAPPED) <= set(MODULES)
    missing = [f"{mod}.{name}" for mod, names in tracing.WRAPPED.items()
               for name in names if not callable(getattr(MODULES[mod], name, None))]
    assert missing == []
