"""What a process imports: ``import iqcontrol`` loads only ``errors``, and a
config loads only the modules its mode calls.  What a process has loaded
is read in a fresh child process, since this one has imported every
module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iqcontrol
from iqcontrol import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Prints, as JSON, the iqcontrol submodules loaded after ``cli`` is
# imported, and after it has run the iqctl argv it was given.
MODE_CHILD = """
import json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules
                  if m.startswith("iqcontrol."))
from iqcontrol import cli
before = loaded()
assert cli.main(sys.argv[1:]) == 0
print(json.dumps([before, loaded()]))
"""

PACKAGE_CHILD = """
import json, sys
import iqcontrol
first = sorted(m for m in sys.modules if m.startswith("iqcontrol"))
listed = dir(iqcontrol)
nlevel = iqcontrol.nlevel.__name__
star = {}
exec("from iqcontrol import *", star)
print(json.dumps({"first": first, "dir": listed, "nlevel": nlevel,
                  "star": sorted(k for k in star if k != "__builtins__")}))
"""

# Loaded by ``import iqcontrol.cli`` itself.
CLI_LOADS = ["cli", "errors", "opkit"]
# config -> (what a check adds, what a run adds)
MODE_LOADS = {
    "reach_example.json": (["nlevel"], ["nlevel"]),
    "simulate_example.json": (["qubit"], ["qubit"]),
    "solve_example.json": ([], ["qubit", "verify"]),
    "sweep_example.json": ([], ["qubit"]),
    "thermal_example.json": ([], ["thermal"]),
}


def child(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_every_bundled_config_is_listed():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(MODE_LOADS)


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("config", sorted(MODE_LOADS))
def test_a_config_loads_only_its_modes_modules(config, command, tmp_path):
    after_import, after_call = child(MODE_CHILD, command, str(CONFIGS / config),
                                     "--out", str(tmp_path), "--quiet")
    assert after_import == CLI_LOADS
    added = MODE_LOADS[config][command == "run"]
    assert after_call == sorted(CLI_LOADS + added)


def test_package_loads_submodules_on_first_access():
    doc = child(PACKAGE_CHILD)
    assert doc["first"] == ["iqcontrol", "iqcontrol.errors"]
    assert doc["nlevel"] == "iqcontrol.nlevel"
    assert set(iqcontrol.__all__) <= set(doc["dir"])
    assert doc["star"] == sorted(iqcontrol.__all__)


@pytest.mark.parametrize("module", [iqcontrol, cli], ids=["iqcontrol", "cli"])
def test_an_unknown_name_is_an_attribute_error(module):
    assert not hasattr(module, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018


def test_a_loaded_name_is_not_imported_again(tmp_path, monkeypatch):
    # once every mode has run, a call only reads the names it bound
    argvs = [[command, str(path), "--out", str(tmp_path), "--quiet"]
             for path in sorted(CONFIGS.glob("*.json"))
             for command in ("check", "run")]
    for argv in argvs:
        assert cli.main(argv) == 0

    def refuse():
        raise AssertionError("a deferred name was made again")
    monkeypatch.setattr(cli, "_DEFERRED", dict.fromkeys(cli._DEFERRED, refuse))
    monkeypatch.setattr(cli, "import_module", None)
    for argv in argvs:
        assert cli.main(argv) == 0
