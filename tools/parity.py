"""Output parity of iqctl between a git revision and the working tree.

    python tools/parity.py d52662e

The script extracts the revision with ``git archive`` into a temporary
directory and makes one list of iqctl invocations:

* every config of the four benchmark workloads at seeds 0-2, generated by
  ``iqbench/workloads.py`` of the working tree, under its own command;
* each ``configs/*.json`` of the working tree under ``run``, ``sweep`` and
  ``check``;
* the sweeps of ``EDGE_SWEEPS`` under ``sweep``: grid shapes the
  benchmark never draws;
* the simulates of ``EDGE_SIMULATES`` under ``run``: zero time rows, as
  a range of count 0 and as an empty list, and couplings whose result
  overflows, so a simulate column's error line is compared;
* the configs of ``EDGE_JSON`` under ``run``: a result whose JSON key
  overflows, so its error line is compared;
* each malformed config of ``CASES`` in ``tests/malformed_configs.py``
  of the working tree under ``check`` and ``run``,
  so error lines and exit codes are compared too;
* command lines outside the documented ``COMMAND CONFIG`` form with
  ``--quiet`` and ``--out DIR``, which argparse parses and reports (see
  ``argv_variants``): options before the positionals, ``--out=DIR``, the
  abbreviation ``--qu``, a repeated ``--out``, ``--``, ``-h``, a missing
  config and an unknown command, on ``configs/solve_example.json``, and
  the directory that holds it passed as the config;
* paths spelled unnormalized, each printed by a message: a config
  spelled ``./...`` and one with a doubled slash, a missing one spelled
  both ways, ``--out DIR/`` and ``--out ./DIR``.

Each tree then runs the whole list in one fresh process that imports that
tree's ``src/`` and calls ``iqcontrol.cli.main`` in process, with the same
relative config and ``--out`` paths, so stdout can match line for line.
Every output file, exit code, stdout line and stderr line that differs is
printed, and the exit code is 1 if anything differs.  For a JSON or CSV
output whose bytes differ, both sides are parsed and the largest absolute
difference is printed per JSON key (list entries folded into their key,
nested keys joined by ``.``) or per CSV column; a key or column whose
values differ other than as numbers reads ``not numeric``, and a file
whose structure differs reads ``shape differs``.  The last lines give the
largest difference per key or column over all such files.  The working
tree is only read.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import traceback
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("simulate_rows", "sweep_grid", "small_configs", "reach_ladder")
SEEDS = (0, 1, 2)


def sweep_doc(*axes) -> dict:
    """A sweep over ``axes``, (name, start, stop, count) each; the other
    parameters fixed."""
    names = [name for name, *_ in axes]
    return {"mode": "sweep", "p_s": 0.3, "beta": -2.5,
            "axes": [dict(zip(("name", "start", "stop", "count"), axis))
                     for axis in axes],
            "fixed": {name: value for name, value in
                      (("theta", 0.5), ("alpha", 2.2), ("p_p", 0.25))
                      if name not in names}}


# An axis of one value after, before and between longer ones; an axis
# whose values overflow next to a zero-count axis, and next to a longer one;
# no axis at all, one row at the fixed point.
EDGE_SWEEPS = {
    "a_1": sweep_doc(("alpha", -1.0, 4.0, 5000), ("p_p", 0.3, 0.3, 1)),
    "1_b": sweep_doc(("theta", 0.7, 0.7, 1), ("alpha", 0.0, 3.0, 700)),
    "a_1_c": sweep_doc(("theta", -4.0, 4.0, 90), ("p_p", 0.6, 0.6, 1),
                       ("alpha", 0.0, 3.5, 60)),
    "overflow_0": sweep_doc(("theta", -1e308, 1e308, 3),
                            ("alpha", 0.0, 1.0, 0)),
    "overflow_2": sweep_doc(("theta", -1e308, 1e308, 3),
                            ("alpha", 0.0, 1.0, 2)),
    "zero_axes": sweep_doc(),
}

def simulate_doc(times, g1: float = 0.2, g3: float = 0.8) -> dict:
    """A simulate at ``times``; the couplings other than g1, g3 fixed."""
    return {"mode": "simulate",
            "couplings": {"g1": g1, "g2": [0.3, -0.1], "g3": g3, "g4": 0.4},
            "p_s": 0.3, "p_p": 0.7, "times": times}


# A simulate with no time rows writes only its header; one whose couplings
# overflow exits 1 with an error line naming a column, a row and its t.
EDGE_SIMULATES = {
    "count_0": simulate_doc({"start": 0.0, "stop": 1.0, "count": 0}),
    "list_0": simulate_doc([]),
    "overflow": simulate_doc({"start": 0.0, "stop": 1.0, "count": 3},
                             g1=1e200, g3=1e200),
}

# A thermal gap e1 - e0 that overflows.
EDGE_JSON = {
    "thermal_overflow": {"mode": "thermal", "temperature": 1.0,
                         "e0": -1e308, "e1": 1e308},
}


def load(name: str, path: Path):
    """Import the file at ``path`` as module ``name``."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


@functools.cache
def malformed_configs() -> dict:
    """``CASES`` of tests/malformed_configs.py, the list that
    ``TestMalformedConfigs`` runs: name -> doc, read once per process."""
    # not "malformed_configs": under pytest that name is the suite's module
    return load("parity_malformed_configs",
                ROOT / "tests" / "malformed_configs.py").CASES


def argv_variants(config: str) -> list:
    """The command lines outside iqctl's documented form, on ``config``,
    a run of the directory that holds it, and paths spelled unnormalized
    (without ``--quiet``, so the lines that print them are compared)."""
    out = "out/variants"
    folder, name = os.path.split(config)
    return [["check", f"./{config}"],
            ["check", f"{folder}//{name}"],
            ["run", f"./{folder}//missing.json", "--out", out],
            ["run", config, "--out", f"{out}/"],
            ["run", config, "--out", f"./{out}"],
            ["--quiet", "--out", out, "run", config],
            ["run", config, f"--out={out}"],
            ["run", config, "--qu", "--out", out],
            ["run", config, "--out", "out/first", "--out", out],
            ["run", "--out", out, "--", config],
            ["-h"],
            ["run"],
            ["transmute", config],
            ["run", os.path.dirname(config), "--out", out]]


def write_workload(name: str, seed: int, cfg_dir: Path) -> list:
    """Write the configs of benchmark workload ``name`` at ``seed``
    (``iqbench/workloads.py`` of the working tree) into ``cfg_dir`` as
    ``NAME-SEED-IIII.json``; (command, path) each."""
    workloads = load("workloads", ROOT / "iqbench" / "workloads.py")
    runs = []
    for i, cfg in enumerate(workloads.generate(name, seed)):
        path = cfg_dir / f"{name}-{seed}-{i:04d}.json"
        path.write_text(json.dumps(cfg.doc), encoding="utf-8")
        runs.append((cfg.command, path))
    return runs


def invocations(cfg_dir: Path) -> list:
    """Write every config into ``cfg_dir`` and return the argv lists, with
    paths relative to a sibling directory of it."""
    cfg_dir.mkdir()
    runs = []
    for name in WORKLOADS:
        for seed in SEEDS:
            runs += write_workload(name, seed, cfg_dir)
    for src in sorted((ROOT / "configs").glob("*.json")):
        path = cfg_dir / src.name
        path.write_bytes(src.read_bytes())
        runs += [(command, path) for command in ("run", "sweep", "check")]
    for command, edges in (("sweep", EDGE_SWEEPS), ("run", EDGE_SIMULATES),
                           ("run", EDGE_JSON)):
        for name, doc in edges.items():
            path = cfg_dir / f"edge-{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            runs.append((command, path))
    for name, doc in sorted(malformed_configs().items()):
        path = cfg_dir / f"malformed-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        runs += [(command, path) for command in ("check", "run")]
    return [[command, f"../{cfg_dir.name}/{path.name}", "--out",
             f"out/{command}"] for command, path in runs] + argv_variants(
        f"../{cfg_dir.name}/solve_example.json")


def extract(rev: str, dest: Path) -> str:
    """Extract ``rev`` of this repository into ``dest`` with ``git archive``;
    return git's error text, empty on success."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True)
    if archive.returncode:
        return archive.stderr.decode(errors="replace")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return ""


def copy_working_tree(dest: Path) -> None:
    """Copy the files git lists in this repository's working tree, tracked
    and untracked but not ignored, into ``dest``; no ``.git``."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout
    for rel in filter(None, listed.decode().split("\0")):
        src = ROOT / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def worker(plan: Path) -> int:
    """Run every argv list of ``plan`` through ``cli.main`` in this process
    and write (exit code, stdout, stderr) of each to ``plan``'s results."""
    from iqcontrol import cli
    results = []
    for argv in json.loads(plan.read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a difference to report
                code = "raised"
                traceback.print_exc()
        results.append([code, out.getvalue(), err.getvalue()])
    (plan.parent / "results.json").write_text(json.dumps(results),
                                              encoding="utf-8")
    return 0


def run_tree(tree: Path, side: Path, plan: list) -> list:
    """Run ``plan`` with the package of ``tree``, in ``side``."""
    side.mkdir()
    (side / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--worker", "plan.json"], cwd=side, env=env, check=True)
    return json.loads((side / "results.json").read_text(encoding="utf-8"))


def files(out: Path) -> dict:
    return ({p.relative_to(out).as_posix(): p for p in out.rglob("*")
             if p.is_file()} if out.is_dir() else {})


def lines_differ(what: str, argv: list, a: str, b: str) -> list:
    pairs = zip_longest(a.splitlines(), b.splitlines())
    return [f"{what} {' '.join(argv)} line {i}: {x!r} != {y!r}"
            for i, (x, y) in enumerate(pairs) if x != y]


def paired_values(a, b, key=""):
    """(key, a value, b value) for every leaf of two parsed JSON documents
    of the same shape; list entries keep their list's key.  Raises
    ValueError where the shapes differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise ValueError(key)
        for k in a:
            yield from paired_values(a[k], b[k], f"{key}.{k}" if key else k)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(key)
        for x, y in zip(a, b):
            yield from paired_values(x, y, key)
    else:
        yield key, a, b


def paired_cells(a: str, b: str):
    """(column, a cell, b cell) for every cell of two CSV texts with the
    same header and row count, cells as floats where they parse."""
    rows_a, rows_b = (list(csv.reader(text.splitlines())) for text in (a, b))
    if (len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]
            or any(len(x) != len(y) for x, y in zip(rows_a, rows_b))):
        raise ValueError("rows")
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(rows_a[0], row_a, row_b):
            with contextlib.suppress(ValueError):
                x, y = float(x), float(y)
            yield name, x, y


def magnitudes(path_a: Path, path_b: Path) -> dict | None:
    """Largest |a - b| per JSON key or CSV column of two output files (inf
    where the values differ other than as numbers), or None if their
    structure differs or they are neither JSON nor CSV."""
    a, b = (p.read_text(encoding="utf-8") for p in (path_a, path_b))
    try:
        if path_a.suffix == ".json":
            pairs = list(paired_values(json.loads(a), json.loads(b)))
        elif path_a.suffix == ".csv":
            pairs = list(paired_cells(a, b))
        else:
            return None
    except ValueError:
        return None
    largest = {}
    for key, x, y in pairs:
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        d = abs(x - y) if numeric else (0.0 if x == y else math.inf)
        largest[key] = max(largest.get(key, 0.0), d)
    return largest


def describe(largest: dict) -> str:
    return ", ".join(f"{k} {'not numeric' if math.isinf(d) else f'{d:.2g}'}"
                     for k, d in sorted(largest.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare with")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker)
    if args.rev is None:
        parser.error("a revision is required")

    with tempfile.TemporaryDirectory(prefix="iq-parity-") as tmp:
        tmp = Path(tmp)
        error = extract(args.rev, tmp / "base")
        if error:
            print(error, end="", file=sys.stderr)
            return 2
        plan = invocations(tmp / "cfg")
        sides = {"base": tmp / "base", "tree": ROOT}
        results = {name: run_tree(tree, tmp / f"{name}-run", plan)
                   for name, tree in sides.items()}
        diffs = []
        for argv, a, b in zip(plan, results["base"], results["tree"]):
            if a[0] != b[0]:
                diffs.append(f"exit {' '.join(argv)}: {a[0]} != {b[0]}")
            diffs += lines_differ("stdout", argv, a[1], b[1])
            diffs += lines_differ("stderr", argv, a[2], b[2])
        out_a, out_b = (files(tmp / f"{name}-run" / "out") for name in sides)
        overall = {}
        for rel in sorted(out_a.keys() | out_b.keys()):
            if rel not in out_a or rel not in out_b:
                diffs.append(f"file {rel}: only in "
                             f"{'base' if rel in out_a else 'tree'}")
            elif out_a[rel].read_bytes() != out_b[rel].read_bytes():
                largest = magnitudes(out_a[rel], out_b[rel])
                diffs.append(f"file {rel}: bytes differ; " + (
                    "shape differs" if largest is None
                    else f"max |d| {describe(largest)}"))
                for key, d in (largest or {}).items():
                    overall[key] = max(overall.get(key, 0.0), d)
    for line in diffs:
        print(line)
    if overall:
        print(f"max |d| over all differing files: {describe(overall)}")
    print(f"{len(plan)} runs, {len(out_b)} output files in the tree, "
          f"{len(out_a)} at {args.rev}; {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
