"""Mutation sampler for the package's tolerances and comparisons.

A mutation site in ``src/`` is either a comparison operator, flipped
between strict and non-strict (``<`` <-> ``<=``, ``>`` <-> ``>=``), or a
float literal of magnitude below 1e-3, multiplied by 100.  For each chosen
site the script copies the working tree's files, tracked and untracked
but not ignored, to a temporary directory, applies that one mutation
there, and runs the tier-1 tests that execute the site's line (less the
one test that reads ``EQUIVALENT``'s keys off the source) with ``-x``
under a time limit, one mutant at a time.  The limit is the suite's per-test alarm
(``TEST_TIME_LIMIT_S`` in ``tests/conftest.py``) plus ``HANG_FACTOR``
times the unmutated suite's seconds, so a mutant that loops in one test
trips the alarm and fails first.  A mutant is *killed* when its tests
fail, *survived* when they pass, *hung* when they run over the limit, and
*uncovered* when no test executes its line.  The working tree is only
read.

The line -> test map comes from one unmutated tier-1 run traced with
``sys.settrace`` (this module loaded as a pytest plugin, ``LineMap``),
restricted to ``src/iqcontrol``.  A line whose work can outlive one test
selects the whole suite: one that runs outside a test (at import, at
collection, or in a fixture wider than one test), and every line of a
module-level cached function (``functools.cache``), since only the test
that fills the cache runs it.  A test that starts a Python child whose command line names
iqcontrol joins every selection, since the child is not traced; it does
not by itself make a line covered.

A survivor or an uncovered site listed in ``EQUIVALENT`` is reported as
*equivalent*; the script exits 1 when any other mutant survives or is
uncovered.  A site's key there is its path, its enclosing function or
class (``""`` at module level), its old token, its new text and its
index among the sites with those four, so edits elsewhere in a file
leave the keys as they are.

    python tools/mutants.py --sample 10 --seed 0
    python tools/mutants.py --site src/iqcontrol/qubit.py:357

``--site PATH:LINE`` (repeatable) keeps only the sites on those lines,
with PATH as the table's "where" column prints it.  Standard library
only, apart from the pytest it runs.  It prints one Markdown table row
per mutant.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import ROOT, copy_working_tree  # noqa: E402

# the suite's children load this module as a plugin; these name its files
MAP_ENV, KEEP_ENV = "IQ_MUTANTS_LINE_MAP", "IQ_MUTANTS_KEEP"
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
SMALL = 1e-3
HANG_FACTOR = 5.0
# The check that each EQUIVALENT key names a site reads the source's
# tokens, so it would fail on every listed flip; mutants run without it.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "mutants", "--deselect", "tests/test_tools.py::"
         "TestEquivalentSurvivors::test_each_listed_key_names_one_site"]

# Survivors left unpinned on purpose, keyed as ``keys`` keys them, each
# with its reason.  "tie" marks a flip that differs only for a value
# exactly at the threshold, a side that no documented behaviour fixes.
EQUIVALENT = {
    ("src/iqcontrol/cli.py", "_csv_cells", ">=", ">", 0):
        "|v| = 1e-4 prints the same bytes by the fast path and by %.17g",
    ("src/iqcontrol/cli.py", "_csv_cells", "1e-4", "(1e-4 * 100)", 0):
        "|v| in [1e-4, 1e-2) prints the same bytes by %.17g",
    ("src/iqcontrol/nlevel.py", "_is_distribution", "<=", "<", 0):
        "|sum - 1| near 1 is a multiple of 2^-53, never 1e-12 or 1e-10",
    ("src/iqcontrol/nlevel.py", "ReachabilityProblem.__post_init__", "<=",
     "<", 0):
        "|norm - 1| near 1 is a multiple of 2^-53, never 1e-10",
    ("src/iqcontrol/nlevel.py", "project_simplex", ">", ">=", 0):
        "an index with u_k = css_k / k exactly leaves tau the same",
    ("src/iqcontrol/nlevel.py", "_min_norm_point", "<", "<=", 0):
        "tie: an affine weight of exactly 0 on a minor cycle",
    ("src/iqcontrol/opkit.py", "validate_density_matrix", ">", ">=", 1):
        "tie: a trace defect of exactly TRACE_TOL",
    ("src/iqcontrol/qubit.py", "spectral_form", ">", ">=", 0):
        "|rho00 + rho11 - 1| near 1 is a multiple of 2^-53, never 1e-10",
    ("src/iqcontrol/qubit.py", "spectral_form", ">", ">=", 1):
        "tie: |rho01| of exactly 1e-10",
    ("src/iqcontrol/qubit.py", "spectral_form", ">", ">=", 2):
        "tie: an eigenvalue split of exactly 1e-10",
    ("src/iqcontrol/qubit.py", "analytic_conditions", "<=", "<", 0):
        "tie: a denominator of exactly 1e-12",
    ("src/iqcontrol/qubit.py", "analytic_conditions", "<=", "<", 1):
        "tie: an occupancy of exactly -1e-12",
    ("src/iqcontrol/qubit.py", "analytic_conditions", "<=", "<", 2):
        "tie: an occupancy of exactly 1 + 1e-12",
    ("src/iqcontrol/thermal.py", "thermal_occupancy", ">=", ">", 0):
        "both forms give exactly 0.5 at x = 0",
}


def sites(root: Path):
    """Every mutation site under ``root/src`` as (relative path, row, col,
    old token, new text), in file and token order."""
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            row, col = tok.start
            if tok.type == tokenize.OP and tok.string in FLIPS:
                found.append((rel, row, col, tok.string, FLIPS[tok.string]))
            elif tok.type == tokenize.NUMBER:
                value = ast.literal_eval(tok.string)
                if isinstance(value, float) and 0.0 < value < SMALL:
                    found.append((rel, row, col, tok.string,
                                  f"({tok.string} * 100)"))
    return found


def scopes(text: str) -> list:
    """(first line, last line, qualified name) of every function and class
    of the source ``text``, innermost first."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                found.append((child.lineno, child.end_lineno, name))
                name += "."
            visit(child, name)

    visit(ast.parse(text), "")
    return sorted(found, reverse=True)


def keys(root: Path, all_sites) -> list:
    """The ``EQUIVALENT`` key of each site of ``all_sites``, in order."""
    spans, seen, found = {}, {}, []
    for rel, row, _, old, new in all_sites:
        if rel not in spans:
            spans[rel] = scopes((root / rel).read_text(encoding="utf-8"))
        scope = next((name for first, last, name in spans[rel]
                      if first <= row <= last), "")
        base = (rel, scope, old, new)
        seen[base] = seen.get(base, -1) + 1
        found.append(base + (seen[base],))
    return found


def alarm_seconds(root: Path) -> float:
    """The suite's per-test alarm, read from its conftest without running
    it."""
    tree = ast.parse((root / "tests" / "conftest.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TEST_TIME_LIMIT_S"
                        for t in node.targets)):
            return float(ast.literal_eval(node.value))
    raise LookupError("tests/conftest.py sets no TEST_TIME_LIMIT_S")


def apply(root: Path, site) -> None:
    """Replace the site's token in the copy at ``root``."""
    rel, row, col, old, new = site
    path = root / rel
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    line = lines[row - 1]
    assert line[col:col + len(old)] == old, (site, line)
    lines[row - 1] = line[:col] + new + line[col + len(old):]
    path.write_text("".join(lines), encoding="utf-8")


class LineMap:
    """pytest plugin: the ``src/iqcontrol`` lines each test executes,
    written as JSON to ``path`` at the end of the session."""

    def __init__(self, path: str):
        # the run's cwd is the tree's root
        self.path, self.root = path, os.getcwd() + os.sep
        self.prefix = os.path.join(self.root, "src", "iqcontrol", "")
        self.everywhere, self.tests, self.spawners = set(), {}, set()
        self.lines, self.test = self.everywhere, None
        sys.addaudithook(self.audit)
        sys.settrace(self.trace)

    def trace(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self.line
        return None

    def line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    def audit(self, event, args):
        # args = (executable, argv, cwd, env)
        if (event == "subprocess.Popen" and self.test is not None
                and "iqcontrol" in str(args[1])):
            self.spawners.add(self.test)

    def pytest_runtest_logstart(self, nodeid):
        self.test, self.lines = nodeid, self.tests.setdefault(nodeid, set())

    def pytest_runtest_logfinish(self, nodeid):
        self.test, self.lines = None, self.everywhere

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef):
        # a wider fixture's result serves later tests too
        lines = self.lines
        if fixturedef.scope != "function":
            self.lines = self.everywhere
        try:
            return (yield)
        finally:
            self.lines = lines

    def pytest_sessionfinish(self):
        sys.settrace(None)
        # a cached function's result serves later tests too
        for module in list(sys.modules.values()):
            if (getattr(module, "__file__", None) or "").startswith(
                    self.prefix):
                for value in vars(module).values():
                    if hasattr(value, "cache_info"):
                        code = value.__wrapped__.__code__
                        self.everywhere |= {(code.co_filename, row)
                                            for row in code_rows(code)}

        def rel(lines):
            return sorted((path[len(self.root):], row) for path, row in lines)
        doc = {"everywhere": rel(self.everywhere),
               "spawners": sorted(self.spawners),
               "tests": {test: rel(lines) for test, lines in self.tests.items()}}
        Path(self.path).write_text(json.dumps(doc), encoding="utf-8")


def code_rows(code) -> set:
    """The line numbers of ``code`` and of the code nested in it."""
    rows = {row for _, _, row in code.co_lines() if row is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            rows |= code_rows(const)
    return rows


class Keep:
    """pytest plugin: run only the test ids listed in the JSON file
    ``path``."""

    def __init__(self, path: str):
        self.ids = set(json.loads(Path(path).read_text(encoding="utf-8")))

    def pytest_collection_modifyitems(self, config, items):
        config.hook.pytest_deselected(
            items=[item for item in items if item.nodeid not in self.ids])
        items[:] = [item for item in items if item.nodeid in self.ids]


def pytest_load_initial_conftests(early_config):
    """Plugin entry (``-p mutants``), before any test module is imported."""
    if os.environ.get(MAP_ENV):
        early_config.pluginmanager.register(LineMap(os.environ[MAP_ENV]))
    if os.environ.get(KEEP_ENV):
        early_config.pluginmanager.register(Keep(os.environ[KEEP_ENV]))


def read_line_map(path: Path) -> dict:
    """``LineMap``'s document with sets of (path, row) lines and of
    spawners."""
    doc = json.loads(path.read_text(encoding="utf-8"))

    def pairs(lines):
        return {(rel, row) for rel, row in lines}
    return {"everywhere": pairs(doc["everywhere"]),
            "spawners": set(doc["spawners"]),
            "tests": {test: pairs(lines)
                      for test, lines in doc["tests"].items()}}


def select(site, line_map: dict) -> list | None:
    """The test ids to run on ``site``'s mutant, in suite order: None (the
    whole suite) when its line runs outside a test, [] (uncovered) when no
    test runs it, else the tests that run it and every spawner."""
    line = tuple(site[:2])
    if line in line_map["everywhere"]:
        return None
    tests = line_map["tests"]
    if not any(line in lines for lines in tests.values()):
        return []
    return [test for test, lines in tests.items()
            if line in lines or test in line_map["spawners"]]


def run_tier1(root: Path, timeout: float | None, tests=None,
              line_map: Path | None = None) -> str:
    """'passed', 'failed' or 'hung' for the suite in the tree at ``root``:
    with ``-x`` on the test ids ``tests`` (None: all), or untimed and
    traced into the file ``line_map``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(ROOT / "tools")]))
    argv = TIER1 + ["-x"]
    if line_map is not None:
        env[MAP_ENV], argv = str(line_map), TIER1
    elif tests is not None:
        keep = root.parent / "keep.json"  # beside the copy, not in it
        keep.write_text(json.dumps(tests), encoding="utf-8")
        env[KEEP_ENV] = str(keep)
        # collect only their files, in suite order
        argv = argv + list(dict.fromkeys(t.partition("::")[0] for t in tests))
    proc = subprocess.Popen(argv, cwd=root, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the suite's own children (e.g. a ``python -m iqcontrol.cli``) too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung"
    if code == 5:  # pytest ran no test: the selection matched none
        raise RuntimeError(f"no test of {tests} was collected")
    return "passed" if code == 0 else "failed"


@contextlib.contextmanager
def fresh_copy():
    """A copy of the working tree's files, tracked and untracked but not
    ignored (``parity.copy_working_tree``), in a temporary directory of its
    own."""
    with tempfile.TemporaryDirectory(prefix="iq-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        copy_working_tree(copy)
        yield copy


def trial(site, timeout: float | None, tests=None) -> tuple[str, float]:
    """Outcome and seconds of one mutant (None: the unmutated tree) on the
    test ids ``tests`` (None: all), in a fresh copy of the tree."""
    with fresh_copy() as copy:
        if site is not None:
            apply(copy, site)
        start = time.perf_counter()
        outcome = run_tier1(copy, timeout, tests)
    return outcome, time.perf_counter() - start


def line_map() -> dict:
    """``read_line_map`` of one traced, unmutated tier-1 run."""
    with fresh_copy() as copy:
        path = copy.parent / "lines.json"
        run_tier1(copy, None, line_map=path)
        return read_line_map(path)


def on_lines(all_sites, specs) -> list:
    """Indices of the sites on the ``PATH:LINE`` lines of ``specs``.
    Raises ValueError for a spec that is malformed or names no site."""
    chosen = set()
    for spec in specs:
        path, _, line = spec.rpartition(":")
        if not path or not line.isdigit():
            raise ValueError(f"{spec!r} is not PATH:LINE")
        found = {i for i, (rel, row, *_) in enumerate(all_sites)
                 if (rel, row) == (path, int(line))}
        if not found:
            raise ValueError(f"no mutation site on {spec}")
        chosen |= found
    return sorted(chosen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, default=None,
                        help="mutate K sites chosen at random (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the site sample (default 0)")
    parser.add_argument("--site", action="append", default=[],
                        metavar="PATH:LINE",
                        help="mutate only the sites on this line; repeatable")
    args = parser.parse_args(argv)

    all_sites = sites(ROOT)
    chosen = list(range(len(all_sites)))
    if args.site:
        try:
            chosen = on_lines(all_sites, args.site)
        except ValueError as exc:
            parser.error(str(exc))
    if args.sample is not None:
        k = min(max(args.sample, 0), len(chosen))
        chosen = sorted(random.Random(args.seed).sample(chosen, k))
    # no limit here; the suite's own per-test alarm still applies
    outcome, seconds = trial(None, None)
    limit = alarm_seconds(ROOT) + HANG_FACTOR * seconds
    print(f"{len(all_sites)} sites; unmutated suite {outcome} "
          f"in {seconds:.1f} s; mutants hang after {limit:.0f} s")
    if outcome != "passed":
        return 1
    start = time.perf_counter()
    lines = line_map()
    print(f"line map from a traced run in {time.perf_counter() - start:.1f} s")
    print("| site | where | mutation | tests | result | s |")
    print("|---|---|---|---|---|---|")
    tally = dict.fromkeys(("killed", "equivalent", "survived", "hung",
                           "uncovered"), 0)
    site_keys = keys(ROOT, all_sites)
    for i in chosen:
        rel, row, _, old, new = site = all_sites[i]
        tests = select(site, lines)
        outcome, seconds = trial(site, limit, tests) if tests != [] \
            else ("uncovered", 0.0)
        result = {"failed": "killed", "passed": "survived"}.get(outcome,
                                                                outcome)
        if result in ("survived", "uncovered") and site_keys[i] in EQUIVALENT:
            result = "equivalent"
        tally[result] += 1
        count = "all" if tests is None else len(tests)
        print(f"| {i} | {rel}:{row} | `{old}` -> `{new}` | {count} "
              f"| {result} | {seconds:.1f} |", flush=True)
    print(", ".join(f"{n} {k}" for k, n in tally.items()))
    return 1 if tally["survived"] or tally["uncovered"] else 0


if __name__ == "__main__":
    sys.exit(main())
