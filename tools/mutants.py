"""Mutation sampler for the package's tolerances and comparisons.

A mutation site in ``src/`` is either a comparison operator, flipped
between strict and non-strict (``<`` <-> ``<=``, ``>`` <-> ``>=``), or a
float literal of magnitude below 1e-3, multiplied by 100.  For each chosen
site the script copies the repository (without ``.git``) to a temporary
directory, applies that one mutation there, and runs the tier-1 suite
(less the one test that reads ``EQUIVALENT``'s keys off the source) with
``-x`` under a time limit, one mutant at a time.  The limit is the
suite's per-test alarm (``TEST_TIME_LIMIT_S`` in ``tests/conftest.py``)
plus ``HANG_FACTOR`` times the unmutated suite's seconds, so a mutant that
loops in one test trips the alarm and fails first.  A mutant is *killed*
when the suite fails, *survived* when it passes, and *hung* when it runs
over the limit.  The working tree is only read.

A survivor listed in ``EQUIVALENT`` is reported as *equivalent*; the
script exits 1 when any other mutant survives.  A site's key there is
its path, its enclosing function or class (``""`` at module level), its
old token, its new text and its index among the sites with those four,
so edits elsewhere in a file leave the keys as they are.

    python tools/mutants.py --sample 10 --seed 0
    python tools/mutants.py --site src/iqcontrol/qubit.py:362

``--site PATH:LINE`` (repeatable) keeps only the sites on those lines,
with PATH as the table's "where" column prints it.  Standard library only.
It prints one Markdown table row per mutant.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
SMALL = 1e-3
HANG_FACTOR = 5.0
# The check that each EQUIVALENT key names a site reads the source's
# tokens, so it would fail on every listed flip; mutants run without it.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", "tests/test_tools.py::TestEquivalentSurvivors::"
         "test_each_listed_key_names_one_site"]

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
    ("src/iqcontrol/qubit.py", "_square_overlaps", "<=", "<", 1):
        "tie: an overlap magnitude of exactly 1e-12",
    ("src/iqcontrol/qubit.py", "_square_overlaps", "<=", "<", 2):
        "tie: an overlap magnitude of exactly 1e-12",
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
    ("src/iqcontrol/qubit.py", "solve_controls_numeric", "<", "<=", 0):
        "|1 - 2 p_s| below 0.5 is a multiple of 2^-53, never 1e-14",
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


def run_tier1(root: Path, timeout: float | None) -> str:
    """'passed', 'failed' or 'hung' for the suite in the tree at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(TIER1, cwd=root, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the suite's own children (e.g. a ``python -m iqcontrol.cli``) too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung"
    return "passed" if code == 0 else "failed"


def trial(site, timeout: float | None) -> tuple[str, float]:
    """Outcome and seconds of one mutant, in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="iq-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if site is not None:
            apply(copy, site)
        start = time.perf_counter()
        outcome = run_tier1(copy, timeout)
    return outcome, time.perf_counter() - start


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
    print("| site | where | mutation | result | s |")
    print("|---|---|---|---|---|")
    tally = {"killed": 0, "equivalent": 0, "survived": 0, "hung": 0}
    site_keys = keys(ROOT, all_sites)
    for i in chosen:
        rel, row, _, old, new = site = all_sites[i]
        outcome, seconds = trial(site, limit)
        result = {"failed": "killed", "passed": "survived"}.get(outcome,
                                                                outcome)
        if result == "survived" and site_keys[i] in EQUIVALENT:
            result = "equivalent"
        tally[result] += 1
        print(f"| {i} | {rel}:{row} | `{old}` -> `{new}` | {result} "
              f"| {seconds:.1f} |", flush=True)
    print(", ".join(f"{n} {k}" for k, n in tally.items()))
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
