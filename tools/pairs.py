"""Paired benchmark runs of a git revision against the working tree.

    python tools/pairs.py 8645ec7 --workload simulate_rows --seeds 41-52
    python tools/pairs.py 8645ec7 --workload sweep_grid --seeds 11-16,21-26 \\
        --out BENCH.json
    python tools/pairs.py 8645ec7 --workload simulate_rows --seeds 61-66 --null

The script extracts the revision with ``git archive`` (``parity.extract``)
and copies the working tree's files, tracked and untracked but not
ignored (``parity.copy_working_tree``), each into its own temporary
directory.  With ``--null`` the
second tree is another extraction of the revision, so the pairs measure
the spread between two identical trees.  For each seed it runs

    python3 iqbench/run.py --workload W --seed S --seconds SEC --trace 0

once in each tree, from that tree, and keeps the last line of the run's
standard output.  SEC is the ``run_seconds`` of the working tree's
``BENCHMARK.json``, the run length the benchmark itself uses.  The side
that runs first alternates: the revision runs first at the first, third,
... seed.

It prints one JSON document in the layout of the ``BENCH_*.json`` files.
Under ``workloads`` (``null_pairs`` with ``--null``) the workload gets the
pair count, the seeds, the seconds, whether every run was correct and,
per end-to-end metric of ``BENCHMARK.json``, each side's runs, median and
quartiles (``statistics.quantiles(n=4, method='inclusive')``), the
change's wins and the ties; a win is read in the metric's ``better``
direction, on the runs as recorded (rounded to 6 decimals).  The record
keeps the revision as typed and the commit it resolved to.

With ``--out FILE`` the document is also merged into FILE, so successive
calls build one record.  A workload already in FILE gets the new seeds
pooled into its section: medians, quartiles, wins and ties are computed
again from the stored runs of every pair.  A seed already there, a section
run for other seconds (``run_seconds`` has changed since) or another parent
commit exits 2 with one message, before anything runs.  The working tree is
only read.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import ROOT, copy_working_tree, extract  # noqa: E402

COMMAND = ("python3 iqbench/run.py --workload {workload} --seed {seed} "
           "--seconds {seconds} --trace 0")
PAIRING = ("one run of each tree per seed, each tree in its own directory; "
           "the parent runs first at the first, third, ... seed")
QUARTILES = "statistics.quantiles(n=4, method='inclusive'): [Q1, Q3]"


def parse_seeds(text: str) -> list:
    """"41-46,51" -> [41, ..., 46, 51]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def resolve(rev: str) -> str:
    """The commit ``rev`` names, in full, or "" if it names none."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
         f"{rev}^{{commit}}"], capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run in ``tree``, parsed."""
    argv = COMMAND.format(workload=workload, seed=seed,
                          seconds=seconds).split()
    done = subprocess.run([sys.executable] + argv[1:], cwd=tree,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def side(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6),
            "q1_q3": [round(q1, 6), round(q3, 6)], "runs": list(values)}


def compare(better: str, parent: list, change: list) -> dict:
    """One metric's record from its runs, paired by position."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    return {"better": better, "parent": side(parent), "change": side(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "ties": sum(c == p for p, c in pairs)}


def summarize(seeds: list, runs: list, end_to_end: list,
              seconds: float) -> dict:
    """One workload's record from ``runs``, a (parent line, change line)
    pair per seed, and ``end_to_end``, BENCHMARK.json's metric list."""
    section = {"pairs": len(runs), "seeds": seeds, "seconds": seconds,
               "all_correct": all(r["correct"] and not r["failed"]
                                  for pair in runs for r in pair),
               "metrics": {}}
    for spec in end_to_end:
        parent, change = ([round(r["metrics"][spec["name"]]["value"], 6)
                           for r in side_runs] for side_runs in zip(*runs))
        section["metrics"][spec["name"]] = compare(spec["better"], parent,
                                                   change)
    return section


def pool(old: dict, new: dict) -> dict:
    """The section of ``old``'s pairs followed by ``new``'s."""
    metrics = {}
    for name, m in old["metrics"].items():
        n = new["metrics"][name]
        metrics[name] = compare(m["better"],
                                m["parent"]["runs"] + n["parent"]["runs"],
                                m["change"]["runs"] + n["change"]["runs"])
    return {"pairs": old["pairs"] + new["pairs"],
            "seeds": old["seeds"] + new["seeds"], "seconds": old["seconds"],
            "all_correct": old["all_correct"] and new["all_correct"],
            "metrics": metrics}


def clash(old: dict, kind: str, workload: str, seeds: list, seconds: float,
          commit: str):
    """Why the runs asked for cannot be pooled into the record ``old``
    (``kind`` "workloads" or "null_pairs"), or None."""
    if old.get("parent_commit", commit) != commit:
        return f"the record's parent is {old['parent_commit']}, not {commit}"
    section = old.get(kind, {}).get(workload)
    if section is None:
        return None
    again = sorted(set(section["seeds"]) & set(seeds))
    if again:
        return f"{kind}.{workload} already holds seeds {again}"
    if section["seconds"] != seconds:
        return f"{kind}.{workload} was run at --seconds {section['seconds']}"
    return None


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "machine": platform.machine()}


def read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() \
        else {}


def merge(path: Path, doc: dict) -> None:
    """Merge ``doc`` into the JSON file at ``path``: its workload sections
    are pooled into those of the same name, its other keys are kept if
    present."""
    old = read(path)
    for key, value in doc.items():
        if key in ("workloads", "null_pairs"):
            sections = old.setdefault(key, {})
            for workload, section in value.items():
                sections[workload] = (pool(sections[workload], section)
                                      if workload in sections else section)
        else:
            old.setdefault(key, value)
    path.write_text(json.dumps(old, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="A-B, or a comma-separated list of them")
    parser.add_argument("--null", action="store_true",
                        help="run the revision against a copy of itself")
    parser.add_argument("--out", type=Path,
                        help="JSON file to merge the record into")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    kind = "null_pairs" if args.null else "workloads"
    commit = resolve(args.rev)
    old = read(args.out) if args.out else {}
    error = (clash(old, kind, args.workload, args.seeds, seconds, commit)
             if commit else f"{args.rev} names no commit")
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="iq-pairs-") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        error = extract(args.rev, parent) or (
            extract(args.rev, change) if args.null else "")
        if error:
            print(error, end="", file=sys.stderr)
            return 2
        if not args.null:
            copy_working_tree(change)
        runs = []
        for i, seed in enumerate(args.seeds):
            order = [parent, change] if i % 2 == 0 else [change, parent]
            lines = {tree: run_once(tree, args.workload, seed, seconds)
                     for tree in order}
            runs.append((lines[parent], lines[change]))
            items = [line["metrics"]["items_per_s"]["value"]
                     for line in runs[-1]]
            print(f"# seed {seed}: items_per_s parent {items[0]:.1f}, "
                  f"change {items[1]:.1f}", file=sys.stderr, flush=True)
    section = summarize(args.seeds, runs, benchmark["end_to_end"], seconds)
    doc = {"parent": args.rev, "parent_commit": commit, "machine": machine(),
           "command": COMMAND.format(workload="W", seed="S", seconds="SEC"),
           "pairing": PAIRING, "quartiles": QUARTILES,
           kind: {args.workload: section}}
    print(json.dumps(doc, indent=2))
    if args.out:
        merge(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
