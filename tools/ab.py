"""Same-process A/B timing of iqctl: a git revision against the working tree.

    python tools/ab.py cc8c035 --workload small_configs
    python tools/ab.py cc8c035 --workload reach_ladder --passes 20 --seed 3
    python tools/ab.py cc8c035 --workload small_configs --null

The script runs the same A/B twice, each in a fresh child process of its
own, the parent loading first and then the change.  Each child extracts
the revision with ``git archive`` (``parity.extract``) and loads its
``src/iqcontrol`` and the working tree's into its process under the
package names ``iq_parent`` and ``iq_change``, in its load order; the
package imports itself relatively, so the two copies share only numpy.
With ``--null`` both names load the revision, so the run measures the
bias between the two load slots.

It prints both children's documents with their combined ratio, the
geometric mean of the two medians, and the slot bias, half the log of the
change-first median over the parent-first one: with the slot loaded
first a factor s faster, the medians read R/s and R s, so the combined
ratio is R and the slot bias ln s (above 0: the first slot is faster).

The workload's configs for ``--seed`` (``iqbench/workloads.py`` of the
working tree) are written to a temporary directory by the parity check's
``write_workload``, and one untimed pass runs every config through both
sides' ``cli.main``, each side with its own ``--out``, so that lazy set-up
is done and every timed pass writes over existing outputs.  In each timed
pass every config runs through both sides, the side that goes first drawn
at random per config, and the ``time.thread_time`` of each call is summed
per side.

Each child's document holds each side's seconds per pass, the per-pass
ratios (parent time over change time, so above 1 means the change is
faster), their median and a 95% bootstrap interval of that median
(percentile method, 10,000 resamples of the passes).  CPU time only: it
does not replace the benchmark's ``items_per_s``, ``setup_s`` or
``peak_rss_mb``.  The working tree is only read.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import resolve  # noqa: E402
from parity import ROOT, WORKLOADS, extract, write_workload  # noqa: E402

SIDES = ("parent", "change")


def load_cli(name: str, src: Path):
    """``src/iqcontrol/cli.py`` of one tree, its package imported as
    ``name``."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        name, src / "iqcontrol" / "__init__.py",
        submodule_search_locations=[str(src / "iqcontrol")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def load_mains(src: dict, swap: bool, load=load_cli) -> list:
    """Each side's ``cli.main`` in ``SIDES`` order, the packages loaded in
    that order or, with ``swap``, the change first."""
    order = SIDES[::-1] if swap else SIDES
    loaded = {side: load(f"iq_{side}", src[side]).main for side in order}
    return [loaded[side] for side in SIDES]


def timed_pass(mains: list, argvs: list, rng: random.Random,
               clock=time.thread_time) -> list:
    """Seconds per side of one pass: config i runs as ``mains[s](argvs[s][i])``
    on both sides s, in an order drawn from ``rng``."""
    totals = [0.0] * len(mains)
    order = list(range(len(mains)))
    for i in range(len(argvs[0])):
        rng.shuffle(order)
        for s in order:
            t0 = clock()
            mains[s](argvs[s][i])
            totals[s] += clock() - t0
    return totals


def summary(parent: list, change: list, resamples: int = 10_000,
            seed: int = 0) -> dict:
    """Per-pass ratios parent / change, their median and the median's 95%
    bootstrap interval."""
    ratios = np.array(parent) / np.array(change)
    picks = np.random.default_rng(seed).integers(
        len(ratios), size=(resamples, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return {"ratios": [round(r, 6) for r in ratios.tolist()],
            "median": round(float(np.median(ratios)), 6),
            "ci95": [round(float(low), 6), round(float(high), 6)]}


def both_orders(parent_first: dict, change_first: dict) -> dict:
    """The two load orders' documents, the geometric mean of their medians
    and the slot bias, half the log of change-first over parent-first."""
    a, b = parent_first["median"], change_first["median"]
    return {"ratio": round(math.sqrt(a * b), 6),
            "slot_bias": round(0.5 * math.log(b / a), 6),
            "parent_first": parent_first, "change_first": change_first}


def run_both_orders(args) -> int:
    """The A/B of ``args`` in two child processes, the parent loading
    first in the first; prints ``both_orders`` of their documents."""
    argv = [args.rev, "--workload", args.workload, "--seed", str(args.seed),
            "--passes", str(args.passes)] + ["--null"] * args.null
    docs = []
    for first in SIDES:
        child = subprocess.run([sys.executable, __file__, *argv,
                                "--loaded-first", first],
                               stdout=subprocess.PIPE, text=True)
        if child.returncode:
            return child.returncode
        docs.append(json.loads(child.stdout))
    print(json.dumps(both_orders(*docs), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare with")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--null", action="store_true",
                        help="load the revision on both sides")
    # a child's load order; the top-level call starts one child per order
    parser.add_argument("--loaded-first", choices=SIDES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("an interval needs at least two passes")
    if args.loaded_first is None:
        return run_both_orders(args)

    commit = resolve(args.rev)
    if not commit:
        print(f"error: {args.rev} names no commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="iq-ab-") as tmp:
        tmp = Path(tmp)
        error = extract(commit, tmp / "parent")
        if error:
            print(error, end="", file=sys.stderr)
            return 2
        src = {"parent": tmp / "parent" / "src",
               "change": tmp / "parent" / "src" if args.null
               else ROOT / "src"}
        mains = load_mains(src, args.loaded_first == "change")
        (tmp / "cfg").mkdir()
        runs = write_workload(args.workload, args.seed, tmp / "cfg")
        argvs = [[[command, str(path), "--out", str(tmp / side), "--quiet"]
                  for command, path in runs] for side in SIDES]
        rng = random.Random(args.seed)
        timed_pass(mains, argvs, rng)  # warm up; make every output
        seconds = []
        for i in range(args.passes):
            seconds.append(timed_pass(mains, argvs, rng))
            print(f"# pass {i}: parent {seconds[-1][0]:.4f} s, change "
                  f"{seconds[-1][1]:.4f} s", file=sys.stderr, flush=True)
    parent, change = ([round(s, 6) for s in side] for side in zip(*seconds))
    doc = {"parent": args.rev, "parent_commit": commit,
           "workload": args.workload, "seed": args.seed,
           "passes": args.passes, "null": args.null,
           "loaded_first": args.loaded_first,
           "clock": "time.thread_time, summed per side per pass",
           "ratio": "parent seconds / change seconds per pass",
           "parent_s": parent, "change_s": change,
           **summary(parent, change)}
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
