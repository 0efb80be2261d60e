"""Same-process A/B timing of iqctl: a git revision against the working tree.

    python tools/ab.py cc8c035 --workload small_configs
    python tools/ab.py cc8c035 --workload reach_ladder --seed 3
    python tools/ab.py cc8c035 --workload small_configs --null

The script runs the same A/B four times, each in a fresh child process of
its own: the parent loading first, then the change, and the two again.
Each child extracts the revision with ``git archive``
(``parity.extract``) and loads its ``src/iqcontrol`` and the working
tree's into its process under the package names ``iq_parent`` and
``iq_change``, in its load order; the package imports itself relatively,
so the two copies share only numpy.
With ``--null`` both names load the revision, so the run measures the
bias between the two load slots.

It prints every child's document, grouped by load order, with each
order's ``between_calls``, the ratio of its second child's median to its
first's, which shows the spread between runs that one child's interval
does not; the combined ratio, the geometric mean of the four medians;
and the slot bias, half the log of the change-first order's mean over the
parent-first one's, each mean the geometric mean of that order's two
medians.  With the slot loaded first a factor s faster, the medians read
R/s and R s, so the combined ratio is R and the slot bias ln s (above 0:
the first slot is faster).

The workload's configs for ``--seed`` (``iqbench/workloads.py`` of the
working tree) are written to a temporary directory by the parity check's
``write_workload``, and one untimed pass runs every config through both
sides' ``cli.main``, each side with its own ``--out``, so that lazy set-up
is done and every timed pass writes over existing outputs.

A timed pass runs every config through both sides twice: in an order
drawn at random per config, then in its mirror, so that each config runs
first once on each side.  The ``time.thread_time`` of each call is summed
per side.  Cyclic garbage collection is off during a pass and runs between
passes, as ``timeit`` keeps it out of its timings.  Both rules remove a
bias that a null call showed:

* The side that runs a config first pays more.  With one side always
  first, the parent/change medians of seed 0 read 1.054 and 0.947 on
  ``sweep_grid``, 1.038 and 0.967 on ``reach_ladder`` and 1.011 and 0.992
  on ``simulate_rows``.  A seed's random draws leave some of that
  imbalance in every child: ``sweep_grid`` nulls at seed 0 read up to
  1.0095.
* A collection lands on whichever call crosses the allocation threshold,
  and a seed fixes which calls those are.  On ``reach_ladder`` it spread
  the per-pass ratios ~6x wider (sd 8.7% against 1.5%), and its seed 0
  nulls read 0.9964-0.9986 and its seed 3 nulls 1.0009-1.0021.

So a change's own collection cost is not in the ratio; the benchmark's
``items_per_s`` still holds it.

A child sizes its own run: it runs timed passes until each side's
seconds, summed over its passes, reach ``BUDGET_S`` and at least
``MIN_PASSES`` (10) have run, so that the bootstrap below never resamples
fewer ratios.  A workload with short passes thus runs more of them, and
the caller sets no length.

``BUDGET_S`` = 10 s was chosen from ``--null`` calls of 76a59cf against
itself at seed 0 on a 2-vCPU VM, whose load from other work moved the
thread time of one pass up to 3x between calls.  At 4 s such load left
``sweep_grid`` 13-20 passes per child, with per-pass ratios of ~2% sd,
and two calls read 0.9934 and 1.0098 (before the collection rule).  At
10 s, three calls per workload read combined ratios of 0.9998-1.0016 on
``simulate_rows`` (96-189 passes per child), 1.0003-1.0011 on
``sweep_grid`` (31-60), 0.9999-1.0007 on ``small_configs`` (10, the
floor) and 0.9990-1.0012 on ``reach_ladder`` (61-143); every load order's
``between_calls`` lay in [0.9958, 1.0036].  A call took 91-99 s of wall
time, and 176-210 s on ``small_configs``, where the floor binds.

Each child's document holds the pass count it reached, the budget, each
side's seconds per pass, the per-pass ratios (parent time over change
time, so above 1 means the change is faster), their median and a 95%
bootstrap interval of that median (percentile method, 10,000 resamples
of the passes).  CPU time only: it does not replace the benchmark's
``items_per_s``, ``setup_s`` or ``peak_rss_mb``.  The working tree is only
read.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import gc
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
# Thread seconds each side sums per child, and the fewest passes a child
# runs: see the module docstring for the null calls they were chosen from.
BUDGET_S = 10.0
MIN_PASSES = 10


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


def timed_passes(mains: list, argvs: list, rng: random.Random,
                 clock=time.thread_time) -> list:
    """Seconds per side of each pass, run until every side's sum reaches
    ``BUDGET_S`` and at least ``MIN_PASSES`` have run.

    A pass is two ``timed_pass`` calls on one draw of orders, the second
    with the sides reversed, so each config runs first once on each side:
    the side that runs a config first pays more (~5% on ``sweep_grid``),
    and one seed's draws would not even that out.  Garbage is collected
    before each pass, never during one (see the module docstring)."""
    seconds, totals = [], [0.0] * len(mains)
    gc.disable()
    try:
        while len(seconds) < MIN_PASSES or min(totals) < BUDGET_S:
            gc.collect()
            seed = rng.getrandbits(64)
            drawn = timed_pass(mains, argvs, random.Random(seed), clock)
            mirrored = timed_pass(mains[::-1], argvs[::-1],
                                  random.Random(seed), clock)[::-1]
            seconds.append([a + b for a, b in zip(drawn, mirrored)])
            totals = [t + s for t, s in zip(totals, seconds[-1])]
            print(f"# pass {len(seconds) - 1}: parent {seconds[-1][0]:.4f} "
                  f"s, change {seconds[-1][1]:.4f} s", file=sys.stderr,
                  flush=True)
    finally:
        gc.enable()
    return seconds


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


def both_orders(parent_first: list, change_first: list) -> dict:
    """Each load order's two child documents with their ``between_calls``,
    the geometric mean of the four medians and the slot bias, half the log
    of the change-first mean over the parent-first one."""
    means, orders = [], {}
    for name, docs in (("parent_first", parent_first),
                       ("change_first", change_first)):
        a, b = (doc["median"] for doc in docs)
        means.append(math.sqrt(a * b))
        orders[name] = {"between_calls": round(b / a, 6), "children": docs}
    return {"ratio": round(math.sqrt(means[0] * means[1]), 6),
            "slot_bias": round(0.5 * math.log(means[1] / means[0]), 6),
            **orders}


def run_both_orders(args) -> int:
    """The A/B of ``args`` in four child processes, the load orders
    alternating, the parent first; prints ``both_orders`` of their
    documents."""
    argv = ([args.rev, "--workload", args.workload, "--seed", str(args.seed)]
            + ["--null"] * args.null)
    docs = {side: [] for side in SIDES}
    for first in SIDES * 2:
        child = subprocess.run([sys.executable, __file__, *argv,
                                "--loaded-first", first],
                               stdout=subprocess.PIPE, text=True)
        if child.returncode:
            return child.returncode
        docs[first].append(json.loads(child.stdout))
    print(json.dumps(both_orders(docs["parent"], docs["change"]), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare with")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--null", action="store_true",
                        help="load the revision on both sides")
    # a child's load order; the top-level call starts two children per order
    parser.add_argument("--loaded-first", choices=SIDES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
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
        seconds = timed_passes(mains, argvs, rng)
    parent, change = ([round(s, 6) for s in side] for side in zip(*seconds))
    doc = {"parent": args.rev, "parent_commit": commit,
           "workload": args.workload, "seed": args.seed,
           "passes": len(seconds), "budget_s": BUDGET_S, "null": args.null,
           "loaded_first": args.loaded_first,
           "clock": "time.thread_time, summed per side per pass",
           "ratio": "parent seconds / change seconds per pass",
           "parent_s": parent, "change_s": change,
           **summary(parent, change)}
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
