"""Same-process A/B timing of iqctl: a git revision against the working tree.

    python tools/ab.py cc8c035 --workload small_configs
    python tools/ab.py cc8c035 --workload reach_ladder --seed 3
    python tools/ab.py cc8c035 --workload small_configs --null
    python tools/ab.py cc8c035 --workload small_configs --out BENCH.json
    python tools/ab.py cc8c035 --startup [--null] [--out BENCH.json]

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

With ``--out FILE`` (a ``BENCH_*.json`` record, made if missing) the
printed document is also stored as ``in_process_ab.workloads[W]`` of FILE,
``in_process_ab.null_calls[W]`` with ``--null``; ``in_process_ab`` gets
the ``command``, ``clock`` and ``ratio`` fields that describe them, and
FILE the ``parent`` and ``parent_commit`` keys if it has none, as
``tools/pairs.py --out`` writes them.  A workload already stored there,
or a FILE whose ``parent_commit`` is another commit, exits 2 with one
message before any child runs.

With ``--startup`` it times whole processes instead: what one ``iqctl``
call costs to start.  The revision is extracted and the working tree
copied (``parity.copy_working_tree``), each into its own temporary
directory, so neither side finds bytecode the other lacks; with
``--null`` the second tree is another extraction of the revision.  Each
of ``STARTUP_ROUNDS`` rounds starts, per bundled ``configs/*.json``,

    python -m iqcontrol.cli run CONFIG --out TMP --quiet

once from each tree, with only that tree's ``src`` put in front of
``PYTHONPATH``, the two in an order drawn per round and config, and times
each process's wall time.  It does so under two settings, reported
apart: with ``PYTHONDONTWRITEBYTECODE=1``, where the package is compiled
at every start, and with ``PYTHONPYCACHEPREFIX`` under a temporary
directory, which one untimed start per config and tree fills first, as an
installed package reads its bytecode.  Per setting and config it reports
each side's median seconds, the per-round ratios (parent over change),
their median and its 95% bootstrap interval (``summary``).  With
``--out`` that document is stored as ``startup_ab.calls``, or
``startup_ab.null_calls`` with ``--null``, under the same rules as an
in-process A/B.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import read, resolve  # noqa: E402
from parity import (  # noqa: E402
    ROOT,
    WORKLOADS,
    copy_working_tree,
    extract,
    write_workload,
)

SIDES = ("parent", "change")
CLOCK = "time.thread_time, summed per side per pass"
RATIO = "parent seconds / change seconds per pass"
# Thread seconds each side sums per child, and the fewest passes a child
# runs: see the module docstring for the null calls they were chosen from.
BUDGET_S = 10.0
MIN_PASSES = 10
STARTUP_CLOCK = "time.perf_counter around each process, start to exit"
STARTUP_RATIO = "parent seconds / change seconds per round"
# Rounds of a --startup call: a round starts 2 processes per side and
# bundled config (one per setting), ~3 s for the five configs on a 2-vCPU
# VM, where thirty rounds gave per-config CIs 0.05-0.19 wide.
STARTUP_ROUNDS = 30


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


def record_place(args) -> tuple:
    """Where the record stores the result of ``args`` (its section, the
    kind of call and, for an in-process A/B, the workload), and the
    fields that describe that section when it is new."""
    if args.startup:
        return (("startup_ab", "null_calls" if args.null else "calls"),
                {"command": f"python tools/ab.py {args.rev} --startup",
                 "clock": STARTUP_CLOCK, "ratio": STARTUP_RATIO})
    return (("in_process_ab", "null_calls" if args.null else "workloads",
             args.workload),
            {"command": f"python tools/ab.py {args.rev} --workload W --seed S",
             "clock": CLOCK,
             "ratio": f"{RATIO}; ratio is the geometric mean of the four "
                      "children's medians"})


def record_clash(old: dict, keys: tuple, commit: str):
    """Why a result for ``commit`` cannot be stored at ``keys`` of the
    record ``old``, or None."""
    if old.get("parent_commit", commit) != commit:
        return f"the record's parent is {old['parent_commit']}, not {commit}"
    node = old
    for key in keys[:-1]:
        node = node.get(key, {})
    if keys[-1] in node:
        return f"{'.'.join(keys)} is already recorded"
    return None


def record(old: dict, keys: tuple, header: dict, rev: str, commit: str,
           doc: dict) -> dict:
    """``old`` with ``doc`` stored at ``keys``, a new section given the
    fields of ``header``."""
    old.setdefault("parent", rev)
    old.setdefault("parent_commit", commit)
    node = old.setdefault(keys[0], header)
    for key in keys[1:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = doc
    return old


def resolve_for_record(args):
    """(commit, None) for a call whose result can be stored as ``--out``
    asks, else (None, the error line's text)."""
    commit = resolve(args.rev)
    if not commit:
        return None, f"{args.rev} names no commit"
    if not args.out:
        return commit, None
    return commit, record_clash(read(args.out), record_place(args)[0],
                                commit)


def store(args, commit: str, doc: dict) -> None:
    """Record ``doc`` in ``args.out``, read again: the call ran for
    minutes."""
    args.out.write_text(json.dumps(record(
        read(args.out), *record_place(args), args.rev, commit, doc),
        indent=2) + "\n", encoding="utf-8")


def run_both_orders(args) -> int:
    """The A/B of ``args`` in four child processes, the load orders
    alternating, the parent first; prints ``both_orders`` of their
    documents and, with ``--out``, records it there."""
    if args.out:
        commit, error = resolve_for_record(args)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
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
    doc = both_orders(docs["parent"], docs["change"])
    print(json.dumps(doc, indent=2))
    if args.out:
        store(args, commit, doc)
    return 0


def startup_seconds(argv: list, env: dict, cwd: Path) -> float:
    """Wall seconds of one process, from its start to its exit."""
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - start


def startup_envs(trees: dict, cache: Path) -> dict:
    """setting -> side -> environment of a started process: only that
    side's ``src`` in front of ``PYTHONPATH``, and the setting's bytecode
    variable.  The settings are the two ways a process gets its bytecode:
    compiled at every start, or read from a cache under ``cache`` that an
    untimed start has filled."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    path = base.get("PYTHONPATH")
    settings = {"dont_write_bytecode": {"PYTHONDONTWRITEBYTECODE": "1"},
                "warm_pycache_prefix": {"PYTHONPYCACHEPREFIX": str(cache)}}
    return {setting: {side: dict(base, **extra, PYTHONPATH=os.pathsep.join(
        [str(trees[side] / "src")] + ([path] if path else [])))
        for side in SIDES} for setting, extra in settings.items()}


def startup_rounds(envs: dict, configs: list, out: Path) -> dict:
    """setting -> config name -> side -> seconds per round.  Each of
    ``STARTUP_ROUNDS`` rounds starts every config once per setting and
    side, the sides in an order drawn per setting and config; an untimed
    start of each comes first."""
    argvs = {side: [[sys.executable, "-m", "iqcontrol.cli", "run",
                     str(config), "--out", str(out / side), "--quiet"]
                    for config in configs] for side in SIDES}
    for setting in envs.values():  # fills the cache; makes every output
        for side in SIDES:
            for argv in argvs[side]:
                startup_seconds(argv, setting[side], out)
    seconds = {name: {config.name: {side: [] for side in SIDES}
                      for config in configs} for name in envs}
    order, rng = list(SIDES), random.Random(0)
    for r in range(STARTUP_ROUNDS):
        for i, config in enumerate(configs):
            for name, setting in envs.items():
                rng.shuffle(order)
                for side in order:
                    seconds[name][config.name][side].append(
                        startup_seconds(argvs[side][i], setting[side], out))
        print(f"# round {r}", file=sys.stderr, flush=True)
    return seconds


def startup_summary(times: dict) -> dict:
    """Each side's median seconds and ``summary`` of the per-round ratios,
    for the per-round seconds ``times`` (side -> list) of one config."""
    parent, change = times["parent"], times["change"]
    return {"parent_median_s": round(float(np.median(parent)), 6),
            "change_median_s": round(float(np.median(change)), 6),
            **summary(parent, change)}


def run_startup(args) -> int:
    """The ``--startup`` A/B of ``args``: prints its document and, with
    ``--out``, records it there."""
    commit, error = resolve_for_record(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    configs = sorted((ROOT / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory(prefix="iq-startup-") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in SIDES}
        error = extract(commit, trees["parent"]) or (
            extract(commit, trees["change"]) if args.null else "")
        if error:
            print(error, end="", file=sys.stderr)
            return 2
        if not args.null:
            copy_working_tree(trees["change"])
        (tmp / "run").mkdir()
        seconds = startup_rounds(startup_envs(trees, tmp / "pycache"),
                                 configs, tmp / "run")
    doc = {"parent": args.rev, "parent_commit": commit, "null": args.null,
           "rounds": STARTUP_ROUNDS, "clock": STARTUP_CLOCK,
           "ratio": STARTUP_RATIO,
           "settings": {name: {config: startup_summary(times)
                               for config, times in per_config.items()}
                        for name, per_config in seconds.items()}}
    print(json.dumps(doc, indent=2))
    if args.out:
        store(args, commit, doc)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare with")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=WORKLOADS)
    what.add_argument("--startup", action="store_true",
                      help="time whole iqctl processes, per bundled config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--null", action="store_true",
                        help="load the revision on both sides")
    parser.add_argument("--out", type=Path,
                        help="BENCH_*.json record to store the result in")
    # a child's load order; the top-level call starts two children per order
    parser.add_argument("--loaded-first", choices=SIDES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.startup:
        return run_startup(args)
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
           "clock": CLOCK, "ratio": RATIO,
           "parent_s": parent, "change_s": change,
           **summary(parent, change)}
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
