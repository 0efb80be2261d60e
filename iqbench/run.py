"""Layered benchmark of the iqctl experiment runner.

    python3 iqbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--corrupt]

Run from anywhere; it finds the package under ``src/`` next to this
directory and writes only inside that checkout (a scratch directory it
removes, and the span file of a traced run under ``.iqbench-trace/``).

One run:

1. Generates the workload's configs from the seed (see workloads.py).
2. Runs them all once in a fresh child process (the reference pass). Its
   peak resident memory is ``peak_rss_mb``.
3. Starts fresh processes that import iqcontrol and check one config;
   the median of their times, scaled like the call times below, is
   ``setup_s``.
4. Runs whole passes over the configs in this process, one config after
   another through ``iqcontrol.cli.main`` (a closed loop with one client),
   until ``--seconds`` have passed and the workload's minimum number of
   passes is reached.  Every call is timed, and its time scaled to a
   reference machine speed (speed.py); every pass must reproduce the
   reference exit codes and output bytes exactly.
5. Checks every reference output independently (checks.py), outside the
   timed region.  A config fails if it raises, exits with the wrong code,
   fails a check, or changes on a rerun.

With ``--trace 1`` the passes alternate between untraced and traced
(tracing.py) and the per-layer metrics are printed instead of the
end-to-end ones.  ``--corrupt`` damages one CSV cell, one residual and one
exit code of the reference pass before checking, to show that the checks
catch them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, starting with ``#``, say how each figure was taken.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing
import workloads
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".iqbench-trace"
# Fresh processes timed for setup_s before and after the timed passes.
SETUP_REPEATS = (4, 5)
CHILD_TIMEOUT_S = 150
# Whole timed passes a run makes at least; they fix the sample count the
# tail percentile is chosen from.
MIN_PASSES = {"simulate_rows": 3, "sweep_grid": 3, "small_configs": 2,
              "reach_ladder": 2}
# Pass time after which a run stops even short of MIN_PASSES, in units of
# --seconds, so a much slower program still ends in time.
MAX_PASS_TIME = 4.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage reference outputs to show the checks fail")
    return parser.parse_args(argv)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile, at most 99, with >= 10 samples beyond it."""
    return max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / samples))))


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def output_path(cfg, cfg_path: Path, out_dir: Path) -> Path:
    suffix = ".csv" if cfg.doc["mode"] in ("simulate", "sweep") else ".json"
    return out_dir / (cfg_path.stem + suffix)


def argv_list(configs, cfg_paths, out_dir: Path) -> list:
    return [[cfg.command, str(path), "--out", str(out_dir), "--quiet"]
            for cfg, path in zip(configs, cfg_paths)]


def reference_pass(work: Path, configs, cfg_paths):
    """Exit codes, output bytes and peak RSS (MB) of a fresh child run.

    This is the first child the run starts, so the largest resident set
    among waited-for children is this one's.
    """
    out_dir = work / "ref"
    argv_file, codes_file = work / "ref_argv.json", work / "ref_codes.json"
    argv_file.write_text(json.dumps(argv_list(configs, cfg_paths, out_dir)),
                         encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "child.py"), "pass",
                    str(argv_file), str(codes_file)],
                   cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S, check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    codes = json.loads(codes_file.read_text(encoding="utf-8"))
    outputs = [output_path(cfg, path, out_dir) for cfg, path
               in zip(configs, cfg_paths)]
    return codes, [out.read_bytes() if out.exists() else None
                   for out in outputs], peak_mb


def setup_times(cfg_path: Path, repeats: int) -> list:
    """Reference seconds (speed.py) of fresh processes that import
    iqcontrol and check a config; calibration bursts run between them."""
    times, speed = [], Speedometer()
    speed.burst()
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 "check", str(cfg_path)],
                                cwd=ROOT, env=child_env())
        # Popen.wait(timeout) polls in sleeps of up to 50 ms, which would
        # round the time up; a timer kills a hung child instead.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        code = proc.wait()
        times.append(time.perf_counter() - start)
        timer.cancel()
        if code:
            raise subprocess.CalledProcessError(code, proc.args)
        speed.tick()
    return [t * k for t, k in zip(times, speed.scales())]


def timed_pass(cli, argvs, marker):
    """Run every argv through cli.main in turn.

    Returns the reference seconds of each call (speed.py; calibration
    bursts run between calls, untimed), the exit codes, and the mean
    factor that turned measured seconds into reference seconds.
    """
    main = cli.main
    durations, codes = [], []
    clock = time.perf_counter
    speed = Speedometer()
    speed.burst()
    for i, argv in enumerate(argvs):
        marker.config = i
        t0 = clock()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # recorded as a failed config
            code = f"raised {exc!r}"
        durations.append(clock() - t0)
        codes.append(code)
        speed.tick()
    speed.burst()
    scaled = [d * k for d, k in zip(durations, speed.scales())]
    return scaled, codes, sum(scaled) / sum(durations)


def corrupt(configs, codes, outputs) -> list:
    """Damage one CSV cell, one residual and one exit code, where present."""
    done = []
    modes = [cfg.doc["mode"] for cfg in configs]
    csv_i = next((i for i, m in enumerate(modes)
                  if m in ("simulate", "sweep") and outputs[i]), None)
    if csv_i is not None:
        header, first, rest = outputs[csv_i].split(b"\n", 2)
        cells = first.split(b",")
        cells[-1] = b"2"
        outputs[csv_i] = b"\n".join([header, b",".join(cells), rest])
        done.append((csv_i, "last cell of the first CSV row set to 2"))
    res_i = next((i for i, m in enumerate(modes)
                  if m in ("solve", "reach") and codes[i] == 0), None)
    if res_i is not None:
        doc = json.loads(outputs[res_i])
        doc["residual"] = 0.5
        outputs[res_i] = (json.dumps(doc, sort_keys=True, indent=2)
                          + "\n").encode()
        done.append((res_i, "residual set to 0.5"))
    code_i = next((i for i in reversed(range(len(configs)))
                   if codes[i] == 0 and i not in (csv_i, res_i)), None)
    if code_i is not None:
        codes[code_i] = 2
        done.append((code_i, "exit code 0 swapped to 2"))
    return done


def per_layer(rec, scale, traced_walls, plain_walls, configs,
              ref_outputs) -> dict:
    """Per-layer metrics of the traced passes; ``scale`` turns their
    measured seconds into reference seconds."""
    passes = len(traced_walls)
    items = passes * sum(cfg.items for cfg in configs)
    calls = rec.calls

    def per_pass_s(ns):
        return ns * scale / passes / 1e9

    def solve_ms(n):
        spans = rec.solve_ns.get(n)
        return statistics.median(spans) * scale / 1e6 if spans else 0.0

    solves = calls["qubit.solve_controls_numeric"]
    metrics = {
        "trace.overhead_ratio": (statistics.median(traced_walls)
                                 / statistics.median(plain_walls), "ratio"),
        "opkit.self_s": (per_pass_s(rec.self_ns["opkit"]), "s"),
        "opkit.eigensolves_per_item": (
            (calls["opkit.eig_hermitian"] + calls["opkit.validate_density_matrix"]
             + calls["opkit.trace_distance"]) / items, "count"),
        "qubit.self_s": (per_pass_s(rec.self_ns["qubit"]), "s"),
        "qubit.unitaries_per_item": (
            calls["qubit.conditional_unitaries"] / items, "count"),
        "qubit.reduced_state_closed_form.calls": (
            calls["qubit.reduced_state_closed_form"] / passes, "count"),
        "qubit.closed_form_reduced_state.calls_per_target": (
            rec.child_calls["qubit.solve_controls_numeric",
                            "qubit.closed_form_reduced_state"] / solves
            if solves else 0.0, "count"),
        "cli.self_s": (per_pass_s(rec.self_ns["cli"]), "s"),
        "cli.validate_s": (per_pass_s(rec.total_ns["cli.load_config"]
                                      + rec.total_ns["cli.validate_config"]), "s"),
        "cli.output_bytes": (sum(len(b or b"") for b in ref_outputs), "bytes"),
        "nlevel.self_s": (per_pass_s(rec.self_ns["nlevel"]), "s"),
        "nlevel.descent_iters": (calls["nlevel.project_simplex"] / passes,
                                 "count"),
    }
    for n in workloads.REACH_FEASIBLE_N:
        metrics[f"nlevel.solve_ms.n{n}"] = (solve_ms(n), "ms")
    metrics.update({
        "verify.busy_s": (per_pass_s(rec.total_ns["verify.check_solution"]), "s"),
        "verify.check_solution.calls": (
            calls["verify.check_solution"] / passes, "count"),
        "verify.max_oracle_distance": (rec.max_oracle, "dist"),
        "thermal.busy_s": (per_pass_s(rec.total_ns["thermal.thermal_occupancy"]
                                      + rec.total_ns["thermal.required_gap"]),
                           "s"),
        "thermal.calls": ((calls["thermal.thermal_occupancy"]
                           + calls["thermal.required_gap"]) / passes, "count"),
    })
    return metrics


def run(args) -> dict:
    if not (ROOT / "src" / "iqcontrol" / "cli.py").is_file():
        raise SystemExit(f"error: no iqcontrol sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from iqcontrol import cli, nlevel, opkit, qubit, thermal, verify
    modules = {"cli": cli, "nlevel": nlevel, "opkit": opkit, "qubit": qubit,
               "thermal": thermal, "verify": verify}

    configs = workloads.generate(args.workload, args.seed)
    items_per_pass = sum(cfg.items for cfg in configs)
    work = Path(tempfile.mkdtemp(prefix=".iqbench-work-", dir=ROOT))
    try:
        cfg_paths = []
        for i, cfg in enumerate(configs):
            path = work / "cfg" / f"c{i:04d}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(cfg.doc), encoding="utf-8")
            cfg_paths.append(path)

        ref_codes, ref_outputs, peak_mb = reference_pass(work, configs,
                                                         cfg_paths)
        corrupted = corrupt(configs, ref_codes, ref_outputs) if args.corrupt else []
        setup = [] if args.trace else setup_times(cfg_paths[0],
                                                  SETUP_REPEATS[0])

        # Let lazy imports and first-call set-up finish before timing.
        timed_pass(cli, argv_list(configs[:1], cfg_paths[:1], work / "warm"),
                   SimpleNamespace())

        # Every timed pass writes over the output files of the one before,
        # emptied after each pass so that a file left unwritten shows as a
        # difference.  Creating a file costs ~0.4 ms on a VM's disk, and
        # erratically so; writing over one costs ~0.04 ms.
        out_dir = work / "out"
        argvs = argv_list(configs, cfg_paths, out_dir)
        out_dir.mkdir()
        out_paths = [output_path(cfg, path, out_dir)
                     for cfg, path in zip(configs, cfg_paths)]
        for path in out_paths:
            path.touch()

        rec = tracing.Recorder()
        durations, plain_walls, traced_walls = [], [], []
        plain_scales, traced_scales = [], []
        rerun_diffs = {}
        passes = 0
        start = time.perf_counter()
        # A traced run needs one untraced and one traced pass, and ends on
        # a traced one.
        min_passes = 2 if args.trace else MIN_PASSES[args.workload]
        while True:
            if args.trace and passes % 2:
                with tracing.traced(rec, modules):
                    pass_durations, codes, scale = timed_pass(cli, argvs, rec)
                traced_walls.append(sum(pass_durations))
                traced_scales.append(scale)
            else:
                pass_durations, codes, scale = timed_pass(cli, argvs,
                                                          SimpleNamespace())
                durations += pass_durations
                plain_scales.append(scale)
                plain_walls.append(sum(pass_durations))
            for i, path in enumerate(out_paths):
                if codes[i] != ref_codes[i] or path.read_bytes() != ref_outputs[i]:
                    rerun_diffs.setdefault(i, f"pass {passes} differs from "
                                              "the reference run")
                os.truncate(path, 0)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds * MAX_PASS_TIME and passes >= 2:
                break
            if (elapsed >= args.seconds and passes >= min_passes
                    and not (args.trace and passes % 2)):
                break

        if not args.trace:
            setup += setup_times(cfg_paths[0], SETUP_REPEATS[1])

        failures = {}
        for i, cfg in enumerate(configs):
            reasons = checks.check_output(cfg, ref_codes[i], ref_outputs[i],
                                          verify)
            if i in rerun_diffs:
                reasons.append(rerun_diffs[i])
            if reasons:
                failures[i] = reasons
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = [f"{args.workload} seed={args.seed}: {len(configs)} configs, "
              f"{items_per_pass} {workloads.ITEM_UNIT[args.workload]} "
              f"per pass, {passes} timed passes in {elapsed:.2f} s"]
    for i, what in corrupted:
        report.append(f"corrupted config {i}: {what}; caught: "
                      f"{'yes' if i in failures else 'NO'}")
    for i, reasons in list(failures.items())[:10]:
        print(f"config {i} ({configs[i].doc['mode']}) failed: "
              f"{'; '.join(reasons)}", file=sys.stderr)
    report.append(f"failed_ratio = {len(failures)}/{len(configs)} "
                  f"= {len(failures) / len(configs):.6g}")

    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / f"spans-{args.workload}.csv"
        rec.write(span_file)
        report.append(f"{len(traced_walls)} traced and {len(plain_walls)} "
                      f"untraced passes; {len(rec.spans)} spans written to "
                      f"{span_file.relative_to(ROOT)}; times and counts are "
                      "per traced pass")
        metrics = per_layer(rec, statistics.fmean(traced_scales),
                            traced_walls, plain_walls, configs, ref_outputs)
    else:
        pct = tail_percentile(MIN_PASSES[args.workload] * len(configs))
        report.append(f"config_ms_p50 and config_ms_tail (p{pct}) over "
                      f"{len(durations)} calls; setup_s is the median of "
                      f"{len(setup)} fresh processes; peak_rss_mb is the "
                      "reference-pass child's")
        report.append("times are reference times (speed.py): measured time "
                      "x 1 ms / mean of the calibration bursts around it; "
                      "mean scale per pass: "
                      + ", ".join(f"{x:.4f}" for x in plain_scales))
        metrics = {
            "items_per_s": (items_per_pass * passes / sum(durations), "1/s"),
            "config_ms_p50": (statistics.median(durations) * 1e3, "ms"),
            "config_ms_tail": (nearest_rank(durations, pct) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "ok_ratio": (1.0 - len(failures) / len(configs), "ratio"),
        }
    for line in report:
        print(f"# {line}")
    return {"correct": not failures, "attempted": len(configs),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
