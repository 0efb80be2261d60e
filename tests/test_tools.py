"""The developer tools' pure helpers: the mutation sampler's line filter,
test selection and equivalence keys, the parity check's difference magnitudes,
malformed configs and edge-shape sweeps, the working-tree copy, the
paired-run summary, the run length each timing tool sets itself and the
same-process A/B timing.  None runs a suite, a tree or the benchmark."""

import gc
import importlib.util
import json
import math
import os
import random
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants, parity, pairs = load("mutants"), load("parity"), load("pairs")
ab = load("ab")


class TestMutantSites:
    def test_site_filter_keeps_only_that_line(self):
        all_sites = mutants.sites(mutants.ROOT)
        rel, row = all_sites[0][:2]
        chosen = mutants.on_lines(all_sites, [f"{rel}:{row}"])
        assert chosen == [i for i, s in enumerate(all_sites)
                          if s[:2] == (rel, row)]

    def test_repeated_sites_are_merged_in_order(self):
        all_sites = mutants.sites(mutants.ROOT)
        first, last = all_sites[0], all_sites[-1]
        chosen = mutants.on_lines(all_sites, [f"{last[0]}:{last[1]}",
                                              f"{first[0]}:{first[1]}"])
        assert chosen[0] == 0 and chosen[-1] == len(all_sites) - 1
        assert chosen == sorted(chosen)

    @pytest.mark.parametrize("spec", ["src/iqcontrol/nlevel.py",
                                      "src/iqcontrol/nlevel.py:x",
                                      "src/iqcontrol/nlevel.py:1",
                                      "src/iqcontrol/missing.py:57"])
    def test_bad_or_empty_line_raises(self, spec):
        with pytest.raises(ValueError):
            mutants.on_lines(mutants.sites(mutants.ROOT), [spec])


class TestMutantSelection:
    # a fake map: t1 and t2 run a.py:5, only t2 runs a.py:7, t3 starts an
    # iqcontrol child, and a.py:1 runs at import
    LINES = {"everywhere": {("src/a.py", 1)}, "spawners": {"t3"},
             "tests": {"t1": {("src/a.py", 5)},
                       "t2": {("src/a.py", 5), ("src/a.py", 7)},
                       "t3": {("src/b.py", 2)}, "t4": set()}}

    @pytest.mark.parametrize("row, tests", [
        (5, ["t1", "t2", "t3"]), (7, ["t2", "t3"]), (1, None), (9, [])])
    def test_selection_of_a_fake_map(self, row, tests):
        # the tests that run the line, with every spawner, in suite order;
        # None for the whole suite; [] when no test runs the line
        site = ("src/a.py", row, 4, "<", "<=")
        assert mutants.select(site, self.LINES) == tests

    def test_code_rows_reach_nested_code(self):
        # a cached function's rows take in those of its comprehensions,
        # which are code objects of their own
        def f(xs):
            return [x + 1
                    for x in xs
                    if x]
        first = f.__code__.co_firstlineno
        assert mutants.code_rows(f.__code__) == set(range(first, first + 4))

    def test_line_map_document_reads_back(self, tmp_path):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({
            "everywhere": [["src/a.py", 1]], "spawners": ["t3"],
            "tests": {"t1": [["src/a.py", 5]],
                      "t2": [["src/a.py", 5], ["src/a.py", 7]],
                      "t3": [["src/b.py", 2]], "t4": []}}), encoding="utf-8")
        assert mutants.read_line_map(path) == self.LINES

    @pytest.mark.parametrize("listed, code, result", [
        (False, 1, "uncovered"), (True, 0, "equivalent")])
    def test_uncovered_site_fails_unless_listed(self, monkeypatch, capsys,
                                                listed, code, result):
        # no test runs the site's line: it is not mutated, and the run
        # fails unless EQUIVALENT lists it
        all_sites = mutants.sites(mutants.ROOT)
        rel, row = all_sites[0][:2]
        trials = []

        def trial(site, timeout, tests=None):
            trials.append(site)
            return "passed", 1.0
        monkeypatch.setattr(mutants, "trial", trial)
        monkeypatch.setattr(mutants, "line_map", lambda: {
            "everywhere": set(), "spawners": set(), "tests": {"t": set()}})
        chosen = mutants.on_lines(all_sites, [f"{rel}:{row}"])
        if listed:
            site_keys = mutants.keys(mutants.ROOT, all_sites)
            monkeypatch.setattr(mutants, "EQUIVALENT", {
                site_keys[i]: "no test runs it" for i in chosen})
        assert mutants.main(["--site", f"{rel}:{row}"]) == code
        assert trials == [None]
        rows = [line for line in capsys.readouterr().out.splitlines()
                if f" {rel}:{row} " in line]
        assert rows == [f"| {i} | {rel}:{row} | `{all_sites[i][3]}` -> "
                        f"`{all_sites[i][4]}` | 0 | {result} | 0.0 |"
                        for i in chosen]


class TestEquivalentSurvivors:
    def test_each_listed_key_names_one_site(self):
        found = Counter(mutants.keys(mutants.ROOT,
                                     mutants.sites(mutants.ROOT)))
        assert {key: found[key] for key in mutants.EQUIVALENT} \
            == dict.fromkeys(mutants.EQUIVALENT, 1)

    def test_keys_ignore_a_blank_line_above_a_site(self, tmp_path):
        shutil.copytree(mutants.ROOT / "src", tmp_path / "src")
        all_sites = mutants.sites(mutants.ROOT)
        # one blank line above every site, bottom up so rows stay put
        for rel, row, *_ in sorted(set(s[:2] for s in all_sites),
                                   reverse=True):
            path = tmp_path / rel
            lines = path.read_text(encoding="utf-8").splitlines(True)
            path.write_text("".join(lines[:row - 1] + ["\n"]
                                    + lines[row - 1:]), encoding="utf-8")
        moved = mutants.sites(tmp_path)
        assert [s[1] for s in moved] != [s[1] for s in all_sites]
        assert mutants.keys(tmp_path, moved) \
            == mutants.keys(mutants.ROOT, all_sites)


class TestParityMagnitudes:
    def write(self, tmp_path, name, a, b):
        paths = tmp_path / f"a-{name}", tmp_path / f"b-{name}"
        for path, text in zip(paths, (a, b)):
            path.write_text(text, encoding="utf-8")
        return paths

    def test_json_list_entries_fold_into_their_key(self, tmp_path):
        a = {"probe_diagonal": [0.25, 0.75], "reachable": True,
             "residual": 1e-16, "stage": {"cycles": 3}}
        b = {"probe_diagonal": [0.25 + 1e-14, 0.75 - 3e-14],
             "reachable": True, "residual": 2e-16, "stage": {"cycles": 3}}
        largest = parity.magnitudes(*self.write(
            tmp_path, "r.json", json.dumps(a), json.dumps(b)))
        assert largest.keys() == {"probe_diagonal", "reachable", "residual",
                                  "stage.cycles"}
        assert largest["probe_diagonal"] == pytest.approx(3e-14, rel=1e-3)
        assert largest["residual"] == pytest.approx(1e-16)
        assert largest["reachable"] == 0.0 and largest["stage.cycles"] == 0

    def test_json_non_numeric_change_is_infinite(self, tmp_path):
        largest = parity.magnitudes(*self.write(
            tmp_path, "r.json", '{"reachable": true}', '{"reachable": false}'))
        assert math.isinf(largest["reachable"])
        assert parity.describe(largest) == "reachable not numeric"

    def test_csv_columns(self, tmp_path):
        largest = parity.magnitudes(*self.write(
            tmp_path, "s.csv", "t,rho00\n0,0.5\n1,0.25\n",
            "t,rho00\n0,0.5\n1,0.2500001\n"))
        assert largest["t"] == 0.0
        assert largest["rho00"] == pytest.approx(1e-7, rel=1e-6)

    @pytest.mark.parametrize("name, a, b", [
        ("r.json", '{"w": [1, 2]}', '{"w": [1, 2, 3]}'),
        ("r.json", '{"w": 1}', '{"v": 1}'),
        ("s.csv", "t\n0\n", "t\n0\n1\n"),
        ("s.csv", "t\n0\n", "u\n0\n"),
        ("s.txt", "a", "b"),
    ])
    def test_structure_change_has_no_magnitudes(self, tmp_path, name, a, b):
        assert parity.magnitudes(*self.write(tmp_path, name, a, b)) is None


class TestParityMalformedConfigs:
    def test_cases_are_the_cli_tests_own(self):
        # one home for the list, tests/malformed_configs.py: the parity run
        # reads the list that the CLI tests run
        from test_cli import TestMalformedConfigs
        cases = parity.malformed_configs()
        assert cases.keys() == TestMalformedConfigs.CASES.keys()
        assert all(json.dumps(cases[k]) == json.dumps(v)
                   for k, v in TestMalformedConfigs.CASES.items())


@pytest.fixture(scope="module")
def parity_plan(tmp_path_factory):
    """The parity check's configs, written once: (their directory, the
    argv lists ``parity.invocations`` returns)."""
    cfg = tmp_path_factory.mktemp("parity") / "cfg"
    return cfg, parity.invocations(cfg)


class TestParityArgvVariants:
    def test_variants_are_in_the_plan(self, parity_plan):
        # every non-canonical form the docstring lists, on one config
        _, plan = parity_plan
        config = "../cfg/solve_example.json"
        out = "out/variants"
        for argv in (["--quiet", "--out", out, "run", config],
                     ["run", config, f"--out={out}"],
                     ["run", config, "--qu", "--out", out],
                     ["run", config, "--out", "out/first", "--out", out],
                     ["run", "--out", out, "--", config],
                     ["-h"], ["run"], ["transmute", config],
                     ["run", "../cfg", "--out", out]):
            assert argv in plan

    def test_unnormalized_paths_are_in_the_plan(self, parity_plan):
        # spellings a normalizing path type would print otherwise, each
        # without --quiet so that its message is compared
        _, plan = parity_plan
        config = "../cfg/solve_example.json"
        for argv in (["check", f"./{config}"],
                     ["check", "../cfg//solve_example.json"],
                     ["run", "./../cfg//missing.json", "--out", "out/variants"],
                     ["run", config, "--out", "out/variants/"],
                     ["run", config, "--out", "./out/variants"]):
            assert argv in plan


class TestParityEdgeSweeps:
    def test_edge_sweeps_are_in_the_plan(self, parity_plan):
        # grids the benchmark never draws: shapes (a, 1), (1, b) and
        # (a, 1, c), an overflowing axis next to 0 and 2 values, and no axis
        cfg, plan = parity_plan
        shapes = set()
        for name, doc in parity.EDGE_SWEEPS.items():
            path = cfg / f"edge-{name}.json"
            assert json.loads(path.read_text(encoding="utf-8")) == doc
            assert ["sweep", f"../cfg/{path.name}", "--out",
                    "out/sweep"] in plan
            shapes.add(tuple(min(axis["count"], 2) for axis in doc["axes"]))
        assert shapes == {(2, 1), (1, 2), (2, 1, 2), (2, 0), (2, 2), ()}


class TestParityEdgeSimulates:
    def test_zero_row_simulates_are_in_the_plan(self, parity_plan):
        # no time rows, as a range of count 0 and as an empty list, and
        # three rows whose result overflows
        cfg, plan = parity_plan
        times = []
        for name, doc in parity.EDGE_SIMULATES.items():
            path = cfg / f"edge-{name}.json"
            assert json.loads(path.read_text(encoding="utf-8")) == doc
            assert ["run", f"../cfg/{path.name}", "--out", "out/run"] in plan
            times.append(doc["times"])
        assert times == [{"start": 0.0, "stop": 1.0, "count": 0}, [],
                         {"start": 0.0, "stop": 1.0, "count": 3}]


class TestParityEdgeJson:
    def test_overflowing_json_is_in_the_plan(self, parity_plan):
        cfg, plan = parity_plan
        for name, doc in parity.EDGE_JSON.items():
            path = cfg / f"edge-{name}.json"
            assert json.loads(path.read_text(encoding="utf-8")) == doc
            assert ["run", f"../cfg/{path.name}", "--out", "out/run"] in plan


class TestCopyWorkingTree:
    def test_copies_what_git_lists(self, tmp_path, monkeypatch):
        # tracked and untracked files arrive; ignored ones, a tracked file
        # gone from the tree and .git do not
        repo, dest = tmp_path / "repo", tmp_path / "copy"
        files = {".gitignore": "ignored.txt\ncache/\n", "a.txt": "a",
                 "sub/b.txt": "b", "gone.txt": "g", "c.txt": "c",
                 "ignored.txt": "i", "cache/d.txt": "d"}
        subprocess.run(["git", "init", "-q", str(repo)], check=True)
        for rel, text in files.items():
            (repo / rel).parent.mkdir(parents=True, exist_ok=True)
            (repo / rel).write_text(text, encoding="utf-8")
        subprocess.run(["git", "-C", str(repo), "add", ".gitignore", "a.txt",
                        "sub/b.txt", "gone.txt"], check=True)
        (repo / "gone.txt").unlink()
        monkeypatch.setattr(parity, "ROOT", repo)
        parity.copy_working_tree(dest)
        copied = {p.relative_to(dest).as_posix(): p.read_text(encoding="utf-8")
                  for p in dest.rglob("*") if p.is_file()}
        assert copied == {rel: files[rel] for rel in
                          (".gitignore", "a.txt", "sub/b.txt", "c.txt")}


class TestPairsSummary:
    END_TO_END = [{"name": "items_per_s", "better": "higher"},
                  {"name": "config_ms_p50", "better": "lower"}]

    @staticmethod
    def line(items, p50, correct=True):
        return {"correct": correct, "attempted": 20, "failed": 0,
                "metrics": {"items_per_s": {"value": items, "unit": "1/s"},
                            "config_ms_p50": {"value": p50, "unit": "ms"}}}

    def test_seed_ranges(self):
        assert pairs.parse_seeds("41-44,51,53-54") == [41, 42, 43, 44, 51,
                                                       53, 54]

    def test_wins_follow_each_metric_direction(self):
        # (parent, change) per seed: the change has more items in three
        # pairs and ties one; it is faster per config in two
        runs = [(self.line(100.0, 2.0), self.line(110.0, 1.5)),
                (self.line(120.0, 1.0), self.line(120.0, 1.0)),
                (self.line(90.0, 3.0), self.line(95.0, 3.5)),
                (self.line(105.0, 2.5), self.line(101.0, 2.0)),
                (self.line(80.0, 2.0), self.line(130.0, 2.5))]
        section = pairs.summarize([1, 2, 3, 4, 5], runs, self.END_TO_END,
                                  10.0)
        assert section["pairs"] == 5 and section["all_correct"]
        items = section["metrics"]["items_per_s"]
        assert items["better"] == "higher"
        assert (items["change_wins"], items["ties"]) == (3, 1)
        assert items["parent"] == {"median": 100.0, "q1_q3": [90.0, 105.0],
                                   "runs": [100.0, 120.0, 90.0, 105.0, 80.0]}
        assert items["change"]["median"] == 110.0
        assert items["change"]["q1_q3"] == [101.0, 120.0]
        p50 = section["metrics"]["config_ms_p50"]
        assert (p50["change_wins"], p50["ties"]) == (2, 1)

    def test_an_incorrect_run_marks_the_workload(self):
        runs = [(self.line(1.0, 1.0), self.line(1.0, 1.0, correct=False)),
                (self.line(1.0, 1.0), self.line(1.0, 1.0))]
        assert not pairs.summarize([1, 2], runs, self.END_TO_END,
                                   1.0)["all_correct"]

    def test_merge_keeps_earlier_workloads(self, tmp_path):
        out = tmp_path / "bench.json"
        pairs.merge(out, {"parent": "abc", "workloads": {"a": {"pairs": 1}}})
        pairs.merge(out, {"parent": "abc", "workloads": {"b": {"pairs": 2}},
                          "null_pairs": {"a": {"pairs": 3}}})
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc == {"parent": "abc",
                       "workloads": {"a": {"pairs": 1}, "b": {"pairs": 2}},
                       "null_pairs": {"a": {"pairs": 3}}}

    def runs(self, *items):
        # (parent, change) items_per_s per seed; config_ms_p50 mirrors them
        return [(self.line(p, 1000.0 / p), self.line(c, 1000.0 / c))
                for p, c in items]

    def test_later_seeds_are_pooled(self, tmp_path):
        # two calls on one workload give the section one call on all its
        # seeds gives: medians, quartiles, wins and ties over every pair
        first = self.runs((100.0, 110.0), (120.0, 120.0), (90.0, 80.0))
        second = self.runs((105.0, 130.0), (95.0, 99.0))
        out = tmp_path / "bench.json"
        for seeds, runs in (([1, 2, 3], first), ([7, 8], second)):
            pairs.merge(out, {"parent": "HEAD", "parent_commit": "abc",
                              "workloads": {"w": pairs.summarize(
                                  seeds, runs, self.END_TO_END, 5.0)}})
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["workloads"]["w"] == pairs.summarize(
            [1, 2, 3, 7, 8], first + second, self.END_TO_END, 5.0)
        items = doc["workloads"]["w"]["metrics"]["items_per_s"]
        assert (items["change_wins"], items["ties"]) == (3, 1)
        assert items["parent"]["median"] == 100.0
        assert items["change"]["median"] == 110.0
        assert (doc["parent"], doc["parent_commit"]) == ("HEAD", "abc")

    @pytest.mark.parametrize("seeds, seconds, commit, message", [
        ([3, 4], 5.0, "abc", "workloads.w already holds seeds [3]"),
        ([4, 5], 10.0, "abc", "workloads.w was run at --seconds 5.0"),
        ([4, 5], 5.0, "def", "the record's parent is abc, not def"),
        ([4, 5], 5.0, "abc", None)])
    def test_clash_with_the_record(self, seeds, seconds, commit, message):
        old = {"parent_commit": "abc", "workloads": {"w": pairs.summarize(
            [2, 3], self.runs((1.0, 2.0), (3.0, 4.0)), self.END_TO_END, 5.0)}}
        assert pairs.clash(old, "workloads", "w", seeds, seconds,
                           commit) == message
        # another workload, or the other kind, pools nothing
        assert pairs.clash(old, "null_pairs", "w", seeds, seconds,
                           "abc") is None

    def test_seed_already_recorded_exits_two(self, tmp_path, monkeypatch,
                                             capsys):
        # refused before any tree is extracted or run
        out = tmp_path / "bench.json"
        pairs.merge(out, {"parent_commit": "abc", "workloads": {
            "w": pairs.summarize([1, 2], self.runs((1.0, 2.0), (3.0, 4.0)),
                                 self.END_TO_END, 15.0)}})
        before = out.read_bytes()
        monkeypatch.setattr(pairs, "resolve", lambda rev: "abc")
        monkeypatch.setattr(pairs, "extract", None)
        assert pairs.main(["HEAD", "--workload", "w", "--seeds", "2-3",
                           "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == "error: workloads.w already holds seeds [2]\n"
        assert out.read_bytes() == before


class TestRunLength:
    @pytest.mark.parametrize("tool, argv", [
        ("ab", ["HEAD", "--workload", "small_configs", "--passes", "40"]),
        ("pairs", ["HEAD", "--workload", "sweep_grid", "--seeds", "1-2",
                   "--seconds", "5"])])
    def test_run_length_is_no_option(self, monkeypatch, capsys, tool, argv):
        # refused by argparse before any child starts
        monkeypatch.setattr(subprocess, "run", None)
        with pytest.raises(SystemExit) as raised:
            {"ab": ab, "pairs": pairs}[tool].main(argv)
        assert raised.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" \
            in capsys.readouterr().err

    def test_pairs_run_for_the_benchmark_seconds(self, monkeypatch, capsys):
        # every child command carries BENCHMARK.json's run_seconds, and so
        # does the record
        bench = json.loads((pairs.ROOT / "BENCHMARK.json").read_text(
            encoding="utf-8"))
        line = {"correct": True, "failed": 0, "metrics": {
            spec["name"]: {"value": 1.0} for spec in bench["end_to_end"]}}
        commands = []

        def run(argv, cwd, capture_output, text):
            commands.append(argv)
            return subprocess.CompletedProcess(argv, 0, json.dumps(line), "")
        monkeypatch.setattr(pairs, "resolve", lambda rev: "abc")
        monkeypatch.setattr(pairs, "extract", lambda rev, dest: "")
        monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
        monkeypatch.setattr(subprocess, "run", run)
        assert pairs.main(["HEAD", "--workload", "w", "--seeds", "1-2"]) == 0
        assert [argv[argv.index("--seconds") + 1] for argv in commands] \
            == [str(bench["run_seconds"])] * 4
        record = json.loads(capsys.readouterr().out)
        assert record["workloads"]["w"]["seconds"] == bench["run_seconds"]


class TestAbTiming:
    def test_each_side_sums_its_own_calls(self):
        # a fake clock that each side's main advances by its own cost
        now, calls, cost = [0.0], [], (3.0, 2.0)

        def side(s):
            def main(argv):
                calls.append((s, argv))
                now[0] += cost[s]
            return main
        argvs = [[f"p{i}" for i in range(40)], [f"c{i}" for i in range(40)]]
        totals = ab.timed_pass([side(0), side(1)], argvs, random.Random(0),
                               clock=lambda: now[0])
        assert totals == [120.0, 80.0]
        assert sorted(calls) == sorted([(0, f"p{i}") for i in range(40)]
                                       + [(1, f"c{i}") for i in range(40)])
        # each config runs on both sides before the next, in a drawn order
        firsts = [s for s, _ in calls[::2]]
        assert [int(a[1:]) for _, a in calls[::2]] == list(range(40))
        assert 0 < sum(firsts) < 40

    @pytest.mark.parametrize("swap, loads", [
        (False, ["iq_parent", "iq_change"]),
        (True, ["iq_change", "iq_parent"])])
    def test_load_order_keeps_each_side_its_time(self, swap, loads):
        # the same fake clock, the mains as the two trees' loads return them
        now, cost, loaded = [0.0], {"p": 3.0, "c": 2.0}, []

        def load(name, tree):
            loaded.append(name)

            def main(argv):
                now[0] += cost[tree]
            return types.SimpleNamespace(main=main)
        mains = ab.load_mains({"parent": "p", "change": "c"}, swap, load=load)
        assert loaded == loads
        argvs = [["a"] * 40, ["b"] * 40]
        assert ab.timed_pass(mains, argvs, random.Random(1),
                             clock=lambda: now[0]) == [120.0, 80.0]

    @pytest.mark.parametrize("budget, floor, cost, passes", [
        (10.0, 2, (3.0, 2.0), 3),  # the change reaches the budget last
        (10.0, 2, (2.0, 3.0), 3),  # the parent does
        (10.0, 2, (2.5, 2.5), 2),  # both reach it exactly
        (10.0, 5, (3.0, 2.0), 5)])  # both sides are past it before the floor
    def test_passes_stop_at_budget_and_floor(self, monkeypatch, budget, floor,
                                             cost, passes):
        # one config run twice per side and pass
        now = [0.0]

        def side(s):
            def main(argv):
                now[0] += cost[s]
            return main
        monkeypatch.setattr(ab, "BUDGET_S", budget)
        monkeypatch.setattr(ab, "MIN_PASSES", floor)
        seconds = ab.timed_passes([side(0), side(1)], [["p"], ["c"]],
                                  random.Random(0), clock=lambda: now[0])
        assert seconds == [[2.0 * cost[0], 2.0 * cost[1]]] * passes

    def test_a_pass_runs_every_config_first_on_each_side(self, monkeypatch):
        calls = []
        mains = [lambda argv, s=s: calls.append((s, argv)) for s in (0, 1)]
        argvs = [[f"p{i}" for i in range(30)], [f"c{i}" for i in range(30)]]
        monkeypatch.setattr(ab, "BUDGET_S", 0.0)
        monkeypatch.setattr(ab, "MIN_PASSES", 2)
        assert ab.timed_passes(mains, argvs, random.Random(0),
                               clock=lambda: 0.0) == [[0.0, 0.0]] * 2
        assert sorted(calls) == sorted(
            [(0, a) for a in argvs[0]] * 4 + [(1, a) for a in argvs[1]] * 4)
        # the side that runs each config first, per timed_pass call
        firsts = [[s for s, _ in calls[i:i + 60:2]] for i in range(0, 240, 60)]
        assert 0 < sum(firsts[0]) < 30
        assert firsts[1] == [1 - s for s in firsts[0]]
        assert firsts[3] == [1 - s for s in firsts[2]]
        assert firsts[2] != firsts[0]  # each pass draws afresh

    def test_no_collection_inside_a_pass(self, monkeypatch):
        # garbage is collected before each pass, never during a timed call
        enabled, collected = [], []
        mains = [lambda argv: enabled.append(gc.isenabled())] * 2
        monkeypatch.setattr(ab.gc, "collect",
                            lambda: collected.append(len(enabled)))
        monkeypatch.setattr(ab, "BUDGET_S", 0.0)
        monkeypatch.setattr(ab, "MIN_PASSES", 3)
        ab.timed_passes(mains, [["p"] * 5, ["c"] * 5], random.Random(0),
                        clock=lambda: 0.0)
        assert enabled == [False] * 60 and gc.isenabled()
        assert collected == [0, 20, 40]

    def test_slot_bias_of_canned_medians(self):
        # true ratio 1.2, the slot loaded first 5% faster: the parent-first
        # runs read 1.2 / 1.05, the change-first runs 1.2 * 1.05, each
        # order's second run 2% above its first
        first = [{"median": 1.2 / 1.05 / 1.01, "ci95": [1.1, 1.2]},
                 {"median": 1.2 / 1.05 * 1.01, "ci95": [1.1, 1.2]}]
        second = [{"median": 1.2 * 1.05 / 1.01, "ci95": [1.2, 1.3]},
                  {"median": 1.2 * 1.05 * 1.01, "ci95": [1.2, 1.3]}]
        result = ab.both_orders(first, second)
        assert result["ratio"] == 1.2
        assert result["slot_bias"] == round(math.log(1.05), 6)
        assert result["parent_first"] == {"between_calls": 1.0201,
                                          "children": first}
        assert result["change_first"] == {"between_calls": 1.0201,
                                          "children": second}
        assert ab.both_orders(second, first)["slot_bias"] \
            == -result["slot_bias"]

    def test_every_call_runs_both_load_orders(self, monkeypatch, capsys):
        # two children per load order, told their order by the hidden
        # option, the orders alternating from the parent-first one
        argvs, medians = [], [1.1, 1.3, 1.2, 1.4]

        def run(argv, stdout, text):
            argvs.append(argv)
            doc = {"median": medians[len(argvs) - 1],
                   "loaded_first": argv[-1]}
            return subprocess.CompletedProcess(argv, 0, json.dumps(doc))
        monkeypatch.setattr(ab.subprocess, "run", run)
        assert ab.main(["abc123", "--workload", "small_configs", "--seed",
                        "3", "--null"]) == 0
        common = [sys.executable, ab.__file__, "abc123", "--workload",
                  "small_configs", "--seed", "3", "--null"]
        assert argvs == [common + ["--loaded-first", first]
                         for first in ("parent", "change") * 2]
        doc = json.loads(capsys.readouterr().out)
        assert doc == ab.both_orders(
            [{"median": 1.1, "loaded_first": "parent"},
             {"median": 1.2, "loaded_first": "parent"}],
            [{"median": 1.3, "loaded_first": "change"},
             {"median": 1.4, "loaded_first": "change"}])
        assert doc["ratio"] == round((1.1 * 1.2 * 1.3 * 1.4) ** 0.25, 6)
        assert doc["parent_first"]["between_calls"] == round(1.2 / 1.1, 6)

    def test_out_stores_each_workload_in_its_record(self, monkeypatch,
                                                     tmp_path, capsys):
        # stubbed children; the record takes BENCH_38.json's layout, next
        # to what tools/pairs.py --out put there
        argvs = []

        def run(argv, stdout, text):
            argvs.append(argv)
            doc = {"median": 1.1 + 0.1 * (len(argvs) % 4),
                   "loaded_first": argv[-1]}
            return subprocess.CompletedProcess(argv, 0, json.dumps(doc))
        monkeypatch.setattr(ab.subprocess, "run", run)
        monkeypatch.setattr(ab, "resolve", lambda rev: "c0ffee" * 6 + "cafe")
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"parent": "abc123",
                                   "parent_commit": "c0ffee" * 6 + "cafe",
                                   "workloads": {"small_configs": {}}}))
        for workload, null in (("small_configs", False),
                               ("sweep_grid", False), ("sweep_grid", True)):
            assert ab.main(["abc123", "--workload", workload, "--seed", "4",
                            "--out", str(out)] + ["--null"] * null) == 0
            printed = json.loads(capsys.readouterr().out)
            kind = "null_calls" if null else "workloads"
            assert json.loads(out.read_text())["in_process_ab"][kind][
                workload] == printed
        doc = json.loads(out.read_text())
        assert list(doc) == ["parent", "parent_commit", "workloads",
                             "in_process_ab"]
        assert doc["workloads"] == {"small_configs": {}}
        section = doc["in_process_ab"]
        assert section["command"] \
            == "python tools/ab.py abc123 --workload W --seed S"
        assert section["clock"] == "time.thread_time, summed per side per pass"
        assert section["ratio"] == (
            "parent seconds / change seconds per pass; ratio is the "
            "geometric mean of the four children's medians")
        assert list(section["workloads"]) == ["small_configs", "sweep_grid"]
        assert all("--out" not in argv for argv in argvs)
        assert len(argvs) == 12

    @pytest.mark.parametrize("doc, message", [
        ({"parent_commit": "f" * 40},
         f"the record's parent is {'f' * 40}, not {'c' * 40}"),
        ({"in_process_ab": {"workloads": {"reach_ladder": {}}}},
         "in_process_ab.workloads.reach_ladder is already recorded")])
    def test_out_clash_runs_nothing(self, monkeypatch, tmp_path, capsys,
                                    doc, message):
        monkeypatch.setattr(ab.subprocess, "run", None)
        monkeypatch.setattr(ab, "resolve", lambda rev: "c" * 40)
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps(doc))
        assert ab.main(["abc123", "--workload", "reach_ladder",
                        "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert json.loads(out.read_text()) == doc

    def test_a_failing_child_ends_the_run(self, monkeypatch, capsys):
        argvs = []

        def run(argv, stdout, text):
            argvs.append(argv)
            return subprocess.CompletedProcess(argv, 2, "")
        monkeypatch.setattr(ab.subprocess, "run", run)
        assert ab.main(["nosuchrev", "--workload", "sweep_grid"]) == 2
        assert len(argvs) == 1 and capsys.readouterr().out == ""

    def test_summary_of_canned_timings(self):
        change = [1.0, 2.0, 1.0, 4.0, 2.0]
        ratios = [1.0, 1.1, 1.2, 1.3, 1.4]
        parent = [c * r for c, r in zip(change, ratios)]
        result = ab.summary(parent, change)
        assert result["ratios"] == ratios
        assert result["median"] == 1.2
        low, high = result["ci95"]
        assert 1.0 <= low < 1.2 < high <= 1.4
        assert ab.summary([2.2, 3.3], [2.0, 3.0])["ci95"] == [1.1, 1.1]


class TestAbStartup:
    COST = {"parent": 0.3, "change": 0.2}

    @pytest.fixture
    def starts(self, monkeypatch):
        """Fake process starts, each advancing a fake clock by its side's
        cost; the revision resolves, extracts and copies without git."""
        now, starts, trees = [0.0], [], []

        def run(argv, env, cwd, stdout, check):
            side = Path(env["PYTHONPATH"].split(os.pathsep)[0]).parent.name
            starts.append((side, argv, env))
            now[0] += self.COST[side]
            return subprocess.CompletedProcess(argv, 0)
        monkeypatch.setattr(ab.subprocess, "run", run)
        monkeypatch.setattr(ab, "time",
                            types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(ab, "resolve", lambda rev: "c" * 40)
        monkeypatch.setattr(ab, "extract", lambda rev, dest: trees.append(
            ("extract", dest.name)) or "")
        monkeypatch.setattr(ab, "copy_working_tree",
                            lambda dest: trees.append(("copy", dest.name)))
        monkeypatch.setattr(ab, "STARTUP_ROUNDS", 4)
        return starts, trees

    def test_every_round_starts_each_config_once_per_side_and_setting(
            self, starts, capsys):
        starts, trees = starts
        assert ab.main(["abc123", "--startup"]) == 0
        configs = sorted((ab.ROOT / "configs").glob("*.json"))
        assert trees == [("extract", "parent"), ("copy", "change")]
        # an untimed start per setting, side and config, then the rounds
        assert len(starts) == 2 * 2 * len(configs) * (1 + 4)
        for side, argv, env in starts:
            assert argv[:5] == [sys.executable, "-m", "iqcontrol.cli", "run",
                                argv[4]] and Path(argv[4]) in configs
            assert argv[5:] == ["--out", argv[6], "--quiet"]
            assert Path(argv[6]).name == side
            assert ("PYTHONDONTWRITEBYTECODE" in env) \
                != ("PYTHONPYCACHEPREFIX" in env)
        timed = starts[2 * 2 * len(configs):]
        pairs = [timed[i:i + 2] for i in range(0, len(timed), 2)]
        # each pair is one config and setting, started once from each side
        assert all({a[0], b[0]} == {"parent", "change"} and a[1][4] == b[1][4]
                   and a[2].keys() == b[2].keys() for a, b in pairs)
        firsts = Counter(a[0] for a, _ in pairs)
        assert firsts["parent"] > 0 and firsts["change"] > 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["rounds"], doc["null"]) == (4, False)
        assert set(doc["settings"]) == {"dont_write_bytecode",
                                        "warm_pycache_prefix"}
        for per_config in doc["settings"].values():
            assert sorted(per_config) == [p.name for p in configs]
            for result in per_config.values():
                assert result["ratios"] == [1.5] * 4
                assert result["median"] == 1.5
                assert result["ci95"] == [1.5, 1.5]
                assert (result["parent_median_s"],
                        result["change_median_s"]) == (0.3, 0.2)

    def test_settings_set_only_their_bytecode_variable(self, starts,
                                                       monkeypatch, capsys):
        # a caller's own bytecode variables do not reach the processes
        starts, _ = starts
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
        monkeypatch.setenv("PYTHONPATH", "/extra")
        assert ab.main(["abc123", "--startup"]) == 0
        capsys.readouterr()
        prefixes = {env.get("PYTHONPYCACHEPREFIX") for _, _, env in starts}
        assert len(prefixes) == 2 and "/elsewhere" not in prefixes
        assert None in prefixes
        for side, _, env in starts:
            assert env["PYTHONPATH"].split(os.pathsep)[1:] == ["/extra"]
            assert env.get("PYTHONDONTWRITEBYTECODE", "1") == "1"

    def test_null_extracts_the_revision_twice(self, starts, capsys):
        _, trees = starts
        assert ab.main(["abc123", "--startup", "--null"]) == 0
        assert trees == [("extract", "parent"), ("extract", "change")]
        assert json.loads(capsys.readouterr().out)["null"] is True

    def test_out_stores_each_call_in_its_own_section(self, starts, tmp_path,
                                                     capsys):
        starts, _ = starts
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"parent": "abc123",
                                   "parent_commit": "c" * 40,
                                   "in_process_ab": {"workloads": {}}}))
        for null in (False, True):
            assert ab.main(["abc123", "--startup", "--out", str(out)]
                           + ["--null"] * null) == 0
            printed = json.loads(capsys.readouterr().out)
            kind = "null_calls" if null else "calls"
            assert json.loads(out.read_text())["startup_ab"][kind] == printed
        doc = json.loads(out.read_text())
        assert doc["in_process_ab"] == {"workloads": {}}
        section = doc["startup_ab"]
        assert section["command"] == "python tools/ab.py abc123 --startup"
        assert list(section) == ["command", "clock", "ratio", "calls",
                                 "null_calls"]
        made = len(starts)
        assert ab.main(["abc123", "--startup", "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == "error: startup_ab.calls is already recorded\n"
        assert len(starts) == made

    def test_a_workload_or_startup_not_both(self, monkeypatch, capsys):
        monkeypatch.setattr(subprocess, "run", None)
        for argv in (["HEAD"], ["HEAD", "--startup", "--workload",
                                "sweep_grid"]):
            with pytest.raises(SystemExit) as raised:
                ab.main(argv)
            assert raised.value.code == 2
        assert "--startup" in capsys.readouterr().err
