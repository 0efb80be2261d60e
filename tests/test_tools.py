"""The developer tools' pure helpers: the mutation sampler's line filter
and equivalence keys, the parity check's difference magnitudes,
malformed configs and edge-shape sweeps, the paired-run summary and the
same-process A/B timing.  None runs a suite, a tree or the benchmark."""

import importlib.util
import json
import math
import random
import shutil
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
        # one home for the list: the parity run reads it from test_cli.py
        from test_cli import TestMalformedConfigs
        cases = parity.malformed_configs()
        assert cases.keys() == TestMalformedConfigs.CASES.keys()
        assert all(json.dumps(cases[k]) == json.dumps(v)
                   for k, v in TestMalformedConfigs.CASES.items())


class TestParityArgvVariants:
    def test_variants_are_in_the_plan(self, tmp_path):
        # every non-canonical form the docstring lists, on one config
        plan = parity.invocations(tmp_path / "cfg")
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


class TestParityEdgeSweeps:
    def test_edge_sweeps_are_in_the_plan(self, tmp_path):
        # grids the benchmark never draws: shapes (a, 1), (1, b) and
        # (a, 1, c), and an overflowing axis next to 0 and 2 values
        plan = parity.invocations(tmp_path / "cfg")
        shapes = set()
        for name, doc in parity.EDGE_SWEEPS.items():
            path = tmp_path / "cfg" / f"edge-{name}.json"
            assert json.loads(path.read_text(encoding="utf-8")) == doc
            assert ["sweep", f"../cfg/{path.name}", "--out",
                    "out/sweep"] in plan
            shapes.add(tuple(min(axis["count"], 2) for axis in doc["axes"]))
        assert shapes == {(2, 1), (1, 2), (2, 1, 2), (2, 0), (2, 2)}


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

    def test_slot_bias_of_canned_medians(self):
        # true ratio 1.2, the slot loaded first 5% faster: the parent-first
        # run reads 1.2 / 1.05, the change-first run 1.2 * 1.05
        first = {"median": 1.2 / 1.05, "ci95": [1.1, 1.2]}
        second = {"median": 1.2 * 1.05, "ci95": [1.2, 1.3]}
        result = ab.both_orders(first, second)
        assert result["ratio"] == 1.2
        assert result["slot_bias"] == round(math.log(1.05), 6)
        assert (result["parent_first"], result["change_first"]) \
            == (first, second)
        assert ab.both_orders(second, first)["slot_bias"] \
            == -result["slot_bias"]

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
