"""Tests of the benchmark's own logic: percentile selection, failure
counting on corrupted output, the metric-name grammar and the catalogue's
contract limits, and seeding.

    python3 -m unittest discover -s perfbench/tests
    python3 perfbench/run.py --self-test     (also runs the C++ tests)
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


def cell(pass_index, grid, index, protocol="rr1", load="2", wait=6.0,
         row=None, problem="", phase="run"):
    return {"kind": "cell", "phase": phase, "pass": pass_index,
            "grid": grid, "cell": index, "load": load, "protocol": protocol,
            "txns": 88000, "ms": 40.0 + index, "problem": problem,
            "wait_mean": wait, "wait_sd": 2.0,
            "row": row if row is not None else f"row-{grid}-{index}",
            "reference_ns": run.REFERENCE_NS}


def run_lines(passes, end=True):
    """Synthetic busarb_perfbench output: `passes` is a list of
    (grid, [cell dicts])."""
    lines = [{"kind": "fingerprint", "optimized": True, "sanitized": False},
             {"kind": "setup", "cells": 3, "grids": 1}]
    for p, (grid, cells) in enumerate(passes):
        lines.append({"kind": "setup_group", "pass": p, "setup_s": 1e-4,
                      "parse_ms": 0.01, "grid_build_ms": 0.02,
                      "reference_ns": run.REFERENCE_NS})
        lines += cells
        lines.append({"kind": "pass", "phase": "run", "pass": p,
                      "grid": grid, "cells": len(cells),
                      "txns": 88000 * len(cells), "wall_ms": 130.0,
                      "slots": 1, "spawns": 0, "shards": 0,
                      "reference_ns": run.REFERENCE_NS,
                      "cell_by_cell": True})
    if end:
        lines.append({"kind": "end", "peak_rss_mb": 20.0})
    return lines


def healthy_pass(p, grid=0):
    return (grid, [cell(p, grid, 0, load="0.25", wait=1.64),
                   cell(p, grid, 1, load="1", wait=2.77),
                   cell(p, grid, 2, load="2", wait=6.0)])


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(run.tail_percentile(values, 90), (90, 90))

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        p, value = run.tail_percentile(list(range(1, 100)), 90)
        self.assertEqual(p, 89)
        self.assertEqual(value, 89)
        p, _ = run.tail_percentile(list(range(1, 41)), 90)
        self.assertEqual(p, 75)

    def test_tiny_samples_report_the_median(self):
        self.assertEqual(run.tail_percentile([5, 1, 3], 90), (50, 3))

    def test_nearest_rank(self):
        self.assertEqual(run.nearest_rank([1, 2, 3, 4], 50), 2)
        self.assertEqual(run.nearest_rank([1, 2, 3, 4], 100), 4)


class FailRatioTest(unittest.TestCase):
    def analyse(self, lines, returncode=0):
        return run.Analysis("paper_closed", 7, lines, returncode)

    def test_healthy_output_has_no_failures(self):
        a = self.analyse(run_lines([healthy_pass(0), healthy_pass(1)]))
        self.assertEqual((a.attempted, a.failed), (6, 0))
        self.assertTrue(a.correct)

    def test_corrupted_row_fails_the_whole_pass(self):
        bad = healthy_pass(1)
        bad[1][2]["row"] = "tampered"
        a = self.analyse(run_lines([healthy_pass(0), bad]))
        self.assertEqual((a.attempted, a.failed), (6, 3))
        self.assertFalse(a.correct)

    def test_cell_invariant_violation_counts(self):
        bad = healthy_pass(0)
        bad[1][0]["problem"] = "recorded 9 batches, expected 10"
        a = self.analyse(run_lines([bad]))
        self.assertEqual(a.failed, 1)

    def test_anchor_miss_counts_every_contributing_cell(self):
        bad = healthy_pass(0)
        bad[1][2]["wait_mean"] = 6.5  # Table 4.2(a) gives 6.00 +- 0.11
        a = self.analyse(run_lines([bad, healthy_pass(1, grid=1)]))
        self.assertEqual(a.failed, 2)
        self.assertAlmostEqual(a.paper_err_pct, 0.25 / 6.0 * 100)

    def test_crash_counts_the_unfinished_pass(self):
        a = self.analyse(run_lines([healthy_pass(0)], end=False),
                         returncode=-9)
        self.assertEqual((a.attempted, a.failed), (6, 3))

    def test_digest_cache_catches_a_change_across_runs(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            first = run.Analysis("paper_closed", 7,
                                 run_lines([healthy_pass(0)]), 0, Path(tmp))
            self.assertEqual(first.failed, 0)
            bad = healthy_pass(0)
            bad[1][1]["row"] = "changed"
            second = run.Analysis("paper_closed", 7, run_lines([bad]), 0,
                                  Path(tmp))
            self.assertEqual(second.failed, 3)


class CatalogueTest(unittest.TestCase):
    def test_names_follow_the_grammar(self):
        metrics = run.END_TO_END + run.PER_LAYER
        names = [m["name"] for m in metrics] + list(run.WORKLOADS)
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["unit"], run.UNIT_RE)

    def test_grammar_rejects_bad_names(self):
        for bad in ("", ".lead", "has space", "semi;colon", "x" * 65,
                    "slash/no"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)

    def test_contract_limits(self):
        doc = run.CATALOGUE
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))
        for w in doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertLessEqual(4 + 22 * len(doc["workloads"]), 70)


class SeedTest(unittest.TestCase):
    def test_grids_are_a_function_of_the_seed(self):
        for name in run.WORKLOADS:
            self.assertEqual(run.grid_texts(name, 3), run.grid_texts(name, 3))
            self.assertNotEqual(run.grid_texts(name, 3),
                                run.grid_texts(name, 4))
            self.assertEqual(len(set(run.grid_texts(name, 3))),
                             run.WORKLOADS[name]["grids"])


if __name__ == "__main__":
    unittest.main()
