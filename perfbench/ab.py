#!/usr/bin/env python3
"""A/B comparison of this tree against another git revision.

    python3 perfbench/ab.py --rev HEAD~1 [--workload NAME ...]

The revision is exported with `git archive` into
.bench_build/perfbench/ab/<sha>/tree and built with *this* tree's
benchmark code, so both sides run identical benchmark code and settings.
Ten pairs of parent and change runs alternate, with the side that goes
first switching every pair. Each pair uses its own seed (FIRST_SEED,
FIRST_SEED + 1, ...), the same for both sides, and every run lasts the
benchmark's own run_seconds. For every end-to-end metric the report
gives each side's median and quartiles, the change's win fraction (ties
count for neither), and a verdict: "gain" needs at least 9 wins in 10
and a median difference larger than the parent's interquartile range. It also checks that both
sides produced identical simulated digests.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

PAIRS = 10
FIRST_SEED = 1000


def export_revision(rev):
    sha = subprocess.run(["git", "-C", str(run.ROOT), "rev-parse", rev],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    base = run.BUILD_ROOT / "ab" / sha[:12]
    tree = base / "tree"
    if not (tree / "CMakeLists.txt").exists():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.Popen(
            ["git", "-C", str(run.ROOT), "archive", "--format=tar", sha],
            stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise run.BenchError(f"git archive {sha} failed")
    return sha, base, tree


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    better_high = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if better_high else c < p))
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    spread = pq3 - pq1
    worse = (pmed - cmed) / pmed if better_high else (cmed - pmed) / pmed
    if wins >= 0.9 * len(parent) and abs(cmed - pmed) > spread:
        return wins, "gain"
    if worse > metric["bound"]:
        return wins, f"worse by {worse:.1%} (bound {metric['bound']:.0%})"
    every_run_better = (min(change) > max(parent) if better_high
                        else max(change) < min(parent))
    if spread / pmed > metric["bound"] and not every_run_better:
        return wins, "unresolved (spread wider than the bound)"
    return wins, "no regression"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rev", required=True,
                        help="the parent revision to compare against")
    parser.add_argument("--workload", action="append",
                        choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    workloads = args.workload or list(run.WORKLOADS)

    try:
        sha, base, tree = export_revision(args.rev)
        sides = {
            "parent": run.build(tree, base / "cmake"),
            "change": run.build(),
        }
    except (run.BenchError, subprocess.CalledProcessError) as err:
        print(f"ab: {err}", file=sys.stderr)
        return 2

    report = {"parent": sha, "pairs": PAIRS,
              "seconds": run.RUN_SECONDS,
              "host": run.host_fingerprint(), "workloads": {}}
    for workload in workloads:
        values = {side: {m["name"]: [] for m in run.END_TO_END}
                  for side in sides}
        digest_mismatch = 0
        failed = {side: 0 for side in sides}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            digests = {}
            for side in order:
                analysis, metrics = run.measure(
                    sides[side] / "busarb_perfbench", workload, seed,
                    run.RUN_SECONDS, False, run.BUILD_ROOT / "digests",
                    run.BUILD_ROOT / "ab" / f"run-{side}")
                failed[side] += analysis.failed
                # Pass counts differ between runs; each grid's digest
                # is the same in all its passes (run.py checks that).
                digests[side] = {(p["grid"], p["digest"])
                                 for p in analysis.passes}
                for name, (value, _) in metrics.items():
                    values[side][name].append(value)
                print(f"{workload} pair {i} seed {seed} {side}: " + ", ".join(
                    f"{n}={v:.6g}" for n, (v, _) in metrics.items()),
                    flush=True)
            if digests["parent"] != digests["change"]:
                digest_mismatch += 1

        rows = {}
        print(f"\n{workload}: {PAIRS} pairs against {sha[:12]}")
        for metric in run.END_TO_END:
            name = metric["name"]
            parent, change = values["parent"][name], values["change"][name]
            wins, outcome = verdict(metric, parent, change)
            pq = quartiles(parent)
            cq = quartiles(change)
            rows[name] = {"parent": pq, "change": cq,
                          "win_fraction": wins / PAIRS,
                          "verdict": outcome}
            print(f"  {name:12s} parent {pq[1]:.6g} [{pq[0]:.6g}, "
                  f"{pq[2]:.6g}]  change {cq[1]:.6g} [{cq[0]:.6g}, "
                  f"{cq[2]:.6g}]  wins {wins}/{PAIRS}  {outcome}")
        print(f"  failed cells: parent {failed['parent']}, change "
              f"{failed['change']}; pairs with differing simulated "
              f"digests: {digest_mismatch}")
        report["workloads"][workload] = {
            "metrics": rows, "failed": failed,
            "digest_mismatch_pairs": digest_mismatch}

    out = base / "report.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nreport written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
