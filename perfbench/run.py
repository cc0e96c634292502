#!/usr/bin/env python3
"""End-to-end benchmark of the busarb simulator.

    python3 perfbench/run.py --workload paper_closed --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the library sources of the tree it sits
in) into .bench_build/perfbench, generates the workload's scenario grids
from the seed, runs busarb_perfbench on them, checks the simulated output,
and prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones, as BENCHMARK.json lists them (see perfbench/README.md for
what each means).

Other entry points:
    --self-test             the benchmark's own tests
    perfbench/ab.py         A/B comparison against another git revision
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The metric and workload catalogue: names, units, bounds, run length.
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = CATALOGUE["end_to_end"]
PER_LAYER = CATALOGUE["per_layer"]
RUN_SECONDS = CATALOGUE["run_seconds"]

# Times are normalised to a reference speed, not reported as raw host
# time. Each is read against a calibration loop (src/reference.hh; no
# library code) timed beside it, because a shared host drifts between
# speed regimes up to 3x apart within seconds. Where cells run one at a
# time in the benchmark process, the loop is timed just before and after
# each cell on the same thread, and the simulator slows more than the
# loop does: across repeats of a cell, log(cell time) moves 1.2 to 1.5
# times as far as log(loop time) (perfbench/README.md has the fit and
# the spreads with exponents 0, 1 and 1.5). Such a time t, measured
# while the loop took r ns, is reported as t * (REFERENCE_NS / r) ** 1.5.
# Where cells run in worker processes on other cores, the loop is timed
# around the whole pass on the coordinator's core; it then only samples
# the host's regime, and the correction is linear (exponent 1).
# REFERENCE_NS is the loop's time on a quiet 4-vCPU Xeon; on another
# host the figures differ from its host time by the ratio of loop
# speeds. The report prints the raw host figures beside them.
REFERENCE_NS = 3.5e6
SAME_CORE_ELASTICITY = 1.5
OTHER_CORE_ELASTICITY = 1.0


class BenchError(Exception):
    """A problem that must end the run without a result."""


# --------------------------------------------------------------------------
# Workloads (described in BENCHMARK.json). Each is a scenario grid
# template; the seed only picks the grid seeds. `anchors` are Table 4.2
# values with the tolerances of
# tests/integration/paper_anchor_test.cc: (protocol, load, statistic,
# paper value, tolerance).

PAPER_CLOSED = """\
[workload]
family = equal
agents = 10
cv = 1

[run]
batches = 10
batch-size = 8000
seed = {seed}

[sweep]
loads = 0.25 0.5 1 1.5 2 2.5 5 7.5
protocols = rr1 fcfs1 aap1
"""

OPEN_OBSERVED = """\
[workload]
family = equal
agents = 16
source = open:dist=pareto,alpha=1.5

[run]
batches = 20
batch-size = 1000
warmup = 2000
seed = {seed}

[sweep]
loads = 0.25 0.5 0.6 0.7 0.75 0.8 0.85 0.9
protocols = rr1 fcfs1
"""

SHARDED_WIDE = """\
[workload]
family = equal
agents = 64

[run]
batches = 10
batch-size = 1000
warmup = 1000
seed = {seed}

[sweep]
loads = 0.5 1 2 3.5 5 7.5
protocols = rr1 fcfs1 aap1
"""

WORKLOADS = {
    "paper_closed": {
        "template": PAPER_CLOSED,
        "grids": 5,
        "args": [],
        "anchors": [
            ("rr1", "0.25", "wait_mean", 1.64, 0.05 + 0.01 * 1.64),
            ("rr1", "1", "wait_mean", 2.77, 0.05 + 0.01 * 2.77),
            ("rr1", "2", "wait_mean", 6.00, 0.05 + 0.01 * 6.00),
            ("rr1", "7.5", "wait_mean", 9.67, 0.05 + 0.01 * 9.67),
        ],
    },
    "open_observed": {
        "template": OPEN_OBSERVED,
        "grids": 12,
        "args": ["--observe", "trace,fairness,health"],
        "anchors": [],
    },
    "sharded_wide": {
        "template": SHARDED_WIDE,
        "grids": 8,
        "args": ["--shards", "6"],
        "anchors": [
            ("rr1", "5", "wait_mean", 52.20, 0.4),
            ("rr1", "5", "wait_sd", 10.89, 0.7),
            ("fcfs1", "5", "wait_sd", 2.44, 0.3),
        ],
    },
}

# --------------------------------------------------------------------------
# Inputs from the seed.

MASK64 = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def grid_seeds(workload, seed, count):
    """`count` grid seeds, a pure function of the workload and seed."""
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:8],
                          "little")
    base = splitmix64((seed & MASK64) ^ salt)
    return [splitmix64(base + k) for k in range(count)]


def grid_texts(workload, seed):
    w = WORKLOADS[workload]
    return [w["template"].format(seed=s)
            for s in grid_seeds(workload, seed, w["grids"])]


# --------------------------------------------------------------------------
# Statistics.

def nearest_rank(sorted_values, p):
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(p / 100.0 * n) - 1)]


def tail_percentile(values, want=90, beyond=10):
    """The highest percentile <= `want` that has at least `beyond` samples
    above it, with its value: (p, value). Falls back to the median when
    even p50 lacks them."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(want, 50, -1):
        if n - math.ceil(p / 100.0 * n) >= beyond:
            return p, nearest_rank(ordered, p)
    return 50, nearest_rank(ordered, 50)


def median(values):
    return statistics.median(values) if values else float("nan")


# --------------------------------------------------------------------------
# Build.

def require_source_tree(source_root):
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (source_root / needed).is_file():
            raise BenchError(f"no busarb source tree at {source_root} "
                             f"({needed} missing)")


def build(source_root=ROOT, build_dir=BUILD_ROOT / "cmake",
          targets=("busarb_perfbench",)):
    """Configure (once) and build the benchmark; returns the build dir."""
    require_source_tree(source_root)
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir.parent / (build_dir.name + "-build.log")
    with open(log, "w") as out:
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release",
                         f"-DBUSARB_SOURCE_ROOT={source_root}"]
            if subprocess.run(configure, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                raise BenchError(f"cmake configure failed; see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
               *targets]
        if subprocess.run(cmd, stdout=out,
                          stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError(f"build failed; see {log}")
    return build_dir


# --------------------------------------------------------------------------
# Running the binary.

def host_fingerprint():
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"cpu": model, "nproc": nproc,
            "loadavg_before": round(os.getloadavg()[0], 2)}


def run_binary(binary, workload, seed, seconds, trace, scratch):
    """Run busarb_perfbench on the workload's grids. Returns (lines, rc)."""
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    paths = []
    for k, text in enumerate(grid_texts(workload, seed)):
        path = scratch / f"grid-{k}.grid"
        path.write_text(text)
        paths.append(path)
    cmd = [str(binary), "--seconds", repr(float(seconds)),
           "--trace", "1" if trace else "0", "--scratch", str(scratch / "tmp"),
           *WORKLOADS[workload]["args"]]
    for path in paths:
        cmd += ["--grid", str(path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = []
    for raw in proc.stdout.splitlines():
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            # A crash can cut the last line short; the rest still counts.
            pass
    shutil.rmtree(scratch, ignore_errors=True)
    return lines, proc.returncode


# --------------------------------------------------------------------------
# Analysis.

def pass_digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class Analysis:
    """Correctness checks and metrics over one run's output lines."""

    def __init__(self, workload, seed, lines, returncode, digest_dir=None):
        self.workload = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.returncode = returncode
        self.digest_dir = digest_dir
        self.calibrate = True
        self.trace = False
        self.notes = []
        self.fingerprint = next(
            (l for l in lines if l["kind"] == "fingerprint"), None)
        self.setup = next((l for l in lines if l["kind"] == "setup"), None)
        self.setup_groups = [l for l in lines if l["kind"] == "setup_group"]
        self.end = next((l for l in lines if l["kind"] == "end"), None)
        self.layers = next((l for l in lines if l["kind"] == "layers"), None)
        self.toggles = {l["config"]: l for l in lines
                        if l["kind"] == "toggle"}
        self.cells = [l for l in lines if l["kind"] == "cell"]
        self.passes = [l for l in lines if l["kind"] == "pass"]
        self._by_pass = {}
        for c in self.cells:
            self._by_pass.setdefault((c["phase"], c["pass"]), []).append(c)
        self.failed_cells = set()
        self.attempted = 0
        self.failed = 0
        self.paper_err_pct = 0.0
        self._check()

    # -- correctness ------------------------------------------------------

    def _cells_of(self, p):
        return self._by_pass.get((p["phase"], p["pass"]), [])

    def _fail(self, cells, why):
        fresh = [c for c in cells if id(c) not in self.failed_cells]
        for c in fresh:
            self.failed_cells.add(id(c))
        if fresh:
            self.notes.append(f"{len(fresh)} cell(s) wrong: {why}")

    def _check(self):
        if self.setup is None:
            raise BenchError("busarb_perfbench ended before its set-up "
                             f"(exit {self.returncode})")
        passes_by_grid = {}
        for p in self.passes:
            cells = self._cells_of(p)
            self.attempted += len(cells)
            for c in cells:
                if c["problem"]:
                    self._fail([c], c["problem"])
            digest = pass_digest([c["row"] for c in cells])
            p["digest"] = digest
            passes_by_grid.setdefault(p["grid"], []).append((p, cells))
        for k, group in passes_by_grid.items():
            reference = group[0][0]["digest"]
            for p, cells in group[1:]:
                if p["digest"] != reference:
                    self._fail(cells, f"grid {k} {p['phase']} pass "
                                      f"{p['pass']} digest differs from "
                                      f"its first pass")
            self._check_cache(k, reference, group[0][1])
        if self.returncode != 0 or self.end is None:
            lost = self.setup["cells"]
            self.attempted += lost
            self.failed += lost
            self.notes.append(f"busarb_perfbench exited {self.returncode} "
                              f"mid-run; its unfinished pass ({lost} cells) "
                              "counts as failed")
        if self.layers is not None and not self.layers["codec_round_trip_ok"]:
            self.notes.append("result codec round trip changed a record")
            self.failed += 1
            self.attempted += 1
        self._check_anchors()
        self.failed += len(self.failed_cells)

    def _check_cache(self, k, digest, cells):
        """Same grid text, same digest, in every run of the same binary
        that ran it (`digest_dir` is keyed by the binary)."""
        if self.digest_dir is None:
            return
        text = grid_texts(self.workload, self.seed)[k]
        key = hashlib.sha256(text.encode()).hexdigest()[:16]
        path = self.digest_dir / self.workload / f"{key}.sha256"
        if path.exists():
            if path.read_text().strip() != digest:
                self._fail(cells, f"grid {k} digest differs from an "
                                  f"earlier run with the same seed")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(digest + "\n")

    def _check_anchors(self):
        worst = 0.0
        for proto, load, stat, paper, tol in self.w["anchors"]:
            first = {}
            matching = []
            for c in self.cells:
                if c["protocol"] == proto and c["load"] == load:
                    matching.append(c)
                    first.setdefault(c["grid"], c[stat])
            if not first:
                continue
            value = statistics.fmean(first.values())
            worst = max(worst, abs(value - paper) / paper * 100.0)
            if abs(value - paper) > tol:
                self._fail(matching, f"{proto} load {load} {stat} = "
                                     f"{value:.4f}, Table 4.2 gives {paper} "
                                     f"+- {tol:.3f}")
        self.paper_err_pct = worst

    @property
    def correct(self):
        return self.failed == 0

    # -- end-to-end metrics ----------------------------------------------

    def _phase(self, phase):
        return [p for p in self.passes if p["phase"] == phase]

    def scale(self, line, same_core=True):
        """Calibration factor of a cell, pass or set-up group timed
        while the loop took `line["reference_ns"]`."""
        return self.scale_for(line["reference_ns"], same_core)

    def scale_for(self, reference_ns, same_core=True):
        if not self.calibrate:
            return 1.0
        exponent = (SAME_CORE_ELASTICITY if same_core
                    else OTHER_CORE_ELASTICITY)
        return (REFERENCE_NS / reference_ns) ** exponent

    def setup_median(self, key):
        """Median over set-up groups of one calibrated set-up time."""
        return median([g[key] * self.scale(g) for g in self.setup_groups])

    def pass_ms(self, p):
        """Calibrated host ms of a pass: cell by cell where each cell has
        its own calibration, else the pass's wall time."""
        if p["cell_by_cell"]:
            return sum(c["ms"] * self.scale(c) for c in self._cells_of(p))
        return p["wall_ms"] * self.scale(p, same_core=False)

    def cell_medians(self, phase="run"):
        """Calibrated host ms of each distinct cell (grid, cell index),
        the median over the passes that ran it. A sharded cell also
        carries its share of the fleet's orchestration: worker-slot time
        not spent in cells, spread evenly over the pass's cells."""
        times = {}
        for p in self._phase(phase):
            cells = self._cells_of(p)
            extra = 0.0
            if not p["cell_by_cell"]:
                sim = sum(c["ms"] for c in cells)
                extra = max(0.0, (p["slots"] * p["wall_ms"] - sim)
                            / len(cells))
            for c in cells:
                times.setdefault((c["grid"], c["cell"]), []).append(
                    (c["ms"] + extra) * self.scale(c, p["cell_by_cell"]))
        return {key: median(v) for key, v in times.items()}

    def txn_per_s(self, phase="run", grids=None):
        """Transactions per calibrated second: each grid's transactions
        over the median time of the passes that ran it, summed over
        grids."""
        txns = {}
        ms = {}
        for p in self._phase(phase):
            if grids is None or p["grid"] in grids:
                txns[p["grid"]] = p["txns"]
                ms.setdefault(p["grid"], []).append(self.pass_ms(p))
        total_ms = sum(median(v) for v in ms.values())
        return sum(txns.values()) / total_ms * 1e3 if total_ms else 0.0

    def end_to_end(self):
        times = sorted(self.cell_medians().values())
        p_tail, tail = tail_percentile(times, 90)
        if p_tail != 90 and self.calibrate:
            self.notes.append(f"only {len(times)} distinct cells: "
                              f"cell_ms_p90 reports p{p_tail}, the highest "
                              "percentile with 10 cells beyond it")
        return {
            "txn_per_s": (self.txn_per_s(), "1/s"),
            "cell_ms_p50": (nearest_rank(times, 50), "ms"),
            "cell_ms_p90": (tail, "ms"),
            "setup_s": (self.setup_median("setup_s"), "s"),
            "peak_rss_mb": (self.end["peak_rss_mb"] if self.end else
                            float("nan"), "MB"),
        }

    # -- per-layer metrics -----------------------------------------------

    def per_layer(self):
        traced = [c for c in self.cells if c["phase"] == "traced"]
        traced_passes = self._phase("traced")
        if not traced or self.layers is None:
            raise BenchError("traced phase produced no data")
        n_pass = len(traced_passes)
        txns = sum(c["txns"] for c in traced)
        events = sum(c["events"] for c in traced)
        passes = sum(c["passes"] for c in traced)
        requests = sum(c["requests"] for c in traced)
        issued = sum(c["issued"] for c in traced)
        cell_ns = sum(c["ms"] for c in traced) * 1e6
        core_ns = sum(c["core_ns"] for c in traced)
        L = self.layers

        def weighted(key, weight):
            total = sum(c[weight] for c in traced)
            return (sum(c[key] * c[weight] for c in traced) / total
                    if total else 0.0)

        toggles = self.toggles
        obs = {}
        if "off" in toggles and "all" in toggles:
            all_ms = toggles["all"]["ms"]
            base = toggles["off"]["ms"]
            obs["obs.share"] = (all_ms - base) / all_ms
            for name in ("trace", "fairness", "health"):
                if name in toggles:
                    obs[f"obs.{name}.share"] = (toggles[name]["ms"]
                                                - base) / all_ms
        obs_ns = obs.get("obs.share", 0.0) * cell_ns
        sim_ns = L["sim_ns_per_event"] * events
        workload_ns = L["workload_ns_per_arrival"] * issued
        stats_ns = L["stats_ns_per_sample"] * txns
        residual = (cell_ns - core_ns - sim_ns - workload_ns - stats_ns
                    - obs_ns) / txns

        trace_bytes = [sum(c["trace_bytes"] for c in self.cells
                           if c["phase"] == "traced" and c["pass"] == p["pass"])
                       for p in traced_passes]
        resident = [sum(c["trace_capacity"] for c in self.cells
                        if c["phase"] == "traced" and c["pass"] == p["pass"])
                    for p in traced_passes]

        inproc = self._phase("inproc")
        dist_share = 0.0
        if inproc:
            by_grid = {}
            for p in self._phase("run"):
                by_grid.setdefault(p["grid"], []).append(self.pass_ms(p))
            ratios = [1.0 - self.pass_ms(p) / median(by_grid[p["grid"]])
                      for p in inproc if p["grid"] in by_grid]
            dist_share = median(ratios)
        retries = sum(max(0, p["spawns"] - p["shards"])
                      for p in self._phase("run") if p["shards"])

        traced_grids = {p["grid"] for p in traced_passes}
        base_tps = self.txn_per_s("inproc" if inproc else "run",
                                  traced_grids)
        traced_tps = self.txn_per_s("traced")

        values = {
            "sim.events": events / n_pass,
            "sim.events_per_txn": events / txns,
            "sim.queue_max_depth": max(c["queue_max_depth"] for c in traced),
            "sim.ns_per_event": L["sim_ns_per_event"],
            "core.passes_per_txn": passes / txns,
            "core.retry_ratio": (sum(c["retries"] for c in traced) / passes
                                 if passes else 0.0),
            "core.ns_per_pass": weighted("ns_per_pass", "passes"),
            "core.ns_per_request": weighted("ns_per_request", "requests"),
            "core.share": core_ns / cell_ns,
            "bus.utilization": statistics.fmean(c["utilization"]
                                                for c in traced),
            "bus.exposed_arb_ticks_per_txn":
                sum(c["exposed_arb_ticks"] for c in traced) / txns,
            "bus.residual_ns_per_txn": residual,
            "workload.issued": issued / n_pass,
            "workload.backlog_max": max(c["backlog"] for c in traced),
            "workload.ns_per_arrival": L["workload_ns_per_arrival"],
            "stats.samples": txns / n_pass,
            "stats.ns_per_sample": L["stats_ns_per_sample"],
            "obs.share": obs.get("obs.share", 0.0),
            "obs.trace.share": obs.get("obs.trace.share", 0.0),
            "obs.fairness.share": obs.get("obs.fairness.share", 0.0),
            "obs.health.share": obs.get("obs.health.share", 0.0),
            "obs.trace.bytes_per_txn": sum(trace_bytes) / txns,
            "obs.trace_resident_mb": max(resident) / 2**20,
            "dist.share": dist_share,
            "dist.encode_us_per_cell": L["encode_us_per_cell"],
            "dist.decode_us_per_cell": L["decode_us_per_cell"],
            "dist.bytes_per_cell": L["bytes_per_cell"],
            "dist.manifest_append_ms": L["manifest_append_ms"],
            "dist.retries": retries,
            "experiment.parse_ms": self.setup_median("parse_ms"),
            "experiment.grid_build_ms": self.setup_median("grid_build_ms"),
            "experiment.cells": self.setup["cells"],
            "bench.trace_overhead_pct":
                (base_tps - traced_tps) / base_tps * 100.0,
        }
        return {m["name"]: (values[m["name"]], m["unit"]) for m in PER_LAYER}


# --------------------------------------------------------------------------
# One benchmark run.

def binary_key(binary):
    """A short hash of the binary, so cached digests never outlive the
    code that produced them."""
    return hashlib.sha256(Path(binary).read_bytes()).hexdigest()[:16]


def measure(binary, workload, seed, seconds, trace, digest_dir, scratch):
    """Run and analyse; returns (Analysis, metrics dict name->(value, unit)).
    Digests are cached under digest_dir/<binary hash>/<workload>/."""
    lines, rc = run_binary(binary, workload, seed, seconds, trace, scratch)
    fp = next((l for l in lines if l["kind"] == "fingerprint"), None)
    if fp is None or not fp["optimized"] or fp["sanitized"]:
        raise BenchError("refusing to report: the benchmark binary is "
                         "unoptimized or sanitized, or did not start "
                         f"(exit {rc})")
    analysis = Analysis(workload, seed, lines, rc,
                        digest_dir / binary_key(binary))
    analysis.trace = trace
    if rc != 0 or analysis.end is None:
        raise BenchError(f"busarb_perfbench exited {rc} mid-run; "
                         f"{analysis.failed} of {analysis.attempted} cells "
                         "attempted failed or were lost")
    metrics = analysis.per_layer() if trace else analysis.end_to_end()
    return analysis, metrics


def report(analysis, metrics, fingerprint):
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    runs = [p for p in analysis.passes if p["phase"] == "run"]
    cells = sum(p["cells"] for p in runs)
    distinct = len(analysis.cell_medians())
    print(f"workload {analysis.workload}: seed {analysis.seed}, "
          f"{len(runs)} passes over {len({p['grid'] for p in runs})} grids, "
          f"{cells} cells run; cell times are medians over the runs of "
          f"{distinct} distinct cells")
    raw = {}
    if not analysis.trace:
        analysis.calibrate = False
        raw = analysis.end_to_end()
        analysis.calibrate = True
    for name, (value, unit) in metrics.items():
        extra = (f"  (uncalibrated {raw[name][0]:.6g})"
                 if name in raw and raw[name][0] != value else "")
        print(f"  {name} = {value:.6g} {unit}{extra}")
    fail_ratio = (analysis.failed / analysis.attempted
                  if analysis.attempted else 1.0)
    print(f"  fail_ratio = {fail_ratio:.6g} ratio "
          f"({analysis.failed} of {analysis.attempted} cells)")
    print(f"  paper_err_pct = {analysis.paper_err_pct:.6g} % "
          f"({len(analysis.w['anchors'])} Table 4.2 anchors checked)")
    for note in analysis.notes:
        print(f"  note: {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        fingerprint = host_fingerprint()
        build_dir = build()
        analysis, metrics = measure(
            build_dir / "busarb_perfbench", args.workload, args.seed,
            args.seconds, bool(args.trace), BUILD_ROOT / "digests",
            BUILD_ROOT / "run" / f"{args.workload}-{os.getpid()}")
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    fp = analysis.fingerprint
    fingerprint.update({
        "loadavg_after": round(os.getloadavg()[0], 2),
        "compiler": fp["compiler"], "build_type": fp["build_type"],
        "sanitize": fp["sanitize"], "busarb_profiling": fp["profiling"],
    })
    report(analysis, metrics, fingerprint)
    print(json.dumps({
        "correct": analysis.correct,
        "attempted": analysis.attempted,
        "failed": analysis.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def self_test():
    """The Python tests, then the decorator's C++ tests."""
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR / "tests"),
                                                pattern="test_*.py")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    build_dir = build(targets=("busarb_perfbench", "perfbench_tests"))
    return subprocess.run([str(build_dir / "perfbench_tests")]).returncode


if __name__ == "__main__":
    sys.exit(main())
