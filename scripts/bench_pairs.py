#!/usr/bin/env python3
"""Paired parent/change benchmark: writes BENCH_<pr>.json at the repo root.

    python3 scripts/bench_pairs.py --pr 8 --parent HEAD~1

The change is the commit HEAD and the parent the commit --parent; each is
extracted with ``git archive`` into its own temporary directory, so both
sides run from their committed files only, and the directories are removed
at the end.  A parent with HEAD's tree is refused, since the run would
compare the change with itself.  For every workload of BENCHMARK.json it
runs

    python3 perfbench/run.py --workload W --seed 1000+i --seconds 24 --trace 0

in PAIRS alternating pairs (pair i runs the parent first when i is even,
the change first when i is odd; both sides of a pair share the seed), then
one ``--trace 1`` run per workload and side at seed 1000.  Per end-to-end
metric the file holds each side's quartiles over its runs, how many pairs
the change won, the ratio of the medians and whether the medians differ,
in the better direction, by more than the parent's interquartile range.
Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 24
SEED0 = 1000
PAIRS = 10
TRACED_KEYS = (
    "io.self_s", "model.self_s", "synthetic.self_s", "smoothing.self_s",
    "estimators.self_s", "correlation.self_s", "asymptotics.self_s",
    "inference.self_s", "simulation.self_s", "cli.self_s", "process.self_s",
    "estimators.two_stage_curve.self_s", "estimators.two_stage_curve.calls",
    "smoothing.fit_curve.self_s", "smoothing.fit_curve.calls",
    "smoothing.local_linear_at.calls", "smoothing.kde_values.calls",
    "correlation.fixed_point_solve.iterations",
    "synthetic.synthetic_responses.calls",
)


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in checkout: its result line and its full record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result = json.loads(lines[-1])
    path = (checkout / ".perfbench_work" / "results"
            / f"{workload}-seed{seed}-trace{trace}.json")
    result["record"] = json.loads(path.read_text())
    return result


def side_summary(runs):
    return {"runs": len(runs),
            "failed_runs": sum(1 for r in runs if not r["correct"]),
            "attempted_jobs": sum(r["attempted"] for r in runs),
            "failed_jobs": sum(r["failed"] for r in runs)}


def compare(parent_runs, change_runs, better):
    """Quartiles per side, pairwise wins and the median gap for one metric."""
    parent = np.array(parent_runs, dtype=float)
    change = np.array(change_runs, dtype=float)
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = np.percentile(parent, [25, 50, 75])
    c1, cm, c3 = np.percentile(change, [25, 50, 75])
    wins = int(np.sum(sign * (parent - change) > 0))
    return {"better": better,
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "change_wins": f"{wins}/{parent.size}",
            "median_ratio_change_over_parent": cm / pm,
            "median_gap_exceeds_parent_iqr": bool(sign * (pm - cm) > p3 - p1)}


def traced_summary(result, seed):
    values = {name: spec["value"] for name, spec in result["metrics"].items()}
    out = {"seed": seed, "correct": result["correct"]}
    out.update({key: values.get(key) for key in TRACED_KEYS})
    out["absent"] = result.get("record", {}).get("extra", {}).get("absent", [])
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run(pr, sides, commits):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    report = {
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {SECONDS} --trace 0"),
        "design": (f"alternating pairs: pair i runs parent then change when i "
                   f"is even, change then parent when odd; both sides of a pair "
                   f"share seed {SEED0}+i; parent = the commit this change is "
                   f"based on, each side run from a git archive of its commit; "
                   f"quartiles are numpy's linear percentiles over the {PAIRS} "
                   f"runs of a side"),
        "commits": commits, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "pairs": PAIRS, "workloads": {},
        "traced": {"command": (f"python3 perfbench/run.py --workload W --seed "
                               f"{SEED0} --seconds {SECONDS} --trace 1"),
                   "note": ("one traced run per workload and side; per-module "
                            "and per-function self time per traced job (s) and "
                            "call counts, median over the run's traced jobs; "
                            "absent lists traced functions that never ran"),
                   "workloads": {}},
    }
    for name in names:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = perfbench(sides[side], name, SEED0 + i, 0)
                runs[side].append(result)
                job = result["metrics"].get("job_s_p50", {}).get("value")
                print(f"{name} pair {i} {side}: job_s_p50 {job}", flush=True)
        entry = {side: side_summary(runs[side]) for side in runs}
        entry["metrics"] = {}
        for metric, better in metrics.items():
            values = {side: [r["metrics"].get(metric, {}).get("value")
                             for r in runs[side]] for side in runs}
            if all(v is not None for vs in values.values() for v in vs):
                entry["metrics"][metric] = compare(values["parent"],
                                                   values["change"], better)
        report["workloads"][name] = entry
        report["traced"]["workloads"][name] = {
            side: traced_summary(perfbench(sides[side], name, SEED0, 1), SEED0)
            for side in ("parent", "change")}
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(commit, directory: Path):
    """The committed files of commit, unpacked into directory."""
    directory.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive,
                   check=True)
    return directory


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--parent", required=True,
                        help="the commit the change (HEAD) is based on")
    args = parser.parse_args(argv)
    commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
               "change": git("rev-parse", "--verify", "HEAD^{commit}")}
    if git("rev-parse", commits["parent"] + "^{tree}") == git(
            "rev-parse", "HEAD^{tree}"):
        sys.exit(f"--parent {args.parent} has the same files as HEAD; "
                 "commit the change first")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: extract(commit, Path(tmp) / side)
                 for side, commit in commits.items()}
        run(args.pr, sides, commits)


if __name__ == "__main__":
    main()
