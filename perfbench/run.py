"""End-to-end and per-layer benchmark of the genevar command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program under test is the
checkout's ``src/genevar``, run as users run it: ``python -m genevar.cli``
in a fresh process per command, with ``PYTHONPATH=src``.

The load is a closed loop with one client: the commands of a job run one
after another and the next job starts when the previous one has ended, so one
program process runs at a time.  The seeded input is made before the timed
region and the program receives only its path (``simulate`` also gets
``--seed``).  Every job's outputs are checked against the generator's truth.

With ``--trace 0`` the run measures the end-to-end metrics: wall time, CPU
time and peak RSS per job, each child's own rusage read with ``os.wait4``,
plus cells analysed per second and the start-up time of ``--help``.  With
``--trace 1`` untraced and traced jobs alternate, the traced ones running each
command under ``perfbench/tracer.py``, and the run reports per-layer self
times, call counts and work counts.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (machine, input digest, every job) is written to
``.perfbench_work/results/``.  The exit code is 2, with no result printed,
when the checkout holds no ``src/genevar`` to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
RUN_DEADLINE_S = 165.0   # a run must end within 180 s, hung children included

# Layers are the genevar modules.  What each should move, and where:
#  - io.read_table: job_s_p50, spots_per_s and peak_rss_mb on estimate_i3_n20k
#    (once) and genewise_i2_n20k (twice); idle on simulate_tables_n2k.
#  - inference.gene_sigma: job_s_p50 on genewise_i2_n20k only.
#  - smoothing.kde_values: job_s_p50 on the two 20k workloads only.
#  - smoothing.local_linear_at / fit_curve with estimators.two_stage_curve:
#    job_s_p50 and job_cpu_s_p50 on simulate_tables_n2k; small on the others.
#  - correlation.fixed_point_solve: simulate_tables_n2k; its iterations count
#    must not change under a pure speed change.
#  - asymptotics: estimate_i3_n20k only.
#  - cli self time (CSV writing, manifest digest, glue): genewise_i2_n20k.
#  - imports: setup_s, and every job_s_p50 once per process (process.self_s).
MODULES = ("io", "model", "synthetic", "smoothing", "estimators",
           "correlation", "asymptotics", "inference", "simulation", "cli")
FUNCTIONS = (
    "io.read_table",
    "smoothing.fit_curve", "smoothing.local_linear_at", "smoothing.kde_values",
    "synthetic.synthetic_responses",
    "estimators.two_stage_curve", "estimators.replicate_curves",
    "estimators.pooled_curve", "estimators.paired_difference_curve",
    "correlation.fixed_point_solve",
    "asymptotics.pooled_curve_asymptotics",
    "inference.gene_sigma", "inference.validation_tests",
    "inference.test_constants", "inference.power_increase",
    "simulation.generate_set", "simulation.run_experiment",
    "cli.main",
)
COUNTS = ("io.read_table.rows", "io.read_table.bytes",
          "smoothing.fit_curve.point_evals", "smoothing.kde_values.point_evals",
          "smoothing.fit_curve.degenerate_points",
          "correlation.fixed_point_solve.iterations")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for module in MODULES:
        names[f"{module}.self_s"] = "s"
        names[f"{module}.calls"] = "count"
        names[f"{module}.errors"] = "count"
    for func in FUNCTIONS:
        names[f"{func}.calls"] = "count"
        names[f"{func}.self_s"] = "s"
    for count in COUNTS:
        names[count] = "B" if count.endswith(".bytes") else "count"
    names["process.self_s"] = "s"
    names["tracing.overhead_s"] = "s"
    return names


END_TO_END = {"job_s_p50": "s", "job_cpu_s_p50": "s", "spots_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}


class Deadline(Exception):
    """The run reached its time limit while a child was still running."""


@dataclass
class Child:
    code: int
    start: float
    end: float
    cpu_s: float
    rss_mb: float


@dataclass
class JobResult:
    job_id: int
    traced: bool
    children: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self):
        return self.children[-1].end - self.children[0].start

    @property
    def cpu_s(self):
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self):
        return max(c.rss_mb for c in self.children)

    def record(self):
        return {"job_id": self.job_id, "traced": self.traced,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "rss_mb": self.rss_mb, "exit_codes": [c.code for c in self.children],
                "problems": self.problems}


class Runner:
    """Runs commands one at a time through ``launcher.py``, which reaps each
    with its own rusage.  Use as a context manager; leaving it stops the
    launcher."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir))
        self.stderr_path = workdir / "stderr.log"
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(self.stderr_path)],
            env=self.env, cwd=workdir, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait(timeout=30)
        self.launcher.stdout.close()

    def run(self, argv) -> Child:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise Deadline()
        self.launcher.stdin.write(json.dumps({"argv": argv, "timeout": remaining}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        reply = json.loads(reply)
        if reply["killed"]:
            raise Deadline()
        return Child(code=reply["code"], start=reply["start"], end=reply["end"],
                     cpu_s=reply["cpu_s"], rss_mb=reply["rss_mb"])

    def stderr_tail(self, lines=5):
        try:
            return self.stderr_path.read_text().splitlines()[-lines:]
        except OSError:
            return []


def cli_argv(cmd):
    return [sys.executable, "-m", "genevar.cli", *cmd]


def traced_argv(cmd, spans_path, job_id):
    return [sys.executable, str(HERE / "tracer.py"), str(spans_path),
            str(job_id), "--", *cmd]


def run_job(runner, workload, job, job_id, traced):
    """Run one job's commands in order and check its outputs, which stay in
    the runner's ``out`` directory until the next job starts."""
    outdir = runner.workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    result = JobResult(job_id=job_id, traced=traced)
    spans = []
    for k, cmd in enumerate(workload.commands(job, outdir)):
        if traced:
            spans.append(outdir / f"spans_{k}.npz")
            child = runner.run(traced_argv(cmd, spans[-1], job_id))
        else:
            child = runner.run(cli_argv(cmd))
        result.children.append(child)
        if child.code != 0:
            result.problems.append(f"{cmd[0]} exited with {child.code}: "
                                   + " | ".join(runner.stderr_tail()))
            break
    if not result.problems:
        result.problems.extend(workload.verify(job, outdir))
    if traced and len(spans) == len(result.children):
        result.layers = job_layers(
            [tracer.summarize(p) for p in spans], result.children)
    return result


def job_layers(summaries, children):
    """Per-layer values of one traced job, summed over its commands."""
    values = dict.fromkeys(per_layer_names(), 0.0)
    traced_names = set()
    modules = {}
    root_s = 0.0
    for functions, meta in summaries:
        traced_names.update(functions)
        for name, stats in functions.items():
            module = name.partition(".")[0]
            acc = modules.setdefault(module, {"self_s": 0.0, "calls": 0, "errors": 0})
            for key in acc:
                acc[key] += stats[key]
            if name in FUNCTIONS:
                values[f"{name}.calls"] += stats["calls"]
                values[f"{name}.self_s"] += stats["self_s"]
        for name in COUNTS:
            values[name] += meta["counts"].get(name, 0)
        root_s += meta["root_s"]
    for module, acc in modules.items():
        for key, value in acc.items():
            if f"{module}.{key}" in values:
                values[f"{module}.{key}"] = value
    # Interpreter start, imports, tracer install, span dump, exit and the
    # launch gaps between commands: the job's wall time outside cli.main.
    values["process.self_s"] = (children[-1].end - children[0].start) - root_s
    return {"values": values,
            "modules": modules,
            "commands": [functions for functions, _ in summaries],
            "absent": sorted(set(FUNCTIONS) - traced_names),
            # root span time not covered by the MODULES' self times: spans
            # of a module outside the list, or broken span nesting
            "unattributed_s": root_s - sum(values[f"{m}.self_s"] for m in MODULES),
            "hook_errors": sum(meta["hook_errors"] for _, meta in summaries)}


def median(values):
    return statistics.median(values) if values else float("nan")


def tail_percentile(values):
    """The highest percentile with at least ten jobs beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_run(runner, workload, job, seconds):
    setup = [runner.run(cli_argv(["--help"])) for _ in range(SETUP_REPEATS)]
    setup_bad = [c.code for c in setup if c.code != 0]
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(run_job(runner, workload, job, len(jobs), traced=False))
    walls = [j.wall_s for j in jobs]
    metrics = {
        "job_s_p50": median(walls),
        "job_cpu_s_p50": median([j.cpu_s for j in jobs]),
        "spots_per_s": workload.cells_per_job * len(jobs) / sum(walls),
        "peak_rss_mb": median([j.rss_mb for j in jobs]),
        "setup_s": median([c.end - c.start for c in setup]),
    }
    extra = {"setup_walls_s": [c.end - c.start for c in setup],
             "setup_rss_mb": median([c.rss_mb for c in setup]),
             "setup_exit_codes": setup_bad,
             "tail": tail_percentile(walls)}
    return jobs, metrics, extra


def traced_run(runner, workload, job, seconds):
    jobs = []
    start = time.perf_counter()
    # Untraced and traced jobs alternate, at least one of each, so that the
    # tracing overhead compares jobs run under the same conditions.
    while len(jobs) < 2 or time.perf_counter() - start < seconds:
        jobs.append(run_job(runner, workload, job, len(jobs),
                            traced=len(jobs) % 2 == 1))
    traced = [j for j in jobs if j.traced and j.layers]
    plain = [j for j in jobs if not j.traced]
    names = per_layer_names()
    metrics = {name: median([j.layers["values"][name] for j in traced])
               for name in names if name != "tracing.overhead_s"}
    metrics["tracing.overhead_s"] = (median([j.wall_s for j in traced])
                                     - median([j.wall_s for j in plain]))
    extra = {"absent": sorted({a for j in traced for a in j.layers["absent"]}),
             "hook_errors": sum(j.layers["hook_errors"] for j in traced),
             "unattributed_s": max(
                 (abs(j.layers["unattributed_s"]) for j in traced), default=0.0),
             "modules": [j.layers["modules"] for j in traced]}
    return jobs, metrics, extra


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_record(seed):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(), "seed": seed}


def import_program():
    """Import genevar from this checkout's src; None when it is not there."""
    if not (SRC / "genevar" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import genevar
    if Path(genevar.__file__).resolve().parent != (SRC / "genevar").resolve():
        return None
    return genevar


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    # Byte-compile the sources as an installed package would be, so that
    # start-up does not depend on whether the environment lets children
    # write their own bytecode cache.
    compileall.compile_dir(SRC / "genevar", quiet=1)
    job, input_record = workload.make_input(args.seed, workdir)

    run = traced_run if args.trace else timed_run
    try:
        with Runner(workdir, deadline) as runner:
            jobs, metrics, extra = run(runner, workload, job, args.seconds)
        deadline_hit = False
    except Deadline:
        # Jobs finished before the limit are lost with the run; count the
        # run as one failed attempt.
        jobs, metrics, extra, deadline_hit = [], {}, {}, True
    failed = 1 if deadline_hit else sum(1 for j in jobs if j.problems)
    attempted = 1 if deadline_hit else len(jobs)
    units = per_layer_names() if args.trace else END_TO_END
    metrics = {name: value for name, value in metrics.items() if math.isfinite(value)}
    correct = (not deadline_hit and failed == 0
               and not extra.get("setup_exit_codes") and set(metrics) == set(units))

    record = {"workload": workload.name, "why": workload.why,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(args.seed), "input": input_record,
              "correct": correct, "attempted": attempted, "failed": failed,
              "error_ratio": failed / attempted, "deadline_hit": deadline_hit,
              "metrics": metrics, "extra": extra,
              "jobs": [j.record() for j in jobs]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(workdir / "out", ignore_errors=True)
    for item in workdir.glob("*.csv"):
        item.unlink()

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} failed={failed} error_ratio={failed / attempted:g}")
    for j in jobs:
        for problem in j.problems:
            print(f"# job {j.job_id}: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"error_ratio {failed / attempted:g} ratio")
        if extra.get("tail"):
            pct, value = extra["tail"]
            print(f"job_s_p{pct} {value:.6g} s")
        else:
            print(f"# no tail percentile: {len(jobs)} jobs, "
                  "20 needed for ten beyond the median")
    if extra.get("absent"):
        print(f"# absent functions: {', '.join(extra['absent'])}")
    print(f"# full record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    if import_program() is None:
        print(f"error: no genevar sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
