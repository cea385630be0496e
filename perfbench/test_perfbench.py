"""Self-tests of the benchmark: tracer counts, output checks, accounting.

    python3 -m pytest -q perfbench

Runs one traced job of each workload at seed 1 (about 30 s on two cores),
then checks the tracer's exact call counts on the current program, that
the per-layer self times add up to the traced job's wall time, and that
every output check rejects a corrupted output.  The exact counts describe
the program as it is; a change that removes or batches the counted calls
updates them here.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
from workloads import WORKLOADS

if run.import_program() is None:
    pytest.skip("no genevar sources in this checkout", allow_module_level=True)

SEED = 1


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced job per workload: (job, result, outdir)."""
    done = {}

    def get(name):
        if name not in done:
            workload = WORKLOADS[name]
            workdir = tmp_path_factory.mktemp(name)
            job, _ = workload.make_input(SEED, workdir)
            with run.Runner(workdir, time.perf_counter() + 170.0) as runner:
                result = run.run_job(runner, workload, job, 0, traced=True)
            done[name] = (job, result, workdir / "out")
        return done[name]

    return get


def _calls(functions, name):
    return functions.get(name, {"calls": 0})["calls"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_outputs_pass_their_checks(traced, name):
    _, result, _ = traced(name)
    assert [c.code for c in result.children] == [0] * len(result.children)
    assert result.problems == []
    assert result.layers["absent"] == []
    assert result.layers["hook_errors"] == 0


def test_exact_counts_estimate(traced):
    _, result, _ = traced("estimate_i3_n20k")
    values = result.layers["values"]
    assert values["asymptotics.pooled_curve_asymptotics.calls"] == 101
    assert values["inference.gene_sigma.calls"] == 0
    assert values["io.read_table.calls"] == 1
    assert values["io.read_table.rows"] == 240_000
    assert values["smoothing.kde_values.calls"] == 1
    assert values["cli.main.calls"] == 1


def test_exact_counts_genewise(traced):
    job, result, _ = traced("genewise_i2_n20k")
    validate, select = result.layers["commands"]
    assert _calls(validate, "inference.gene_sigma") == 80_000
    assert _calls(select, "inference.gene_sigma") == 20_000
    values = result.layers["values"]
    assert values["asymptotics.pooled_curve_asymptotics.calls"] == 0
    assert values["io.read_table.calls"] == 2
    assert values["io.read_table.rows"] == 2 * 160_000
    assert values["io.read_table.bytes"] == 2 * job.input_path.stat().st_size


def test_exact_counts_simulate(traced):
    _, result, _ = traced("simulate_tables_n2k")
    for functions in result.layers["commands"]:
        assert _calls(functions, "smoothing.fit_curve") == 800
        assert _calls(functions, "simulation.run_experiment") == 1
    values = result.layers["values"]
    assert values["smoothing.kde_values.calls"] == 0
    assert values["io.read_table.calls"] == 0
    assert values["correlation.fixed_point_solve.calls"] == 50


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_traced_wall(traced, name):
    _, result, _ = traced(name)
    values = result.layers["values"]
    modules = sum(values[f"{m}.self_s"] for m in run.MODULES)
    assert abs(result.layers["unattributed_s"]) < 1e-6
    assert values["process.self_s"] > 0
    assert modules + values["process.self_s"] == pytest.approx(result.wall_s, abs=1e-6)
    assert all(v >= 0 for k, v in values.items() if k.endswith(".self_s"))


# --------------------------------------------------------------------------
# Corrupted outputs must fail their checks.
# --------------------------------------------------------------------------

def _edit_csv(path, edit):
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    header = list(rows[0])
    rows = edit(rows)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _scale(column, factor):
    def edit(rows):
        for row in rows:
            row[column] = repr(float(row[column]) * factor)
        return rows
    return edit


def _set(column, value, where=None):
    def edit(rows):
        for row in rows:
            if where is None or where(row):
                row[column] = value
        return rows
    return edit


def _swap_mise(a, b):
    def edit(rows):
        by_name = {r["estimator"]: r for r in rows}
        by_name[a]["mise"], by_name[b]["mise"] = by_name[b]["mise"], by_name[a]["mise"]
        return rows
    return edit


CORRUPTIONS = [
    ("estimate_i3_n20k", "estimate/curve.csv", _scale("variance", 1.3)),
    ("estimate_i3_n20k", "estimate/curve.csv", lambda rows: rows[:-1]),
    ("estimate_i3_n20k", "estimate/curve.csv", _set("stderr", "nan")),
    ("estimate_i3_n20k", "estimate/correlation.csv", _set("rho", "0.3")),
    ("estimate_i3_n20k", "estimate/correlation.csv", _set("converged", "False")),
    ("estimate_i3_n20k", "estimate/correlation.csv", _set("rho", "not-a-number")),
    ("genewise_i2_n20k", "select/gene_calls.csv", _scale("sigma_hat", 1.4)),
    ("genewise_i2_n20k", "select/gene_calls.csv", lambda rows: rows[1:]),
    ("genewise_i2_n20k", "validate/validation.csv", _set("p2", "1.5")),
    ("genewise_i2_n20k", "validate/validation.csv", lambda rows: rows[:2]),
    ("genewise_i2_n20k", "select/counts.csv",
     _set("z_selected", "100000", where=lambda r: r["fold_change"] == "4.0")),
    ("simulate_tables_n2k", "table2/report.csv",
     _swap_mise("corrected", "replicate_average")),
    ("simulate_tables_n2k", "table1/report.csv",
     _swap_mise("two_stage", "replicate_average")),
    ("simulate_tables_n2k", "table2/params.csv",
     _set("mean", "0.5", where=lambda r: r["parameter"] == "rho")),
]


@pytest.mark.parametrize("name,relpath,edit", CORRUPTIONS,
                         ids=[f"{n}:{p}:{k}" for k, (n, p, _) in enumerate(CORRUPTIONS)])
def test_checker_rejects_corrupted_output(traced, tmp_path, name, relpath, edit):
    job, result, outdir = traced(name)
    assert result.problems == []
    copy = tmp_path / "out"
    shutil.copytree(outdir, copy)
    _edit_csv(copy / relpath, edit)
    assert WORKLOADS[name].verify(job, copy) != []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_rejects_missing_outputs(traced, tmp_path, name):
    job, _, _ = traced(name)
    assert WORKLOADS[name].verify(job, tmp_path) != []


# --------------------------------------------------------------------------
# Accounting
# --------------------------------------------------------------------------

def test_rusage_is_per_child(tmp_path):
    # This test process already holds numpy and the traced jobs' data; the
    # small child must report neither that nor the big child's peak.
    ballast = bytearray(b"x" * (200 << 20))
    with run.Runner(tmp_path, time.perf_counter() + 60.0) as runner:
        big = runner.run([sys.executable, "-c", "b = b'x' * (150 << 20)"])
        small = runner.run([sys.executable, "-c", "pass"])
    del ballast
    assert big.code == small.code == 0
    assert big.rss_mb > 100
    assert small.rss_mb < 60


def test_deadline_kills_a_hung_child(tmp_path):
    start = time.perf_counter()
    with run.Runner(tmp_path, time.perf_counter() + 1.0) as runner:
        with pytest.raises(run.Deadline):
            runner.run([sys.executable, "-c", "import time; time.sleep(30)"])
    assert time.perf_counter() - start < 10


def test_absent_function_is_reported_not_fatal():
    functions = {"cli.main": {"calls": 1, "self_s": 0.5, "errors": 0}}
    meta = {"counts": {}, "hook_errors": 0, "root_s": 0.5}
    child = run.Child(code=0, start=0.0, end=2.0, cpu_s=1.9, rss_mb=100.0)
    layers = run.job_layers([(functions, meta)], [child])
    assert "inference.gene_sigma" in layers["absent"]
    assert layers["values"]["inference.gene_sigma.calls"] == 0
    assert layers["values"]["cli.self_s"] == 0.5
    assert layers["values"]["process.self_s"] == 1.5


def test_tracer_wraps_every_named_function(tmp_path):
    spans = tmp_path / "spans.npz"
    code = subprocess.call(
        [sys.executable, str(run.HERE / "tracer.py"), str(spans), "7", "--", "--help"],
        env=dict(os.environ, PYTHONPATH=str(run.SRC)), stdout=subprocess.DEVNULL)
    assert code == 0
    functions, meta = tracer.summarize(spans)
    assert meta["job_id"] == 7
    assert functions["cli.main"]["calls"] == 1
    assert functions["cli.build_parser"]["calls"] == 1
    assert set(run.FUNCTIONS) <= set(functions)
    assert meta["root_s"] > 0


def test_benchmark_json_matches_the_report():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate_i3_n20k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout or "x")
