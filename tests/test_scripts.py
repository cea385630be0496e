"""The scripts under scripts/ run against this checkout's genevar."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import genevar

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(genevar.__file__).resolve().parents[1])


def run_script(name, *args):
    """Run scripts/name with args; returns its standard output."""
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_validation_calibration():
    out = run_script("validation_calibration.py", "--reps", "20")
    lines = out.splitlines()
    assert lines[0] == "null model: G=19, I=10, 20 replications"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert sorted(rows) == ["T1", "T2", "T3", "T4"]
    for ks_p, size05, size01 in rows.values():
        assert 0.0 <= float(ks_p) <= 1.0
        assert 0.0 <= float(size01) <= float(size05) <= 1.0


def test_reproduce_tables(tmp_path):
    out = run_script("reproduce_tables.py", "--reps", "2", "--out", str(tmp_path))
    assert "corrected" in out and "two_stage" in out
    names = {p.name for p in tmp_path.iterdir()}
    assert {"effects_smooth", "effects_nonsmooth", "correlation_+0.4"} <= names
    for d in tmp_path.iterdir():
        assert (d / "report.csv").is_file() and (d / "manifest.json").is_file()


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_stage_memory(tmp_path):
    from genevar.io import write_table
    from genevar.simulation import SimDesign, generate_set

    data = tmp_path / "arrays.csv"
    write_table(generate_set(SimDesign(n_genes=300, n_active=40, seed=3), 0),
                data)
    out = run_script("stage_memory.py", "estimate", "--input", str(data),
                     "--out", str(tmp_path / "out"), "--format", "csv")
    lines = out.splitlines()
    assert lines[0].split() == ["stage", "VmHWM_MB", "VmRSS_MB"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == [
        "start", "read_table", "default_grid", "fixed_point_solve",
        "density_interpolator", "corrected_curve_stderr", "write_csv",
        "write_csv", "_write_manifest"]
    peaks = [float(row[1]) for row in rows]
    assert peaks == sorted(peaks)
    assert all(float(rss) <= float(hwm) for _, hwm, rss in rows)
    assert (tmp_path / "out" / "curve.csv").is_file()
    assert (tmp_path / "out" / "manifest.json").is_file()
