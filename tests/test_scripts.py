"""The scripts under scripts/ run against this checkout's genevar."""

import os
import subprocess
import sys
from pathlib import Path

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
