#!/usr/bin/env python3
"""Peak and current RSS after each stage of one genevar command, in process.

    python3 scripts/stage_memory.py estimate --input data.csv --out out \
        --format csv

The arguments are those of the genevar command line.  The command runs in
this process through genevar.cli.main, with its stages wrapped: read_table,
default_grid, fixed_point_solve, density_interpolator, the standard errors
(corrected_curve_stderr) or the tests (gene_sigma, validation_tests,
t_pvalues, z_pvalues, power_increase), each write_csv and _write_manifest.
After each stage that runs, one line gives its name with VmHWM (the peak
resident set so far) and VmRSS (the resident set now) from
/proc/self/status, in MB; the stage whose line first shows the final VmHWM
set the peak.  Every stage's module is imported before the command runs,
so the numbers include modules that the command alone might not load.  The
wrappers start no thread, so the forked parse and writer see the same
worker count as without them.  Needs Linux's /proc.
"""

from __future__ import annotations

import functools
import importlib
import sys

from genevar import cli

STAGES = (
    ("io", "read_table"),
    ("model", "default_grid"),
    ("correlation", "fixed_point_solve"),
    ("smoothing", "density_interpolator"),
    ("asymptotics", "corrected_curve_stderr"),
    ("inference", "gene_sigma"),
    ("inference", "validation_tests"),
    ("inference", "t_pvalues"),
    ("inference", "z_pvalues"),
    ("inference", "power_increase"),
    ("io", "write_csv"),
    ("cli", "_write_manifest"),
)


def status_mb():
    """(VmHWM, VmRSS) of this process in MB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                fields[key] = int(value.split()[0]) / 1024.0  # kB
    return fields["VmHWM"], fields["VmRSS"]


def report(name):
    hwm, rss = status_mb()
    print(f"{name:<24s} {hwm:9.2f} {rss:9.2f}", flush=True)


def wrapped(name, func):
    @functools.wraps(func)
    def stage(*args, **kwargs):
        result = func(*args, **kwargs)
        report(name)
        return result
    return stage


def main(argv):
    # cli imports each stage from its module at call time, so patching the
    # module's attribute reaches every call
    for module, name in STAGES:
        owner = importlib.import_module(f"genevar.{module}")
        setattr(owner, name, wrapped(name, getattr(owner, name)))
    print(f"{'stage':<24s} {'VmHWM_MB':>9s} {'VmRSS_MB':>9s}", flush=True)
    report("start")
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
