"""Run one genevar CLI command with every public genevar function traced.

    PYTHONPATH=src python perfbench/tracer.py SPANS.npz JOB_ID -- CLI_ARGS...

Every public function defined in a ``genevar.*`` module is wrapped, and the
wrapper is bound under each name that holds the function in every genevar
module namespace (the modules import functions by name, so rebinding only the
defining module would miss most calls).  Then ``genevar.cli.main(CLI_ARGS)``
runs in this process as ``python -m genevar.cli`` would run it.

Each call is a span: function, start, end, parent span and whether it raised.
Spans stay in memory and are written to SPANS.npz when the command ends,
together with a few work counts taken from the arguments and results of the
functions in COUNTERS.  Nothing in the program is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
from array import array

import numpy as np


def _read_table_counts(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"rows": result.n_genes * result.n_replicates * result.n_arrays,
            "bytes": os.path.getsize(path)}


def _fit_curve_counts(args, kwargs, result):
    data = kwargs.get("data", args[0] if args else None)
    return {"point_evals": data.x.size * result.grid.size,
            "degenerate_points": int(np.count_nonzero(~result.evaluable))}


def _kde_values_counts(args, kwargs, result):
    x = kwargs.get("x", args[0] if args else None)
    return {"point_evals": np.asarray(x).size * np.asarray(result).size}


def _fixed_point_counts(args, kwargs, result):
    return {"iterations": result.estimate.iterations}


# Work counts per traced function, keyed by "<module>.<function>".  A hook
# that no longer fits the function's signature is counted in hook_errors
# instead of stopping the command.
COUNTERS = {
    "io.read_table": _read_table_counts,
    "smoothing.fit_curve": _fit_curve_counts,
    "smoothing.kde_values": _kde_values_counts,
    "correlation.fixed_point_solve": _fixed_point_counts,
}


class Tracer:
    """In-memory span recorder; one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.error = array("b")
        self.counts = {}
        self.hook_errors = 0
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def _count(self, name, hook, args, kwargs, result):
        try:
            for key, value in hook(args, kwargs, result).items():
                full = f"{name}.{key}"
                self.counts[full] = self.counts.get(full, 0) + int(value)
        except Exception:  # a hook must never change the traced command
            self.hook_errors += 1

    def wrap(self, name, func):
        fn_id = len(self.names)
        self.names.append(name)
        hook = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            idx = len(self.fn)
            self.fn.append(fn_id)
            self.parent.append(stack[-1])
            self.end.append(float("nan"))
            self.error.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.error[idx] = 1
                raise
            else:
                self.end[idx] = clock()
            finally:
                stack.pop()
            if hook is not None:
                self._count(name, hook, args, kwargs, result)
            return result

        return traced

    def save(self, path, job_id):
        np.savez(
            path,
            fn=np.frombuffer(self.fn, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
            meta=np.array(json.dumps({
                "names": self.names, "counts": self.counts,
                "hook_errors": self.hook_errors, "job_id": job_id,
            })),
        )


def _is_public_function(obj, module_name):
    return (callable(obj) and not inspect.isclass(obj)
            and inspect.isfunction(inspect.unwrap(obj))
            and getattr(obj, "__module__", None) == module_name)


def genevar_modules():
    """The genevar package and every module in it, imported."""
    package = importlib.import_module("genevar")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"genevar.{info.name}"))
    return modules


def install(tracer: Tracer):
    """Wrap every public genevar function and rebind every name of it."""
    modules = genevar_modules()
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or not _is_public_function(obj, module.__name__):
                continue
            wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def summarize(spans_path):
    """Per-function calls, self time and errors of one traced command.

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.  Returns
    (functions, meta) where functions maps "<module>.<function>" to
    {"calls", "self_s", "errors"} and meta carries the counts, the names that
    were traced and the total duration of the root spans.  The self times of
    all spans add up to that root duration.
    """
    with np.load(spans_path) as data:
        fn, start, end = data["fn"], data["start"], data["end"]
        parent, error = data["parent"], data["error"]
        meta = json.loads(str(data["meta"]))
    names = meta["names"]
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=fn.size)
    self_s = dur - covered
    n = len(names)
    calls = np.bincount(fn, minlength=n)
    selfs = np.bincount(fn, weights=self_s, minlength=n)
    errors = np.bincount(fn, weights=error, minlength=n)
    functions = {name: {"calls": int(calls[k]), "self_s": float(selfs[k]),
                        "errors": int(errors[k])}
                 for k, name in enumerate(names)}
    meta["root_s"] = float(dur[~child].sum())
    return functions, meta


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.npz JOB_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, job_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("genevar.cli")
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.save(spans_path, job_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
