"""The one way genevar forks: io's parse and writer, and run_experiment.
Callers go through the module, so that one patched name reaches every
forked path."""

import contextlib
import os
import pickle
import signal
import threading

_LOST = object()  # a result that no child sent


def workers():
    """Processes for a forked job: one per CPU in this process's affinity
    set, or 1 where forking is unavailable or, with other threads alive,
    unsafe."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def run(func, arg_tuples):
    """Yield func(*args) for each tuple of the list arg_tuples, in order.

    With n = min(workers(), len(arg_tuples)) > 1, the tuples are cut into n
    contiguous shares, one per forked child.  A child computes its whole
    share, then sends each result as its own pickle; this process only
    waits, so that it touches none of its pages while the children run.  A
    result that does not arrive is computed here, which also raises a
    run's error in the caller.  With n <= 1 every tuple runs here, one at a
    time.  Every child is killed and reaped when the iterator is exhausted
    or closed; one still running then has nothing left to send.
    """
    n = min(workers(), len(arg_tuples))
    if n <= 1:
        for args in arg_tuples:
            yield func(*args)
        return
    cuts = [len(arg_tuples) * k // n for k in range(n + 1)]
    shares = [arg_tuples[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children = []
    try:
        for share in shares:
            children.append(_fork(func, share))
        for (_, pipe), share in zip(children, shares):
            received = _received(pipe)
            for args in share:
                result = next(received, _LOST)
                yield func(*args) if result is _LOST else result
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(func, share):
    """(pid, pipe) of a forked child that pickles func(*args) of each tuple
    of share into the pipe, one result at a time, once it has them all.
    The child leaves only through os._exit, so this process's atexit
    handlers and stdio buffers never run twice."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            results = [func(*args) for args in share]
            with open(write, "wb") as pipe:
                for result in results:
                    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _received(pipe):
    """The results a child sent, in order, up to the first that did not
    arrive whole."""
    with contextlib.suppress(EOFError, pickle.UnpicklingError):
        while True:
            yield pickle.load(pipe)
