"""The one way genevar forks: io's parse and writer, and run_experiment.
Callers go through the module, so that one patched name reaches every
forked path."""

import contextlib
import os
import pickle
import signal
import threading


def workers():
    """Processes for a forked job: one per CPU in this process's affinity
    set, or 1 where forking is unavailable or, with other threads alive,
    unsafe."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def forked(func, arg_tuples):
    """The pipes of one forked child per argument tuple, each running
    fork(func, *args).  Every child is reaped when the block exits, on
    every path; one still running then has nothing left to send, so it is
    killed first."""
    children = []
    try:
        for args in arg_tuples:
            children.append(fork(func, *args))
        yield [pipe for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def fork(func, *args):
    """(pid, pipe) of a forked child that pickles func(*args) into the pipe.
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
            with open(write, "wb") as pipe:
                pickle.dump(func(*args), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def receive(pipe):
    """A child's pickled result, or None if it died before sending it all."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None
