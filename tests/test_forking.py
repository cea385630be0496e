import itertools
import os
import signal
import time
import weakref

import pytest

from genevar import _forking


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """workers(n) makes _forking.run see n usable CPUs."""
    def set_workers(n):
        monkeypatch.setattr(_forking, "workers", lambda: n)

    return set_workers


def square_where(k):
    """k squared, and the pid of the process that computed it."""
    return k * k, os.getpid()


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("n_tuples", [0, 1, 2, 5])
def test_results_in_order(workers, forked, n_workers, n_tuples):
    workers(n_workers)
    got = list(_forking.run(square_where, [(k,) for k in range(n_tuples)]))
    assert [square for square, _ in got] == [k * k for k in range(n_tuples)]
    n = min(n_workers, n_tuples)
    pids = [pid for _, pid in got]
    if n <= 1:  # one worker or at most one tuple: all here, nothing forked
        assert forked == []
        assert set(pids) <= {os.getpid()}
    else:
        # one contiguous share per child, sizes within one; none ran here
        assert len(forked) == n
        assert set(pids) == set(forked)
        sizes = [len(list(run)) for _, run in itertools.groupby(pids)]
        assert len(sizes) == n and max(sizes) - min(sizes) <= 1
    assert_no_child_left()


class Box:
    """A result that a weak reference can follow."""

    def __init__(self, k):
        self.k = k


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_yielded_result_is_held_by_the_caller_alone(workers, n_workers):
    # so that a caller that drops each result, as the parse does with each
    # range's gene ids, never holds two at once
    workers(n_workers)
    results = _forking.run(Box, [(k,) for k in range(4)])
    first = next(results)
    ref = weakref.ref(first)
    del first
    assert ref() is None
    assert [box.k for box in results] == [1, 2, 3]
    assert_no_child_left()


def test_results_a_child_never_sends_are_computed_here(workers, forked):
    # shares [0, 1], [2, 3], [4, 5]; the second child exits before it sends
    workers(3)
    parent, here = os.getpid(), []

    def square(k):
        if os.getpid() == parent:
            here.append(k)
        elif k == 3:
            os._exit(0)
        return k * k

    assert list(_forking.run(square, [(k,) for k in range(6)])) == [
        k * k for k in range(6)]
    assert len(forked) == 3
    assert here == [2, 3]
    assert_no_child_left()


def test_results_after_the_last_one_sent_are_computed_here(workers, forked):
    # the third child sends 4, then fails to pickle its result for 5
    workers(3)
    parent, here = os.getpid(), []

    def square(k):
        if os.getpid() == parent:
            here.append(k)
        elif k == 5:
            return lambda: k  # no pickle for a lambda
        return k * k

    assert list(_forking.run(square, [(k,) for k in range(6)])) == [
        k * k for k in range(6)]
    assert here == [5]
    assert_no_child_left()


@pytest.mark.parametrize("n_workers", [1, 3])
def test_an_error_in_func_reaches_the_caller(workers, forked, n_workers):
    workers(n_workers)

    def inverse(k):
        return 1 / (k - 4)

    with pytest.raises(ZeroDivisionError):
        list(_forking.run(inverse, [(k,) for k in range(6)]))
    assert len(forked) == (3 if n_workers == 3 else 0)
    assert_no_child_left()


def test_no_child_left_after_close_part_way(workers, forked):
    workers(3)
    parent = os.getpid()

    def slow_in_last_share(k):
        if k >= 4 and os.getpid() != parent:
            time.sleep(60)
        return k

    began = time.monotonic()
    results = _forking.run(slow_in_last_share, [(k,) for k in range(6)])
    assert next(results) == 0
    results.close()
    assert time.monotonic() - began < 30
    assert len(forked) == 3
    assert_no_child_left()


def test_no_child_left_after_keyboard_interrupt(workers, forked):
    # the first child exits before it sends, and computing its share here
    # is interrupted while the other children are still busy
    workers(3)
    parent = os.getpid()

    def interrupted(k):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        if k == 0:
            os._exit(0)
        time.sleep(60)

    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(_forking.run(interrupted, [(k,) for k in range(6)]))
    assert time.monotonic() - began < 30
    assert len(forked) == 3
    assert_no_child_left()


def test_no_child_left_after_keyboard_interrupt_at_a_fork(workers, forked,
                                                          monkeypatch):
    # SIGINT reaches this process right after the real fork returns here,
    # before the child can join the list that the cleanup reads
    workers(3)
    fork = os.fork

    def interrupted_fork():
        pid = fork()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", interrupted_fork)
    handler = signal.getsignal(signal.SIGINT)
    with pytest.raises(KeyboardInterrupt):
        list(_forking.run(square_where, [(k,) for k in range(6)]))
    assert len(forked) == 3
    assert_no_child_left()
    assert signal.getsignal(signal.SIGINT) is handler


def sigint_handler_id(_):
    return id(signal.getsignal(signal.SIGINT))


def test_children_run_with_the_callers_sigint_handler(workers, forked):
    # the flag-setting handler of the fork loop is gone in every child
    workers(2)
    got = list(_forking.run(sigint_handler_id, [(0,), (1,)]))
    assert len(forked) == 2
    assert got == [id(signal.getsignal(signal.SIGINT))] * 2
