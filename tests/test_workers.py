"""Tests for the shared fork pool and its BLAS worker rule."""

import os
import signal
import time

import numpy as np
import pytest

from sagm import workers

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs and no BLAS thread variable set; returns a setter for the
    BLAS library's name."""
    monkeypatch.setattr(workers, "pool_cpus", lambda: 2)
    for variable in BLAS_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    return lambda name: monkeypatch.setattr(workers, "_blas_name", lambda: name)


class TestBlasWorkers:
    def test_unset_threads_run_serially(self, two_cpus):
        # BLAS then uses every CPU in each process
        two_cpus("scipy-openblas")
        assert workers.blas_threads() == 2
        assert workers.blas_workers() == 1

    def test_one_openblas_thread_gives_a_worker_per_cpu(self, two_cpus, monkeypatch):
        two_cpus("scipy-openblas")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert workers.blas_workers() == 2

    @pytest.mark.parametrize("name, env, threads", [
        # OpenBLAS reads OPENBLAS_, GOTO_, then OMP_NUM_THREADS, skipping 0
        ("openblas", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ("openblas", {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 1),
        ("openblas", {"OMP_NUM_THREADS": "1"}, 1),
        ("openblas", {"MKL_NUM_THREADS": "1"}, 2),
        # MKL reads MKL_ then OMP_NUM_THREADS
        ("mkl", {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
        ("mkl-sdl", {"OMP_NUM_THREADS": "1"}, 1),
        ("mkl", {"OPENBLAS_NUM_THREADS": "1"}, 2),
        # an unparsable value, or a library whose variables are unknown,
        # counts as every CPU
        ("openblas", {"OPENBLAS_NUM_THREADS": "one"}, 2),
        ("accelerate", {"OMP_NUM_THREADS": "1"}, 2),
        ("", {"OPENBLAS_NUM_THREADS": "1"}, 2),
    ])
    def test_library_thread_variables(self, two_cpus, monkeypatch, name, env, threads):
        two_cpus(name)
        for variable, value in env.items():
            monkeypatch.setenv(variable, value)
        assert workers.blas_threads() == threads

    def test_more_threads_than_cpus_run_serially(self, two_cpus, monkeypatch):
        two_cpus("openblas")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert workers.blas_workers() == 1


class TwoArgumentError(Exception):
    """Pickles as ``(cls, (message,))``, which cannot be unpickled."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


def returns_a_closure(share):
    return [lambda: item for item in share]


def raises_with_a_closure(share):
    raise ValueError(lambda: share)


def raises_two_argument_error(share):
    raise TwoArgumentError("bad", share)


def fails_on(failing):
    """A ``run`` that stops at the first item of its share in ``failing``."""
    def run(share):
        results = []
        for item in share:
            if item in failing:
                raise ValueError(f"item {item}")
            results.append(item)
        return results

    return run


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    def test_results_in_order_from_forked_workers(self):
        parent = os.getpid()
        results = workers.fork_map(lambda share: [(i * i, os.getpid()) for i in share],
                                   range(20), 3)
        assert [square for square, _ in results] == [i * i for i in range(20)]
        # one consecutive share per worker, of 6, 7 and 7 items
        pids = [pid for _, pid in results]
        assert parent not in pids
        assert [pids.count(pid) for pid in dict.fromkeys(pids)] == [6, 7, 7]
        assert pids == sorted(pids, key=pids.index)
        assert_no_child_process()

    def test_one_worker_runs_in_this_process(self):
        assert workers.fork_map(lambda share: [share, os.getpid()], range(3), 1) == [
            range(3), os.getpid()]

    @pytest.mark.parametrize("items, count, shares", [
        # a share of a range is a range, whose start and stop the sweeps read
        (range(10), 3, [range(0, 3), range(3, 6), range(6, 10)]),
        # at most one worker per item
        (range(2), 5, [range(0, 1), range(1, 2)]),
        (["a"], 3, [["a"]]),
        # no items: run once, on the empty share, in this process
        ([], 3, [[]]),
        (range(0), 2, [range(0)]),
        # and at least one worker
        (range(3), 0, [range(3)]),
    ])
    def test_consecutive_shares_at_most_one_per_item(self, items, count, shares):
        parent = os.getpid()
        results = workers.fork_map(lambda share: [(share, os.getpid())], items, count)
        assert [share for share, _ in results] == shares
        pids = [pid for _, pid in results]
        assert len(set(pids)) == len(pids)
        assert (parent in pids) == (len(shares) == 1)
        assert_no_child_process()

    def test_first_exception_re_raises(self):
        with pytest.raises(ValueError, match="item 3"):
            workers.fork_map(fails_on(range(3, 8)), range(8), 2)
        assert_no_child_process()

    @pytest.mark.parametrize("failing, earliest", [
        # shares of 3 workers: 0 1 2 / 3 4 5 / 6 7 8 9; each worker stops at
        # its first failure, and the first failing share in child order wins
        ({5, 7, 9}, 5),
        ({3, 4, 8}, 3),
        ({8, 9}, 8),
        ({1, 2, 6}, 1),
    ])
    def test_earliest_failing_item_across_shares(self, failing, earliest):
        with pytest.raises(ValueError, match=f"^item {earliest}$"):
            workers.fork_map(fails_on(failing), range(10), 3)
        assert_no_child_process()

    def test_workers_take_the_callers_floating_point_errors(self):
        # an item that overflows raises in its forked worker as it would here
        def overflow(share):
            return [np.float64(1e300) * item for item in share]

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                workers.fork_map(overflow, [1.0, 1e300], 2)
        with np.errstate(over="ignore"):
            assert workers.fork_map(overflow, [1.0, 1e300], 2)[1] == np.inf
        assert_no_child_process()

    def test_results_larger_than_a_pipe_buffer(self):
        # each worker sends ~4 MiB, far beyond the 64 KiB a pipe holds, while
        # the parent reads the workers one after the other
        def handler(signum, frame):
            raise TimeoutError("fork_map did not return")

        previous = signal.signal(signal.SIGALRM, handler)
        signal.alarm(60)
        try:
            results = workers.fork_map(lambda share: [np.full(2**18, i) for i in share],
                                       range(4), 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [int(r[0]) for r in results] == [0, 1, 2, 3]
        assert all(r.shape == (2**18,) and np.all(r == r[0]) for r in results)
        assert_no_child_process()

    @pytest.mark.parametrize("run, message", [
        (returns_a_closure, "could not pickle its results"),
        (raises_with_a_closure, "could not pickle its results"),
        (raises_two_argument_error, "cannot be unpickled"),
    ])
    def test_what_cannot_cross_the_pipe_is_a_runtime_error(self, run, message):
        with pytest.raises(RuntimeError, match=message):
            workers.fork_map(run, range(4), 2)
        assert_no_child_process()

    def test_a_child_that_exits_is_a_runtime_error(self):
        def exits(share):
            if 3 in share:
                os._exit(7)
            return list(share)

        with pytest.raises(RuntimeError, match="terminated abruptly: exit status 7"):
            workers.fork_map(exits, range(6), 2)
        assert_no_child_process()

    def test_no_child_left_after_the_caller_is_interrupted(self):
        # the workers would sleep for a minute; an exception raised in this
        # process while it waits on them kills and reaps them at once
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        start = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                workers.fork_map(lambda share: time.sleep(60), range(2), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30
        assert_no_child_process()
