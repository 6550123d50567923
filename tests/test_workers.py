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
        assert workers.blas_workers(4) == 1

    def test_one_openblas_thread_gives_a_worker_per_cpu(self, two_cpus, monkeypatch):
        two_cpus("scipy-openblas")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert workers.blas_workers(4) == 2
        assert workers.blas_workers(1) == 1  # at most one worker per item

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
        assert workers.blas_workers(4) == 1


class TwoArgumentError(Exception):
    """Pickles as ``(cls, (message,))``, which cannot be unpickled."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


def returns_a_closure(item):
    return lambda: item


def raises_with_a_closure(item):
    raise ValueError(lambda: item)


def raises_two_argument_error(item):
    raise TwoArgumentError("bad", item)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    def test_results_in_order_from_forked_workers(self):
        parent = os.getpid()
        results = workers.fork_map(lambda item: (item * item, os.getpid()), range(20), 3)
        assert [square for square, _ in results] == [i * i for i in range(20)]
        assert parent not in {pid for _, pid in results}
        assert_no_child_process()

    def test_one_worker_runs_in_this_process(self):
        assert workers.fork_map(lambda item: os.getpid(), range(3), 1) == [os.getpid()] * 3

    def test_first_exception_re_raises(self):
        def fails_from_3(item):
            if item >= 3:
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError, match="item 3"):
            workers.fork_map(fails_from_3, range(8), 2)
        assert_no_child_process()

    @pytest.mark.parametrize("failing, earliest", [
        # shares of 3 workers: 0 3 6 9 / 1 4 7 / 2 5 8; each worker stops at
        # its first failure, and the earliest item in item order wins
        ({5, 7, 9}, 5),
        ({3, 4}, 3),
        ({8, 9}, 8),
    ])
    def test_earliest_failing_item_across_shares(self, failing, earliest):
        def fails(item):
            if item in failing:
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError, match=f"^item {earliest}$"):
            workers.fork_map(fails, range(10), 3)
        assert_no_child_process()

    def test_results_larger_than_a_pipe_buffer(self):
        # each worker sends ~4 MiB, far beyond the 64 KiB a pipe holds, while
        # the parent reads the workers one after the other
        def handler(signum, frame):
            raise TimeoutError("fork_map did not return")

        previous = signal.signal(signal.SIGALRM, handler)
        signal.alarm(60)
        try:
            results = workers.fork_map(lambda item: np.full(2**18, item), range(4), 2)
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
        def exits(item):
            if item == 3:
                os._exit(7)
            return item

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
                workers.fork_map(lambda item: time.sleep(60), range(2), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30
        assert_no_child_process()
