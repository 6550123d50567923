"""Tests for the shared fork pool and its BLAS worker rule."""

import os

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


class TestForkMap:
    def test_results_in_order_from_forked_workers(self):
        parent = os.getpid()
        results = workers.fork_map(lambda item: (item * item, os.getpid()), range(20), 3)
        assert [square for square, _ in results] == [i * i for i in range(20)]
        assert parent not in {pid for _, pid in results}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_worker_runs_in_this_process(self):
        assert workers.fork_map(lambda item: os.getpid(), range(3), 1) == [os.getpid()] * 3

    def test_first_exception_re_raises(self):
        def fails_from_3(item):
            if item >= 3:
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError, match="item 3"):
            workers.fork_map(fails_from_3, range(8), 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
