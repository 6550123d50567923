"""One ordered map over forked worker processes, shared by igm's trial
blocks and counterexample's seeds.

``fork_map(run, items, workers)`` returns ``[run(item) for item in items]``.
With one worker it runs in this process.  Otherwise it forks ``workers``
processes: ``run`` reaches them by copy, not by pickle, so it may be a
closure over the caller's arrays, and only the items and the results are
pickled.  Each worker sets the caller's ``np.geterr()``, so it raises on the
floating-point errors the caller raises on.  The first item that raised
re-raises in the caller, and a worker that dies fails the map with
BrokenProcessPool, a RuntimeError.  Every worker has exited by the time
``fork_map`` returns or raises.

``blas_workers`` is the worker count for items whose work is BLAS-3 calls,
which oversubscribe the CPUs unless the workers' BLAS threads fit on them.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, List, Optional

import numpy as np

# The variables a BLAS library takes its thread count from, in the order it
# reads them, keyed by a substring of numpy's name for the library; the first
# positive value wins.
_BLAS_THREAD_VARIABLES = (
    ("openblas", ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")),
    ("mkl", ("MKL_NUM_THREADS", "OMP_NUM_THREADS")),
)


def pool_cpus() -> int:
    """CPUs that forked workers may run on: those of this process's
    affinity mask, or 1 where the platform cannot fork or report it."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _blas_name() -> str:
    """numpy's name for the BLAS library it calls, or "" where numpy does not
    report it (numpy < 1.26)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] or ""
    except (TypeError, KeyError):
        return ""


def blas_threads() -> int:
    """Threads that one BLAS call of this process may use: the first positive
    value among the environment variables its library reads, or else
    ``pool_cpus()``, the libraries' default, also for a library whose
    variables are not known here."""
    name = _blas_name().lower()
    for library, variables in _BLAS_THREAD_VARIABLES:
        if library in name:
            for variable in variables:
                try:
                    threads = int(os.environ.get(variable, ""))
                except ValueError:
                    continue
                if threads > 0:
                    return threads
    return pool_cpus()


def blas_workers(items: int) -> int:
    """Workers for ``items`` items of BLAS-3 work: as many as the CPUs hold
    at ``blas_threads()`` threads each, at most one per item and at least 1.
    Where BLAS may use every CPU, that is 1: on a 2-core x86 box, two
    forked workers with two OpenBLAS threads each took 1.9 to 3.7 s
    (median 2.2 s, 3 runs) on counterexample's dim 256 x 4 seeds, which one
    process does in 1.2 s."""
    return max(1, min(pool_cpus() // blas_threads(), items))


# Set in each forked worker by _start_worker: the map's function.
_worker_run: Optional[Callable[[Any], Any]] = None


def _start_worker(run: Callable[[Any], Any], errors: dict) -> None:
    """Worker initializer.  Under fork, ``run`` reaches the worker by copy,
    not by pickle; ``errors`` is the parent's np.geterr()."""
    global _worker_run
    _worker_run = run
    np.seterr(**errors)


def _run_in_worker(item: Any) -> Any:
    """A worker's task: sent by name, where the ``run`` closure cannot be
    pickled."""
    return _worker_run(item)


def fork_map(run: Callable[[Any], Any], items: Iterable[Any], workers: int) -> List[Any]:
    """``[run(item) for item in items]``, in this process when ``workers``
    is 1, else in ``workers`` forked processes (see the module docstring)."""
    if workers == 1:
        return [run(item) for item in items]
    # imported here, so that importing the CLI does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(run, np.geterr()))
    try:
        # waits for every item in order; the first item that raised
        # re-raises here, and a worker that died fails every future with
        # BrokenProcessPool
        return list(pool.map(_run_in_worker, items))
    finally:
        # the items not yet started are cancelled, and the executor reaps
        # every worker before this returns
        pool.shutdown(cancel_futures=True)
