"""One ordered map over forked worker processes, shared by igm's trial
blocks, counterexample's seeds, the bound sweeps' (n, m) keys and the
deviation experiment's trials.

``fork_map(run, items, workers)`` returns ``run(items)``, where ``run``
maps a consecutive share of the items to a list of results.  With one
worker it runs in this process.  Otherwise it forks ``workers`` children
with ``os.fork``, at most one per item: child ``i`` runs
``run(items[len * i // workers:len * (i + 1) // workers])`` and sends its
results back by pickle over its own pipe, and the results are joined in
child order.  ``run`` and the items reach the children by copy, not by
pickle, so ``run`` may be a closure over the caller's arrays; only the
results are pickled.  A child inherits the caller's numpy floating-point
error handling, so it raises on the errors the caller raises on.  The
shares are consecutive and the parent takes the children's results in
child order, raising at the first failure it meets, so the exception of
the earliest failing item re-raises in the caller, as in a serial run.  A
child that dies or sends nothing, or whose results cannot be pickled,
fails the map with a RuntimeError.  Every child has been reaped by the
time ``fork_map`` returns or raises, also when the caller is interrupted.

``pool_cpus`` is the worker count for items that make no BLAS-3 calls
(igm's trial blocks), and ``blas_workers`` for items whose work is BLAS
calls, which oversubscribe the CPUs unless the workers' BLAS threads fit on
them.  Every caller takes its worker count from one of the two, with no
break-even of its own.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Any, Callable, Dict, List, Sequence

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


def blas_workers() -> int:
    """Workers for items whose work calls BLAS: as many as the CPUs hold at
    ``blas_threads()`` threads each, and at least 1 (``fork_map`` caps them
    at one per item).  Where BLAS may use every CPU, that is 1: on a 2-core
    x86 box, two forked workers with two OpenBLAS threads each took 1.9 to
    3.7 s (median 2.2 s, 3 runs) on counterexample's dim 256 x 4 seeds,
    which one process does in 1.2 s."""
    return max(1, pool_cpus() // blas_threads())


def _serve_share(run: Callable[[Sequence[Any]], List[Any]], share: Sequence[Any],
                 pipe: int) -> None:
    """A forked child's work: ``(run(share), None)``, or ``([], exception)``
    where ``run`` raised, by pickle down ``pipe``.  What cannot be pickled
    is sent as a message."""
    try:
        sent = (run(share), None)
    except BaseException as exc:  # re-raised by the parent, as a serial run would
        sent = ([], exc)
    try:
        data = pickle.dumps(sent)
    except Exception as exc:
        data = pickle.dumps((None, f"could not pickle its results: {exc!r}"))
    with os.fdopen(pipe, "wb") as fh:
        fh.write(data)


def _receive(pid: int, data: bytes, status: int) -> List[Any]:
    """A child's results.  Re-raises the exception its ``run`` raised; a
    RuntimeError where it died, sent nothing or sent what cannot be
    unpickled."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RuntimeError(f"worker process {pid} terminated abruptly: killed by signal {-code}")
    if not data:
        raise RuntimeError(f"worker process {pid} terminated abruptly: exit status {code}, "
                           "no results sent")
    try:
        results, failure = pickle.loads(data)
    except Exception as exc:
        raise RuntimeError(f"worker process {pid} sent results that cannot be unpickled: "
                           f"{exc!r}") from None
    if results is None:
        raise RuntimeError(f"worker process {pid} {failure}")
    if failure is not None:
        raise failure
    return results


def fork_map(run: Callable[[Sequence[Any]], List[Any]], items: Sequence[Any],
             workers: int) -> List[Any]:
    """``run(items)``, in this process when ``workers`` (at most one per
    item) is 1, else over consecutive shares of ``items`` in ``workers``
    forked processes (see the module docstring)."""
    workers = max(1, min(workers, len(items)))
    if workers == 1:
        return run(items)
    # the children's copies of unflushed output would otherwise be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    children: Dict[int, int] = {}  # pid -> read end of its pipe, -1 once read
    statuses: Dict[int, int] = {}
    results: List[Any] = []
    try:
        for i in range(workers):
            share = items[len(items) * i // workers:len(items) * (i + 1) // workers]
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child: never returns into the caller's code
                code = 1
                try:
                    os.close(read_end)
                    for fd in children.values():
                        os.close(fd)
                    _serve_share(run, share, write_end)
                    sys.stdout.flush()
                    sys.stderr.flush()
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = read_end
            os.close(write_end)
        for pid, read_end in children.items():
            # a child blocked on a full pipe waits here until its turn
            with os.fdopen(read_end, "rb") as fh:
                children[pid] = -1
                data = fh.read()
            statuses[pid] = os.waitpid(pid, 0)[1]
            results += _receive(pid, data, statuses[pid])
    finally:
        for pid, read_end in children.items():
            if read_end >= 0:
                os.close(read_end)
            if pid not in statuses:
                # the map failed or was interrupted before this child ended;
                # imported here, so that importing the CLI does not pay for it
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results
