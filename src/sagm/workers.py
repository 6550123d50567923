"""One ordered map over forked worker processes, shared by igm's trial
blocks, counterexample's seeds, the bound sweeps' families and the
deviation experiment's trials.

``fork_map(run, items, workers)`` returns ``[run(item) for item in items]``.
With one worker it runs in this process.  Otherwise it forks ``workers``
children with ``os.fork``: child ``i`` runs items ``i::workers`` and sends
its results back by pickle over its own pipe.  ``run`` and the items reach
the children by copy, not by pickle, so ``run`` may be a closure over the
caller's arrays; only the results are pickled.  A child inherits the
caller's numpy floating-point error handling, so it raises on the errors
the caller raises on.  A child stops at its first item that raises, and the
earliest failing item in item order re-raises in the caller, as in a serial
run.  A child that dies or sends nothing, or whose results cannot be
pickled, fails the map with a RuntimeError.  Every child has been reaped by
the time ``fork_map`` returns or raises, also when the caller is
interrupted.

``blas_workers`` is the worker count for items whose work is BLAS calls,
which oversubscribe the CPUs unless the workers' BLAS threads fit on them.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Any, Callable, Dict, Iterable, List, Tuple

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
    """Workers for ``items`` items whose work calls BLAS: as many as the CPUs hold
    at ``blas_threads()`` threads each, at most one per item and at least 1.
    Where BLAS may use every CPU, that is 1: on a 2-core x86 box, two
    forked workers with two OpenBLAS threads each took 1.9 to 3.7 s
    (median 2.2 s, 3 runs) on counterexample's dim 256 x 4 seeds, which one
    process does in 1.2 s."""
    return max(1, min(pool_cpus() // blas_threads(), items))


def _serve_share(run: Callable[[Any], Any], items: List[Any], first: int, step: int,
                 pipe: int) -> None:
    """A forked child's work: ``run`` over items ``first::step`` up to the
    first that raises, then ``(results, (index, exception) or None)`` by
    pickle down ``pipe``.  What cannot be pickled is sent as a message."""
    results: List[Any] = []
    failure = None
    for index in range(first, len(items), step):
        try:
            results.append(run(items[index]))
        except BaseException as exc:  # re-raised by the parent, as a serial run would
            failure = (index, exc)
            break
    try:
        data = pickle.dumps((results, failure))
    except Exception as exc:
        data = pickle.dumps((None, f"could not pickle its results: {exc!r}"))
    with os.fdopen(pipe, "wb") as fh:
        fh.write(data)


def _receive(pid: int, data: bytes, status: int) -> Tuple[List[Any], Any]:
    """A child's ``(results, failure)``; RuntimeError where it died, sent
    nothing or sent what cannot be unpickled."""
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
    return results, failure


def fork_map(run: Callable[[Any], Any], items: Iterable[Any], workers: int) -> List[Any]:
    """``[run(item) for item in items]``, in this process when ``workers``
    is 1, else in ``workers`` forked processes (see the module docstring)."""
    items = list(items)
    if workers == 1:
        return [run(item) for item in items]
    # the children's copies of unflushed output would otherwise be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    children: Dict[int, int] = {}  # pid -> read end of its pipe, -1 once read
    statuses: Dict[int, int] = {}
    try:
        for first in range(workers):
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
                    _serve_share(run, items, first, workers, write_end)
                    sys.stdout.flush()
                    sys.stderr.flush()
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = read_end
            os.close(write_end)
        received = []
        for pid, read_end in children.items():
            # a child blocked on a full pipe waits here until its turn
            with os.fdopen(read_end, "rb") as fh:
                children[pid] = -1
                data = fh.read()
            statuses[pid] = os.waitpid(pid, 0)[1]
            received.append(_receive(pid, data, statuses[pid]))
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
    failures = [failure for _, failure in received if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for first, (share, _) in enumerate(received):
        results[first::workers] = share
    return results
