"""Benchmark of the sagm CLI: four workloads, checked against stored results.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 25 --trace 0

Each run launches ``python -m sagm.cli`` from this checkout's ``src/`` as a
fresh process, repeatedly, for about ``--seconds`` seconds, and checks every
output against ``perfbench/reference/<workload>.json.gz``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates
untraced runs with runs under ``perfbench/tracer.py`` and reports the
per-layer metrics.  The last line of standard output is one JSON object;
lines before it describe the environment and the metrics in words.  The
metrics, workloads and tolerances are explained in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = BENCH / "reference"

# One BLAS thread per process.  On the 2-core box one and two threads were
# equally unsteady (README.md, "Steadiness"); one leaves the second core to
# the harness and is never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# CLI seeds with a stored reference.  A benchmark seed picks the order in
# which a run visits them, so every seed yields checkable inputs.
CLI_SEEDS = tuple(range(8))
SETUP_PROBES = 9
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0

# Host-speed yardstick.  On a shared host, neighbours slow every process by
# 10-50 % in phases that outlast a run (README.md, "Steadiness"), and no
# statistic over one run's CLI calls removes that.  A fixed kernel timed
# right before each set-up probe and CLI call slows with them, so each time
# is rescaled by YARDSTICK_REF_S / (its step's yardstick time): it reads in
# seconds at the host speed the benchmark was calibrated at.
YARDSTICK_REF_S = 0.4
_YARDSTICK = """
import time, numpy as np
rng = np.random.default_rng(0)
big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
x = np.ones(256, dtype=complex)
start = time.perf_counter()
for _ in range(4800):  # memory-bound BLAS-2, like power iteration
    x = big @ x
    x /= np.linalg.norm(x)
for _ in range(24000):  # per-call numpy overhead, like the 4x4 sandwiches
    y = small.conj().T @ small @ small
s = 0
for i in range(1000000):  # the interpreter itself
    s += i * i
print(time.perf_counter() - start)
"""

# Reference tolerance: |x - ref| <= ATOL + RTOL * |ref| per numeric cell.
# Byte identity is too strict: re-associated partition sums and a LAPACK
# spectral norm (ROADMAP items 2-3) move the 17th printed digit of these
# O(1) quantities by ~1e-15 relative.  1e-9 leaves a millionfold margin over
# that and stays far below every effect the lab reports (order violations
# and deviations are >= 1e-4).  ATOL absorbs cells that are rounding noise
# around 0 (sandwich margins, zero bounds).
RTOL = 1e-9
ATOL = 1e-12
# identity_residual is itself rounding noise (~1e-13) of a dim-256 identity
# that the CLI accepts up to 1e-9; any rewrite of the means changes it
# entirely, so it is held to 1e-10 absolute, ten times inside the CLI gate.
ATOL_OVERRIDES = {("counterexample_256", "identity_residual"): 1e-10}

LAYERS = ("cli",) + tracer.LAYERS


@dataclass(frozen=True)
class Size:
    """CLI arguments of one run (``--seed`` and ``--out`` are added per run)
    and the number of items it completes.  ``config`` is an igm config; its
    path replaces ``{config}`` in ``args`` and its seeds are set per run."""

    args: Tuple[str, ...]
    items: int
    config: Optional[Dict] = None


@dataclass(frozen=True)
class Workload:
    """``full`` is the size the benchmark measures, ``tiny`` the self-test's."""

    name: str
    full: Size
    tiny: Size


def _igm_config(d: int, gamma: float, k: int, trials: int) -> Dict:
    return {
        "generator": {"kind": "group_orbit", "d": d},
        "gamma": gamma,
        "rho": 0.05,
        "k": k,
        "policy": "without_replacement",
        "trials": trials,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_small",
            Size(("sweep", "--families", "500", "--n-max", "8", "--m-max", "4",
                  "--d-max", "4"), 500),
            Size(("sweep", "--families", "3", "--n-max", "4", "--m-max", "2", "--d-max", "2"), 3),
        ),
        Workload(
            "deviation_deep",
            Size(("deviation", "--sampler", "perturbed", "--n", "32", "--m", "4",
                  "--d-list", "2,3,4,5", "--trials", "30"), 30 * 4),
            Size(("deviation", "--sampler", "perturbed", "--n", "8", "--m", "2",
                  "--d-list", "2", "--trials", "30"), 30),
        ),
        Workload(
            "counterexample_256",
            Size(("counterexample", "--dim", "256", "--n", "3", "--t", "1.2", "--seeds", "4"), 4),
            Size(("counterexample", "--dim", "8", "--n", "3", "--t", "1.2", "--seeds", "1"), 1),
        ),
        Workload(
            "igm_mc",
            Size(("igm", "--config", "{config}"), 30_000 * 32, _igm_config(8, 0.125, 32, 30_000)),
            Size(("igm", "--config", "{config}"), 50 * 2, _igm_config(2, 0.5, 2, 50)),
        ),
    )
}


# -- environment ----------------------------------------------------------

def child_env() -> Dict[str, str]:
    """This checkout's src/ first on the path, BLAS threads pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


_ENV_PROBE = """
import json, os, sys, numpy, sagm
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    blas = {}
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas_name": blas.get("name"), "blas_version": blas.get("version"),
                  "sagm_file": os.path.abspath(sagm.__file__)}))
"""


def git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the library's sources, which names the code that ran
    where the checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sagm").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> Dict:
    """Describe the interpreter, numpy and BLAS that the CLI runs under, and
    fail unless it imports sagm from this checkout."""
    if not (SRC / "sagm" / "cli.py").is_file():
        raise BenchError(f"no sagm sources under {SRC}")
    proc = subprocess.run([sys.executable, "-c", _ENV_PROBE], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import sagm from {SRC}: {proc.stderr.strip()[-500:]}")
    env = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(env["sagm_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"sagm imported from {env['sagm_file']}, not from {SRC}")
    env.update(blas_threads=BLAS_THREADS, nproc=os.cpu_count(),
               git_rev=git_rev(), src_sha256=src_digest())
    return env


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, missing reference)."""


# -- references -------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: Workload) -> Dict:
    path = reference_path(workload.name)
    if not path.is_file():
        raise BenchError(f"missing reference {path}")
    with gzip.open(path, "rt") as fh:
        ref = json.load(fh)
    if ref["args"] != list(workload.full.args) or ref["config"] != workload.full.config:
        raise BenchError(f"reference {path} was recorded for other arguments")
    return ref


def compare(workload: str, text: str, ref_text: str) -> List[str]:
    """Differences between a CSV result and its reference beyond tolerance."""
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not rows or rows[0] != ref[0]:
        return [f"header {rows[0] if rows else None} != {ref[0]}"]
    if len(rows) != len(ref):
        return [f"{len(rows) - 1} rows, reference has {len(ref) - 1}"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), start=1):
        if len(row) != len(ref_row):
            problems.append(f"row {i}: {len(row)} cells, reference has {len(ref_row)}")
            continue
        for col, got, want in zip(ref[0], row, ref_row):
            if got == want:
                continue
            try:
                x, y = float(got), float(want)
            except ValueError:
                problems.append(f"row {i} {col}: {got!r} != {want!r}")
                continue
            atol = ATOL_OVERRIDES.get((workload, col), ATOL)
            if not abs(x - y) <= atol + RTOL * abs(y):
                problems.append(f"row {i} {col}: {got} vs reference {want}")
    return problems


# -- one CLI process ----------------------------------------------------------

@dataclass
class Rep:
    """One CLI process: wall from spawn to exit, peak RSS from its rusage."""

    cli_seed: int
    wall_s: float
    peak_rss_mb: float
    out_bytes: int
    problems: List[str]
    byte_identical: bool
    trace: Optional[Dict] = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@contextmanager
def _watchdog(proc: subprocess.Popen):
    """Kill ``proc`` after CHILD_TIMEOUT_S, or at once if the block raises."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()


def _reap(proc: subprocess.Popen) -> Tuple[int, object]:
    """Wait for ``proc``; return its exit code and resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def cli_args(size: Size, cli_seed: int, tmp: Path) -> List[str]:
    """CLI arguments for one run; the result goes to ``tmp/out.csv`` and its
    manifest next to it, as a user's ``--out`` run would write them."""
    out = ["--out", str(tmp / "out.csv")]
    if size.config is None:
        return list(size.args) + ["--seed", str(cli_seed)] + out
    config = json.loads(json.dumps(size.config))
    config["seed"] = cli_seed
    config["generator"]["seed"] = cli_seed
    path = tmp / f"igm_{cli_seed}.json"
    path.write_text(json.dumps(config))
    return [a.replace("{config}", str(path)) for a in size.args] + out


def _read_output(tmp: Path) -> bytes:
    """The CSV a run wrote, removed so the next run starts without one."""
    path = tmp / "out.csv"
    if not path.is_file():
        return b""
    data = path.read_bytes()
    path.unlink()
    return data


def run_cli(workload: str, size: Size, cli_seed: int, reference: Dict, tmp: Path,
            traced: bool) -> Rep:
    args = cli_args(size, cli_seed, tmp)
    trace_path = tmp / "trace.bin"
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--"] + args
    else:
        argv = [sys.executable, "-m", "sagm.cli"] + args
    err_path = tmp / "err.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(),
                                cwd=ROOT)
        with _watchdog(proc):
            code, usage = _reap(proc)
        wall = time.perf_counter() - start
    data = _read_output(tmp)
    want = reference["runs"][str(cli_seed)]
    problems = []
    if code != want["exit"]:
        tail = err_path.read_text(errors="replace").strip()[-300:]
        problems.append(f"exit {code}, reference {want['exit']}: {tail}")
    problems += compare(workload, data.decode(errors="replace"), want["csv"])
    trace = None
    if traced:
        if trace_path.is_file():
            trace = tracer.read_trace(trace_path)
            trace_path.unlink()
        else:
            problems.append("tracer wrote no trace")
    return Rep(
        cli_seed=cli_seed,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        out_bytes=len(data),
        problems=problems,
        byte_identical=hashlib.sha256(data).hexdigest() == want["sha256"],
        trace=trace,
    )


def record_reference(workload: Workload, size: Size, seeds=CLI_SEEDS) -> Dict:
    """Run the CLI once per seed and keep exit code, output and its sha256."""
    runs = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        for cli_seed in seeds:
            args = cli_args(size, cli_seed, tmp)
            proc = subprocess.run([sys.executable, "-m", "sagm.cli"] + args, capture_output=True,
                                  env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            data = _read_output(tmp)
            runs[str(cli_seed)] = {"exit": proc.returncode,
                                   "sha256": hashlib.sha256(data).hexdigest(),
                                   "csv": data.decode()}
    return {"workload": workload.name, "args": list(size.args), "config": size.config,
            "runs": runs}


def probe_yardstick() -> float:
    """Seconds the yardstick kernel takes in a fresh child, start-up excluded."""
    proc = subprocess.run([sys.executable, "-c", _YARDSTICK], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"yardstick failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def probe_setup() -> float:
    """Seconds from spawning the interpreter until ``sagm.cli`` is imported."""
    argv = [sys.executable, "-c",
            "import sys, sagm.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=child_env(), cwd=ROOT)
    with _watchdog(proc):
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        code, _ = _reap(proc)
    if line != b"ready\n" or code != 0:
        raise BenchError("cannot import sagm.cli")
    return ready


# -- per-layer metrics from a trace -------------------------------------------

LAYER_METRICS = (
    ("cli.self_s", "s"), ("cli.out_bytes", "bytes"),
    ("symsum.self_s", "s"), ("partitions.self_s", "s"), ("linalg.self_s", "s"),
    ("freeprobe.self_s", "s"), ("igm.self_s", "s"),
    ("symsum.e_wo.calls", "count"), ("symsum.e_wo.self_s", "s"),
    ("symsum.e_wo.p50_ms", "ms"), ("symsum.e_wo.p90_ms", "ms"),
    ("symsum.e_wo.partitions", "count"),
    ("symsum.e_wr.calls", "count"), ("symsum.e_wr.self_s", "s"),
    ("symsum.normalize_family.calls", "count"), ("symsum.normalize_family.self_s", "s"),
    ("symsum.check_theorem_bound.self_s", "s"), ("symsum.check_sandwich.self_s", "s"),
    ("symsum.sampler.calls", "count"), ("symsum.sampler.self_s", "s"),
    ("partitions.enumerate_partitions.calls", "count"),
    ("partitions.enumerate_partitions.self_s", "s"),
    ("partitions.mobius_from_singletons.calls", "count"),
    ("linalg.spectral_norm.calls", "count"), ("linalg.spectral_norm.self_s", "s"),
    ("linalg.spectral_norm.p50_ms", "ms"), ("linalg.spectral_norm.iterations", "count"),
    ("linalg.spectral_norm.unconverged", "count"),
    ("linalg.spectral_norm.converged_ratio", "ratio"),
    ("linalg.haar_unitary.calls", "count"), ("linalg.haar_unitary.self_s", "s"),
    ("linalg.min_eig_hermitian.calls", "count"), ("linalg.min_eig_hermitian.self_s", "s"),
    ("freeprobe.make_free_family.self_s", "s"), ("freeprobe.validate.self_s", "s"),
    ("freeprobe.haar_draws", "count"), ("freeprobe.haar_accept_ratio", "ratio"),
    ("freeprobe.ewo3.calls", "count"), ("freeprobe.ewo3.self_s", "s"),
    ("freeprobe.ewr3.calls", "count"), ("freeprobe.ewr3.self_s", "s"),
    ("freeprobe.difference_identity_residual.self_s", "s"),
    ("freeprobe.order_violation.self_s", "s"), ("freeprobe.trace_gap.self_s", "s"),
    ("igm.trial_streams.self_s", "s"),
    ("igm.draw_noise.calls", "count"), ("igm.draw_noise.self_s", "s"),
    ("igm.draw_indices.calls", "count"), ("igm.draw_indices.self_s", "s"),
    ("igm.monte_carlo_mse.self_s", "s"),
    ("igm.bound_rhs.calls", "count"), ("igm.bound_rhs.self_s", "s"),
    ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("check.error_rate", "ratio"), ("check.byte_mismatch", "count"),
)

def _quantile(values: List[float], q: float) -> float:
    """Linearly interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def analyse_trace(trace: Dict) -> Dict[str, float]:
    """Layer metrics of one traced process.  Self time is a span's duration
    minus the durations of its direct children; a layer's self time sums its
    spans' self times, with every cli.cmd_* span in the cli layer."""
    names, ids, parents = trace["names"], trace["name_ids"], trace["parents"]
    spans = trace["spans"]
    dur = [end - start for start, end in zip(trace["starts"], trace["ends"])]
    child_time = [0.0] * spans
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += dur[i]
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, name_id in enumerate(ids):
        name = names[name_id]
        own = dur[i] - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        durations.setdefault(name, []).append(dur[i])
        layer_self[name.split(".", 1)[0]] += own

    haar = names.index("linalg.haar_unitary") if "linalg.haar_unitary" in names else -1
    loop = names.index("freeprobe._traceless_haar") if "freeprobe._traceless_haar" in names else -1
    draws = sum(1 for i, parent in enumerate(parents)
                if ids[i] == haar and parent >= 0 and ids[parent] == loop)
    counts = trace["counts"]
    sn_calls = calls.get("linalg.spectral_norm", 0)
    sn_bad = counts.get("linalg.spectral_norm.unconverged", 0)
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    for metric, _ in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "self_s" and base not in LAYERS:
            out[metric] = self_s.get(base, 0.0)
        elif kind in ("p50_ms", "p90_ms"):
            q = 0.5 if kind == "p50_ms" else 0.9
            out[metric] = 1e3 * _quantile(durations.get(base, []), q)
    out.update({
        "symsum.e_wo.partitions": counts.get("symsum.e_wo.partitions", 0),
        "linalg.spectral_norm.iterations": counts.get("linalg.spectral_norm.iterations", 0),
        "linalg.spectral_norm.unconverged": sn_bad,
        "linalg.spectral_norm.converged_ratio": (sn_calls - sn_bad) / sn_calls if sn_calls else 0.0,
        "freeprobe.haar_draws": draws,
        "freeprobe.haar_accept_ratio":
            calls.get("freeprobe._traceless_haar", 0) / draws if draws else 0.0,
        "trace.spans": spans,
    })
    return out


# -- a benchmark run ----------------------------------------------------------

@dataclass
class Result:
    workload: str
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    byte_mismatch: int
    problems: List[str] = field(default_factory=list)
    raw: Dict[str, float] = field(default_factory=dict)  # medians before rescaling, in s

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def benchmark(workload: Workload, size: Size, reference: Dict, seed: int, seconds: float,
              trace: bool) -> Result:
    """Measure ``workload`` at ``size`` for about ``seconds`` seconds.

    Each step times the yardstick, probes set-up and runs the CLI once
    (and, with ``trace``, once more under the tracer on the same CLI seed),
    so all of them sample the same stretch of host load.  Steps visit the
    reference's CLI seeds in an order drawn from ``seed``.  After MIN_REPS
    of them, another starts only if at least half of it fits in
    ``seconds``, so runs end as near ``seconds`` as whole steps allow.
    Yardstick and set-up are then topped up to SETUP_PROBES probes each.
    """
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        probe_setup()  # warm-up: bytecode caches and the page cache
        pool = sorted(int(s) for s in reference["runs"])
        order = random.Random(seed).sample(pool, len(pool))
        yards: List[float] = []
        probes: List[float] = []
        plain: List[Rep] = []
        traced: List[Rep] = []
        start = time.perf_counter()
        while True:
            cli_seed = order[len(plain) % len(order)]
            yards.append(probe_yardstick())
            probes.append(probe_setup())
            plain.append(run_cli(workload.name, size, cli_seed, reference, tmp, traced=False))
            if trace:
                traced.append(run_cli(workload.name, size, cli_seed, reference, tmp, traced=True))
            elapsed = time.perf_counter() - start
            if len(plain) >= MIN_REPS and elapsed + elapsed / len(plain) / 2 > seconds:
                break
        while len(probes) < SETUP_PROBES:
            yards.append(probe_yardstick())
            probes.append(probe_setup())

    scale = [YARDSTICK_REF_S / y for y in yards]
    setup = statistics.median(p * k for p, k in zip(probes, scale))
    wall = statistics.median(r.wall_s * k for r, k in zip(plain, scale))
    median_wall = statistics.median(r.wall_s for r in plain)
    raw_setup = statistics.median(probes)

    reps = plain + traced
    failed = [r for r in reps if r.failed]
    problems = [f"{workload.name} cli seed {r.cli_seed}: {p}"
                for r in failed for p in r.problems[:3]]
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "throughput": (size.items / max(wall - setup, 1e-9), "items/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in plain), "MiB"),
    }
    byte_mismatch = sum(not r.byte_identical for r in reps)
    if trace:
        per_rep = []
        for r in traced:
            if r.trace is not None:
                m = analyse_trace(r.trace)
                m["trace.unattributed_s"] = (
                    r.wall_s - raw_setup - sum(m[f"{n}.self_s"] for n in LAYERS))
                per_rep.append(m)
        layer = {name: statistics.median(m[name] for m in per_rep)
                 for name in (per_rep[0] if per_rep else ())}
        traced_wall = statistics.median(r.wall_s for r in traced)
        layer.update({
            "cli.out_bytes": statistics.median(r.out_bytes for r in traced),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - median_wall,
            "check.error_rate": len(failed) / len(reps),
            "check.byte_mismatch": byte_mismatch,
        })
        metrics = {name: (layer.get(name, 0.0), unit) for name, unit in LAYER_METRICS}
    raw = {"setup_s": raw_setup, "wall_s": median_wall, "yardstick_s": statistics.median(yards)}
    return Result(workload.name, metrics, len(reps), len(failed), byte_mismatch, problems, raw)


def summary(result: Result) -> List[str]:
    """Human-readable lines: each metric with its unit, then the checks."""
    lines = [f"# {result.workload}: {name} = {value:.6g} {unit}"
             for name, (value, unit) in result.metrics.items()]
    lines.append(f"# {result.workload}: error_rate = {result.failed / result.attempted:.6g} ratio "
                 f"({result.failed} of {result.attempted} runs failed)")
    lines.append(f"# {result.workload}: byte_mismatch = {result.byte_mismatch} count "
                 "(runs within tolerance whose bytes differ from the reference)")
    lines.append(f"# {result.workload}: before rescaling to the yardstick's "
                 f"{YARDSTICK_REF_S} s: "
                 + ", ".join(f"{k} = {v:.6g} s" for k, v in result.raw.items()))
    return lines + [f"# problem: {p}" for p in result.problems[:10]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # Termination unwinds like an error, so every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        env = environment()
        reference = load_reference(workload)
        result = benchmark(workload, workload.full, reference, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("# env " + json.dumps(env, sort_keys=True))
    print("\n".join(summary(result)))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
