"""Self-test of the benchmark harness at tiny sizes (about a minute):

    python3 perfbench/selftest.py

It checks that
- every workload runs and passes its reference check;
- every metric in BENCHMARK.json is printed with its unit, in the JSON
  result line that ends the output;
- per workload, the layer self times account for the traced wall time less
  set-up, to within the tracing overhead (see ``SELF_TIME_SLACK_S``);
- a corrupted reference is counted in error_rate, and a change inside the
  tolerance is counted as a byte mismatch only;
- the tracer restores every name it patched;
- without the library sources the benchmark fails without a result line.

Tiny references are recorded on the spot from the code under test, so this
tests the harness, not the library.  Exit code 0 when every check passes.
"""

import contextlib
import copy
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

# Interpreter exit (and the tracer's own import and write) run in a traced
# process outside both set-up and every span; at tiny sizes the tracing
# overhead can be near 0, so this much is allowed on top of it.
SELF_TIME_SLACK_S = 0.1


class Checks:
    def __init__(self) -> None:
        self.failures = []

    def __call__(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.failures.append(what)


def corrupt(reference: dict, factor: float) -> dict:
    """Copy of ``reference`` as if the program had printed the last
    non-zero decimal cell of every run's first data row times ``factor``."""
    bad = copy.deepcopy(reference)
    for entry in bad["runs"].values():
        rows = list(csv.reader(io.StringIO(entry["csv"])))
        for j in reversed(range(len(rows[1]))):
            try:
                value = float(rows[1][j])
            except ValueError:
                continue
            if value != 0.0 and "." in rows[1][j]:
                rows[1][j] = repr(value * factor)
                break
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        entry["csv"] = buf.getvalue()
        entry["sha256"] = hashlib.sha256(entry["csv"].encode()).hexdigest()
    return bad


def check_workload(check: Checks, spec: dict, workload: run.Workload) -> None:
    name = workload.name
    reference = run.record_reference(workload, workload.tiny, seeds=(0, 1))
    check(all(r["exit"] == 0 for r in reference["runs"].values()), f"{name}: tiny runs exit 0")

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.benchmark(workload, workload.tiny, reference, seed=5, seconds=0.5, trace=trace)
        check(result.correct and result.failed == 0,
              f"{name} trace={int(trace)}: {result.attempted} runs pass the reference check "
              f"{result.problems[:2]}")
        printed = json.loads(result.line())
        check(set(printed) == {"correct", "attempted", "failed", "metrics"},
              f"{name} trace={int(trace)}: result line has exactly the four result keys")
        units = {m: v["unit"] for m, v in printed["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        check(units == wanted,
              f"{name} trace={int(trace)}: prints every {key} metric with its unit")
        text = "\n".join(run.summary(result))
        check(all(f"{m} = " in text and f" {u}" in text for m, u in wanted.items()),
              f"{name} trace={int(trace)}: summary names every metric and unit")
        if trace:
            metrics = {m: v["value"] for m, v in printed["metrics"].items()}
            unattributed = metrics["trace.unattributed_s"]
            overhead = max(metrics["trace.overhead_s"], 0.0)
            check(-SELF_TIME_SLACK_S <= unattributed <= overhead + SELF_TIME_SLACK_S,
                  f"{name}: traced wall - setup - layer self = {unattributed:.4f} s, "
                  f"overhead {metrics['trace.overhead_s']:.4f} s")

    bad = run.benchmark(workload, workload.tiny, corrupt(reference, 1 + 1e-6), seed=5,
                        seconds=0.2, trace=False)
    check(bad.failed == bad.attempted and bad.failed > 0,
          f"{name}: corrupted reference fails {bad.failed} of {bad.attempted} runs")
    near = run.benchmark(workload, workload.tiny, corrupt(reference, 1 + 1e-13), seed=5,
                         seconds=0.2, trace=False)
    check(near.failed == 0 and near.byte_mismatch == near.attempted,
          f"{name}: in-tolerance change passes and counts {near.byte_mismatch} byte mismatches")


def check_restore(check: Checks) -> None:
    sys.path.insert(0, str(run.SRC))
    import sagm
    from sagm import cli

    owners = [getattr(sagm, layer) for layer in tracer.LAYERS] + [cli, sagm.freeprobe.FreeFamily]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    t.install()
    patched = sum(vars(o)[k] is not v for o, b in zip(owners, before) for k, v in b.items())
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["counterexample", "--dim", "8", "--seeds", "1"])
    t.uninstall()
    same = all(vars(o).get(k) is v for o, b in zip(owners, before) for k, v in b.items())
    check(patched > 0 and code == 0 and len(t.starts) > 0,
          f"tracer patched {patched} names and recorded {len(t.starts)} spans")
    check(same, "tracer restored every patched name")


def check_without_sources(check: Checks) -> None:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(tmp) / run.BENCH.name / "run.py"), "--workload",
             "igm_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=120)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    check = Checks()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    run.environment()
    for workload in run.WORKLOADS.values():
        check_workload(check, spec, workload)
    check_restore(check)
    check_without_sources(check)
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    print(f"{len(check.failures)} failed checks")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
