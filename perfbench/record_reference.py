"""Record the stored references that perfbench/run.py checks results against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every CLI seed of each named workload (default: all) once at full size
and writes perfbench/reference/<workload>.json.gz together with the
environment it was recorded in.  Re-record only when a change to the CLI's
output is intended, and say why in the change that does it.
"""

import gzip
import json
import sys

import run


def main(names) -> int:
    env = run.environment()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        ref = run.record_reference(workload, workload.full)
        bad = {s: r["exit"] for s, r in ref["runs"].items() if r["exit"] != 0}
        if bad:
            print(f"{name}: non-zero exit codes {bad}", file=sys.stderr)
            return 1
        ref["env"] = env
        with gzip.GzipFile(run.reference_path(name), "wb", mtime=0) as fh:
            fh.write(json.dumps(ref, indent=1, sort_keys=True).encode())
        print(f"{name}: recorded {len(ref['runs'])} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
