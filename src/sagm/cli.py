"""Command-line driver: every experiment as a seeded, reproducible subcommand.

Exit codes: 0 = all assertions passed, 1 = an assertion failed (a bound was
violated), 2 = usage error (bad parameters, including ones that need more
memory than can be allocated and ones that drive the numerics to an
overflow, an invalid operation or a division by zero, or to an inf or nan
in a row about to be written; or a file that cannot be read or written),
3 = an internal self-check failed (an AssertionError or RuntimeError: the
Haar trace-rejection cap, the free family's validation, igm's spot check
of the derived trial streams against numpy's SeedSequence, or a worker
process that died or sent no results), so no result can be
trusted.  Once the arguments parse (argparse reports its own errors with a
usage line), every exit 2 or 3 prints exactly one ``sagm <subcommand>:
...`` line on stderr and no traceback: parameters are validated by the
library calls that use them, before any worker process starts, and
``main`` turns their ValueError, MemoryError or ArithmeticError into that
line, also when a worker raised it.  Identical (subcommand, parameters,
seed) produce byte-identical output files at the same BLAS thread count,
whatever the number of worker processes; another BLAS thread count may
change the last digits of a floating-point cell (counterexample --dim 256
--seeds 2 --seed 7 gives lambda_min -0.22496984762559971 with one OpenBLAS
thread, -0.22496984762560104 with two).  Seeds default to a fixed constant.

Each ``cmd_*`` only computes: it returns ``(columns, rows, passed, seed)``,
``seed`` being the seed the rows were drawn from, and does no I/O and no
timing.  ``main`` is the one place that writes the output, writes the
manifest (once per run with ``--out``) and picks the exit status.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__, freeprobe, igm, symsum, workers

DEFAULT_SEED = 12345

# counterexample runs its seeds in forked workers (workers.blas_workers of
# them) once seeds * dim**3 reaches this.  In-process time of cli.main,
# medians of 11 fresh CLI processes per point, one BLAS thread, 2-core x86
# box, serial against two workers, at dim x seeds: 64 x 2 / 8 / 16 / 32
# 28 / 85 / 147 / 281 ms against 43 / 79 / 93 / 175 ms; 32 x 64 161 against
# 107; 96 x 4 103 against 71; 128 x 2 / 4 / 6 106 / 201 / 257 against
# 78 / 131 / 176; 192 x 2 276 against 169.  At 128**3 * 2 and above the
# pool won at every measured point (in 10 or 11 of 11 runs); below it, 64 x 8
# tied and 64 x 2 lost.
POOL_MIN_WORK = 2 * 128**3

# The bound sweeps check their families in forked workers
# (workers.blas_workers of them) from this many families on.  The per-family
# work grows with the grid, so the break-even was measured on the cheapest
# grid (--n-max 2 --m-max 1 --d-max 1) and on the default one.  In-process
# time of cli.main, medians of 11 fresh CLI processes per point, one BLAS
# thread, 2-core x86 box, serial against two workers, at 50 / 100 / 150 /
# 200 families: cheapest 32 / 52 / 69 / 103 ms against 36 / 71 / 66 / 88 ms;
# default 46 / 72 / 107 / 149 against 67 / 70 / 89 / 125 (200 from 21
# runs).  With BLAS threads unset, two workers took 1.1 to 2.3 s (3 runs) on
# a --families 100 --m-max 48 sweep that one process does in 0.4 to 0.55 s,
# which is why the BLAS thread count limits the workers.
SWEEP_POOL_MIN_FAMILIES = 150

Result = Tuple[List[str], List[Dict], bool, int]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(path: Optional[str], fieldnames: List[str], rows: List[Dict], fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(
            [{k: r.get(k) for k in fieldnames} for r in rows],
            indent=1,
            default=lambda o: o.item() if isinstance(o, np.generic) else str(o),
        )
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for r in rows:
            writer.writerow([_fmt(r.get(k, "")) for k in fieldnames])
        text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_manifest(args: argparse.Namespace, seed: int, started: float) -> None:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "seed": seed,
        "tool_version": __version__,
        "outputs": [args.out],
        "duration_seconds": time.perf_counter() - started,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, default=str)


_BOUND_FIELDS = ["family", "side", "n", "m", "d", "sup_gram_norm", "lhs", "rhs", "epsilon", "passed"]

# Per sweep subcommand: the checks it reports on each family, keys of
# symsum.check_bounds' result, and the columns it writes.
_SWEEPS = {
    "verify-bounds": (("theorem_bound",), _BOUND_FIELDS),
    "sandwich": (("sandwich",), _BOUND_FIELDS),
    "sweep": (("theorem_bound", "sandwich"),
              ["family", "side", "check", "n", "m", "d", "lhs", "rhs", "epsilon", "passed"]),
}


def cmd_sweep(args: argparse.Namespace) -> Result:
    checks, fields = _SWEEPS[args.subcommand]
    # an empty run would read as a pass, and the grid the families are drawn
    # from must be non-empty
    for flag, value, low in (("--families", args.families, 1), ("--n-max", args.n_max, 2),
                             ("--m-max", args.m_max, 1), ("--d-max", args.d_max, 1)):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    # d is drawn from [1, min(n, --d-max)], so a degree above MAX_DEGREE must
    # fail here for every seed, not at whichever family first draws it
    if min(args.d_max, args.n_max) > symsum.MAX_DEGREE:
        raise ValueError(f"--d-max must be <= {symsum.MAX_DEGREE} unless --n-max is, "
                         f"got --d-max {args.d_max} with --n-max {args.n_max}")
    processes = (1 if args.families < SWEEP_POOL_MIN_FAMILIES
                 else workers.blas_workers(args.families))
    # each process replays the seed's whole stream and checks its own
    # families, so the rows are those of one loop, whatever the processes
    families = _draw_families(np.random.default_rng(args.seed), args)

    def check_family(fid: int) -> List[Dict]:
        for drawn, n, m, d, sides in families:
            if drawn == fid:
                break
        rows = []
        for side, ops in sides:
            fam = symsum.normalize_family(ops, side=side)
            reports = symsum.check_bounds(fam, d)
            rows += [{"family": fid, "side": side, "check": check, "n": n, "m": m,
                      "sup_gram_norm": fam.sup_gram_norm, **vars(reports[check])}
                     for check in checks]
        return rows

    rows = list(itertools.chain.from_iterable(
        workers.fork_map(check_family, range(args.families), processes)))
    return fields, rows, all(row["passed"] for row in rows), args.seed


def _draw_families(rng: np.random.Generator, args: argparse.Namespace):
    """The sweep's families in the order they are drawn from ``rng``:
    (index, n, m, d, ((side, operators), ...))."""
    for fid in range(args.families):
        n = int(rng.integers(2, args.n_max + 1))
        m = int(rng.integers(1, args.m_max + 1))
        d = int(rng.integers(1, min(n, args.d_max) + 1))
        yield fid, n, m, d, tuple(
            (side, rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)))
            for side in ("left", "right"))


_DEVIATION_FIELDS = ["d", "epsilon_hat", "epsilon_hat_stderr", "delta_wo", "delta_wo_stderr",
                     "ratio", "predicted_delta_scale", "predicted_ratio_scale"]


def cmd_deviation(args: argparse.Namespace) -> Result:
    sampler = symsum.perturbed_isometry_sampler(args.m, args.strength)
    d_list = [int(x) for x in args.d_list.split(",")]
    reports = symsum.deviation_experiment(sampler, args.n, d_list, args.p, args.trials, args.seed)
    rows = [{k: getattr(rep, k) for k in _DEVIATION_FIELDS} for rep in reports]
    if len(d_list) > 1:
        pos = [(r["d"], r["delta_wo"]) for r in rows if r["delta_wo"] > 0]
        if len(pos) > 1:
            slope = np.polyfit(np.log([p[0] for p in pos]), np.log([p[1] for p in pos]), 1)[0]
            print(f"fitted delta_wo ~ d^{slope:.3f}", file=sys.stderr)
    return _DEVIATION_FIELDS, rows, True, args.seed


def cmd_counterexample(args: argparse.Namespace) -> Result:
    if args.seeds < 1:  # an empty run would read as a pass
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    # every parameter is checked here, before any worker starts
    freeprobe.check_parameters(args.dim, args.n, args.t)
    processes = 1 if args.seeds * args.dim**3 < POOL_MIN_WORK else workers.blas_workers(args.seeds)
    # one run of consecutive seeds per process, so the first seed that fails
    # is the one that fails first in a serial run
    runs = [range(args.seeds * i // processes, args.seeds * (i + 1) // processes)
            for i in range(processes)]
    measure = functools.partial(freeprobe.measure_seeds, args.dim, args.n, args.t, args.seed)
    measured = itertools.chain.from_iterable(workers.fork_map(measure, runs, processes))
    rows = [{"seed": s, **row} for s, row in enumerate(measured)]
    # the identity is exact algebra, so the residual is rounding alone
    ok = all(row["identity_residual"] <= 1e-9 for row in rows)
    return ["seed", "identity_residual", "lambda_min", "trace_gap"], rows, ok, args.seed


def _family_from_generator(gen: Dict) -> igm.VectorFamily:
    """The generator block's family.  Each kind's keys are its generator's
    parameters, so an unknown key raises a TypeError that names it."""
    if not isinstance(gen, dict):
        raise TypeError(f"generator must be a JSON object, got {type(gen).__name__}")
    params = dict(gen)
    kind = params.pop("kind", None)
    if kind == "group_orbit":
        seed = params.pop("seed", DEFAULT_SEED)
        if not (igm._is_int(seed) and seed >= 0):  # None would draw OS entropy
            raise ValueError(f"generator seed must be a non-negative integer, got {seed!r}")
        return igm.gen_group_orbit(**params, rng=np.random.default_rng(seed))
    if kind in ("simplex", "cross_polytope", "icosahedron"):
        return igm.gen_spherical_design(kind, **params)
    if kind == "explicit":
        return igm.VectorFamily.from_vectors(**params)
    raise ValueError(f"unknown generator kind {kind!r}")


def cmd_igm(args: argparse.Namespace) -> Result:
    with open(args.config) as fh:
        doc = json.load(fh)
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        vecs = _family_from_generator(doc.pop("generator"))
        cfg = igm.IgmConfig(**{"seed": DEFAULT_SEED, **doc})
        cfg.validate(vecs.n)
        cfg.resolve_points(vecs.m)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}") from exc
    stats = igm.monte_carlo_mse(vecs, cfg)
    for note in stats.bound_note:
        print(f"igm: bound not applicable at {note}", file=sys.stderr)
    rows = []
    ok = True
    for k, b in enumerate(stats.bound):
        row = {
            "k": k,
            "policy": cfg.policy,
            "mean_mse": float(stats.mean_mse[k]),
            "stderr": float(stats.stderr[k]),
            "bound": float(b) if np.isfinite(b) else "",
        }
        if np.isfinite(b):
            # tiny relative slack absorbs rounding at noiseless steps
            ok &= stats.mean_mse[k] <= b + 3.0 * stats.stderr[k] + 1e-12 * max(1.0, b)
        rows.append(row)
    return ["k", "policy", "mean_mse", "stderr", "bound"], rows, ok, cfg.seed


def cmd_designs(args: argparse.Namespace) -> Result:
    if args.kind == "group_orbit":
        fam = igm.gen_group_orbit(args.m, rng=np.random.default_rng(args.seed))
    else:
        fam = igm.gen_spherical_design(args.kind, args.m)
    fields = ["n", "m", "sigma", "mu", "isotropy_residual", "isotropic"]
    row = {"kind": args.kind, **{k: getattr(fam, k) for k in fields}}
    return ["kind"] + fields, [row], fam.isotropic, args.seed


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sagm", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, help_text in (
        ("verify-bounds", "norm-bound suite on random normalized families"),
        ("sandwich", "two-sided order-check suite"),
        ("sweep", "both checks over one random-family grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--families", type=int, default=100)
        p.add_argument("--n-max", type=int, default=8)
        p.add_argument("--m-max", type=int, default=4)
        p.add_argument("--d-max", type=int, default=4)
        _add_common(p)
        p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("deviation", help="random-family deviation scaling experiment")
    # one sampler: --strength 0 draws exact isometries.  The flag keeps its
    # one value so that recorded command lines (perfbench/run.py) still run.
    p.add_argument("--sampler", choices=("perturbed",), default="perturbed")
    p.add_argument("--strength", type=float, default=0.1,
                   help="perturbation strength; 0 gives exact Haar isometries")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--d-list", default="2,3,4,5")
    p.add_argument("--p", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--trials", type=int, default=500)
    _add_common(p)
    p.set_defaults(func=cmd_deviation)

    p = sub.add_parser("counterexample", help="order-violation surrogate runs")
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--t", type=float, default=1.2)
    p.add_argument("--seeds", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_counterexample)

    # the config holds the seeds, so igm takes no --seed
    p = sub.add_parser("igm", help="incremental gradient Monte Carlo from a JSON config")
    p.add_argument("--config", required=True)
    _add_output(p)
    p.set_defaults(func=cmd_igm)

    p = sub.add_parser("designs", help="emit a generator family and its certificate")
    p.add_argument("--kind", choices=("simplex", "cross_polytope", "icosahedron", "group_orbit"),
                   required=True)
    p.add_argument("--m", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_designs)

    return parser


def _check_finite(columns: List[str], rows: List[Dict]) -> None:
    """Raise ValueError naming the first float cell that is inf or nan; the
    igm ``bound`` cell left empty where the bound does not apply is a string."""
    for i, row in enumerate(rows):
        for col in columns:
            value = row.get(col)
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise ValueError(f"column {col!r} of output row {i} (from 0) is {value}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # an overflow, an invalid operation or a division by zero stops the
        # run instead of writing inf or nan into its rows
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            columns, rows, passed, seed = args.func(args)
        _check_finite(columns, rows)
        _write_rows(args.out, columns, rows, args.format)
        if args.out is not None:
            _write_manifest(args, seed, started)
    except (OSError, ValueError) as exc:
        print(f"sagm {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"sagm {args.subcommand}: out of memory: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # numpy's FloatingPointError under the errstate above, or Python's
        # own OverflowError or ZeroDivisionError on plain floats
        print(f"sagm {args.subcommand}: floating-point error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"sagm {args.subcommand}: internal self-check failed: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
