"""Command-line driver: every experiment as a seeded, reproducible subcommand.

Exit codes: 0 = all assertions passed, 1 = an assertion failed (a bound was
violated), 2 = usage error (bad parameters, including ones that need more
memory than can be allocated and ones that drive the numerics to an
overflow, an invalid operation or a division by zero, or to an inf or nan
in a row about to be written; or a file that cannot be read or written),
3 = an internal self-check failed (an AssertionError or RuntimeError: the
Haar trace-rejection cap, the free family's validation, igm's spot check
of the derived trial streams against numpy's SeedSequence
(``igm.check_trial_streams``), or a worker process that died or sent no
results), so no result can be trusted.  Once the arguments parse
(argparse reports its own errors with a usage line), every exit 2 or 3
prints exactly one ``sagm <subcommand>: ...`` line on stderr and no
traceback: parameters are validated by the library calls that use them
(``--seed`` by ``main``, and ``designs --m``, every kind's dimension, by
``cmd_designs`` as ``--m must be >= 2``) before any work: no fork, no
draw, and for igm no generator before the config's own fields pass.
``main`` turns their ValueError, MemoryError or ArithmeticError into that
line, also when a worker raised it.  An exit 2 or 3 leaves no result file
and no manifest: when the manifest cannot be written, ``main`` removes the
result file the run just wrote.  Identical (subcommand, parameters,
seed) produce byte-identical output files at the same BLAS thread count,
whatever the number of worker processes; another BLAS thread count may
change the last digits of a floating-point cell (counterexample --dim 256
--seeds 2 --seed 7 gives lambda_min -0.22496984762559971 with one OpenBLAS
thread, -0.22496984762560104 with two).  Seeds default to a fixed constant.

Each ``cmd_*`` only computes: it returns ``(table, passed, seed)``, where
``table`` maps each column name, in column order, to the list of its cells
(Python scalars) and ``seed`` is the seed the rows were drawn from, and does
no I/O and no timing.  ``main`` is the one place that writes the output,
writes the manifest (once per run with ``--out``) and picks the exit status.

A subcommand imports only the layers it runs: the bound sweeps and
``deviation`` run ``symsum`` (with ``linalg`` and ``partitions``) and
``workers``, which this module imports; ``counterexample`` adds
``freeprobe``, and ``igm`` and ``designs`` add ``igm`` (with ``seedseq``),
each imported inside the subcommand.  So a sweep neither compiles nor runs
the other layers.

``entry`` is the program (the ``sagm`` script and ``python -m sagm.cli``):
it calls ``gc.freeze()`` and then ``main``.  The objects of the imports
thus sit in the collector's permanent generation, which the collections of
forked workers do not touch, so their pages stay shared with the parent.
It then flushes stdout and stderr and ends the process with ``os._exit``,
skipping the interpreter's teardown, which has nothing left to release or
write (a 500-family sweep's exit took 1.8 ms instead of 9.5 ms, one BLAS
thread, 2-core x86 box); where a flush fails, it returns the exit code.
``main`` itself has no process-wide side effect, so that it can run
in-process, as the tests run it.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import functools
import gc
import io
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__, symsum, workers

DEFAULT_SEED = 12345

# A sweep's worker checks the family sides of its (n, m) keys in blocks
# whose operators take at most this many bytes at the grid's largest n and
# m, so that its memory does not grow with --families, and each stacked
# check of one (n, m, d) holds at most this many bytes of the superoperator
# walk, whose Kronecker and step stacks take 24 n m^4 bytes per family (4
# (8, 10, 4) sides in one walk traced 7.6 MiB).  A block holds 2048 family
# sides of the default grid, all of a 1024-family sweep; at --n-max 8
# --m-max 48 it holds 14, where each side's own checks outweigh the
# per-call costs that stacking saves.  Peak RSS, one BLAS thread, against
# one family at a time: 54 against 39 MiB on verify-bounds --families 2000
# --m-max 16 --d-max 6 (2.96 against 3.44 s), 48 against 38 MiB on sweep
# --families 300 --m-max 48 (0.89 against 0.94 s), and 2**24 took the
# first to 72 MiB.
SWEEP_BLOCK_BYTES = 2**22

Table = Dict[str, list]
Result = Tuple[Table, bool, int]


def _csv_cells(column: list) -> List[str]:
    """The CSV text of a column's cells: a float to 17 significant digits,
    anything else by ``str``."""
    return [format(v, ".17g") if isinstance(v, float) else str(v) for v in column]


def _write_table(path: Optional[str], table: Table, fmt: str) -> None:
    """Write ``table`` as CSV or JSON.  First every cell that is not a string
    or an integer must be finite: the first that is not, row by row, raises
    ValueError naming its column and row, before anything is written.  The
    igm ``bound`` cell left empty where the bound does not apply is a
    string."""
    names = list(table)
    rows = list(zip(*table.values()))
    for i, row in enumerate(rows):
        for name, value in zip(names, row):
            if not (isinstance(value, (str, int)) or math.isfinite(value)):
                raise ValueError(f"column {name!r} of output row {i} (from 0) is {value}")
    if fmt == "json":
        text = json.dumps([dict(zip(names, row)) for row in rows], indent=1, allow_nan=False)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*map(_csv_cells, table.values())))
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

    # The workers split the grid's (n, m) keys, since a sweep's cost is per
    # stack of one shape, not per family.  A key's place is its index in (m,
    # n) order, and its position deals the places round-robin over the
    # shares: place p goes after every place of a lower p % shares, so that
    # each share mixes small and large keys at any worker count.
    width = args.n_max - 1
    keys, count = range(width * args.m_max), workers.blas_workers()
    shares = min(count, len(keys))

    def position(n: int, m: int) -> int:
        place = (m - 1) * width + n - 2
        deal = place % shares
        return deal * (len(keys) // shares) + min(deal, len(keys) % shares) + place // shares

    # a worker checks its own sides in blocks, which hold at most
    # SWEEP_BLOCK_BYTES of operators at the grid's largest n and m
    block = max(1, SWEEP_BLOCK_BYTES // (16 * args.n_max * args.m_max**2))

    def check_keys(share: range) -> list:
        # [(blocks, failure)]: the columns of the blocks of the share's
        # family sides, in draw order, or the share's first failure as
        # (family, exception).  It replays the seed's stream, drawing in
        # full the families of its keys; the bound checks take
        # left-normalizable operators, so a right side, the right-handed
        # reading (1/n) sum B_j B_j* = I, is its adjoint family
        drawn = _draw_families(np.random.default_rng(args.seed), args,
                               lambda n, m: position(n, m) in share)
        sides = (_Side(fid, side, n, m, d,
                       ops if side == "left" else ops.conj().transpose(0, 2, 1))
                 for fid, n, m, d, family in drawn for side, ops in family)
        blocks: List[Dict[str, np.ndarray]] = []
        while part := list(itertools.islice(sides, block)):
            try:
                blocks.append(_check_sides(checks, part))
            except Exception as exc:
                # a side of a block gets the bits it gets alone, so the first
                # side that fails alone is the share's first failure
                for side in part:
                    try:
                        _check_sides(checks, [side])
                    except Exception as alone:
                        return [([], (side.family, alone))]
                return [([], (part[0].family, exc))]
        return [(blocks, None)]

    results = workers.fork_map(check_keys, keys, count)
    # the error is the one a loop over the families meets first, whichever
    # worker owns that family, so the parent waits for every share first
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    # a family's rows come from one worker, in order, so a stable sort by
    # family puts the rows back in draw order
    columns = {key: np.concatenate([cells[key] for blocks, _ in results for cells in blocks])
               for key in fields}
    order = np.argsort(columns["family"], kind="stable")
    table = {name: columns[name][order].tolist() for name in fields}
    return table, all(table["passed"]), args.seed


class _Side(NamedTuple):
    """One side of a drawn family, as the left-normalizable operators ``ops``."""

    family: int
    side: str
    n: int
    m: int
    d: int
    ops: np.ndarray


def _check_sides(checks: Tuple[str, ...], sides: List[_Side]) -> Dict[str, np.ndarray]:
    """Every column of the rows of ``sides``, as arrays: one row per side and
    check, in their order.  The sides of one (n, m) are normalized as one
    stack, ordered by d, and each degree's sides are checked by
    ``symsum.check_bounds`` on sub-stacks of it, one where the walk's bytes
    allow."""
    shape = (len(sides), len(checks))
    cells = {key: np.empty(shape, bool if key == "passed" else float)
             for key in ("sup_gram_norm", "lhs", "rhs", "epsilon", "passed")}
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, side in enumerate(sides):
        groups.setdefault((side.n, side.m), []).append(i)
    for (n, m), members in groups.items():
        members.sort(key=lambda i: sides[i].d)
        fam = symsum.normalize_family(np.stack([sides[i].ops for i in members]))
        cells["sup_gram_norm"][members] = fam.sup_gram_norm[:, None]
        degrees = [sides[i].d for i in members]
        # sides per check: at most SWEEP_BLOCK_BYTES of the walk's stacks
        walk = max(1, SWEEP_BLOCK_BYTES // (24 * n * m**4))
        lo = 0
        while lo < len(members):
            d = degrees[lo]
            hi = min(bisect.bisect_right(degrees, d), lo + walk)
            reports = symsum.check_bounds(fam.families(slice(lo, hi)), d)
            for c, check in enumerate(checks):
                for key in ("lhs", "rhs", "epsilon", "passed"):
                    cells[key][members[lo:hi], c] = getattr(reports[check], key)
            lo = hi
    table = {key: values.ravel() for key, values in cells.items()}
    for key in ("family", "n", "m", "d"):
        table[key] = np.repeat([getattr(side, key) for side in sides], len(checks))
    # object arrays keep one str object per distinct name in the output
    table["side"] = np.repeat(np.array([side.side for side in sides], object), len(checks))
    table["check"] = np.tile(np.array(checks, object), len(sides))
    return table


def _draw_families(rng: np.random.Generator, args: argparse.Namespace,
                   owns: Callable[[int, int], bool]):
    """The sweep's families whose (n, m) ``owns`` accepts, in the order they
    are drawn from ``rng``: (index, n, m, d, ((side, operators), ...)).  The
    operators of any other family are drawn into one scratch buffer, which
    advances ``rng`` as their own draws would."""
    scratch = np.empty(0)
    for fid in range(args.families):
        n = int(rng.integers(2, args.n_max + 1))
        m = int(rng.integers(1, args.m_max + 1))
        d = int(rng.integers(1, min(n, args.d_max) + 1))
        if owns(n, m):
            yield fid, n, m, d, tuple(
                (side, rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)))
                for side in ("left", "right"))
        else:
            if scratch.size < 4 * n * m * m:
                scratch = np.empty(4 * n * m * m)
            rng.standard_normal(out=scratch[:4 * n * m * m])


_DEVIATION_FIELDS = ["d", "epsilon_hat", "epsilon_hat_stderr", "delta_wo", "delta_wo_stderr",
                     "ratio", "predicted_delta_scale", "predicted_ratio_scale"]


def cmd_deviation(args: argparse.Namespace) -> Result:
    try:
        d_list = [int(x) for x in args.d_list.split(",")]
    except ValueError:
        raise ValueError(f"--d-list must be comma-separated integers, got {args.d_list!r}") from None
    reports = symsum.deviation_experiment(args.n, args.m, args.strength, d_list, args.p,
                                           args.trials, args.seed)
    table = {k: [getattr(rep, k) for rep in reports] for k in _DEVIATION_FIELDS}
    if len(d_list) > 1:
        pos = [(d, delta) for d, delta in zip(table["d"], table["delta_wo"]) if delta > 0]
        if len(pos) > 1:
            slope = np.polyfit(np.log([p[0] for p in pos]), np.log([p[1] for p in pos]), 1)[0]
            print(f"fitted delta_wo ~ d^{slope:.3f}", file=sys.stderr)
    return table, True, args.seed


def cmd_counterexample(args: argparse.Namespace) -> Result:
    if args.seeds < 1:  # an empty run would read as a pass
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    from . import freeprobe

    # every parameter is checked here, before any worker starts
    freeprobe.check_parameters(args.dim, args.n, args.t)
    measure = functools.partial(freeprobe.measure_seeds, args.dim, args.n, args.t, args.seed)
    measured = workers.fork_map(measure, range(args.seeds), workers.blas_workers())
    table = {"seed": list(range(args.seeds))}
    for key in ("identity_residual", "lambda_min", "trace_gap"):
        table[key] = [row[key] for row in measured]
    # the identity is exact algebra, so the residual is rounding alone
    ok = all(r <= 1e-9 for r in table["identity_residual"])
    return table, ok, args.seed


def _family_from_generator(gen: Dict):
    """The generator block's ``igm.VectorFamily``.  Each kind's keys are its
    generator's parameters, so an unknown key raises a TypeError that names
    it."""
    from . import igm

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
    from . import igm

    with open(args.config) as fh:
        doc = json.load(fh)
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        gen = doc.pop("generator")
        # the fields that need no family are checked before the generator,
        # which may take seconds or all memory to build a large family
        cfg = igm.IgmConfig(**{"seed": DEFAULT_SEED, **doc})
        cfg.check_fields()
        vecs = _family_from_generator(gen)
        cfg.validate(vecs.n)
        cfg.resolve_points(vecs.m)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}") from exc
    # an explicit family's vectors come from outside the program, so its
    # isotropy, which the bound assumes, is checked; every generator
    # builds an isotropic family
    stats = igm.monte_carlo_mse(vecs, cfg, check_isotropy=gen["kind"] == "explicit")
    for note in stats.bound_note:
        print(f"igm: bound not applicable at {note}", file=sys.stderr)
    finite = np.isfinite(stats.bound)
    bound = stats.bound[finite]
    # tiny relative slack absorbs rounding at noiseless steps
    ok = bool(np.all(stats.mean_mse[finite]
                     <= bound + 3.0 * stats.stderr[finite] + 1e-12 * np.maximum(1.0, bound)))
    steps = len(stats.bound)
    table = {"k": list(range(steps)), "policy": [cfg.policy] * steps,
             "mean_mse": stats.mean_mse.tolist(), "stderr": stats.stderr.tolist(),
             "bound": [b if f else "" for b, f in zip(stats.bound.tolist(), finite.tolist())]}
    return table, ok, cfg.seed


def cmd_designs(args: argparse.Namespace) -> Result:
    if args.m < 2:  # every kind's dimension
        raise ValueError(f"--m must be >= 2, got {args.m}")
    gen = ({"kind": "group_orbit", "d": args.m, "seed": args.seed} if args.kind == "group_orbit"
           else {"kind": args.kind, "m": args.m})
    fam = _family_from_generator(gen)
    fields = ["n", "m", "sigma", "mu", "isotropy_residual", "isotropic"]
    table = {"kind": [args.kind], **{k: [getattr(fam, k)] for k in fields}}
    return table, fam.isotropic, args.seed


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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # numpy rejects a negative seed only where a generator is seeded,
        # which for counterexample is inside its workers, with no flag named
        if vars(args).get("seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # an overflow, an invalid operation or a division by zero stops the
        # run instead of writing inf or nan into its rows
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            table, passed, seed = args.func(args)
        _write_table(args.out, table, args.format)
        if args.out is not None:
            try:
                _write_manifest(args, seed, started)
            except OSError:
                os.remove(args.out)  # an exit 2 leaves no result file
                raise
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


def entry() -> int:
    """The program: ``main`` on the command line, after ``gc.freeze()``, and
    then the exit with its code, without interpreter teardown once stdout
    and stderr are flushed (see the module docstring)."""
    gc.freeze()
    code = main()
    with contextlib.suppress(OSError, ValueError):  # a failed flush returns the code
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(entry())
