"""Command-line driver: every experiment as a seeded, reproducible subcommand.

Exit codes: 0 = all assertions passed, 1 = an assertion failed (a bound was
violated), 2 = usage error (bad parameters, including ones that need more
memory than can be allocated, or a file that cannot be read or written),
3 = an internal self-check failed (an AssertionError or RuntimeError: the
Haar trace-rejection cap, the free family's validation, or igm's spot
check of the derived trial streams against numpy's SeedSequence), so no
result can be trusted.  Once the arguments parse (argparse reports its own
errors with a usage line), every exit 2 or 3 prints exactly one
``sagm <subcommand>: ...`` line on stderr and no traceback: parameters are
validated by the library calls that use them, and ``main`` turns their
ValueError or MemoryError into that line.  Identical (subcommand,
parameters, seed) always produce byte-identical output files; seeds default
to a fixed constant.

Each ``cmd_*`` only computes: it returns ``(columns, rows, passed, seed)``,
``seed`` being the seed the rows were drawn from, and does no I/O and no
timing.  ``main`` is the one place that writes the output, writes the
manifest (once per run with ``--out``) and picks the exit status.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__, freeprobe, igm, symsum

DEFAULT_SEED = 12345

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
        "duration_seconds": time.time() - started,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, default=str)


_BOUND_FIELDS = ["family", "side", "n", "m", "d", "sup_gram_norm", "lhs", "rhs", "epsilon", "passed"]

# Per sweep subcommand: the checks it runs on each family, each looked up as
# symsum.check_<name> when it runs, and the columns it writes.
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
    rng = np.random.default_rng(args.seed)
    rows = []
    all_passed = True
    for fid in range(args.families):
        n = int(rng.integers(2, args.n_max + 1))
        m = int(rng.integers(1, args.m_max + 1))
        d = int(rng.integers(1, min(n, args.d_max) + 1))
        for side in ("left", "right"):
            ops = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
            fam = symsum.normalize_family(ops, side=side)
            for check in checks:
                rep = getattr(symsum, "check_" + check)(fam, d)
                all_passed &= rep.passed
                rows.append({"family": fid, "side": side, "check": check, "n": n, "m": m,
                             "sup_gram_norm": fam.sup_gram_norm, **vars(rep)})
    return fields, rows, all_passed, args.seed


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
    rows = []
    ok = True
    for s in range(args.seeds):
        rng = np.random.default_rng([args.seed, s])
        fam = freeprobe.make_free_family(args.dim, args.n, args.t, rng)
        residual = freeprobe.difference_identity_residual(fam)
        lam = freeprobe.order_violation(fam)
        gap = freeprobe.trace_gap(fam)
        # the identity is exact algebra, so the residual is rounding alone
        ok &= residual <= 1e-9
        rows.append(
            {
                "seed": s,
                "identity_residual": residual,
                "lambda_min": lam,
                "trace_gap": gap,
            }
        )
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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        columns, rows, passed, seed = args.func(args)
        _write_rows(args.out, columns, rows, args.format)
        if args.out is not None:
            _write_manifest(args, seed, started)
    except (OSError, ValueError) as exc:
        print(f"sagm {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"sagm {args.subcommand}: out of memory: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"sagm {args.subcommand}: internal self-check failed: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
