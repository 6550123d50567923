"""Command-line driver: every experiment as a seeded, reproducible subcommand.

Exit codes: 0 = all assertions passed, 1 = an assertion failed (a bound was
violated), 2 = usage error (bad parameters, or a file that cannot be read or
written), 3 = an internal self-check failed (an AssertionError or
RuntimeError: the Haar trace-rejection cap or the free family's
validation), so no result can be trusted.  Once the arguments
parse (argparse reports its own errors with a usage line), every exit 2 or 3
prints exactly one ``sagm <subcommand>: ...`` line on stderr and no
traceback: parameters are validated by the library calls that use them, and
``main`` turns their ValueError into that line.  Identical (subcommand,
parameters, seed) always produce byte-identical output files; seeds default
to a fixed constant.

Each ``cmd_*`` only computes: it returns ``(columns, rows, passed)`` and
does no I/O and no timing.  ``main`` is the one place that writes the
output, writes the manifest (once per run with ``--out``) and picks the
exit status.
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

Result = Tuple[List[str], List[Dict], bool]


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


def _write_manifest(args: argparse.Namespace, started: float) -> None:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "seed": args.seed,
        "tool_version": __version__,
        "outputs": [args.out],
        "duration_seconds": time.time() - started,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, default=str)


def _random_family_params(rng: np.random.Generator, n_max: int, m_max: int, d_max: int):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    d = int(rng.integers(1, min(n, d_max) + 1))
    return n, m, d


def _random_normalized_family(rng: np.random.Generator, n: int, m: int, side: str):
    ops = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    return symsum.normalize_family(ops, side=side)


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
    rng = np.random.default_rng(args.seed)
    rows = []
    all_passed = True
    for fid in range(args.families):
        n, m, d = _random_family_params(rng, args.n_max, args.m_max, args.d_max)
        for side in ("left", "right"):
            fam = _random_normalized_family(rng, n, m, side)
            for check in checks:
                rep = getattr(symsum, "check_" + check)(fam, d)
                all_passed &= rep.passed
                rows.append(
                    {
                        "family": fid,
                        "side": side,
                        "check": check,
                        "n": n,
                        "m": m,
                        "d": d,
                        "sup_gram_norm": fam.sup_gram_norm,
                        "lhs": rep.lhs,
                        "rhs": rep.rhs,
                        "epsilon": rep.epsilon,
                        "passed": rep.passed,
                    }
                )
    return fields, rows, all_passed


_DEVIATION_FIELDS = ["d", "epsilon_hat", "epsilon_hat_stderr", "delta_wo", "delta_wo_stderr",
                     "ratio", "predicted_delta_scale", "predicted_ratio_scale"]


def cmd_deviation(args: argparse.Namespace) -> Result:
    if args.sampler == "exact":
        sampler = symsum.exact_isometry_sampler(args.m)
    else:
        sampler = symsum.perturbed_isometry_sampler(args.m, args.strength)
    d_list = [int(x) for x in args.d_list.split(",")]
    # checked up front so that a bad late entry fails before any trial runs
    if any(d > args.n // 4 for d in d_list):
        raise ValueError(f"every d must satisfy d <= n/4, got d-list {args.d_list} with n={args.n}")
    rows = []
    for d in d_list:
        rng = np.random.default_rng([args.seed, d])
        rep = symsum.deviation_experiment(sampler, args.n, d, args.p, args.trials, rng)
        rows.append({k: getattr(rep, k) for k in _DEVIATION_FIELDS})
    if len(d_list) > 1:
        pos = [(r["d"], r["delta_wo"]) for r in rows if r["delta_wo"] > 0]
        if len(pos) > 1:
            slope = np.polyfit(np.log([p[0] for p in pos]), np.log([p[1] for p in pos]), 1)[0]
            print(f"fitted delta_wo ~ d^{slope:.3f}", file=sys.stderr)
    return _DEVIATION_FIELDS, rows, True


def cmd_counterexample(args: argparse.Namespace) -> Result:
    rows = []
    ok = True
    for s in range(args.seeds):
        rng = np.random.default_rng([args.seed, s])
        fam = freeprobe.make_free_family(args.dim, args.n, args.t, rng)
        residual = freeprobe.difference_identity_residual(fam)
        lam = freeprobe.order_violation(fam)
        gap = freeprobe.trace_gap(fam)
        ok &= residual <= 1e-9
        rows.append(
            {
                "seed": s,
                "identity_residual": residual,
                "lambda_min": lam,
                "trace_gap": gap,
            }
        )
    return ["seed", "identity_residual", "lambda_min", "trace_gap"], rows, ok


def _family_from_generator(gen: Dict) -> igm.VectorFamily:
    kind = gen.get("kind")
    if kind == "group_orbit":
        rng = np.random.default_rng(gen.get("seed", DEFAULT_SEED))
        return igm.gen_group_orbit(gen["d"], gen.get("variant", "rank_one_frame"), rng)
    if kind in ("simplex", "cross_polytope", "icosahedron"):
        return igm.gen_spherical_design(kind, gen.get("m"))
    if kind == "explicit":
        return igm.VectorFamily.from_vectors(np.array(gen["vectors"], dtype=complex))
    raise ValueError(f"unknown generator kind {kind!r}")


def cmd_igm(args: argparse.Namespace) -> Result:
    with open(args.config) as fh:
        doc = json.load(fh)
    try:
        vecs = _family_from_generator(doc["generator"])
        cfg = igm.IgmConfig(
            gamma=doc["gamma"],
            rho=doc.get("rho", 0.0),
            k=doc["k"],
            policy=doc.get("policy", "without_replacement"),
            block_mult=doc.get("block_mult", 1),
            trials=doc.get("trials", 1),
            seed=doc.get("seed", DEFAULT_SEED),
            x_star=np.array(doc["x_star"], dtype=complex) if "x_star" in doc else None,
            x_0=np.array(doc["x_0"], dtype=complex) if "x_0" in doc else None,
        )
        cfg.validate(vecs.n)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}") from exc
    stats = igm.monte_carlo_mse(vecs, cfg)
    for note in stats.bound_note:
        print(f"igm: bound not applicable at {note}", file=sys.stderr)
    rows = []
    ok = True
    for i, k in enumerate(stats.ks):
        b = stats.bound[i]
        row = {
            "k": int(k),
            "policy": stats.policy,
            "mean_mse": float(stats.mean_mse[i]),
            "stderr": float(stats.stderr[i]),
            "bound": float(b) if np.isfinite(b) else "",
        }
        if np.isfinite(b):
            # tiny relative slack absorbs rounding at noiseless steps
            ok &= stats.mean_mse[i] <= b + 3.0 * stats.stderr[i] + 1e-12 * max(1.0, b)
        rows.append(row)
    return ["k", "policy", "mean_mse", "stderr", "bound"], rows, ok


def cmd_designs(args: argparse.Namespace) -> Result:
    if args.kind == "group_orbit":
        fam = igm.gen_group_orbit(args.m, rng=np.random.default_rng(args.seed))
    else:
        fam = igm.gen_spherical_design(args.kind, args.m)
    fields = ["n", "m", "sigma", "mu", "isotropy_residual", "isotropic"]
    row = {"kind": args.kind, **{k: getattr(fam, k) for k in fields}}
    return ["kind"] + fields, [row], fam.isotropy_residual <= 1e-10


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


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
    p.add_argument("--sampler", choices=("exact", "perturbed"), default="perturbed")
    p.add_argument("--strength", type=float, default=0.1)
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

    p = sub.add_parser("igm", help="incremental gradient Monte Carlo from a JSON config")
    p.add_argument("--config", required=True)
    _add_common(p)
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
        columns, rows, passed = args.func(args)
        _write_rows(args.out, columns, rows, args.format)
        if args.out is not None:
            _write_manifest(args, started)
    except (OSError, ValueError) as exc:
        print(f"sagm {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"sagm {args.subcommand}: internal self-check failed: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
