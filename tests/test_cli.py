"""CLI contract tests: exit codes, output formats, manifests, determinism."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sagm
from sagm import cli, freeprobe, igm, seedseq, symsum, workers

import oracles


def run(argv):
    return cli.main(argv)


def assert_one_line_exit(capsys, argv, subcommand, code, prefix=""):
    """``argv`` exits ``code`` (2 or 3) with exactly one ``sagm <subcommand>:
    <prefix>`` line on stderr, no traceback and no warning, and leaves no
    result file or manifest at its ``--out``; returns the line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == code
    err = capsys.readouterr().err
    assert caught == [] and "Warning" not in err and "Traceback" not in err
    assert err.startswith(f"sagm {subcommand}: {prefix}") and len(err.splitlines()) == 1
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        assert not os.path.isfile(out) and not os.path.isfile(out + ".manifest.json")
    return err


def assert_no_child_process():
    """Every process that this one started has exited and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pool_config(tmp_path, **doc):
    """An igm config with three blocks of trials, which run in forked workers
    on as many CPUs as ``workers.pool_cpus`` reports."""
    return write_config(tmp_path, {"generator": {"kind": "simplex", "m": 3}, "rho": 0.1, "k": 3,
                                   "trials": 3072, **doc})


def force_blas_workers(monkeypatch, count):
    """Make counterexample, the bound sweeps and deviation run their items in
    min(count, items) forked workers, as they do with one BLAS thread on
    ``count`` CPUs, and igm its trial blocks."""
    monkeypatch.setattr("sagm.workers.pool_cpus", lambda: count)
    monkeypatch.setattr("sagm.workers.blas_threads", lambda: 1)


def record_worker_counts(monkeypatch):
    """Record the worker count of every ``fork_map`` call; returns the record."""
    counts = []
    original = workers.fork_map

    def recorded(run, items, count):
        counts.append(count)
        return original(run, items, count)

    monkeypatch.setattr(workers, "fork_map", recorded)
    return counts


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_bounds_small_sweep_passes(tmp_path):
    out = tmp_path / "r.csv"
    code = run(["verify-bounds", "--families", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,side,")
    assert len(lines) == 1 + 5 * 2  # header + both sides per family


def test_sandwich_and_sweep(tmp_path):
    assert run(["sandwich", "--families", "3", "--out", str(tmp_path / "s.csv")]) == 0
    assert run(["sweep", "--families", "3", "--out", str(tmp_path / "w.csv")]) == 0


def test_sweep_rows_match_single_check_rows(tmp_path):
    grid = ["--families", "12", "--n-max", "6", "--m-max", "3", "--d-max", "4", "--seed", "5"]
    for sub in ("verify-bounds", "sandwich", "sweep"):
        assert run([sub] + grid + ["--out", str(tmp_path / f"{sub}.csv")]) == 0
    sweep = read_csv_rows(tmp_path / "sweep.csv")
    for sub, check in (("verify-bounds", "theorem_bound"), ("sandwich", "sandwich")):
        single = read_csv_rows(tmp_path / f"{sub}.csv")
        picked = [row for row in sweep if row["check"] == check]
        assert len(picked) == len(single) == 24
        for got, want in zip(picked, single):
            shared = set(got) & set(want)
            assert shared == set(want) - {"sup_gram_norm"}
            assert {k: got[k] for k in shared} == {k: want[k] for k in shared}


@pytest.mark.parametrize("subcommand", ["verify-bounds", "designs", "igm", "counterexample",
                                        "sweep", "deviation"])
def test_json_format(tmp_path, subcommand):
    # the JSON and the CSV of one run hold the same cells: a float's JSON
    # number is its CSV double, a bool is true and True, and igm's empty
    # bound is "" in both
    argv = {"verify-bounds": ["verify-bounds", "--families", "2"],
            "designs": ["designs", "--kind", "cross_polytope", "--m", "2"]}.get(subcommand)
    argv = argv or smallest_run(tmp_path, subcommand)
    assert run(argv + ["--out", str(tmp_path / "r.csv")]) == 0
    assert run(argv + ["--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    with open(tmp_path / "r.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    records = json.loads((tmp_path / "r.json").read_text())
    assert [list(record) for record in records] == [header] * len(rows)
    for row, record in zip(rows, records):
        for text, value in zip(row, record.values()):
            if isinstance(value, float):
                assert float(text) == value
            else:  # an int, a bool or a string
                assert text == str(value) and isinstance(value, (int, str))
    if subcommand == "verify-bounds":
        assert len(records) == 4 and all(r["passed"] is True for r in records)
    if subcommand == "designs":
        assert (rows[0][header.index("mu")], records[0]["mu"]) == ("1", 1.0)
    if subcommand == "igm":
        assert [r["bound"] for r in records][1:] == [""]


@pytest.mark.parametrize("argv", [
    ["verify-bounds", "--families", "2"],
    ["sandwich", "--families", "2"],
    ["sweep", "--families", "2"],
    ["deviation", "--n", "8", "--m", "2", "--d-list", "2", "--trials", "30"],
    ["counterexample", "--dim", "8", "--seeds", "1"],
    ["igm"],
    ["designs", "--kind", "simplex", "--m", "3"],
], ids=lambda argv: argv[0])
def test_manifest_written(tmp_path, argv):
    if argv == ["igm"]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": {"kind": "group_orbit", "d": 2},
                                   "gamma": 0.5, "k": 2, "trials": 5}))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "r.csv"
    assert run(argv + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["subcommand"] == argv[0]
    assert manifest["seed"] == cli.DEFAULT_SEED
    assert manifest["outputs"] == [str(out)]
    assert "workers" not in manifest["parameters"]
    assert manifest["duration_seconds"] >= 0
    if argv[0] == "verify-bounds":
        assert manifest["parameters"]["families"] == 2


def test_manifest_duration_ignores_wall_clock_steps(tmp_path, monkeypatch):
    # the wall clock steps back one hour after its first reading: a duration
    # read from it would come out near -3600 s
    real, readings = time.time, []

    def stepped():
        readings.append(None)
        return real() - (3600.0 if len(readings) > 1 else 0.0)

    monkeypatch.setattr(time, "time", stepped)
    out = tmp_path / "r.csv"
    assert run(["verify-bounds", "--families", "2", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert 0 <= manifest["duration_seconds"] < 3600


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call; returns the record."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_sweep_computes_one_e_wo_per_shape_and_degree(tmp_path, monkeypatch):
    # both checks of a family side read one E_wo, from one walk over the
    # stack of every side of its (n, m, d); the calls are counted in this
    # process, so the families are checked in it
    force_blas_workers(monkeypatch, 1)
    calls = count_calls(monkeypatch, symsum, "e_wo")
    argv = ["sweep", "--families", "12", "--n-max", "3", "--m-max", "2", "--d-max", "2"]
    assert run(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    rows = read_csv_rows(tmp_path / "s.csv")
    assert len(rows) == 12 * 2 * 2
    shapes = sorted({(int(row["n"]), int(row["m"]), int(row["d"])) for row in rows})
    assert sorted((fam.n, fam.m, d) for fam, d in calls) == shapes
    assert sum(fam.ops.shape[0] for fam, _ in calls) == 12 * 2


def test_sweep_walks_stack_at_most_the_block_bytes(tmp_path, monkeypatch):
    # one block holds all 60 family sides, but a walk stacks at most
    # SWEEP_BLOCK_BYTES at 24 n m^4 bytes per family: 10 sides at (3, 2)
    force_blas_workers(monkeypatch, 1)
    monkeypatch.setattr(cli, "SWEEP_BLOCK_BYTES", 16 * 3 * 2**2 * 60)
    calls = count_calls(monkeypatch, symsum, "e_wo")
    argv = ["sweep", "--families", "30", "--n-max", "3", "--m-max", "2", "--d-max", "1"]
    assert run(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    stacked = [(fam.n, fam.m, fam.ops.shape[0]) for fam, _ in calls]
    assert sum(k for _, _, k in stacked) == 60
    assert len(stacked) > len({(n, m) for n, m, _ in stacked})
    assert all(k * 24 * n * m**4 <= cli.SWEEP_BLOCK_BYTES for n, m, k in stacked)


def test_sweep_rows_match_one_check_per_family(tmp_path):
    # the stacked sweep writes, bit for bit and in draw order, the rows of a
    # loop that checks each family side by its own calls; the grid reaches
    # every strategy of the E_wo walk
    argv = ["sweep", "--families", "40", "--n-max", "6", "--m-max", "8", "--d-max", "5",
            "--seed", "9"]
    out = tmp_path / "s.csv"
    assert run(argv + ["--out", str(out)]) == 0
    expected = []
    for fid, n, m, d, sides in cli._draw_families(np.random.default_rng(9),
                                                   cli.build_parser().parse_args(argv),
                                                   lambda n, m: True):
        for side, ops in sides:
            fam = symsum.normalize_family(oracles.side_operators(ops, side))
            reports = symsum.check_bounds(fam, d)
            for check in ("theorem_bound", "sandwich"):
                rep = reports[check]
                expected.append([fid, side, check, n, m, d, rep.lhs, rep.rhs, rep.epsilon,
                                 rep.passed])
    cells = [list(row) for row in zip(*map(cli._csv_cells, zip(*expected)))]
    with open(out, newline="") as fh:
        assert list(csv.reader(fh))[1:] == cells


def test_sweep_normalizes_each_shape_once_per_block(tmp_path, monkeypatch):
    # a block's sides of one (n, m) are normalized as one stack, and each
    # degree of it is checked on views of that stack; counted in this
    # process, at one block of every side and at blocks of 5 sides
    force_blas_workers(monkeypatch, 1)
    argv = ["sweep", "--families", "30", "--n-max", "4", "--m-max", "3", "--d-max", "3"]
    for block_sides in (None, 5):
        if block_sides:
            monkeypatch.setattr(cli, "SWEEP_BLOCK_BYTES", 16 * 4 * 3**2 * block_sides)
        stacks = []
        normalize = symsum.normalize_family
        monkeypatch.setattr(symsum, "normalize_family",
                            lambda ops: stacks.append(normalize(ops)) or stacks[-1])
        walked = count_calls(monkeypatch, symsum, "e_wo")
        assert run(argv + ["--out", str(tmp_path / "s.csv")]) == 0
        rows = read_csv_rows(tmp_path / "s.csv")[::2]  # one row per side
        blocks = [rows[i:i + block_sides] for i in range(0, len(rows), block_sides)
                  ] if block_sides else [rows]
        assert len(stacks) == sum(len({(r["n"], r["m"]) for r in b}) for b in blocks)
        assert all(any(np.shares_memory(fam.ops, s.ops) for s in stacks) for fam, _ in walked)
        monkeypatch.undo()
        force_blas_workers(monkeypatch, 1)


@pytest.mark.parametrize("count", [2, 3, 4])
def test_sweep_workers_split_the_grid_keys(tmp_path, monkeypatch, count):
    # each share of the (n, m) keys mixes small and large ones: the keys in
    # (m, n) order are dealt round-robin, so at two workers the even places
    # go to the first and the odd ones to the second, and at any count each
    # worker owns keys of every m; each worker draws in full only its own
    # families
    force_blas_workers(monkeypatch, count)
    shares, owned = [], []

    def in_process(run, items, count):  # each share in this process, one after another
        shares.extend(items[len(items) * i // count:len(items) * (i + 1) // count]
                      for i in range(count))
        return [result for share in shares for result in run(share)]

    monkeypatch.setattr(workers, "fork_map", in_process)
    original = cli._draw_families
    grid = [(n, m) for m in range(1, 5) for n in range(2, 9)]  # the default, in (m, n) order

    def recorded(rng, args, owns):
        owned.append([key for key in grid if owns(*key)])
        yield from original(rng, args, owns)

    monkeypatch.setattr(cli, "_draw_families", recorded)
    assert run(["sweep", "--families", "40", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(shares) == count and {len(share) for share in shares} <= {28 // count,
                                                                          -(-28 // count)}
    assert sorted(key for keys in owned for key in keys) == sorted(grid)
    assert all({m for _, m in keys} == {1, 2, 3, 4} for keys in owned)
    if count == 2:
        assert owned == [grid[::2], grid[1::2]]
    monkeypatch.undo()
    assert run(["sweep", "--families", "40", "--out", str(tmp_path / "t.csv")]) == 0
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()


def test_unowned_families_advance_the_stream_as_their_draws(tmp_path):
    # a family that a worker does not own is drawn into a scratch buffer,
    # which leaves the stream where the family's own draws leave it
    args = cli.build_parser().parse_args(["sweep", "--families", "50", "--m-max", "6"])
    every, some = np.random.default_rng(4), np.random.default_rng(4)
    drawn = list(cli._draw_families(every, args, lambda n, m: True))
    picked = list(cli._draw_families(some, args, lambda n, m: (n + m) % 3 == 0))
    wanted = [family for family in drawn if (family[1] + family[2]) % 3 == 0]
    assert 0 < len(picked) == len(wanted) < len(drawn)
    for (fid, n, m, d, sides), want in zip(picked, wanted):
        assert (fid, n, m, d) == want[:4]
        assert all(np.array_equal(ops, ops_w) for (_, ops), (_, ops_w) in zip(sides, want[4]))
    assert some.bit_generator.state == every.bit_generator.state


def test_counterexample_computes_one_pair_of_means_per_seed(tmp_path, monkeypatch):
    # the three columns of a row read one pair of degree-3 means; the calls
    # are counted in this process, so the seeds are measured in it
    force_blas_workers(monkeypatch, 1)
    wo = count_calls(monkeypatch, symsum, "e_wo")
    wr = count_calls(monkeypatch, symsum, "e_wr")
    assert run(["counterexample", "--dim", "8", "--seeds", "3",
                "--out", str(tmp_path / "c.csv")]) == 0
    assert len(wo) == len(wr) == 3


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-bounds", "--families", "1", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_stdout_matches_out_file_and_writes_no_manifest(tmp_path, capsys, monkeypatch):
    argv = ["verify-bounds", "--families", "3", "--seed", "4"]
    out = tmp_path / "r.csv"
    assert run(argv + ["--out", str(out)]) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == out.read_text()
    assert list(cwd.iterdir()) == []


def test_byte_identical_across_reruns(tmp_path):
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}.csv"
        assert run(["verify-bounds", "--families", "4", "--seed", "99", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["verify-bounds", "--families", "4", "--seed", "1", "--out", str(a)])
    run(["verify-bounds", "--families", "4", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


# The usage-error contract: each command line exits 2 with one stderr line
# holding its message.  A seed below 0 is named before numpy sees it, an
# empty run (--families or --seeds below 1) would read as a pass, and a
# degree out of range late in a list or a grid fails for every seed.
_USAGE_ERRORS = [
    *[([sub, *rest], message) for sub in ("verify-bounds", "sandwich", "sweep")
      for rest, message in [
          (["--seed", "-1"], "--seed must be >= 0, got -1"),
          (["--families", "1", "--n-max", "1"], "--n-max must be >= 2, got 1"),
          (["--families", "1", "--m-max", "0"], "--m-max must be >= 1, got 0"),
          (["--families", "1", "--d-max", "0"], "--d-max must be >= 1, got 0"),
          (["--families", "0"], "--families must be >= 1, got 0"),
          (["--families", "-1"], "--families must be >= 1, got -1"),
          *[(["--d-max", "7", "--n-max", "7", "--families", "20", "--seed", seed],
             "--d-max must be <= 6 unless --n-max is, got --d-max 7 with --n-max 7")
            for seed in ("0", "3")],
      ]],
    (["deviation", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["deviation", "--trials", "5"], "trials must be >= 30 for a meaningful estimate, got 5"),
    (["deviation", "--trials", "29"], "trials must be >= 30 for a meaningful estimate, got 29"),
    (["deviation", "--n", "8", "--d-list", "3", "--trials", "30"],
     "d <= n/4 (d << n), got d=3, n=8"),
    (["deviation", "--n", "8", "--d-list", "2,3"], "d <= n/4 (d << n), got d=3, n=8"),
    (["deviation", "--n", "32", "--d-list", "2,7", "--trials", "200"],
     "degree d must be in [1, 6], got 7"),
    (["deviation", "--n", "32", "--d-list", "2,0", "--trials", "200"],
     "degree d must be in [1, 6], got 0"),
    (["deviation", "--n", "8", "--d-list", "2,2", "--trials", "30"], "degree 2 is repeated"),
    (["deviation", "--d-list", "2,x"], "--d-list must be comma-separated integers, got '2,x'"),
    (["deviation", "--d-list", "2,,3"], "--d-list must be comma-separated integers, got '2,,3'"),
    (["deviation", "--m", "0"], "m must be >= 1, got 0"),
    (["deviation", "--strength", "inf"], "strength must have a finite 1 + strength^2, got inf"),
    (["deviation", "--strength", "1e200"], "finite 1 + strength^2, got 1e+200"),
    (["counterexample", "--dim", "256", "--t", "1.5"], "t must satisfy 0 < t <= sqrt(2), got 1.5"),
    *[(["counterexample", "--dim", "8", "--seeds", "4", flag, value], message)
      for flag, value, message in [
          ("--seeds", "0", "--seeds must be >= 1, got 0"),
          ("--seeds", "-1", "--seeds must be >= 1, got -1"),
          ("--n", "2", "n must be >= 3 (the degree-3 means need three operators), got 2"),
          ("--n", "1", "n must be >= 3 (the degree-3 means need three operators), got 1"),
          *[("--dim", dim, f"dim must be a positive multiple of 4, got {dim}")
            for dim in ("6", "1", "0", "-4")],
          ("--t", "1.5", "t must satisfy 0 < t <= sqrt(2), got 1.5"),
          ("--t", "0", "t must satisfy 0 < t <= sqrt(2), got 0"),
          ("--seed", "-1", "--seed must be >= 0, got -1"),
      ]],
    (["designs", "--kind", "group_orbit", "--seed", "-1"], "--seed must be >= 0, got -1"),
    # every kind's dimension, named by the flag designs reads
    *[(["designs", "--kind", kind, "--m", "1"], "--m must be >= 2, got 1")
      for kind in ("simplex", "cross_polytope", "icosahedron", "group_orbit")],
    (["igm", "--config", "missing.json"], "No such file or directory: 'missing.json'"),
]

_IGM = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "k": 2, "trials": 4}
_SIMPLEX = {"generator": {"kind": "simplex", "m": 3}, "gamma": 0.1, "rho": 0.1, "k": 3,
            "trials": 4096}

# igm config documents and the message of their "bad config: " line.  A
# misspelled key must not fall back to a default silently, and a block_mult
# of a policy that draws no pool would do nothing.
_BAD_CONFIGS = [
    ({"generator": {"kind": "bogus"}, "gamma": 1, "k": 1}, "unknown generator kind 'bogus'"),
    ({**_IGM, "gamma": -0.1}, "gamma must be >= 0"),
    ({**_IGM, "seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({**_IGM, "seed": -1}, "seed must be a non-negative integer, got -1"),
    ({**_IGM, "trials": "30"}, "trials must be an integer >= 1, got '30'"),
    ({**_IGM, "k": 2.5}, "k must be an integer >= 1, got 2.5"),
    ({**_IGM, "generator": {"kind": "group_orbit", "d": "x"}},
     "d must be an integer >= 2, got 'x'"),
    *[({**_IGM, "generator": {"kind": "group_orbit", "d": 3, "seed": seed}},
       f"generator seed must be a non-negative integer, got {seed}") for seed in (None, -1)],
    ([1, 2], "expected a JSON object, got list"),
    ({**_IGM, "generator": [1, 2]}, "generator must be a JSON object, got list"),
    ({**_IGM, "x_star": [1.0, 2.0]}, "x_star / x_0 must be m-vectors"),
    # an empty dimension would divide the trace by m = 0
    *[({**_IGM, "generator": {"kind": "explicit", "vectors": vectors}},
       f"expected an (n, m) array with n, m >= 1, got shape ({len(vectors)}, 0)")
      for vectors in ([[]], [[], []])],
    # JSON's NaN and Infinity literals parse; the run would fail late
    ({**_SIMPLEX, "x_star": [math.nan, 0, 0]}, "x_star must be finite"),
    ({**_SIMPLEX, "x_0": [math.inf, 0, 0]}, "x_0 must be finite"),
    ({**_IGM, "trails": 10000}, "unexpected keyword argument 'trails'"),
    ({**_IGM, "generator": {"kind": "group_orbit", "d": 3, "varaint": "projector"}},
     "unexpected keyword argument 'varaint'"),
    ({**_IGM, "generator": {"kind": "simplex", "m": 3, "seed": 1}},
     "unexpected keyword argument 'seed'"),
    *[({**_IGM, "policy": policy, "block_mult": 3}, "block_mult applies only to block_repeat, "
       f"got block_mult=3 with policy '{policy}'")
      for policy in ("with_replacement", "without_replacement")],
]


@pytest.mark.parametrize("argv, config, message", [
    *[pytest.param(argv, None, message, id=" ".join(argv)) for argv, message in _USAGE_ERRORS],
    *[pytest.param(["igm"], doc, message, id=f"igm {message}")
      for doc, message in _BAD_CONFIGS],
])
def test_usage_error_does_no_work(tmp_path, capsys, monkeypatch, argv, config, message):
    """Exit 2 with one ``sagm <sub>: `` line holding ``message``, no traceback
    or warning, no result file or manifest, and no ``fork_map`` call: the
    sweeps, deviation and counterexample draw only inside it, even serially,
    and igm's trials run only through it."""
    def no_work(*args):
        raise AssertionError("fork_map ran before the parameters were checked")

    monkeypatch.setattr(workers, "fork_map", no_work)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, config)]
    prefix = "" if config is None else "bad config: "
    assert message in assert_one_line_exit(capsys, argv + ["--out", "o.csv"], argv[0], 2, prefix)
    assert os.listdir() == ([] if config is None else ["cfg.json"])


@pytest.mark.parametrize("field, message", [
    ({"k": 0}, "bad config: k must be an integer >= 1, got 0"),
    ({"trails": 10}, "unexpected keyword argument 'trails'"),
], ids=["k", "unknown-key"])
def test_igm_checks_its_config_before_its_generator(tmp_path, capsys, monkeypatch, field, message):
    # an orbit of this size would take all memory to build, and a smaller
    # one seconds, before the config's own bad field is named
    def no_orbit(*args, **kwargs):
        raise AssertionError("the generator ran before the config was checked")

    monkeypatch.setattr(igm, "gen_group_orbit", no_orbit)
    cfg = write_config(tmp_path, {"generator": {"kind": "group_orbit", "d": 100000},
                                  "gamma": 0.1, "k": 2, **field})
    assert message in assert_one_line_exit(capsys, ["igm", "--config", cfg], "igm", 2)


@pytest.mark.parametrize("directory", ["o.csv", "o.csv.manifest.json"])
def test_unwritable_output_leaves_no_result_file(tmp_path, capsys, monkeypatch, directory):
    # a run that cannot write its manifest removes the result file it wrote,
    # and nothing it did not create
    monkeypatch.chdir(tmp_path)
    os.mkdir(directory)
    argv = ["designs", "--kind", "simplex", "--out", "o.csv"]
    assert "Is a directory" in assert_one_line_exit(capsys, argv, "designs", 2)
    assert os.listdir() == [directory]


def test_memory_error_is_usage_error(tmp_path, capsys, monkeypatch):
    # an allocation numpy refuses is a bad parameter, not a violated bound;
    # the refusal is simulated, nothing large is allocated
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

    monkeypatch.setattr(igm, "gen_group_orbit", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "group_orbit", "d": 1099511627776},
                               "gamma": 0.1, "k": 2}))
    argv = ["igm", "--config", str(cfg), "--out", str(tmp_path / "i.csv")]
    assert_one_line_exit(capsys, argv, "igm", 2, "out of memory: Unable to allocate")


class TestDeviationCommand:
    def test_fitted_slope_on_stderr(self, tmp_path, capsys):
        argv = ["deviation", "--n", "12", "--d-list", "2,3", "--trials", "30",
                "--out", str(tmp_path / "d.csv")]
        assert run(argv) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("fitted delta_wo ~ d^")

    def test_strength_zero_zero_columns(self, tmp_path):
        # at strength 0 the operators are exact isometries
        out = tmp_path / "d.csv"
        code = run(["deviation", "--strength", "0", "--m", "2", "--n", "8",
                    "--d-list", "2", "--trials", "30", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["epsilon_hat"]) <= 1e-12
        assert float(vals["delta_wo"]) <= 1e-12


class TestSweepAndDeviationWorkers:
    """The bound sweeps' families and deviation's trials on the fork pool."""

    GRID = ["--families", "7", "--n-max", "6", "--m-max", "3", "--d-max", "4", "--seed", "8"]
    RUNS = {
        "verify-bounds": ["verify-bounds"] + GRID,
        "sandwich": ["sandwich"] + GRID,
        "sweep": ["sweep"] + GRID,
        # 62 (degree, trial) pairs, which 2 and 3 workers share unevenly: a
        # share ends mid-trial, so its degrees stack unequal counts
        "deviation": ["deviation", "--n", "12", "--m", "2", "--d-list", "2,3", "--trials", "31"],
    }

    def test_bytes_do_not_depend_on_the_block(self, tmp_path, monkeypatch):
        outputs = []
        # every family side in one block, then blocks of 5 sides and of 1
        for block_bytes in (cli.SWEEP_BLOCK_BYTES, 16 * 6 * 3**2 * 5, 1):
            monkeypatch.setattr(cli, "SWEEP_BLOCK_BYTES", block_bytes)
            out = tmp_path / f"{block_bytes}.csv"
            assert run(self.RUNS["sweep"] + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("block_sides", [None, 3])
    @pytest.mark.parametrize("count, key", [
        pytest.param(1, (3, 2), id="1"), pytest.param(2, (3, 2), id="2"),
        # (3, 1) is the second worker's key, so that worker fails on family
        # 1 and the first worker on the later family 2
        pytest.param(2, (3, 1), id="2-second-worker-fails-first")])
    def test_sweep_error_names_the_family_a_serial_loop_fails_on(self, tmp_path, capsys,
                                                                 monkeypatch, count, key,
                                                                 block_sides):
        # families 1 and 2 are singular, in two (n, m) groups.  Family 2's
        # group, (2, 1), comes first in the stream, so a stacked run meets
        # family 2 before family 1; a serial loop stops at family 1.  Family
        # 5, of key (2, 2), is singular too.  (2, 1) and (3, 2) are keys of
        # the first of two workers and (3, 1) and (2, 2) of the second
        # (test_sweep_workers_split_the_grid_keys), so at two workers the
        # first worker's failure must win over the second's, or the other
        # way round.
        if block_sides:  # at the default --n-max 8 --m-max 4
            monkeypatch.setattr(cli, "SWEEP_BLOCK_BYTES", 16 * 8 * 4**2 * block_sides)

        def singular(n, m, low):
            ops = np.zeros((n, m, m), dtype=complex)
            ops[:, range(m), range(m)] = 1.0
            ops[:, m - 1, m - 1] = math.sqrt(low)
            return ops

        def families(rng, args, owns):
            shapes = [(2, 1, None), (*key, 3e-9), (2, 1, 2e-9), (*key, None), (2, 1, None),
                      (2, 2, 5e-9), (*key, None), (2, 1, None)]
            for fid, (n, m, low) in enumerate(shapes):
                ops = (singular(n, m, low) if low else
                       rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)))
                if owns(n, m):
                    yield fid, n, m, 1, (("left", ops), ("right", ops))

        monkeypatch.setattr(cli, "_draw_families", families)
        force_blas_workers(monkeypatch, count)
        counts = record_worker_counts(monkeypatch)
        argv = ["verify-bounds", "--families", "8", "--out", str(tmp_path / "o.csv")]
        err = assert_one_line_exit(capsys, argv, "verify-bounds", 2)
        assert err == ("sagm verify-bounds: mean Gram matrix is singular (min eigenvalue "
                       "3.000e-09); family cannot be normalized\n")
        assert counts == [count]
        assert_no_child_process()

    @pytest.mark.parametrize("subcommand", ["sweep", "deviation"])
    def test_unset_blas_threads_stay_serial(self, tmp_path, monkeypatch, subcommand):
        # OpenBLAS then runs a thread per CPU in each process, and workers
        # on top of that made a sweep ten times slower
        monkeypatch.setattr(workers, "pool_cpus", lambda: 2)
        monkeypatch.setattr(workers, "_blas_name", lambda: "scipy-openblas")
        for variable in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS"):
            monkeypatch.delenv(variable, raising=False)
        counts = record_worker_counts(monkeypatch)
        argv = self.RUNS[subcommand] + ["--out", str(tmp_path / "o.csv")]
        assert run(argv) == 0
        assert counts == [1]


# Each pooled subcommand at its smallest valid size: one trial block, one
# seed, one family, and deviation's fewest (degree, trial) pairs.
_SMALLEST_RUNS = {
    "igm": {"generator": {"kind": "simplex", "m": 2}, "gamma": 0.1, "k": 1, "trials": 1},
    "counterexample": ["counterexample", "--dim", "4", "--seeds", "1"],
    "sweep": ["sweep", "--families", "1"],
    "deviation": ["deviation", "--n", "4", "--m", "1", "--d-list", "1", "--trials", "30"],
}


def smallest_run(tmp_path, subcommand):
    """argv of ``subcommand``'s run in ``_SMALLEST_RUNS``."""
    argv = _SMALLEST_RUNS[subcommand]
    if subcommand == "igm":
        argv = ["igm", "--config", write_config(tmp_path, argv)]
    return argv


@pytest.mark.parametrize("subcommand", list(_SMALLEST_RUNS))
def test_pool_size_comes_from_workers_alone(tmp_path, monkeypatch, subcommand):
    # no break-even of its own: igm asks for a worker per CPU, the BLAS
    # callers for workers.blas_workers, at any size; fork_map's cap of one
    # worker per item keeps the one-item runs in this process, while the
    # one-family sweep maps the grid's 28 (n, m) keys
    monkeypatch.setattr(workers, "pool_cpus", lambda: 4)
    monkeypatch.setattr(workers, "blas_threads", lambda: 2)
    counts = record_worker_counts(monkeypatch)
    argv = smallest_run(tmp_path, subcommand)
    assert run(argv + ["--out", str(tmp_path / "o.csv")]) == 0
    assert counts == [4 if subcommand == "igm" else 2]
    assert_no_child_process()


_SIMPLEX_2048 = {"generator": {"kind": "simplex", "m": 3}, "gamma": 0.1, "rho": 0.1, "k": 3,
                 "trials": 2048}
_ORBIT_3 = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "rho": 0.1, "k": 4}

# Runs whose bytes must not depend on the worker count: an argv, in which an
# igm config is its document, the format, and why the run is here.
_WORKER_COUNT_RUNS = [
    # counterexample's 5 seeds and igm's 3 trial blocks, too, are shared by
    # 2 or 3 workers unevenly
    *[(run, fmt, "") for run in [*TestSweepAndDeviationWorkers.RUNS.values(),
                                 ["counterexample", "--dim", "16", "--seeds", "5"],
                                 ["igm", "--config", {**_SIMPLEX_2048, "trials": 3072,
                                                      "policy": "with_replacement"}]]
      for fmt in ("csv", "json")],
    (["counterexample", "--dim", "64", "--n", "4", "--seeds", "3"], "csv",
     "n = 4: two operators left per enumeration head"),
    # each policy and a complex orbit draw their indices their own way
    (["igm", "--config", _SIMPLEX_2048], "csv", "2048 trials are two blocks"),
    (["igm", "--config", {**_SIMPLEX_2048, "policy": "with_replacement"}], "csv",
     "with replacement"),
    (["igm", "--config", {**_SIMPLEX_2048, "k": 6, "policy": "block_repeat", "block_mult": 2}],
     "csv", "block_repeat"),
    (["igm", "--config", {**_ORBIT_3, "trials": 2048}], "csv", "a complex orbit"),
    (["igm", "--config", {"generator": {"kind": "cross_polytope", "m": 8}, "gamma": 0.5,
                          "rho": 0.1, "k": 4, "trials": 2049}], "csv",
     "2049 trials end in a partial block of one trial"),
    (["igm", "--config", {**_ORBIT_3, "policy": "with_replacement", "trials": 3073}], "csv",
     "3073 trials, four blocks over two workers, of a complex orbit with replacement"),
    (["igm", "--config", {"generator": {"kind": "group_orbit", "d": 8}, "gamma": 0.125,
                          "rho": 0.05, "k": 32, "trials": 30000}], "csv",
     "igm_mc's shape, 30 blocks"),
    (["sweep", "--families", "100"], "csv", "the README's default grid"),
    (["sweep", "--families", "100"], "json", "the README's default grid"),
    *[([sub, "--families", "200", "--n-max", "4", "--m-max", "2", "--d-max", "2"], "csv",
       "200 small families") for sub in ("sweep", "sandwich")],
    (["verify-bounds", "--families", "150", "--n-max", "6", "--m-max", "8", "--d-max", "3"], "csv",
     "the stacked sandwich walk and the stacked enumeration at m = 5-8"),
    (["sweep", "--families", "2"], "csv", "most workers own no drawn key"),
    (["verify-bounds", "--families", "60", "--n-max", "3", "--m-max", "1", "--d-max", "2"], "csv",
     "two keys for three workers"),
    (["sandwich", "--families", "120", "--n-max", "5", "--m-max", "6", "--d-max", "3"], "csv",
     "keys of unequal cost"),
    (["deviation", "--n", "8", "--m", "2", "--d-list", "2", "--trials", "30"], "csv",
     "one degree"),
    (["deviation", "--n", "12", "--m", "2", "--d-list", "2,3", "--trials", "30"], "csv",
     "two degrees in each trial-major share"),
    (["deviation", "--n", "32", "--m", "4", "--d-list", "4,5", "--trials", "30"], "csv",
     "d = 4-5 on the superoperator walk"),
    (["deviation", "--n", "16", "--m", "8", "--d-list", "2", "--trials", "30"], "csv",
     "16 KiB families: each share splits into two capped stacks"),
]


@pytest.mark.parametrize("argv, fmt", [
    pytest.param(argv, fmt, id=f"{argv[0]}-{fmt} {reason}".rstrip())
    for argv, fmt, reason in _WORKER_COUNT_RUNS])
def test_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, argv, fmt):
    # each run in-process at 1, 2 and 3 workers
    argv = [write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    counts = record_worker_counts(monkeypatch)
    outputs = []
    for count in (1, 2, 3):
        force_blas_workers(monkeypatch, count)
        out = tmp_path / f"{count}.{fmt}"
        assert run(argv + ["--format", fmt, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert counts == [1, 2, 3]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert_no_child_process()


class TestCounterexampleCommand:
    @pytest.mark.parametrize("error, code, prefix", [
        (RuntimeError, 3, "internal self-check failed: "),
        (AssertionError, 3, "internal self-check failed: "),
        (MemoryError, 2, "out of memory: "),
    ], ids=["RuntimeError-3", "AssertionError-3", "MemoryError-2"])
    def test_worker_failure_exits_as_the_serial_run(self, tmp_path, capsys, monkeypatch, error,
                                                    code, prefix):
        # a seed's exception comes back from its worker with the serial
        # run's exit status and stderr line, and no output is written
        original = freeprobe.make_free_family
        seed_2 = np.random.default_rng([cli.DEFAULT_SEED, 2]).bit_generator.state

        def fails_on_seed_2(dim, n, t, rng):
            if rng.bit_generator.state == seed_2:
                raise error("seed 2 failed")
            return original(dim, n, t, rng)

        monkeypatch.setattr(freeprobe, "make_free_family", fails_on_seed_2)
        lines = []
        for count in (1, 2):
            force_blas_workers(monkeypatch, count)
            argv = ["counterexample", "--dim", "8", "--seeds", "4",
                    "--out", str(tmp_path / f"c{count}.csv")]
            lines.append(assert_one_line_exit(capsys, argv, "counterexample", code, prefix))
            assert "seed 2 failed" in lines[-1]
        assert lines[1] == lines[0]
        assert_no_child_process()

    def test_degenerate_t(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["counterexample", "--dim", "16", "--t", "1.0", "--seeds", "3",
                    "--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            _, residual, lam, _ = line.split(",")
            assert float(residual) <= 1e-9
            assert abs(float(lam)) <= 1e-10


class TestIgmCommand:
    def test_scalar_closed_form(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "generator": {"kind": "explicit", "vectors": [[np.sqrt(2.0)]]},
                "gamma": 0.1,
                "rho": 0.0,
                "k": 6,
                "policy": "with_replacement",
                "trials": 2,
                "seed": 5,
                "x_star": [2.0],
                "x_0": [0.0],
            },
        )
        out = tmp_path / "igm.csv"
        assert run(["igm", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        for k, line in enumerate(rows):
            mse = float(line.split(",")[2])
            assert mse == pytest.approx((1 - 0.2) ** (2 * k) * 4.0, abs=1e-12)

    def test_orbit_config_bound_populated(self, tmp_path, monkeypatch):
        # a generated family is isotropic by construction, so its run reads
        # no certificate and makes no eigensolve
        monkeypatch.setattr(igm, "spectral_norm", lambda matrix: pytest.fail("eigensolve"))
        cfg = write_config(
            tmp_path,
            {
                "generator": {"kind": "group_orbit", "d": 4, "seed": 0},
                "gamma": 0.1,
                "rho": 0.02,
                "k": 6,
                "trials": 200,
                "seed": 6,
            },
        )
        out = tmp_path / "igm.csv"
        assert run(["igm", "--config", cfg, "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[2:]:  # k >= 1 rows
            assert line.split(",")[4] != ""  # bound column populated

    def test_non_isotropic_explicit_family_gets_no_bound(self, tmp_path, capsys):
        # the bound assumes an isotropic family; this one's residual is 0.25,
        # and its run once read as a bound violation (exit 1)
        vectors = [[1.0, 0.0]] * 30 + [[0.0, 0.05]] * 30
        cfg = write_config(tmp_path, {"generator": {"kind": "explicit", "vectors": vectors},
                                      "gamma": 0.5, "k": 10, "x_0": [0.0, 5.0], "trials": 200})
        out = tmp_path / "igm.csv"
        assert run(["igm", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ("igm: bound not applicable at k>=1: family is not "
                                           "isotropic (residual 2.5e-01 > 1e-10)\n")
        rows = read_csv_rows(out)
        assert rows[0]["bound"] == "17"
        assert [r["bound"] for r in rows[1:]] == [""] * 10

    def run_bytes(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "igm.csv"
        assert run(["igm", "--config", cfg, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_seed_flag_is_rejected(self, capsys):
        # the config's two seeds are the only seeds of an igm run
        with pytest.raises(SystemExit) as exc:
            run(["igm", "--config", "cfg.json", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_seeds_default_to_the_fixed_seed(self, tmp_path):
        doc = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "rho": 0.1, "k": 4,
               "trials": 20}
        seeded = {**doc, "seed": cli.DEFAULT_SEED,
                  "generator": {**doc["generator"], "seed": cli.DEFAULT_SEED}}
        assert self.run_bytes(tmp_path, doc) == self.run_bytes(tmp_path, seeded)

    def test_manifest_reruns_the_trials_seed(self, tmp_path):
        # the trials' seed set, the generator's left at its default
        doc = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "rho": 0.1, "k": 4,
               "trials": 20, "seed": 5}
        first = self.run_bytes(tmp_path, doc)
        manifest = json.loads((tmp_path / "igm.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        params = manifest["parameters"]
        assert "seed" not in params
        out = tmp_path / "rerun.csv"
        assert run(["igm", "--config", params["config"], "--format", params["format"],
                    "--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert first != self.run_bytes(tmp_path, {**doc, "seed": 6})

    def test_readme_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("An IGM config mirrors", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        doc["trials"] = 50
        cfg = write_config(tmp_path, doc)
        assert run(["igm", "--config", cfg, "--out", str(tmp_path / "igm.csv")]) == 0


class TestDesignsCommand:
    def test_designs_pass(self, tmp_path):
        for kind, m in (("simplex", 4), ("cross_polytope", 3), ("icosahedron", 3), ("group_orbit", 4)):
            out = tmp_path / f"{kind}.csv"
            assert run(["designs", "--kind", kind, "--m", str(m), "--out", str(out)]) == 0

    @pytest.mark.parametrize("scale", [0.0, 0.5, 2.0])
    def test_exit_code_is_isotropic_column(self, tmp_path, monkeypatch, scale):
        # one tolerance decides both: residuals on either side of it give
        # exit 0 exactly when the column reads True
        residual = scale * 1e-10
        monkeypatch.setattr(igm, "spectral_norm", lambda matrix: residual)
        out = tmp_path / "d.csv"
        code = run(["designs", "--kind", "simplex", "--m", "3", "--out", str(out)])
        (row,) = read_csv_rows(out)
        assert float(row["isotropy_residual"]) == residual
        assert row["isotropic"] == str(scale <= 1.0)
        assert code == (0 if row["isotropic"] == "True" else 1)

class TestNonFiniteNumbers:
    """A parameter that overflows exits 2 with one line and writes no inf or nan."""

    def test_igm_gamma_overflow(self, tmp_path, capsys):
        # the step loop overflows; it used to exit 0 with inf and nan rows
        cfg = write_config(tmp_path, {"generator": {"kind": "simplex", "m": 3},
                                      "gamma": 1e200, "rho": 0.1, "k": 3, "trials": 10})
        argv = ["igm", "--config", cfg, "--out", str(tmp_path / "o.csv")]
        assert "overflow" in assert_one_line_exit(capsys, argv, "igm", 2)

    def test_igm_gamma_overflow_in_workers(self, tmp_path, capsys, monkeypatch):
        # each worker raises on the errors the CLI raises on, and the error
        # comes back to this process as the serial run's would
        monkeypatch.setattr("sagm.workers.pool_cpus", lambda: 2)
        argv = ["igm", "--config", pool_config(tmp_path, gamma=1e200),
                "--out", str(tmp_path / "o.csv")]
        assert "overflow" in assert_one_line_exit(capsys, argv, "igm", 2, "floating-point error: ")
        assert_no_child_process()

    def test_igm_explicit_family_overflow(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "generator": {"kind": "explicit", "vectors": [[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]]},
            "gamma": 0.1, "k": 2, "trials": 4})
        argv = ["igm", "--config", cfg, "--out", str(tmp_path / "o.csv")]
        assert "overflow" in assert_one_line_exit(capsys, argv, "igm", 2)

    @pytest.mark.parametrize("strength", ["1e200", "inf"])
    def test_deviation_strength_without_a_finite_scale(self, tmp_path, capsys, monkeypatch, strength):
        # 1e200 used to exit 0 with all-zero families and a nan ratio
        argv = ["deviation", "--strength", strength, "--n", "8", "--d-list", "2", "--trials", "30",
                "--out", str(tmp_path / "o.csv")]
        err = assert_one_line_exit(capsys, argv, "deviation", 2)
        assert f"strength must have a finite 1 + strength^2, got {float(strength)!r}" in err

    def test_non_finite_cell_names_column_and_row(self, tmp_path, capsys, monkeypatch):
        # a nan that no floating-point trap sees still never reaches the
        # output; the seeds are measured in this process, which counts them
        force_blas_workers(monkeypatch, 1)
        original = freeprobe.measure
        seen = []

        def nan_on_second(fam):
            seen.append(fam)
            row = original(fam)
            return {**row, "trace_gap": float("nan")} if len(seen) == 2 else row

        monkeypatch.setattr(freeprobe, "measure", nan_on_second)
        argv = ["counterexample", "--dim", "8", "--seeds", "2", "--out", str(tmp_path / "o.csv")]
        err = assert_one_line_exit(capsys, argv, "counterexample", 2)
        assert "column 'trace_gap' of output row 1 (from 0) is nan" in err

    def test_igm_python_float_overflow(self, tmp_path, capsys):
        # one trial computes no std, so the step loop's numpy stays finite and
        # the overflow comes from rho**2 on a Python float in bound_rhs; it
        # used to end in an OverflowError traceback
        cfg = write_config(tmp_path, {"generator": {"kind": "group_orbit", "d": 16, "seed": 0},
                                      "gamma": 0.01, "rho": 1.4e154, "k": 3, "trials": 1})
        argv = ["igm", "--config", cfg, "--out", str(tmp_path / "o.csv")]
        assert_one_line_exit(capsys, argv, "igm", 2, "floating-point error: ")

    def test_empty_bound_cells_pass(self, tmp_path):
        # the bound cells left empty where the bound does not apply are the
        # one allowed gap in the finite check
        cfg = write_config(tmp_path, {"generator": {"kind": "simplex", "m": 3},
                                      "gamma": 0.1, "rho": 0.1, "k": 3, "trials": 10})
        out = tmp_path / "igm.csv"
        assert run(["igm", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert rows[0]["bound"] != ""
        assert [r["bound"] for r in rows[1:]] == ["", "", ""]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [float("nan"), np.float64("-inf"), np.float32("inf")])
@pytest.mark.parametrize("table, column, row", [
    (lambda bad: {"a": [1.5, 1], "b": ["", bad], "c": [np.float32(2.0), bad]}, "b", 1),
    # the first bad cell row by row, not column by column
    (lambda bad: {"a": [1.5, bad], "b": ["", ""], "c": [bad, 2.0]}, "c", 0),
], ids=["b1", "c0"])
def test_each_format_names_the_first_non_finite_cell(tmp_path, fmt, bad, table, column, row):
    # every cell is checked before any is encoded, so nothing is written
    out = tmp_path / "o"
    message = f"column {column!r} of output row {row} (from 0) is {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        cli._write_table(str(out), table(bad), fmt)
    assert not out.exists()


class TestSelfCheckExitCode:
    """A failed internal self-check exits 3 with one line, not a traceback."""

    PREFIX = "internal self-check failed: "

    def test_haar_rejection_cap(self, tmp_path, capsys, monkeypatch):
        # no trace passes a zero tolerance, so the capped loop gives up
        monkeypatch.setattr(freeprobe, "trace_tolerance", lambda dim: 0.0)
        monkeypatch.setattr(freeprobe, "_REJECTION_CAP", 3)
        argv = ["counterexample", "--dim", "8", "--seeds", "1", "--out", str(tmp_path / "c.csv")]
        assert "no Haar unitary" in assert_one_line_exit(capsys, argv, "counterexample", 3,
                                                         self.PREFIX)

    def test_free_family_validation(self, tmp_path, capsys, monkeypatch):
        # doubling the contrast makes tau(a^2) = 4, which validate rejects
        original = freeprobe.hermitian_with_moments
        monkeypatch.setattr(freeprobe, "hermitian_with_moments", lambda dim, t: 2.0 * original(dim, t))
        argv = ["counterexample", "--dim", "8", "--seeds", "1", "--out", str(tmp_path / "c.csv")]
        assert "tau(a^2) != 1" in assert_one_line_exit(capsys, argv, "counterexample", 3,
                                                       self.PREFIX)

    def test_killed_worker(self, tmp_path, capsys, monkeypatch):
        # a worker killed by SIGKILL breaks the pool; the run stops at once
        # and reaps every worker it forked
        parent, original = os.getpid(), igm._trial_block

        def killed_in_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(igm, "_trial_block", killed_in_worker)
        monkeypatch.setattr("sagm.workers.pool_cpus", lambda: 2)
        argv = ["igm", "--config", pool_config(tmp_path, gamma=0.1),
                "--out", str(tmp_path / "i.csv")]
        start = time.perf_counter()
        assert "terminated abruptly" in assert_one_line_exit(capsys, argv, "igm", 3, self.PREFIX)
        assert time.perf_counter() - start < 30
        assert_no_child_process()

    def test_killed_seed_worker(self, tmp_path, capsys, monkeypatch):
        # as for igm: a counterexample seed's worker killed by SIGKILL stops
        # the run at once, and every worker is reaped
        parent, original = os.getpid(), freeprobe.measure

        def killed_in_worker(fam):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(fam)

        monkeypatch.setattr(freeprobe, "measure", killed_in_worker)
        force_blas_workers(monkeypatch, 2)
        argv = ["counterexample", "--dim", "8", "--seeds", "4", "--out", str(tmp_path / "c.csv")]
        start = time.perf_counter()
        assert "terminated abruptly" in assert_one_line_exit(capsys, argv, "counterexample", 3,
                                                             self.PREFIX)
        assert time.perf_counter() - start < 30
        assert_no_child_process()

    def test_trial_stream_spot_check(self, tmp_path, capsys, monkeypatch):
        # a wrong seed word for the last trial fails the check against numpy
        original = seedseq.spawned_seed_words

        def corrupted(seed, children):
            words = original(seed, children)
            words[-1, 0] ^= 1
            return words

        monkeypatch.setattr(seedseq, "spawned_seed_words", corrupted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": {"kind": "group_orbit", "d": 3},
                                   "gamma": 0.1, "k": 2, "trials": 4}))
        argv = ["igm", "--config", str(cfg), "--out", str(tmp_path / "i.csv")]
        assert "SeedSequence" in assert_one_line_exit(capsys, argv, "igm", 3, self.PREFIX)


# Values for the numeric flags and config keys of the exit-code contract's
# drawn command lines: the edges (0, negatives, 1e200, inf, nan) and a few
# tiny sizes that run.  The integer flags take no huge values: argparse
# rejects 1e200 for them, and a huge count would run for as long as it says.
_INTS = st.sampled_from([-1, 0, 1, 2, 3, 4])
_FLOATS = st.sampled_from([-1.0, 0.0, 0.1, 0.5, 1.2, 1e200, math.inf, -math.inf, math.nan])
_JSON_NUMBERS = st.one_of(_INTS, _FLOATS)
_SEED = st.sampled_from([-1, 0, 7])


def _flags(sizes, **options):
    """argv of ``--flag=value`` pairs: every flag of ``sizes``, so that no
    default size runs, and any subset of ``options``."""
    drawn = st.fixed_dictionaries(sizes, optional=options)
    return drawn.map(lambda picked: [f"--{flag.replace('_', '-')}={value}"
                                     for flag, value in picked.items()])


_ARGV = st.one_of(
    st.tuples(st.sampled_from(["verify-bounds", "sandwich", "sweep"]),
              _flags({"families": _INTS}, n_max=st.sampled_from([-1, 0, 1, 2, 5, 7]),
                     m_max=_INTS, d_max=st.sampled_from([-1, 0, 1, 3, 7]), seed=_SEED)),
    st.tuples(st.just("deviation"),
              _flags({"n": st.sampled_from([-1, 0, 4, 8, 12]),
                      "d_list": st.sampled_from(["2", "1", "0", "-1", "3", "7", "2,3", "2,2", "x"]),
                      "trials": st.sampled_from([-1, 0, 29, 30])},
                     strength=_FLOATS, m=_INTS, p=st.sampled_from([1, 2, 4]), seed=_SEED)),
    st.tuples(st.just("counterexample"),
              _flags({"dim": st.sampled_from([-4, 0, 1, 4, 6, 8]), "seeds": _INTS},
                     n=_INTS, t=st.one_of(_FLOATS, st.just(1.0)), seed=_SEED)),
    st.tuples(st.just("designs"),
              _flags({"kind": st.sampled_from(["simplex", "cross_polytope", "icosahedron",
                                               "group_orbit"])},
                     m=_INTS, seed=_SEED)),
    st.tuples(st.just("igm"), st.fixed_dictionaries(
        {"generator": st.one_of(
            st.fixed_dictionaries({"kind": st.sampled_from(["simplex", "cross_polytope",
                                                            "icosahedron"]),
                                   "m": _JSON_NUMBERS}),
            st.fixed_dictionaries({"kind": st.just("group_orbit"), "d": _JSON_NUMBERS},
                                  optional={"seed": _JSON_NUMBERS}),
            _FLOATS.map(lambda x: {"kind": "explicit", "vectors": [[x, 0.0], [0.0, x], [x, x]]}),
        )},
        optional={"gamma": _FLOATS, "rho": _FLOATS, "k": _JSON_NUMBERS,
                  "trials": st.one_of(st.sampled_from([-1, 0, 1, 5]), _FLOATS),
                  "policy": st.sampled_from(["with_replacement", "without_replacement",
                                             "block_repeat", "bogus"]),
                  "block_mult": _JSON_NUMBERS, "seed": _JSON_NUMBERS})),
)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=_ARGV, fmt=st.sampled_from(["csv", "json"]))
def test_exit_code_contract(tmp_path_factory, drawn, fmt):
    """Any parsable command line at tiny sizes, in either format, exits 0, 1
    or 2; an exit 2 prints exactly one ``sagm <sub>:`` line; nothing prints
    a warning or a traceback; and an exit 0 or 1 writes only finite floats."""
    subcommand, rest = drawn
    if subcommand == "igm":
        config = tmp_path_factory.mktemp("igm") / "cfg.json"
        config.write_text(json.dumps(rest))
        rest = ["--config", str(config)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([subcommand] + rest + ["--format", fmt])
    err = err.getvalue()
    assert caught == []
    assert "Warning" not in err and "Traceback" not in err
    assert code in (0, 1, 2), err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith(f"sagm {subcommand}: "), err
    elif fmt == "json":
        # json.loads reads NaN and Infinity as floats, so they fail here
        for record in json.loads(out.getvalue()):
            for value in record.values():
                assert not isinstance(value, float) or math.isfinite(value), record
    else:
        for row in csv.reader(io.StringIO(out.getvalue())):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (row, cell)


def child_env():
    """The environment of a child Python that imports the same sagm as this
    test, installed or not."""
    src = str(Path(sagm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sagm.cli", "verify-bounds", "--families", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("family,side,")


def test_python_m_stdout_holds_the_bytes_of_main(tmp_path):
    # the entry's exit flushes stdout before it ends the process
    argv = ["sweep", "--families", "40"]
    proc = subprocess.run([sys.executable, "-m", "sagm.cli", *argv], capture_output=True,
                          env=child_env())
    assert proc.returncode == run([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    assert proc.stdout == (tmp_path / "b.csv").read_bytes()


def test_python_m_writes_the_bytes_of_main(tmp_path):
    argv = ["designs", "--kind", "icosahedron"]
    proc = subprocess.run([sys.executable, "-m", "sagm.cli", *argv, "--out", str(tmp_path / "a.csv")],
                          capture_output=True, env=child_env())
    assert proc.returncode == run([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_imports_only_the_layers_of_the_sweeps():
    # igm, its seedseq and freeprobe are imported by the subcommands that
    # run them, and by the package on first access
    code = ("import json, sys, sagm.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('sagm.'))\n"
            "before = loaded()\n"
            "layer = getattr(sagm, 'igm')\n"
            "print(json.dumps([before, loaded(), layer is sys.modules['sagm.igm']]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    before, after, bound = json.loads(proc.stdout)
    assert not {"sagm.igm", "sagm.seedseq", "sagm.freeprobe"} & set(before)
    assert {"sagm.cli", "sagm.symsum", "sagm.workers"} <= set(before)
    assert {"sagm.igm", "sagm.seedseq"} <= set(after) and bound


def test_script_and_main_block_run_the_entry():
    # pyproject.toml's script target and the __main__ block name one function
    root = Path(__file__).resolve().parents[1]
    targets = re.findall(r'^sagm = "sagm\.cli:(\w+)"$', (root / "pyproject.toml").read_text(),
                         re.MULTILINE)
    main_block = Path(cli.__file__).read_text().split('if __name__ == "__main__":', 1)[1]
    assert targets == ["entry"]
    assert main_block.strip() == "sys.exit(entry())"


def test_entry_freezes_the_heap_and_main_does_not(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    # the entry ends the process with main's code
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("exit", code)))
    assert cli.entry() == 0
    assert calls == ["freeze", "main", ("exit", 0)]
    monkeypatch.undo()
    frozen = gc.get_freeze_count()
    assert run(["designs", "--kind", "simplex", "--out", str(tmp_path / "d.csv")]) == 0
    assert gc.get_freeze_count() == frozen


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
