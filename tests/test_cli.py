"""CLI contract tests: exit codes, output formats, manifests, determinism."""

import contextlib
import csv
import io
import json
import math
import os
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


def run(argv):
    return cli.main(argv)


def assert_usage_error(capsys, argv, subcommand):
    """Exit 2 with one ``sagm <subcommand>: `` line on stderr, no traceback."""
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sagm {subcommand}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    return err


def assert_no_child_process():
    """Every process that this one started has exited and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pool_config(tmp_path, **doc):
    """An igm config with enough trials for its blocks to run in forked
    workers, on as many CPUs as ``workers.pool_cpus`` reports."""
    return write_config(tmp_path, {"generator": {"kind": "simplex", "m": 3}, "rho": 0.1, "k": 3,
                                   "trials": igm.POOL_MIN_TRIALS, **doc})


def force_blas_workers(monkeypatch, count):
    """Make counterexample, the bound sweeps and deviation run their items in
    min(count, items) forked workers at any size, as they do with one BLAS
    thread on ``count`` CPUs."""
    monkeypatch.setattr(cli, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(cli, "SWEEP_POOL_MIN_FAMILIES", 0)
    monkeypatch.setattr(symsum, "DEVIATION_POOL_MIN_WORK", 0)
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


def test_json_format(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify-bounds", "--families", "2", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    assert all(r["passed"] for r in rows)


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


def test_sweep_computes_one_e_wo_per_family_and_side(tmp_path, monkeypatch):
    # both checks of a family read one E_wo
    calls = count_calls(monkeypatch, symsum, "e_wo")
    assert run(["sweep", "--families", "4", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 8
    assert len(read_csv_rows(tmp_path / "s.csv")) == 16


def test_counterexample_computes_one_pair_of_means_per_seed(tmp_path, monkeypatch):
    # the three columns of a row read one pair of degree-3 means
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


@pytest.mark.parametrize("subcommand", ["verify-bounds", "sandwich", "sweep"])
def test_grid_bounds_are_usage_errors(tmp_path, capsys, subcommand):
    for flag, value, low in (("--n-max", "1", 2), ("--m-max", "0", 1), ("--d-max", "0", 1)):
        argv = [subcommand, "--families", "1", flag, value, "--out", str(tmp_path / "g.csv")]
        assert f"{flag} must be >= {low}" in assert_usage_error(capsys, argv, subcommand)


@pytest.mark.parametrize("seed", ["0", "3"])
@pytest.mark.parametrize("subcommand", ["verify-bounds", "sandwich", "sweep"])
def test_degree_range_checked_before_any_family(tmp_path, capsys, monkeypatch, subcommand, seed):
    # with --d-max and --n-max both above MAX_DEGREE, whether some family
    # draws a degree out of range depends on the seed; the usage error must not
    def no_families(*args, **kwargs):
        raise AssertionError("a family was drawn before the degree range was checked")

    monkeypatch.setattr(symsum, "normalize_family", no_families)
    argv = [subcommand, "--d-max", "7", "--n-max", "7", "--families", "20", "--seed", seed,
            "--out", str(tmp_path / "g.csv")]
    assert "--d-max" in assert_usage_error(capsys, argv, subcommand)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("subcommand, flag", [
    ("verify-bounds", "--families"), ("sandwich", "--families"), ("sweep", "--families"),
    ("counterexample", "--seeds"),
])
def test_empty_runs_are_usage_errors(tmp_path, capsys, subcommand, flag, value):
    # a run over no families or seeds would write only a header and read as a pass
    out = tmp_path / "e.csv"
    argv = [subcommand, flag, value, "--out", str(out)]
    assert f"{flag} must be >= 1, got {value}" in assert_usage_error(capsys, argv, subcommand)
    assert not out.exists()


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
    assert "out of memory: Unable to allocate" in assert_usage_error(capsys, argv, "igm")


def count_draws(monkeypatch):
    """Patch the deviation sampler factory so that every family its sampler
    draws is recorded; returns the record."""
    draws = []
    original = symsum.perturbed_isometry_sampler

    def counted(m, strength):
        sampler = original(m, strength)
        return lambda n, rng: draws.append(n) or sampler(n, rng)

    monkeypatch.setattr(symsum, "perturbed_isometry_sampler", counted)
    return draws


class TestDeviationCommand:
    def test_usage_errors(self, tmp_path, capsys, monkeypatch):
        out = ["--out", str(tmp_path / "d.csv")]
        err = assert_usage_error(capsys, ["deviation", "--trials", "5"] + out, "deviation")
        assert "trials" in err

        # a bad late d-list entry fails before the first entry's trials run
        draws = count_draws(monkeypatch)
        for d_list in ("3", "2,3"):
            argv = ["deviation", "--n", "8", "--d-list", d_list, "--trials", "30"] + out
            assert "n/4" in assert_usage_error(capsys, argv, "deviation")
        assert draws == []

    @pytest.mark.parametrize("d_list", ["2,7", "2,0"])
    def test_degree_range_checked_before_sampling(self, tmp_path, capsys, monkeypatch, d_list):
        # a degree outside [1, MAX_DEGREE] late in the list fails before any
        # family of an earlier degree is sampled
        calls = count_draws(monkeypatch)
        argv = ["deviation", "--n", "32", "--d-list", d_list, "--trials", "200",
                "--out", str(tmp_path / "d.csv")]
        err = assert_usage_error(capsys, argv, "deviation")
        assert f"degree d must be in [1, {symsum.MAX_DEGREE}], got {d_list[-1]}" in err
        assert calls == []

    def test_repeated_degree_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # a slope fitted through two points at one d is meaningless; the
        # repeat fails before any family is sampled and prints no warning
        draws = count_draws(monkeypatch)
        argv = ["deviation", "--n", "8", "--d-list", "2,2", "--trials", "30",
                "--out", str(tmp_path / "d.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = assert_usage_error(capsys, argv, "deviation")
        assert "degree 2 is repeated" in err
        assert draws == []
        assert not (tmp_path / "d.csv").exists()

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
        # 62 (degree, trial) pairs, which 3 workers share unevenly
        "deviation": ["deviation", "--n", "12", "--m", "2", "--d-list", "2,3", "--trials", "31"],
    }

    @pytest.mark.parametrize("subcommand", list(RUNS))
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, subcommand):
        counts = record_worker_counts(monkeypatch)
        outputs = []
        for count in (1, 2, 3):
            force_blas_workers(monkeypatch, count)
            out = tmp_path / f"{count}.csv"
            assert run(self.RUNS[subcommand] + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert counts == [1, 2, 3]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_process()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--families", "0"], "--families must be >= 1"),
        (["verify-bounds", "--n-max", "1"], "--n-max must be >= 2"),
        (["sandwich", "--m-max", "0"], "--m-max must be >= 1"),
        (["sweep", "--d-max", "0"], "--d-max must be >= 1"),
        (["sweep", "--d-max", "7", "--n-max", "7"], "--d-max must be <= 6"),
        (["sweep", "--seed", "-1"], "negative"),
        (["deviation", "--trials", "29"], "trials must be >= 30"),
        (["deviation", "--n", "8", "--d-list", "2,3"], "n/4"),
        (["deviation", "--d-list", "2,2"], "degree 2 is repeated"),
        (["deviation", "--d-list", "2,7"], "degree d must be in [1, 6]"),
        (["deviation", "--d-list", "2,x"], "invalid literal"),
        (["deviation", "--m", "0"], "m must be >= 1, got 0"),
        (["deviation", "--strength", "inf"], "finite 1 + strength^2"),
        (["deviation", "--seed", "-1"], "negative"),
    ])
    def test_parameters_checked_before_any_fork(self, tmp_path, capsys, monkeypatch, argv,
                                                message):
        def no_map(*args):
            raise AssertionError("items were mapped before the parameters were checked")

        force_blas_workers(monkeypatch, 2)
        monkeypatch.setattr(workers, "fork_map", no_map)
        out = tmp_path / "o.csv"
        assert message in assert_usage_error(capsys, argv + ["--out", str(out)], argv[0])
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["sweep", "deviation"])
    def test_unset_blas_threads_stay_serial(self, tmp_path, monkeypatch, subcommand):
        # OpenBLAS then runs a thread per CPU in each process, and workers
        # on top of that made a sweep ten times slower
        monkeypatch.setattr(cli, "SWEEP_POOL_MIN_FAMILIES", 0)
        monkeypatch.setattr(symsum, "DEVIATION_POOL_MIN_WORK", 0)
        monkeypatch.setattr(workers, "pool_cpus", lambda: 2)
        monkeypatch.setattr(workers, "_blas_name", lambda: "scipy-openblas")
        for variable in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS"):
            monkeypatch.delenv(variable, raising=False)
        counts = record_worker_counts(monkeypatch)
        argv = self.RUNS[subcommand] + ["--out", str(tmp_path / "o.csv")]
        assert run(argv) == 0
        assert counts == [1]


class TestCounterexampleCommand:
    def test_usage_error_on_large_t(self, tmp_path, capsys):
        argv = ["counterexample", "--dim", "256", "--t", "1.5", "--out", str(tmp_path / "c.csv")]
        assert "sqrt(2)" in assert_usage_error(capsys, argv, "counterexample")

    def test_dim_must_be_multiple_of_four(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a unitary was drawn before dim was checked")

        # a has four eigenvalues of equal multiplicity; dim 1 has no special case
        monkeypatch.setattr(freeprobe, "haar_unitary", no_draws)
        for dim in ("1", "6"):
            argv = ["counterexample", "--dim", dim, "--out", str(tmp_path / "c.csv")]
            err = assert_usage_error(capsys, argv, "counterexample")
            assert f"dim must be divisible by 4, got {dim}" in err

    def test_usage_error_on_small_n(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a unitary was drawn before n was checked")

        # the degree-3 means need three operators; the message names n,
        # not the degree the user never set
        monkeypatch.setattr(freeprobe, "haar_unitary", no_draws)
        for n in ("2", "1"):
            argv = ["counterexample", "--dim", "8", "--n", n, "--out", str(tmp_path / "c.csv")]
            err = assert_usage_error(capsys, argv, "counterexample")
            assert "n must be >= 3" in err and f"got {n}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "0", "--seeds must be >= 1"),
        ("--n", "2", "n must be >= 3"),
        ("--dim", "6", "dim must be divisible by 4"),
        ("--dim", "1", "dim must be divisible by 4"),
        ("--t", "1.5", "sqrt(2)"),
        ("--t", "0", "sqrt(2)"),
    ])
    def test_parameters_checked_before_any_worker(self, tmp_path, capsys, monkeypatch, flag, value,
                                                  message):
        def no_map(*args):
            raise AssertionError("the seeds were mapped before the parameters were checked")

        force_blas_workers(monkeypatch, 2)
        monkeypatch.setattr("sagm.workers.fork_map", no_map)
        out = tmp_path / "c.csv"
        argv = ["counterexample", "--dim", "8", "--seeds", "4", flag, value, "--out", str(out)]
        assert message in assert_usage_error(capsys, argv, "counterexample")
        assert not out.exists()

    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        outputs = []
        for count in (1, 2, 3):
            force_blas_workers(monkeypatch, count)
            out = tmp_path / f"c{count}.csv"
            assert run(["counterexample", "--dim", "16", "--seeds", "5", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_process()

    @pytest.mark.parametrize("error, code", [(RuntimeError, 3), (AssertionError, 3), (MemoryError, 2)])
    def test_worker_failure_exits_as_the_serial_run(self, tmp_path, capsys, monkeypatch, error, code):
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
            out = tmp_path / f"c{count}.csv"
            assert run(["counterexample", "--dim", "8", "--seeds", "4", "--out", str(out)]) == code
            err = capsys.readouterr().err
            assert "seed 2 failed" in err and "Traceback" not in err and len(err.splitlines()) == 1
            assert not out.exists()
            lines.append(err)
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

    def test_orbit_config_bound_populated(self, tmp_path):
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

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        argv = ["igm", "--config", missing, "--out", str(tmp_path / "x.csv")]
        assert missing in assert_usage_error(capsys, argv, "igm")

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        out = ["--out", str(tmp_path / "x.csv")]
        cfg = write_config(tmp_path, {"generator": {"kind": "bogus"}, "gamma": 1, "k": 1})
        assert_usage_error(capsys, ["igm", "--config", cfg] + out, "igm")
        cfg = write_config(tmp_path, {"generator": {"kind": "group_orbit", "d": 4},
                                      "gamma": -0.1, "k": 2})
        err = assert_usage_error(capsys, ["igm", "--config", cfg] + out, "igm")
        assert "bad config: gamma" in err
        base = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "k": 2, "trials": 4}
        for doc, message in (
            ({**base, "seed": 1.5}, "seed must be"),
            ({**base, "seed": -1}, "seed must be"),
            ({**base, "trials": "30"}, "trials must be"),
            ({**base, "k": 2.5}, "k must be"),
            ({**base, "generator": {"kind": "group_orbit", "d": "x"}}, "d must be"),
            ({**base, "generator": {"kind": "group_orbit", "d": 3, "seed": None}},
             "generator seed must be"),
            ({**base, "generator": {"kind": "group_orbit", "d": 3, "seed": -1}},
             "generator seed must be"),
            ([1, 2], "expected a JSON object"),
            ({**base, "generator": [1, 2]}, "generator must be a JSON object"),
            ({**base, "x_star": [1.0, 2.0]}, "x_star / x_0 must be m-vectors"),
        ):
            cfg = write_config(tmp_path, doc)
            err = assert_usage_error(capsys, ["igm", "--config", cfg] + out, "igm")
            assert f"bad config: {message}" in err

    def test_unknown_keys_are_usage_errors(self, tmp_path, capsys):
        # a misspelled key must not fall back to a default silently
        out = ["--out", str(tmp_path / "x.csv")]
        base = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "k": 2}
        for doc, key in (
            ({**base, "trails": 10000}, "trails"),
            ({**base, "generator": {"kind": "group_orbit", "d": 3, "varaint": "projector"}}, "varaint"),
            ({**base, "generator": {"kind": "simplex", "m": 3, "seed": 1}}, "seed"),
        ):
            cfg = write_config(tmp_path, doc)
            err = assert_usage_error(capsys, ["igm", "--config", cfg] + out, "igm")
            assert err.startswith("sagm igm: bad config: ") and repr(key) in err

    @pytest.mark.parametrize("policy", ["with_replacement", "without_replacement"])
    def test_block_mult_only_with_block_repeat(self, tmp_path, capsys, policy):
        # the other policies draw no pool, so a block_mult there would do nothing
        doc = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "k": 2,
               "policy": policy, "block_mult": 3}
        argv = ["igm", "--config", write_config(tmp_path, doc),
                "--out", str(tmp_path / "x.csv")]
        assert "block_mult" in assert_usage_error(capsys, argv, "igm")

    def run_bytes(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "igm.csv"
        assert run(["igm", "--config", cfg, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        cfg = pool_config(tmp_path, gamma=0.1, policy="with_replacement")
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr("sagm.workers.pool_cpus", lambda: workers)
            out = tmp_path / f"igm{workers}.csv"
            assert run(["igm", "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_process()

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

    def test_usage_error(self, tmp_path, capsys):
        argv = ["designs", "--kind", "simplex", "--m", "1", "--out", str(tmp_path / "d.csv")]
        assert_usage_error(capsys, argv, "designs")


class TestNonFiniteNumbers:
    """A parameter that overflows exits 2 with one line and writes no inf or nan."""

    def assert_overflow_usage_error(self, tmp_path, capsys, argv, subcommand):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = assert_usage_error(capsys, argv + ["--out", str(out)], subcommand)
        assert caught == [] and "Warning" not in err
        assert not out.exists()
        return err

    def test_igm_gamma_overflow(self, tmp_path, capsys):
        # the step loop overflows; it used to exit 0 with inf and nan rows
        cfg = write_config(tmp_path, {"generator": {"kind": "simplex", "m": 3},
                                      "gamma": 1e200, "rho": 0.1, "k": 3, "trials": 10})
        err = self.assert_overflow_usage_error(tmp_path, capsys, ["igm", "--config", cfg], "igm")
        assert "overflow" in err

    def test_igm_gamma_overflow_in_workers(self, tmp_path, capsys, monkeypatch):
        # each worker raises on the errors the CLI raises on, and the error
        # comes back to this process as the serial run's would
        monkeypatch.setattr("sagm.workers.pool_cpus", lambda: 2)
        cfg = pool_config(tmp_path, gamma=1e200)
        err = self.assert_overflow_usage_error(tmp_path, capsys, ["igm", "--config", cfg], "igm")
        assert err.startswith("sagm igm: floating-point error: ") and "overflow" in err
        assert_no_child_process()

    def test_igm_explicit_family_overflow(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "generator": {"kind": "explicit", "vectors": [[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]]},
            "gamma": 0.1, "k": 2, "trials": 4})
        err = self.assert_overflow_usage_error(tmp_path, capsys, ["igm", "--config", cfg], "igm")
        assert "overflow" in err

    @pytest.mark.parametrize("strength", ["1e200", "inf"])
    def test_deviation_strength_without_a_finite_scale(self, tmp_path, capsys, monkeypatch, strength):
        # 1e200 used to exit 0 with all-zero families and a nan ratio
        draws = count_draws(monkeypatch)
        argv = ["deviation", "--strength", strength, "--n", "8", "--d-list", "2", "--trials", "30"]
        err = self.assert_overflow_usage_error(tmp_path, capsys, argv, "deviation")
        assert f"strength must have a finite 1 + strength^2, got {float(strength)!r}" in err
        assert draws == []

    def test_non_finite_cell_names_column_and_row(self, tmp_path, capsys, monkeypatch):
        # a nan that no floating-point trap sees still never reaches the output
        original = freeprobe.measure
        seen = []

        def nan_on_second(fam):
            seen.append(fam)
            row = original(fam)
            return {**row, "trace_gap": float("nan")} if len(seen) == 2 else row

        monkeypatch.setattr(freeprobe, "measure", nan_on_second)
        argv = ["counterexample", "--dim", "8", "--seeds", "2"]
        err = self.assert_overflow_usage_error(tmp_path, capsys, argv, "counterexample")
        assert "column 'trace_gap' of output row 1 (from 0) is nan" in err

    def test_igm_python_float_overflow(self, tmp_path, capsys):
        # one trial computes no std, so the step loop's numpy stays finite and
        # the overflow comes from rho**2 on a Python float in bound_rhs; it
        # used to end in an OverflowError traceback
        cfg = write_config(tmp_path, {"generator": {"kind": "group_orbit", "d": 16, "seed": 0},
                                      "gamma": 0.01, "rho": 1.4e154, "k": 3, "trials": 1})
        err = self.assert_overflow_usage_error(tmp_path, capsys, ["igm", "--config", cfg], "igm")
        assert err.startswith("sagm igm: floating-point error: ")

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


class TestSelfCheckExitCode:
    """A failed internal self-check exits 3 with one line, not a traceback."""

    def assert_self_check_failure(self, capsys, argv, subcommand, message):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"sagm {subcommand}: internal self-check failed: ")
        assert message in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_haar_rejection_cap(self, tmp_path, capsys, monkeypatch):
        # no trace passes a zero tolerance, so the capped loop gives up
        monkeypatch.setattr(freeprobe, "trace_tolerance", lambda dim: 0.0)
        monkeypatch.setattr(freeprobe, "_REJECTION_CAP", 3)
        argv = ["counterexample", "--dim", "8", "--seeds", "1", "--out", str(tmp_path / "c.csv")]
        self.assert_self_check_failure(capsys, argv, "counterexample", "no Haar unitary")

    def test_free_family_validation(self, tmp_path, capsys, monkeypatch):
        # doubling the contrast makes tau(a^2) = 4, which validate rejects
        original = freeprobe.hermitian_with_moments
        monkeypatch.setattr(freeprobe, "hermitian_with_moments", lambda dim, t: 2.0 * original(dim, t))
        argv = ["counterexample", "--dim", "8", "--seeds", "1", "--out", str(tmp_path / "c.csv")]
        self.assert_self_check_failure(capsys, argv, "counterexample", "tau(a^2) != 1")


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
        self.assert_self_check_failure(capsys, argv, "igm", "terminated abruptly")
        assert time.perf_counter() - start < 30
        assert not (tmp_path / "i.csv").exists()
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
        self.assert_self_check_failure(capsys, argv, "counterexample", "terminated abruptly")
        assert time.perf_counter() - start < 30
        assert not (tmp_path / "c.csv").exists()
        assert_no_child_process()

    def test_trial_stream_spot_check(self, tmp_path, capsys, monkeypatch):
        # a wrong seed word for the last trial fails the check against numpy
        original = seedseq.spawned_seed_words

        def corrupted(seed, count):
            words = original(seed, count)
            words[-1, 0] ^= 1
            return words

        monkeypatch.setattr(seedseq, "spawned_seed_words", corrupted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": {"kind": "group_orbit", "d": 3},
                                   "gamma": 0.1, "k": 2, "trials": 4}))
        argv = ["igm", "--config", str(cfg), "--out", str(tmp_path / "i.csv")]
        self.assert_self_check_failure(capsys, argv, "igm", "SeedSequence")


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
@given(drawn=_ARGV)
def test_exit_code_contract(tmp_path_factory, drawn):
    """Any parsable command line at tiny sizes exits 0, 1 or 2; an exit 2
    prints exactly one ``sagm <sub>:`` line; nothing prints a warning or a
    traceback; and an exit 0 or 1 writes only finite floats."""
    subcommand, rest = drawn
    if subcommand == "igm":
        config = tmp_path_factory.mktemp("igm") / "cfg.json"
        config.write_text(json.dumps(rest))
        rest = ["--config", str(config)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([subcommand] + rest)
    err = err.getvalue()
    assert caught == []
    assert "Warning" not in err and "Traceback" not in err
    assert code in (0, 1, 2), err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith(f"sagm {subcommand}: "), err
    else:
        for row in csv.reader(io.StringIO(out.getvalue())):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (row, cell)


def test_console_entry_point():
    # the child imports the same sagm as this test, installed or not
    src = str(Path(sagm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sagm.cli", "verify-bounds", "--families", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("family,side,")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
