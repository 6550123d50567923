"""CLI contract tests: exit codes, output formats, manifests, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sagm
from sagm import cli, freeprobe, symsum


def run(argv):
    return cli.main(argv)


def assert_usage_error(capsys, argv, subcommand):
    """Exit 2 with one ``sagm <subcommand>: `` line on stderr, no traceback."""
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sagm {subcommand}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    return err


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-bounds", "--families", "1", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


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


class TestDeviationCommand:
    def test_usage_errors(self, tmp_path, capsys, monkeypatch):
        out = ["--out", str(tmp_path / "d.csv")]
        err = assert_usage_error(capsys, ["deviation", "--trials", "5"] + out, "deviation")
        assert "trials" in err

        def no_trials(*args):
            raise AssertionError("a trial ran before the d-list was checked")

        # a bad late d-list entry fails before the first entry's trials run
        monkeypatch.setattr(symsum, "deviation_experiment", no_trials)
        for d_list in ("3", "2,3"):
            argv = ["deviation", "--n", "8", "--d-list", d_list, "--trials", "30"] + out
            assert "n/4" in assert_usage_error(capsys, argv, "deviation")

    def test_exact_sampler_zero_columns(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run(["deviation", "--sampler", "exact", "--m", "2", "--n", "8",
                    "--d-list", "2", "--trials", "30", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["epsilon_hat"]) <= 1e-12
        assert float(vals["delta_wo"]) <= 1e-12


class TestCounterexampleCommand:
    def test_usage_error_on_large_t(self, tmp_path, capsys):
        # dim 1 is the degenerate escape hatch, which checks t all the same
        for dim, t in (("256", "1.5"), ("1", "1.5"), ("1", "-1")):
            argv = ["counterexample", "--dim", dim, "--t", t, "--out", str(tmp_path / "c.csv")]
            assert "sqrt(2)" in assert_usage_error(capsys, argv, "counterexample")

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
    def write_config(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_scalar_closed_form(self, tmp_path):
        cfg = self.write_config(
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
        cfg = self.write_config(
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
        cfg = self.write_config(tmp_path, {"generator": {"kind": "bogus"}, "gamma": 1, "k": 1})
        assert_usage_error(capsys, ["igm", "--config", cfg] + out, "igm")
        cfg = self.write_config(tmp_path, {"generator": {"kind": "group_orbit", "d": 4},
                                           "gamma": -0.1, "k": 2})
        err = assert_usage_error(capsys, ["igm", "--config", cfg] + out, "igm")
        assert "bad config: gamma" in err


class TestDesignsCommand:
    def test_designs_pass(self, tmp_path):
        for kind, m in (("simplex", 4), ("cross_polytope", 3), ("icosahedron", 3), ("group_orbit", 4)):
            out = tmp_path / f"{kind}.csv"
            assert run(["designs", "--kind", kind, "--m", str(m), "--out", str(out)]) == 0

    def test_usage_error(self, tmp_path, capsys):
        argv = ["designs", "--kind", "simplex", "--m", "1", "--out", str(tmp_path / "d.csv")]
        assert_usage_error(capsys, argv, "designs")


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
