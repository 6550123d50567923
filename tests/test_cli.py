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
from sagm import cli, freeprobe, igm, seedseq, symsum


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
        ):
            cfg = self.write_config(tmp_path, doc)
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
            cfg = self.write_config(tmp_path, doc)
            err = assert_usage_error(capsys, ["igm", "--config", cfg] + out, "igm")
            assert err.startswith("sagm igm: bad config: ") and repr(key) in err

    @pytest.mark.parametrize("policy", ["with_replacement", "without_replacement"])
    def test_block_mult_only_with_block_repeat(self, tmp_path, capsys, policy):
        # the other policies draw no pool, so a block_mult there would do nothing
        doc = {"generator": {"kind": "group_orbit", "d": 3}, "gamma": 0.1, "k": 2,
               "policy": policy, "block_mult": 3}
        argv = ["igm", "--config", self.write_config(tmp_path, doc),
                "--out", str(tmp_path / "x.csv")]
        assert "block_mult" in assert_usage_error(capsys, argv, "igm")

    def run_bytes(self, tmp_path, doc):
        cfg = self.write_config(tmp_path, doc)
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
        cfg = self.write_config(tmp_path, doc)
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
