"""Acceptance gate: twelve theorem-backed criteria at pinned tolerances.

Each test prints one pass/fail line (run ``pytest -s tests/test_acceptance.py``
to see them all) and then asserts, so the suite both reports and gates.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sagm import cli, freeprobe, igm, symsum
from sagm.partitions import enumerate_partitions, singletons

import oracles


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def random_complex_family(rng, n, m):
    return rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))


def test_criterion_01_enumeration_oracle():
    """n^d e_wr equals the sum of all partition sums, and (n!/(n-d)!) e_wo
    equals the all-singletons partition sum, at 1e-10."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(1, 6):
        for d in range(1, 4):
            if d > n:
                continue
            for m in range(1, 4):
                fam = symsum.OperatorFamily(random_complex_family(rng, n, m))
                total = sum(oracles.partition_sum(fam, s) for s in enumerate_partitions(d))
                scale = max(1.0, np.abs(total).max())
                r1 = np.abs(n**d * symsum.e_wr(fam, d) - total).max() / scale
                r2 = np.abs(
                    math.perm(n, d) * symsum.e_wo(fam, d) - oracles.partition_sum(fam, singletons(d))
                ).max() / scale
                worst = max(worst, r1, r2)
    elapsed = time.time() - start
    report(1, "enumeration oracle", worst <= 1e-10 and elapsed < 10,
           f"worst residual {worst:.3e}, {elapsed:.1f}s")


def _random_sweep(seed, families=1000):
    rng = np.random.default_rng(seed)
    for _ in range(families):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, min(n, 4) + 1))
        side = "left" if rng.integers(2) == 0 else "right"
        fam = symsum.normalize_family(random_complex_family(rng, n, m), side=side)
        yield fam, d


def test_criterion_02_norm_bound_suite():
    """1000 random normalized families, n <= 8, m <= 4, d <= 4: the deviation
    norm never exceeds (1+C)/n * d(d-1)/2 at 1e-9 slack."""
    start = time.time()
    violations = sum(
        0 if symsum.check_theorem_bound(fam, d).passed else 1
        for fam, d in _random_sweep(202)
    )
    elapsed = time.time() - start
    report(2, "norm-bound suite", violations == 0 and elapsed < 120,
           f"{violations} violations of 1000, {elapsed:.1f}s")


def test_criterion_03_sandwich_suite():
    """Same sweep: both min-eigenvalue order checks pass for every family."""
    start = time.time()
    violations = sum(
        0 if symsum.check_sandwich(fam, d).passed else 1
        for fam, d in _random_sweep(303)
    )
    elapsed = time.time() - start
    report(3, "sandwich suite", violations == 0 and elapsed < 120,
           f"{violations} violations of 1000, {elapsed:.1f}s")


def test_criterion_04_folding_and_folded_bounds():
    """100 random families: telescoping residual <= 1e-10 and every folded
    partition sum obeys n^nu C^(d-nu) (1 + 1/C)."""
    rng = np.random.default_rng(404)
    worst_fold = 0.0
    bound_failures = 0
    checked = 0
    for i in range(100):
        d = int(rng.integers(2, 6))
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(d)]
        worst_fold = max(worst_fold, symsum.folding_residual(mats))

        n = int(rng.integers(d, 7))
        fam = symsum.normalize_family(random_complex_family(rng, n, 2))
        c = fam.sup_gram_norm
        for sigma in enumerate_partitions(d):
            if (1,) in sigma.blocks:
                continue
            measured = np.linalg.norm(symsum.folded_sum(fam, sigma), 2)
            limit = n**sigma.nu * c ** (sigma.d - sigma.nu) * (1.0 + 1.0 / c)
            checked += 1
            if measured > limit * (1 + 1e-9):
                bound_failures += 1
    report(4, "folding identity and folded-sum bound",
           worst_fold <= 1e-10 and bound_failures == 0,
           f"max folding residual {worst_fold:.3e}, "
           f"{bound_failures} bound failures of {checked}")


def test_criterion_05_difference_identity():
    """The exact degree-3 difference expansion holds to 1e-9 for 100 draws
    across dim in {8, 16, 64} and n in {3, 4}."""
    start = time.time()
    grid = list(itertools.product((8, 16, 64), (3, 4)))
    worst = 0.0
    for i in range(100):
        dim, n = grid[i % len(grid)]
        fam = freeprobe.make_free_family(dim, n, 1.2, np.random.default_rng([505, i]))
        worst = max(worst, freeprobe.difference_identity_residual(fam))
    elapsed = time.time() - start
    report(5, "difference identity", worst <= 1e-9 and elapsed < 60,
           f"worst residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_06_order_violation():
    """dim 256, n = 3, t = 1.2: the order fails (negative minimum eigenvalue)
    in at least 95% of 50 seeds while the traces agree to 1e-3."""
    start = time.time()
    negatives = 0
    gaps_ok = 0
    for s in range(50):
        fam = freeprobe.make_free_family(256, 3, 1.2, np.random.default_rng([606, s]))
        if freeprobe.order_violation(fam) < 0:
            negatives += 1
        if freeprobe.trace_gap(fam) <= 1e-3:
            gaps_ok += 1
    elapsed = time.time() - start
    report(6, "order violation with equal traces",
           negatives >= 48 and gaps_ok >= 48 and elapsed < 300,
           f"{negatives}/50 negative, {gaps_ok}/50 trace gaps <= 1e-3, {elapsed:.1f}s")


def test_criterion_07_expansion_identity():
    """Direct recursion equals the product-plus-noise expansion to 1e-10 over
    100 random configurations with k <= 8."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        v = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        fam = igm.VectorFamily.from_vectors(v)
        cfg = igm.IgmConfig(gamma=float(rng.uniform(0.01, 0.5)), rho=float(rng.uniform(0, 1)),
                            k=k, seed=int(rng.integers(1_000_000)))
        idx = rng.integers(0, n, size=k)
        worst = max(worst, igm.error_expansion_check(fam, cfg, idx))
    report(7, "gradient-error expansion identity", worst <= 1e-10,
           f"worst residual {worst:.3e}")


def test_criterion_08_bound_envelope():
    """Empirical without-replacement MSE stays within bound + 3*stderr at
    every valid step, 1e4 trials, for orbit (d = 2, 4, 8) and design families."""
    start = time.time()
    cases = [
        ("orbit d=2", igm.gen_group_orbit(2, rng=np.random.default_rng(81)), 0.5),
        ("orbit d=4", igm.gen_group_orbit(4, rng=np.random.default_rng(82)), 0.25),
        ("orbit d=8", igm.gen_group_orbit(8, rng=np.random.default_rng(83)), 0.125),
        ("cross-polytope m=3", igm.gen_spherical_design("cross_polytope", 3), 1.0),
        ("simplex m=3", igm.gen_spherical_design("simplex", 3), 1.0),
    ]
    details = []
    all_ok = True
    for name, fam, gamma in cases:
        k_max = 0
        for k in range(1, fam.n // 2 + 1):
            try:
                igm.bound_rhs(fam, igm.IgmConfig(gamma=gamma, rho=0.05, k=k), k)
                k_max = k
            except igm.BoundDomainError:
                break
        assert k_max >= 1, f"{name}: no step satisfies the bound preconditions"
        cfg = igm.IgmConfig(gamma=gamma, rho=0.05, k=k_max, trials=10_000, seed=808)
        stats = igm.monte_carlo_mse(fam, cfg)
        valid = np.isfinite(stats.bound)
        slack = 3 * stats.stderr[valid] + 1e-12 * np.maximum(1.0, stats.bound[valid])
        ok = bool(np.all(stats.mean_mse[valid] <= stats.bound[valid] + slack))
        all_ok &= ok
        details.append(f"{name} k<={k_max} {'ok' if ok else 'VIOLATED'}")
    elapsed = time.time() - start
    report(8, "convergence-bound envelope", all_ok and elapsed < 3000,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_09_scalar_closed_form():
    """m = 1, rho = 0: the simulated MSE equals (1 - gamma mu)^(2k) eta to 1e-12."""
    mu, gamma, eta = 3.0, 0.15, 6.25
    fam = igm.VectorFamily.from_vectors(np.array([[math.sqrt(mu)]]))
    cfg = igm.IgmConfig(gamma=gamma, rho=0.0, k=10, policy="with_replacement",
                        trials=5, seed=909, x_star=np.array([2.5]), x_0=np.array([0.0]))
    stats = igm.monte_carlo_mse(fam, cfg)
    expected = (1 - gamma * mu) ** (2 * np.arange(11)) * eta
    worst = float(np.abs(stats.mean_mse - expected).max())
    report(9, "scalar closed form", worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_10_design_certificates():
    """Every generator family has isotropy residual <= 1e-10."""
    families = [
        ("icosahedron", igm.gen_spherical_design("icosahedron")),
    ]
    for m in range(2, 7):
        families.append((f"simplex {m}", igm.gen_spherical_design("simplex", m)))
        families.append((f"cross-polytope {m}", igm.gen_spherical_design("cross_polytope", m)))
    for d in range(2, 9):
        families.append((f"orbit {d}", igm.gen_group_orbit(d, rng=np.random.default_rng(1000 + d))))
        families.append(
            (f"orbit-projector {d}",
             igm.gen_group_orbit(d, "projector", rng=np.random.default_rng(2000 + d)))
        )
    worst_name, worst = max(((nm, f.isotropy_residual) for nm, f in families), key=lambda x: x[1])
    report(10, "design and isotropy certificates", worst <= 1e-10,
           f"{len(families)} families, worst residual {worst:.3e} ({worst_name})")


def test_criterion_11_deviation_scaling():
    """Fitted exponent of the without-replacement deviation versus degree is
    at most 1.3 (linear-in-d scaling) at n = 32, 500 trials per point."""
    start = time.time()
    sampler = symsum.perturbed_isometry_sampler(4, 0.1)
    ds = [2, 3, 4, 5]
    # degree d draws from default_rng([1111, d])
    deltas = [rep.delta_wo for rep in symsum.deviation_experiment(sampler, 32, ds, 2, 500, 1111)]
    slope = float(np.polyfit(np.log(ds), np.log(deltas), 1)[0])
    elapsed = time.time() - start
    report(11, "deviation scaling in degree", slope <= 1.3 and elapsed < 600,
           f"fitted exponent {slope:.3f}, {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    """Identical seed reproduces byte-identical CSV on every rerun."""
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}.csv"
        code = cli.main(["verify-bounds", "--families", "25", "--seed", "42", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    report(12, "byte-identical reruns", identical,
           f"3 runs, {len(blobs[0])} bytes each" if identical else "outputs differ")
