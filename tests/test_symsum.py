"""Tests for the symmetrized operator means.

The brute-force oracles in ``oracles`` enumerate index tuples directly and
are deliberately independent of the partition-lattice evaluation they
check.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sagm import freeprobe, symsum, workers
from sagm.linalg import haar_unitary, hermitian_spectrum, unitaries_from_gaussians
from sagm.partitions import Partition, enumerate_partitions, singletons

import oracles
from oracles import bell_number, one_block, refinement_leq


def random_family(rng, n, m):
    return rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))


def sqrt_scalar_family(values):
    return symsum.OperatorFamily(np.sqrt(np.array(values)).reshape(-1, 1, 1))


# --------------------------------------------------------------------------
# OperatorFamily


class TestOperatorFamily:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            symsum.OperatorFamily(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError):
            symsum.OperatorFamily(np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        ops = np.zeros((2, 2, 2))
        ops[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            symsum.OperatorFamily(ops)

    def test_sup_gram_norm(self):
        rng = np.random.default_rng(0)
        fam = symsum.OperatorFamily(random_family(rng, 4, 3))
        expected = max(np.linalg.norm(a, 2) ** 2 for a in fam.ops)
        assert fam.sup_gram_norm == pytest.approx(expected, rel=1e-10)

    def test_norms_are_computed_once(self, monkeypatch):
        rng = np.random.default_rng(0)
        fam = symsum.normalize_family(random_family(rng, 4, 3))
        first = (fam.normalization_residual, fam.sup_gram_norm)

        def fail(m):
            raise AssertionError("norm recomputed")

        monkeypatch.setattr(symsum, "spectral_norm", fail)
        assert (fam.normalization_residual, fam.sup_gram_norm) == first
        assert symsum.check_bounds(fam, 2)["sandwich"].passed  # reads both from the cache

    def test_gram_stack_is_lazy_and_read_only(self):
        rng = np.random.default_rng(3)
        fam = symsum.OperatorFamily(random_family(rng, 4, 3))
        symsum.e_wo(fam, 2), symsum.e_wr(fam, 2)
        assert "gram" not in vars(fam)  # the means never build it
        expected = np.stack([a.conj().T @ a for a in fam.ops])
        assert np.allclose(fam.gram, expected, rtol=0, atol=1e-12)
        assert fam.gram is fam.gram
        with pytest.raises(ValueError, match="read-only"):
            fam.gram[0, 0, 0] = 0.0
        assert np.array_equal(fam.mean_gram, np.mean(fam.gram, axis=0))

    def test_ops_are_a_private_read_only_copy(self):
        rng = np.random.default_rng(2)
        ops = random_family(rng, 4, 2)
        fam = symsum.OperatorFamily(ops)
        with pytest.raises(ValueError, match="read-only"):
            fam.ops[0, 0, 0] = 1.0
        before = symsum.e_wo(fam, 2).copy()
        ops[:] = 0.0  # the caller's array: the family keeps its own copy
        assert np.array_equal(symsum.e_wo(symsum.OperatorFamily(fam.ops), 2), before)
        assert np.array_equal(symsum.e_wo(fam, 2), before)


class TestNormalizeFamily:
    def test_scalar_example(self):
        # family sqrt(1), sqrt(2), sqrt(3): the mean Gram value is 2, so the
        # normalized scalars are sqrt(x/2)
        ops = np.sqrt(np.array([1.0, 2.0, 3.0])).reshape(3, 1, 1)
        fam = symsum.normalize_family(ops)
        assert np.allclose(fam.ops.ravel(), np.sqrt(np.array([1.0, 2.0, 3.0]) / 2.0))

    def test_left_certificate(self):
        rng = np.random.default_rng(3)
        fam = symsum.normalize_family(random_family(rng, 5, 4))
        assert fam.normalized
        assert fam.normalization_residual <= 1e-10

    def test_right_side_returns_adjoint_with_left_certificate(self):
        rng = np.random.default_rng(4)
        ops = random_family(rng, 5, 4)
        fam = symsum.normalize_family(oracles.side_operators(ops, "right"))
        # the family normalized from the adjoints carries the left certificate ...
        assert fam.normalized
        # ... and its adjoint satisfies the right-handed normalization
        adj = fam.ops.conj().transpose(0, 2, 1)
        gram = np.mean(adj @ adj.conj().transpose(0, 2, 1), axis=0)
        assert np.linalg.norm(gram - np.eye(4), 2) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(n=1, m=3, seed=796777)
    def test_left_and_right_conventions_agree(self, n, m, seed):
        ops = random_family(np.random.default_rng(seed), n, m)
        left, right = (symsum.normalize_family(oracles.side_operators(ops, side))
                       for side in ("left", "right"))
        # the right side's adjoint carries the right-handed certificate
        adj = right.ops.conj().transpose(0, 2, 1)
        gram = np.mean(adj @ adj.conj().transpose(0, 2, 1), axis=0)
        assert np.linalg.norm(gram - np.eye(m), 2) <= symsum.NORMALIZATION_TOL
        for fam in (left, right):
            for d in range(1, min(n, 4) + 1):
                assert all(rep.passed for rep in symsum.check_bounds(fam, d).values())

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_second_step_certifies_ill_conditioned_family(self, side):
        # the mean Gram matrix has condition number 1.1e6, far from singular,
        # yet one step leaves a residual above 1e-10 on either side
        ops = random_family(np.random.default_rng(796777), 1, 3)
        fam = symsum.normalize_family(oracles.side_operators(ops, side))
        assert fam.normalization_residual <= symsum.NORMALIZATION_TOL

    def test_singular_family(self):
        with pytest.raises(ValueError, match="singular"):
            symsum.normalize_family(np.zeros((3, 2, 2)))


# --------------------------------------------------------------------------
# Means


class TestMeans:
    def test_scalar_e_wo(self):
        fam = sqrt_scalar_family([1.0, 2.0, 3.0])
        # sum over distinct pairs of x_j x_k is 22; 6 ordered pairs
        assert symsum.e_wo(fam, 2)[0, 0].real == pytest.approx(22.0 / 6.0, abs=1e-12)

    def test_scalar_e_wr(self):
        fam = sqrt_scalar_family([1.0, 2.0, 3.0])
        # sum over all pairs of x_j x_k is (1+2+3)^2 = 36; 9 ordered pairs
        assert symsum.e_wr(fam, 2)[0, 0].real == pytest.approx(4.0, abs=1e-12)

    def test_d_one_reduces_to_mean_gram(self):
        rng = np.random.default_rng(5)
        fam = symsum.OperatorFamily(random_family(rng, 4, 3))
        assert np.allclose(symsum.e_wo(fam, 1), fam.mean_gram, atol=1e-12)
        assert np.allclose(symsum.e_wr(fam, 1), fam.mean_gram, atol=1e-12)

    @pytest.mark.parametrize("n,m,d", [(3, 1, 2), (4, 2, 2), (4, 2, 3), (5, 3, 3), (6, 2, 4), (5, 2, 5)])
    def test_against_oracles(self, n, m, d):
        rng = np.random.default_rng(100 + n * 10 + d)
        ops = random_family(rng, n, m)
        fam = symsum.OperatorFamily(ops)
        scale = max(1.0, np.abs(oracles.e_wo(ops, d)).max())
        assert np.abs(symsum.e_wo(fam, d) - oracles.e_wo(ops, d)).max() <= 1e-10 * scale
        assert np.abs(symsum.e_wr(fam, d) - oracles.e_wr(ops, d)).max() <= 1e-10 * scale

    def test_unitary_family_gives_identity(self):
        from sagm.linalg import haar_unitary, unitaries_from_gaussians

        rng = np.random.default_rng(6)
        fam = symsum.OperatorFamily(np.stack([haar_unitary(3, rng) for _ in range(5)]))
        for d in (1, 2, 3):
            assert np.allclose(symsum.e_wo(fam, d), np.eye(3), atol=1e-12)
            assert np.allclose(symsum.e_wr(fam, d), np.eye(3), atol=1e-12)

    def test_degree_guards(self):
        fam = sqrt_scalar_family([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            symsum.e_wo(fam, 0)
        with pytest.raises(ValueError):
            symsum.e_wo(fam, 7)
        with pytest.raises(ValueError, match="distinct"):
            symsum.e_wo(fam, 4)  # d > n

    def test_means_are_hermitian_psd(self):
        rng = np.random.default_rng(7)
        fam = symsum.OperatorFamily(random_family(rng, 5, 3))
        for d in (2, 3):
            for mat in (symsum.e_wo(fam, d), symsum.e_wr(fam, d)):
                assert np.abs(mat - mat.conj().T).max() <= 1e-10
                assert np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0] >= -1e-10


def _grouped_sum_case(case):
    """(operator stack, degrees, free family or None) of one bit-pin case."""
    if case.startswith("free"):
        fam = freeprobe.make_free_family(16, int(case[-1]), 1.2, np.random.default_rng(11))
        return fam.ajs.conj().transpose(0, 2, 1), (3,), fam
    rng = np.random.default_rng(12)
    if case == "(32, 4)":
        return random_family(rng, 32, 4), (2, 3, 4, 5), None
    shape = (2, 3, 5, 6, 6)  # a 2 x 3 stack of families of 5 operators
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape), (1, 2, 3), None


@pytest.mark.parametrize("group", [None, 1, 2, 3], ids=["default", "1", "2", "3"])
@pytest.mark.parametrize("case", ["free n=3", "free n=4", "(32, 4)", "stack of families"])
def test_grouped_sums_keep_the_stacked_bits(monkeypatch, case, group):
    # e_wr in groups of 1-3 operators, and at the default size (one group
    # here), equals np.mean over the stack of all n products bit for bit;
    # so does the difference identity's one-operator-at-a-time right side
    ops, degrees, fam = _grouped_sum_case(case)
    if group is not None:
        monkeypatch.setattr(symsum, "WR_GROUP_BYTES", group * ops.itemsize * ops.shape[-1] ** 2)
    family = symsum.OperatorFamily(ops)
    for d in degrees:
        assert np.array_equal(symsum.e_wr(family, d), oracles.e_wr_stacked(family.ops, d))
    if fam is not None:
        assert np.array_equal(freeprobe._identity_rhs(fam), oracles.identity_rhs_stacked(fam))


STRATEGIES = (symsum._enumerated_sum, symsum._sandwich_sum, symsum._superoperator_sum)


class TestDistinctTupleStrategies:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    # d = 4, 5 are the first degrees with two blocks open at once, where the
    # superoperator walk moves and batches an (n, n, m^2) state
    @example(n=6, m=4, d=4, seed=44)
    @example(n=6, m=4, d=5, seed=45)
    # MAX_DEGREE, beyond the drawn degrees
    @example(n=7, m=2, d=6, seed=76)
    # a result of 3.03 from a Mobius mass of 1e7: the sandwich walk misses
    # the oracle by 7.7e-10 there
    @example(n=5, m=1, d=5, seed=856140)
    def test_each_strategy_matches_enumeration_oracle(self, n, m, d, seed):
        d = min(d, n)
        ops = random_family(np.random.default_rng(seed), n, m)
        expected = oracles.partition_sum(symsum.OperatorFamily(ops), singletons(d))
        # The walks reach the sum as a signed combination of collapsed sums,
        # so their rounding scales with its absolute mass
        # sum_pi |mu(pi)| ||collapsed_pi||, not with the result, which the
        # cancellation can make 1e-7 of it.  Each collapsed sum has
        # n^|pi| terms of norm <= max_j ||A_j||^(2d), and
        # sum_pi prod_B (|B| - 1)! n^|pi| is the rising factorial
        # n (n+1) ... (n+d-1), which bounds the mass.  The largest miss in
        # 3000 draws was 2.5e-16 of that bound, so the tolerance is 1e-10 of
        # the result or 1e-14 of the bound, whichever is larger.
        mass = math.prod(range(n, n + d)) * max(np.linalg.norm(a, 2) for a in ops) ** (2 * d)
        tolerance = max(1e-10 * max(1.0, np.abs(expected).max()), 1e-14 * mass)
        for strategy in STRATEGIES:
            assert np.abs(strategy(ops, d) - expected).max() <= tolerance

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 64),
        m=st.integers(1, 8),
        normalized=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=64, m=8, normalized=False, seed=64)
    @example(n=2, m=1, normalized=True, seed=2)
    def test_each_strategy_matches_the_degree_2_identity(self, n, m, normalized, seed):
        # n(n-1) E_wo,2 = sum_j A_j* (S - G_j) A_j, for any family, without
        # Mobius inversion.  The walks reach it as sum_j A_j* S A_j minus
        # sum_j A_j* G_j A_j, whose mass the rising factorial n (n+1) times
        # max_j ||A_j||^4 bounds (see above).  The largest miss over
        # n in {2, 3, 5, 8, 12, 20, 33, 64}, m in {1, 2, 3, 5, 8} and 20
        # draws each was 2.3e-16 of that bound, so the tolerance is 1e-14.
        ops = random_family(np.random.default_rng(seed), n, m)
        if normalized:
            ops = symsum.normalize_family(ops).ops
        expected = oracles.e_wo_2_sum(ops)
        tolerance = 1e-14 * n * (n + 1) * max(np.linalg.norm(a, 2) for a in ops) ** 4
        # enumeration loops over the n heads, so it is checked at small n only
        strategies = STRATEGIES if n <= 12 else STRATEGIES[1:]
        for strategy in strategies:
            assert np.abs(strategy(ops, 2) - expected).max() <= tolerance

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(1, 6),
        m=st.integers(1, 8),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=2, n=6, m=8, d=5, seed=68)
    @example(k=1, n=5, m=1, d=5, seed=856140)
    def test_superoperator_walk_is_real_and_exactly_hermitian(self, k, n, m, d, seed):
        # The walk steps Y = S + K for the Hermitian state X = S + iK with
        # float64 step matrices, and rebuilds X from Y's symmetric and
        # antisymmetric parts, so its result has no skew part at all.
        d = min(d, n)
        rng = np.random.default_rng(seed)
        ops = rng.standard_normal((k, n, m, m)) + 1j * rng.standard_normal((k, n, m, m))
        assert symsum._Superoperator(ops).t.dtype == np.float64
        total = symsum._superoperator_sum(ops, d)
        assert np.all(total - total.conj().swapaxes(-1, -2) == 0)
        for ops_f, total_f in zip(ops, total):
            expected = oracles.partition_sum(symsum.OperatorFamily(ops_f), singletons(d))
            # 1e-12 of the result, or 1e-14 of the Mobius mass bound of
            # test_each_strategy_matches_enumeration_oracle where the
            # cancellation leaves a result far below it (as at n = 5, m = 1)
            mass = math.prod(range(n, n + d)) * max(np.linalg.norm(a, 2) for a in ops_f) ** (2 * d)
            tolerance = max(1e-12 * np.abs(expected).max(), 1e-14 * mass)
            assert np.abs(total_f - expected).max() <= tolerance

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_e_wo_properties(self, n, m, d, seed):
        d = min(d, n)
        rng = np.random.default_rng(seed)
        ops = random_family(rng, n, m)
        fam = symsum.OperatorFamily(ops)
        wo = symsum.e_wo(fam, d)
        scale = max(1.0, np.abs(wo).max())
        # unitary covariance: E_wo({V* A_j V}) = V* E_wo V.  (Right factors
        # alone, {A_j V}, do not commute through the nesting beyond d = 1.)
        v = haar_unitary(m, rng)
        rotated = symsum.e_wo(symsum.OperatorFamily(v.conj().T @ ops @ v), d)
        assert np.abs(rotated - v.conj().T @ wo @ v).max() <= 1e-10 * scale
        # the mean does not depend on the order of the family
        shuffled = symsum.e_wo(symsum.OperatorFamily(ops[rng.permutation(n)]), d)
        assert np.abs(shuffled - wo).max() <= 1e-10 * scale
        # at d = 1 sampling with and without replacement coincide
        assert np.abs(symsum.e_wo(fam, 1) - symsum.e_wr(fam, 1)).max() <= 1e-12 * scale

    def test_choice_follows_the_rule(self):
        # m <= 4: the superoperator walk, at any n and d
        for d in range(2, 6):
            assert symsum._strategy(32, 4, d) is symsum._superoperator_sum
        # m = 5-8: the superoperator walk from d = 3 on
        for n, m, d in ((6, 6, 3), (3, 7, 3), (4, 7, 3), (5, 7, 3), (16, 8, 4), (32, 8, 5)):
            assert symsum._strategy(n, m, d) is symsum._superoperator_sum
        # m = 9-10: the superoperator walk from d = 4 on
        for n, m, d in ((4, 9, 4), (5, 10, 4), (32, 10, 5)):
            assert symsum._strategy(n, m, d) is symsum._superoperator_sum
        # otherwise: enumeration up to n = 4, the sandwich walk beyond
        assert symsum._strategy(4, 5, 2) is symsum._enumerated_sum
        assert symsum._strategy(4, 7, 2) is symsum._enumerated_sum
        assert symsum._strategy(4, 9, 3) is symsum._enumerated_sum
        assert symsum._strategy(4, 11, 4) is symsum._enumerated_sum
        assert symsum._strategy(3, 256, 3) is symsum._enumerated_sum
        assert symsum._strategy(5, 6, 2) is symsum._sandwich_sum
        assert symsum._strategy(5, 8, 2) is symsum._sandwich_sum
        assert symsum._strategy(5, 9, 3) is symsum._sandwich_sum
        assert symsum._strategy(5, 11, 5) is symsum._sandwich_sum
        # the n m^4 superoperator stack is never chosen at large m
        for n in range(1, 33):
            for d in range(1, min(n, symsum.MAX_DEGREE) + 1):
                assert symsum._strategy(n, 256, d) is not symsum._superoperator_sum

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 6),
        m=st.integers(1, 8),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        branch=st.none(),
    )
    # one example on each branch of the rule, and each side of its bounds
    @example(n=6, m=6, d=3, seed=61, branch=symsum._superoperator_sum)
    @example(n=5, m=10, d=4, seed=54, branch=symsum._superoperator_sum)
    @example(n=4, m=5, d=2, seed=45, branch=symsum._enumerated_sum)
    @example(n=5, m=6, d=2, seed=56, branch=symsum._sandwich_sum)
    @example(n=5, m=9, d=3, seed=59, branch=symsum._sandwich_sum)
    @example(n=2, m=7, d=2, seed=72, branch=symsum._enumerated_sum)  # d = n
    def test_e_wo_matches_oracle_on_each_branch(self, n, m, d, seed, branch):
        d = min(d, n)
        if branch is not None:
            assert symsum._strategy(n, m, d) is branch
        fam = symsum.OperatorFamily(random_family(np.random.default_rng(seed), n, m))
        expected = oracles.partition_sum(fam, singletons(d)) * (
            math.factorial(n - d) / math.factorial(n)
        )
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(symsum.e_wo(fam, d) - expected).max() <= 1e-10 * scale


def _decode(steps):
    """The partition of {1..d} whose collapsed-sum walk is ``steps``,
    replayed independently of ``symsum``'s encoder."""
    d = len(steps)
    open_blocks, closed = [], []
    for p, (kind, axis, close) in zip(range(1, d + 1), steps):
        if kind == symsum._SINGLE:
            closed.append([p])
        elif kind == symsum._OPEN:
            open_blocks.insert(0, [p])
        else:
            block = open_blocks.pop(axis)
            block.append(p)
            if close:
                closed.append(block)
            else:
                open_blocks.insert(0, block)
    assert not open_blocks
    return Partition.from_blocks(d, closed)


def _paths(dag, node=0):
    """Every source-to-sink path as (steps, product of factors)."""
    if not dag[node]:
        return [((), 1)]
    return [
        ((step,) + steps, factor * weight)
        for step, factor, successor in dag[node]
        for steps, weight in _paths(dag, successor)
    ]


def _mobius(sigma, pi):
    """mu(sigma, pi) for pi coarser than sigma: the product over blocks B of
    pi of (-1)^(k-1) (k-1)!, with k the number of blocks of sigma in B."""
    weight = 1
    for block in pi.blocks:
        k = sum(set(b) <= set(block) for b in sigma.blocks)
        weight *= (-1) ** (k - 1) * math.factorial(k - 1)
    return weight


class TestMobiusDag:
    @pytest.mark.parametrize("d", range(1, symsum.MAX_DEGREE + 1))
    def test_paths_are_the_partitions_with_their_weights(self, d):
        # every sigma of degree d: the paths are the coarsenings of sigma,
        # each weighted by mu(sigma, pi); at singletons(d), every partition
        for sigma in enumerate_partitions(d):
            paths = _paths(symsum._mobius_dag(sigma))
            assert len(paths) == bell_number(sigma.nu)
            weights = {_decode(steps): weight for steps, weight in paths}
            assert set(weights) == {pi for pi in enumerate_partitions(d) if refinement_leq(pi, sigma)}
            for pi, weight in weights.items():
                assert weight == _mobius(sigma, pi)

    @pytest.mark.parametrize("d", range(1, symsum.MAX_DEGREE + 1))
    def test_nodes_are_levelled_with_distinct_steps(self, d):
        for sigma in enumerate_partitions(d):
            dag = symsum._mobius_dag(sigma)
            level = [0] + [None] * (len(dag) - 1)
            for i, edges in enumerate(dag):
                assert len({step for step, _, _ in edges}) == len(edges)
                for _, _, j in edges:
                    assert j > i and level[j] in (None, level[i] + 1)
                    level[j] = level[i] + 1
            assert dag[-1] == () and level[-1] == d

    def test_step_applications(self):
        # one application per edge, where the words of the partitions hold
        # d * Bell(d) = 1, 4, 15, 60, 260 and 1218 steps
        counts = [sum(map(len, symsum._mobius_dag(singletons(d)))) for d in range(1, 7)]
        assert counts == [1, 4, 10, 22, 45, 88]


# --------------------------------------------------------------------------
# Partition-restricted and folded sums


class TestPartitionSums:
    def test_scalar_singletons(self):
        fam = sqrt_scalar_family([1.0, 2.0, 3.0])
        got = symsum.partition_sum(fam, singletons(2))
        assert got[0, 0].real == pytest.approx(22.0, abs=1e-12)

    def test_partition_sums_tile_the_full_sum(self):
        rng = np.random.default_rng(8)
        fam = symsum.OperatorFamily(random_family(rng, 4, 2))
        for d in (1, 2, 3):
            total = sum(symsum.partition_sum(fam, s) for s in enumerate_partitions(d))
            expected = fam.n**d * oracles.e_wr(fam.ops, d)
            assert np.abs(total - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_bound_requires_normalized(self):
        rng = np.random.default_rng(9)
        fam = symsum.OperatorFamily(2.0 * random_family(rng, 3, 2))
        with pytest.raises(ValueError, match="normalized"):
            symsum.bound_partition_sum(fam, singletons(2))

    def test_bound_holds(self):
        rng = np.random.default_rng(10)
        fam = symsum.normalize_family(random_family(rng, 5, 3))
        for d in (2, 3):
            for sigma in enumerate_partitions(d):
                measured = np.linalg.norm(symsum.partition_sum(fam, sigma), 2)
                assert measured <= symsum.bound_partition_sum(fam, sigma) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 3),
        d=st.integers(1, 5),
        normalized=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mobius_walk_matches_enumeration_oracle(self, n, m, d, normalized, seed):
        ops = random_family(np.random.default_rng(seed), n, m)
        fam = symsum.normalize_family(ops) if normalized else symsum.OperatorFamily(ops)
        c = fam.sup_gram_norm
        for sigma in enumerate_partitions(d):
            # The Mobius combination cancels: its rounding scales with its
            # largest collapsed sum, each at most n^nu C^d, not with [sigma].
            # Over 400 draws of this domain the error stayed below 7.2e-15 of
            # n^nu C^d, but reached 2e2 times the norm of a nearly cancelling
            # folded sum, so that norm cannot be the scale.
            tol = 1e-10 * max(1.0, n**sigma.nu * c**d)
            # With n < nu(sigma) no tuple has kernel sigma: the sums are
            # exact zeros, not cancellation noise.
            if n < sigma.nu:
                tol = 0.0
            got = symsum.partition_sum(fam, sigma)
            assert np.abs(got - oracles.partition_sum(fam, sigma)).max() <= tol
            if (1,) not in sigma.blocks:
                got = symsum.folded_sum(fam, sigma)
                assert np.abs(got - oracles.folded_sum(fam, sigma)).max() <= tol

    def test_bound_holds_beyond_enumeration(self):
        # n = 32 is past the n <= 12 cap of tuple enumeration.  At d = 1,
        # [sigma] = n I meets the bound n exactly, hence the relative slack.
        rng = np.random.default_rng(32)
        fam = symsum.normalize_family(symsum._perturbed_isometries([rng], 32, 4, 0.1)[0])
        for d in range(1, 6):
            for sigma in enumerate_partitions(d):
                measured = np.linalg.norm(symsum.partition_sum(fam, sigma), 2)
                assert measured <= symsum.bound_partition_sum(fam, sigma) * (1 + 1e-9)

    def test_folded_scalar_example(self):
        fam = sqrt_scalar_family([1.0, 2.0, 3.0])
        got = symsum.folded_sum(fam, one_block(2))
        assert got[0, 0].real == pytest.approx(-8.0, abs=1e-12)

    def test_folded_rejects_singleton_position_one(self):
        fam = sqrt_scalar_family([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="singleton"):
            symsum.folded_sum(fam, singletons(2))

    def test_folding_residual(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 4, 5):
            mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(d)]
            assert oracles.folding_residual(mats) <= 1e-10


# --------------------------------------------------------------------------
# Bound checks


class TestBoundChecks:
    def test_d_one_has_zero_lhs(self):
        rng = np.random.default_rng(12)
        fam = symsum.normalize_family(random_family(rng, 4, 3))
        rep = symsum.check_bounds(fam, 1)["theorem_bound"]
        assert rep.lhs <= 1e-12
        assert rep.passed

    def test_unitary_family_passes_everything(self):
        from sagm.linalg import haar_unitary, unitaries_from_gaussians

        rng = np.random.default_rng(13)
        fam = symsum.OperatorFamily(np.stack([haar_unitary(3, rng) for _ in range(5)]))
        for d in (1, 2, 3):
            assert all(rep.passed for rep in symsum.check_bounds(fam, d).values())

    def test_requires_normalized(self):
        rng = np.random.default_rng(14)
        fam = symsum.OperatorFamily(3.0 * random_family(rng, 4, 2))
        with pytest.raises(ValueError, match="normalized"):
            symsum.check_bounds(fam, 2)

    def test_checks_share_one_e_wo(self, monkeypatch):
        rng = np.random.default_rng(15)
        fam = symsum.normalize_family(random_family(rng, 4, 2))
        fam.sup_gram_norm  # its eigensolve is the family's, not the checks'
        picked, solves = [], []
        original = symsum._strategy

        def counted(*shape):
            picked.append(shape)
            return original(*shape)

        def counting(solver):
            return lambda *args, **kwargs: solves.append(solver.__name__) or solver(*args, **kwargs)

        monkeypatch.setattr(symsum, "_strategy", counted)
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        for d in (2, 3):
            reports = symsum.check_bounds(fam, d)
            assert sorted(reports) == ["sandwich", "theorem_bound"]
            assert all(rep.passed for rep in reports.values())
        assert picked == [(4, 2, 2), (4, 2, 3)]  # the distinct-tuple sum ran once per degree
        assert solves == ["eigvalsh", "eigvalsh"]  # and one eigensolve per degree

    def test_asymmetric_mean_is_rejected(self, monkeypatch):
        rng = np.random.default_rng(17)
        fam = symsum.normalize_family(random_family(rng, 4, 2))
        skewed = symsum.e_wo(fam, 2) + np.array([[0.0, 2e-10], [0.0, 0.0]])
        monkeypatch.setattr(symsum, "e_wo", lambda fam, d: skewed)
        with pytest.raises(ValueError, match="asymmetry residual"):
            symsum.check_bounds(fam, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        d=st.integers(1, 4),
        side=st.sampled_from(["left", "right"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_checks_match_oracles(self, n, m, d, side, seed):
        # The checks read one spectrum of E_wo's Hermitian part; the oracles
        # take ||I - E_wo||, the smallest eigenvalue of each shifted copy and
        # one spectral norm per Gram matrix, as separate eigensolves.
        d = min(d, n)
        ops = random_family(np.random.default_rng(seed), n, m)
        fam = symsum.normalize_family(oracles.side_operators(ops, side))
        c = oracles.sup_gram_norm(fam)
        assert abs(fam.sup_gram_norm - c) <= 1e-12
        eps = (1.0 + c) / n * d * (d - 1) / 2.0
        mean = symsum.e_wo(fam, d)
        lhs = oracles.theorem_lhs(mean)
        lower, upper = oracles.sandwich_margins(mean, eps)
        worst = max(-lower, -upper, 0.0)
        reports = symsum.check_bounds(fam, d)
        theorem, sandwich = reports["theorem_bound"], reports["sandwich"]
        eigs, _ = hermitian_spectrum(mean)
        assert abs(theorem.rhs - eps) <= 1e-12 and sandwich.rhs == 0.0
        assert abs(theorem.lhs - lhs) <= 1e-12
        assert abs((eigs[0] - (1.0 - eps)) - lower) <= 1e-12
        assert abs(((1.0 + eps) - eigs[-1]) - upper) <= 1e-12
        assert abs(sandwich.lhs - worst) <= 1e-12
        assert theorem.passed == (lhs <= eps + symsum.PASS_SLACK * max(1.0, eps))
        assert sandwich.passed == (worst <= symsum.PASS_SLACK)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_extremal_family_reaches_n_over_n_plus_1(self, n, m):
        # A_1 = sqrt(n) P and A_j = sqrt(n/(n-1)) (I - P) for j >= 2, with P
        # a rank-one projection: normalized, C = n, and I - E_wo,2 =
        # P + (I - P)/(n-1)^2, so lhs = 1 against eps = (n+1)/n.  P = v v*
        # is idempotent only to rounding, and C and the spectrum carry a few
        # ulps of n <= 10; over 50 random P the largest miss of the ratio
        # was 1.7e-15, so the tolerance is 1e-13.
        rng = np.random.default_rng(100 * n + m)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v /= np.linalg.norm(v)
        p = np.outer(v, v.conj())
        fam = symsum.OperatorFamily(np.stack(
            [math.sqrt(n) * p] + [math.sqrt(n / (n - 1)) * (np.eye(m) - p)] * (n - 1)))
        reports = symsum.check_bounds(fam, 2)
        theorem = reports["theorem_bound"]
        assert abs(theorem.lhs / theorem.rhs - n / (n + 1)) <= 1e-13
        assert theorem.passed and reports["sandwich"].passed

    def test_epsilon_formula(self):
        rng = np.random.default_rng(16)
        fam = symsum.normalize_family(random_family(rng, 6, 2))
        c = fam.sup_gram_norm
        assert symsum.theorem_epsilon(fam, 4) == pytest.approx((1 + c) / 6 * 6.0)


# --------------------------------------------------------------------------
# Stacks of families


def report_fields(reports):
    """{(check, field): value} of check_bounds' verdicts and their passed,
    each broadcast to the shape of its lhs, arrays as lists."""
    return {(check, key): np.broadcast_to(value, np.shape(rep.lhs)).tolist()
            for check, rep in reports.items()
            for key, value in {**rep._asdict(), "passed": rep.passed}.items()}


class TestStacks:
    """A stack of families, ops of shape (k, n, m, m), goes through the code
    one family does.  Every GEMM and eigensolve multiplies or factors the
    matrices one family alone would, so the results are asserted bit for
    bit, not within a tolerance."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 4),
        n=st.integers(1, 6),
        m=st.integers(1, 8),
        d=st.integers(1, 5),
        side=st.sampled_from(["left", "right"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=3, n=6, m=8, d=5, side="left", seed=85)  # two blocks open at m = 8
    @example(k=2, n=5, m=7, d=1, side="right", seed=71)  # d = 1 walks nothing
    def test_stack_matches_one_call_per_family(self, strategy, k, n, m, d, side, seed):
        d = min(d, n)
        ops = oracles.side_operators(
            np.stack([random_family(np.random.default_rng([seed, i]), n, m) for i in range(k)]), side)
        errors = []
        for one in ops:
            try:
                symsum.normalize_family(one)
            except ValueError as exc:
                errors.append(str(exc))
        if errors:  # the stack fails as a loop over it first does
            with pytest.raises(ValueError) as exc:
                symsum.normalize_family(ops)
            assert str(exc.value) == errors[0]
            return
        stack = symsum.normalize_family(ops)
        singles = [symsum.normalize_family(one) for one in ops]
        assert np.array_equal(stack.ops, np.stack([fam.ops for fam in singles]))
        for name in ("normalization_residual", "sup_gram_norm"):
            assert getattr(stack, name).tolist() == [getattr(fam, name) for fam in singles]
        with pytest.MonkeyPatch.context() as patch:
            # every branch of the rule, at every drawn shape
            patch.setattr(symsum, "_strategy", lambda *shape: strategy)
            for mean in (symsum.e_wo, symsum.e_wr):
                assert np.array_equal(mean(stack, d), np.stack([mean(fam, d) for fam in singles]))
            fields = report_fields(symsum.check_bounds(stack, d))
            per_family = [report_fields(symsum.check_bounds(fam, d)) for fam in singles]
        for key, values in fields.items():
            assert values == [one[key] for one in per_family]

    def test_second_step_goes_to_the_families_that_need_it(self):
        # an ill-conditioned family (see the second-step test above) between
        # two well-conditioned ones: one step leaves it above the tolerance
        ill = random_family(np.random.default_rng(796777), 1, 3)
        well = [random_family(np.random.default_rng(seed), 1, 3) for seed in (1, 2)]
        once = [symsum._normalizing_step(symsum.OperatorFamily(ops))
                for ops in (well[0], ill, well[1])]
        assert [fam.normalized for fam in once] == [True, False, True]
        twice = symsum._normalizing_step(once[1])
        stack = symsum.normalize_family(np.stack([well[0], ill, well[1]]))
        for got, want in zip(stack.ops, (once[0].ops, twice.ops, once[2].ops)):
            assert np.array_equal(got, want)
        assert stack.normalized

    def test_stack_errors_name_the_first_failing_family(self):
        ops = np.stack([random_family(np.random.default_rng(3), 3, 2), np.zeros((3, 2, 2)),
                        1e-5 * np.ones((3, 2, 2))])
        with pytest.raises(ValueError, match=r"min eigenvalue 0\.000e\+00"):
            symsum.normalize_family(ops)
        skewed = np.zeros((3, 2, 2))
        skewed[1, 0, 1], skewed[2, 0, 1] = 2e-10, 3e-10
        with pytest.raises(ValueError, match=r"asymmetry residual 2\.000e-10"):
            hermitian_spectrum(skewed)


# --------------------------------------------------------------------------
# Deviation experiment


class TestDeviation:
    def test_exact_isometries_have_zero_deviation(self):
        (rep,) = symsum.deviation_experiment(8, 3, 0.0, [2], 2, 30, 17)
        assert rep.epsilon_hat <= 1e-12
        assert rep.delta_wo <= 1e-12
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_d_one_ratio_is_one(self):
        (rep,) = symsum.deviation_experiment(8, 3, 0.2, [1], 2, 30, 18)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError, match="trials"):
            symsum.deviation_experiment(8, 2, 0.0, [2], 2, 10, 19)
        with pytest.raises(ValueError, match="p"):
            symsum.deviation_experiment(8, 2, 0.0, [2], 3, 30, 19)
        with pytest.raises(ValueError, match="n/4"):
            symsum.deviation_experiment(8, 2, 0.0, [3], 2, 30, 19)

    @pytest.mark.parametrize("n, degrees, message", [
        (8, [2, 3], "n/4"),
        (32, [2, 7], "degree d must be in"),
        (32, [2, 0], "degree d must be in"),
    ])
    def test_every_degree_checked_before_any_draw(self, monkeypatch, n, degrees, message):
        draws = []
        original = symsum._perturbed_isometries

        def counted(streams, *args):
            draws.append(len(streams))
            return original(streams, *args)

        monkeypatch.setattr(symsum, "_perturbed_isometries", counted)
        with pytest.raises(ValueError, match=message):
            symsum.deviation_experiment(n, 2, 0.1, degrees, 2, 30, 19)
        assert draws == []
        # the wrapper sees the draws of a run that passes its checks, in
        # this process
        monkeypatch.setattr(workers, "blas_workers", lambda: 1)
        symsum.deviation_experiment(8, 2, 0.1, [2], 2, 30, 19)
        assert sum(draws) == 30

    @pytest.mark.parametrize("strength", [1e200, float("inf"), float("nan")])
    def test_strength_needs_a_finite_scale(self, strength):
        # 1 + strength^2 is not finite, so the scale 1/sqrt(1 + strength^2)
        # would be 0 (all-zero families) or nan
        with pytest.raises(ValueError, match="strength"):
            symsum.deviation_experiment(8, 2, strength, [2], 2, 30, 19)
        (rep,) = symsum.deviation_experiment(8, 2, 1e150, [2], 2, 30, 19)  # 1 + 1e300 is finite
        assert np.isfinite([rep.epsilon_hat, rep.delta_wo, rep.ratio]).all()

    def test_perturbed_sampler_moments(self):
        # E(A*A) = I by construction, so the mean Gram over many draws is
        # close to the identity
        (ops,) = symsum._perturbed_isometries([np.random.default_rng(20)], 2000, 3, 0.3)
        gram = np.mean(ops.conj().transpose(0, 2, 1) @ ops, axis=0)
        assert np.linalg.norm(gram - np.eye(3), 2) <= 0.05

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_samplers_match_per_operator_draws(self, m):
        # one stacked draw and QR reproduce the operator-by-operator loop
        def haar(rng):
            z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        def perturbed_loop(n, rng, strength=0.1):
            scale = 1.0 / np.sqrt(1.0 + strength * strength)
            ops = []
            for _ in range(n):
                u = haar(rng)
                g = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
                h = (g + g.conj().T) / np.sqrt(2.0 * m)
                ops.append(scale * (u @ (np.eye(m) + strength * h)))
            return np.stack(ops)

        for seed in range(5):
            (got,) = symsum._perturbed_isometries([np.random.default_rng(seed)], 32, m, 0.1)
            assert np.array_equal(got, perturbed_loop(32, np.random.default_rng(seed)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_strength_zero_is_exact(self, m):
        # at strength 0 each operator is its Haar factor, bit for bit
        for seed in range(5):
            (got,) = symsum._perturbed_isometries([np.random.default_rng(seed)], 8, m, 0.0)
            z = np.random.default_rng(seed).standard_normal((8, 4, m, m))
            assert np.array_equal(got, unitaries_from_gaussians(z[:, :2]))

    @settings(max_examples=60, deadline=None)
    @given(trials=st.integers(1, 4), n=st.integers(1, 6), m=st.integers(1, 5),
           strength=st.sampled_from([0.0, 0.1, 1.5]), seed=st.integers(0, 2**32 - 1))
    def test_stacked_draw_equals_per_stream_draws(self, trials, n, m, strength, seed):
        got = symsum._perturbed_isometries(np.random.default_rng(seed).spawn(trials), n, m,
                                           strength)
        want = [oracles.perturbed_family(n, m, strength, stream)
                for stream in np.random.default_rng(seed).spawn(trials)]
        assert got.shape == (trials, n, m, m)
        assert np.array_equal(got, np.stack(want))

    @pytest.mark.parametrize("shape", ["one trial", "partial stack", "capped stacks"])
    @pytest.mark.parametrize("strength", [0.0, 0.1])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_stacked_trials_keep_the_per_trial_bits(self, monkeypatch, m, strength, shape):
        # a trial-major share of degrees 1-4, measured as stacks of trials
        # per degree, equals each trial measured alone bit for bit
        n, degrees = 16, (1, 2, 3, 4)
        trials = 1 if shape == "one trial" else 5

        def share():
            streams = {d: np.random.default_rng([23, d]).spawn(trials) for d in degrees}
            return [(d, streams[d][t]) for t in range(trials) for d in degrees]

        expected = [oracles.deviation_trial(n, m, strength, d, stream) for d, stream in share()]
        stacks = []
        original = symsum._perturbed_isometries

        def recorded(streams, *args):
            stacks.append(len(streams))
            return original(streams, *args)

        monkeypatch.setattr(symsum, "_perturbed_isometries", recorded)
        if shape == "capped stacks":
            # two trials per stack; e_wr still sums each family in one group
            monkeypatch.setattr(symsum, "WR_GROUP_BYTES", 2 * 16 * n * m * m)
        got = symsum._deviation_share(n, m, strength, share())
        assert stacks == {"one trial": [1] * 4, "partial stack": [5] * 4,
                          "capped stacks": [2, 2, 1] * 4}[shape]
        assert len(got) == len(expected)
        for row, want in zip(got, expected):
            assert len(row) == 4
            for field, value in zip(row, want):
                assert np.array_equal(field, value)

    def test_workers_get_the_trials_trial_by_trial(self, monkeypatch):
        # trial-major items, so that each worker's consecutive share holds
        # every degree and no worker gets all the costly ones
        recorded = []
        original = workers.fork_map

        def recording(run, items, count):
            recorded.append([(d, stream.bit_generator.state) for d, stream in items])
            return original(run, items, count)

        monkeypatch.setattr(workers, "fork_map", recording)
        monkeypatch.setattr(workers, "blas_workers", lambda: 2)
        reports = symsum.deviation_experiment(12, 2, 0.1, [3, 2], 2, 30, 21)
        streams = {d: np.random.default_rng([21, d]).spawn(30) for d in (3, 2)}
        assert recorded == [[(d, streams[d][t].bit_generator.state)
                             for t in range(30) for d in (3, 2)]]
        # each degree reduces its own trials, as when it is alone in the list
        for rep, d in zip(reports, (3, 2)):
            assert rep == symsum.deviation_experiment(12, 2, 0.1, [d], 2, 30, 21)[0]

    def test_deterministic(self):
        a = symsum.deviation_experiment(8, 2, 0.1, [2], 2, 30, 21)
        b = symsum.deviation_experiment(8, 2, 0.1, [2], 2, 30, 21)
        assert a == b
        # each degree draws from its own stream, whatever else the list holds
        assert symsum.deviation_experiment(8, 2, 0.1, [1, 2], 2, 30, 21)[1] == a[0]
