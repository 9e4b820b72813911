"""Empirical Rademacher estimation: exact enumeration, Monte-Carlo, pools,
and the comparison harness.  Samples are arrays of packed point indices."""

import itertools
import math

import numpy as np
import pytest
from helpers import reference_rademacher, reference_sign_sups
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseact import (
    CapacityError,
    ClassParams,
    CubeFunction,
    HypothesisPool,
    SparseNet,
    compare_to_bound,
    empirical_rademacher,
    rademacher_bound,
    rademacher_lab,
    random_sparse_pool,
    verify_sparsity,
)
from sparseact.config import MAX_EXHAUSTIVE_N, MC_CHUNK, MC_SIGMA, REL_TOL_EXACT
from sparseact.rademacher_lab import _sign_sups


class ConstantPredictor:
    def __init__(self, n, c):
        self.n = n
        self.c = c

    def eval_indices(self, idx):
        return np.full(len(idx), self.c)


def constant_pool(n, values):
    members = tuple(ConstantPredictor(n, v) for v in values)
    return HypothesisPool(
        members=members, n=n, s=1, k=1, W=0.0, B=max(abs(v) for v in values)
    )


class TestEmpiricalRademacher:
    def test_zero_pool_is_exactly_zero(self):
        pool = constant_pool(3, [0.0])
        S = np.arange(5)
        exact = empirical_rademacher(pool, S, trials=0, mode="exact")
        assert exact.mean == 0.0 and exact.stderr == 0.0
        mc = empirical_rademacher(
            pool, S, trials=500, rng=np.random.default_rng(0), mode="mc"
        )
        assert mc.mean == 0.0

    def test_plus_minus_constant_enumeration_oracle(self):
        # max over {+c, -c} of (c/m) sum z_i = (c/m) |sum z_i|
        c, m = 2.0, 4
        pool = constant_pool(3, [c, -c])
        S = np.arange(m) % 8
        est = empirical_rademacher(pool, S, trials=0, mode="exact")
        want = np.mean(
            [abs(sum(z)) * c / m for z in itertools.product([-1, 1], repeat=m)]
        )
        assert est.mean == pytest.approx(want, rel=1e-12)
        assert est.trials == 2**m

    def test_pool_growth_is_monotone(self):
        rng = np.random.default_rng(1)
        nets = [
            SparseNet(
                n=4, s=2, k=2,
                u=rng.uniform(-1, 1, 2), w=rng.normal(size=(2, 4)), b=rng.normal(size=2),
            )
            for _ in range(4)
        ]
        small = HypothesisPool(members=tuple(nets[:2]), n=4, s=2, k=2, W=5.0, B=5.0)
        large = HypothesisPool(members=tuple(nets), n=4, s=2, k=2, W=5.0, B=5.0)
        S = np.array([0, 3, 7, 9, 12])
        est_small = empirical_rademacher(small, S, trials=0, mode="exact")
        est_large = empirical_rademacher(large, S, trials=0, mode="exact")
        assert est_small.mean <= est_large.mean + 1e-15

    def test_exact_matches_monte_carlo(self):
        rng = np.random.default_rng(2)
        nets = [
            SparseNet(
                n=5, s=2, k=2,
                u=rng.uniform(-1, 1, 2), w=rng.normal(size=(2, 5)), b=rng.normal(size=2),
            )
            for _ in range(6)
        ]
        pool = HypothesisPool(members=tuple(nets), n=5, s=2, k=2, W=5.0, B=5.0)
        S = rng.integers(0, 32, size=10)
        exact = empirical_rademacher(pool, S, trials=0, mode="exact")
        mc = empirical_rademacher(pool, S, trials=20_000, rng=rng, mode="mc")
        assert abs(exact.mean - mc.mean) <= 4 * mc.stderr

    def test_sign_symmetric_pool_nonnegative(self):
        rng = np.random.default_rng(3)
        net = SparseNet(
            n=4, s=3, k=3,
            u=rng.uniform(-1, 1, 3), w=rng.normal(size=(3, 4)), b=rng.normal(size=3),
        )
        negated = SparseNet(n=4, s=3, k=3, u=-net.u, w=net.w, b=net.b)
        pool = HypothesisPool(members=(net, negated), n=4, s=3, k=3, W=5.0, B=5.0)
        S = np.array([1, 2, 8, 13])
        est = empirical_rademacher(pool, S, trials=0, mode="exact")
        assert est.mean >= 0.0

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(4)
        net = SparseNet(
            n=4, s=2, k=2,
            u=rng.uniform(-1, 1, 2), w=rng.normal(size=(2, 4)), b=rng.normal(size=2),
        )
        pool = HypothesisPool(members=(net,), n=4, s=2, k=2, W=5.0, B=5.0)
        S = np.array([0, 5, 9, 14, 2])
        a = empirical_rademacher(pool, S, trials=0, mode="exact")
        b = empirical_rademacher(pool, S[::-1], trials=0, mode="exact")
        assert a.mean == pytest.approx(b.mean, rel=1e-12)

    def test_scaled_estimate_bounded_over_grid(self):
        rng = np.random.default_rng(5)
        pool = random_sparse_pool(ClassParams(n=6, s=4, k=1), 8, rng)
        scaled = []
        for m in (8, 32, 128):
            S = rng.integers(0, 1 << 6, size=m)
            est = empirical_rademacher(pool, S, trials=4000, rng=rng, mode="mc")
            scaled.append((est.mean + 4 * est.stderr) * np.sqrt(m))
        cap = scaled[0] * 1.5
        assert all(v <= cap for v in scaled)

    def test_mode_and_argument_errors(self):
        pool = constant_pool(3, [1.0])
        S = np.array([0])
        with pytest.raises(ValueError):
            empirical_rademacher(pool, S, trials=10, mode="bogus")
        with pytest.raises(ValueError):
            empirical_rademacher(pool, S, trials=10, mode="mc")  # no rng
        with pytest.raises(ValueError):
            empirical_rademacher(pool, [], trials=10, mode="exact")

    def test_stderr_scales_with_trials(self):
        rng = np.random.default_rng(13)
        pool = constant_pool(4, [1.0, -1.0])
        S = np.arange(9) % 16
        a = empirical_rademacher(pool, S, trials=5_000, rng=rng, mode="mc")
        b = empirical_rademacher(pool, S, trials=20_000, rng=rng, mode="mc")
        assert abs(a.stderr / b.stderr - 2.0) < 0.4

    def test_threads_do_not_change_result(self):
        rng_a = np.random.default_rng(6)
        rng_b = np.random.default_rng(6)
        pool = constant_pool(4, [1.0, -1.0])
        S = np.arange(20) % 16
        a = empirical_rademacher(pool, S, trials=40_000, rng=rng_a, mode="mc", threads=1)
        b = empirical_rademacher(pool, S, trials=40_000, rng=rng_b, mode="mc", threads=4)
        assert a.mean == b.mean and a.stderr == b.stderr


def table_pool(H):
    """A pool whose value matrix on the sample ``np.arange(m)`` is H."""
    pool_size, m = H.shape
    n = max(1, (m - 1).bit_length())
    rows = np.zeros((pool_size, 1 << n))
    rows[:, :m] = H
    members = tuple(CubeFunction(n, row) for row in rows)
    return HypothesisPool(members=members, n=n, s=1, k=1, W=0.0, B=1.0)


class TestSlicedSignDraws:
    @pytest.mark.parametrize("m", [1, 3, 7, 384, 1000])
    def test_matches_one_block(self, m):
        # integer values make every <z, h> exact whatever order BLAS sums
        # in, so the sups agree bit for bit exactly when the sign rows do;
        # m = 3 slices 65535 entries, an odd count, so the generator's
        # buffered half-word carries from one slice into the next
        H = np.random.default_rng(m).integers(-3, 4, size=(5, m)).astype(np.float64)
        count = min(MC_CHUNK, (1 << 21) // m)
        got = _sign_sups(H, count, np.random.default_rng(2))
        assert np.array_equal(got, reference_sign_sups(H, count, np.random.default_rng(2)))

    @pytest.mark.parametrize("m", [7, 384, 1000])
    def test_real_values_within_rounding(self, m):
        # BLAS may sum a slice-sized product in another order than the
        # whole chunk's, which moves the last bits of a sup
        H = np.random.default_rng(m).standard_normal((5, m))
        count = min(MC_CHUNK, (1 << 21) // m)
        got = _sign_sups(H, count, np.random.default_rng(2))
        want = reference_sign_sups(H, count, np.random.default_rng(2))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(H).sum(axis=1).max() / m)


class TestExactEnumeration:
    """Exact mode on the whole-cube kernel against the sign-table oracle."""

    @given(st.integers(1, 16), st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_dyadic_values_match_sign_table_oracle_exactly(self, m, pool_size, data):
        eighths = data.draw(
            st.lists(st.integers(-64, 64), min_size=pool_size * m, max_size=pool_size * m)
        )
        H = np.array(eighths, dtype=np.float64).reshape(pool_size, m) / 8
        est = empirical_rademacher(table_pool(H), np.arange(m), trials=0, mode="exact")
        assert est.mean == reference_rademacher(H)
        assert est.stderr == 0.0 and est.trials == 1 << m and est.m == m

    @given(st.integers(1, 16), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gaussian_values_match_sign_table_oracle(self, m, pool_size, seed):
        H = np.random.default_rng(seed).normal(size=(pool_size, m))
        est = empirical_rademacher(table_pool(H), np.arange(m), trials=0, mode="exact")
        want = reference_rademacher(H)
        assert abs(est.mean - want) <= REL_TOL_EXACT * max(abs(want), 1.0)

    def test_exact_matches_monte_carlo_at_m20(self):
        rng = np.random.default_rng(20)
        pool = random_sparse_pool(ClassParams(n=8, s=8, k=1), 8, rng)
        S = rng.integers(0, 1 << 8, size=20)
        exact = empirical_rademacher(pool, S, trials=0, mode="exact")
        mc = empirical_rademacher(pool, S, trials=40_000, rng=rng, mode="mc")
        assert exact.trials == 1 << 20
        assert abs(exact.mean - mc.mean) <= MC_SIGMA * mc.stderr

    def test_exact_cap_is_capacity_error(self):
        pool = constant_pool(3, [1.0])
        S = np.zeros(MAX_EXHAUSTIVE_N + 1, dtype=np.int64)
        with pytest.raises(CapacityError):
            empirical_rademacher(pool, S, trials=0, mode="exact")

    def test_auto_is_exact_through_the_cap(self):
        # max over {+c, -c} of (c/m) sum z_i = (c/m) |sum z_i|, summed exactly
        c, m = 2.0, MAX_EXHAUSTIVE_N
        pool = constant_pool(3, [c, -c])
        est = empirical_rademacher(pool, np.zeros(m, dtype=np.int64), trials=100)
        want = c * sum(math.comb(m, j) * abs(m - 2 * j) for j in range(m + 1)) / (m << m)
        assert est.stderr == 0.0 and est.trials == 1 << m
        assert abs(est.mean - want) <= REL_TOL_EXACT * want

    def test_auto_is_monte_carlo_past_the_cap(self):
        pool = constant_pool(3, [1.0, -1.0])
        S = np.zeros(MAX_EXHAUSTIVE_N + 1, dtype=np.int64)
        est = empirical_rademacher(pool, S, trials=100, rng=np.random.default_rng(0))
        assert est.trials == 100 and est.stderr > 0.0


class TestSampleIndices:
    @pytest.mark.parametrize(
        "idx",
        [np.array([0.0, 1.0]), np.array([[0, 1]]), np.array([], dtype=np.int64),
         np.array([8]), np.array([-1]), [True]],
        ids=["float", "2-d", "empty", "past-end", "negative", "bool"],
    )
    def test_bad_index_arrays_rejected(self, idx):
        pool = constant_pool(3, [1.0])
        with pytest.raises(ValueError):
            pool.value_matrix(idx)
        with pytest.raises(ValueError):
            empirical_rademacher(pool, idx, trials=0, mode="exact")


class TestRandomSparsePool:
    def test_single_member(self):
        rng = np.random.default_rng(7)
        pool = random_sparse_pool(ClassParams(n=6, s=4, k=1), 1, rng)
        assert len(pool.members) == 1
        report = verify_sparsity(pool.members[0], 1, "exhaustive")
        assert report.max_active <= 1

    def test_envelope_dominates_members(self):
        rng = np.random.default_rng(8)
        pool = random_sparse_pool(ClassParams(n=8, s=8, k=1), 6, rng)
        for member in pool.members:
            scale = member.scale_params()
            assert scale.W <= pool.W + 1e-12
            assert scale.B <= pool.B + 1e-12

    def test_all_members_verified_at_level(self):
        rng = np.random.default_rng(9)
        params = ClassParams(n=7, s=9, k=2)
        pool = random_sparse_pool(params, 5, rng)
        for member in pool.members:
            assert verify_sparsity(member, 2, "exhaustive").max_active <= 2
            assert member.s <= params.s

    def test_count_validation(self):
        with pytest.raises(ValueError):
            random_sparse_pool(ClassParams(n=4, s=4), 0, np.random.default_rng(0))


class TestCompareToBound:
    def test_bound_column_matches_formula(self):
        rng = np.random.default_rng(10)
        pool = random_sparse_pool(ClassParams(n=6, s=4, k=1), 4, rng)
        rows = compare_to_bound(pool, [8, 32], trials=400, rng=rng)
        for row in rows:
            want = rademacher_bound(
                ClassParams(n=6, s=4, k=1, W=pool.W, B=pool.B, m=row["m"])
            )
            assert row["bound"] == want
            assert row["ratio"] == row["estimate"] / want

    def test_zero_pool_rows(self):
        pool = constant_pool(4, [0.0])
        pool = HypothesisPool(members=pool.members, n=4, s=1, k=1, W=1.0, B=1.0)
        rows = compare_to_bound(pool, [4, 16], trials=200, rng=np.random.default_rng(11))
        assert all(row["estimate"] == 0.0 for row in rows)

    def test_quadrupling_m_roughly_halves_estimate(self):
        rng = np.random.default_rng(12)
        pool = random_sparse_pool(ClassParams(n=8, s=8, k=1), 16, rng)
        rows = compare_to_bound(pool, [24, 96], trials=4000, rng=rng)
        ratio = rows[0]["estimate"] / rows[1]["estimate"]
        assert 1.6 <= ratio <= 2.4

    @pytest.mark.parametrize("grid", [[0], [1], [-3], [1, 4], [4, 8, 1]])
    def test_grid_below_two_refused_before_any_estimate(self, monkeypatch, grid):
        def estimate(*args, **kwargs):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(rademacher_lab, "empirical_rademacher", estimate)
        with pytest.raises(ValueError, match=r"sizes >= 2, got \["):
            compare_to_bound(constant_pool(4, [1.0]), grid, 10, np.random.default_rng(0))

    def test_grid_must_increase(self):
        pool = constant_pool(4, [1.0])
        with pytest.raises(ValueError):
            compare_to_bound(pool, [16, 8], trials=10, rng=np.random.default_rng(0))
