"""Points, characters, and the three samplers."""

import numpy as np
import pytest
from helpers import chi
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseact import (
    CubePoint,
    sample_bucket_pair,
    sample_noisy,
    sample_uniform,
)
from sparseact.hypercube import index_signs, pack_bits, pack_signs, sign_table
from sparseact.learners import _character


class TestCubePoint:
    def test_flip_definition(self):
        assert list(CubePoint.from_signs([1, 1]).flip(1)) == [-1, 1]
        assert list(CubePoint.from_signs([-1, -1, -1]).flip(3)) == [-1, -1, 1]

    @given(st.integers(1, 10), st.data())
    @settings(deadline=None)
    def test_flip_involution_and_distance(self, n, data):
        index = data.draw(st.integers(0, (1 << n) - 1))
        i = data.draw(st.integers(1, n))
        x = CubePoint(n, index)
        y = x.flip(i)
        assert y.flip(i) == x
        assert bin(x.index ^ y.index).count("1") == 1

    def test_flip_out_of_range(self):
        x = CubePoint.from_signs([1, 1])
        with pytest.raises(ValueError):
            x.flip(0)
        with pytest.raises(ValueError):
            x.flip(3)

    @given(st.integers(1, 12), st.data())
    @settings(deadline=None)
    def test_index_round_trip(self, n, data):
        index = data.draw(st.integers(0, (1 << n) - 1))
        x = CubePoint(n, index)
        assert CubePoint.from_signs(x.signs()) == x

    def test_encoding_convention(self):
        # coordinate i is +1 exactly when bit i-1 of the index is 0
        x = CubePoint(3, 0b101)
        assert list(x) == [-1, 1, -1]

    def test_sign_table_matches_points(self):
        table = sign_table(4)
        for u in (0, 5, 9, 15):
            assert np.array_equal(table[u], CubePoint(4, u).signs())

    def test_pack_signs_inverts_table(self):
        table = sign_table(5)
        assert np.array_equal(pack_signs(table), np.arange(32))

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            CubePoint.from_signs([1, 0])
        with pytest.raises(ValueError):
            CubePoint(2, 4)


class TestEncodingKernels:
    @given(st.integers(1, 24), st.data())
    @settings(deadline=None)
    def test_index_signs_matches_points_and_pack_bits_inverts(self, n, data):
        idx = np.array(
            data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16)),
            dtype=np.int64,
        )
        signs = index_signs(idx, n)
        assert signs.dtype == np.int8 and signs.shape == (idx.size, n)
        for row, u in zip(signs, idx):
            x = CubePoint(n, int(u))
            assert [int(s) for s in row] == [x.sign(i) for i in range(1, n + 1)]
        assert np.array_equal(pack_bits(signs < 0), idx)

    def test_index_signs_keeps_the_index_shape(self):
        assert index_signs(5, 3).tolist() == [-1, 1, -1]
        grid = index_signs(np.arange(8).reshape(2, 4), 3)
        assert grid.shape == (2, 4, 3)
        assert np.array_equal(grid.reshape(8, 3), sign_table(3))


class TestCharacter:
    """``learners._character``, the one character kernel, against the
    popcount-parity oracle; subsets are bitmasks."""

    def test_empty_subset_is_one(self):
        assert np.array_equal(_character(np.arange(8), 0), np.ones(8))

    def test_singleton(self):
        assert _character(np.array([CubePoint.from_signs([-1, 1]).index]), 0b01)[0] == -1

    def test_pair(self):
        assert _character(np.array([CubePoint.from_signs([-1, -1, 1]).index]), 0b011)[0] == 1

    def test_orthogonality_sums(self):
        n = 4
        for mask in range(1 << n):
            total = _character(np.arange(1 << n), mask).sum()
            assert total == ((1 << n) if mask == 0 else 0)

    @given(st.integers(1, 62), st.data())
    @settings(deadline=None)
    def test_multiplicative_on_symmetric_difference(self, n, data):
        a, b = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
        idx = np.array(
            data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8)),
            dtype=np.int64,
        )
        assert np.array_equal(_character(idx, a) * _character(idx, b), _character(idx, a ^ b))
        assert _character(idx, a).tolist() == [chi(a, int(u)) for u in idx]


class TestSampleUniform:
    def test_support_n1(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert list(sample_uniform(1, rng)) in ([1], [-1])

    def test_deterministic(self):
        a = sample_uniform(8, np.random.default_rng(123))
        b = sample_uniform(8, np.random.default_rng(123))
        assert a == b

    def test_coordinate_means(self):
        # binomial standard error: 1/sqrt(N) per coordinate, 4 sigma slack
        rng = np.random.default_rng(42)
        N = 100_000
        sums = np.zeros(4)
        for _ in range(N):
            sums += sample_uniform(4, rng).signs()
        assert np.all(np.abs(sums / N) < 4.0 / np.sqrt(N))

    def test_range_check(self):
        with pytest.raises(ValueError):
            sample_uniform(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_uniform(25, np.random.default_rng(0))


class TestSampleNoisy:
    def test_rho_one_identity(self):
        rng = np.random.default_rng(1)
        x = CubePoint.from_signs([1, -1, 1, 1])
        for _ in range(20):
            assert sample_noisy(x, 1.0, rng) == x

    def test_rho_minus_one_negation(self):
        rng = np.random.default_rng(1)
        x = CubePoint.from_signs([1, -1, 1, 1])
        minus_x = CubePoint.from_signs([-1, 1, -1, -1])
        for _ in range(20):
            assert sample_noisy(x, -1.0, rng) == minus_x

    def test_rho_zero_flip_rate(self):
        rng = np.random.default_rng(7)
        x = CubePoint.from_signs([1, 1, 1, 1])
        N = 100_000
        flips = np.zeros(4)
        for _ in range(N):
            y = sample_noisy(x, 0.0, rng)
            flips += x.signs() != y.signs()
        sigma = 0.5 / np.sqrt(N)
        assert np.all(np.abs(flips / N - 0.5) < 4 * sigma)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_noisy(CubePoint(2, 0), 1.5, np.random.default_rng(0))


class TestBucketPair:
    @pytest.mark.parametrize("rho,r_want", [(0.0, 2), (0.5, 4)])
    def test_flip_rate_matches_one_over_r(self, rho, r_want):
        rng = np.random.default_rng(11)
        n, N = 6, 100_000
        flips = np.zeros(n)
        for _ in range(N):
            x, y, r, b = sample_bucket_pair(n, rho, rng)
            assert r == r_want
            assert 1 <= b <= r
            flips += x.signs() != y.signs()
        p = 1.0 / r_want
        sigma = np.sqrt(p * (1 - p) / N)
        assert np.all(np.abs(flips / N - p) < 4 * sigma)

    def test_marginal_x_uniform(self):
        rng = np.random.default_rng(13)
        n, N = 6, 100_000
        sums = np.zeros(n)
        for _ in range(N):
            x, _, _, _ = sample_bucket_pair(n, 0.5, rng)
            sums += x.signs()
        assert np.all(np.abs(sums / N) < 4.0 / np.sqrt(N))

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            sample_bucket_pair(4, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_bucket_pair(4, -0.1, np.random.default_rng(0))

    def test_pairwise_independence_chi_square(self):
        # flip indicators for distinct coordinates should be independent
        # Bernoulli(1/r); 2x2 contingency chi-square at the 0.001 level
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(17)
        n, N = 5, 50_000
        indicators = np.zeros((N, n), dtype=bool)
        for t in range(N):
            x, y, r, _ = sample_bucket_pair(n, 0.5, rng)
            indicators[t] = x.signs() != y.signs()
        for i in range(n):
            for j in range(i + 1, n):
                table = np.array(
                    [
                        [
                            np.sum(indicators[:, i] & indicators[:, j]),
                            np.sum(indicators[:, i] & ~indicators[:, j]),
                        ],
                        [
                            np.sum(~indicators[:, i] & indicators[:, j]),
                            np.sum(~indicators[:, i] & ~indicators[:, j]),
                        ],
                    ]
                )
                _, pvalue, _, _ = scipy_stats.chi2_contingency(table)
                assert pvalue > 0.001

    def test_deterministic(self):
        a = sample_bucket_pair(8, 0.5, np.random.default_rng(99))
        b = sample_bucket_pair(8, 0.5, np.random.default_rng(99))
        assert a == b
