"""Points, characters, the three samplers, and how value types hold arrays."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    Point,
    chi,
    reference_alias_flip_masks,
    reference_bucket_pair,
    reference_flip_masks,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseact import (
    CubeFunction,
    CubePoint,
    Dataset,
    JuntaSpec,
    MonomialModel,
    SparseNet,
    Spectrum,
    noise_sensitivity_mc,
    parity_lift,
    sample_bucket_pair,
    sample_uniform_dataset,
)
from sparseact.config import MAX_PACKED_N
from sparseact.hypercube import (
    _byte_alias_table,
    flip_sampler,
    index_signs,
    pack_bits,
    packed_indices,
    sign_table,
)
from sparseact.learners import _character


class TestCubePoint:
    """``CubePoint`` and the scalar ``helpers.Point`` the oracles use."""

    def test_flip_definition(self):
        assert list(Point.from_signs([1, 1]).flip(1)) == [-1, 1]
        assert list(Point.from_signs([-1, -1, -1]).flip(3)) == [-1, -1, 1]

    @given(st.integers(1, 10), st.data())
    @settings(deadline=None)
    def test_flip_involution_and_distance(self, n, data):
        index = data.draw(st.integers(0, (1 << n) - 1))
        i = data.draw(st.integers(1, n))
        x = Point(n, index)
        y = x.flip(i)
        assert y.flip(i) == x
        assert bin(x.index ^ y.index).count("1") == 1

    def test_flip_out_of_range(self):
        x = Point.from_signs([1, 1])
        with pytest.raises(ValueError):
            x.flip(0)
        with pytest.raises(ValueError):
            x.flip(3)

    @given(st.integers(1, 12), st.data())
    @settings(deadline=None)
    def test_index_round_trip(self, n, data):
        index = data.draw(st.integers(0, (1 << n) - 1))
        x = CubePoint(n, index)
        assert Point.from_signs(x.signs()) == Point(n, index)

    def test_encoding_convention(self):
        # coordinate i is +1 exactly when bit i-1 of the index is 0
        x = CubePoint(3, 0b101)
        assert list(x.signs()) == [-1, 1, -1]

    def test_sign_table_matches_points(self):
        table = sign_table(4)
        for u in (0, 5, 9, 15):
            assert np.array_equal(table[u], CubePoint(4, u).signs())

    def test_pack_signs_inverts_table(self):
        table = sign_table(5)
        assert np.array_equal(pack_bits(table < 0), np.arange(32))

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            Point.from_signs([1, 0])
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
            x = Point(n, int(u))
            assert [int(s) for s in row] == [x.sign(i) for i in range(1, n + 1)]
        assert np.array_equal(pack_bits(signs < 0), idx)

    def test_index_signs_keeps_the_index_shape(self):
        assert index_signs(5, 3).tolist() == [-1, 1, -1]
        grid = index_signs(np.arange(8).reshape(2, 4), 3)
        assert grid.shape == (2, 4, 3)
        assert np.array_equal(grid.reshape(8, 3), sign_table(3))

    @given(st.integers(1, MAX_PACKED_N), st.data())
    @settings(deadline=None)
    def test_packed_indices_range_is_exact(self, n, data):
        near = st.sampled_from([-(1 << 63), -1, 0, (1 << n) - 1, 1 << n, (1 << 63) - 1])
        values = data.draw(st.lists(near | st.integers(-(1 << 63), (1 << 63) - 1),
                                    min_size=1, max_size=8))
        idx = np.array(values, dtype=np.int64)
        if all(0 <= v < 1 << n for v in values):
            assert packed_indices(idx, n) is idx
        else:
            with pytest.raises(ValueError, match="out of range"):
                packed_indices(idx, n)

    def test_packed_indices_refuses_wrapped_uint64(self):
        with pytest.raises(ValueError, match="out of range"):
            packed_indices(np.array([1 << 63], dtype=np.uint64), MAX_PACKED_N)


class TestCharacter:
    """``learners._character``, the one character kernel, against the
    popcount-parity oracle; subsets are bitmasks."""

    def test_empty_subset_is_one(self):
        assert np.array_equal(_character(np.arange(8), 0), np.ones(8))

    def test_singleton(self):
        assert _character(np.array([Point.from_signs([-1, 1]).index]), 0b01)[0] == -1

    def test_pair(self):
        assert _character(np.array([Point.from_signs([-1, -1, 1]).index]), 0b011)[0] == 1

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


def _uniform_idx(n, m, rng):
    """m uniform packed points of {-1,+1}^n from the dataset sampler."""
    return sample_uniform_dataset(lambda u: 0.0, n, m, rng).idx


class TestSampleUniform:
    def test_support_n1(self):
        rng = np.random.default_rng(0)
        for u in _uniform_idx(1, 10, rng):
            assert list(Point(1, int(u))) in ([1], [-1])

    def test_deterministic(self):
        a = _uniform_idx(8, 1, np.random.default_rng(123))
        b = _uniform_idx(8, 1, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_coordinate_means(self):
        # binomial standard error: 1/sqrt(N) per coordinate, 4 sigma slack
        rng = np.random.default_rng(42)
        N = 100_000
        idx = sample_uniform_dataset(CubeFunction(4, np.zeros(16)), 4, N, rng).idx
        sums = index_signs(idx, 4).sum(axis=0, dtype=np.int64)
        assert np.all(np.abs(sums / N) < 4.0 / np.sqrt(N))

    def test_range_check(self):
        with pytest.raises(ValueError):
            _uniform_idx(0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            _uniform_idx(MAX_PACKED_N + 1, 4, np.random.default_rng(0))


class TestSampleNoisy:
    """The noise operator's flips: ``flip_sampler`` at p = (1 - rho)/2."""

    def test_rho_one_identity(self):
        rng = np.random.default_rng(1)
        x = Point.from_signs([1, -1, 1, 1]).index
        assert np.all(x ^ flip_sampler(4, 0.0)(20, rng) == x)

    def test_rho_minus_one_negation(self):
        rng = np.random.default_rng(1)
        x = Point.from_signs([1, -1, 1, 1]).index
        minus_x = Point.from_signs([-1, 1, -1, -1]).index
        assert np.all(x ^ flip_sampler(4, 1.0)(20, rng) == minus_x)

    def test_rho_zero_flip_rate(self):
        rng = np.random.default_rng(7)
        x = Point.from_signs([1, 1, 1, 1])
        N = 100_000
        y = x.index ^ flip_sampler(4, 0.5)(N, rng)
        flips = (index_signs(y, 4) != x.signs()).sum(axis=0)
        sigma = 0.5 / np.sqrt(N)
        assert np.all(np.abs(flips / N - 0.5) < 4 * sigma)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            noise_sensitivity_mc(CubeFunction(2, np.zeros(4)), 1.5, 10, np.random.default_rng(0))


def _byte_law(p: float) -> list:
    """Exact probability of each byte mask under ``_byte_alias_table(p)``:
    column c, chosen with chance 1/256, gives c with chance thresh[c] / 2^56
    and its alias otherwise."""
    thresh, pick = _byte_alias_table(p)
    law = [Fraction(0)] * 256
    for c in range(256):
        keep = Fraction(int(thresh[c]), 1 << 56)
        law[c] += keep / 256
        law[int(pick[2 * c])] += (1 - keep) / 256
    assert [int(v) for v in pick[1::2]] == list(range(256))
    return law


def _assert_byte_law_exact(p: float) -> None:
    law, fp = _byte_law(p), Fraction(p)
    assert sum(law) == 1
    for m, prob in enumerate(law):
        k = m.bit_count()
        assert abs(prob - fp**k * (1 - fp) ** (8 - k)) < Fraction(1, 1 << 56), (p, m)


class TestFlipMasks:
    """``flip_sampler``'s masks against the law of n independent Bernoulli(p)
    flips, which ``helpers.reference_flip_masks`` draws a double at a time, and
    bit for bit against ``helpers.reference_alias_flip_masks``, which resolves
    the same raw words one at a time."""

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 0.05, 0.2, 0.35, 0.5, 1 - 1e-16, 1.0])
    def test_byte_law_exact(self, p):
        _assert_byte_law_exact(p)

    @given(st.floats(0.0, 1.0))
    @settings(deadline=None)
    def test_byte_law_exact_any_p(self, p):
        _assert_byte_law_exact(p)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", range(1, MAX_PACKED_N + 1))
    def test_matches_pack_bits(self, n, p):
        # the vectorised draw against the same words resolved one at a time
        got = flip_sampler(n, p)(300, np.random.default_rng(n))
        want = reference_alias_flip_masks(n, p, 300, np.random.default_rng(n))
        assert got.dtype == np.int64 and np.array_equal(got, want)
        if p in (0.0, 1.0):
            # certain flips: no mask, or all n bits, as the Bernoulli oracle packs them
            bernoulli = reference_flip_masks(n, p, 300, np.random.default_rng(n))
            assert np.array_equal(got, bernoulli)
            assert np.array_equal(got, np.full(300, 0 if p == 0.0 else (1 << n) - 1))

    @given(st.integers(1, MAX_PACKED_N), st.floats(0.0, 1.0), st.integers(0, 64), st.data())
    @settings(deadline=None)
    def test_leaves_generator_where_pack_bits_does(self, n, p, count, data):
        seed = data.draw(st.integers(0, 2**32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = flip_sampler(n, p)(count, a)
        assert np.array_equal(got, reference_alias_flip_masks(n, p, count, b))
        assert a.random() == b.random()

    @pytest.mark.parametrize("n", range(1, MAX_PACKED_N + 1))
    def test_range_and_words_drawn(self, n):
        # exactly one raw 64-bit word per byte of each row, nothing more
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        draw = flip_sampler(n, 0.3)
        assert draw(0, a).shape == (0,)
        masks = draw(300, a)
        assert masks.dtype == np.int64 and masks.shape == (300,)
        assert masks.min() >= 0 and masks.max() < 1 << n
        b.bit_generator.advance(300 * -(-n // 8))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n, p, seed", [(16, 0.3, 5), (16, 0.05, 6), (21, 0.3, 7), (21, 0.9, 8)])
    def test_flip_rates(self, n, p, seed):
        # binomial standard error per coordinate, 4 sigma slack
        N = 200_000
        masks = flip_sampler(n, p)(N, np.random.default_rng(seed))
        rates = ((masks[:, None] >> np.arange(n)) & 1).mean(axis=0)
        assert np.all(np.abs(rates - p) < 4 * np.sqrt(p * (1 - p) / N))

    @pytest.mark.parametrize("n, seed", [(16, 9), (21, 10)])
    def test_byte_masks_chi_square(self, n, seed):
        # each byte group of the masks against the product law, at the 0.001 level
        scipy_stats = pytest.importorskip("scipy.stats")
        p, N = 0.3, 200_000
        masks = flip_sampler(n, p)(N, np.random.default_rng(seed))
        for lo in range(0, n, 8):
            width = min(8, n - lo)
            counts = np.bincount((masks >> lo) & ((1 << width) - 1), minlength=1 << width)
            k = np.array([m.bit_count() for m in range(1 << width)])
            expected = N * p**k * (1 - p) ** (width - k)
            _, pvalue = scipy_stats.chisquare(counts, expected * (N / expected.sum()))
            assert pvalue > 0.001, (width, pvalue)

    @pytest.mark.parametrize("n", [0, MAX_PACKED_N + 1])
    def test_dimension_range(self, n):
        with pytest.raises(ValueError):
            flip_sampler(n, 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_probability_range(self, p):
        with pytest.raises(ValueError):
            flip_sampler(4, p)


class TestBucketPair:
    @pytest.mark.parametrize("rho,r_want", [(0.0, 2), (0.5, 4)])
    def test_flip_rate_matches_one_over_r(self, rho, r_want):
        rng = np.random.default_rng(11)
        n, N = 6, 100_000
        xs = np.empty(N, dtype=np.int64)
        ys = np.empty(N, dtype=np.int64)
        for t in range(N):
            x, y, r, b = sample_bucket_pair(n, rho, rng)
            assert r == r_want
            assert 1 <= b <= r
            xs[t], ys[t] = x.index, y.index
        flips = (index_signs(xs ^ ys, n) < 0).sum(axis=0)
        p = 1.0 / r_want
        sigma = np.sqrt(p * (1 - p) / N)
        assert np.all(np.abs(flips / N - p) < 4 * sigma)

    def test_marginal_x_uniform(self):
        rng = np.random.default_rng(13)
        n, N = 6, 100_000
        xs = np.empty(N, dtype=np.int64)
        for t in range(N):
            x, _, _, _ = sample_bucket_pair(n, 0.5, rng)
            xs[t] = x.index
        sums = index_signs(xs, n).sum(axis=0)
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
        xs = np.empty(N, dtype=np.int64)
        ys = np.empty(N, dtype=np.int64)
        for t in range(N):
            x, y, r, _ = sample_bucket_pair(n, 0.5, rng)
            xs[t], ys[t] = x.index, y.index
        indicators = index_signs(xs ^ ys, n) < 0  # coordinates where x and y differ
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

    def test_memory_bounded_as_rho_nears_one(self):
        rho = 1.0 - 2.0**-19  # r = 2^20 buckets
        rng = np.random.default_rng(3)
        sample_bucket_pair(20, 0.5, rng)  # lazy imports of a first call
        tracemalloc.start()
        try:
            _, _, r, b = sample_bucket_pair(20, rho, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == 1 << 20 and 1 <= b <= r
        # one int64 sign per bucket alone would take 8 MiB
        assert peak < 64 * 1024

    def test_deterministic(self):
        a = sample_bucket_pair(8, 0.5, np.random.default_rng(99))
        b = sample_bucket_pair(8, 0.5, np.random.default_rng(99))
        assert a == b

    def test_packed_range_reaches_max_packed_n(self):
        rng = np.random.default_rng(23)
        tops = []
        for _ in range(200):
            x, y, r, _ = sample_bucket_pair(MAX_PACKED_N, 0.5, rng)
            assert x.n == y.n == MAX_PACKED_N and r == 4
            assert 0 <= x.index < 1 << MAX_PACKED_N and 0 <= y.index < 1 << MAX_PACKED_N
            tops.append(x.index >> (MAX_PACKED_N - 1))
        assert any(tops)  # the top coordinate is drawn too
        with pytest.raises(ValueError, match=r"dimension must be in \[1, 62\], got 63"):
            sample_bucket_pair(MAX_PACKED_N + 1, 0.5, rng)


# A rho for each bucket count r = floor(2 / (1 - rho)), from 2 up to 2^54,
# the r of the largest double below 1
_BUCKET_RHOS = {
    2: 0.0,
    3: 0.35,
    4: 0.5,
    20: 0.9,
    1 << 20: 1 - 2.0**-19,
    1 << 53: 1 - 2.0**-52,
    1 << 54: 1 - 2.0**-53,
}


class ScriptedWords:
    """Stands in for a ``Generator`` whose ``bit_generator.random_raw`` hands
    out the given 64-bit words in order: a uint64 array for a size, an int
    for one word, IndexError past the last; ``words`` holds those left."""

    def __init__(self, words):
        self.words = list(words)
        self.bit_generator = self

    def random_raw(self, size=None):
        if size is None:
            return self.words.pop(0)
        if size > len(self.words):
            raise IndexError("script exhausted")
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def _scripted_pair(r: int, row: list, redraws: tuple = ()):
    """``sample_bucket_pair`` at the rho of ``r`` on exactly the n + 2 words of
    ``row`` and then ``redraws``, checked against ``reference_bucket_pair`` on
    the same words."""
    n, rho = len(row) - 2, _BUCKET_RHOS[r]
    got = sample_bucket_pair(n, rho, (g := ScriptedWords(row + list(redraws))))
    assert g.words == []  # every word used, none asked for beyond them
    assert got == reference_bucket_pair(n, rho, ScriptedWords(row + list(redraws)))
    assert got[2] == r
    return got


class TestBucketPairWords:
    """``sample_bucket_pair`` bit for bit against ``helpers.reference_bucket_pair``,
    which resolves the same raw words into a label list and packs its flips
    with ``pack_bits``, and on scripted words at each label's edges and
    through the redraw path."""

    @pytest.mark.parametrize("r", _BUCKET_RHOS)
    @pytest.mark.parametrize("n", [1, 7, 20, MAX_PACKED_N])
    def test_matches_reference(self, n, r):
        # no seeded word here needs a redraw: n + 2 words a pair, nothing more
        a, b, twin = (np.random.default_rng(n) for _ in range(3))
        for _ in range(100):
            got = sample_bucket_pair(n, _BUCKET_RHOS[r], a)
            assert got == reference_bucket_pair(n, _BUCKET_RHOS[r], b)
            assert type(got[2]) is int and type(got[3]) is int and got[2] == r
        twin.bit_generator.advance(100 * (n + 2))
        assert a.bit_generator.state == twin.bit_generator.state

    @given(st.integers(1, MAX_PACKED_N), st.floats(0.0, 1.0, exclude_max=True), st.data())
    @settings(deadline=None)
    def test_leaves_generator_where_reference_does(self, n, rho, data):
        seed = data.draw(st.integers(0, 2**32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert sample_bucket_pair(n, rho, a) == reference_bucket_pair(n, rho, b)
        assert a.random() == b.random()

    def test_numpy_scalar_arguments(self):
        # numpy scalars as n and rho draw what a Python int and float draw
        got = sample_bucket_pair(np.int64(MAX_PACKED_N), np.float64(0.9), np.random.default_rng(5))
        assert got == sample_bucket_pair(MAX_PACKED_N, 0.9, np.random.default_rng(5))

    @pytest.mark.parametrize("n", [1, 7, MAX_PACKED_N])
    def test_x_is_top_bits_of_first_word(self, n):
        # every label word 0: each coordinate shares b's label and flips
        word = 0xF0E1_D2C3_B4A5_9687
        x, y, _, b = _scripted_pair(4, [word, 0] + [0] * n)
        assert x.index == word >> (64 - n) and b == 1
        assert y.index == x.index ^ ((1 << n) - 1)

    @pytest.mark.parametrize("r", [3, 20, 1 << 20, 1 << 53])
    def test_label_edges(self, r):
        # label j owns words j q .. (j + 1) q - 1, so q r - 1 is label r - 1
        q = (1 << 64) // r
        for j in sorted({0, 1, r // 2, r - 1}):
            inside = [j * q, (j + 1) * q - 1]
            outside = [w for w in (j * q - 1, (j + 1) * q) if 0 <= w < q * r]
            for b_word in inside:
                x, y, _, b = _scripted_pair(r, [0, b_word, *inside, *outside])
                assert b == j + 1
                assert x.index == 0 and y.index == 0b11

    @pytest.mark.parametrize("r", [3, 20, 1 << 20, 1 << 53])
    def test_words_from_q_r_up_redrawn_in_order(self, r):
        q = (1 << 64) // r
        top = (1 << 64) - 1
        if q * r == 1 << 64:
            # a power of two: no word is out of range, the top word is label r - 1
            _, y, _, b = _scripted_pair(r, [0, top, top, 0])
            assert b == r and y.index == 0b01
            return
        for bad in (q * r, top):
            # b's word and coordinate 2's are out of range.  b's redraws come
            # first (a bad word again, then label r - 1), then coordinate 2's
            # (label 0); the other order would give b = 1 and flips 0b001.
            row = [0, bad, 0, bad, (r - 1) * q]
            _, y, _, b = _scripted_pair(r, row, (top, (r - 1) * q, 0))
            assert b == r and y.index == 0b100


def _value_type_args(dtype) -> dict:
    """Constructor arguments of each value type, its real-valued arrays in
    ``dtype`` (subset masks and packed indices are int64 either way)."""

    def arr(*values):
        return np.array(values, dtype=dtype)

    return {
        SparseNet: dict(n=2, s=1, k=1, u=arr(1), w=arr([1, -1]), b=arr(0)),
        CubeFunction: dict(n=1, values=arr(1, -1)),
        Spectrum: dict(n=1, coeffs=arr(0, 1)),
        JuntaSpec: dict(n=2, relevant=(1,), table=arr(1, -1)),
        MonomialModel: dict(n=2, d=1, masks=np.array([0, 1]), coeffs=arr(1, 2)),
        Dataset: dict(n=2, idx=np.array([0, 3]), y=arr(1, -1)),
    }


_INT_FIELDS = {"masks", "idx"}


@pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["float64", "int64"])
@pytest.mark.parametrize("cls", list(_value_type_args(np.float64)), ids=lambda c: c.__name__)
def test_value_types_hold_read_only_copies(cls, dtype):
    """A value type keeps read-only private copies of the arrays it is given:
    the caller's arrays stay writable, and writing to them afterwards, a
    non-finite value included, changes neither the value nor its JSON."""
    kwargs = _value_type_args(dtype)[cls]
    arrays = {key: a for key, a in kwargs.items() if isinstance(a, np.ndarray)}
    value = cls(**kwargs)
    held = {key: getattr(value, key).copy() for key in arrays}
    text = value.to_json() if cls is SparseNet else None
    for key, a in arrays.items():
        mine = getattr(value, key)
        assert a.flags.writeable and mine is not a
        assert not mine.flags.writeable
        assert mine.dtype == (np.int64 if key in _INT_FIELDS else np.float64)
        a.flat[0] = np.inf if a.dtype.kind == "f" else 7
    for key, before in held.items():
        assert np.array_equal(getattr(value, key), before)
    if cls is SparseNet:
        assert value.to_json() == text
    if cls is Spectrum:  # the cached degree table is held the same way
        degrees = value.degrees()
        assert degrees.dtype == np.int64 and not degrees.flags.writeable


def _single_unit_net():
    return SparseNet(n=2, s=3, k=1, u=np.ones(3), w=np.ones((3, 2)), b=np.zeros(3))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: MonomialModel(n=2, d=1, masks=np.array([1.9, 2.2]), coeffs=[1.0, 2.0]),
         ValueError),
        (lambda: MonomialModel(n=2, d=1, masks=[True], coeffs=[1.0]), ValueError),
        (lambda: JuntaSpec(n=3, relevant=(1.9, 2.2), table=np.zeros(4)), TypeError),
        (lambda: parity_lift(3, [1.7, 2.2]), TypeError),
        (lambda: _single_unit_net().linear_piece([1.5, 2.9]), TypeError),
    ],
    ids=["monomial-float-masks", "monomial-bool-masks", "junta-relevant", "parity-subset",
         "linear-piece-units"],
)
def test_integer_indices_refused_not_truncated(build, error):
    """Subset masks, coordinates and unit numbers are refused unless they are
    integers, as ``point_index`` refuses a point."""
    with pytest.raises(error):
        build()


def test_numpy_integer_indices_pass():
    spec = JuntaSpec(n=3, relevant=(np.int64(1), np.int32(3)), table=np.zeros(4))
    assert spec.relevant == (1, 3) and all(type(i) is int for i in spec.relevant)
    assert parity_lift(3, np.array([1, 3])).to_json() == parity_lift(3, [1, 3]).to_json()
    wR, bR = _single_unit_net().linear_piece(np.array([1, 3], dtype=np.uint8))
    assert wR.tolist() == [2.0, 2.0] and bR == 0.0
    model = MonomialModel(n=2, d=1, masks=np.array([1, 2], dtype=np.uint8), coeffs=[1.0, 2.0])
    assert model.masks.tolist() == [1, 2]
