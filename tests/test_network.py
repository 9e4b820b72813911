"""Network evaluation, activation sets, sparsity checks, decomposition,
rebucketing, and serialization."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from helpers import Point, active_set, brute_split, net_value, reference_scan
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseact import (
    CapacityError,
    CubePoint,
    HypothesisPool,
    SparseNet,
    avg_sensitivity_exact,
    avg_sensitivity_split,
    embed_lift,
    gamma_gated_net,
    index_net,
    junta_to_net,
    noise_sensitivity_exact,
    parity_lift,
    rebucket,
    sample_bucket_pair,
    sample_uniform_dataset,
    tabulate,
    verify_sparsity,
    wht,
    JuntaSpec,
)
from sparseact.config import MC_SIGMA, REL_TOL_EXACT
from sparseact.constructions import random_net
from sparseact.fourier import values_at
from sparseact.hypercube import (
    _BLOCK_BITS,
    _positive_counts,
    affine_blocks,
    index_signs,
    pack_bits,
)
from sparseact.network import _SLICE_ENTRIES


def active_sets(net, X):
    """The units (1-indexed) strictly active on each sign row of X, read
    off the batch pre-activations."""
    return [frozenset(np.flatnonzero(z > 0.0) + 1) for z in net.preactivations(X)]


def single_unit_net():
    return SparseNet(
        n=2, s=1, k=1, u=np.array([1.0]), w=np.array([[1.0, 1.0]]), b=np.array([1.0])
    )


class TestConstructionValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SparseNet(n=2, s=2, k=1, u=np.zeros(1), w=np.zeros((2, 2)), b=np.zeros(2))

    def test_k_range(self):
        with pytest.raises(ValueError):
            SparseNet(n=2, s=2, k=3, u=np.zeros(2), w=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValueError):
            SparseNet(n=2, s=2, k=0, u=np.zeros(2), w=np.zeros((2, 2)), b=np.zeros(2))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            SparseNet(
                n=1, s=1, k=1, u=np.array([np.nan]), w=np.zeros((1, 1)), b=np.zeros(1)
            )

    def test_immutable_arrays(self):
        net = single_unit_net()
        with pytest.raises(ValueError):
            net.u[0] = 2.0


class TestEval:
    def test_direct_arithmetic(self):
        net = single_unit_net()
        values = net.eval_batch(np.array([[1, 1], [1, -1]]))
        assert values[0] == 1.0
        assert values[1] == 0.0

    def test_zero_output_layer(self):
        rng = np.random.default_rng(0)
        net = SparseNet(
            n=3, s=2, k=2, u=np.zeros(2), w=rng.normal(size=(2, 3)), b=rng.normal(size=2)
        )
        assert np.all(net.eval_batch(index_signs(np.arange(8), 3)) == 0.0)

    def test_parity_lift_value(self):
        net = parity_lift(2, [1, 2])
        x = embed_lift([Point.from_signs([1, 1]).index], 2)
        assert net.eval_batch(x)[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            single_unit_net().eval_batch(np.array([[1, 1, 1]]))

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, 6, 4)
        X = np.array([Point(6, u).signs() for u in range(64)])
        batch = net.eval_batch(X)
        for u in range(64):
            assert batch[u] == pytest.approx(net_value(net, u), abs=1e-12)


def _slice_sizes(monkeypatch, net, idx):
    """(values, rows per eval_batch call) of ``net.eval_indices(idx)``."""
    sizes = []
    eval_batch = SparseNet.eval_batch

    def record(self, X):
        sizes.append(len(X))
        return eval_batch(self, X)

    monkeypatch.setattr(SparseNet, "eval_batch", record)
    values = net.eval_indices(idx)
    monkeypatch.undo()
    return values, sizes


class TestEvalIndices:
    """``SparseNet.eval_indices`` against ``eval_batch`` on the unpacked rows,
    at point counts one below, at and one above a slice."""

    @pytest.mark.parametrize(
        "net",
        [index_net(3), index_net(5),
         junta_to_net(JuntaSpec(n=9, relevant=(2, 5, 9), table=[0.5, -1, 0.25, 2, -3, 0, 1, 4])),
         junta_to_net(JuntaSpec(n=20, relevant=tuple(range(3, 13)),
                                table=np.arange(-512, 512) / 8)),
         parity_lift(4, [1, 3, 4]), parity_lift(7, [2, 5, 7])],
        ids=["index3", "index5", "junta9", "junta20", "parity4", "parity7"],
    )
    def test_dyadic_nets_match_sign_rows_exactly(self, monkeypatch, net):
        rows = max(1, _SLICE_ENTRIES // net.s)
        rng = np.random.default_rng(net.s)
        for m in (rows - 1, rows, rows + 1):
            idx = rng.integers(0, 1 << net.n, size=m)
            got, sizes = _slice_sizes(monkeypatch, net, idx)
            assert np.array_equal(got, net.eval_batch(index_signs(idx, net.n)))
            assert sizes == [rows] * (m // rows) + [m % rows] * (m % rows > 0)

    @pytest.mark.parametrize("n, s", [(1, 1), (6, 4), (16, 64), (20, 1000), (62, 300)])
    def test_random_nets_match_sign_rows(self, monkeypatch, n, s):
        rng = np.random.default_rng(n + s)
        net = random_net(rng, n, s)
        rows = max(1, _SLICE_ENTRIES // s)
        for m in (rows - 1, rows, rows + 1):
            idx = rng.integers(0, 1 << n, size=m)
            got, sizes = _slice_sizes(monkeypatch, net, idx)
            want = net.eval_batch(index_signs(idx, n))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            assert sizes == [rows] * (m // rows) + [m % rows] * (m % rows > 0)

    def test_more_units_than_slice_entries_take_one_row_per_slice(self, monkeypatch):
        rng = np.random.default_rng(21)
        net = random_net(rng, 5, _SLICE_ENTRIES + 3)
        idx = np.array([0, 31, 7, 7, 12])
        got, sizes = _slice_sizes(monkeypatch, net, idx)
        want = net.eval_batch(index_signs(idx, 5))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert sizes == [1] * 5

    def test_wrong_dimension_refused(self):
        net = single_unit_net()
        with pytest.raises(ValueError, match="model has n=2, requested 3"):
            values_at(net, 3, np.arange(4))
        with pytest.raises(ValueError):
            net.eval_indices(np.array([4]))

    @pytest.mark.parametrize("s", [64, 4096])
    def test_memory_at_points_bounded_by_slice(self, s):
        # the (20000, s) pre-activations at once were 22.5 MiB at s = 64 and
        # 1253 MiB at s = 4096; a slice holds 2^15 of them (256 KiB)
        net = random_net(np.random.default_rng(s), 16, s)
        pool = HypothesisPool(members=(net,), n=16, s=s, k=s, W=1.0, B=1.0)
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            data = sample_uniform_dataset(net, 16, 20_000, rng)
            values = pool.value_matrix(data.idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(values[0], data.y)
        assert peak < 4 << 20


class TestActiveSet:
    def test_strict_inequality_at_zero(self):
        net = SparseNet(
            n=2, s=1, k=1, u=np.array([1.0]), w=np.zeros((1, 2)), b=np.zeros(1)
        )
        for active in active_sets(net, index_signs(np.arange(4), 2)):
            assert active == frozenset()

    def test_example_net(self):
        assert active_sets(single_unit_net(), np.array([[1, 1]]))[0] == {1}

    def test_junta_always_exactly_one(self):
        rng = np.random.default_rng(2)
        spec = JuntaSpec(n=6, relevant=(1, 4, 6), table=rng.uniform(-1, 1, 8))
        net = junta_to_net(spec)
        for active in active_sets(net, index_signs(np.arange(64), 6)):
            assert len(active) == 1


class TestVerifySparsity:
    def test_dense_net_all_active(self):
        rng = np.random.default_rng(3)
        net = SparseNet(
            n=4, s=4, k=1, u=np.ones(4), w=rng.normal(size=(4, 4)), b=np.full(4, -10.0)
        )
        report = verify_sparsity(net, 1, "exhaustive")
        assert report.max_active == 4
        assert report.violating_input is not None
        assert report.violation_fraction == 1.0
        assert report.samples == 16

    def test_parity_lift_on_embedded_support(self):
        net = parity_lift(2, [1, 2])
        support = pack_bits(embed_lift(np.arange(4), 2) < 0)
        report = verify_sparsity(net, 1, "exhaustive", support=support)
        assert report.max_active == 1
        assert report.violating_input is None

    @pytest.mark.parametrize("mode", ["sampled", "EXHAUSTIVE", ""])
    def test_mode_must_be_exhaustive(self, mode):
        with pytest.raises(ValueError, match=r"^mode must be 'exhaustive', got "):
            verify_sparsity(single_unit_net(), 1, mode)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_whole_support_equals_whole_cube(self, k):
        # the block scan and the one-block scan of every index give one report
        net = random_net(np.random.default_rng(6), _BLOCK_BITS + 1, 5)
        assert verify_sparsity(net, k, support=np.arange(1 << net.n)) == verify_sparsity(net, k)

    def test_capacity(self):
        net = SparseNet(
            n=25, s=1, k=1, u=np.ones(1), w=np.zeros((1, 25)), b=np.zeros(1)
        )
        with pytest.raises(CapacityError):
            verify_sparsity(net, 1, "exhaustive")

    def test_support_witness_past_the_scan_cap(self):
        # both units always fire; the witness is a packed point of n=30
        net = SparseNet(
            n=30, s=2, k=1, u=np.ones(2), w=np.zeros((2, 30)), b=np.full(2, -1.0)
        )
        points = np.random.default_rng(0).integers(0, 1 << 30, size=10)
        report = verify_sparsity(net, 1, support=points)
        assert report.violation_fraction == 1.0
        assert report.violating_input == CubePoint(30, int(points[0]))

    def test_support_memory_bounded_by_slice(self):
        net = random_net(np.random.default_rng(18), 16, 1024)
        points = np.random.default_rng(19).integers(0, 1 << 16, size=20_000)
        tracemalloc.start()
        try:
            report = verify_sparsity(net, 1, support=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples == 20_000
        # a slice holds at most 2^15 pre-activations (256 KiB); the whole
        # (20000, 1024) float block would be 156 MiB
        assert peak < 16 << 20

    def test_support_slices_match_oracle(self):
        # s = 4096 gives slices of at most 64 points, so 1000 points take 16
        # or more; only the last 30 have the top coordinate -1, where units
        # fire, so the first violation lies in a late slice
        rng = np.random.default_rng(17)
        n, s = 16, 4096
        net = _top_half_net(rng, n, s)
        low = rng.integers(0, 1 << (n - 1), size=970)
        points = np.concatenate([low, low[:30] | 1 << (n - 1)])
        for k in (1, s // 2, s):
            assert verify_sparsity(net, k, support=points) == reference_scan(
                net, k, points=points
            )
        report = verify_sparsity(net, 1, support=points)
        assert report.violating_input == CubePoint(n, int(points[970]))
        assert 0 < report.violation_fraction <= 30 / 1000

    def test_support_takes_packed_indices(self):
        net = single_unit_net()
        assert verify_sparsity(net, 1, support=np.arange(4)).samples == 4
        for bad in ([], [4], [0.5], [[0, 1]]):
            with pytest.raises(ValueError):
                verify_sparsity(net, 1, support=bad)

    def test_witness_consistency(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 5, 4)
        report = verify_sparsity(net, 2, "exhaustive")
        if report.violating_input is not None:
            assert len(active_set(net, report.violating_input.index)) > 2
        for u in range(0, 32, 7):
            assert len(active_set(net, u)) <= report.max_active


class TestScaleParams:
    def test_direct(self):
        net = SparseNet(
            n=2, s=1, k=1, u=np.array([2.0]), w=np.array([[3.0, 4.0]]), b=np.array([5.0])
        )
        scale = net.scale_params()
        assert scale.W == 10.0 and scale.B == 10.0

    def test_zero_net(self):
        net = SparseNet(n=2, s=1, k=1, u=np.zeros(1), w=np.zeros((1, 2)), b=np.zeros(1))
        scale = net.scale_params()
        assert scale.W == 0.0 and scale.B == 0.0

    def test_junta_scale(self):
        rng = np.random.default_rng(6)
        table = np.sign(rng.normal(size=8))  # +-1 valued, so |u| max is 1
        net = junta_to_net(JuntaSpec(n=5, relevant=(1, 2, 3), table=table))
        scale = net.scale_params()
        assert scale.W == pytest.approx(np.sqrt(3))
        assert scale.B == pytest.approx(2.0)


class TestLinearPiece:
    def test_empty(self):
        wR, bR = single_unit_net().linear_piece([])
        assert np.array_equal(wR, np.zeros(2)) and bR == 0.0

    def test_single(self):
        wR, bR = single_unit_net().linear_piece([1])
        assert np.array_equal(wR, [1.0, 1.0]) and bR == 1.0

    def test_identity_on_active_set(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, 7, 5)
        for _ in range(100):
            x = Point(7, int(rng.integers(0, 1 << 7)))
            wR, bR = net.linear_piece(active_set(net, x.index))
            affine = float(wR @ x.signs().astype(np.float64)) - bR
            assert abs(net_value(net, x.index) - affine) <= 1e-12 * max(1.0, abs(affine))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            single_unit_net().linear_piece([2])


class TestSensitivitySplit:
    def test_constant_net(self):
        net = SparseNet(
            n=3, s=2, k=2, u=np.zeros(2), w=np.ones((2, 3)), b=np.zeros(2)
        )
        split = avg_sensitivity_split(net)
        assert split.same_region == 0.0
        assert split.changed_region == 0.0
        assert split.total == 0.0

    def test_always_active_single_unit(self):
        # bias so negative the unit never switches: every edge stays in one
        # region, and the squared jump along coordinate i is (2 u w_i)^2
        rng = np.random.default_rng(8)
        w = rng.normal(size=(1, 4))
        u = np.array([0.7])
        net = SparseNet(n=4, s=1, k=1, u=u, w=w, b=np.array([-50.0]))
        split = avg_sensitivity_split(net)
        assert split.changed_region == 0.0
        want = float(u[0] ** 2 * np.sum(w**2))
        assert split.same_region == pytest.approx(want, rel=1e-12)
        oracle_same, oracle_changed = brute_split(net)
        assert split.same_region == pytest.approx(oracle_same, rel=1e-12)
        assert oracle_changed == 0.0

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, 5, 3)
        split = avg_sensitivity_split(net)
        oracle_same, oracle_changed = brute_split(net)
        assert split.same_region == pytest.approx(oracle_same, rel=1e-10)
        assert split.changed_region == pytest.approx(oracle_changed, rel=1e-10)

    def test_total_equals_exact_avg_sensitivity(self):
        rng = np.random.default_rng(10)
        net = random_net(rng, 6, 4)
        split = avg_sensitivity_split(net)
        exact = avg_sensitivity_exact(tabulate(net, 6))
        assert abs(split.total - exact) <= 1e-12 * max(1.0, exact)

    def test_capacity(self):
        net = SparseNet(
            n=17, s=1, k=1, u=np.ones(1), w=np.zeros((1, 17)), b=np.zeros(1)
        )
        with pytest.raises(CapacityError):
            avg_sensitivity_split(net)


class TestRebucket:
    def test_singleton_identity(self):
        rng = np.random.default_rng(11)
        net = random_net(rng, 5, 3)
        z = 0  # all ones
        out = rebucket(net, z, np.arange(5), 5)
        assert np.array_equal(out.w, net.w)
        assert np.array_equal(out.u, net.u)
        assert np.array_equal(out.b, net.b)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, 8, 4)
        for _ in range(100):
            z = Point(8, int(rng.integers(0, 1 << 8)))
            r = int(rng.integers(2, 5))
            labels = rng.integers(0, r, size=8)
            H = rebucket(net, z.index, labels, r)
            v = Point(r, int(rng.integers(0, 1 << r)))
            x = Point.from_signs(z.signs() * v.signs()[labels])
            assert abs(net_value(net, x.index) - net_value(H, v.index)) <= 1e-12 * max(
                1.0, abs(net_value(net, x.index))
            )

    def test_empty_bucket_is_a_zero_input(self):
        net = random_net(np.random.default_rng(20), 4, 3)
        H = rebucket(net, 5, np.array([0, 2, 2, 0]), 4)
        assert H.n == 4
        assert np.all(H.w[:, [1, 3]] == 0.0)

    def test_scale_bounds(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, 12, 6)
        hits = 0
        total = 0
        for _ in range(200):
            z = int(rng.integers(0, 1 << 12))
            r = 4
            labels = rng.integers(0, r, size=12)
            H = rebucket(net, z, labels, r)
            max_bucket = int(np.bincount(labels).max())
            log_cap = 8 * np.log(net.n * net.s * r)
            for j in range(net.s):
                before = float(np.sum(net.w[j] ** 2))
                after = float(np.sum(H.w[j] ** 2))
                assert after <= max_bucket * before + 1e-9
                total += 1
                if after <= log_cap * before:
                    hits += 1
        assert hits / total >= 0.95

    def test_invalid_labels(self):
        net = random_net(np.random.default_rng(14), 4, 2)
        for labels in ([0, 1, 2, 1], [0, -1, 1, 1], [0, 1, 1], [[0, 1, 1, 0]],
                       [0.0, 1.0, 1.0, 0.0], [True, False, True, False]):
            with pytest.raises(ValueError):  # out of range, wrong shape, not integers
                rebucket(net, 0, np.array(labels), 2)
        with pytest.raises(ValueError):
            rebucket(net, 1 << 4, np.array([0, 1, 1, 0]), 2)  # z outside the cube


def _all_labels(n, r):
    """Every bucket-label array of length n over [0, r), one per row."""
    return np.array(list(itertools.product(range(r), repeat=n)))


class TestBucketingReduction:
    """NS_rho(h) = E_{z,a}[AS(H_{z,a})] / r at rho = 1 - 2/r, where H_{z,a} =
    rebucket(h, z, a, r): the bucket procedure flips one of r buckets, so
    each coordinate independently with probability 1/r = (1 - rho) / 2."""

    @pytest.mark.parametrize("n, s, r", [(6, 5, 2), (4, 3, 3), (4, 3, 4)])
    def test_noise_sensitivity_is_mean_bucket_sensitivity(self, n, s, r):
        net = random_net(np.random.default_rng(30 + r), n, s)
        want = noise_sensitivity_exact(wht(tabulate(net, n)), 1 - 2 / r)
        total = sum(
            avg_sensitivity_exact(tabulate(rebucket(net, z, a, r), r))
            for z in range(1 << n)
            for a in _all_labels(n, r)
        )
        got = total / ((1 << n) * r**n) / r
        assert want > 0.0
        assert abs(got - want) <= REL_TOL_EXACT * want

    def test_bucket_pairs_estimate_noise_sensitivity(self):
        # the sampler's own pairs: rho = 0.5 puts r = 4, and 1 - 2/r is rho
        rng = np.random.default_rng(38)
        net = random_net(rng, 6, 5)
        table = tabulate(net, 6).values
        want = noise_sensitivity_exact(wht(tabulate(net, 6)), 0.5)
        draws = [sample_bucket_pair(6, 0.5, rng) for _ in range(20_000)]
        assert {r for _, _, r, _ in draws} == {4}
        x = np.array([x.index for x, _, _, _ in draws])
        y = np.array([y.index for _, y, _, _ in draws])
        terms = (table[x] - table[y]) ** 2 / 4
        stderr = terms.std(ddof=1) / np.sqrt(terms.size)
        assert want > 0.0
        assert abs(terms.mean() - want) <= MC_SIGMA * stderr

    def test_index_net_buckets_are_table_slices(self):
        # dyadic weights: H_{z,a}(v) equals h at x_l = z_l v_{a_l} exactly
        net = index_net(1)
        table = tabulate(net, net.n).values
        v = np.arange(4)
        for z in range(1 << net.n):
            for a in _all_labels(net.n, 2):
                x = z ^ pack_bits((v[:, None] >> a) & 1)
                assert np.array_equal(tabulate(rebucket(net, z, a, 2), 2).values, table[x])


# every finite float64, as its bit pattern
_FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda bits: bits >> 52 & 0x7FF != 0x7FF)


@st.composite
def _bit_nets(draw):
    """A net of up to 8 x 8 whose weights are drawn from all finite doubles."""
    s, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bits = draw(st.lists(_FINITE_BITS, min_size=s * (n + 2), max_size=s * (n + 2)))
    weights = np.array(bits, dtype=np.uint64).view(np.float64)
    return SparseNet(n=n, s=s, k=draw(st.integers(1, s)), u=weights[:s],
                     w=weights[s:-s].reshape(s, n), b=weights[-s:])


def _net_of(value):
    """A 2 x 3 net holding ``value`` in u, w and b, and its negation in w and b."""
    return SparseNet(n=3, s=2, k=1, u=[value, 1.0], w=[[value, -value, 0.5], [0.0, 1.0, value]],
                     b=[-value, value])


def _check_json(net):
    """to_json is json.dumps of the fields as lists, and reads back bit for bit."""
    fields = {"n": net.n, "s": net.s, "k": net.k,
              "u": net.u.tolist(), "w": net.w.tolist(), "b": net.b.tolist()}
    text = net.to_json()
    assert text == json.dumps(fields)
    back = SparseNet.from_json(text)
    assert (back.n, back.s, back.k) == (net.n, net.s, net.k)
    for name in ("u", "w", "b"):
        want, got = getattr(net, name), getattr(back, name)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @given(net=_bit_nets())
    @example(net=_net_of(-0.0))
    @example(net=_net_of(5e-324))
    @example(net=_net_of(2.2250738585072014e-308))
    @example(net=_net_of(1e-05))
    @example(net=_net_of(1e16))
    @example(net=_net_of(9007199254741000.0))
    @example(net=_net_of(1.7976931348623157e308))
    def test_to_json_is_json_dumps(self, net):
        _check_json(net)

    def test_constructed_and_block_crossing_nets(self):
        # index nets up to a million weights; random nets of a few weight
        # values whose nonzero count crosses the kernel's block, and whose
        # s * n is no multiple of it
        rng = np.random.default_rng(22)
        table = rng.normal(size=(4, 3))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        nets = [index_net(bits) for bits in range(1, 11)]
        nets += [parity_lift(4, [1, 3, 4]), parity_lift(7, [2, 5, 7]),
                 gamma_gated_net(2, 3, 1.5, table),
                 junta_to_net(JuntaSpec(n=9, relevant=(2, 5, 9), table=rng.uniform(-1, 1, 8)))]
        values = np.array([0.0, -0.0, 5e-324, 1e-05, 1e16, 9999999999999998.0])
        for s, n in ((1, 1), (3, 7), (300, 37), (229, 41)):
            assert s * n % (1 << 13)
            nets.append(SparseNet(n=n, s=s, k=1, u=rng.choice(values, s),
                                  w=rng.choice(values, (s, n)), b=rng.choice(values, s)))
        for net in nets:
            _check_json(net)

    def test_index_net_json_memory(self):
        # json.dumps of the weight lists peaked at 42.6 MiB, the block
        # kernel's cell and row texts at 19.3 MiB
        net = index_net(10)
        tracemalloc.start()
        try:
            net.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(15)
        net = random_net(rng, 6, 3)
        text = net.to_json()
        back = SparseNet.from_json(text)
        assert np.array_equal(net.u, back.u)
        assert np.array_equal(net.w, back.w)
        assert np.array_equal(net.b, back.b)
        assert (back.n, back.s, back.k) == (net.n, net.s, net.k)
        assert back.to_json() == text

    def test_field_order(self):
        net = single_unit_net()
        assert net.to_json().startswith('{"n": 2, "s": 1, "k": 1, "u":')


class TestEvalEnvelope:
    def test_verified_one_sparse_nets_respect_value_cap(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            spec = JuntaSpec(
                n=7,
                relevant=tuple(int(i) + 1 for i in rng.choice(7, 3, replace=False)),
                table=rng.uniform(-2, 2, 8),
            )
            net = junta_to_net(spec)
            assert verify_sparsity(net, 1, "exhaustive").max_active <= 1
            scale = net.scale_params()
            cap = 1 * (scale.W * np.sqrt(net.n) + scale.B)
            values = tabulate(net, net.n).values
            assert np.max(np.abs(values)) <= cap + 1e-12


# n from 1 to three past the kernel's base block, so nets fall below, at and
# above one block; index and parity-lift nets exist only at their own n.
_KERNEL_N = st.integers(1, _BLOCK_BITS + 3)


@st.composite
def _kernel_nets(draw):
    """(net, dyadic): a random, junta, index, parity-lift or gamma net."""
    kind = draw(st.sampled_from(["random", "junta", "index", "parity", "gamma"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_net(rng, draw(_KERNEL_N), draw(st.integers(1, 6))), False
    if kind == "junta":
        n = draw(_KERNEL_N)
        p = draw(st.integers(0, min(n, 4)))
        relevant = tuple(int(i) + 1 for i in rng.choice(n, size=p, replace=False))
        spec = JuntaSpec(n=n, relevant=relevant, table=rng.uniform(-1, 1, size=1 << p))
        return junta_to_net(spec), True
    if kind == "index":
        return index_net(draw(st.integers(1, 3))), True
    if kind == "parity":
        m = draw(st.integers(1, 4))
        S = draw(st.lists(st.integers(1, m), min_size=1, unique=True))
        return parity_lift(m, S), True
    b = draw(st.integers(1, 3))
    q = draw(st.integers(1, _BLOCK_BITS + 3 - b))
    table = rng.normal(size=(1 << b, q))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    return gamma_gated_net(b, q, float(np.sqrt(q)), table), False


class TestCubeKernel:
    """``affine_blocks`` against unpacking every index and multiplying out."""

    @settings(max_examples=60, deadline=None)
    @given(case=_kernel_nets())
    def test_matches_sign_table_oracle(self, case):
        net, dyadic = case
        blocks = list(affine_blocks(net.w, -net.b))
        assert [lo for lo, _ in blocks] == list(
            range(0, 1 << net.n, blocks[0][1].shape[1])
        )
        got = np.concatenate([z for _, z in blocks], axis=1).T
        signs = index_signs(np.arange(1 << net.n), net.n).astype(np.float64)
        want = signs @ net.w.T - net.b
        if dyadic:
            assert np.array_equal(got, want)
            assert np.array_equal(tabulate(net, net.n).values, net.eval_batch(signs))
        else:
            scale = np.abs(net.w).sum(axis=1) + np.abs(net.b)
            assert np.all(np.abs(got - want) <= REL_TOL_EXACT * scale)

    @settings(max_examples=60, deadline=None)
    @given(case=_kernel_nets(), data=st.data())
    def test_scan_matches_chunked_scan(self, case, data):
        net, _ = case
        k = data.draw(st.integers(1, net.s))
        got = verify_sparsity(net, k, "exhaustive")
        want = reference_scan(net, k)
        assert got.max_active == want.max_active
        assert got.violation_fraction == want.violation_fraction
        assert got.violating_input == want.violating_input
        assert got.samples == want.samples == 1 << net.n

    def test_index_net_zero_ties_stay_inactive(self):
        # the matching unit sits at exactly 0 when the addressed bit is -1
        net = index_net(3)
        blocks = affine_blocks(net.w, -net.b)
        zeros = sum(int(np.count_nonzero(z == 0.0)) for _, z in blocks)
        assert zeros > 0
        assert verify_sparsity(net, 1, "exhaustive").max_active == 1

    def test_witness_beyond_first_block(self):
        # both units fire exactly when the top coordinate is -1, so the
        # first violation sits at the first index of the upper half
        n = _BLOCK_BITS + 2
        w = np.zeros((2, n))
        w[:, -1] = -1.0
        net = SparseNet(n=n, s=2, k=1, u=np.ones(2), w=w, b=np.full(2, 0.5))
        report = verify_sparsity(net, 1, "exhaustive")
        assert report.violating_input == CubePoint(n, 1 << (n - 1))
        assert report.violation_fraction == 0.5 and report.max_active == 2

    def test_memory_bounded_by_block(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 22, 32)
        block = net.s * (1 << _BLOCK_BITS) * 8
        tracemalloc.start()
        try:
            report = verify_sparsity(net, 4, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples == 1 << 22
        # the scan keeps the base block, the offsets and one bool mask: one
        # (s, 2^13) float block per block of points on top would pass 2 blocks,
        # one (2^n, s) float array would be 1 GiB and a sign table 88 MiB
        assert peak < 1.5 * block

    @pytest.mark.parametrize(
        "W, c", [(np.zeros(3), np.zeros(1)), (np.zeros((2, 3)), np.zeros(3))]
    )
    def test_shape_mismatch(self, W, c):
        with pytest.raises(ValueError):
            next(affine_blocks(W, c))


def _top_half_net(rng, n, s):
    """A random net whose unit j fires only where coordinate n is -1: with
    L_j the l1 norm of w_j's other weights, w_jn = -L_j and b_j ~ U(0, 2 L_j),
    so the counts there spread below s."""
    w = rng.normal(size=(s, n))
    L = np.abs(w[:, :-1]).sum(axis=1)
    w[:, -1] = -L
    return SparseNet(n=n, s=s, k=s, u=np.ones(s), w=w, b=rng.uniform(0, 2, size=s) * L)


def _crowded_net(rng, n, s):
    """A random net whose unit j fires wherever <w_j, x> > -t_j ||w_j||_1,
    t_j ~ U(0, 1.5), and also at the all-ones point: all s units fire there,
    a third fire everywhere, and the counts elsewhere spread below s."""
    w = rng.normal(size=(s, n))
    b = -rng.uniform(0.0, 1.5, size=s) * np.abs(w).sum(axis=1)
    b = np.minimum(b, w.sum(axis=1) - 0.5)
    return SparseNet(n=n, s=s, k=s, u=rng.uniform(-1, 1, size=s), w=w, b=b)


class TestCountKernel:
    """The fused whole-cube count kernel against the float blocks of
    ``affine_blocks`` (same tables, so equal for any weights) and against
    the matmul oracle ``reference_scan``."""

    @settings(max_examples=60, deadline=None)
    @given(case=_kernel_nets())
    def test_counts_equal_float_block_counts(self, case):
        net, _ = case
        fused = list(_positive_counts(net.w, -net.b))
        blocks = list(affine_blocks(net.w, -net.b))
        assert len(fused) == len(blocks)
        for (points, counts), (lo, z) in zip(fused, blocks):
            assert points == range(lo, lo + z.shape[1])
            assert counts.dtype == np.min_scalar_type(net.s)
            assert np.array_equal(counts, np.count_nonzero(z > 0.0, axis=0))

    @pytest.mark.parametrize("n", [1, 12, 13, 14, 16])
    def test_random_nets_match_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        net = random_net(rng, n, 6)
        for k in range(1, 7):
            assert verify_sparsity(net, k, "exhaustive") == reference_scan(net, k)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_index_net_ties_match_oracle(self, bits):
        net = index_net(bits)
        for k in (1, 2):
            assert verify_sparsity(net, k, "exhaustive") == reference_scan(net, k)

    def test_gamma_and_junta_nets_match_oracle(self):
        rng = np.random.default_rng(7)
        table = rng.normal(size=(8, 11))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        spec = JuntaSpec(n=14, relevant=(2, 5, 9, 14), table=rng.uniform(-1, 1, 16))
        for net in (gamma_gated_net(3, 11, float(np.sqrt(11)), table), junta_to_net(spec)):
            for k in (1, 2):
                assert verify_sparsity(net, k, "exhaustive") == reference_scan(net, k)

    @pytest.mark.parametrize("s", [255, 256, 300])
    def test_count_dtype_edge(self, s):
        # counts reach s: uint8 holds 255, s = 256 and 300 take uint16
        net = _crowded_net(np.random.default_rng(s), 12, s)
        assert reference_scan(net, s).max_active == s
        for k in (1, 150, 200, 254, 255, 256, 299, s):
            assert verify_sparsity(net, k, "exhaustive") == reference_scan(net, k)

    def test_every_unit_active_at_s_300(self):
        net = SparseNet(n=13, s=300, k=300, u=np.ones(300), w=np.zeros((300, 13)),
                        b=np.full(300, -1.0))
        for k, fraction in ((255, 1.0), (256, 1.0), (299, 1.0), (300, 0.0), (400, 0.0)):
            report = verify_sparsity(net, k, "exhaustive")
            assert report.max_active == 300
            assert report.violation_fraction == fraction
            assert report.violating_input == (CubePoint(13, 0) if fraction else None)
