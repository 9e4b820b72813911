"""Network evaluation, activation sets, sparsity checks, decomposition,
rebucketing, and serialization."""

import tracemalloc

import numpy as np
import pytest
from helpers import brute_split, random_net, reference_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseact import (
    CapacityError,
    CubePoint,
    SparseNet,
    avg_sensitivity_exact,
    avg_sensitivity_split,
    embed_lift,
    gamma_gated_net,
    index_net,
    junta_to_net,
    parity_lift,
    rebucket,
    sample_uniform,
    tabulate,
    verify_sparsity,
    JuntaSpec,
)
from sparseact.config import REL_TOL_EXACT
from sparseact.hypercube import _BLOCK_BITS, affine_blocks, index_signs


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
        assert net.eval(CubePoint.from_signs([1, 1])) == 1.0
        assert net.eval(CubePoint.from_signs([1, -1])) == 0.0

    def test_zero_output_layer(self):
        rng = np.random.default_rng(0)
        net = SparseNet(
            n=3, s=2, k=2, u=np.zeros(2), w=rng.normal(size=(2, 3)), b=rng.normal(size=2)
        )
        for u in range(8):
            assert net.eval(CubePoint(3, u)) == 0.0

    def test_parity_lift_value(self):
        net = parity_lift(2, [1, 2])
        x = embed_lift(CubePoint.from_signs([1, 1])).to_point()
        assert net.eval(x) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            single_unit_net().eval(CubePoint.from_signs([1, 1, 1]))

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, 6, 4)
        X = np.array([CubePoint(6, u).signs() for u in range(64)])
        batch = net.eval_batch(X)
        for u in range(64):
            assert batch[u] == pytest.approx(net.eval(CubePoint(6, u)), abs=1e-12)


class TestActiveSet:
    def test_strict_inequality_at_zero(self):
        net = SparseNet(
            n=2, s=1, k=1, u=np.array([1.0]), w=np.zeros((1, 2)), b=np.zeros(1)
        )
        for u in range(4):
            assert net.active_set(CubePoint(2, u)) == frozenset()

    def test_example_net(self):
        assert single_unit_net().active_set(CubePoint.from_signs([1, 1])) == {1}

    def test_junta_always_exactly_one(self):
        rng = np.random.default_rng(2)
        spec = JuntaSpec(n=6, relevant=(1, 4, 6), table=rng.uniform(-1, 1, 8))
        net = junta_to_net(spec)
        for u in range(64):
            assert len(net.active_set(CubePoint(6, u))) == 1


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
        support = [embed_lift(CubePoint(2, u)).to_point() for u in range(4)]
        report = verify_sparsity(net, 1, "exhaustive", support=support)
        assert report.max_active == 1
        assert report.violating_input is None

    def test_sampled_mode(self):
        rng = np.random.default_rng(4)
        net = SparseNet(
            n=10, s=3, k=1, u=np.ones(3), w=rng.normal(size=(3, 10)), b=np.full(3, -10.0)
        )
        report = verify_sparsity(net, 1, "sampled", count=500, rng=rng)
        assert report.mode == "sampled"
        assert report.samples == 500
        assert report.violation_fraction == 1.0

    def test_capacity(self):
        net = SparseNet(
            n=25, s=1, k=1, u=np.ones(1), w=np.zeros((1, 25)), b=np.zeros(1)
        )
        with pytest.raises(CapacityError):
            verify_sparsity(net, 1, "exhaustive")

    def test_witness_consistency(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 5, 4)
        report = verify_sparsity(net, 2, "exhaustive")
        if report.violating_input is not None:
            assert len(net.active_set(report.violating_input)) > 2
        for u in range(0, 32, 7):
            assert len(net.active_set(CubePoint(5, u))) <= report.max_active


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
            x = sample_uniform(7, rng)
            wR, bR = net.linear_piece(net.active_set(x))
            affine = float(wR @ x.signs().astype(np.float64)) - bR
            assert abs(net.eval(x) - affine) <= 1e-12 * max(1.0, abs(affine))

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
        z = CubePoint(5, 0)  # all ones
        out = rebucket(net, z, [[i] for i in range(1, 6)])
        assert np.array_equal(out.w, net.w)
        assert np.array_equal(out.u, net.u)
        assert np.array_equal(out.b, net.b)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, 8, 4)
        for _ in range(100):
            z = sample_uniform(8, rng)
            r = int(rng.integers(2, 5))
            assignment = rng.integers(0, r, size=8)
            # guarantee every bucket is nonempty
            assignment[:r] = np.arange(r)
            partition = [
                [int(l) + 1 for l in np.flatnonzero(assignment == e)] for e in range(r)
            ]
            H = rebucket(net, z, partition)
            v = sample_uniform(r, rng)
            xs = np.empty(8, dtype=np.int64)
            for e, bucket in enumerate(partition):
                for l in bucket:
                    xs[l - 1] = z.sign(l) * v.sign(e + 1)
            x = CubePoint.from_signs(xs)
            assert abs(net.eval(x) - H.eval(v)) <= 1e-12 * max(
                1.0, abs(net.eval(x))
            )

    def test_scale_bounds(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, 12, 6)
        hits = 0
        total = 0
        for _ in range(200):
            z = sample_uniform(12, rng)
            r = 4
            assignment = rng.integers(0, r, size=12)
            assignment[:r] = np.arange(r)
            partition = [
                [int(l) + 1 for l in np.flatnonzero(assignment == e)] for e in range(r)
            ]
            H = rebucket(net, z, partition)
            max_bucket = max(len(bk) for bk in partition)
            log_cap = 8 * np.log(net.n * net.s * r)
            for j in range(net.s):
                before = float(np.sum(net.w[j] ** 2))
                after = float(np.sum(H.w[j] ** 2))
                assert after <= max_bucket * before + 1e-9
                total += 1
                if after <= log_cap * before:
                    hits += 1
        assert hits / total >= 0.95

    def test_invalid_partitions(self):
        rng = np.random.default_rng(14)
        net = random_net(rng, 4, 2)
        z = CubePoint(4, 0)
        with pytest.raises(ValueError):
            rebucket(net, z, [[1, 2], [3]])  # misses 4
        with pytest.raises(ValueError):
            rebucket(net, z, [[1, 2], [2, 3, 4]])  # duplicate 2
        with pytest.raises(ValueError):
            rebucket(net, z, [[1, 2], [3, 4, 5]])  # out of range
        with pytest.raises(ValueError):
            rebucket(net, CubePoint(3, 0), [[1, 2], [3, 4]])  # z mismatch


class TestSerialization:
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
        net = random_net(rng, 22, 8)
        tracemalloc.start()
        try:
            report = verify_sparsity(net, 4, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples == 1 << 22
        # one (2^n, s) float array alone would be 256 MiB, a sign table 88 MiB
        assert peak < 8 * (1 << 20)

    @pytest.mark.parametrize(
        "W, c", [(np.zeros(3), np.zeros(1)), (np.zeros((2, 3)), np.zeros(3))]
    )
    def test_shape_mismatch(self, W, c):
        with pytest.raises(ValueError):
            next(affine_blocks(W, c))
