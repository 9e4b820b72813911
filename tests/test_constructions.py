"""The explicit network constructions and their promised behavior."""

import itertools

import numpy as np
import pytest
from helpers import Point

from sparseact import (
    CapacityError,
    JuntaSpec,
    SparseNet,
    embed_lift,
    gamma_gated_net,
    index_net,
    junta_to_net,
    parity_lift,
    reference_index,
    tabulate,
    verify_sparsity,
)
from sparseact.config import MAX_LIFT_M, MAX_PACKED_N
from sparseact.hypercube import index_signs


def cube_signs(n):
    """Every point of {-1,+1}^n as a sign row, in index order."""
    return index_signs(np.arange(1 << n), n)


class TestJunta:
    def test_constant_p0(self):
        net = junta_to_net(JuntaSpec(n=3, relevant=(), table=np.array([2.5])))
        assert net.s == 1
        assert np.array_equal(net.b, [-1.0])
        assert np.all(net.eval_batch(cube_signs(3)) == 2.5)

    def test_dictator_p1(self):
        # f(x) = x_1 embedded in n=3
        spec = JuntaSpec(n=3, relevant=(1,), table=np.array([1.0, -1.0]))
        net = junta_to_net(spec)
        assert net.s == 2
        values = net.eval_batch(cube_signs(3))
        for u in range(8):
            x = Point(3, u)
            assert values[u] == float(x.sign(1))

    def test_xor_p2(self):
        # +-1 valued XOR of x_1, x_2 inside n=4; table index bit j set means
        # relevant[j] is -1, so XOR value is -(product of signs)... spell it out
        table = np.empty(4)
        for t in range(4):
            s1 = -1 if t & 1 else 1
            s2 = -1 if t & 2 else 1
            table[t] = -s1 * s2  # +1 iff exactly one of the two is -1
        net = junta_to_net(JuntaSpec(n=4, relevant=(1, 2), table=table))
        values = net.eval_batch(cube_signs(4))
        counts = net.active_counts(cube_signs(4))
        for u in range(16):
            x = Point(4, u)
            want = -x.sign(1) * x.sign(2)
            assert values[u] == want
            assert counts[u] == 1
        assert verify_sparsity(net, 1, "exhaustive").max_active == 1

    def test_duplicate_relevant_rejected(self):
        with pytest.raises(ValueError):
            JuntaSpec(n=4, relevant=(2, 2), table=np.zeros(4))

    def test_dimension_capped_at_packed_n(self):
        table = np.array([1.0, -1.0])
        assert junta_to_net(JuntaSpec(n=MAX_PACKED_N, relevant=(1,), table=table)).n == 62
        with pytest.raises(CapacityError, match=r"^junta construction needs n <= 62, got 63$"):
            junta_to_net(JuntaSpec(n=MAX_PACKED_N + 1, relevant=(1,), table=table))

    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            JuntaSpec(n=4, relevant=(1, 2), table=np.zeros(3))

    def test_value_takes_a_packed_index(self):
        spec = JuntaSpec(n=3, relevant=(3, 1), table=np.array([1.0, 2.0, 3.0, 4.0]))
        # slot bit 0 is coordinate 3, slot bit 1 is coordinate 1
        assert [spec.value(u) for u in range(8)] == [1.0, 3.0, 1.0, 3.0, 2.0, 4.0, 2.0, 4.0]
        with pytest.raises(ValueError):
            spec.value(8)
        with pytest.raises(TypeError):
            spec.value(0.5)

    def test_serializes(self):
        rng = np.random.default_rng(0)
        net = junta_to_net(JuntaSpec(n=5, relevant=(2, 4), table=rng.uniform(-1, 1, 4)))
        assert SparseNet.from_json(net.to_json()).to_json() == net.to_json()


class TestIndexNet:
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_matches_reference(self, b):
        net = index_net(b)
        n = b + (1 << b)
        values = net.eval_batch(cube_signs(n))
        for u in range(1 << n):
            assert values[u] == reference_index(u, b)

    def test_reference_range(self):
        assert reference_index(0, 1) == 1.0  # address bit +1 reads data bit 2
        with pytest.raises(ValueError):
            reference_index(1 << 3, 1)

    def test_sparsity_b2(self):
        report = verify_sparsity(index_net(2), 1, "exhaustive")
        assert report.max_active == 1
        assert report.samples == 1 << 6

    def test_scale(self):
        for b in (1, 2, 3):
            net = index_net(b)
            norms = np.linalg.norm(net.w, axis=1)
            assert np.allclose(norms, np.sqrt(b + 0.25))
            assert np.max(np.abs(net.u)) == 1.0

    def test_capacity(self):
        with pytest.raises(CapacityError):
            index_net(11)

    @pytest.mark.parametrize("b", [0, -1])
    def test_bits_below_one_are_value_errors(self, b):
        with pytest.raises(ValueError, match=f"address bits must be >= 1, got {b}"):
            index_net(b)


def is_consistent(entries):
    """entries[i][j] == entries[i][i] * entries[j][j] for all i != j."""
    d = np.diag(entries).astype(np.int64)
    expected = np.outer(d, d)
    np.fill_diagonal(expected, d)
    return bool(np.array_equal(entries, expected))


def lifted_row(m, signs):
    """The lifted point x(y) of the y with the given +-1 coordinates."""
    return embed_lift([Point.from_signs(signs).index], m)[0]


class TestEmbedLift:
    def test_all_ones(self):
        lifted = lifted_row(2, [1, 1]).reshape(2, 2)
        assert np.array_equal(lifted, np.ones((2, 2)))

    def test_mixed_signs(self):
        lifted = lifted_row(2, [1, -1]).reshape(2, 2)
        assert np.array_equal(lifted, [[1, -1], [-1, -1]])

    def test_consistency_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = int(rng.integers(0, 32))
            assert is_consistent(embed_lift([y], 5)[0].reshape(5, 5))

    def test_row_major_flattening(self):
        point = lifted_row(2, [1, -1])
        assert list(point) == [1, -1, -1, -1]

    def test_whole_cube_at_the_cap(self):
        m = MAX_LIFT_M
        lifted = embed_lift(np.arange(1 << m), m)
        assert lifted.dtype == np.int8 and lifted.shape == (1 << m, m * m)
        assert np.array_equal(lifted[:, :: m + 1], index_signs(np.arange(1 << m), m))
        assert all(is_consistent(row.reshape(m, m)) for row in lifted[::97])
        with pytest.raises(CapacityError):
            embed_lift([0], m + 1)
        for bad in ([], [1 << 3], [0.5]):
            with pytest.raises(ValueError):
                embed_lift(bad, 3)


class TestParityLift:
    def test_hand_checked_inner_product(self):
        # m=2, S={1,2}, y all ones, shift a=2: <w, x(y)> = 6, bias 5.5
        net = parity_lift(2, [1, 2])
        shifts = [-2, 0, 2]
        row = shifts.index(2)
        x = lifted_row(2, [1, 1])
        inner = float(net.w[row] @ x.astype(np.float64))
        assert inner == 6.0
        assert net.b[row] == 5.5
        assert net.preactivations(x[None])[0, row] == 0.5

    def test_even_subset_always_one(self):
        net = parity_lift(2, [1, 2])
        X = embed_lift(np.arange(4), 2)
        values, counts = net.eval_batch(X), net.active_counts(X)
        for u in range(4):
            assert values[u] == 1.0
            assert counts[u] <= 1

    def test_odd_subset_always_zero(self):
        net = parity_lift(3, [1, 2, 3])
        values = net.eval_batch(embed_lift(np.arange(8), 3))
        for u in range(8):
            assert values[u] == 0.0

    def test_affine_identity_exhaustive(self):
        for m in (1, 2, 3, 4):
            for size in range(1, m + 1):
                for S in itertools.combinations(range(1, m + 1), size):
                    net = parity_lift(m, S)
                    shifts = [a for a in range(-m, m + 1) if a % 2 == 0]
                    X = embed_lift(np.arange(1 << m), m)
                    pres, values = net.preactivations(X), net.eval_batch(X)
                    for u in range(1 << m):
                        y = Point(m, u)
                        total = sum(y.sign(i) for i in S)
                        pre = pres[u]
                        for row, a in enumerate(shifts):
                            assert pre[row] == 0.5 - (total - a) ** 2
                        want = 1.0 if total % 2 == 0 else 0.0
                        assert values[u] == want

    def test_semantics_matches_even_indicator(self):
        for m in (2, 3, 4):
            for S in ((1,), (1, 2), tuple(range(1, m + 1))):
                if max(S) > m:
                    continue
                net = parity_lift(m, S)
                values = net.eval_batch(embed_lift(np.arange(1 << m), m))
                for u in range(1 << m):
                    y = Point(m, u)
                    even = sum(y.sign(i) for i in S) % 2 == 0
                    assert values[u] == (1.0 if even else 0.0)

    def test_scale_inequalities(self):
        for m in (2, 3, 4):
            for size in range(1, m + 1):
                S = tuple(range(1, size + 1))
                net = parity_lift(m, S)
                for j in range(net.s):
                    norm = float(np.linalg.norm(net.w[j]))
                    assert norm <= np.sqrt(size**2 + 4 * m**2 * size) + 1e-12
                    assert abs(net.b[j]) <= size + m**2

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            parity_lift(3, [])

    def test_duplicate_subset_rejected(self):
        for S in ([1, 1], (2, 3, 2)):
            with pytest.raises(ValueError, match=r"^duplicate subset indices in \("):
                parity_lift(3, S)

    def test_unit_count(self):
        assert parity_lift(2, [1]).s == 3  # shifts -2, 0, 2
        assert parity_lift(3, [1]).s == 3  # shifts -2, 0, 2


def unit_norm_payloads(rng, b, q):
    table = rng.normal(size=(1 << b, q))
    return table / np.linalg.norm(table, axis=1, keepdims=True)


class TestGammaGated:
    def test_sqrt_q_fully_sparse(self):
        rng = np.random.default_rng(2)
        net = gamma_gated_net(2, 3, float(np.sqrt(3)), unit_norm_payloads(rng, 2, 3))
        report = verify_sparsity(net, 1, "exhaustive")
        assert report.max_active == 1

    def test_tiny_gamma_violates_somewhere(self):
        rng = np.random.default_rng(3)
        net = gamma_gated_net(2, 3, 0.1, unit_norm_payloads(rng, 2, 3))
        report = verify_sparsity(net, 1, "exhaustive")
        assert report.max_active > 1
        assert report.violating_input is not None

    def test_violation_fraction_decreases_with_margin(self):
        rng = np.random.default_rng(4)
        b, q = 2, 16
        payloads = unit_norm_payloads(rng, b, q)
        s = 1 << b
        fractions = []
        for c in (1.0, 2.0, 3.0):
            net = gamma_gated_net(b, q, c * float(np.sqrt(np.log(s))), payloads)
            points = np.random.default_rng(5).integers(0, 1 << net.n, size=20_000)
            report = verify_sparsity(net, 1, support=points)
            fractions.append(report.violation_fraction)
        assert fractions[0] >= fractions[1] >= fractions[2]
        assert fractions[0] > fractions[2]

    def test_oversized_payload_rejected(self):
        table = np.full((4, 3), 1.0)
        with pytest.raises(ValueError):
            gamma_gated_net(2, 3, 1.0, table)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        table = unit_norm_payloads(np.random.default_rng(9), 2, 3)
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            gamma_gated_net(2, 3, gamma, table)

    def test_gamma_bias_must_not_overflow(self):
        table = unit_norm_payloads(np.random.default_rng(9), 2, 3)
        with pytest.raises(ValueError, match=r"gamma \* b must be finite, got gamma=1e\+308"):
            gamma_gated_net(2, 3, 1e308, table)
        assert gamma_gated_net(2, 3, 8e307, table).b.tolist() == [1.6e308] * 4

    @pytest.mark.parametrize("b, q", [(0, 3), (-1, 3), (2, 0), (2, -1)])
    def test_sizes_below_one_are_value_errors(self, b, q):
        with pytest.raises(ValueError, match=f"must be >= 1, got b={b}, q={q}"):
            gamma_gated_net(b, q, 1.0, np.zeros((1, 1)))

    @pytest.mark.parametrize("b, q", [(9, 3), (2, 17)])
    def test_sizes_above_the_caps_are_capacity_errors(self, b, q):
        with pytest.raises(CapacityError):
            gamma_gated_net(b, q, 1.0, np.zeros((1, 1)))


class TestCrossConstruction:
    def test_every_construction_round_trips(self):
        rng = np.random.default_rng(8)
        nets = [
            junta_to_net(JuntaSpec(n=5, relevant=(1, 3), table=rng.uniform(-1, 1, 4))),
            index_net(2),
            parity_lift(3, [1, 3]),
            gamma_gated_net(2, 3, 2.0, unit_norm_payloads(rng, 2, 3)),
        ]
        for net in nets:
            again = SparseNet.from_json(net.to_json())
            assert np.array_equal(net.w, again.w)
            assert np.array_equal(net.u, again.u)
            assert np.array_equal(net.b, again.b)

    def test_junta_equals_tabulated_lookup(self):
        rng = np.random.default_rng(9)
        spec = JuntaSpec(n=6, relevant=(2, 3, 6), table=rng.uniform(-1, 1, 8))
        net = junta_to_net(spec)
        assert np.allclose(
            tabulate(net, 6).values, tabulate(spec.value, 6).values, atol=1e-12
        )

    def test_even_sum_detector_is_constant_on_signs(self):
        # sum_{i in S} y_i is congruent to |S| mod 2 on +-1 inputs, so the
        # even-sum detector is constant there: 1 when |S| is even, 0 when odd
        for m, S in ((4, (1, 2)), (4, (1, 2, 3)), (3, (2,))):
            net = parity_lift(m, S)
            want = 1.0 if len(S) % 2 == 0 else 0.0
            values = net.eval_batch(embed_lift(np.arange(1 << m), m))
            for u in range(1 << m):
                assert values[u] == want
