"""Low-degree regression against the transform oracle, and decision-list
peeling against generator networks."""

import itertools
import math

import numpy as np
import pytest
from helpers import parity_function

from sparseact import (
    CapacityError,
    CubePoint,
    InconsistentDataError,
    JuntaSpec,
    LabeledSample,
    MonomialModel,
    NoConsistentListError,
    SparseNet,
    Spectrum,
    Subset,
    evaluate_loss,
    fit_decision_list,
    fit_low_degree,
    full_cube_dataset,
    inverse_wht,
    junta_to_net,
    sample_uniform_dataset,
    tabulate,
    tail_mass,
    wht,
)


def random_low_degree_function(rng, n, degree):
    coeffs = np.zeros(1 << n)
    deg = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    low = deg <= degree
    coeffs[low] = rng.normal(size=int(low.sum()))
    return inverse_wht(Spectrum(n, coeffs))


class TestFitLowDegree:
    def test_full_cube_equals_transform(self):
        rng = np.random.default_rng(0)
        f = random_low_degree_function(rng, 6, 2)
        data = full_cube_dataset(f, 6)
        model = fit_low_degree(data, 2, ridge=0.0)
        spec = wht(f)
        for mask in range(1 << 6):
            T = Subset.from_mask(6, mask)
            if T.size() <= 2:
                assert model.coeffs[T] == pytest.approx(spec.coeffs[mask], abs=1e-8)
        assert evaluate_loss(model, data).mse == pytest.approx(0.0, abs=1e-12)

    def test_parity_above_degree_fits_zero(self):
        f = tabulate(parity_function(3, (1, 2)), 3)
        data = full_cube_dataset(f, 3)
        model = fit_low_degree(data, 1, ridge=0.0)
        for sample in data:
            assert model.eval(sample.x) == pytest.approx(0.0, abs=1e-10)
        assert evaluate_loss(model, data).mse == pytest.approx(0.5, abs=1e-10)

    def test_constant_labels_recovered(self):
        rng = np.random.default_rng(1)
        data = [
            LabeledSample(CubePoint(4, int(u)), 2.75)
            for u in rng.integers(0, 16, size=30)
        ]
        for d in (0, 1, 2):
            model = fit_low_degree(data, d)
            for sample in data[:5]:
                assert model.eval(sample.x) == pytest.approx(2.75, abs=1e-6)

    def test_training_loss_non_increasing_in_degree(self):
        rng = np.random.default_rng(2)
        net_spec = JuntaSpec(n=6, relevant=(1, 2, 3), table=rng.uniform(-1, 1, 8))
        data = full_cube_dataset(junta_to_net(net_spec), 6)
        losses = [
            evaluate_loss(fit_low_degree(data, d, ridge=0.0), data).mse
            for d in range(4)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_low_degree([], 1)

    def test_feature_capacity(self):
        data = [LabeledSample(CubePoint(20, 0), 1.0)]
        with pytest.raises(CapacityError):
            fit_low_degree(data, 10)

    def test_degree_out_of_range(self):
        data = [LabeledSample(CubePoint(3, 0), 1.0)]
        with pytest.raises(ValueError):
            fit_low_degree(data, 4)


class TestPredict:
    def test_empty_model_is_zero(self):
        model = MonomialModel(n=3, d=1, coeffs={})
        assert model.eval(CubePoint(3, 5)) == 0.0

    def test_constant_coefficient(self):
        model = MonomialModel(n=3, d=0, coeffs={Subset(3): 3.0})
        for u in range(8):
            assert model.eval(CubePoint(3, u)) == 3.0

    def test_truncation_error_equals_tail_mass(self):
        rng = np.random.default_rng(3)
        f = tabulate(lambda x: float(rng.normal()), 6)  # arbitrary fixed table
        spec = wht(f)
        d = 2
        model = MonomialModel(
            n=6,
            d=d,
            coeffs={
                Subset.from_mask(6, mask): float(spec.coeffs[mask])
                for mask in range(1 << 6)
                if bin(mask).count("1") <= d
            },
        )
        err = 0.0
        for u in range(1 << 6):
            err += (model.eval(CubePoint(6, u)) - f.values[u]) ** 2
        err /= 1 << 6
        assert err == pytest.approx(tail_mass(spec, d), abs=1e-8)

    def test_dimension_mismatch(self):
        model = MonomialModel(n=3, d=0, coeffs={})
        with pytest.raises(ValueError):
            model.eval(CubePoint(4, 0))

    def test_degree_invariant_enforced(self):
        with pytest.raises(ValueError):
            MonomialModel(n=3, d=1, coeffs={Subset.of(3, 1, 2): 1.0})


def pattern_unit_net(n, relevant, patterns, weights):
    """1-sparse net whose units gate on distinct sign patterns of two
    coordinates; in the integer grid with M=1 (weights +-1, bias 1)."""
    p = len(relevant)
    s = len(patterns)
    w = np.zeros((s, n))
    for j, pattern in enumerate(patterns):
        for t, coord in enumerate(relevant):
            w[j, coord - 1] = pattern[t]
    return SparseNet(
        n=n, s=s, k=1, u=np.array(weights, dtype=float), w=w, b=np.full(s, p - 1.0)
    )


class TestFitDecisionList:
    def test_single_relu_target(self):
        net = SparseNet(
            n=2, s=1, k=1, u=np.array([1.0]), w=np.array([[1.0, 1.0]]), b=np.array([1.0])
        )
        data = full_cube_dataset(net, 2)
        dlist = fit_decision_list(data, s=1, M=1)
        assert evaluate_loss(dlist, data).mse == 0.0
        for sample in data:
            assert abs(dlist.eval(sample.x) - sample.y) <= 1e-6

    def test_inconsistent_duplicates_raise(self):
        x = CubePoint(2, 1)
        with pytest.raises(InconsistentDataError):
            fit_decision_list(
                [LabeledSample(x, 0.0), LabeledSample(x, 1.0)], s=1, M=1
            )

    def test_consistent_duplicates_allowed(self):
        data = full_cube_dataset(
            SparseNet(
                n=2, s=1, k=1, u=np.array([1.0]), w=np.array([[1.0, 0.0]]),
                b=np.array([0.0]),
            ),
            2,
        )
        dlist = fit_decision_list(data + data, s=1, M=1)
        assert evaluate_loss(dlist, data).mse == pytest.approx(0.0, abs=1e-12)

    def test_recovers_two_unit_target_exactly(self):
        rng = np.random.default_rng(4)
        net = pattern_unit_net(3, (1, 2), [(1, 1), (-1, -1)], rng.uniform(0.5, 2, 2))
        data = full_cube_dataset(net, 3)
        dlist = fit_decision_list(data, s=2, M=1)
        for u in range(8):
            x = CubePoint(3, u)
            assert abs(dlist.eval(x) - net.eval(x)) <= 1e-6

    def test_max_residual_contract(self):
        rng = np.random.default_rng(5)
        net = pattern_unit_net(4, (2, 3), [(1, -1), (-1, 1), (1, 1)], rng.uniform(-2, 2, 3))
        data = full_cube_dataset(net, 4)
        dlist = fit_decision_list(data, s=3, M=1, tol=1e-6)
        preds = [dlist.eval(s.x) for s in data]
        assert max(abs(p - s.y) for p, s in zip(preds, data)) <= 1e-6

    def test_node_budget(self):
        rng = np.random.default_rng(6)
        net = pattern_unit_net(4, (1, 4), [(1, 1), (-1, 1)], rng.uniform(-1, 1, 2))
        data = full_cube_dataset(net, 4)
        s = 2
        dlist = fit_decision_list(data, s=s, M=1)
        assert len(dlist.nodes) <= s * math.ceil(math.log2(len(data))) + 1

    def test_no_consistent_list(self):
        # sum of all 2-parities on n=4: an independent scan (see below)
        # shows no M=1 gate isolates an affine-fittable half of the cube
        n = 4

        def f(x):
            s = x.signs().astype(np.float64)
            return float(
                sum(s[i] * s[j] for i in range(n) for j in range(i + 1, n))
            )

        data = full_cube_dataset(f, n)
        X = np.array([s.x.signs() for s in data], dtype=np.float64)
        y = np.array([s.y for s in data])
        qualifying = 0
        for gate in itertools.product(range(-1, 2), repeat=n + 1):
            w = np.array(gate[:n], dtype=np.float64)
            side = (X @ w - gate[n]) > 0
            if side.sum() < math.ceil(len(data) / 2):
                continue
            A = np.hstack([X[side], np.ones((int(side.sum()), 1))])
            sol, *_ = np.linalg.lstsq(A, y[side], rcond=None)
            if np.max(np.abs(A @ sol - y[side])) <= 1e-6:
                qualifying += 1
        assert qualifying == 0
        with pytest.raises(NoConsistentListError):
            fit_decision_list(data, s=1, M=1)

    def test_capacity_guard(self):
        data = [LabeledSample(CubePoint(7, 0), 0.0)]
        with pytest.raises(CapacityError):
            fit_decision_list(data, s=1, M=1)


class TestDlPredict:
    def test_empty_list_default(self):
        from sparseact import GeneralizedDecisionList

        dlist = GeneralizedDecisionList(n=3, nodes=(), default=1.5)
        for u in range(8):
            assert dlist.eval(CubePoint(3, u)) == 1.5

    def test_all_covering_node(self):
        from sparseact import GeneralizedDecisionList, ListNode

        node = ListNode(gate_w=(0, 0), gate_b=-1, leaf_v=(0.5, -0.5), leaf_c=1.0)
        dlist = GeneralizedDecisionList(n=2, nodes=(node,), default=0.0)
        for u in range(4):
            x = CubePoint(2, u)
            signs = x.signs().astype(np.float64)
            assert dlist.eval(x) == pytest.approx(
                0.5 * signs[0] - 0.5 * signs[1] + 1.0
            )

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(7)
        net = pattern_unit_net(3, (1, 3), [(1, -1), (-1, 1)], rng.uniform(-1, 1, 2))
        data = full_cube_dataset(net, 3)
        dlist = fit_decision_list(data, s=2, M=1)
        X = np.array([s.x.signs() for s in data], dtype=np.float64)
        batch = dlist.eval_batch(X)
        for sample, value in zip(data, batch):
            assert value == pytest.approx(dlist.eval(sample.x), abs=1e-12)


class TestEvaluateLoss:
    def test_perfect_predictor(self):
        data = [LabeledSample(CubePoint(2, u), float(u)) for u in range(4)]
        table = {u: float(u) for u in range(4)}
        report = evaluate_loss(lambda x: table[x.index], data)
        assert report.mse == 0.0 and report.count == 4

    def test_zero_predictor_on_sign_labels(self):
        data = [LabeledSample(CubePoint(2, u), 1.0 if u % 2 else -1.0) for u in range(4)]
        assert evaluate_loss(lambda x: 0.0, data).mse == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_loss(lambda x: 0.0, [])

    def test_net_table_and_callable_agree(self):
        net = junta_to_net(JuntaSpec(n=6, relevant=(2, 5), table=[0.5, -1.0, 0.25, 2.0]))
        forms = (net, tabulate(net, 6), net.eval)
        datasets = [sample_uniform_dataset(f, 6, 200, np.random.default_rng(9)) for f in forms]
        assert datasets[0] == datasets[1] == datasets[2]
        data = [LabeledSample(s.x, 0.0) for s in datasets[0]]
        losses = [evaluate_loss(f, data).mse for f in forms]
        assert losses[0] > 0 and losses[0] == losses[1] == losses[2]

    def test_holdout_loss_bounded_by_tail_mass(self):
        # realizable labels, model = truncated expansion fit on the cube:
        # expected loss is tail/2, allow 4 sigma of sampling slack
        rng = np.random.default_rng(8)
        net = junta_to_net(
            JuntaSpec(n=8, relevant=(1, 4, 7), table=rng.uniform(-1, 1, 8))
        )
        f = tabulate(net, 8)
        spec = wht(f)
        d = 2
        model = fit_low_degree(full_cube_dataset(net, 8), d, ridge=0.0)
        holdout = sample_uniform_dataset(net, 8, 4000, rng)
        report = evaluate_loss(model, holdout)
        per_point = 0.5 * (model.eval_batch(
            np.array([s.x.signs() for s in holdout], dtype=np.float64)
        ) - np.array([s.y for s in holdout])) ** 2
        slack = 4 * float(np.std(per_point, ddof=1) / np.sqrt(len(holdout)))
        assert report.mse <= 0.5 * tail_mass(spec, d) + slack


class TestSampleDatasets:
    def test_uniform_dataset_labels(self):
        rng = np.random.default_rng(9)
        net = junta_to_net(JuntaSpec(n=5, relevant=(2,), table=np.array([1.0, -1.0])))
        data = sample_uniform_dataset(net, 5, 50, rng)
        for sample in data:
            assert sample.y == net.eval(sample.x)

    def test_full_cube_order(self):
        f = tabulate(parity_function(3, (1,)), 3)
        data = full_cube_dataset(f, 3)
        assert [s.x.index for s in data] == list(range(8))
        assert all(s.y == f.values[s.x.index] for s in data)
