"""Low-degree regression against the transform oracle, and decision-list
peeling against generator networks."""

import itertools
import math

import numpy as np
import pytest
from helpers import chi, parity_function, reference_decision_list
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseact import (
    CapacityError,
    CubePoint,
    Dataset,
    InconsistentDataError,
    JuntaSpec,
    MonomialModel,
    NoConsistentListError,
    SparseNet,
    Spectrum,
    evaluate_loss,
    fit_decision_list,
    fit_low_degree,
    full_cube_dataset,
    inverse_wht,
    junta_to_net,
    learners,
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


class TestDataset:
    @pytest.mark.parametrize(
        "n, idx, y",
        [
            (3, [0, 1], [0.5]),
            (3, [0, 8], [0.5, 1.0]),
            (3, [-1], [0.5]),
            (3, [0, 1], [0.5, np.nan]),
            (3, [0], [np.inf]),
            (63, [0], [0.5]),
            (3, [], []),
            (3, [0.0, 1.5], [0.5, 1.0]),
        ],
        ids=[
            "shape-mismatch",
            "index-above-range",
            "negative-index",
            "nan-label",
            "inf-label",
            "n-63",
            "empty",
            "float-indices",
        ],
    )
    def test_rejects(self, n, idx, y):
        with pytest.raises(ValueError):
            Dataset(n, idx, y)

    def test_read_only_copies(self):
        idx, y = np.array([3, 1]), np.array([0.5, -1.0])
        data = Dataset(62, idx, y)
        idx[0] = 0
        assert len(data) == 2 and data.idx.dtype == np.int64 and data.idx[0] == 3
        with pytest.raises(ValueError):
            data.y[0] = 1.0


class TestFitLowDegree:
    def test_full_cube_equals_transform(self):
        rng = np.random.default_rng(0)
        f = random_low_degree_function(rng, 6, 2)
        data = full_cube_dataset(f, 6)
        model = fit_low_degree(data, 2, ridge=0.0)
        spec = wht(f)
        low = [mask for mask in range(1 << 6) if bin(mask).count("1") <= 2]
        assert sorted(model.masks.tolist()) == low
        for mask, c in zip(model.masks, model.coeffs):
            assert c == pytest.approx(spec.coeffs[mask], abs=1e-8)
        assert evaluate_loss(model, data).mse == pytest.approx(0.0, abs=1e-12)

    def test_parity_above_degree_fits_zero(self):
        f = tabulate(parity_function(3, (1, 2)), 3)
        data = full_cube_dataset(f, 3)
        model = fit_low_degree(data, 1, ridge=0.0)
        for u in data.idx:
            assert model.eval(CubePoint(3, int(u))) == pytest.approx(0.0, abs=1e-10)
        assert evaluate_loss(model, data).mse == pytest.approx(0.5, abs=1e-10)

    def test_constant_labels_recovered(self):
        rng = np.random.default_rng(1)
        data = Dataset(4, rng.integers(0, 16, size=30), np.full(30, 2.75))
        for d in (0, 1, 2):
            model = fit_low_degree(data, d)
            for u in data.idx[:5]:
                assert model.eval(CubePoint(4, int(u))) == pytest.approx(2.75, abs=1e-6)

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
            fit_low_degree(Dataset(1, [], []), 1)

    def test_feature_capacity(self):
        data = Dataset(20, [0], [1.0])
        with pytest.raises(CapacityError):
            fit_low_degree(data, 10)

    def test_degree_out_of_range(self):
        data = Dataset(3, [0], [1.0])
        with pytest.raises(ValueError):
            fit_low_degree(data, 4)


class TestPredict:
    def test_empty_model_is_zero(self):
        model = MonomialModel(n=3, d=1, masks=[], coeffs=[])
        assert model.eval(CubePoint(3, 5)) == 0.0

    def test_constant_coefficient(self):
        model = MonomialModel(n=3, d=0, masks=[0], coeffs=[3.0])
        for u in range(8):
            assert model.eval(CubePoint(3, u)) == 3.0

    def test_truncation_error_equals_tail_mass(self):
        rng = np.random.default_rng(3)
        f = tabulate(lambda x: float(rng.normal()), 6)  # arbitrary fixed table
        spec = wht(f)
        d = 2
        masks = [mask for mask in range(1 << 6) if bin(mask).count("1") <= d]
        model = MonomialModel(n=6, d=d, masks=masks, coeffs=spec.coeffs[masks])
        err = 0.0
        for u in range(1 << 6):
            err += (model.eval(CubePoint(6, u)) - f.values[u]) ** 2
        err /= 1 << 6
        assert err == pytest.approx(tail_mass(spec, d), abs=1e-8)

    def test_dimension_mismatch(self):
        model = MonomialModel(n=3, d=0, masks=[], coeffs=[])
        with pytest.raises(ValueError):
            model.eval(CubePoint(4, 0))

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_eval_batch_equals_character_sum(self, n, data):
        d = data.draw(st.integers(0, n))
        masks = data.draw(
            st.lists(
                st.integers(0, (1 << n) - 1).filter(lambda m: bin(m).count("1") <= d),
                max_size=12,
            )
        )
        coeffs = data.draw(
            st.lists(st.floats(-1e6, 1e6), min_size=len(masks), max_size=len(masks))
        )
        points = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))
        model = MonomialModel(n=n, d=d, masks=masks, coeffs=coeffs)
        X = np.array([CubePoint(n, u).signs() for u in points])
        for u, value in zip(points, model.eval_batch(X)):
            terms = [c * chi(m, u) for m, c in zip(masks, coeffs)]
            assert value == sum(terms)

    def test_degree_invariant_enforced(self):
        with pytest.raises(ValueError):
            MonomialModel(n=3, d=1, masks=[0b011], coeffs=[1.0])


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
        for u, y in zip(data.idx, data.y):
            assert abs(dlist.eval(CubePoint(2, int(u))) - y) <= 1e-6

    def test_inconsistent_duplicates_raise(self):
        with pytest.raises(InconsistentDataError):
            fit_decision_list(Dataset(2, [1, 1], [0.0, 1.0]), s=1, M=1)

    def test_consistent_duplicates_allowed(self):
        data = full_cube_dataset(
            SparseNet(
                n=2, s=1, k=1, u=np.array([1.0]), w=np.array([[1.0, 0.0]]),
                b=np.array([0.0]),
            ),
            2,
        )
        doubled = Dataset(2, np.tile(data.idx, 2), np.tile(data.y, 2))
        dlist = fit_decision_list(doubled, s=1, M=1)
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
        preds = [dlist.eval(CubePoint(4, int(u))) for u in data.idx]
        assert max(abs(p - y) for p, y in zip(preds, data.y)) <= 1e-6

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
        X = np.array([CubePoint(n, int(u)).signs() for u in data.idx], dtype=np.float64)
        y = data.y
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
        data = Dataset(7, [0], [0.0])
        with pytest.raises(CapacityError):
            fit_decision_list(data, s=1, M=1)


    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tol"):
            fit_decision_list(Dataset(2, [0, 1], [0.0, 1.0]), s=1, M=1, tol=tol)


_DL_FAMILIES = ("relu", "sparse", "junta", "affine", "random", "near-duplicate")


def decision_list_case(seed):
    """A seeded (data, s, M, tol) for the decision-list differential test:
    n in 1..6, M in 1..2, s in 1..8, one of _DL_FAMILIES, full-cube or
    sampled rows with repeats, labels scaled by 1e-12..1e12, tol in
    1e-9..1e-1.  Grids stay at or below 5^6 gates, to bound the reference."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    M = int(rng.integers(1, 3)) if n <= 5 else 1
    s = int(rng.integers(1, 9))
    family = _DL_FAMILIES[seed % len(_DL_FAMILIES)]
    if rng.random() < 0.5:
        idx = np.arange(1 << n)
    else:
        idx = rng.integers(0, 1 << n, size=int(rng.integers(1, 3 << n)))
    X = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1)
    if family == "relu":
        w, b = rng.integers(-M, M + 1, size=n), rng.integers(-M, M + 1)
        y = rng.normal() * np.maximum(X @ w - b, 0.0)
    elif family == "sparse":
        relevant = tuple(int(i) + 1 for i in rng.choice(n, size=min(n, 2), replace=False))
        patterns = list(itertools.product((1, -1), repeat=len(relevant)))
        chosen = rng.choice(len(patterns), size=int(rng.integers(1, len(patterns) + 1)),
                            replace=False)
        net = pattern_unit_net(n, relevant, [patterns[j] for j in chosen],
                               rng.uniform(-2, 2, chosen.size))
        y = net.eval_batch(X)
    elif family == "junta":
        p = int(rng.integers(1, n + 1))
        relevant = tuple(int(i) + 1 for i in rng.choice(n, size=p, replace=False))
        table = rng.uniform(-1, 1, 1 << p)
        net = junta_to_net(JuntaSpec(n=n, relevant=relevant, table=table))
        y = net.eval_batch(X)
    elif family == "affine":
        y = X @ rng.normal(size=n) + rng.normal()
    elif family == "random":
        y = rng.normal(size=idx.size)
    else:
        y = np.maximum(X @ rng.integers(-M, M + 1, size=n), 0.0)
    tol = float(10 ** rng.uniform(-9, -1))
    y = y * float(10 ** rng.uniform(-12, 12))
    if family == "near-duplicate":
        # repeats within tol of each other, and now and then beyond it
        y = y + rng.uniform(-0.45, 0.45, size=idx.size) * tol * (1 + 4 * (seed % 5 == 0))
    return Dataset(n, idx, y), s, M, tol


def _outcome(fit, *args):
    try:
        return repr(fit(*args))
    except (NoConsistentListError, InconsistentDataError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestDecisionListScreen:
    """The edge-step screen only skips gates whose least-squares fit would
    fail, so the list equals the gate-by-gate reference bit for bit."""

    @pytest.mark.parametrize("seed", range(72))
    def test_matches_reference(self, seed):
        case = decision_list_case(seed)
        expected = _outcome(reference_decision_list, *case)
        assert _outcome(fit_decision_list, *case) == expected

    def test_full_cube_junta_needs_few_solves(self, monkeypatch):
        # the gate-by-gate reference solves about 23,600 least-squares
        # problems on this input
        rng = np.random.default_rng(3)
        net = junta_to_net(JuntaSpec(n=6, relevant=(1, 3, 5), table=rng.uniform(-1, 1, 8)))
        calls = []
        fit = learners._affine_fit

        def counted(X, y):
            calls.append(len(y))
            return fit(X, y)

        monkeypatch.setattr(learners, "_affine_fit", counted)
        dlist = fit_decision_list(full_cube_dataset(net, 6), s=8, M=2)
        assert len(calls) <= 8
        assert len(dlist.nodes) <= len(calls)


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
        X = np.array([CubePoint(3, int(u)).signs() for u in data.idx], dtype=np.float64)
        batch = dlist.eval_batch(X)
        for u, value in zip(data.idx, batch):
            assert value == pytest.approx(dlist.eval(CubePoint(3, int(u))), abs=1e-12)


class TestEvaluateLoss:
    def test_perfect_predictor(self):
        data = Dataset(2, [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
        table = {u: float(u) for u in range(4)}
        report = evaluate_loss(lambda x: table[x.index], data)
        assert report.mse == 0.0 and report.count == 4

    def test_zero_predictor_on_sign_labels(self):
        data = Dataset(2, [0, 1, 2, 3], [-1.0, 1.0, -1.0, 1.0])
        assert evaluate_loss(lambda x: 0.0, data).mse == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_loss(lambda x: 0.0, Dataset(2, [], []))

    def test_net_table_and_callable_agree(self):
        net = junta_to_net(JuntaSpec(n=6, relevant=(2, 5), table=[0.5, -1.0, 0.25, 2.0]))
        forms = (net, tabulate(net, 6), net.eval)
        datasets = [sample_uniform_dataset(f, 6, 200, np.random.default_rng(9)) for f in forms]
        for other in datasets[1:]:
            assert np.array_equal(other.idx, datasets[0].idx)
            assert np.array_equal(other.y, datasets[0].y)
        data = Dataset(6, datasets[0].idx, np.zeros(len(datasets[0])))
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
            np.array([CubePoint(8, int(u)).signs() for u in holdout.idx], dtype=np.float64)
        ) - holdout.y) ** 2
        slack = 4 * float(np.std(per_point, ddof=1) / np.sqrt(len(holdout)))
        assert report.mse <= 0.5 * tail_mass(spec, d) + slack


class TestSampleDatasets:
    def test_uniform_dataset_labels(self):
        rng = np.random.default_rng(9)
        net = junta_to_net(JuntaSpec(n=5, relevant=(2,), table=np.array([1.0, -1.0])))
        data = sample_uniform_dataset(net, 5, 50, rng)
        for u, y in zip(data.idx, data.y):
            assert y == net.eval(CubePoint(5, int(u)))

    def test_full_cube_order(self):
        f = tabulate(parity_function(3, (1,)), 3)
        data = full_cube_dataset(f, 3)
        assert data.idx.tolist() == list(range(8))
        assert all(y == f.values[u] for u, y in zip(data.idx, data.y))
