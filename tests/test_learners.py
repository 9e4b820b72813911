"""Low-degree regression against the transform oracle, and decision-list
peeling against generator networks."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (
    Point,
    chi,
    net_value,
    parity_function,
    reference_decision_list,
    reference_dlist_values,
    reference_fit_low_degree,
    reference_monomial_values,
    reference_normal_equations,
    reference_within_spread,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseact import (
    CapacityError,
    CubeFunction,
    Dataset,
    GeneralizedDecisionList,
    InconsistentDataError,
    JuntaSpec,
    ListNode,
    MonomialModel,
    NoConsistentListError,
    SparseNet,
    Spectrum,
    evaluate_loss,
    fit_decision_list,
    fit_low_degree,
    fourier,
    full_cube_dataset,
    hypercube,
    inverse_wht,
    junta_to_net,
    learners,
    sample_uniform_dataset,
    tabulate,
    tail_mass,
    wht,
)
from sparseact.config import MAX_TABULATE_N, REL_TOL_EXACT
from sparseact.fourier import values_at
from sparseact.hypercube import index_signs


def value_at(f, n, u):
    """f at the one packed point u, through ``values_at``."""
    return float(values_at(f, n, np.array([u]))[0])


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
            assert value_at(model, 3, int(u)) == pytest.approx(0.0, abs=1e-10)
        assert evaluate_loss(model, data).mse == pytest.approx(0.5, abs=1e-10)

    def test_constant_labels_recovered(self):
        rng = np.random.default_rng(1)
        data = Dataset(4, rng.integers(0, 16, size=30), np.full(30, 2.75))
        for d in (0, 1, 2):
            model = fit_low_degree(data, d)
            for u in data.idx[:5]:
                assert value_at(model, 4, int(u)) == pytest.approx(2.75, abs=1e-6)

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

    @pytest.mark.parametrize("ridge", [-1.0, -1e-300, math.nan, math.inf])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            fit_low_degree(Dataset(2, [0, 1], [0.0, 1.0]), 1, ridge=ridge)

    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in range(1, 13) for d in range(min(n, 4) + 1)]
    )
    def test_full_cube_coefficients_are_the_transform(self, n, d):
        # the Gram matrix is exactly 2^n I, so the solve divides by a power of two
        f = CubeFunction(n, np.random.default_rng(n).normal(size=1 << n))
        model = fit_low_degree(full_cube_dataset(f, n), d, ridge=0.0)
        assert np.array_equal(model.coeffs, wht(f).coeffs[model.masks])


@st.composite
def repeated_samples(draw):
    """(data, d): n in 1..14, d <= 3, up to 300 samples drawn from a few
    distinct inputs, labels at a scale from 1e-6 to 1e6."""
    n = draw(st.integers(1, 14))
    d = draw(st.integers(0, min(n, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(0, 1 << n, size=draw(st.integers(1, 60)))
    m = draw(st.integers(1, 300))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return Dataset(n, rng.choice(distinct, size=m), scale * rng.normal(size=m)), d


class TestNormalEquations:
    @settings(max_examples=60, deadline=None)
    @given(repeated_samples())
    @example((Dataset(10, [5, 9, 9, 700], [1.0, -2.0, -2.0, 3.0]), 3))  # interpolates
    def test_match_design_matrix(self, case):
        data, d = case
        masks = learners._monomial_masks(data.n, d)
        G, rhs = learners._normal_equations(data, masks)
        G_ref, rhs_ref = reference_normal_equations(data, masks)
        assert np.array_equal(G, G_ref)
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.sum(np.abs(data.y))
        loss = evaluate_loss(fit_low_degree(data, d), data).mse
        loss_ref = evaluate_loss(reference_fit_low_degree(data, d), data).mse
        # on the scale of the zero predictor's loss: an interpolating fit
        # leaves a loss made of rounding alone, which no relative test fits
        scale = 0.5 * np.mean(data.y**2)
        assert loss == pytest.approx(loss_ref, rel=REL_TOL_EXACT, abs=REL_TOL_EXACT * scale)

    def test_memory_independent_of_sample_count(self):
        rng = np.random.default_rng(16)
        data = Dataset(16, rng.integers(0, 1 << 16, size=50_000), rng.normal(size=50_000))
        fit_low_degree(data, 2)  # lazy imports and set-up outside the trace
        tracemalloc.start()
        try:
            fit_low_degree(data, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (50000, 137) design matrix alone would take 55 MB
        assert peak < 4 << 20


@st.composite
def models_at_points(draw):
    """(model, idx): n in 1..20 or 21..62, d <= 3, up to 1500 masks drawn
    from a seeded generator (none, or with repeats), coefficients at a scale
    from 1e-6 to 1e6, and 1 to 5000 packed points."""
    n = draw(st.integers(1, MAX_TABULATE_N) | st.integers(MAX_TABULATE_N + 1, 62))
    d = draw(st.integers(0, min(n, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.sampled_from([0, 1, 7, 200, 1500]))
    masks = [
        sum(1 << int(i) for i in rng.choice(n, size=size, replace=False))
        for size in rng.integers(0, d + 1, size=count)
    ]
    if masks and draw(st.booleans()):
        masks += rng.choice(masks, size=draw(st.integers(1, 20))).tolist()
    scale = 10.0 ** draw(st.integers(-6, 6))
    coeffs = scale * rng.normal(size=len(masks))
    m = draw(st.sampled_from([1, 2, 64, 5000]))
    idx = rng.integers(0, 1 << n, size=m, dtype=np.int64)
    return MonomialModel(n=n, d=d, masks=masks, coeffs=coeffs), idx


class TestEvalIndices:
    @staticmethod
    def assert_near_reference(model, idx, got):
        want = reference_monomial_values(model, idx)
        tol = REL_TOL_EXACT * (np.sum(np.abs(model.coeffs)) + 1.0)
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= tol

    @settings(max_examples=80, deadline=None)
    @given(models_at_points())
    @example((MonomialModel(n=3, d=2, masks=[], coeffs=[]), np.array([5])))
    @example((MonomialModel(n=62, d=1, masks=[0, 1 << 61, 0], coeffs=[1.5, -2.0, 0.25]),
              np.array([(1 << 62) - 1])))
    @example((MonomialModel(n=4, d=2, masks=[3, 3, 0, 3], coeffs=[1.0, 2.0, -1.0, 4.0]),
              np.arange(16)))
    def test_matches_character_sum(self, case):
        model, idx = case
        got = model.eval_indices(idx)
        self.assert_near_reference(model, idx, got)
        tabulated = model.n <= MAX_TABULATE_N and model.n << model.n <= idx.size * model.masks.size
        if not tabulated:
            assert np.array_equal(got, model._character_sum(idx))

    def test_table_path_at_the_cap(self):
        rng = np.random.default_rng(20)
        n, d = MAX_TABULATE_N, 2
        masks = learners._monomial_masks(n, d)
        model = MonomialModel(n=n, d=d, masks=masks, coeffs=rng.normal(size=masks.size))
        idx = rng.integers(0, 1 << n, size=-(-(n << n) // masks.size))  # just tabulated
        self.assert_near_reference(model, idx, model.eval_indices(idx))

    def test_rejects_bad_indices(self):
        model = MonomialModel(n=3, d=1, masks=[1], coeffs=[1.0])
        for idx in ([8], [-1], [], [[1]], [0.5]):
            with pytest.raises(ValueError):
                model.eval_indices(idx)

    def test_values_at_never_unpacks(self, monkeypatch):
        def unpack(*args):
            raise AssertionError("index_signs called")

        for module in (learners, hypercube):
            monkeypatch.setattr(module, "index_signs", unpack)
        rng = np.random.default_rng(11)
        data = Dataset(12, rng.integers(0, 1 << 12, size=3000), rng.normal(size=3000))
        model = fit_low_degree(data, 2)
        assert evaluate_loss(model, data).count == 3000
        assert len(sample_uniform_dataset(model, 12, 5, rng)) == 5
        with pytest.raises(ValueError, match="model has n=12, requested 11"):
            fourier.values_at(model, 11, np.arange(4))


class TestPredict:
    def test_empty_model_is_zero(self):
        model = MonomialModel(n=3, d=1, masks=[], coeffs=[])
        assert value_at(model, 3, 5) == 0.0

    def test_constant_coefficient(self):
        model = MonomialModel(n=3, d=0, masks=[0], coeffs=[3.0])
        for u in range(8):
            assert value_at(model, 3, u) == 3.0

    def test_truncation_error_equals_tail_mass(self):
        rng = np.random.default_rng(3)
        f = tabulate(lambda u: float(rng.normal()), 6)  # arbitrary fixed table
        spec = wht(f)
        d = 2
        masks = [mask for mask in range(1 << 6) if bin(mask).count("1") <= d]
        model = MonomialModel(n=6, d=d, masks=masks, coeffs=spec.coeffs[masks])
        err = 0.0
        for u in range(1 << 6):
            err += (value_at(model, 6, u) - f.values[u]) ** 2
        err /= 1 << 6
        assert err == pytest.approx(tail_mass(spec, d), abs=1e-8)

    def test_dimension_mismatch(self):
        model = MonomialModel(n=3, d=0, masks=[], coeffs=[])
        with pytest.raises(ValueError):
            value_at(model, 4, 0)

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
        for u, value in zip(points, model._character_sum(np.array(points))):
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
            assert abs(value_at(dlist, 2, int(u)) - y) <= 1e-6

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
            assert abs(value_at(dlist, 3, u) - net_value(net, u)) <= 1e-6

    def test_max_residual_contract(self):
        rng = np.random.default_rng(5)
        net = pattern_unit_net(4, (2, 3), [(1, -1), (-1, 1), (1, 1)], rng.uniform(-2, 2, 3))
        data = full_cube_dataset(net, 4)
        dlist = fit_decision_list(data, s=3, M=1, tol=1e-6)
        preds = [value_at(dlist, 4, int(u)) for u in data.idx]
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

        def f(u):
            s = Point(n, u).signs().astype(np.float64)
            return float(
                sum(s[i] * s[j] for i in range(n) for j in range(i + 1, n))
            )

        data = full_cube_dataset(f, n)
        X = np.array([Point(n, int(u)).signs() for u in data.idx], dtype=np.float64)
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

    def test_huge_finite_labels_warn_nothing(self):
        # the least-squares residual overflows to inf, which fails the fit
        data = Dataset(2, np.arange(4), [1.5e308, -1.5e308, 0.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConsistentListError):
                fit_decision_list(data, s=1, M=1)

    def test_full_cube_peak_memory(self):
        rng = np.random.default_rng(3)
        net = junta_to_net(JuntaSpec(n=6, relevant=(1, 3, 5), table=rng.uniform(-1, 1, 8)))
        data = full_cube_dataset(net, 6)
        tracemalloc.start()
        try:
            fit_decision_list(data, s=8, M=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (64, 78125) float32 gate product alone would take 20 MB
        assert peak < 8 << 20


def _gate_rows(n, M):
    """Every gate (w, b) in {-M..M}^{n+1} as a float32 row, in lexicographic order."""
    return np.array(list(itertools.product(range(-M, M + 1), repeat=n + 1)), dtype=np.float32)


def _gate_products(idx, n, M):
    """(idx.size, gates) bool: whether each gate fires at each packed input."""
    X_ext = np.hstack([index_signs(idx, n), -np.ones((idx.size, 1), np.int8)])
    return (X_ext.astype(np.float32) @ _gate_rows(n, M).T) > 0.0


class TestFireWords:
    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_match_packed_gate_products(self, n, M):
        points = np.arange(1 << n)
        place = np.uint64(1) << points.astype(np.uint64)
        fires = _gate_products(points, n, M)
        expected = np.where(fires, place[:, None], np.uint64(0)).sum(axis=0, dtype=np.uint64)
        words = learners._fire_words(n, M)
        assert words.dtype == np.uint64
        assert np.array_equal(words, expected)
        # no bit at or above 2^n
        assert not np.any(words & ~place.sum(dtype=np.uint64))


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


def overflow_case(seed):
    """decision_list_case(seed) with its labels rescaled to reach +-1.7e308,
    so that label steps along cube edges, and differences of finite steps,
    overflow to +-inf."""
    data, s, M, tol = decision_list_case(seed)
    peak = float(np.max(np.abs(data.y)))
    y = data.y / peak * 1.7e308 if peak > 0 else data.y
    return Dataset(data.n, data.idx, y), s, M, tol


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

    @pytest.mark.parametrize("seed", range(48))
    def test_overflowing_steps_match_reference(self, seed):
        case = overflow_case(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _outcome(reference_decision_list, *case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(fit_decision_list, *case) == expected

    @pytest.mark.parametrize("live_subset", [False, True], ids=["all-live", "live-subset"])
    @pytest.mark.parametrize("make_case", [decision_list_case, overflow_case],
                             ids=["scaled", "overflowing"])
    @pytest.mark.parametrize("seed", range(72))
    def test_screen_keeps_the_reference_gates(self, seed, make_case, live_subset):
        data, _, M, tol = make_case(seed)
        n = data.n
        uniq, first = np.unique(data.idx, return_index=True)
        live = np.ones(uniq.size, dtype=bool)
        if live_subset:
            live = np.random.default_rng(seed).random(uniq.size) < 0.6
        slack = 4.0 * tol + 1e-9 * float(np.max(np.abs(data.y)))
        fires = _gate_products(uniq, n, M)
        candidates = np.arange(fires.shape[1])
        expected = reference_within_spread(fires, candidates, live, uniq, data.y[first], n, slack)
        live_points = np.zeros(1 << n, dtype=bool)
        live_points[uniq[live]] = True
        y1 = np.zeros(1 << n)
        y1[uniq] = data.y[first]
        with np.errstate(over="ignore", invalid="ignore"):
            kept = learners._screen(learners._fire_words(n, M), candidates, live_points, y1, slack)
        assert np.array_equal(kept, expected)


class TestDlPredict:
    def test_empty_list_default(self):
        dlist = GeneralizedDecisionList(n=3, nodes=(), default=1.5)
        for u in range(8):
            assert value_at(dlist, 3, u) == 1.5

    def test_all_covering_node(self):
        node = ListNode(gate_w=(0, 0), gate_b=-1, leaf_v=(0.5, -0.5), leaf_c=1.0)
        dlist = GeneralizedDecisionList(n=2, nodes=(node,), default=0.0)
        for u in range(4):
            x = Point(2, u)
            signs = x.signs().astype(np.float64)
            assert value_at(dlist, 2, u) == pytest.approx(
                0.5 * signs[0] - 0.5 * signs[1] + 1.0
            )

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(7)
        net = pattern_unit_net(3, (1, 3), [(1, -1), (-1, 1)], rng.uniform(-1, 1, 2))
        data = full_cube_dataset(net, 3)
        dlist = fit_decision_list(data, s=2, M=1)
        X = np.array([Point(3, int(u)).signs() for u in data.idx], dtype=np.float64)
        want = reference_dlist_values(dlist, X)
        assert np.array_equal(dlist.eval_indices(data.idx), want)
        for u, value in zip(data.idx, want):
            assert value == pytest.approx(value_at(dlist, 3, int(u)), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 9])
    def test_eval_indices_matches_sign_row_oracle(self, n):
        # gates in {-2..2}^(n+1) leave some points undecided, so the
        # default leaf is read too
        rng = np.random.default_rng(n)
        nodes = tuple(
            ListNode(tuple(int(g) for g in rng.integers(-2, 3, n)), int(rng.integers(-2, 3)),
                     tuple(float(v) for v in rng.normal(size=n)), float(rng.normal()))
            for _ in range(4)
        )
        dlist = GeneralizedDecisionList(n=n, nodes=nodes, default=0.75)
        X = np.array([Point(n, u).signs() for u in range(1 << n)], dtype=np.float64)
        assert np.array_equal(dlist.eval_indices(np.arange(1 << n)),
                              reference_dlist_values(dlist, X))

    def test_wrong_dimension_refused(self):
        dlist = GeneralizedDecisionList(n=3, nodes=(), default=1.5)
        with pytest.raises(ValueError, match="model has n=3, requested 4"):
            values_at(dlist, 4, np.arange(4))
        with pytest.raises(ValueError):
            dlist.eval_indices(np.array([8]))


class TestEvaluateLoss:
    def test_perfect_predictor(self):
        data = Dataset(2, [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
        table = {u: float(u) for u in range(4)}
        report = evaluate_loss(lambda u: table[u], data)
        assert report.mse == 0.0 and report.count == 4

    def test_zero_predictor_on_sign_labels(self):
        data = Dataset(2, [0, 1, 2, 3], [-1.0, 1.0, -1.0, 1.0])
        assert evaluate_loss(lambda u: 0.0, data).mse == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_loss(lambda u: 0.0, Dataset(2, [], []))

    def test_net_table_and_callable_agree(self):
        net = junta_to_net(JuntaSpec(n=6, relevant=(2, 5), table=[0.5, -1.0, 0.25, 2.0]))
        forms = (net, tabulate(net, 6), lambda u: net_value(net, u))
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
        per_point = 0.5 * (reference_monomial_values(model, holdout.idx) - holdout.y) ** 2
        slack = 4 * float(np.std(per_point, ddof=1) / np.sqrt(len(holdout)))
        assert report.mse <= 0.5 * tail_mass(spec, d) + slack


class TestSampleDatasets:
    def test_uniform_dataset_labels(self):
        rng = np.random.default_rng(9)
        net = junta_to_net(JuntaSpec(n=5, relevant=(2,), table=np.array([1.0, -1.0])))
        data = sample_uniform_dataset(net, 5, 50, rng)
        for u, y in zip(data.idx, data.y):
            assert y == net_value(net, int(u))

    def test_full_cube_order(self):
        f = tabulate(parity_function(3, (1,)), 3)
        data = full_cube_dataset(f, 3)
        assert data.idx.tolist() == list(range(8))
        assert all(y == f.values[u] for u, y in zip(data.idx, data.y))

    def test_full_cube_cap_before_index_range(self):
        # the cap is checked before the 2^26-entry (512 MiB) index range exists
        net = SparseNet(n=26, s=1, k=1, u=np.ones(1), w=np.ones((1, 26)), b=np.zeros(1))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="tabulation needs n <= 20, got 26"):
                full_cube_dataset(net, 26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_uniform_dimension_checked_before_drawing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        for n in (0, 63, 70):
            with pytest.raises(ValueError, match=f"dimension must be in \\[1, 62\\], got {n}"):
                sample_uniform_dataset(lambda u: 0.0, n, 4, rng)
        assert rng.bit_generator.state == state
