"""Transform exactness, sensitivity, and noise sensitivity."""

import tracemalloc

import numpy as np
import pytest
from helpers import (
    brute_avg_sensitivity,
    brute_sensitivity_at,
    Point,
    chi,
    naive_spectrum,
    net_value,
    parity_function,
    reference_fwht,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseact import (
    CapacityError,
    CubeFunction,
    GeneralizedDecisionList,
    ListNode,
    MonomialModel,
    SparseNet,
    avg_sensitivity_exact,
    halfspace_sensitivity_bound,
    inverse_wht,
    noise_sensitivity_exact,
    noise_sensitivity_mc,
    sensitivity_at,
    tabulate,
    tail_mass,
    wht,
)
from sparseact.config import REL_TOL_EXACT
from sparseact.constructions import random_net
from sparseact import learners
from sparseact.fourier import _fwht, values_at
from sparseact.hypercube import index_signs


def random_function(rng, n):
    return CubeFunction(n, rng.normal(size=1 << n))


class TestTabulate:
    def test_constant(self):
        f = tabulate(lambda u: 1.0, 3)
        assert np.array_equal(f.values, np.ones(8))

    def test_character_alternates_with_encoding(self):
        f = tabulate(lambda u: float(chi(0b01, u)), 2)
        # bit 0 of the index decides coordinate 1
        assert list(f.values) == [1.0, -1.0, 1.0, -1.0]

    def test_junta_net_equals_table_lookup(self):
        from sparseact import JuntaSpec, junta_to_net

        rng = np.random.default_rng(3)
        spec = JuntaSpec(n=6, relevant=(2, 5), table=rng.uniform(-1, 1, 4))
        net = junta_to_net(spec)
        assert np.allclose(
            tabulate(net, 6).values, tabulate(spec.value, 6).values, atol=1e-12
        )

    def test_capacity(self):
        with pytest.raises(CapacityError):
            tabulate(lambda u: 0.0, 21)

    def test_batch_and_pointwise_paths_agree(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, 5, 3)
        batch = tabulate(net, 5).values
        pointwise = tabulate(lambda u: net_value(net, u), 5).values
        assert np.allclose(batch, pointwise, atol=1e-12)

    def test_model_tabulated_by_its_own_route(self, monkeypatch):
        # at n = 20 a degree-3 model is one transform of the whole cube, as
        # eval_indices chooses for it, not one transform per slice of the cube
        masks = learners._monomial_masks(20, 3)
        coeffs = np.random.default_rng(6).normal(size=masks.size)
        model = MonomialModel(n=20, d=3, masks=masks, coeffs=coeffs)
        want = model.eval_indices(np.arange(1 << 20))
        sizes, fwht = [], learners._fwht
        monkeypatch.setattr(learners, "_fwht", lambda a: sizes.append(a.size) or fwht(a))
        assert np.array_equal(tabulate(model, 20).values, want)
        assert sizes == [1 << 20]

    def test_decision_list_memory_bounded_by_slice(self):
        # the whole cube's (2^18, 18) float64 sign rows alone take 36 MiB;
        # the value table, its index range and the kept copy 6 MiB
        n, rng = 18, np.random.default_rng(7)
        nodes = tuple(
            ListNode(gate_w=tuple(rng.integers(-2, 3, n).tolist()), gate_b=int(rng.integers(-2, 3)),
                     leaf_v=tuple(rng.normal(size=n).tolist()), leaf_c=float(rng.normal()))
            for _ in range(4)
        )
        dlist = GeneralizedDecisionList(n=n, nodes=nodes, default=0.25)
        tabulate(dlist, n)  # lazy set-up outside the traced call
        tracemalloc.start()
        try:
            values = tabulate(dlist, n).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20
        assert np.array_equal(values, dlist.eval_indices(np.arange(1 << n)))


class TestWht:
    def test_single_character(self):
        f = tabulate(lambda u: float(chi(0b11, u)), 2)
        spec = wht(f)
        assert np.allclose(spec.coeffs, [0, 0, 0, 1], atol=1e-12)

    def test_constant(self):
        spec = wht(CubeFunction(3, np.full(8, 2.5)))
        want = np.zeros(8)
        want[0] = 2.5
        assert np.allclose(spec.coeffs, want, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5):
            f = random_function(rng, n)
            assert np.allclose(
                wht(f).coeffs, naive_spectrum(f.values, n), atol=1e-12
            )

    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_in_place_butterfly_matches_reference_bit_for_bit(self, n, seed):
        a = np.random.default_rng(seed).normal(size=1 << n)
        assert np.array_equal(_fwht(a.copy()), reference_fwht(a.copy()))

    @pytest.mark.parametrize("n", [*range(17), 20])
    def test_butterfly_bytes_match_one_stage_loop(self, n):
        # signed zeros, infinities, subnormals and sums that overflow to inf
        # or meet as inf - inf: the same operations give the same bytes
        rng = np.random.default_rng(n)
        special = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308,
                   2.2250738585072014e-308, 1.7976931348623157e308]
        with np.errstate(over="ignore", invalid="ignore"):
            a = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-320, 309, 1 << n)
            picked = rng.random(1 << n) < 0.3
            a[picked] = rng.choice(special, int(picked.sum()))
            assert _fwht(a.copy()).tobytes() == reference_fwht(a.copy()).tobytes()

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        f = random_function(rng, 8)
        back = inverse_wht(wht(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_function(rng, 6)
            lhs = f.norm2_sq()
            rhs = wht(f).total_mass()
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestTailMass:
    def test_parity_above_its_degree(self):
        f = tabulate(parity_function(4, (1, 2)), 4)
        spec = wht(f)
        assert tail_mass(spec, 1) == pytest.approx(1.0, abs=1e-12)
        assert tail_mass(spec, 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_full_degree(self):
        rng = np.random.default_rng(8)
        spec = wht(random_function(rng, 5))
        assert tail_mass(spec, 5) == 0.0

    def test_complements_parseval(self):
        rng = np.random.default_rng(9)
        f = random_function(rng, 6)
        spec = wht(f)
        sq = spec.coeffs**2
        for d in range(7):
            head = float(sq[spec.degrees() <= d].sum())
            assert head + tail_mass(spec, d) == pytest.approx(
                spec.total_mass(), rel=1e-10
            )

    def test_monotone_in_d(self):
        rng = np.random.default_rng(10)
        spec = wht(random_function(rng, 6))
        masses = [tail_mass(spec, d) for d in range(7)]
        assert all(a >= b for a, b in zip(masses, masses[1:]))

    def test_degree_range(self):
        spec = wht(CubeFunction(2, np.zeros(4)))
        with pytest.raises(ValueError):
            tail_mass(spec, 3)


class TestSensitivity:
    def test_parity_everywhere_n(self):
        n = 4
        f = tabulate(parity_function(n, tuple(range(1, n + 1))), n)
        for u in (0, 3, 9, 15):
            assert sensitivity_at(f, u) == pytest.approx(n)

    def test_constant_zero(self):
        f = CubeFunction(3, np.full(8, 7.0))
        assert sensitivity_at(f, 5) == 0.0

    def test_dictator_halfspace_quarter(self):
        f = tabulate(lambda u: 1.0 if Point(3, u).sign(1) > 0 else 0.0, 3)
        for u in range(8):
            assert sensitivity_at(f, u) == pytest.approx(0.25)

    def test_point_is_a_packed_index(self):
        f = CubeFunction(3, np.arange(8.0))
        with pytest.raises(ValueError):
            sensitivity_at(f, 8)
        with pytest.raises(TypeError):
            sensitivity_at(f, 1.0)

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(11)
        f = random_function(rng, 5)
        for u in (0, 7, 21, 31):
            want = brute_sensitivity_at(lambda v: float(f.values[v]), 5, u)
            assert sensitivity_at(f, u) == pytest.approx(want, rel=1e-12)


class TestAvgSensitivity:
    def test_parity_is_n(self):
        for n in (2, 3, 5):
            f = tabulate(parity_function(n, tuple(range(1, n + 1))), n)
            assert avg_sensitivity_exact(f) == pytest.approx(n)

    def test_dictator_quarter(self):
        f = tabulate(lambda u: 1.0 if Point(4, u).sign(1) > 0 else 0.0, 4)
        assert avg_sensitivity_exact(f) == pytest.approx(0.25)

    def test_spectral_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = random_function(rng, 6)
            spec = wht(f)
            weighted = float(np.sum(spec.degrees() * spec.coeffs**2))
            direct = avg_sensitivity_exact(f)
            assert abs(direct - weighted) <= 1e-9 * max(1.0, abs(direct))

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(13)
        f = random_function(rng, 4)
        want = brute_avg_sensitivity(lambda v: float(f.values[v]), 4)
        assert avg_sensitivity_exact(f) == pytest.approx(want, rel=1e-12)


class TestNoiseSensitivityExact:
    def test_rho_one_is_zero(self):
        rng = np.random.default_rng(14)
        spec = wht(random_function(rng, 5))
        assert noise_sensitivity_exact(spec, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_full_parity_closed_form(self):
        n = 5
        spec = wht(tabulate(parity_function(n, tuple(range(1, n + 1))), n))
        for rho in (0.0, 0.3, 0.9, -0.5):
            assert noise_sensitivity_exact(spec, rho) == pytest.approx(
                0.5 * (1 - rho**n), rel=1e-12
            )

    def test_constant_zero(self):
        spec = wht(CubeFunction(3, np.full(8, 4.0)))
        assert noise_sensitivity_exact(spec, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_tail_inequality(self):
        # tail mass above d is at most 2 NS_rho / (1 - rho^d)
        rng = np.random.default_rng(15)
        for _ in range(5):
            f = random_function(rng, 6)
            spec = wht(f)
            for rho in (0.2, 0.5, 0.8):
                ns = noise_sensitivity_exact(spec, rho)
                for d in (1, 2, 4):
                    assert tail_mass(spec, d) <= 2 * ns / (1 - rho**d) + 1e-12


class TestNoiseSensitivityMc:
    def test_rho_one_exact_zero(self):
        rng = np.random.default_rng(16)
        f = random_function(rng, 5)
        est, err = noise_sensitivity_mc(f, 1.0, 1000, rng)
        assert est == 0.0 and err == 0.0

    def test_parity_degree_two(self):
        f = tabulate(parity_function(6, (1, 2)), 6)
        rng = np.random.default_rng(17)
        est, err = noise_sensitivity_mc(f, 0.5, 100_000, rng)
        assert abs(est - 0.375) <= 4 * err

    def test_random_net_matches_exact(self):
        rng = np.random.default_rng(18)
        net = random_net(rng, 8, 4)
        exact = noise_sensitivity_exact(wht(tabulate(net, 8)), 0.8)
        est, err = noise_sensitivity_mc(net, 0.8, 100_000, rng)
        assert abs(est - exact) <= 4 * err

    def test_stderr_scales_with_trials(self):
        f = tabulate(parity_function(6, (1, 2, 3)), 6)
        rng = np.random.default_rng(19)
        _, err1 = noise_sensitivity_mc(f, 0.4, 20_000, rng)
        _, err2 = noise_sensitivity_mc(f, 0.4, 80_000, rng)
        assert abs(err1 / err2 - 2.0) < 0.4  # halves when trials quadruple, 20%

    def test_threads_do_not_change_result(self):
        f = tabulate(parity_function(6, (1, 2)), 6)
        est1, err1 = noise_sensitivity_mc(
            f, 0.3, 50_000, np.random.default_rng(20), threads=1
        )
        est4, err4 = noise_sensitivity_mc(
            f, 0.3, 50_000, np.random.default_rng(20), threads=4
        )
        assert est1 == est4 and err1 == err4


class TestValuesAt:
    def test_table_net_and_callable_agree(self):
        rng = np.random.default_rng(23)
        net = random_net(rng, 7, 5)
        idx = rng.integers(0, 1 << 7, size=300)
        want = np.array([net_value(net, int(u)) for u in idx])
        for f in (tabulate(net, 7), net, lambda u: net_value(net, u)):
            got = values_at(f, 7, idx)
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=REL_TOL_EXACT, atol=REL_TOL_EXACT)

    def test_table_dimension_must_match(self):
        with pytest.raises(ValueError):
            values_at(CubeFunction(3, np.zeros(8)), 4, np.arange(4))

    def test_mc_on_net_and_callable_draws_the_table_stream(self):
        rng = np.random.default_rng(24)
        net = random_net(rng, 9, 6)
        table = tabulate(net, 9)
        for rho in (-0.3, 0.5):
            on_table = noise_sensitivity_mc(table, rho, 40_000, np.random.default_rng(25))
            on_net = noise_sensitivity_mc(
                net, rho, 40_000, np.random.default_rng(25), threads=2
            )
            assert on_net == pytest.approx(on_table, rel=REL_TOL_EXACT)

    def test_mc_past_int64_packing_is_capacity_error(self):
        net = SparseNet(n=63, s=1, k=1, u=np.ones(1), w=np.ones((1, 63)), b=np.zeros(1))
        with pytest.raises(CapacityError, match="62"):
            noise_sensitivity_mc(net, 0.5, 10, np.random.default_rng(0))


class TestHalfspaceTrend:
    def test_fitted_constant_transfers_with_headroom(self):
        # calibrate C on random biased halfspaces at n=8, then demand the
        # same C with factor-2 headroom at n=14
        def halfspace_table(rng, n):
            w = rng.normal(size=n)
            shift = rng.normal() * np.sqrt(n) * 0.5
            X = index_signs(np.arange(1 << n), n).astype(np.float64)
            return CubeFunction(n, (X @ w <= shift).astype(np.float64))

        def ratio(f):
            p = float(np.mean(f.values))
            if p in (0.0, 1.0):
                return None
            bound = halfspace_sensitivity_bound(p, f.n)
            return avg_sensitivity_exact(f) / bound

        rng = np.random.default_rng(22)
        small = [ratio(halfspace_table(rng, 8)) for _ in range(20)]
        C = max(r for r in small if r is not None)
        for _ in range(20):
            r = ratio(halfspace_table(rng, 14))
            if r is not None:
                assert r <= 2 * C
