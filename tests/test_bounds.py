"""Bound evaluators: spot values, scaling laws, monotonicity, guards."""

import itertools
import math

import numpy as np
import pytest

from sparseact import (
    ClassParams,
    avg_sensitivity_bound,
    degree_for_error,
    halfspace_sensitivity_bound,
    noise_sensitivity_bound,
    rademacher_bound,
    rademacher_conjecture,
    sample_complexity_general,
)
from sparseact.bounds import Inapplicable, require_level


def _blank(formula, p: ClassParams) -> bool:
    """Whether ``bounds-table`` leaves the formula's cell blank, by the
    conditions the table tested itself before the formulas decided them."""
    if formula is noise_sensitivity_bound:
        return p.rho is None or p.rho >= 1.0
    if formula is degree_for_error:
        return p.eps is None
    if formula in (rademacher_bound, rademacher_conjecture):
        return p.m is None or p.m < 2
    if formula is sample_complexity_general:
        return p.eps is None or p.delta is None
    return False


_FORMULAS = [avg_sensitivity_bound, noise_sensitivity_bound, degree_for_error,
             rademacher_bound, rademacher_conjecture, sample_complexity_general]


class TestInapplicable:
    """A formula raises ``Inapplicable`` exactly where a parameter it needs is
    left out or outside its domain, and a plain ValueError for the rest."""

    @pytest.mark.parametrize("formula", _FORMULAS, ids=lambda f: f.__name__)
    def test_exactly_where_the_table_is_blank(self, formula):
        for rho, eps, delta, m in itertools.product(
            [None, -0.5, 0.999, 1.0], [None, 0.1], [None, 0.2], [None, 1, 2, 100]
        ):
            p = ClassParams(n=6, s=4, k=2, W=1.0, B=0.5, rho=rho, eps=eps, delta=delta, m=m)
            if _blank(formula, p):
                with pytest.raises(Inapplicable):
                    formula(p)
            else:
                formula(p)

    @pytest.mark.parametrize(
        "formula, p",
        [(avg_sensitivity_bound, ClassParams(n=1, s=4)),
         (noise_sensitivity_bound, ClassParams(n=1, s=4)),  # before rho is read
         (noise_sensitivity_bound, ClassParams(n=1, s=4, rho=0.5)),
         (degree_for_error, ClassParams(n=1, s=4, eps=0.1)),
         (rademacher_bound, ClassParams(n=4, s=4, R=0.2, m=2)),
         (rademacher_bound, ClassParams(n=1, s=2, W=1.0, R=0.4, m=2))],
        ids=["avg-n1", "noise-n1-no-rho", "noise-n1", "degree-n1", "rademacher-log",
             "rademacher-log-n1"],
    )
    def test_plain_value_error(self, formula, p):
        with pytest.raises(ValueError) as info:
            formula(p)
        assert type(info.value) is ValueError


class TestAvgSensitivityBound:
    def test_spot_value(self):
        p = ClassParams(n=4, s=2, k=1, W=1.0, B=0.0)
        assert avg_sensitivity_bound(p) == pytest.approx(2 * math.log(8))

    def test_zero_scales(self):
        p = ClassParams(n=4, s=4, k=2, W=0.0, B=0.0)
        assert avg_sensitivity_bound(p) == 0.0

    def test_k_doubling_multiplies_first_term_by_16(self):
        base = ClassParams(n=8, s=8, k=1, W=1.5, B=0.0)
        double = ClassParams(n=8, s=8, k=2, W=1.5, B=0.0)
        assert avg_sensitivity_bound(double) == pytest.approx(
            16 * avg_sensitivity_bound(base)
        )

    def test_constant_scaling(self):
        p = ClassParams(n=4, s=4, k=1, W=1.0, B=1.0)
        assert avg_sensitivity_bound(p, 3.0) == pytest.approx(
            3 * avg_sensitivity_bound(p, 1.0)
        )

    def test_needs_logs(self):
        with pytest.raises(ValueError):
            avg_sensitivity_bound(ClassParams(n=1, s=2))


class TestNoiseSensitivityBound:
    def test_vanishes_as_rho_approaches_one(self):
        values = [
            noise_sensitivity_bound(
                ClassParams(n=4, s=4, k=1, W=1.0, B=1.0, rho=rho)
            )
            for rho in (1 - 1e-4, 1 - 1e-8, 1 - 1e-12)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-2

    def test_spot_value(self):
        p = ClassParams(n=2, s=2, k=1, W=1.0, B=0.0, rho=0.0)
        assert noise_sensitivity_bound(p) == pytest.approx(math.log(4.0) ** 2)

    def test_monotone_non_increasing_in_rho(self):
        # holds once ns/(1-rho) clears e^4; n = s = 8 keeps every grid point
        # in that regime
        values = [
            noise_sensitivity_bound(
                ClassParams(n=8, s=8, k=1, W=1.0, B=0.5, rho=rho)
            )
            for rho in np.linspace(0.0, 0.99, 25)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            noise_sensitivity_bound(ClassParams(n=4, s=4, rho=1.0))


class TestDegreeForError:
    def test_spot_values(self):
        p = ClassParams(n=2, s=2, k=1, W=1.0, B=0.0, eps=0.5)
        want = math.ceil(math.log(4.0) ** 4 / 0.25)
        assert degree_for_error(p) == want

        p2 = ClassParams(n=2, s=2, k=1, W=0.0, B=1.0, eps=0.1)
        assert degree_for_error(p2) == math.ceil(math.log(2.0) / 0.01)

        p3 = ClassParams(n=4, s=4, k=1, W=0.0, B=0.0, eps=0.5)
        assert degree_for_error(p3) == 0

    def test_integrality(self):
        p = ClassParams(n=8, s=16, k=2, W=1.0, B=1.0, eps=0.3)
        assert isinstance(degree_for_error(p), int)


class TestRademacherBound:
    def test_quadrupling_m_roughly_halves(self):
        p1 = ClassParams(n=4, s=8, k=1, W=1.0, B=2.0, m=1_000_000)
        p4 = ClassParams(n=4, s=8, k=1, W=1.0, B=2.0, m=4_000_000)
        ratio = rademacher_bound(p1) / rademacher_bound(p4)
        assert 1.9 <= ratio <= 2.1

    def test_k1_matches_displayed_formula(self):
        p = ClassParams(n=6, s=10, k=1, W=1.5, B=0.5, m=300)
        R = math.sqrt(6)
        want = (1.5 * R + 0.5) * math.sqrt(
            10 * 6 * math.log(300 * (R + 0.5))
        ) / math.sqrt(300)
        assert rademacher_bound(p) == pytest.approx(want)

    def test_quadrupling_s_doubles(self):
        p1 = ClassParams(n=4, s=5, k=1, W=1.0, B=1.0, m=100)
        p4 = ClassParams(n=4, s=20, k=1, W=1.0, B=1.0, m=100)
        assert rademacher_bound(p4) == pytest.approx(
            2 * rademacher_bound(p1)
        )

    def test_log_argument_guard(self):
        # k * m * (R + B) must exceed 1
        with pytest.raises(ValueError):
            rademacher_bound(ClassParams(n=1, s=2, k=1, W=1.0, B=0.0, R=0.2, m=2))

    def test_m_guard(self):
        with pytest.raises(ValueError):
            rademacher_bound(ClassParams(n=4, s=4, m=1))


class TestRademacherConjecture:
    def test_spot_values(self):
        p = ClassParams(n=4, s=9, k=1, W=1.0, B=0.0, m=100)
        assert rademacher_conjecture(p) == pytest.approx(2.0 * 3.0 / 10.0)
        p2 = ClassParams(n=4, s=9, k=4, W=0.0, B=1.0, m=100)
        assert rademacher_conjecture(p2) == pytest.approx(6.0 / 10.0)
        p3 = ClassParams(n=16, s=1, k=1, W=1.0, B=1.0, m=25)
        assert rademacher_conjecture(p3) == pytest.approx(5.0 / 5.0)


class TestSampleComplexity:
    def test_pair_spot_values(self):
        p = ClassParams(n=4, s=8, k=1, W=1.0, B=1.0, eps=0.1, delta=0.05)
        main, dlist = sample_complexity_general(p)
        R = 2.0
        log_term = math.log(1 * (R + 1.0) / 0.1)
        want_main = math.ceil(
            ((1.0 * R + 1.0) ** 2 * 1 * 8 * 4 * log_term + math.log(20.0)) / 0.01
        )
        want_dlist = math.ceil(16 * 1.0 * 8 * math.log(20.0) / 0.01)
        assert main == want_main
        assert dlist == want_dlist

    def test_log_floor_clamp(self):
        # k (R + B) / eps below e would send the log under 1; it clamps to 1
        p = ClassParams(n=4, s=2, k=1, W=1.0, B=0.0, R=1.0, eps=0.9, delta=0.5)
        main, _ = sample_complexity_general(p)
        want = math.ceil(((1.0 + 0.0) ** 2 * 8 * 1.0 + math.log(2.0)) / 0.81)
        assert main == want

    def test_requires_eps_delta(self):
        with pytest.raises(ValueError):
            sample_complexity_general(ClassParams(n=4, s=4))


class TestHalfspaceBound:
    def test_endpoints_zero(self):
        assert halfspace_sensitivity_bound(0.0, 8) == 0.0
        assert halfspace_sensitivity_bound(1.0, 8) == 0.0

    def test_spot_value(self):
        assert halfspace_sensitivity_bound(0.5, 4) == pytest.approx(
            0.5 * math.sqrt(4 * math.log(2.0))
        )

    def test_concavity_on_grid(self):
        # p sqrt(log 1/p): chord midpoints sit below the curve
        grid = np.linspace(0.05, 0.95, 19)
        g = lambda p: halfspace_sensitivity_bound(float(p), 1)
        for a, b in zip(grid, grid[2:]):
            mid = (a + b) / 2
            assert g(mid) >= (g(a) + g(b)) / 2 - 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            halfspace_sensitivity_bound(1.5, 4)


class TestMonotonicity:
    """Each evaluator moves the stated way in W, B, s, k, n (up) and m (down)."""

    def test_avg_and_noise_and_degree_increase(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            s = int(rng.integers(2, 40))
            k = int(rng.integers(1, 5))
            W = float(rng.uniform(0.1, 3))
            B = float(rng.uniform(0.1, 3))
            rho = float(rng.uniform(0.0, 0.8))
            eps = float(rng.uniform(0.05, 0.5))
            base = ClassParams(n=n, s=s, k=k, W=W, B=B, rho=rho, eps=eps)
            for bump in (
                ClassParams(n=n + 2, s=s, k=k, W=W, B=B, rho=rho, eps=eps),
                ClassParams(n=n, s=s + 5, k=k, W=W, B=B, rho=rho, eps=eps),
                ClassParams(n=n, s=s, k=k + 1, W=W, B=B, rho=rho, eps=eps),
                ClassParams(n=n, s=s, k=k, W=W + 1, B=B, rho=rho, eps=eps),
                ClassParams(n=n, s=s, k=k, W=W, B=B + 1, rho=rho, eps=eps),
            ):
                assert avg_sensitivity_bound(bump) >= avg_sensitivity_bound(base)
                assert noise_sensitivity_bound(bump) >= noise_sensitivity_bound(base)
                assert degree_for_error(bump) >= degree_for_error(base)

    def test_rademacher_grid(self):
        # decreasing in m needs k m (R+B) >= e, which these grids satisfy
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            s = int(rng.integers(2, 30))
            k = int(rng.integers(1, 4))
            W = float(rng.uniform(0.1, 2))
            B = float(rng.uniform(0.5, 2))
            m = int(rng.integers(10, 5000))
            base = ClassParams(n=n, s=s, k=k, W=W, B=B, m=m)
            assert (
                rademacher_bound(ClassParams(n=n, s=s, k=k, W=W, B=B, m=4 * m))
                <= rademacher_bound(base)
            )
            for bump in (
                ClassParams(n=n + 1, s=s, k=k, W=W, B=B, m=m),
                ClassParams(n=n, s=s + 3, k=k, W=W, B=B, m=m),
                ClassParams(n=n, s=s, k=k + 1, W=W, B=B, m=m),
                ClassParams(n=n, s=s, k=k, W=W + 0.5, B=B, m=m),
                ClassParams(n=n, s=s, k=k, W=W, B=B + 0.5, m=m),
            ):
                assert rademacher_bound(bump) >= rademacher_bound(base)
                assert (
                    rademacher_conjecture(bump)
                    >= rademacher_conjecture(base)
                )

    def test_sample_complexity_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            s = int(rng.integers(2, 30))
            k = int(rng.integers(1, 4))
            W = float(rng.uniform(0.1, 2))
            B = float(rng.uniform(0.5, 2))
            eps = float(rng.uniform(0.05, 0.5))
            delta = float(rng.uniform(0.01, 0.2))
            base = ClassParams(n=n, s=s, k=k, W=W, B=B, eps=eps, delta=delta)
            for bump in (
                ClassParams(n=n + 1, s=s, k=k, W=W, B=B, eps=eps, delta=delta),
                ClassParams(n=n, s=s + 3, k=k, W=W, B=B, eps=eps, delta=delta),
                ClassParams(n=n, s=s, k=k + 1, W=W, B=B, eps=eps, delta=delta),
                ClassParams(n=n, s=s, k=k, W=W + 0.5, B=B, eps=eps, delta=delta),
                ClassParams(n=n, s=s, k=k, W=W, B=B + 0.5, eps=eps, delta=delta),
            ):
                got = sample_complexity_general(bump)
                ref = sample_complexity_general(base)
                assert got[0] >= ref[0]
                assert got[1] >= ref[1]


class TestClassParams:
    def test_require_level(self):
        require_level(ClassParams(n=4, s=3, k=3))
        with pytest.raises(ValueError, match=r"^need s >= k, got s=2, k=3$"):
            require_level(ClassParams(n=4, s=2, k=3))

    def test_default_radius_is_sqrt_n(self):
        assert ClassParams(n=9, s=2).radius == 3.0
        assert ClassParams(n=9, s=2, R=1.5).radius == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassParams(n=0, s=1)
        with pytest.raises(ValueError):
            ClassParams(n=2, s=2, W=-1)
        with pytest.raises(ValueError):
            ClassParams(n=2, s=2, eps=1.5)
        with pytest.raises(ValueError):
            ClassParams(n=2, s=2, rho=2.0)
