import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opertail import RVSpec, at_zero, hill_estimate, karamata_defect, verify


def ratio_defects(V, rho, x, t_grid):
    """|V(t x) / V(t) - x^rho| along t_grid, the defect of V in RV_rho."""
    t_grid = np.asarray(t_grid, dtype=float)
    return np.abs(V(t_grid * x) / V(t_grid) - x ** rho)


class TestEvalRV:
    def test_pure_power(self):
        assert RVSpec(1.0, -1.0, 0.0)(100.0) == pytest.approx(0.01)

    def test_at_one(self):
        spec = RVSpec(3.0, 2.0, 1.5)
        assert spec(1.0) == pytest.approx(3.0 * math.log(math.e + 1) ** 1.5)

    def test_scaled_power(self):
        assert RVSpec(2.0, -3.0, 0.0)(10.0) == pytest.approx(0.002)

    def test_rejects_nonpositive_t(self):
        for t in (0.0, -1.0, math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError):
                RVSpec()(t)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            RVSpec(c=0.0)

    def test_at_zero_reading(self):
        r = at_zero(RVSpec(1.0, -1.0, 0.0))  # canonical r(u) = u
        assert r(1e-3) == pytest.approx(1e-3)


class TestRatioLimitDefect:
    """The defect |V(t x)/V(t) - x^rho| of an RVSpec along growing t."""

    def test_exact_power(self):
        defects = ratio_defects(RVSpec(1.0, -1.0, 0.0), -1.0, 2.0, np.logspace(1, 8, 8))
        np.testing.assert_allclose(defects, 0.0, atol=1e-12)

    def test_log_factor(self):
        # V(t) = log(e + t)/t: the defect is 0.5 |log(e + 2t)/log(e + t) - 1|,
        # which decays like 0.5 log(2)/log(t); at t = 1e6 that is ~0.0251
        defects = ratio_defects(RVSpec(1.0, -1.0, 1.0), -1.0, 2.0, np.logspace(2, 6, 5))
        assert defects[-1] == pytest.approx(
            0.5 * abs(math.log(math.e + 2e6) / math.log(math.e + 1e6) - 1.0), rel=1e-9)
        assert defects[-1] < defects[0]
        assert defects[-1] < 0.05

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_rvspec_pure_power_below_1e4_by_1e8(self, x):
        defects = ratio_defects(RVSpec(1.3, -2.0, 0.0), -2.0, x, np.logspace(2, 8, 7))
        assert np.all(defects < 1e-12 * x ** -2.0)

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_rvspec_log_factor_monotone(self, x):
        # log-factor defects decay only like 1/log t and carry an x^rho scale
        spec = RVSpec(1.3, -2.0, 1.0)
        defects = ratio_defects(spec, spec.rho, x, np.logspace(2, 8, 7))
        assert np.all(np.diff(defects) < 0)
        assert defects[-1] < 0.05 * x ** spec.rho

    def test_product_closure_indices_add(self):
        a, b = RVSpec(1.0, -1.0, 1.0), RVSpec(2.0, -0.5, 0.0)
        defects = ratio_defects(lambda t: a(t) * b(t), a.rho + b.rho, 2.0,
                                np.logspace(3, 8, 6))
        assert np.all(np.diff(defects) < 0)
        assert defects[-1] < 0.05


class TestKaramataDefect:
    def test_shifted_pareto(self):
        d = karamata_defect(lambda t: (1 + t) ** -2, lambda t: (1 + t) ** -1,
                            1.0, 1e3)
        assert d == pytest.approx(1.0 - 1e3 / (1 + 1e3), rel=1e-9)
        assert d < 1.1e-3

    def test_exact_pareto_is_zero(self):
        for t in (1.0, 7.0, 1e4):
            d = karamata_defect(lambda t: 2.0 * t ** -3, lambda t: t ** -2, 2.0, t)
            assert d == pytest.approx(0.0, abs=1e-12)

    def test_non_rv_diverges(self):
        d1 = karamata_defect(lambda t: math.exp(-t), lambda t: math.exp(-t), 1.0, 10.0)
        d2 = karamata_defect(lambda t: math.exp(-t), lambda t: math.exp(-t), 1.0, 100.0)
        assert d2 > d1 > 1.0

    @pytest.mark.parametrize("alpha,t", [(math.nan, 10.0), (math.inf, 10.0), (0.0, 10.0),
                                         (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)])
    def test_rejects_non_finite_or_nonpositive(self, alpha, t):
        with pytest.raises(ValueError):
            karamata_defect(lambda t: (1 + t) ** -2, lambda t: (1 + t) ** -1, alpha, t)

    def test_zero_survival_flagged(self):
        with pytest.raises(ValueError, match="survival exhausted"):
            karamata_defect(lambda t: 0.0, lambda t: 0.0, 1.0, 1.0)

    def test_verify_suite_passes_every_check(self):
        checks = verify.run_suite("karamata")
        assert [c.name for c in checks] == ["karamata-margin",
                                            "karamata-non-rv-control"]
        assert all(c.passed for c in checks)
        # exponential control: t f(t) / Fbar(t) - 1 = t - 1 at t = 100
        assert checks[1].measured == pytest.approx(99.0, rel=1e-12)


class TestHillEstimate:
    def test_pareto_one_quantile_grid(self):
        n = 10 ** 4
        sample = n / np.arange(1, n + 1)
        est = hill_estimate(sample, k=100)
        assert est.alpha == pytest.approx(1.0, rel=0.05)

    def test_pareto_two_quantile_grid(self):
        # survival t^-2 has quantile (n/j)^(1/2)
        n = 10 ** 4
        sample = (n / np.arange(1, n + 1)) ** 0.5
        est = hill_estimate(sample, k=100)
        assert est.alpha == pytest.approx(2.0, rel=0.05)

    def test_constant_sample_degenerate(self):
        with pytest.raises(ValueError, match="degenerate sample"):
            hill_estimate(np.ones(100), k=10)

    def test_default_k(self):
        n = 1000
        est = hill_estimate(n / np.arange(1, n + 1))
        assert est.k == math.ceil(n ** 0.6)

    @given(st.floats(0.01, 100.0))
    def test_scale_invariance(self, c):
        n = 500
        sample = n / np.arange(1, n + 1)
        base = hill_estimate(sample, k=50)
        scaled = hill_estimate(c * sample, k=50)
        assert scaled.alpha == pytest.approx(base.alpha, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hill_estimate([1.0, -2.0, 3.0], k=1)
