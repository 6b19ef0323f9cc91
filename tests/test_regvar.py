import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opertail import hill_estimate, karamata_defect, verify


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
