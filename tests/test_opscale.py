import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opertail import DiagExponent, gauge, gauge_decompose, power_matrix


def series_expm(m, terms=60):
    """Independent oracle: direct truncated summation of sum M^k / k!."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestDiagExponent:
    def test_derived_scalars(self):
        e = DiagExponent([1.0, 2.0, 2.0])
        assert e.trace == 5.0
        assert e.lam_max == 2.0
        assert e.argmax_set == (1, 2)

    @pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0], [np.nan], []])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            DiagExponent(bad)


class TestMatrixExponential:
    """power_matrix(m, e) = exp(m) for a general square matrix m."""

    def test_zero_matrix(self):
        np.testing.assert_allclose(power_matrix(np.zeros((3, 3)), math.e), np.eye(3))

    def test_diagonal(self):
        got = power_matrix(np.diag([1.0, 2.0]), math.e)
        np.testing.assert_allclose(got, np.diag([math.e, math.e ** 2]), rtol=1e-12)

    def test_nilpotent_vs_series_oracle(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(power_matrix(m, math.e), series_expm(m), rtol=1e-12)
        np.testing.assert_allclose(power_matrix(m, math.e),
                                   [[1.0, 1.0], [0.0, 1.0]], rtol=1e-12)

    def test_general_vs_series_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) * 0.7
        np.testing.assert_allclose(power_matrix(m, math.e), series_expm(m), rtol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            power_matrix(np.ones((2, 3)), math.e)


class TestPowerMatrix:
    def test_diagonal_power(self):
        np.testing.assert_allclose(power_matrix(DiagExponent([1.0, 2.0]), 4.0),
                                   np.diag([4.0, 16.0]))

    def test_t_one_is_identity(self):
        np.testing.assert_allclose(power_matrix(DiagExponent([0.3, 5.0]), 1.0),
                                   np.eye(2))

    def test_general_matrix_vs_expm_oracle(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        got = power_matrix(m, math.e)
        np.testing.assert_allclose(got, series_expm(m * 1.0), rtol=1e-12)
        np.testing.assert_allclose(got, math.e * np.array([[1, 1], [0, 1]]),
                                   rtol=1e-12)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            power_matrix(DiagExponent([1.0]), 0.0)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_group_law(self, s, t):
        e = DiagExponent([0.5, 1.0, 3.0])
        np.testing.assert_allclose(power_matrix(e, s * t),
                                   power_matrix(e, s) @ power_matrix(e, t),
                                   rtol=1e-12)

    def test_inverse_law(self):
        e = DiagExponent([0.5, 2.0])
        for t in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(power_matrix(e, 1.0 / t),
                                       np.linalg.inv(power_matrix(e, t)),
                                       rtol=1e-12)


class TestGauge:
    def test_direct_formula(self):
        assert gauge(DiagExponent([1.0, 2.0]), [3.0, 4.0]) == pytest.approx(5.0)

    def test_zero(self):
        assert gauge(DiagExponent([1.0, 2.0]), [0.0, 0.0]) == 0.0

    def test_operator_scaling(self):
        # t^E x from (3,4) at t=9 is (27, 324); gauge must scale by t
        assert gauge(DiagExponent([1.0, 2.0]), [27.0, 324.0]) == pytest.approx(45.0)

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4),
           st.floats(0.1, 50.0))
    def test_homogeneity_property(self, lam, t):
        e = DiagExponent(lam)
        x = np.linspace(0.5, 2.0, e.dim)
        scaled = t ** e.as_array() * x
        assert gauge(e, scaled) == pytest.approx(t * gauge(e, x), rel=1e-9)


class TestGaugeDecompose:
    def test_linear_case(self):
        r, d = gauge_decompose(DiagExponent([1.0, 1.0]), [2.0, 2.0])
        assert r == pytest.approx(4.0)
        np.testing.assert_allclose(d, [0.5, 0.5])

    def test_mixed_case(self):
        e = DiagExponent([1.0, 2.0])
        r, d = gauge_decompose(e, [3.0, 4.0])
        assert r == pytest.approx(5.0)
        np.testing.assert_allclose(d, [3 / 5, 4 / 25])
        assert gauge(e, d) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_on_unit_set(self):
        e = DiagExponent([1.0, 2.0])
        _, d = gauge_decompose(e, [3.0, 4.0])
        r2, d2 = gauge_decompose(e, d)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(d2, d, rtol=1e-12)

    def test_recompose(self):
        e = DiagExponent([0.5, 1.0, 2.0])
        x = np.array([0.3, 2.0, 5.0])
        r, d = gauge_decompose(e, x)
        np.testing.assert_allclose(r ** e.as_array() * d, x, rtol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gauge_decompose(DiagExponent([1.0]), [0.0])

