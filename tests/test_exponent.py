import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from opertail import exponent, kernels, liouville
from opertail import (DiagExponent, DivergentIntegralError, InvertedDirichlet,
                      LiouvilleParams, Region, exponent_function,
                      exponent_mixed_derivative_defect, intensity_measure,
                      liouville_copula_tail_form, liouville_limit_form,
                      orthant_convergence)


@pytest.fixture(scope="module")
def p2():
    return LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0))


@pytest.fixture(scope="module")
def E2():
    return DiagExponent([1.0, 1.0])


@pytest.fixture(scope="module")
def lam(p2, E2):
    return liouville_limit_form(p2, E2)


@pytest.fixture(scope="module")
def lam_c(p2, E2):
    return liouville_copula_tail_form(p2, E2)


class TestRegion:
    def test_constructors(self):
        r = Region.upper_orthant([1.0, 2.0])
        assert r.kind == "upper_orthant" and r.w == (1.0, 2.0) and r.dim == 2

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            Region("disk", [1.0])
        with pytest.raises(ValueError):
            Region.box([-1.0, 1.0])


class TestIntensityMeasure:
    def test_upper_orthant_probability_oracle(self, lam):
        # int over (1,inf)^2 of 2(x+y)^{-3} = int_1^inf (1+y)^{-2} dy = 1/2
        res = intensity_measure(lam, Region.upper_orthant([1.0, 1.0]))
        assert res.verdict == "finite"
        assert res.value == pytest.approx(0.5, abs=1e-8)

    def test_upper_orthant_asymmetric(self, lam):
        # int over (a,inf)x(b,inf) of 2(x+y)^{-3} = 1/(a+b)
        res = intensity_measure(lam, Region.upper_orthant([2.0, 3.0]))
        assert res.value == pytest.approx(0.2, abs=1e-8)

    def test_lower_union_copula_frame(self, lam_c):
        res = intensity_measure(lam_c, Region.lower_union([1.0, 1.0]))
        assert res.verdict == "finite"
        assert res.value == pytest.approx(1.5, abs=1e-7)

    def test_copula_frame_orthant_divergent(self, lam_c):
        # lambda_C carries constant marginal mass at infinity
        res = intensity_measure(lam_c, Region.upper_orthant([1.0, 1.0]))
        assert res.verdict == "divergent"
        assert res.value is None

    def test_copula_frame_box_complement_divergent(self, lam_c):
        res = intensity_measure(lam_c, Region.box_complement([1.0, 1.0]))
        assert res.verdict == "divergent"

    def test_original_frame_box_complement_finite(self, lam):
        # Lambda((0,w]^c) = Lambda(x1 > 1) + Lambda(x2 > 1) - Lambda(orthant)
        # but the marginal strips of 2(x+y)^{-3} diverge at the axes origin?
        # no: int over (1,inf)x(0,inf) = int_1^inf x^{-2} dx = 1, total 1.5
        res = intensity_measure(lam, Region.box_complement([1.0, 1.0]))
        assert res.verdict == "finite"
        assert res.value == pytest.approx(1.5, abs=1e-7)

    def test_box_additivity_random_partition(self, lam):
        rng = np.random.default_rng(23)
        for _ in range(3):
            lo = rng.uniform(0.5, 1.0, size=2)
            mid = lo + rng.uniform(0.5, 1.5, size=2)
            hi = mid + rng.uniform(0.5, 1.5, size=2)

            def box_mass(a, b):
                # mass of (a,b] via inclusion-exclusion of upper orthants
                # (boxes anchored at the origin are divergent for this form)
                total = 0.0
                for ix, x in enumerate((a[0], b[0])):
                    for iy, y in enumerate((a[1], b[1])):
                        r = intensity_measure(lam, Region.upper_orthant([x, y]))
                        total += (-1) ** (ix + iy) * r.value
                return total

            whole = box_mass(lo, hi)
            split = (box_mass(lo, [mid[0], hi[1]])
                     + box_mass([mid[0], lo[1]], hi))
            assert split == pytest.approx(whole, abs=1e-6)

    def test_dimension_mismatch(self, lam):
        with pytest.raises(ValueError):
            intensity_measure(lam, Region.box([1.0]))


class TestExponentFunction:
    def test_values(self, lam_c):
        assert exponent_function(lam_c, [1.0, 1.0]) == pytest.approx(1.5,
                                                                     abs=1e-7)
        assert exponent_function(lam_c, [2.0, 2.0]) == pytest.approx(3.0,
                                                                     abs=1e-6)

    def test_degenerate_threshold(self, lam_c):
        # with w = (1, 0) only the first strip contributes:
        # Lambda(x1 < 1) equals the marginal tail mass 1
        assert exponent_function(lam_c, [1.0, 0.0]) == pytest.approx(1.0,
                                                                     abs=1e-6)

    def test_homogeneity(self, lam_c):
        # Lambda scaling gives a_C(t w) = t * a_C(w) for kappa = (1,1)
        base = exponent_function(lam_c, [1.0, 1.5])
        assert exponent_function(lam_c, [3.0, 4.5]) == pytest.approx(
            3.0 * base, rel=1e-6)

    def test_monotone_in_w(self, lam_c):
        vals = [exponent_function(lam_c, [w, w]) for w in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_all_zero_rejected(self, lam_c):
        with pytest.raises(ValueError):
            exponent_function(lam_c, [0.0, 0.0])

    @pytest.mark.parametrize("w,exact", [
        ((0.0, 1e20), 1e20), ((0.0, 1e12), 1e12), ((1e-3, 1e-3), 1.5e-3),
    ], ids=["0-1e20", "0-1e12", "1e-3"])
    def test_far_from_unit_scale(self, lam_c, w, exact):
        # the unbounded strip coordinates integrate out exactly, so the cells
        # keep the mass however far w is from the unit scale
        assert exponent_function(lam_c, w) == pytest.approx(exact, rel=1e-12)

    def test_untrustworthy_cubature_refused(self, lam_c):
        # a_C(1e-8, 1e-8) is 1.5e-8; the box cell's error estimate is 3.4e-9
        with pytest.raises(ArithmeticError, match="untrustworthy"):
            exponent_function(lam_c, [1e-8, 1e-8])

    def test_warned_cubature_refused(self, lam_c):
        # the box cell at (1e-9, 1e-6) warns and cannot resolve the point
        with pytest.warns(IntegrationWarning), \
                pytest.raises(ArithmeticError, match="untrustworthy"):
            exponent_function(lam_c, [1e-9, 1e-6])

    @pytest.mark.parametrize("theta", [3.0, 4.0, 5.5])
    def test_negative_logistic_closed_form(self, E2, theta):
        # a = (1, 1): multivariate Lomax, every c_i = 1, and a_C is the
        # negative logistic w1 + w2 - (w1^{-1/alpha} + w2^{-1/alpha})^{-alpha}
        form = liouville_copula_tail_form(
            LiouvilleParams([1.0, 1.0], InvertedDirichlet(theta)), E2)
        w, alpha = np.array([0.5, 2.0]), theta - 2.0
        exact = w.sum() - ((w ** (-1.0 / alpha)).sum()) ** -alpha
        assert exponent_function(form, w) == pytest.approx(exact, rel=1e-10)

    def test_d3_identity_case(self):
        # a = (1, 1, 1), theta = 4: inclusion-exclusion of the negative
        # logistic orthant measures gives a_C(1, 1, 1) = 3 - 3/2 + 1/3
        form = liouville_copula_tail_form(
            LiouvilleParams([1.0, 1.0, 1.0], InvertedDirichlet(4.0)),
            DiagExponent([1.0, 1.0, 1.0]))
        assert exponent_function(form, [1.0, 1.0, 1.0]) == pytest.approx(
            11.0 / 6.0, rel=1e-12)


# name: ((a, theta), eigenvalues, copula frame, some region with cells is finite);
# at E = diag(1, 2) the sum keeps only the argmax coordinate, and every cell
# of every region diverges
_SWEEP_FORMS = {
    "copula-a11-theta3": (([1.0, 1.0], 3.0), (1.0, 1.0), True, True),
    "copula-a0.5,1.5": (([0.5, 1.5], 4.0), (1.0, 1.0), True, True),
    "copula-a0.3,0.4": (([0.3, 0.4], 2.0), (1.0, 1.0), True, True),
    "copula-d3": (([0.5, 1.5, 2.0], 6.0), (1.0, 1.0, 1.0), True, True),
    "limit-E=I": (([0.5, 1.5], 4.0), (1.0, 1.0), False, True),
    "limit-E=diag(1,2)": (([1.0, 1.0], 3.0), (1.0, 2.0), False, False),
}


class TestCellPath:
    """One path: every unbounded coordinate of a finite cell integrates out
    exactly, and nquad never sees (0, inf)."""

    @pytest.mark.parametrize("name", list(_SWEEP_FORMS))
    def test_sweep(self, name, monkeypatch):
        from scipy import integrate

        (a, theta), lambdas, copula, integrates = _SWEEP_FORMS[name]
        p, E = LiouvilleParams(a, InvertedDirichlet(theta)), DiagExponent(lambdas)
        form = (liouville_copula_tail_form if copula else liouville_limit_form)(p, E)
        d = form.dim
        calls = []

        def spy(func, ranges, opts):
            # record the ranges, and check the reduced integrand at a point inside
            calls.append(ranges)
            assert len(opts) == len(ranges)
            mid = [lo + 1.0 if hi == math.inf else 0.5 * (lo + hi) for lo, hi in ranges]
            assert 0.0 < func(*mid) < math.inf
            return 0.0, 0.0

        monkeypatch.setattr(integrate, "nquad", spy)
        for w in ([1.0] * d, [0.5] + [2.0] * (d - 1), [0.0] + [1.5] * (d - 1)):
            for kind in kernels.KINDS:
                region = Region(kind, w)
                cells = exponent._region_cells(region)
                for _, cell in cells:
                    if exponent._cell_divergent(form, cell):
                        continue
                    for j, (k, v) in enumerate(cell):
                        if k == "full" or (k == "high" and v == 0):
                            assert form.integrate_out(j).dim == d - 1
                n_calls = len(calls)
                if intensity_measure(form, region).verdict == "finite":
                    assert len(calls) - n_calls == len(cells)
        assert bool(calls) == integrates
        assert all(r != (0.0, math.inf) for ranges in calls for r in ranges)
        assert all(0 < len(ranges) <= d for ranges in calls)


class TestMixedDerivative:
    def test_at_symmetric_point(self, lam_c):
        res = exponent_mixed_derivative_defect(lam_c, [1.0, 1.0])
        assert res.defect < 0.03
        assert res.magnitude == pytest.approx(0.25, rel=0.03)
        assert res.sign == -1

    def test_at_asymmetric_point(self, lam_c):
        res = exponent_mixed_derivative_defect(lam_c, [1.0, 2.0])
        assert res.defect < 0.03
        assert res.magnitude == pytest.approx(2.0 * 1.5 ** -3.0 * 0.25,
                                              rel=0.03)
        assert res.sign == -1

    def test_step_validation(self, lam_c):
        with pytest.raises(ValueError):
            exponent_mixed_derivative_defect(lam_c, [0.04, 1.0])


class TestOrthantConvergence:
    def test_matches_exact_finite_t(self, p2, E2):
        # exact: P(X1>t, X2>t)/U(t) = (1+t)^3 / (t^2 (1+2t))
        t = 100.0
        rows = orthant_convergence(p2, E2, Region.upper_orthant([1.0, 1.0]),
                                   [t], n=10 ** 5, seed=3)
        row = rows[0]
        exact = (1 + t) ** 3 / (t ** 2 * (1 + 2 * t))
        assert row.target == pytest.approx(0.5, abs=1e-7)
        assert row.verdict == "ok"
        assert abs(row.estimate - exact) < 3.0 * row.stderr

    def test_estimate_tightens_with_t(self, p2, E2):
        rows = orthant_convergence(p2, E2, Region.upper_orthant([1.0, 1.0]),
                                   [10.0, 100.0, 1000.0], n=2 * 10 ** 5, seed=5)
        gaps = [abs(r.estimate - r.target) for r in rows]
        assert gaps[-1] < gaps[0]

    def test_block_counts_equal_one_count(self, p2, E2):
        # hits are counted block by block; one count over all of t^{-E} X agrees
        n = 2 * 10 ** 5
        assert n > 3 * liouville._BLOCK_ROWS
        B = Region.upper_orthant([0.5, 2.0])
        rows = orthant_convergence(p2, E2, B, [3.0, 30.0], n=n, seed=4)
        x = p2.sample(n, seed=4)
        for row in rows:
            y = x / row.t ** E2.as_array()
            assert row.hits == kernels.count_in_region(y, np.array(B.w), B.kind) > 0

    def test_zero_hits_verdict(self, p2, E2):
        rows = orthant_convergence(p2, E2, Region.upper_orthant([1.0, 1.0]),
                                   [10.0 ** 9], n=10 ** 5, seed=1)
        assert rows[0].hits == 0
        assert rows[0].verdict == "increase n or decrease t"

    def test_small_n_rejected(self, p2, E2):
        with pytest.raises(ValueError, match="1e5"):
            orthant_convergence(p2, E2, Region.upper_orthant([1.0, 1.0]),
                                [10.0], n=100, seed=1)

    # t is checked, and U(t) computed, before any sampling or division; a
    # RuntimeWarning from numpy would fail the test
    @pytest.mark.parametrize("t,error", [
        (0.0, ValueError), (-1.0, ValueError), (math.inf, ValueError),
        (math.nan, ValueError), (1e200, ArithmeticError), (1e-300, ArithmeticError),
    ], ids=["0", "negative", "inf", "nan", "1e200", "1e-300"])
    def test_bad_t_rejected(self, p2, E2, t, error):
        with pytest.raises(error, match="t must be positive and finite|tail normalizer"):
            orthant_convergence(p2, E2, Region.upper_orthant([1.0, 1.0]),
                                [10.0, t], n=10 ** 5, seed=1)
