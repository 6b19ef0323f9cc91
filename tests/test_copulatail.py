import math

import numpy as np
import pytest

from opertail import (DiagExponent, GenericRV, InvertedDirichlet, LiouvilleParams,
                      MarginalFrame, TailDensityForm, compatibility_defect, copula_density,
                      copula_tail_to_density, density_to_copula_tail,
                      empirical_tail_density, exponent_function,
                      group_invariance_defect,
                      liouville_copula_tail_form, liouville_limit_form,
                      liouville_marginal_frame, quasihomogeneity_defect)
from opertail.cli import _make_evaluator


@pytest.fixture(scope="module")
def p2():
    return LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0))


@pytest.fixture(scope="module")
def E2():
    return DiagExponent([1.0, 1.0])


def closed_copula_density(u, v):
    """Independent oracle: with margins F(x) = x/(1+x), the copula density is
    c(u,v) = 2 (1/(1-u) + 1/(1-v) - 1)^{-3} / ((1-u)^2 (1-v)^2)."""
    s, t = 1.0 - u, 1.0 - v
    return 2.0 * (1.0 / s + 1.0 / t - 1.0) ** -3.0 / (s ** 2 * t ** 2)


class TestCopulaDensity:
    def test_center_value(self, p2):
        assert copula_density(p2, [0.5, 0.5]) == pytest.approx(32.0 / 27.0,
                                                               rel=1e-8)

    def test_upper_corner_value(self, p2):
        assert copula_density(p2, [0.9, 0.9]) == pytest.approx(
            closed_copula_density(0.9, 0.9), rel=1e-8)
        assert closed_copula_density(0.9, 0.9) == pytest.approx(2.9159, abs=1e-4)

    @pytest.mark.parametrize("u,v", [(0.2, 0.7), (0.95, 0.3), (0.99, 0.99)])
    def test_matches_closed_oracle(self, p2, u, v):
        assert copula_density(p2, [u, v]) == pytest.approx(
            closed_copula_density(u, v), rel=1e-7)

    def test_d1_degenerate(self):
        p = LiouvilleParams([1.0], InvertedDirichlet(2.0))
        assert copula_density(p, [0.3]) == 1.0

    def test_boundary_rejected(self, p2):
        with pytest.raises(ValueError):
            copula_density(p2, [0.0, 0.5])
        with pytest.raises(ValueError):
            copula_density(p2, [0.5, 1.0])

    def test_batch(self, p2):
        u = np.array([[0.2, 0.7], [0.95, 0.3], [0.99, 0.99], [0.5, 0.5]])
        got = copula_density(p2, u)
        assert got.shape == (4,)
        np.testing.assert_allclose(got, closed_copula_density(*u.T), rtol=1e-7)
        np.testing.assert_array_equal(copula_density(p2, u.reshape(2, 2, 2)),
                                      got.reshape(2, 2))
        assert type(copula_density(p2, u[0])) is float
        np.testing.assert_allclose(got, [copula_density(p2, v) for v in u],
                                   rtol=1e-15, atol=0)
        d1 = LiouvilleParams([1.0], InvertedDirichlet(2.0))
        np.testing.assert_array_equal(copula_density(d1, [[0.3], [0.8]]), [1.0, 1.0])
        with pytest.raises(ValueError, match="dimension"):
            copula_density(p2, np.full((3, 3), 0.5))

    def test_factory_binds_params(self, p2, E2):
        # the CLI's evaluator factory binds p to copula_density, batch in
        c, _, _ = _make_evaluator("copula_density", {}, p2, E2)
        assert c(np.array([[0.5, 0.5]])) == pytest.approx([32.0 / 27.0], rel=1e-8)


class TestCopulaDensityGenericRV:
    """GenericRV(3, 0) with a = (1, 1) is the test bed's law, reached through
    the Weyl and radial quadratures, so ``TestCopulaDensity``'s oracles hold."""

    @pytest.fixture(scope="class")
    def pg(self):
        return LiouvilleParams([1.0, 1.0], GenericRV(3.0, 0.0))

    def test_center_value(self, pg):
        assert copula_density(pg, [0.5, 0.5]) == pytest.approx(32.0 / 27.0, rel=1e-8)

    def test_upper_corner_value(self, pg):
        assert copula_density(pg, [0.9, 0.9]) == pytest.approx(
            closed_copula_density(0.9, 0.9), rel=1e-8)

    @pytest.mark.parametrize("u,v", [(0.2, 0.7), (0.95, 0.3), (0.99, 0.99)])
    def test_matches_closed_oracle(self, pg, u, v):
        assert copula_density(pg, [u, v]) == pytest.approx(
            closed_copula_density(u, v), rel=1e-7)


class TestClosedTailForms:
    def test_values(self, p2, E2):
        lam_c = liouville_copula_tail_form(p2, E2)
        assert lam_c([1.0, 1.0]) == pytest.approx(0.25, rel=1e-12)
        assert lam_c([2.0, 2.0]) == pytest.approx(0.125, rel=1e-12)
        assert lam_c([1.0, 2.0]) == pytest.approx(2.0 * 1.5 ** -3.0 * 0.25, rel=1e-12)

    def test_general_formula(self, p2):
        # E = diag(1,2): rho = 2*3 - 3 = 3, alpha = (3, 1.5)
        E = DiagExponent([1.0, 2.0])
        form = liouville_copula_tail_form(p2, E)
        al = np.array([3.0, 1.5])
        w = np.array([1.3, 0.8])
        expected = (2.0 / np.prod(al) * w[1] ** (-1.0 / al[1] * -3.0)
                    * np.prod(w ** (-(al + 1.0) / al)))
        assert form(w) == pytest.approx(float(expected), rel=1e-12)

    def test_rho_nonpositive_rejected(self):
        # beta = sum(a) with a strong log correction is integrable but makes
        # the tail normalizer slowly varying (rho = 0)
        from opertail import GenericRV
        p = LiouvilleParams([1.0, 1.0], GenericRV(2.0, -2.0))
        with pytest.raises(ValueError,
                           match="not regularly varying with negative index"):
            liouville_copula_tail_form(p, DiagExponent([1.0, 1.0]))

    def test_limit_form_matches_method(self, p2, E2):
        form = liouville_limit_form(p2, E2)
        for x in ([1.0, 1.0], [0.4, 2.2]):
            assert form(x) == pytest.approx(
                p2.limiting_density(E2, x), rel=1e-12)

    def test_form_batch(self, p2, E2):
        # lambda_C(w) = 2 (1/w1 + 1/w2)^-3 (w1 w2)^-2, written out by hand
        w = np.random.default_rng(0).uniform(0.1, 5.0, size=(60, 2))
        w1, w2 = w.T
        want = 2.0 * (1.0 / w1 + 1.0 / w2) ** -3.0 * (w1 * w2) ** -2.0
        form = liouville_copula_tail_form(p2, E2)
        np.testing.assert_allclose(form(w), want, rtol=1e-14)
        np.testing.assert_allclose(form(w.reshape(3, 20, 2)), want.reshape(3, 20),
                                   rtol=1e-14)
        assert type(form(w[0])) is float
        with pytest.raises(ValueError, match="dimension"):
            form(np.ones((3, 3)))

    def test_form_rejects_nonpositive(self, p2, E2):
        form = liouville_copula_tail_form(p2, E2)
        with pytest.raises(ValueError):
            form([1.0, 0.0])


class TestQuasihomogeneity:
    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_defect_vanishes(self, p2, E2, t):
        form = liouville_copula_tail_form(p2, E2)
        for w in ([1.0, 1.0], [0.7, 1.9]):
            assert quasihomogeneity_defect(form, t, w) < 1e-10

    def test_corrupted_form_detected(self, p2, E2):
        form = liouville_copula_tail_form(p2, E2)
        from dataclasses import replace
        bad = replace(form, coord_powers=tuple(s + 0.3
                                               for s in form.coord_powers))
        assert quasihomogeneity_defect(bad, 2.0, [1.0, 1.0]) > 0.1

    def test_group_invariance(self, p2):
        E = DiagExponent([1.0, 2.0])
        form = liouville_limit_form(p2, E)
        for t in (0.5, 3.0):
            assert group_invariance_defect(form, t, [1.1, 0.6]) < 1e-10

    def test_group_invariance_needs_original_frame(self, p2, E2):
        form = liouville_copula_tail_form(p2, E2)
        with pytest.raises(ValueError):
            group_invariance_defect(form, 2.0, [1.0, 1.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_t_rejected(self, p2, t):
        # at t = inf the group invariance defect would read 0, a false pass
        E = DiagExponent([1.0, 2.0])
        with pytest.raises(ValueError, match="t must be"):
            group_invariance_defect(liouville_limit_form(p2, E), t, [1.1, 0.6])
        with pytest.raises(ValueError, match="t must be"):
            quasihomogeneity_defect(liouville_copula_tail_form(p2, E), t, [1.1, 0.6])


class TestTransforms:
    def test_forward(self, p2, E2):
        lam = liouville_limit_form(p2, E2)
        frame = liouville_marginal_frame(p2, E2)
        for w in ([1.0, 1.0], [1.0, 2.0], [0.3, 5.0]):
            assert density_to_copula_tail(lam, frame, w) == pytest.approx(
                liouville_copula_tail_form(p2, E2)(w), rel=1e-12)

    def test_backward(self, p2, E2):
        lam_c = liouville_copula_tail_form(p2, E2)
        frame = liouville_marginal_frame(p2, E2)
        for x in ([1.0, 1.0], [2.0, 0.5]):
            assert copula_tail_to_density(lam_c, frame, x) == pytest.approx(
                p2.limiting_density(E2, x), rel=1e-12)

    def test_roundtrip_100_random_points(self, p2):
        E = DiagExponent([1.0, 2.0])
        lam = liouville_limit_form(p2, E)
        frame = liouville_marginal_frame(p2, E)
        rng = np.random.default_rng(17)
        pts = rng.uniform(0.2, 5.0, size=(100, 2))
        for x in pts:
            back = copula_tail_to_density(
                lambda w: density_to_copula_tail(lam, frame, w), frame, x)
            assert abs(back / lam(x) - 1.0) < 1e-12

    def test_batch(self, p2):
        E = DiagExponent([1.0, 2.0])
        lam, lam_c = liouville_limit_form(p2, E), liouville_copula_tail_form(p2, E)
        frame = liouville_marginal_frame(p2, E)
        pts = np.random.default_rng(3).uniform(0.2, 5.0, size=(2, 5, 2))
        fwd = density_to_copula_tail(lam, frame, pts)
        back = copula_tail_to_density(lam_c, frame, pts)
        assert fwd.shape == back.shape == (2, 5)
        np.testing.assert_allclose(fwd, lam_c(pts), rtol=1e-12)
        np.testing.assert_allclose(back, lam(pts), rtol=1e-12)
        flat = pts.reshape(-1, 2)
        one = [density_to_copula_tail(lam, frame, w) for w in flat]
        assert all(type(v) is float for v in one)
        np.testing.assert_allclose(fwd.ravel(), one, rtol=1e-15, atol=0)
        one = [copula_tail_to_density(lam_c, frame, x) for x in flat]
        assert all(type(v) is float for v in one)
        np.testing.assert_allclose(back.ravel(), one, rtol=1e-15, atol=0)

    def test_marginal_frame_alphas(self, p2):
        assert liouville_marginal_frame(p2, DiagExponent([1.0, 1.0])).alphas \
            == pytest.approx((1.0, 1.0))
        assert liouville_marginal_frame(p2, DiagExponent([1.0, 2.0])).alphas \
            == pytest.approx((3.0, 1.5))

    @pytest.mark.parametrize("alphas", [[2.0], [1.0, 1.0, 1.0]])
    def test_transforms_reject_frame_of_other_dimension(self, p2, E2, alphas):
        # a 1-entry frame would broadcast to alpha = (2, 2) on a 2-d point
        frame = MarginalFrame(alphas)
        lam = liouville_limit_form(p2, E2)
        lam_c = liouville_copula_tail_form(p2, E2)
        for transform, form in ((density_to_copula_tail, lam),
                                (copula_tail_to_density, lam_c)):
            for v in ([1.0, 2.0], [[1.0, 2.0], [0.5, 1.0]]):
                with pytest.raises(ValueError, match="one per marginal tail index"):
                    transform(form, frame, v)

    def test_transform_rejects_nonpositive(self, p2, E2):
        frame = liouville_marginal_frame(p2, E2)
        lam = liouville_limit_form(p2, E2)
        with pytest.raises(ValueError):
            density_to_copula_tail(lam, frame, [0.0, 1.0])


class TestEmpiricalTailDensity:
    def test_single_step_value(self, p2):
        c = lambda u: copula_density(p2, u)
        r = [lambda u: u] * 2
        est = empirical_tail_density(c, r, lambda u: 1.0, [1.0, 1.0],
                                     [1.0, 1.0], [1e-2, 1e-3])
        # at u = 1e-3 the exact finite-u value is 2 (2 - u)^{-3}
        assert est.estimates[-1] == pytest.approx(2.0 * (2.0 - 1e-3) ** -3.0,
                                                  rel=1e-6)
        assert est.estimates[-1] == pytest.approx(0.250375, abs=1e-5)

    def test_limit_w11(self, p2):
        c = lambda u: copula_density(p2, u)
        r = [lambda u: u] * 2
        est = empirical_tail_density(c, r, lambda u: 1.0, [1.0, 1.0],
                                     [1.0, 1.0], np.logspace(-2, -6, 5))
        assert est.verdict == "converged"
        assert est.limit == pytest.approx(0.25, rel=1e-3)

    def test_limit_w12(self, p2):
        c = lambda u: copula_density(p2, u)
        r = [lambda u: u] * 2
        est = empirical_tail_density(c, r, lambda u: 1.0, [1.0, 1.0],
                                     [1.0, 2.0], np.logspace(-2, -6, 5))
        assert est.verdict == "converged"
        assert est.limit == pytest.approx(2.0 * 1.5 ** -3.0 * 0.25, rel=5e-3)

    def test_one_call_on_the_grid(self, p2):
        calls = []

        def counted(name, f):
            return lambda v: (calls.append((name, np.shape(v))), f(v))[1]

        c = counted("c", lambda u: copula_density(p2, u))
        r = [counted("r", lambda u: u)] * 2
        est = empirical_tail_density(c, r, counted("ell", lambda u: np.ones_like(u)),
                                     [1.0, 1.0], [1.0, 2.0],
                                     np.logspace(-2, -6, 5))
        assert sorted(calls) == [("c", (5, 2)), ("ell", (5,)), ("r", (5,)), ("r", (5,))]
        assert est.estimates.shape == (5,)

    def test_lower_side_independence_mismatch(self):
        # c = 1 is the same at both corners; with kappa = (1, 1) the estimates
        # 1 / u^{1 - 2} = u keep a log-log slope of 1
        c = lambda u: 1.0
        r = [lambda u: u] * 2
        est = empirical_tail_density(c, r, lambda u: 1.0, [1.0, 1.0],
                                     [1.0, 1.0], np.logspace(-2, -5, 4))
        np.testing.assert_allclose(est.estimates, np.logspace(-2, -5, 4), rtol=1e-12)
        assert est.verdict == "tail order mismatch"

    @pytest.mark.parametrize("kappa, w, nr", [
        ([1.0], [1.0, 1.0], 2),        # one tail order on a 2-d point
        ([1.0, 1.0, 1.0], [1.0, 1.0], 2),
        ([1.0, 1.0], [1.0, 1.0], 1),   # one normalizer for two coordinates
        ([1.0, 1.0], [[1.0, 1.0]], 2),
    ])
    def test_rejects_misshapen_kappa_w_r(self, p2, kappa, w, nr):
        with pytest.raises(ValueError, match="one entry per coordinate"):
            empirical_tail_density(lambda u: copula_density(p2, u), [lambda u: u] * nr,
                                   lambda u: 1.0, kappa, w, [1e-2, 1e-3])

    @pytest.mark.parametrize("kappa", [[1.0, 0.0], [1.0, -1.0], [1.0, math.inf],
                                       [1.0, math.nan]])
    def test_rejects_nonpositive_kappa(self, p2, kappa):
        with pytest.raises(ValueError, match="positive and finite"):
            empirical_tail_density(lambda u: copula_density(p2, u), [lambda u: u] * 2,
                                   lambda u: 1.0, kappa, [1.0, 1.0], [1e-2, 1e-3])

    def test_grid_validation(self, p2):
        c = lambda u: copula_density(p2, u)
        r = [lambda u: u] * 2
        with pytest.raises(ValueError):
            empirical_tail_density(c, r, lambda u: 1.0, [1.0, 1.0],
                                   [1.0, 1.0], [1e-3, 1e-2])
        with pytest.raises(ValueError, match="left"):
            empirical_tail_density(c, r, lambda u: 1.0, [1.0, 1.0],
                                   [2000.0, 1.0], [0.5, 1e-3])


class TestIntegrateOut:
    """Closure under marginalisation: X_{-j} of an inverted Dirichlet vector
    is inverted Dirichlet with a_{-j} and theta - a_j, with the same alpha,
    so w_j integrates out of the d = 3 form to the d = 2 form."""

    A, THETA = (0.5, 1.5, 2.0), 6.0

    @staticmethod
    def _forms(a, theta):
        p = LiouvilleParams(list(a), InvertedDirichlet(theta))
        E = DiagExponent([1.0] * len(a))
        return liouville_copula_tail_form(p, E), liouville_limit_form(p, E)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_closure(self, j):
        rest = self.A[:j] + self.A[j + 1:]
        for got, want in zip((f.integrate_out(j) for f in self._forms(self.A, self.THETA)),
                             self._forms(rest, self.THETA - self.A[j])):
            assert got.coef == pytest.approx(want.coef, rel=1e-14)
            assert got.sum_indices == want.sum_indices
            np.testing.assert_allclose(got.sum_powers, want.sum_powers, rtol=1e-14)
            assert got.sum_exponent == pytest.approx(want.sum_exponent, rel=1e-14)
            np.testing.assert_allclose(got.coord_powers, want.coord_powers, rtol=1e-14)
            assert (got.kappa, got.lambdas, got.rho) == (want.kappa, want.lambdas,
                                                         want.rho)

    @pytest.mark.parametrize("frame", ["copula", "limit"])  # p_j < 0 and p_j > 0
    @pytest.mark.parametrize("j", [0, 2])
    def test_against_quad(self, frame, j):
        from scipy.integrate import quad

        form = self._forms(self.A, self.THETA)[frame == "limit"]
        assert (form.sum_powers[j] < 0) == (frame == "copula")
        rest = np.array([0.7, 1.9])
        point = lambda v: np.insert(rest, j, v)
        want = sum(quad(lambda v: form(point(v)), lo, hi, epsabs=0, epsrel=1e-13,
                        limit=200)[0] for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
        assert form.integrate_out(j)(rest) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("form,j", [
        # E = diag(1, 2): the sum set is {1}, so w_0 is a pure power and
        # w_1 the whole sum
        (liouville_limit_form(LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0)),
                              DiagExponent([1.0, 2.0])), 0),
        (liouville_limit_form(LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0)),
                              DiagExponent([1.0, 2.0])), 1),
        # a = (s + 1)/p = 0 and a < 0: divergent at w_j -> 0
        (TailDensityForm(1.0, (0, 1), (1.0, 1.0), -3.0, (-1.0, 0.0)), 0),
        (TailDensityForm(1.0, (0, 1), (-1.0, 1.0), -3.0, (0.0, 0.0)), 0),
        # b = -q - a = 0: divergent at w_j -> inf
        (TailDensityForm(1.0, (0, 1), (1.0, 1.0), -2.0, (1.0, 0.0)), 0),
    ], ids=["outside-S", "S-is-j", "a-zero", "a-negative", "b-zero"])
    def test_divergent_raises(self, form, j):
        with pytest.raises(ArithmeticError):
            form.integrate_out(j)


class TestFractionalShapeScaling:
    """a = (1/2, 3/2), theta = 4, E = I, so alpha = 2: the closed copula form
    is the tail density relative to r_i(u) = c_i u, c_i = 1 / (alpha
    B(a_i, alpha)) = (3/8, 15/8) the margins' tail constants, not relative
    to r = u; the two agree only where every a_i = 1."""

    C = (0.375, 1.875)

    @pytest.fixture(scope="class")
    def p(self):
        return LiouvilleParams([0.5, 1.5], InvertedDirichlet(4.0))

    @pytest.fixture(scope="class")
    def form(self, p):
        return liouville_copula_tail_form(p, DiagExponent([1.0, 1.0]))

    def test_tail_constants(self, p):
        # P(X_i > x) ~ c_i x^-2 for X_i ~ BetaPrime(a_i, 2)
        for i, ci in enumerate(self.C):
            assert p._marginal_survival(i, 1e8) * 1e16 == pytest.approx(ci, rel=1e-6)

    @pytest.mark.parametrize("w", [(1.0, 1.0), (0.5, 2.0)])
    def test_empirical_limit_with_scaled_r(self, p, form, w):
        est = empirical_tail_density(lambda u: copula_density(p, u),
                                     [lambda u, ci=ci: ci * u for ci in self.C],
                                     lambda u: 1.0 / (self.C[0] * self.C[1]),
                                     [1.0, 1.0], w, [1e-4, 1e-5, 1e-6])
        assert est.verdict == "converged"
        assert est.limit == pytest.approx(form(w), rel=0.01)
        # relative to r = u the finite-u value stays off the form: 0.0777 vs 0.0597
        unscaled = 1e-8 * copula_density(p, 1.0 - 1e-8 * np.asarray(w))
        assert abs(unscaled / form(w) - 1.0) > 0.2

    @pytest.mark.parametrize("i", [0, 1])
    def test_compatibility_verdicts(self, p, i):
        ci, t = self.C[i], np.logspace(2, 10, 5)
        surv = lambda x: p._marginal_survival(i, x)
        plain = compatibility_defect(lambda u: u, surv, 1.0, 2.0, t)
        assert plain.verdict.startswith("incompatible (constant")
        assert plain.ratios[-1] == pytest.approx(1.0 / ci, rel=1e-4)  # 2.667, 0.533
        assert compatibility_defect(lambda u: ci * u, surv, 1.0, 2.0, t).verdict == \
            "compatible"

    @pytest.mark.parametrize("i", [0, 1])
    def test_exponent_function_at_unit_vectors(self, form, i):
        e = [0.0, 0.0]
        e[i] = 1.0
        assert exponent_function(form, e) == pytest.approx(self.C[i], rel=1e-6)


class TestCompatibility:
    @pytest.mark.parametrize("t_grid", [[], [10.0], [[10.0, 100.0]]])
    def test_rejects_short_grid(self, t_grid):
        with pytest.raises(ValueError, match="at least two points"):
            compatibility_defect(lambda u: u, lambda t: 1.0 / (1.0 + t), 1.0, 1.0, t_grid)

    def test_matched_margin(self):
        diag = compatibility_defect(lambda u: u, lambda t: 1.0 / (1.0 + t),
                                    1.0, 1.0, np.logspace(1, 6, 6))
        np.testing.assert_allclose(diag.defects, 1.0 / np.logspace(1, 6, 6),
                                   rtol=1e-9)
        assert diag.verdict == "compatible"

    def test_exponent_mismatch(self):
        diag = compatibility_defect(lambda u: u ** 2, lambda t: 1.0 / (1.0 + t),
                                    1.0, 1.0, np.logspace(1, 6, 6))
        assert diag.verdict == "incompatible"
        assert diag.defects[-1] > diag.defects[0]

    def test_constant_mismatch(self):
        diag = compatibility_defect(lambda u: 2.0 * u, lambda t: 1.0 / (1.0 + t),
                                    1.0, 1.0, np.logspace(1, 6, 6))
        assert diag.verdict.startswith("incompatible (constant")
        assert diag.ratios[-1] == pytest.approx(2.0, rel=1e-5)


class TestSerialization:
    def test_marginal_frame_validation(self):
        with pytest.raises(ValueError):
            MarginalFrame([1.0, -1.0])
