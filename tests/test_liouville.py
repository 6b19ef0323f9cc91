import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import betainc, betaincc, betaln, gammainc, gammaincc

from opertail import liouville
from opertail import (DiagExponent, GenericRV, IntegrabilityError,
                      InvertedDirichlet, LiouvilleParams,
                      NotOperatorRegularlyVarying, Rapid, copula_density,
                      driving_from_dict)


@pytest.fixture(scope="module")
def p2():
    """The fully explicit test bed: a=(1,1), g(t)=(1+t)^-3."""
    return LiouvilleParams([1.0, 1.0], InvertedDirichlet(3.0))


@pytest.fixture(scope="module")
def p3():
    return LiouvilleParams([1.0, 1.0, 1.0], InvertedDirichlet(4.0))


class TestNormalization:
    def test_testbed_constant(self, p2):
        assert p2.norm_const == pytest.approx(2.0, rel=1e-12)

    def test_d3_constant(self, p3):
        # Gamma(3) / (prod Gamma(1) * B(3, 1)) = 2 / (1/3) = 6
        assert p3.norm_const == pytest.approx(6.0, rel=1e-12)

    def test_quadrature_oracle(self):
        # independent route: 1 / int t^{A-1} g(t) dt * Gamma(A)/prod Gamma(a_i)
        p = LiouvilleParams([0.5, 2.0], InvertedDirichlet(4.0))
        integral, _ = integrate.quad(
            lambda t: t ** 1.5 * (1 + t) ** -4.0, 0, np.inf)
        expected = math.gamma(2.5) / (math.gamma(0.5) * math.gamma(2.0) * integral)
        assert p.norm_const == pytest.approx(expected, rel=1e-9)

    def test_integrability_violated(self):
        with pytest.raises(IntegrabilityError, match="integrability violated"):
            LiouvilleParams([1.0, 1.0], InvertedDirichlet(2.0))

    def test_generic_rv_integrability(self):
        with pytest.raises(IntegrabilityError, match="integrability violated"):
            LiouvilleParams([1.0, 1.0], GenericRV(1.5))

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    @pytest.mark.parametrize("log_power", [-2.0, -1.0, 0.0, 1.0])
    def test_one_integrability_rule(self, beta, log_power):
        # int^inf s^{m-1} g(s) ds diverges iff m > beta, or m = beta with
        # log_power >= -1; the radial norm (order A) and W^m g share that rule
        drivers = [GenericRV(beta, log_power)] + [InvertedDirichlet(beta)] * (log_power == 0)
        for g, m in itertools.product(drivers, (beta - 0.5, beta, beta + 0.5)):
            diverges = m > beta or (m == beta and log_power >= -1)
            try:
                LiouvilleParams([m], g)
            except IntegrabilityError as e:
                assert diverges and "integrability violated" in str(e)
            else:
                assert not diverges
            try:
                LiouvilleParams([0.5], g).weyl_integral(m, 1.0)
            except ValueError as e:
                assert diverges and "diverges" in str(e)
            else:
                assert not diverges

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LiouvilleParams([1.0, -1.0], InvertedDirichlet(3.0))
        with pytest.raises(ValueError):
            LiouvilleParams([], InvertedDirichlet(3.0))


class TestJointDensity:
    def test_closed_form(self, p2):
        for x, y in [(0.5, 0.5), (1.0, 2.0), (3.0, 0.1)]:
            assert p2.joint_density([x, y]) == pytest.approx(
                2.0 * (1 + x + y) ** -3.0, rel=1e-12)

    def test_boundary_continuous_extension(self, p2):
        # a_i = 1: density extends continuously to the axes
        assert p2.joint_density([0.0, 1.0]) == pytest.approx(2.0 / 8.0)
        assert p2.joint_density([0.0, 0.0]) == pytest.approx(2.0)

    def test_boundary_divergence_flag(self):
        p = LiouvilleParams([0.5, 1.0], InvertedDirichlet(3.0))
        assert p.joint_density([0.0, 1.0]) == math.inf

    def test_boundary_zero_for_large_shape(self):
        p = LiouvilleParams([2.0, 1.0], InvertedDirichlet(4.0))
        assert p.joint_density([0.0, 1.0]) == 0.0

    def test_rejects_negative(self, p2):
        with pytest.raises(ValueError):
            p2.joint_density([-0.1, 1.0])

    def test_integrates_to_one_d2(self, p2):
        val, _ = integrate.nquad(lambda x, y: p2.joint_density([x, y]),
                                 [(0, np.inf)] * 2)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_batch_rows(self, p2):
        got = p2.joint_density(np.array([[1.0, 1.0], [2.0, 2.0]]))
        np.testing.assert_allclose(got, [2.0 / 27.0, 2.0 / 125.0], rtol=1e-12)


class TestBatchContract:
    """One point (d,) gives a float; a batch (..., d) gives an array that
    matches hand-written closed forms, boundary rows included."""

    # a = (1/2, 1, 2), theta = 5: c_f = Gamma(5) / (Gamma(1/2) Gamma(3/2)) = 48/pi
    A = [0.5, 1.0, 2.0]
    # boundary rows: x_i = 0 with a_i < 1, a_i = 1, a_i > 1, and two at once
    X = np.array([[0.3, 1.2, 2.5], [1.7, 0.4, 0.9], [0.0, 1.0, 1.0],
                  [0.5, 0.0, 1.0], [0.5, 1.0, 0.0], [0.0, 1.0, 0.0]])

    @pytest.fixture(scope="class")
    def p(self):
        return LiouvilleParams(self.A, InvertedDirichlet(5.0))

    def test_joint_density_batch(self, p):
        x1, x2, x3 = self.X.T
        with np.errstate(divide="ignore", invalid="ignore"):
            want = 48.0 / math.pi * (1 + x1 + x2 + x3) ** -5.0 * x1 ** -0.5 * x3
        want[-1] = math.inf  # the a_i < 1 divergence wins over a_i > 1 at zero
        np.testing.assert_allclose(p.joint_density(self.X), want, rtol=1e-14)
        np.testing.assert_allclose(p.joint_density(self.X.reshape(2, 3, 3)),
                                   want.reshape(2, 3), rtol=1e-14)

    def test_limiting_density_batch(self, p):
        # E = diag(1, 1, 2): argmax set {3}, so c_f x3^-5 x1^-1/2 x3; +inf
        # where x3 = 0 (argmax-set sum 0) although a_3 > 1 there
        x1, _, x3 = self.X.T
        with np.errstate(divide="ignore"):
            want = 48.0 / math.pi * x1 ** -0.5 * x3 ** -4.0
        got = p.limiting_density(DiagExponent([1.0, 1.0, 2.0]), self.X)
        assert np.isinf(got[[2, 4, 5]]).all()
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_one_point_is_float(self, p):
        E = DiagExponent([1.0, 1.0, 2.0])
        for x in self.X:
            assert type(p.joint_density(x)) is float
            assert type(p.limiting_density(E, x)) is float

    # margin i is BetaPrime(a_i, theta - A) = BetaPrime(a_i, 3/2)
    XM = np.array([[0.0, 0.01, 0.3], [1.0, 7.0, 100.0]])
    QM = np.array([[0.05, 0.3, 0.5], [0.51, 0.8, 0.95]])

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_margins_take_arrays(self, p, i):
        law = stats.betaprime(self.A[i], 1.5)
        x, q = self.XM, self.QM
        with np.errstate(divide="ignore"):
            pdf = law.pdf(x)
        pdf[0, 0] = [math.inf, 1.5, 0.0][i]  # a_i below, at and above 1
        for got, want in ((p.marginal_density(i, x), pdf),
                          (p.marginal_cdf(i, x), law.cdf(x)),
                          (p._marginal_survival(i, x), law.sf(x))):
            assert got.shape == x.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        got = p.marginal_quantile(i, q)
        assert got.shape == q.shape
        np.testing.assert_allclose(law.cdf(got), q, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_margin_arrays_match_points(self, p, i):
        ends = np.array([0.0, 0.5, math.inf])
        for f, arg in ((p.marginal_cdf, ends), (p._marginal_survival, ends),
                       (p.marginal_quantile, self.QM.ravel())):
            points = [f(i, v) for v in arg]
            assert all(type(v) is float for v in points)
            assert f(i, arg).tolist() == points  # bitwise
        points = [p.marginal_density(i, v) for v in self.XM.ravel()]
        assert all(type(v) is float for v in points)
        np.testing.assert_allclose(p.marginal_density(i, self.XM.ravel()), points,
                                   rtol=1e-15, atol=0)

    def test_generic_rv_margins_take_arrays(self):
        # GenericRV(3, 0), a = (1, 1): margins F(x) = x/(1+x), through quadrature
        pg = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 0.0))
        x = np.array([[0.0, 0.1], [9.0, math.inf]])
        np.testing.assert_allclose(pg.marginal_cdf(0, x), [[0.0, 1 / 11], [0.9, 1.0]],
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(pg._marginal_survival(1, x),
                                   [[1.0, 10 / 11], [0.1, 0.0]], rtol=1e-10, atol=0)
        np.testing.assert_allclose(pg.marginal_density(0, x[0]), [1.0, 1.1 ** -2],
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(pg.marginal_quantile(1, [0.2, 0.9]), [0.25, 9.0],
                                   rtol=1e-10, atol=0)

    def test_wrong_width_rejected(self, p):
        wide = np.ones((4, 4))
        with pytest.raises(ValueError, match="dimension"):
            p.joint_density(wide)
        with pytest.raises(ValueError, match="dimension"):
            p.limiting_density(DiagExponent([1.0, 1.0, 2.0]), wide)


class TestRadialPart:
    def test_cdf_closed_form(self, p2):
        for r in [0.1, 1.0, 5.0, 100.0]:
            assert p2.radial_cdf(r) == pytest.approx((r / (1 + r)) ** 2,
                                                     rel=1e-12)

    def test_quantile_roundtrip(self, p2):
        for q in [0.01, 0.5, 0.99]:
            assert p2.radial_cdf(p2.radial_quantile(q)) == pytest.approx(q,
                                                                         abs=1e-12)

    def test_generic_rv_quad_route(self):
        p = LiouvilleParams([1.0, 1.0], GenericRV(4.0, 1.0))
        for q in [0.2, 0.8]:
            r = p.radial_quantile(q)
            assert p.radial_cdf(r) == pytest.approx(q, abs=1e-9)

    @pytest.mark.parametrize("k", range(2, 12))
    def test_generic_rv_deep_tail_quantile(self, k):
        # GenericRV(3, 0) with a = (1, 1) is the inverted Dirichlet with
        # survival S(r) = (1 + 2r) / (1 + r)^2, here reached by quadrature
        p = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 0.0))
        r = p.radial_quantile(1.0 - 10.0 ** -k)
        assert (1 + 2 * r) / (1 + r) ** 2 == pytest.approx(10.0 ** -k, rel=1e-9)

    @pytest.mark.parametrize("r", [1e7, 1.85e7])
    def test_generic_rv_deep_tail_cdf(self, r):
        p = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 0.0))
        assert 1.0 - p.radial_cdf(r) == pytest.approx((1 + 2 * r) / (1 + r) ** 2,
                                                      rel=1e-7)

    def test_rapid_gamma_radial(self):
        # g(t) = e^{-t} with A = 2: the radial part is Gamma(2, 1)
        p = LiouvilleParams([1.0, 1.0], Rapid())
        assert p.radial_cdf(1.0) == pytest.approx(1 - 2 * math.exp(-1), rel=1e-12)

    def test_rejects_bad_args(self, p2):
        with pytest.raises(ValueError):
            p2.radial_cdf(0.0)
        with pytest.raises(ValueError):
            p2.radial_quantile(1.0)


class TestInputDomain:
    """NaN is outside every domain; r = inf is inside the radial CDF's."""

    NAN_CALLS = {"radial_cdf": lambda p: p.radial_cdf(math.nan),
                 "radial_quantile": lambda p: p.radial_quantile([0.5, math.nan]),
                 "marginal_cdf": lambda p: p.marginal_cdf(0, math.nan),
                 "marginal_density": lambda p: p.marginal_density(0, math.nan),
                 "marginal_survival": lambda p: p._marginal_survival(0, math.nan)}

    @pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
    def test_nan_rejected(self, p2, call):
        with pytest.raises(ValueError):
            call(p2)

    @pytest.mark.parametrize("g", [InvertedDirichlet(3.0), GenericRV(3.0, 1.0), Rapid()],
                             ids=["inverted_dirichlet", "generic_rv", "rapid"])
    def test_radial_cdf_at_infinity(self, g):
        p = LiouvilleParams([1.0, 1.0], g)
        assert p.radial_cdf(math.inf) == 1.0
        got = p.radial_cdf([0.5, math.inf])
        assert got[1] == 1.0 and got[0] == p.radial_cdf(0.5)


    # at x_i = inf, g is 0 and x_i^(a_i - 1) is inf wherever a_i > 1
    INF_CASES = {"generic_rv": ([1.0, 1.0], GenericRV(3.0, 1.0)),
                 "inverted_dirichlet": ([2.0, 1.0], InvertedDirichlet(4.0)),
                 "shapes_above_one": ([1.5, 2.0], InvertedDirichlet(4.0)),
                 "rapid": ([2.0, 1.0], Rapid())}

    @pytest.mark.parametrize("a, g", INF_CASES.values(), ids=INF_CASES.keys())
    def test_densities_vanish_at_infinity(self, a, g):
        p = LiouvilleParams(a, g)
        assert p.joint_density([math.inf, 1.0]) == 0.0
        assert p.joint_density([0.5, math.inf]) == 0.0
        assert p.joint_density([0.0, math.inf]) == 0.0
        if g.rv_index is not None:  # 0 where a summed coordinate is inf
            scalar, skew = DiagExponent([1.0, 1.0]), DiagExponent([1.0, 2.0])
            assert p.limiting_density(scalar, [math.inf, 1.0]) == 0.0
            assert p.limiting_density(skew, [1.0, math.inf]) == 0.0
            if a[0] > 1:  # unsummed, x_0^(a_0 - 1) is the only factor at inf
                assert p.limiting_density(skew, [math.inf, 1.0]) == math.inf
        got = p.joint_density([[math.inf, 1.0], [0.5, 2.0], [math.inf, math.inf]])
        np.testing.assert_array_equal(got, [0.0, p.joint_density([0.5, 2.0]), 0.0])
        for i in range(2):
            assert p.marginal_density(i, math.inf) == 0.0
            got = p.marginal_density(i, [2.0, math.inf])
            assert got[1] == 0.0 and got[0] == p.marginal_density(i, 2.0)


class TestSampling:
    def test_bitwise_deterministic(self, p2):
        a = p2.sample(1000, seed=42)
        b = p2.sample(1000, seed=42)
        assert a.shape == (1000, 2)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self, p2):
        assert not np.array_equal(p2.sample(100, seed=1), p2.sample(100, seed=2))

    def test_marginal_median(self, p2):
        # F_i(x) = x/(1+x), so the marginal median is exactly 1
        x = p2.sample(200_000, seed=5)
        med = np.median(x, axis=0)
        np.testing.assert_allclose(med, [1.0, 1.0], atol=0.02)

    def test_joint_cdf_goodness_of_fit(self, p2):
        # closed-form joint CDF C(x,y) = 1 - 1/(1+x) - 1/(1+y) + 1/(1+x+y)
        n = 200_000
        x = p2.sample(n, seed=9)
        edges = np.array([0.0, 0.5, 1.5, 4.0, np.inf])

        def cdf(u, v):
            if u == 0 or v == 0:
                return 0.0
            return 1 - 1 / (1 + u) - 1 / (1 + v) + 1 / (1 + u + v)

        box = lambda i, j: (cdf(edges[i + 1], edges[j + 1])
                            - cdf(edges[i], edges[j + 1])
                            - cdf(edges[i + 1], edges[j])
                            + cdf(edges[i], edges[j]))
        expected = np.array([[box(i, j) for j in range(4)] for i in range(4)])
        counts = np.histogram2d(x[:, 0], x[:, 1], bins=[edges, edges])[0]
        chi2 = np.sum((counts - n * expected) ** 2 / (n * expected))
        assert stats.chi2.sf(chi2, df=15) > 0.001

    def test_rejects_bad_n(self, p2):
        with pytest.raises(ValueError):
            p2.sample(0, seed=1)

    @staticmethod
    def _one_shot(p, n, seed):
        # the sampler over whole arrays: all gammas, then all uniforms
        rng = np.random.Generator(np.random.Philox(seed))
        gam = rng.standard_gamma(np.asarray(p.a), size=(n, p.dim))
        d = gam / gam.sum(axis=1, keepdims=True)
        u = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
        r = p.radial_quantile(u)
        return r[:, None] * d

    @pytest.mark.parametrize("a, g", [((1.0, 1.0, 0.5), InvertedDirichlet(3.0)),
                                      ((1.0, 2.0), Rapid())],
                             ids=["inverted-dirichlet", "rapid"])
    def test_blocks_bitwise_equal_one_shot(self, a, g):
        p = LiouvilleParams(a, g)
        n = 3 * liouville._BLOCK_ROWS + 123  # three full blocks and a partial one
        assert np.array_equal(p.sample(n, seed=8), self._one_shot(p, n, 8))

    def test_generic_rv_blocks_bitwise_equal_one_shot(self, monkeypatch):
        monkeypatch.setattr(liouville, "_BLOCK_ROWS", 4)
        p = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 1.0))
        assert np.array_equal(p.sample(14, seed=8), self._one_shot(p, 14, 8))

    def test_working_memory_is_output_plus_a_block(self, p2):
        # numpy reports its allocations to tracemalloc, so the peak is exact;
        # a sampler over whole arrays peaks at about 4 times the output
        tracemalloc.start()
        try:
            x = p2.sample(10 ** 6, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * x.nbytes


class TestMarginals:
    def test_weyl_integral_closed_form(self, p2):
        # W^1 g(x) = int_x^inf (1+s)^{-3} ds = (1+x)^{-2} / 2
        for x in [0.0, 1.0, 10.0]:
            assert p2.weyl_integral(1.0, x) == pytest.approx(
                0.5 * (1 + x) ** -2.0, rel=1e-10)

    def test_weyl_fractional_order(self):
        # W^{1/2} of (1+s)^{-3} at 0 equals Gamma(2.5)/(Gamma(0.5)Gamma(3))
        # by the Beta-integral identity W^m (1+s)^{-q}(0) = B(m, q-m)/Gamma(m)
        p = LiouvilleParams([1.0, 0.5], InvertedDirichlet(3.0))
        expected = math.exp(betaln(0.5, 2.5)) / math.gamma(0.5)
        assert p.weyl_integral(0.5, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_weyl_order_zero_is_identity(self, p2):
        assert p2.weyl_integral(0.0, 3.0) == p2.g(3.0)

    def test_density_closed_form(self, p2):
        xs = np.linspace(0.0, 50.0, 26)
        for x in xs:
            assert abs(p2.marginal_density(0, x) - (1 + x) ** -2.0) < 1e-8

    def test_density_integrates_to_one(self, p2):
        val, _ = integrate.quad(lambda x: p2.marginal_density(0, x), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_cdf_closed_form(self, p2):
        for x in [0.1, 1.0, 9.0, 100.0]:
            assert p2.marginal_cdf(0, x) == pytest.approx(x / (1 + x), abs=1e-10)

    def test_quantile_roundtrip(self, p2):
        for q in [0.05, 0.5, 0.999]:
            assert p2.marginal_cdf(0, p2.marginal_quantile(0, q)) == \
                pytest.approx(q, abs=1e-10)

    def test_permutation_symmetry(self):
        p = LiouvilleParams([1.0, 2.0], InvertedDirichlet(5.0))
        q = LiouvilleParams([2.0, 1.0], InvertedDirichlet(5.0))
        for x in [0.3, 2.0]:
            assert p.marginal_density(1, x) == pytest.approx(
                q.marginal_density(0, x), rel=1e-9)
            assert p.marginal_cdf(1, x) == pytest.approx(q.marginal_cdf(0, x),
                                                         abs=1e-10)

    def test_asymmetric_margin_integrates(self):
        p = LiouvilleParams([0.5, 2.0], InvertedDirichlet(4.0))
        for i in range(2):
            val, _ = integrate.quad(lambda x: p.marginal_density(i, x), 0,
                                    np.inf, limit=200)
            assert val == pytest.approx(1.0, abs=1e-7)

    def test_margin_index_validated(self, p2):
        with pytest.raises(ValueError, match="out of range"):
            p2.marginal_density(2, 1.0)

    @pytest.mark.parametrize("i", [-1, 5])
    def test_survival_margin_index_validated(self, i):
        # a negative index used to read margin d - 1, a large one IndexError
        p = LiouvilleParams([1.0, 2.0], InvertedDirichlet(4.0))
        with pytest.raises(ValueError, match="out of range"):
            p._marginal_survival(i, 1.0)


class TestOperatorLimit:
    def test_identity_exponent_closed_form(self, p2):
        E = DiagExponent([1.0, 1.0])
        assert p2.limiting_density(E, [1.0, 1.0]) == pytest.approx(0.25)
        assert p2.limiting_density(E, [1.0, 2.0]) == pytest.approx(2.0 / 27.0)

    def test_heterogeneous_exponent(self, p2):
        # argmax coordinate set is {1}: limit is c_f * x2^{-beta}
        E = DiagExponent([1.0, 2.0])
        assert p2.limiting_density(E, [5.0, 2.0]) == pytest.approx(2.0 / 8.0)

    def test_tail_normalizer_closed_form(self, p2):
        E = DiagExponent([1.0, 1.0])
        for t in [2.0, 100.0]:
            assert p2.tail_normalizer(E, t) == pytest.approx(
                (1 + t) ** -3.0 * t ** 2, rel=1e-12)

    def test_tail_rv_index(self, p2):
        assert p2.tail_rv_index(DiagExponent([1.0, 1.0])) == pytest.approx(1.0)
        assert p2.tail_rv_index(DiagExponent([1.0, 2.0])) == pytest.approx(3.0)

    @pytest.mark.parametrize("lam", [[1.0, 1.0], [1.0, 2.0]])
    def test_ratio_converges_to_limit(self, p2, lam):
        E = DiagExponent(lam)
        x = np.array([1.3, 0.7])
        lam_arr = E.as_array()
        defects = []
        for t in [1e2, 1e3, 1e4]:
            ratio = (p2.joint_density(t ** lam_arr * x)
                     / (t ** -lam_arr.sum() * p2.tail_normalizer(E, t)))
            defects.append(abs(ratio / p2.limiting_density(E, x) - 1.0))
        assert defects[-1] < 0.01
        assert defects[0] > defects[-1]

    def test_rapid_driver_rejected(self):
        p = LiouvilleParams([1.0, 1.0], Rapid())
        with pytest.raises(NotOperatorRegularlyVarying,
                           match="not operator-regularly varying"):
            p.limiting_density(DiagExponent([1.0, 1.0]), [1.0, 1.0])

    def test_exponent_dim_checked(self, p2):
        with pytest.raises(ValueError):
            p2.limiting_density(DiagExponent([1.0]), [1.0, 1.0])


class TestSerialization:
    def test_roundtrip(self):
        p = LiouvilleParams([1.0, 2.5], GenericRV(6.0, 1.0))
        q = LiouvilleParams.from_dict(p.to_dict())
        assert q.a == p.a and q.g == p.g

    def test_driving_variants(self):
        for g in (InvertedDirichlet(3.0), GenericRV(4.0, 2.0), Rapid()):
            assert driving_from_dict(g.to_dict()) == g

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown driving function"):
            driving_from_dict({"type": "mystery"})


def rel12(want):
    """pytest.approx at rel 1e-12 without its default 1e-12 absolute floor,
    which would pass any value below 1e-12."""
    return pytest.approx(want, rel=1e-12, abs=0)


class TestClosedMargins:
    """The closed drivers' margins against hand-written laws: BetaPrime(a_i, b)
    with b = theta - A for the inverted Dirichlet, Gamma(a_i) for Rapid."""

    XS = [1e-3, 0.3, 1.0, 7.0, 1e6]
    QS = [1e-10, 0.3, 0.5, 0.7, 1.0 - 1e-10]

    @pytest.fixture(scope="class")
    def pid(self):
        return LiouvilleParams([0.5, 1.5], InvertedDirichlet(4.0))  # b = 2

    @pytest.fixture(scope="class")
    def prapid(self):
        return LiouvilleParams([0.7, 1.3], Rapid())

    @pytest.mark.parametrize("i", [0, 1])
    def test_inverted_dirichlet_density_and_survival(self, pid, i):
        law = stats.betaprime(pid.a[i], 2.0)
        for x in self.XS:
            assert pid.marginal_density(i, x) == rel12(law.pdf(x))
            assert pid._marginal_survival(i, x) == rel12(law.sf(x))

    @pytest.mark.parametrize("i", [0, 1])
    def test_rapid_density_and_survival(self, prapid, i):
        law = stats.gamma(prapid.a[i])
        for x in self.XS:
            assert prapid.marginal_density(i, x) == rel12(law.pdf(x))
            assert prapid._marginal_survival(i, x) == rel12(law.sf(x))

    @pytest.mark.parametrize("i", [0, 1])
    def test_inverted_dirichlet_quantile(self, pid, i):
        # scipy's betaprime.ppf is no oracle here: at q = 1e-10 its root
        # finder gives up and is off by orders of magnitude
        ai = pid.a[i]
        for q in self.QS:
            x = pid.marginal_quantile(i, q)
            if q <= 0.5:
                assert betainc(ai, 2.0, x / (1 + x)) == rel12(q)
            else:
                assert betainc(2.0, ai, 1 / (1 + x)) == rel12(1 - q)

    @pytest.mark.parametrize("i", [0, 1])
    def test_rapid_quantile(self, prapid, i):
        ai = prapid.a[i]
        for q in self.QS:
            x = prapid.marginal_quantile(i, q)
            if q <= 0.5:
                assert gammainc(ai, x) == rel12(q)
            else:
                assert gammaincc(ai, x) == rel12(1 - q)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_weyl_beta_identity(self, pid, m):
        # W^m (1+s)^{-theta}(x) = B(m, theta-m)/Gamma(m) * (1+x)^{m-theta}
        for x in [0.0, 0.3, 7.0, 1e6]:
            want = math.exp(betaln(m, 4.0 - m)) / math.gamma(m) * (1 + x) ** (m - 4.0)
            assert pid.weyl_integral(m, x) == rel12(want)

    @pytest.mark.parametrize("m", [4.0, 5.5])
    def test_weyl_divergent_order_raises(self, pid, m):
        with pytest.raises(ValueError, match="diverges"):
            pid.weyl_integral(m, 1.0)

    # q = 1 - 2**-53 is the sampler's upper clip bound
    UPPER_QS = [1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-13, 1.0 - 2.0 ** -53]

    @pytest.mark.parametrize("q", UPPER_QS, ids=["1e-9", "1e-12", "1e-13", "2^-53"])
    def test_radial_quantile_upper_tail(self, q):
        # R ~ BetaPrime(3, 1) and Gamma(3), checked on the survival side
        pid = LiouvilleParams([1.0, 1.0, 1.0], InvertedDirichlet(4.0))
        prapid = LiouvilleParams([1.0, 1.0, 1.0], Rapid())
        r = pid.radial_quantile(q)
        assert math.isfinite(r)
        assert betainc(1.0, 3.0, 1 / (1 + r)) == rel12(1 - q)
        r = prapid.radial_quantile(q)
        assert math.isfinite(r)
        assert gammaincc(3.0, r) == rel12(1 - q)

    @pytest.mark.parametrize("x", [1e-5, 1e-8])
    def test_small_cdf_is_direct(self, x):
        # margin 2 is BetaPrime(2, 2); 1 - survival keeps only absolute accuracy
        p = LiouvilleParams([0.5, 1.5, 2.0], InvertedDirichlet(6.0))
        assert p.marginal_cdf(2, x) == rel12(betainc(2.0, 2.0, x / (1 + x)))

    def test_heavy_tail_close_to_integrability(self):
        # theta - A = 0.01: X_0 ~ BetaPrime(0.04, 0.01) and R ~ BetaPrime(2.54,
        # 0.01) have medians near 1e20 and 1e30, where x/(1+x) rounds to 1;
        # the medians and the copula density by mpmath at 40 digits
        p = LiouvilleParams([0.04, 2.5], InvertedDirichlet(2.55))
        x = p.marginal_quantile(0, 0.5)
        assert x == pytest.approx(2.7515096347941903e20, rel=1e-10)
        assert p.marginal_cdf(0, x) == rel12(0.5)
        assert p.radial_quantile(0.5) == pytest.approx(4.6236389574877896e30, rel=1e-10)
        assert copula_density(p, [0.5, 0.1]) == pytest.approx(3.1352580418975476e-38,
                                                              rel=1e-10, abs=0)

    def test_cdf_at_the_ends(self, pid, prapid):
        for p in (pid, prapid):
            assert p.marginal_cdf(0, 0.0) == 0.0
            assert p.marginal_cdf(0, math.inf) == 1.0
            assert p._marginal_survival(0, math.inf) == 0.0

    def test_d1_margin_is_radial_law(self):
        # d = 1: BetaPrime(A, theta - A) = the radial law
        p = LiouvilleParams([1.5], InvertedDirichlet(4.0))
        for x in [0.3, 7.0]:
            assert p.marginal_cdf(0, x) == rel12(p.radial_cdf(x))


class TestGenericRVQuadRoute:
    """GenericRV(3, 0) with a = (1, 1) is the law of the inverted-Dirichlet
    test bed reached through quadrature, so the closed oracles of
    ``TestMarginals`` apply at the same tolerances."""

    @pytest.fixture(scope="class")
    def pg(self):
        return LiouvilleParams([1.0, 1.0], GenericRV(3.0, 0.0))

    def test_weyl_integral(self, pg):
        for x in [0.0, 1.0, 10.0]:
            assert pg.weyl_integral(1.0, x) == pytest.approx(
                0.5 * (1 + x) ** -2.0, rel=1e-10)

    def test_density(self, pg):
        for x in np.linspace(0.0, 50.0, 26):
            assert abs(pg.marginal_density(0, x) - (1 + x) ** -2.0) < 1e-8

    def test_cdf(self, pg):
        for x in [0.1, 1.0, 9.0, 100.0]:
            assert pg.marginal_cdf(0, x) == pytest.approx(x / (1 + x), abs=1e-10)

    def test_quantile(self, pg):
        for q in [0.05, 0.5, 0.999]:
            assert pg.marginal_quantile(0, q) == pytest.approx(q / (1 - q), rel=1e-10)

    @pytest.mark.parametrize("x", [1e6, 1e10, 1e12])
    def test_deep_tail_survival(self, pg, x):
        # the closed survival is 1/(1+x); 1 - CDF would keep only absolute accuracy
        assert pg._marginal_survival(0, x) == rel12(1 / (1 + x))

    @pytest.mark.parametrize("x", [1e-4, 1e-8, 1e-12])
    def test_small_cdf(self, pg, x):
        assert pg.marginal_cdf(0, x) == pytest.approx(x / (1 + x), rel=1e-10, abs=0)

    @pytest.mark.parametrize("q", [1e-9, 1e-12])
    def test_small_quantile(self, pg, q):
        assert pg.marginal_quantile(0, q) == pytest.approx(q / (1 - q), rel=1e-10, abs=0)

    @pytest.mark.parametrize("q", [1e-12, 1e-14, 1e-16])
    def test_small_radial_quantile(self, pg, q):
        # CDF (r/(1+r))^2 inverts to sqrt(q)/(1 - sqrt(q))
        s = math.sqrt(q)
        assert pg.radial_quantile(q) == rel12(s / (1 - s))


class TestGenericRVBetaMixing:
    """GenericRV(2, 0) with a = (0.3, 0.4) is the inverted Dirichlet with
    margins BetaPrime(a_i, 1.3), here reached by averaging the Beta(a_i,
    A - a_i) CDF over the radial law; shapes below 1 make the mixing
    integrands singular at both ends."""

    XS = [1e-12, 1e-8, 1e-4, 0.3, 3.0, 1e4, 1e8, 1e12]

    @pytest.fixture(scope="class")
    def pg(self):
        return LiouvilleParams([0.3, 0.4], GenericRV(2.0, 0.0))

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("x", XS)
    def test_cdf(self, pg, i, x):
        b = 2.0 - pg.total_shape
        assert pg.marginal_cdf(i, x) == rel12(betainc(pg.a[i], b, x / (1 + x)))

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("x", XS)
    def test_survival(self, pg, i, x):
        # betainc(b, s, 1/(1+x)) rounds at tiny x, betaincc cancels at huge x
        s, b = pg.a[i], 2.0 - pg.total_shape
        want = betaincc(s, b, x / (1 + x)) if x < 1 else betainc(b, s, 1 / (1 + x))
        assert pg._marginal_survival(i, x) == rel12(want)

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("q", [1e-9, 0.1, 0.9])
    def test_quantile_roundtrip(self, i, q):
        p = LiouvilleParams([0.5, 1.5], GenericRV(3.0, 1.0))
        assert p.marginal_cdf(i, p.marginal_quantile(i, q)) == rel12(q)


class TestGenericRVWeyl:
    """The one GenericRV Weyl quadrature, checked where the closed forms reach:
    GenericRV(beta, 0) has the inverted-Dirichlet g, so its W^m g is the Beta
    integral B(m, beta - m)/Gamma(m) * (1+x)^{m-beta} at every order and x."""

    XS = np.concatenate([[0.0], np.logspace(-3, 9, 25)])

    @pytest.mark.parametrize("beta", [2.5, 4.0, 7.0])
    def test_matches_inverted_dirichlet(self, beta):
        pg = LiouvilleParams([1.0], GenericRV(beta, 0.0))
        for m in [0.3, 0.7, 1.0, 2.0, beta - 0.5, beta - 0.2, beta - 0.05]:
            want = math.exp(betaln(m, beta - m)) / math.gamma(m) * (1 + self.XS) ** (m - beta)
            np.testing.assert_allclose(pg.weyl_integral(m, self.XS), want, rtol=1e-12, atol=0)

    def test_log_factor_margin_positive_in_the_tail(self):
        p = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 1.0))
        assert np.all(p.marginal_density(0, self.XS) > 0)
        # W^1 g(1e7) = int_1e7^inf (1+s)^-3 log(e+s) ds, by mpmath at 30 digits
        assert p.weyl_integral(1.0, 1e7) == pytest.approx(8.309046270945872e-14, rel=1e-12)

    def test_log_factor_copula_corner(self):
        # v c(1-v, 1-v) tends to the tail density at (1, 1); its slowly varying
        # drift is below 3% per decade of v
        p = LiouvilleParams([1.0, 1.0], GenericRV(3.0, 1.0))
        corner = [v * copula_density(p, [1.0 - v, 1.0 - v]) for v in (1e-5, 1e-6, 1e-7)]
        assert corner[1:] == [pytest.approx(corner[0], rel=0.03)] * 2

    def test_fractional_margin_order_above_one(self):
        # margin 0 of a = (0.4, 2.5) integrates at order 2.5, close to beta = 3
        x = 0.3455107294592222
        value = LiouvilleParams([0.4, 2.5], GenericRV(3.0, 1.0)).marginal_density(0, x)
        assert math.isfinite(value) and value > 0
        p = LiouvilleParams([0.4, 2.5], GenericRV(3.0, 0.0))
        assert p.marginal_density(0, x) == pytest.approx(
            stats.betaprime(0.4, 0.1).pdf(x), rel=1e-12)

    def test_margin_order_close_to_beta(self):
        # margin 0 of a = (0.04, 2.5) integrates at order 2.5, 0.05 below beta
        p = LiouvilleParams([0.04, 2.5], GenericRV(2.55, 0.0))
        x = np.array([1e-3, 0.3, 2.0, 1e5])
        np.testing.assert_allclose(p.marginal_density(0, x),
                                   stats.betaprime(0.04, 0.01).pdf(x), rtol=1e-12, atol=0)

    def test_radial_norm_at_order_beta(self):
        # A = beta with log_power < -1: the integrand decays like 1/(t log^2 t);
        # int_0^inf t (1+t)^-2 log(e+t)^-2 dt by mpmath
        p = LiouvilleParams([2.0], GenericRV(2.0, -2.0))
        assert p.radial_norm == pytest.approx(0.92065303464609, rel=1e-12)

    @pytest.mark.parametrize("m, log_power", [(3.5, 0.0), (3.0, 1.0), (3.0, -1.0)])
    def test_divergent_order_raises(self, m, log_power):
        p = LiouvilleParams([1.0], GenericRV(3.0, log_power))
        with pytest.raises(ValueError, match="diverges"):
            p.weyl_integral(m, 1.0)

    def test_order_beta_with_fast_log_decay_is_finite(self):
        p = LiouvilleParams([1.0], GenericRV(3.0, -2.0))
        assert 0 < p.weyl_integral(3.0, 1.0) < math.inf

    @pytest.mark.parametrize("g", [InvertedDirichlet(3.0), GenericRV(3.0, 1.0), Rapid()])
    def test_array_in_array_out(self, g):
        p = LiouvilleParams([1.0, 1.0], g)
        x = np.array([[0.0, 0.5], [2.0, 40.0]])
        for m in [0.0, 0.5, 1.0]:
            got = p.weyl_integral(m, x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            want = [[p.weyl_integral(m, v) for v in row] for row in x.tolist()]
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
            assert type(p.weyl_integral(m, 2.0)) is float
