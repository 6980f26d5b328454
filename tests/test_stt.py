"""Space-time transformation tests: pushforwards, preimage sums, Wiener condition."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from diffcop import copula, models, special, stt
from diffcop.errors import DomainError
from diffcop.uniformize import (kolmogorov_copula_residual, ks_statistic,
                                uniformized_coefficients)

from quad_oracle import integrate

OU_P = {"alpha": 0.8, "beta": 0.5, "sigma": 0.7}
CIR_P = {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}
TAIL_P = [1e-15, 1e-12, 1e-9, 0.3, 1.0 - 1e-9]


def folded_normal(t):
    """|BM| at time t: its pushed marginal and, at 30 digits, the root
    sqrt(2t) erfinv(p) with the density there."""
    def exact(p):
        with mp.workdps(30):
            root = mp.sqrt(2 * t) * mp.erfinv(mp.mpf(p))
            return root, 2 * mp.npdf(root / mp.sqrt(t)) / mp.sqrt(t)
    bm = models.make_model("bm", x0=0.0)
    return stt.pushforward_marginal(bm, stt.absolute_value(), t), exact


def special_cir(t, alpha=0.6, sigma=1.1):
    """BM through bm_to_special_cir: Y = sigma^2 X^2 / (4 (alpha t + 1)) is a scaled
    chi-square(1), with root sigma^2 t erfinv(p)^2 / (2 (alpha t + 1))."""
    def exact(p):
        with mp.workdps(30):
            e = mp.erfinv(mp.mpf(p))
            root = sigma ** 2 * t * e * e / (2 * (alpha * t + 1))
            return root, mp.exp(-e * e) * e / (mp.sqrt(mp.pi) * root)
    chain = stt.builtin_chain("bm_to_special_cir", alpha=alpha, sigma=sigma)
    return stt.pushforward_marginal(models.make_model("bm", x0=0.0), chain, t), exact


def ou_model(x0=0.3):
    return models.make_model("ou", OU_P, x0=x0)


class TestPushTransition:
    def test_identity_preserves_kernel(self):
        ou = ou_model()
        pushed = stt.push_transition(ou, stt.identity_transform())
        for (s, t, y, x) in [(0.5, 1.0, 0.1, 0.4), (1.0, 2.5, -0.7, 1.1)]:
            assert pushed.kernel.pdf(s, y, t, x) == ou.kernel.pdf(s, y, t, x)
            assert pushed.kernel.cdf(s, y, t, x) == ou.kernel.cdf(s, y, t, x)

    def test_gbm_from_bm_by_exponential_map(self):
        mu, sg = 0.1, 0.4
        bm = models.make_model("bm", x0=0.0)
        exp_map = stt.SpaceTimeTransform(
            phi=lambda t: t, phi_inv=lambda tau: tau,
            psi=lambda t, x: np.exp(mu * t + sg * np.asarray(x, dtype=float)),
            jacobian=lambda t, x: sg * np.exp(mu * t + sg * np.asarray(x, dtype=float)),
            pieces=(stt.MonotonePiece(
                -np.inf, np.inf,
                lambda t, y: (np.log(np.asarray(y, dtype=float)) - mu * t) / sg, True),),
            name="exp")
        pushed = stt.push_transition(bm, exp_map)
        gbm = models.make_model("gbm", {"mu": mu, "sigma": sg}, x0=1.0)
        for (s, t, y, x) in [(0.5, 1.0, 1.2, 1.5), (1.0, 3.0, 0.7, 0.9)]:
            assert pushed.kernel.pdf(s, y, t, x) == pytest.approx(
                gbm.kernel.pdf(s, y, t, x), rel=1e-12)
            assert pushed.kernel.quantile(s, y, t, 0.77) == pytest.approx(
                gbm.kernel.quantile(s, y, t, 0.77), rel=1e-12)

    def test_ou_to_bm_matches_bm_kernel(self):
        ou = ou_model()
        chain = stt.builtin_chain("ou_to_bm", **OU_P)
        pushed = stt.push_transition(ou, chain)
        bm = models.make_model("bm", x0=pushed.x0)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            s = float(rng.uniform(0.2, 2.0))
            t = s + float(rng.uniform(0.1, 2.0))
            y = float(rng.normal())
            x = float(rng.normal())
            worst = max(worst, abs(float(pushed.kernel.pdf(s, y, t, x))
                                   - float(bm.kernel.pdf(s, y, t, x))))
        assert worst <= 1e-10

    def test_multi_piece_transform_rejected(self):
        bm = models.make_model("bm", x0=0.0)
        with pytest.raises(DomainError):
            stt.push_transition(bm, stt.absolute_value())

    def test_decreasing_transform(self):
        bm = models.make_model("bm", x0=0.0)
        neg = stt.SpaceTimeTransform(
            phi=lambda t: t, phi_inv=lambda tau: tau,
            psi=lambda t, x: -np.asarray(x, dtype=float),
            jacobian=lambda t, x: -np.ones_like(np.asarray(x, dtype=float)),
            pieces=(stt.MonotonePiece(-np.inf, np.inf,
                                      lambda t, y: -np.asarray(y, dtype=float), False),),
            name="negate")
        pushed = stt.push_transition(bm, neg)
        # -BM is again a BM
        assert pushed.kernel.pdf(0.5, 0.2, 1.5, 0.7) == pytest.approx(
            bm.kernel.pdf(0.5, 0.2, 1.5, 0.7), rel=1e-12)
        assert pushed.kernel.cdf(0.5, 0.0, 1.5, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_pushed_kernel_has_unit_mass_on_the_line(self):
        cir = models.make_model("cir", CIR_P, x0=1.2)
        pushed = stt.push_transition(cir, stt.builtin_chain("cir_to_bessel", alpha=1.0,
                                                            sigma=0.8))
        s, y, t = 0.5, 1.3, 0.9
        pdf = lambda x: float(pushed.kernel.pdf(s, y, t, x))
        mass = (integrate(pdf, -np.inf, 0.0, abs_tol=1e-10, rel_tol=1e-10)
                + integrate(pdf, 0.0, np.inf, abs_tol=1e-10, rel_tol=1e-10))
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert pushed.kernel.cdf(s, y, t, -1.0) == 0.0
        assert pushed.kernel.cdf(s, y, t, np.inf) == 1.0

    @pytest.mark.parametrize("call", [
        lambda m: uniformized_coefficients(m, 0.5, 1.0),
        lambda m: kolmogorov_copula_residual(copula.from_transition(m, 1.0, 2.0), m),
        lambda m: stt.wiener_transformability_check(m.spec, 0.0, 0.0, [1.0], [1.0]),
        lambda m: stt.search_constant_c1_c2(m.spec, [1.0], [1.0]),
        lambda m: stt.wiener_stt(m.spec, 0.0, 0.0).psi(1.0, 1.0),
    ], ids=["uniformized_coefficients", "kolmogorov_copula_residual",
            "wiener_transformability_check", "search_constant_c1_c2", "wiener_stt"])
    def test_pushed_model_has_no_coefficients(self, call):
        pushed = stt.push_transition(models.make_model("cir", CIR_P, x0=1.2),
                                     stt.builtin_chain("cir_to_bessel", alpha=1.0, sigma=0.8))
        with pytest.raises(DomainError, match=r"'push\(cir,cir_to_bessel\)' has no drift"):
            call(pushed)


class TestBuiltinChains:
    def test_unknown_chain(self):
        with pytest.raises(DomainError):
            stt.builtin_chain("bm_to_heston")

    @pytest.mark.parametrize("name, params, names", [
        ("ou_to_bm", {"alpha": 1.0}, r"missing \['beta', 'sigma'\], unknown \[\]"),
        ("bm_to_special_cir", {"alpha": 0.6, "sigma": 1.1, "beta": 0.0},
         r"missing \[\], unknown \['beta'\]"),
        ("cir_to_rayleigh", {}, r"missing \['sigma'\]"),
        ("rayleigh_to_bessel", {"delta": 1.0}, r"missing \['b'\], unknown \['delta'\]"),
        ("cir_to_bessel", {"alpha": 1.0, "beta": 1.0}, r"missing \['sigma'\], unknown \['beta'\]"),
    ], ids=["ou_to_bm", "bm_to_special_cir", "cir_to_rayleigh", "rayleigh_to_bessel",
            "cir_to_bessel"])
    def test_wrong_parameter_names_raise_domain_error(self, name, params, names):
        with pytest.raises(DomainError, match=f"chain '{name}' takes parameters .*: {names}"):
            stt.builtin_chain(name, **params)

    def test_cir_to_rayleigh_with_sigma_two(self):
        chain = stt.builtin_chain("cir_to_rayleigh", sigma=2.0)
        xs = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(chain.psi(0.7, xs), np.sqrt(xs), rtol=1e-15)

    def test_ou_to_bm_small_alpha_is_exact(self):
        # the image of OU at alpha = 1e-7 is a BM on the clock phi_{2 alpha}; psi has no
        # beta/alpha term to cancel, so the pushed kernel is the BM kernel to rounding
        params = {"alpha": 1e-7, "beta": 1.0, "sigma": 1.0}
        pushed = stt.push_transition(models.make_model("ou", params, x0=0.3),
                                     stt.builtin_chain("ou_to_bm", **params))
        bm = models.make_model("bm", x0=pushed.x0, t0=pushed.t0)
        for s, y, t, x in [(0.5, 0.2, 1.0, 0.6), (1.0, -0.4, 3.0, 0.9), (0.2, 1.0, 0.7, 0.5)]:
            assert float(pushed.kernel.pdf(s, y, t, x)) == pytest.approx(
                float(bm.kernel.pdf(s, y, t, x)), rel=1e-14, abs=0)
            assert float(pushed.kernel.cdf(s, y, t, x)) == pytest.approx(
                float(bm.kernel.cdf(s, y, t, x)), rel=1e-14, abs=0)

    def test_ou_to_bm_alpha_zero_limit(self):
        zero = stt.builtin_chain("ou_to_bm", alpha=0.0, beta=0.7, sigma=1.3)
        small = stt.builtin_chain("ou_to_bm", alpha=1e-12, beta=0.7, sigma=1.3)
        for t in (0.0, 0.25, 0.5):            # the maps differ from alpha = 0 by O(alpha t)
            assert small.phi(t) == pytest.approx(zero.phi(t), rel=1e-12, abs=1e-12)
            assert small.phi_inv(t) == pytest.approx(zero.phi_inv(t), rel=1e-12, abs=1e-12)
            for x in (-1.5, 0.0, 1.5):
                assert float(small.psi(t, x)) == pytest.approx(float(zero.psi(t, x)),
                                                               rel=1e-12, abs=1e-12)
                assert float(small.jacobian(t, x)) == pytest.approx(
                    float(zero.jacobian(t, x)), rel=1e-12, abs=1e-12)
                assert float(small.pieces[0].inverse(t, x)) == pytest.approx(
                    float(zero.pieces[0].inverse(t, x)), rel=1e-12, abs=1e-12)

    def test_rayleigh_to_bessel_small_b_limit(self):
        chain0 = stt.builtin_chain("rayleigh_to_bessel", b=0.0)
        chain_eps = stt.builtin_chain("rayleigh_to_bessel", b=1e-9)
        assert chain0.phi(2.0) == 2.0
        assert chain_eps.phi(2.0) == pytest.approx(2.0, abs=1e-8)
        assert chain0.psi(2.0, 1.3) == pytest.approx(1.3, abs=0.0)
        assert chain_eps.psi(2.0, 1.3) == pytest.approx(1.3, abs=1e-8)

    def test_rayleigh_to_bessel_horizon(self):
        chain = stt.builtin_chain("rayleigh_to_bessel", b=1.0)
        with pytest.raises(DomainError):
            chain.phi_inv(0.6)      # beyond 1/(2b)

    def test_cir_to_bessel_composition(self):
        alpha, sigma = CIR_P["alpha"], CIR_P["sigma"]
        chain = stt.builtin_chain("cir_to_bessel", alpha=alpha, sigma=sigma)
        for t in (0.3, 1.0, 2.0):
            assert chain.phi(t) == pytest.approx(math.expm1(alpha * t) / alpha, rel=1e-14)
            for x in (0.4, 1.5):
                expect = 2.0 * math.sqrt(x) / sigma * math.exp(alpha * t / 2.0)
                assert float(chain.psi(t, x)) == pytest.approx(expect, rel=1e-14)
        # round trip through the piece inverse
        piece = chain.pieces[0]
        y = float(chain.psi(0.8, 1.1))
        assert float(piece.inverse(0.8, y)) == pytest.approx(1.1, rel=1e-12)


class TestPushforwardMarginal:
    @pytest.mark.parametrize("name", ["absolute_value", "bm_to_special_cir"])
    def test_vector_matches_scalar(self, name):
        transform = (stt.absolute_value() if name == "absolute_value"
                     else stt.builtin_chain(name, alpha=0.6, sigma=1.1))
        marg = stt.pushforward_marginal(models.make_model("bm", x0=0.0), transform, 1.3)
        q = np.array([[-0.5, 0.0, 1e-3, 0.4], [1.0, 2.5, 7.0, 40.0]])
        for f in (marg.cdf, marg.pdf):
            vec = f(q)
            assert vec.shape == q.shape
            np.testing.assert_array_equal(vec, [[f(float(x)) for x in row] for row in q])
            assert isinstance(f(0.4), float)

    def test_absolute_value_is_the_folded_normal(self):
        t = 1.3
        marg = stt.pushforward_marginal(models.make_model("bm", x0=0.0), stt.absolute_value(), t)
        q = np.array([-1.0, 0.0, 0.05, 0.7, 2.0, 5.0])
        z = np.maximum(q, 0.0) / math.sqrt(t)
        np.testing.assert_allclose(marg.cdf(q), 2.0 * special.norm_cdf(z) - 1.0,
                                   rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(marg.pdf(q), np.where(q > 0.0, 2.0 * special.norm_pdf(z)
                                                         / math.sqrt(t), 0.0), rtol=1e-14)
        p = np.array([0.01, 0.5, 0.99])
        np.testing.assert_allclose(marg.cdf(marg.quantile(p)), p, rtol=1e-12)

    @pytest.mark.parametrize("law", [folded_normal, special_cir])
    @pytest.mark.parametrize("p", TAIL_P)
    def test_tail_quantile_against_mpmath(self, law, p):
        # the masses near the fold are integrated, not differenced, and the upper half is
        # solved on the survival side, so the tails hold the central accuracy
        marg, exact = law(2.0)
        root = float(exact(p)[0])
        assert marg.quantile(p) == pytest.approx(root, rel=1e-12, abs=0)
        assert marg.quantile(np.array(TAIL_P))[TAIL_P.index(p)] == pytest.approx(root, rel=1e-12,
                                                                               abs=0)

    @pytest.mark.parametrize("law", [folded_normal, special_cir])
    def test_quantile_near_one(self, law):
        # a double p fixes its quantile only to within a few ulps of p, which the density
        # at the root turns into a width
        p = 1.0 - 1e-12
        marg, exact = law(2.0)
        root, dens = (float(v) for v in exact(p))
        assert abs(marg.quantile(p) - root) <= 1e-12 * root + 4.0 * np.spacing(p) / dens

    @pytest.mark.parametrize("c", [0.3, 1.0, 2.5])
    def test_off_centre_fold_quantiles_against_mpmath(self, c):
        # |X| for X ~ N(c, 2), whose fold at 0 lies off the mean: P(|X| <= y) =
        # Phi((y - c)/sqrt 2) - Phi((-y - c)/sqrt 2), solved on the survival side above 1/2
        p = np.array([1e-15, 1e-12, 1e-9, 1e-3, 0.05, 0.3, 0.7, 0.97, 1.0 - 1e-9])
        marg = stt.pushforward_marginal(models.make_model("bm", x0=c), stt.absolute_value(), 2)
        got = marg.quantile(p)
        with mp.workdps(40):
            s = mp.sqrt(2)
            for pk, y in zip(p.tolist(), got.tolist()):
                if pk <= 0.5:
                    f = lambda r: mp.ncdf((r - c) / s) - mp.ncdf((-r - c) / s) - pk
                else:
                    f = lambda r: mp.ncdf((c - r) / s) + mp.ncdf((-r - c) / s) - (1.0 - pk)
                root = mp.findroot(f, (mp.mpf(y), mp.mpf(y) * (1 + mp.mpf(1e-8))))
                assert y == pytest.approx(float(root), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_quantile_rejects_p_outside_the_open_interval(self, p):
        marg = folded_normal(2.0)[0]
        for arg in (p, np.array([0.3, p])):
            with pytest.raises(DomainError, match=r"p must lie in the open interval \(0, 1\)"):
                marg.quantile(arg)

    def test_benchmark_grids_never_integrate(self, monkeypatch):
        # at the |BM| grids' levels, p >= 1/(2n), no piece mass cancels: the exact
        # branch, one `integrate` call, stays out of their quantile solves
        def refuse(*args, **kwargs):
            raise AssertionError("integrate called")
        monkeypatch.setattr(stt, "integrate", refuse)
        bm = models.make_model("bm", x0=0.0)
        for n, (s, t) in zip((7, 9, 11), [(0.5, 1.0), (1.0, 2.0), (1.9, 3.9)]):
            grid = copula.grid_eval(stt.nonmonotone_copula(bm, stt.absolute_value(), s, t), n)
            assert np.all(np.isfinite(grid) & (grid > 0.0))


class TestNonmonotone:
    def test_weights_half_half(self):
        bm = models.make_model("bm", x0=0.0)
        for q in (0.2, 0.9, 2.5):
            pts, w = stt.preimage_weights(bm, stt.absolute_value(), 1.0, q)
            np.testing.assert_allclose(sorted(pts), [-q, q])
            np.testing.assert_array_equal(w, [0.5, 0.5])
            assert w.sum() == 1.0

    def test_asymmetric_weights_normalize(self):
        bm = models.make_model("bm_drift", {"mu": 0.7, "sigma": 1.0}, x0=0.4)
        pts, w = stt.preimage_weights(bm, stt.absolute_value(), 1.0, 0.9)
        assert w.sum() == pytest.approx(1.0, abs=5e-16)
        assert w[0] != w[1]

    def test_array_level_rejected(self):
        bm = models.make_model("bm", x0=0.0)
        with pytest.raises(DomainError, match="q must be a scalar level"):
            stt.preimage_weights(bm, stt.absolute_value(), 1.0, np.array([0.2, 0.4]))

    def test_jacobian_zero_reported(self):
        bm = models.make_model("bm", x0=0.0)
        cubic = stt.SpaceTimeTransform(
            phi=lambda t: t, phi_inv=lambda tau: tau,
            psi=lambda t, x: np.asarray(x, dtype=float) ** 3,
            jacobian=lambda t, x: 3.0 * np.asarray(x, dtype=float) ** 2,
            pieces=(stt.MonotonePiece(-np.inf, np.inf,
                                      lambda t, y: np.cbrt(np.asarray(y, dtype=float)), True),),
            name="cubic")
        with pytest.raises(DomainError, match="Jacobian vanishes"):
            stt.preimage_weights(bm, cubic, 1.0, 0.0)

    def test_matches_reflected_bm_copula(self):
        bm = models.make_model("bm", x0=0.0)
        surf = stt.nonmonotone_copula(bm, stt.absolute_value(), 1.0, 2.0)
        ref = copula.rbm_closed_form(1.0, 2.0)
        pts = np.linspace(0.1, 0.9, 5)
        worst = max(abs(float(surf.density(u, v)) - float(ref.density(u, v)))
                    for u in pts for v in pts)
        assert worst <= 1e-10
        assert surf.time_pair == (1.0, 2.0)
        assert surf.provenance == "nonmonotone"

    def test_density_has_uniform_margins(self):
        bm = models.make_model("bm", x0=0.0)
        surf = stt.nonmonotone_copula(bm, stt.absolute_value(), 1.0, 2.0)
        for v in np.arange(0.1, 0.91, 0.2):
            mass = integrate(lambda u: float(surf.density(u, v)), 0.0, 1.0,
                             abs_tol=1e-8, rel_tol=1e-8, points=[v])
            assert abs(mass - 1.0) <= 1e-5

    def test_conditional_consistent_with_density(self):
        bm = models.make_model("bm", x0=0.0)
        surf = stt.nonmonotone_copula(bm, stt.absolute_value(), 1.0, 2.0)
        u = 0.4
        direct = float(surf.conditional(u, 0.6))
        by_quad = integrate(lambda z: float(surf.density(u, z)), 0.0, 0.6,
                            abs_tol=1e-9, rel_tol=1e-8)
        assert direct == pytest.approx(by_quad, abs=1e-7)

    def test_unequal_weights_match_folded_bivariate_normal(self):
        # |X| for BM with drift: the preimages +-q carry unequal weights.  The oracle is
        # the quotient of folded densities of the bivariate normal (X_s, X_t)
        mu, sigma, x0, s, t = 0.3, 1.2, 0.5, 0.8, 1.5
        m_s, m_t = x0 + mu * s, x0 + mu * t
        sd_s, sd_t = sigma * math.sqrt(s), sigma * math.sqrt(t)
        rho = sd_s / sd_t                              # Cov(X_s, X_t) = sigma^2 s
        sd_c = sd_t * math.sqrt(1.0 - rho * rho)       # sd of X_t given X_s
        npdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        def folded_quantile(p, m, sd):
            return brentq(lambda y: ndtr((y - m) / sd) - ndtr((-y - m) / sd) - p, 0.0, 50.0,
                          xtol=1e-300, rtol=1e-15)

        def oracle(u, v):
            a, b = folded_quantile(u, m_s, sd_s), folded_quantile(v, m_t, sd_t)
            joint = cond = mass = 0.0
            for x in (a, -a):
                f_x = npdf((x - m_s) / sd_s) / sd_s
                m_c = m_t + rho * sd_t / sd_s * (x - m_s)
                mass += f_x
                cond += f_x * (ndtr((b - m_c) / sd_c) - ndtr((-b - m_c) / sd_c))
                joint += f_x * (npdf((b - m_c) / sd_c) + npdf((-b - m_c) / sd_c)) / sd_c
            f_b = (npdf((b - m_t) / sd_t) + npdf((-b - m_t) / sd_t)) / sd_t
            return joint / (mass * f_b), cond / mass

        drift = models.make_model("bm_drift", {"mu": mu, "sigma": sigma}, x0=x0)
        surf = stt.nonmonotone_copula(drift, stt.absolute_value(), s, t)
        g = np.array([0.05, 0.3, 0.6, 0.95])
        ref = np.array([[oracle(u, v) for u in g] for v in g])
        np.testing.assert_allclose(surf.density(g[None, :], g[:, None]), ref[..., 0],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(surf.conditional(g[None, :], g[:, None]), ref[..., 1],
                                   rtol=0.0, atol=1e-14)

    def test_monotone_transform_collapses_to_time_change(self):
        ou = ou_model()
        chain = stt.builtin_chain("ou_to_bm", **OU_P)
        surf = stt.nonmonotone_copula(ou, chain, 0.5, 1.0)
        base = copula.from_transition(ou, 0.5, 1.0)
        for u in (0.2, 0.5, 0.8):
            for v in (0.3, 0.6, 0.9):
                assert float(surf.density(u, v)) == pytest.approx(
                    float(base.density(u, v)), abs=1e-12)
        assert surf.time_pair == (float(chain.phi(0.5)), float(chain.phi(1.0)))

    def test_special_cir_copula_from_nonmonotone_bm(self):
        # the x^2-type transform applied to BM on the whole line reproduces the
        # copula of the gamma=1 square-root process (half weights by symmetry)
        alpha, sigma = 0.6, 1.1
        bm = models.make_model("bm", x0=0.0)
        chain = stt.builtin_chain("bm_to_special_cir", alpha=alpha, sigma=sigma)
        surf = stt.nonmonotone_copula(bm, chain, 1.0, 2.0)
        rbm = copula.rbm_closed_form(1.0, 2.0)
        for u in (0.25, 0.6):
            for v in (0.4, 0.85):
                assert float(surf.density(u, v)) == pytest.approx(
                    float(rbm.density(u, v)), abs=1e-9)


class TestCallEconomy:
    """The piecewise pushforward calls the law once per evaluation, for all pieces.

    The counts are taken on the normal law that `GaussianKernel.bind` returns, which
    the marginals and the kernel methods both evaluate; each test counts at least
    one call, so a hook that no call reaches fails.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"pdf": 0, "cdf": 0}
        for name in counts:
            def counted(self, *args, _name=name, _method=getattr(models._NormalLaw, name)):
                counts[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(models._NormalLaw, name, counted)
        return counts

    def test_pushforward_marginal_calls_the_law_once(self, calls):
        marg = stt.pushforward_marginal(models.make_model("bm", x0=0.0), stt.absolute_value(), 2)
        q = np.array([-0.5, 0.0, 0.3, 1.7, 4.0])
        calls.update(pdf=0, cdf=0)
        marg.cdf(q)
        assert calls == {"pdf": 0, "cdf": 1}
        marg.pdf(q)
        assert calls == {"pdf": 1, "cdf": 1}

    def test_nonmonotone_mesh_calls_at_most_the_seed_count(self, calls):
        # 3 x 3 meshes at (1, 2).  Each quantile solve makes one call of each law for its
        # start table and one per Newton step (3 here), and the first mesh builds both tables
        # (at the parent: cdf 28, then pdf 22 and cdf 20)
        surf = stt.nonmonotone_copula(models.make_model("bm", x0=0.0), stt.absolute_value(),
                                      1.0, 2.0)
        mesh = np.array([0.1, 0.5, 0.9])
        calls.update(pdf=0, cdf=0)
        surf.conditional(mesh[None, :], mesh[:, None])
        assert 1 <= calls["cdf"] <= 10 and 1 <= calls["pdf"] <= 9
        calls.update(pdf=0, cdf=0)
        surf.density(mesh[None, :], mesh[:, None])
        assert 1 <= calls["pdf"] <= 9 and 1 <= calls["cdf"] <= 6

    @pytest.mark.parametrize("p, cdf, pdf", [(0.3, 4, 4), (1e-12, 3, 5)])
    def test_quantile_calls_the_law_a_few_times(self, calls, p, cdf, pdf):
        # one call of each for the start table, then one of each per Newton step; at 1e-12
        # the cancelled fold masses add one pdf call each, inside `integrate` (at the
        # parent: 7 cdf and 4 pdf calls at 0.3, 52 and 49 at 1e-12)
        marg = stt.pushforward_marginal(models.make_model("bm", x0=0.0), stt.absolute_value(), 2)
        calls.update(pdf=0, cdf=0)
        marg.quantile(p)
        assert 1 <= calls["cdf"] <= cdf and 1 <= calls["pdf"] <= pdf


class TestTheorem7Constructive:
    def test_constructive_map_pushes_samples_to_target_law(self):
        # y = [F^Y_{phi(t)}]^{-1}(F^X_t(x)) maps X-transitions to Y-transitions
        ou = ou_model()
        chain = stt.builtin_chain("ou_to_bm", **OU_P)
        bm = models.make_model("bm", x0=float(chain.psi(0.0, ou.x0)))
        s, t = 0.7, 1.4
        ps, pt = float(chain.phi(s)), float(chain.phi(t))

        def constructive(time, phit, x):
            return bm.marginal(phit).quantile(ou.marginal(time).cdf(x))

        x_star = float(ou.marginal(s).quantile(0.6))
        y_star = float(constructive(s, ps, x_star))
        rng = np.random.default_rng(123)
        draws = models.sample_transition(ou, s, x_star, t, rng, size=200_000)
        mapped = np.asarray(constructive(t, pt, draws), dtype=float)
        ks = ks_statistic(mapped, lambda y: bm.kernel.cdf(ps, y_star, pt, y))
        assert ks <= 0.01


class TestWienerCondition:
    def test_ou_passes_with_constants(self):
        ou = ou_model()
        ok, resid = stt.wiener_transformability_check(
            ou.spec, -OU_P["alpha"], OU_P["beta"] / OU_P["sigma"],
            np.linspace(-2.0, 2.0, 7), np.linspace(0.2, 1.5, 4))
        assert ok and resid <= 1e-10

    def test_bm_trivially_passes(self):
        bm = models.make_model("bm", x0=0.0)
        ok, resid = stt.wiener_transformability_check(
            bm.spec, 0.0, 0.0, np.linspace(-2.0, 2.0, 5), [0.5, 1.0])
        assert ok and resid == 0.0

    def test_special_cir_passes(self):
        sc = models.make_model("cir_special", {"alpha": 0.6, "sigma": 1.1}, x0=0.4)
        ok, resid = stt.wiener_transformability_check(
            sc.spec, -0.3, 0.0, np.linspace(0.3, 2.0, 6), [0.5, 1.0])
        assert ok and resid <= 1e-6

    def test_general_cir_fails_all_constants(self):
        cir = models.make_model("cir", CIR_P, x0=1.2)
        c1, c2, best = stt.search_constant_c1_c2(
            cir.spec, np.linspace(0.3, 2.5, 6), [0.5, 1.0])
        assert best > 1e-6

    @pytest.mark.parametrize("name, params, x_ref, constants", [
        ("bm_drift", {"mu": 0.3, "sigma": 1.2}, 0.0, (0.0, 0.3 / 1.2)),
        ("ou", OU_P, 0.0, (-OU_P["alpha"], OU_P["beta"] / OU_P["sigma"])),
        ("cir_special", {"alpha": 0.6, "sigma": 1.1}, 0.0, (-0.3, 0.0)),
        ("gbm", {"mu": 0.1, "sigma": 0.4}, 1.0, (0.0, 0.1 / 0.4)),
    ])
    def test_search_recovers_exact_constants(self, name, params, x_ref, constants):
        spec = models.make_model(name, params, x0=1.0).spec
        xs, ts = np.linspace(0.3, 2.5, 6), [0.5, 1.0]
        c1, c2, best = stt.search_constant_c1_c2(spec, xs, ts, x_ref=x_ref)
        assert (c1, c2) == pytest.approx(constants, abs=1e-9)
        assert best <= 1e-10
        assert stt.wiener_transformability_check(spec, c1, c2, xs, ts, x_ref=x_ref) == (True, best)

    @pytest.mark.parametrize("c1, c2", [(lambda t: 0.0 * t, 0.0), (0.0, lambda t: 0.0 * t),
                                        (math.nan, 0.0), (0.0, math.inf)],
                             ids=["callable_c1", "callable_c2", "nan_c1", "inf_c2"])
    def test_constants_only(self, c1, c2):
        spec = models.make_model("bm", x0=0.0).spec
        with pytest.raises(DomainError, match="must be a finite constant"):
            stt.wiener_transformability_check(spec, c1, c2, [0.5, 1.0], [0.5])
        with pytest.raises(DomainError, match="must be a finite constant"):
            stt.wiener_stt(spec, c1, c2)

    def test_vanishing_diffusion_rejected(self):
        spec = models.DiffusionSpec(
            "degenerate", {}, (-np.inf, np.inf), ("natural", "natural"),
            drift=lambda x, t: 0.0, diffusion=lambda x, t: np.asarray(x, dtype=float))
        with pytest.raises(DomainError):
            stt.wiener_transformability_check(spec, 0.0, 0.0, [0.0, 1.0], [0.5])

    def test_constructive_stt_maps_ou_to_bm(self):
        ou = ou_model()
        transform = stt.wiener_stt(ou.spec, -OU_P["alpha"], OU_P["beta"] / OU_P["sigma"])
        pushed = stt.push_transition(ou, transform)
        bm = models.make_model("bm", x0=pushed.x0)
        for (s, t, y, x) in [(0.5, 1.2, 0.1, 0.5), (0.8, 1.6, -0.4, 0.2)]:
            assert float(pushed.kernel.pdf(s, y, t, x)) == pytest.approx(
                float(bm.kernel.pdf(s, y, t, x)), abs=1e-9)


class TestWienerInverse:
    """`wiener_stt`'s space inverse and time-change inverse, on arrays."""

    @staticmethod
    def transforms():
        ou = ou_model()
        sc = models.make_model("cir_special", {"alpha": 0.6, "sigma": 1.1}, x0=0.4)
        return {"ou": (stt.wiener_stt(ou.spec, -OU_P["alpha"], OU_P["beta"] / OU_P["sigma"]),
                       np.linspace(-6.0, 6.0, 12).reshape(3, 4)),
                "cir_special": (stt.wiener_stt(sc.spec, -0.3, 0.0),
                                np.array([1e-3, 0.05, 0.4, 1.0, 3.0, 12.0]))}

    @pytest.mark.parametrize("name", ["ou", "cir_special"])
    def test_round_trip_on_arrays(self, name):
        transform, ys = self.transforms()[name]
        piece = transform.pieces[0]
        for t in (0.4, 1.3):
            x = piece.inverse(t, ys)
            assert x.shape == ys.shape
            assert np.all((piece.lo < x) & (x < piece.hi))
            assert np.all(np.abs(transform.psi(t, x) - ys) <= 1e-13 * np.maximum(1.0, np.abs(ys)))

    @pytest.mark.parametrize("name", ["ou", "cir_special"])
    def test_vector_call_equals_scalar_loop(self, name):
        transform, ys = self.transforms()[name]
        inverse = transform.pieces[0].inverse
        scalars = [inverse(0.9, float(y)) for y in ys.ravel()]
        assert all(type(x) is float for x in scalars)
        np.testing.assert_array_equal(inverse(0.9, ys).ravel(), scalars)

    def test_time_change_inverts(self):
        transform, _ = self.transforms()["ou"]
        ts = np.array([0.05, 0.7, 1.3, 2.5])
        for t in ts:
            assert transform.phi_inv(transform.phi(float(t))) == pytest.approx(t, rel=1e-12)
        np.testing.assert_allclose(transform.phi_inv(transform.phi(ts)), ts, rtol=1e-12, atol=0)


class TestWienerClosedForm:
    """`wiener_stt` with constants against routes that do not share its code."""

    def test_ou_equals_ou_to_bm_chain(self):
        ou = ou_model()
        transform = stt.wiener_stt(ou.spec, -OU_P["alpha"], OU_P["beta"] / OU_P["sigma"])
        chain = stt.builtin_chain("ou_to_bm", **OU_P)
        ts = np.array([0.05, 0.7, 1.3, 2.5])
        xs = np.linspace(-4.0, 4.0, 9)
        for f in ("phi", "phi_inv"):
            np.testing.assert_allclose(getattr(transform, f)(ts), getattr(chain, f)(ts),
                                       rtol=1e-13, atol=0)
        for t in ts:
            for f in ("psi", "jacobian"):
                got, want = getattr(transform, f)(t, xs), getattr(chain, f)(t, xs)
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
            ys = chain.psi(t, xs)
            got = transform.pieces[0].inverse(t, ys)
            assert np.all(np.abs(got - xs) <= 1e-13 * np.maximum(1.0, np.abs(xs)))

    def test_special_cir_equals_inverse_of_bm_chain(self):
        # psi of cir_special is the inverse of bm_to_special_cir's positive piece, whose
        # time is the Brownian one phi(t)
        alpha, sigma = 0.6, 1.1
        sc = models.make_model("cir_special", {"alpha": alpha, "sigma": sigma}, x0=0.4)
        transform = stt.wiener_stt(sc.spec, -alpha / 2.0, 0.0)
        chain = stt.builtin_chain("bm_to_special_cir", alpha=alpha, sigma=sigma)
        xs = np.array([1e-3, 0.05, 0.4, 1.0, 3.0, 12.0])
        for t in (0.4, 1.3):
            tau = transform.phi(t)
            assert chain.phi(tau) == pytest.approx(t, rel=1e-14)
            got, want = transform.psi(t, xs), chain.pieces[1].inverse(tau, xs)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("c1", [-0.8, 0.0, 0.5])
    def test_time_maps_start_at_zero(self, c1):
        transform = stt.wiener_stt(ou_model().spec, c1, 0.3)
        assert transform.phi(0.0) == 0.0 and transform.phi_inv(0.0) == 0.0
        assert stt.push_transition(ou_model(), transform).t0 == 0.0

    def test_pushed_ou_is_brownian(self):
        ou = ou_model()
        pushed = stt.push_transition(
            ou, stt.wiener_stt(ou.spec, -OU_P["alpha"], OU_P["beta"] / OU_P["sigma"]))
        bm = models.make_model("bm", x0=pushed.x0)
        for (s, t, y, x) in [(0.5, 1.2, 0.1, 0.5), (0.8, 1.6, -0.4, 0.2), (0.3, 2.0, 1.5, -2.5)]:
            assert float(pushed.kernel.pdf(s, y, t, x)) == pytest.approx(
                float(bm.kernel.pdf(s, y, t, x)), rel=1e-12)
            assert float(pushed.kernel.cdf(s, y, t, x)) == pytest.approx(
                float(bm.kernel.cdf(s, y, t, x)), rel=1e-12)

    @pytest.mark.parametrize("s, t", [(0.5, 1.2), (0.7, 1.4), (0.2, 2.0)])
    def test_pushed_ou_copula_is_gaussian(self, s, t):
        ou = ou_model()
        transform = stt.wiener_stt(ou.spec, -OU_P["alpha"], OU_P["beta"] / OU_P["sigma"])
        ps, pt = transform.phi(s), transform.phi(t)
        pushed = copula.from_transition(stt.push_transition(ou, transform), ps, pt)
        closed = copula.gaussian_closed_form(ps, pt)
        w = np.linspace(1e-6, 1.0 - 1e-6, 7)
        u, v = w[None, :], w[:, None]
        for f in ("density", "conditional"):
            got, want = getattr(pushed, f)(u, v), getattr(closed, f)(u, v)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
