"""Space-time transformation tests: pushforwards, preimage sums, Wiener condition."""

import math

import numpy as np
import pytest

from diffcop import copula, models, special, stt
from diffcop._numerics import integrate
from diffcop.errors import DomainError
from diffcop.uniformize import ks_statistic

OU_P = {"alpha": 0.8, "beta": 0.5, "sigma": 0.7}
CIR_P = {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}


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


class TestBuiltinChains:
    def test_unknown_chain(self):
        with pytest.raises(DomainError):
            stt.builtin_chain("bm_to_heston")

    def test_cir_to_rayleigh_with_sigma_two(self):
        chain = stt.builtin_chain("cir_to_rayleigh", sigma=2.0)
        xs = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(chain.psi(0.7, xs), np.sqrt(xs), rtol=1e-15)

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
            cir.spec, np.linspace(0.3, 2.5, 6), [0.5, 1.0], n=41)
        assert best > 1e-6

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
