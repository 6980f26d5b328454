"""Copula surface tests: closed forms, quotient construction, grids, CSV."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from diffcop import copula, models, special, stt
from diffcop.errors import DomainError, NumericsError

from quad_oracle import integrate

SQRT2 = math.sqrt(2.0)


def rbm_density_oracle(u, v, s, t):
    """Reflected-BM copula density straight from the joint/marginal quotient."""
    a = math.sqrt(s) * special.norm_quantile((1.0 + u) / 2.0)
    b = math.sqrt(t) * special.norm_quantile((1.0 + v) / 2.0)
    d = t - s
    trans = (special.norm_pdf((b - a) / math.sqrt(d))
             + special.norm_pdf((b + a) / math.sqrt(d))) / math.sqrt(d)
    marg = 2.0 * special.norm_pdf(b / math.sqrt(t)) / math.sqrt(t)
    return trans / marg


def _pushed_bessel(s=1.0, t=2.0):
    cir = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
    chain = stt.builtin_chain("cir_to_bessel", alpha=1.0, sigma=0.8)
    return copula.from_transition(stt.push_transition(cir, chain), s, t)


def _quadrature_conditional():
    closed = copula.gaussian_closed_form(1.0, 2.0)
    return copula.CopulaSurface(closed._density_core, None, time_pair=(1.0, 2.0),
                                provenance="closed_form")


CATALOG = {
    "bm": ({}, 0.0),
    "bm_drift": ({"mu": 0.3, "sigma": 1.2}, 0.5),
    "gbm": ({"mu": 0.1, "sigma": 0.4}, 1.0),
    "ou": ({"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, 0.2),
    "rbm": ({}, 0.3),
    "cir": ({"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, 1.2),
    "cir_special": ({"alpha": 0.6, "sigma": 1.1}, 0.4),
    "rayleigh": ({"a": 2.625, "b": -0.5}, 2.7),
    "bessel": ({"delta": 1.5}, 1.0),
}

MESH_SURFACES = {
    "gaussian": lambda: copula.gaussian_closed_form(1.0, 2.0),
    "ou": lambda: copula.ou_closed_form(0.1, 30.0, 30.5),
    "rbm": lambda: copula.rbm_closed_form(1.0, 2.0),
    "cir_x0_zero": lambda: copula.cir_closed_form(0.1, 5.0, 0.0, 2.0, 12.0),
    "cir_x0_positive": lambda: copula.cir_closed_form(0.1, 625.0, 10.0, 30.0, 30.5),
    "independence": copula.independence_surface,
    "quadrature_conditional": _quadrature_conditional,
    "push_cir_to_bessel": _pushed_bessel,
    "nonmonotone_abs_bm": lambda: stt.nonmonotone_copula(
        models.make_model("bm", x0=0.0), stt.absolute_value(), 1.0, 2.0),
    "nonmonotone_abs_bm_drift": lambda: stt.nonmonotone_copula(
        models.make_model("bm_drift", {"mu": 0.3, "sigma": 1.2}, x0=0.5), stt.absolute_value(),
        0.8, 1.5),
    **{f"from_transition_{name}":
       (lambda name=name: copula.from_transition(
           models.make_model(name, CATALOG[name][0], x0=CATALOG[name][1]), 0.8, 1.5))
       for name in CATALOG},
}
# cir closed forms like the benchmark's: alpha = 0.1, lags (s, t) of (30, 30.5) and (2, 12)
BENCHMARK_SURFACES = {
    "cir_gamma1_x0_zero": lambda: copula.cir_closed_form(0.1, 1.0, 0.0, 30.0, 30.5),
    "cir_gamma5_x0_positive": lambda: copula.cir_closed_form(0.1, 5.0, 10.0, 30.0, 30.5),
    "cir_gamma25_x0_positive": lambda: copula.cir_closed_form(0.1, 25.0, 10.0, 30.0, 30.5),
    "cir_gamma125_x0_positive": lambda: copula.cir_closed_form(0.1, 125.0, 10.0, 2.0, 12.0),
    "cir_gamma625_x0_zero": lambda: copula.cir_closed_form(0.1, 625.0, 0.0, 2.0, 12.0),
}


class TestFromTransition:
    def test_bm_center_value(self):
        bm = models.make_model("bm", x0=0.0)
        surf = copula.from_transition(bm, 1.0, 2.0)
        assert surf.density(0.5, 0.5) == pytest.approx(SQRT2, abs=1e-12)

    def test_time_ordering(self):
        bm = models.make_model("bm", x0=0.0)
        with pytest.raises(DomainError):
            copula.from_transition(bm, 2.0, 1.0)
        with pytest.raises(DomainError):
            copula.from_transition(bm, 0.0, 1.0)     # s must exceed t0

    def test_ou_independence_at_large_lag(self):
        alpha = 1.0
        ou = models.make_model("ou", {"alpha": alpha, "beta": 0.3, "sigma": 0.8}, x0=0.1)
        s = 1.0
        surf = copula.from_transition(ou, s, s + 100.0 / alpha)
        grid = np.linspace(0.2, 0.8, 7)
        worst = max(abs(float(surf.density(u, v)) - 1.0) for u in grid for v in grid)
        assert worst <= 0.01

    def test_matches_ou_closed_form(self):
        p = {"alpha": 0.7, "beta": 1.0, "sigma": 0.4}
        ou = models.make_model("ou", p, x0=0.5)
        direct = copula.from_transition(ou, 0.8, 1.5)
        closed = copula.ou_closed_form(p["alpha"], 0.8, 1.5)
        pts = np.linspace(0.1, 0.9, 5)
        worst = max(abs(float(direct.density(u, v)) - float(closed.density(u, v)))
                    for u in pts for v in pts)
        assert worst <= 1e-10

    @pytest.mark.parametrize("name", ["cir", "cir_special", "rbm", "rayleigh", "bessel",
                                      "push_cir_to_bessel"])
    def test_kernels_without_a_gaussian_copula_integrate_the_cdf(self, name):
        if name == "push_cir_to_bessel":
            model = stt.push_transition(
                models.make_model("cir", CATALOG["cir"][0], x0=CATALOG["cir"][1]),
                stt.builtin_chain("cir_to_bessel", alpha=1.0, sigma=0.8))
        else:
            model = models.make_model(name, CATALOG[name][0], x0=CATALOG[name][1])
        assert model.kernel.copula_rho is None
        assert copula.from_transition(model, 0.8, 1.5)._cdf_core is None

    def test_explosive_ou_at_a_lag_of_one_ulp_integrates_the_cdf(self):
        # rho rounds to 1 there, where the Genz core would divide by 0
        ou = models.make_model("ou", {"alpha": -3.0, "beta": 0.0, "sigma": 1.0}, x0=0.0)
        t = float(np.nextafter(50.0, np.inf))
        assert ou.kernel.copula_rho(ou.t0, 50.0, t) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surf = copula.from_transition(ou, 50.0, t)
            got = surf.cdf(0.3, 0.6)
        assert surf._cdf_core is None
        assert got == pytest.approx(0.3, rel=0.0, abs=1e-15)

    def test_domain_validation(self):
        bm = models.make_model("bm", x0=0.0)
        surf = copula.from_transition(bm, 1.0, 2.0)
        with pytest.raises(DomainError):
            surf.density(1.5, 0.5)
        with pytest.raises(DomainError):
            surf.density(0.5, -0.1)


class TestGaussianClosedForm:
    def test_center(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        assert surf.density(0.5, 0.5) == pytest.approx(SQRT2, abs=1e-14)

    def test_normalization(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        mass = integrate(lambda u: float(surf.density(u, 0.3)), 0.0, 1.0,
                         abs_tol=1e-9, rel_tol=1e-9, points=[0.3])
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_shared_by_drift_and_geometric_families(self):
        surf = copula.gaussian_closed_form(0.7, 1.9)
        wdrift = models.make_model("bm_drift", {"mu": 1.3, "sigma": 2.0}, x0=0.2)
        geo = models.make_model("gbm", {"mu": -0.2, "sigma": 0.5}, x0=1.5)
        pts = np.linspace(0.15, 0.85, 5)
        for model in (wdrift, geo):
            other = copula.from_transition(model, 0.7, 1.9)
            worst = max(abs(float(other.density(u, v)) - float(surf.density(u, v)))
                        for u in pts for v in pts)
            assert worst <= 1e-10

    def test_time_ordering(self):
        with pytest.raises(DomainError):
            copula.gaussian_closed_form(2.0, 1.0)


class TestOuClosedForm:
    def test_small_alpha_limit(self):
        lim = copula.ou_closed_form(1e-10, 1.0, 2.0)
        ref = copula.gaussian_closed_form(1.0, 2.0)
        for u in (0.2, 0.5, 0.8):
            assert float(lim.density(u, 0.6)) == pytest.approx(float(ref.density(u, 0.6)),
                                                               abs=1e-8)
        exact = copula.ou_closed_form(0.0, 1.0, 2.0)
        assert float(exact.density(0.3, 0.7)) == pytest.approx(
            float(ref.density(0.3, 0.7)), abs=1e-15)

    def test_depends_on_alpha_only(self):
        pts = np.linspace(0.2, 0.8, 4)
        surfaces = [copula.from_transition(
            models.make_model("ou", {"alpha": 0.5, "beta": be, "sigma": sg}, x0=0.1),
            0.8, 1.4)
            for (be, sg) in [(0.0, 1.0), (5.0, 0.3), (-2.0, 10.0)]]
        base = [[float(surfaces[0].density(u, v)) for v in pts] for u in pts]
        for surf in surfaces[1:]:
            worst = max(abs(float(surf.density(u, v)) - base[i][j])
                        for i, u in enumerate(pts) for j, v in enumerate(pts))
            assert worst <= 1e-12

    def test_figure_regime_shape(self):
        surf = copula.ou_closed_form(0.1, 30.0, 30.5)
        # exchangeable and spiked at the corners
        for (u, v) in [(0.2, 0.7), (0.35, 0.9), (0.6, 0.45)]:
            assert float(surf.density(u, v)) == pytest.approx(float(surf.density(v, u)),
                                                              rel=1e-12)
        assert float(surf.density(0.995, 0.995)) > float(surf.density(0.5, 0.5))
        assert float(surf.density(0.005, 0.005)) > float(surf.density(0.5, 0.5))

    @pytest.mark.parametrize("alpha", [1e-300, -1e-300, 1e-17, 1e-9, 1e-6, 0.1, 400.0])
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 0.5, 1.0])
    def test_rho_and_density_match_mpmath(self, alpha, s):
        t = 2.0 * s                  # s - t = -s exactly, so alpha (s - t) rounds once
        with mpmath.workdps(40):
            a2 = 2 * mpmath.mpf(alpha)
            rho = mpmath.sqrt(mpmath.expm1(a2 * s) / mpmath.expm1(a2 * t))
            w, zu, zv = mpmath.sqrt(1 - rho ** 2), _mp_norm_quantile(0.3), _mp_norm_quantile(0.6)
            dens = mpmath.npdf((zv - rho * zu) / w) / (w * mpmath.npdf(zv))
        got = models.GaussianKernel(alpha, 0.0, 1.0).copula_rho(0.0, s, t)
        assert got == pytest.approx(float(rho), rel=1e-14, abs=0)
        surf = copula.ou_closed_form(alpha, s, t)
        assert float(surf.density(0.3, 0.6)) == pytest.approx(float(dens), rel=1e-12, abs=0)

    def test_large_horizon_stable(self):
        surf = copula.ou_closed_form(0.1, 9.9e5, 1.0e6)
        val = float(surf.density(0.4, 0.6))
        assert np.isfinite(val) and val > 0.0


class TestRbmClosedForm:
    def test_center_value_from_oracle(self):
        surf = copula.rbm_closed_form(1.0, 2.0)
        oracle = rbm_density_oracle(0.5, 0.5, 1.0, 2.0)
        assert surf.density(0.5, 0.5) == pytest.approx(oracle, abs=1e-14)
        assert surf.density(0.5, 0.5) == pytest.approx(1.0895090906869493, abs=1e-12)

    def test_matches_quotient_oracle_on_grid(self):
        surf = copula.rbm_closed_form(0.7, 1.8)
        for u in (0.1, 0.4, 0.9):
            for v in (0.2, 0.6, 0.85):
                assert float(surf.density(u, v)) == pytest.approx(
                    rbm_density_oracle(u, v, 0.7, 1.8), abs=1e-13)

    def test_matches_nonmonotone_construction(self):
        bm = models.make_model("bm", x0=0.0)
        other = stt.nonmonotone_copula(bm, stt.absolute_value(), 1.0, 2.0)
        surf = copula.rbm_closed_form(1.0, 2.0)
        pts = np.linspace(0.1, 0.9, 5)
        worst = max(abs(float(surf.density(u, v)) - float(other.density(u, v)))
                    for u in pts for v in pts)
        assert worst <= 1e-10

    @pytest.mark.parametrize("u, v", [(0.5, 1e-12), (0.5, 1e-10), (0.3, 1e-6)])
    def test_conditional_at_small_v_matches_mpmath(self, u, v):
        # Phi^-1((1 + v)/2) rounds (1 + v)/2 to the ulp of 1/2, and the difference of the two
        # Gaussian cdfs cancels: both cost relative accuracy as v -> 0
        with mpmath.workdps(40):
            rho, h, k = mpmath.sqrt(mpmath.mpf(1) / 2), _mp_half_quantile(u), _mp_half_quantile(v)
            w = mpmath.sqrt(1 - rho ** 2)
            exact = float(mpmath.ncdf((k - rho * h) / w) - mpmath.ncdf((-k - rho * h) / w))
        got = copula.rbm_closed_form(1.0, 2.0).conditional(u, v)
        assert got == pytest.approx(exact, rel=1e-11, abs=0.0)

    def test_normalization(self):
        surf = copula.rbm_closed_form(1.0, 2.0)
        for v in (0.25, 0.7):
            mass = integrate(lambda u: float(surf.density(u, v)), 0.0, 1.0,
                             abs_tol=1e-8, rel_tol=1e-8, points=[v])
            assert abs(mass - 1.0) <= 1e-5


def _mp_ncx2_pdf(z, nu, lam):
    """The noncentral chi-square density in Bessel form (the central one at lam = 0)."""
    if lam == 0:
        return mpmath.exp((nu / 2 - 1) * mpmath.log(z / 2) - z / 2 - mpmath.loggamma(nu / 2)) / 2
    return (mpmath.exp(-(z + lam) / 2) * (z / lam) ** (nu / 4 - mpmath.mpf(1) / 2)
            * mpmath.besseli(nu / 2 - 1, mpmath.sqrt(lam * z)) / 2)


def cir_density_oracle(alpha, gamma, x0, s, t, us, vs):
    """The canonical cir kernel quotient K_d f(K_d x_v; gamma, K_d e^{-alpha d} x_u) /
    (K_t f(K_t x_v; gamma, lam_t)), K(r) = 1/(1 - e^{-alpha r}), lam_r = K(r) e^{-alpha r} x0,
    at 40 digits, read at the library's quantiles x = chi2nc_quantile(p; gamma, lam_r) / K(r)
    of the marginals at r = s and t; rows v, columns u."""
    with mpmath.workdps(40):
        alpha, gamma, x0, s, t = (mpmath.mpf(a) for a in (alpha, gamma, x0, s, t))
        K = lambda r: 1 / -mpmath.expm1(-alpha * r)
        lam = lambda r: K(r) * mpmath.exp(-alpha * r) * x0
        x = lambda p, r: special.chi2nc_quantile(p, float(gamma), float(lam(r))) / K(r)
        xs, xt = [x(u, s) for u in us], [x(v, t) for v in vs]
        kd, decay = K(t - s), mpmath.exp(-alpha * (t - s))
        return np.array([[float(kd * _mp_ncx2_pdf(kd * xv, gamma, kd * decay * xu)
                                / (K(t) * _mp_ncx2_pdf(K(t) * xv, gamma, lam(t))))
                          for xu in xs] for xv in xt])


class TestCirClosedForm:
    @pytest.mark.parametrize("make", [*BENCHMARK_SURFACES.values(),
                                      lambda: copula.cir_closed_form(0.1, 625.0, 10.0, 30.0, 30.5)],
                             ids=[*BENCHMARK_SURFACES, "cir_gamma625_x0_positive"])
    def test_density_matches_mpmath(self, make):
        surf = make()
        p = surf.params
        cells = np.linspace(0.01, 0.99, 5)
        exact = cir_density_oracle(p["alpha"], p["gamma"], p["x0"], *surf.time_pair, cells, cells)
        np.testing.assert_allclose(surf.density(cells[None, :], cells[:, None]), exact,
                                   rtol=1e-12, atol=0.0)

    def test_gamma_one_is_time_changed_rbm(self):
        alpha = 0.1
        surf = copula.cir_closed_form(alpha, 1.0, 0.0, 30.0, 30.5)
        phi_inv = lambda tau: math.expm1(alpha * tau) / alpha
        ref = copula.rbm_closed_form(phi_inv(30.0), phi_inv(30.5))
        pts = np.linspace(0.1, 0.9, 5)
        worst = max(abs(float(surf.density(u, v)) - float(ref.density(u, v)))
                    for u in pts for v in pts)
        assert worst <= 1e-8

    def test_matches_from_transition_in_canonical_units(self):
        # the closed form lives in canonical units (sigma = 2 sqrt(alpha)); the state map
        # y = 4 alpha x / sigma^2, increasing, takes cir(alpha, gamma sigma^2 / 4, sigma)
        # from x0 sigma^2 / (4 alpha) there, so the copulas agree in any other units
        alpha, gamma, x0 = 0.6, 4.0, 0.9
        closed = copula.cir_closed_form(alpha, gamma, x0, 0.8, 1.5)
        assert closed.provenance == "closed_form"
        assert closed.params == {"family": "cir", "alpha": alpha, "gamma": gamma, "x0": x0}
        pts = np.linspace(0.15, 0.85, 5)
        u, v = pts[None, :], pts[:, None]
        for sigma in (0.3, 1.0, 5.0):
            model = models.make_model(
                "cir", {"alpha": alpha, "beta": gamma * sigma ** 2 / 4.0, "sigma": sigma},
                x0=x0 * sigma ** 2 / (4.0 * alpha))
            direct = copula.from_transition(model, 0.8, 1.5)
            for read in ("density", "conditional"):
                np.testing.assert_allclose(getattr(closed, read)(u, v), getattr(direct, read)(u, v),
                                           rtol=1e-12, atol=0.0)

    def test_beta_sigma_sweep_at_fixed_gamma(self):
        alpha, gamma = 0.6, 4.0
        pts = np.linspace(0.2, 0.8, 4)
        base = None
        for sg in (1.0, 0.3, 5.0):
            model = models.make_model(
                "cir", {"alpha": alpha, "beta": gamma * sg ** 2 / 4.0, "sigma": sg},
                x0=0.9 * sg ** 2)
            surf = copula.from_transition(model, 0.8, 1.5)
            vals = np.array([[float(surf.density(u, v)) for v in pts] for u in pts])
            if base is None:
                base = vals
            else:
                assert np.max(np.abs(vals - base)) <= 1e-8

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            copula.cir_closed_form(-0.1, 4.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            copula.cir_closed_form(0.1, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            copula.cir_closed_form(0.1, 4.0, -1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            copula.cir_closed_form(0.1, 4.0, 1.0, 2.0, 1.0)


class TestConditionalCdfGrid:
    def test_conditional_saturates(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        for u in (0.2, 0.5, 0.9):
            assert float(surf.conditional(u, 1.0)) == pytest.approx(1.0, abs=1e-9)
            assert float(surf.conditional(u, 0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_conditional_is_integral_of_density(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        u, v = 0.35, 0.6
        by_quad = integrate(lambda z: float(surf.density(u, z)), 0.0, v,
                            abs_tol=1e-10, rel_tol=1e-9, points=[u])
        assert float(surf.conditional(u, v)) == pytest.approx(by_quad, abs=1e-8)

    def test_conditional_quad_fallback(self):
        closed = copula.gaussian_closed_form(1.0, 2.0)
        bare = copula.CopulaSurface(closed._density_core, None, time_pair=(1.0, 2.0),
                                    provenance="closed_form")
        assert float(bare.conditional(0.4, 0.7)) == pytest.approx(
            float(closed.conditional(0.4, 0.7)), abs=1e-7)

    def test_cdf_boundary_conditions(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        for w in (0.3, 0.8):
            assert float(surf.cdf(w, 1.0)) == pytest.approx(w, abs=1e-6)
            assert float(surf.cdf(1.0, w)) == pytest.approx(w, abs=1e-6)
            assert float(surf.cdf(w, 0.0)) == pytest.approx(0.0, abs=1e-9)
            assert float(surf.cdf(0.0, w)) == pytest.approx(0.0, abs=1e-9)

    def test_partial_u_of_cdf_equals_conditional(self):
        for surf in (copula.gaussian_closed_form(1.0, 2.0),
                     copula.cir_closed_form(0.6, 4.0, 0.9, 0.8, 1.5)):
            h = 1e-4
            for (u, v) in [(0.3, 0.6), (0.7, 0.4)]:
                fd = (float(surf.cdf(u + h, v)) - float(surf.cdf(u - h, v))) / (2.0 * h)
                assert fd == pytest.approx(float(surf.conditional(u, v)), abs=1e-3)

    @pytest.mark.parametrize("make", [
        lambda: copula.gaussian_closed_form(1.0, 1.0001),
        lambda: copula.cir_closed_form(0.6, 6.25, 0.9, 1.0, 1.0001),
    ])
    def test_short_lag_conditional_is_a_step(self, make):
        surf = make()
        for u in (0.3, 0.5, 0.7):
            assert float(surf.conditional(u, u - 0.05)) <= 0.01
            assert float(surf.conditional(u, u + 0.05)) >= 0.99

    def test_grid_eval_midpoints(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        grid = copula.grid_eval(surf, 3)
        assert grid.shape == (3, 3)
        assert grid[1, 1] == float(surf.density(0.5, 0.5))
        # u varies along columns
        assert grid[1, 0] == float(surf.density(1.0 / 6.0, 0.5))

    def test_grid_eval_validates_n(self):
        with pytest.raises(DomainError):
            copula.grid_eval(copula.gaussian_closed_form(1.0, 2.0), 1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_grid_eval_needs_an_integer_size(self, n):
        with pytest.raises(DomainError):
            copula.grid_eval(copula.gaussian_closed_form(1.0, 2.0), n)

    @pytest.mark.parametrize("m", [0, -1, 1.5, 2.0])
    def test_cell_masses_needs_an_integer_size(self, m):
        with pytest.raises(DomainError):
            copula.cell_masses(copula.gaussian_closed_form(1.0, 2.0), m)

    def test_cell_masses_of_one_cell(self):
        masses = copula.cell_masses(copula.gaussian_closed_form(1.0, 2.0), 1)
        assert masses.shape == (1, 1) and masses[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_csv_round_trip(self, tmp_path):
        surf = copula.ou_closed_form(0.1, 30.0, 30.5)
        path = tmp_path / "grid.csv"
        matrix = copula.write_grid_csv(surf, 5, path)
        header = path.read_text().splitlines()[0]
        assert header == "# copula,time_change,s=30,t=30.5,n=5"
        back, meta = copula.read_grid_csv(path)
        np.testing.assert_array_equal(back, matrix)
        assert meta == {"provenance": "time_change", "s": 30.0, "t": 30.5, "n": 5}

    def test_cdf_on_grid_matches_pointwise(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        us = np.array([0.25, 0.5, 0.9])
        vs = np.array([0.3, 0.7])
        grid = copula.cdf_on_grid(surf, us, vs)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert grid[i, j] == pytest.approx(float(surf.cdf(u, v)), abs=1e-7)

    def test_independence_surface(self):
        surf = copula.independence_surface()
        assert float(surf.density(0.3, 0.9)) == 1.0
        assert float(surf.conditional(0.3, 0.9)) == 0.9

    @pytest.mark.parametrize("name", sorted(MESH_SURFACES))
    def test_grid_eval_matches_pointwise(self, name):
        # cores take broadcast (u, v) arrays: the mesh solves each quantile once,
        # and must agree with one scalar call per cell
        surf = MESH_SURFACES[name]()
        n = 5
        mids = (np.arange(n) + 0.5) / n
        grid = copula.grid_eval(surf, n)
        cond = surf.conditional(mids[None, :], mids[:, None])
        assert grid.shape == cond.shape == (n, n)
        for i, v in enumerate(mids):
            for j, u in enumerate(mids):
                assert grid[i, j] == pytest.approx(surf.density(u, v), rel=1e-14, abs=0.0)
                assert cond[i, j] == pytest.approx(surf.conditional(u, v), rel=1e-14, abs=0.0)
        assert isinstance(surf.density(0.3, 0.6), float)

    @pytest.mark.parametrize("name, n", [
        ("cir_gamma1_x0_zero", 101), ("cir_gamma5_x0_positive", 51),
        ("cir_gamma25_x0_positive", 101), ("cir_gamma125_x0_positive", 51),
        ("cir_gamma625_x0_zero", 51), ("from_transition_cir", 51),
        ("from_transition_rayleigh", 51), ("from_transition_bessel", 51),
        ("push_cir_to_bessel", 51)])
    def test_benchmark_sized_grid_matches_pointwise(self, name, n):
        # the chi-square numerators of these grids take the mesh route of `special._chi2nc_pdf`
        # (K up to about 600 terms), and a scalar call is a 1 x 1 grid: each cell is on
        # the same route either way, so the two differ only in the order of the K-term
        # sum, as in the 5 x 5 grids above
        surf = {**MESH_SURFACES, **BENCHMARK_SURFACES}[name]()
        mids = (np.arange(n) + 0.5) / n
        grid = copula.grid_eval(surf, n)
        cells = np.linspace(0, n - 1, 9).astype(int)
        alone = [[surf.density(mids[j], mids[i]) for j in cells] for i in cells]
        np.testing.assert_allclose(grid[np.ix_(cells, cells)], alone, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# Copula CDF by Gauss-Legendre rounds
# ---------------------------------------------------------------------------

CORNERS = np.array([0.02, 0.5, 0.98])


def _mp_norm_quantile(p):
    return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


def _mp_half_quantile(p):
    """|Z|'s quantile sqrt(2) erfinv(p)."""
    return mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(p))


def _mp_breaks(lo, hi, drops, halfwidth):
    """[lo, ..., hi] with each drop and drop +- halfwidth that falls inside."""
    inner = {x for d in drops for x in (d - halfwidth, d, d + halfwidth) if lo < x < hi}
    return [lo, *sorted(inner), hi]


def _mp_gaussian_cdf(rho, u, v):
    """C(u, v) = int_{-inf}^{Phi^-1(u)} phi(x) Phi((Phi^-1(v) - rho x)/w) dx.

    The integrand drops from phi(x) to 0 within a few w/rho of x = Phi^-1(v)/rho;
    at short lags that step is too narrow for mpmath to find unaided, so the
    interval is split at it and 20 w/rho either side.
    """
    w, b = mpmath.sqrt(1 - rho ** 2), _mp_norm_quantile(v)
    return mpmath.quad(lambda x: mpmath.npdf(x) * mpmath.ncdf((b - rho * x) / w),
                       _mp_breaks(-mpmath.inf, _mp_norm_quantile(u), [b / rho], 20 * w / rho))


def _mp_rbm_cdf(rho, u, v):
    """P(|Z1| <= h, |Z2| <= k) with h, k the half-normal quantiles of u, v; split as above."""
    w = mpmath.sqrt(1 - rho ** 2)
    h, k = _mp_norm_quantile((1 + mpmath.mpf(u)) / 2), _mp_norm_quantile((1 + mpmath.mpf(v)) / 2)
    return mpmath.quad(lambda x: mpmath.npdf(x) * (mpmath.ncdf((k - rho * x) / w)
                                                   - mpmath.ncdf((-k - rho * x) / w)),
                       _mp_breaks(-h, h, [-k / rho, 0, k / rho], 20 * w / rho))


# points on the edges of the square, where C(1, v) = v, and beside them
EDGE_POINTS = ((1.0, 0.003), (0.5, 0.003))


@pytest.mark.parametrize("family,s,t", [("gaussian", 1.0, 2.0), ("gaussian", 1.0, 20.0),
                                        ("gaussian", 1.0, 1.05), ("rbm", 1.0, 2.0),
                                        ("rbm", 1.0, 20.0), ("gaussian", 1.0, 1.01),
                                        ("gaussian", 1.0, 1.0001), ("rbm", 1.0, 1.01),
                                        ("rbm", 1.0, 1.0001)])
def test_cdf_matches_mpmath_at_corners(family, s, t):
    surf = (copula.gaussian_closed_form if family == "gaussian" else copula.rbm_closed_form)(s, t)
    oracle = _mp_gaussian_cdf if family == "gaussian" else _mp_rbm_cdf
    with mpmath.workdps(30):
        rho = mpmath.sqrt(mpmath.mpf(s) / t)
        exact = np.array([[float(oracle(rho, u, v)) for v in CORNERS] for u in CORNERS])
        edges = np.array([float(oracle(rho, u, v)) for u, v in EDGE_POINTS])
    assert np.all(exact >= 1e-12)
    for got in (copula.cdf_on_grid(surf, CORNERS, CORNERS),
                surf.cdf(CORNERS[:, None], CORNERS[None, :])):
        np.testing.assert_allclose(got, exact, rtol=1e-8, atol=0.0)
    us, vs = np.array(EDGE_POINTS).T
    np.testing.assert_allclose(surf.cdf(us, vs), edges, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(copula.cdf_on_grid(surf, us[::-1], vs[:1])[::-1, 0], edges,
                               rtol=1e-8, atol=0.0)


FAR_CORNERS = np.array([1e-12, 1e-6])
_OU = models.make_model("ou", CATALOG["ou"][0], x0=CATALOG["ou"][1])
_GBM = models.make_model("gbm", CATALOG["gbm"][0], x0=CATALOG["gbm"][1])
_CIR = models.make_model("cir", CATALOG["cir"][0], x0=CATALOG["cir"][1])
_BM = models.make_model("bm", x0=0.0)


def _far_corner_surface(family, lag):
    """(surface at (1, 1 + lag), its mpmath rho); the ou models have alpha = 1, a clock of
    2 alpha from t0 = 0 or 0.4."""
    with mpmath.workdps(30):
        bm_rho = mpmath.sqrt(1 / (1 + mpmath.mpf(lag)))
        ou_rho, ou_t0_rho = (mpmath.sqrt(mpmath.expm1(2 * d) / mpmath.expm1(2 * (d + lag)))
                             for d in (mpmath.mpf(1), 1 - mpmath.mpf(0.4)))
    if family == "from_transition_ou":
        return copula.from_transition(_OU, 1.0, 1.0 + lag), ou_rho
    if family == "from_transition_ou_t0":
        ou = models.make_model("ou", CATALOG["ou"][0], x0=CATALOG["ou"][1], t0=0.4)
        return copula.from_transition(ou, 1.0, 1.0 + lag), ou_t0_rho
    if family == "from_transition_gbm":
        return copula.from_transition(_GBM, 1.0, 1.0 + lag), bm_rho
    closed = copula.gaussian_closed_form if family == "gaussian" else copula.rbm_closed_form
    return closed(1.0, 1.0 + lag), bm_rho


@pytest.mark.parametrize("family,lag", [("gaussian", 1.0), ("gaussian", 1e-4), ("rbm", 1.0),
                                        ("from_transition_ou", 1.0),
                                        ("from_transition_ou", 1e-4),
                                        ("from_transition_ou_t0", 1.0),
                                        ("from_transition_gbm", 1.0),
                                        ("from_transition_gbm", 1e-4)])
def test_closed_form_cdf_matches_mpmath_in_far_corners(family, lag):
    # the CDF cores sum positive terms, so they stay relative where C is 1e-24 to 1e-6; rbm
    # has its core only below rho = 0.925 (a lag of 0.17 at s = 1)
    surf, rho = _far_corner_surface(family, lag)
    assert surf._cdf_core is not None
    oracle = _mp_rbm_cdf if family == "rbm" else _mp_gaussian_cdf
    with mpmath.workdps(30):
        exact = np.array([[float(oracle(rho, u, v)) for v in FAR_CORNERS] for u in FAR_CORNERS])
    got = copula.cdf_on_grid(surf, FAR_CORNERS, FAR_CORNERS)
    np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("t", [1.05, 1.0001])
def test_integrated_cdf_obeys_the_frechet_bounds(t):
    # rbm above rho = 0.925 has no CDF core: its integrated CDF, pointwise and as strip sums,
    # is clipped to max(u + v - 1, 0) <= C <= min(u, v) like a core's
    surf = copula.rbm_closed_form(1.0, t)
    assert surf._cdf_core is None
    w = np.arange(33) / 32.0
    for got, u in ((surf.cdf(w[:, None], w), w), (copula.cdf_on_grid(surf, w[1:], w), w[1:])):
        u, v = u[:, None], w[None, :]
        assert np.all(np.maximum(u + v - 1.0, 0.0) <= got) and np.all(got <= np.minimum(u, v))


MARGIN_SURFACES = {
    "gaussian": copula.gaussian_closed_form,
    "ou": lambda s, t: copula.ou_closed_form(0.5, s, t),
    "rbm": copula.rbm_closed_form,
    "cir": lambda s, t: copula.cir_closed_form(0.6, 6.25, 0.9, s, t),
    "from_transition_ou": lambda s, t: copula.from_transition(_OU, s, t),
    "from_transition_cir": lambda s, t: copula.from_transition(_CIR, s, t),
    "nonmonotone_abs_bm": lambda s, t: stt.nonmonotone_copula(_BM, stt.absolute_value(), s, t),
}
MARGIN_POINTS = np.array([0.003, 0.3, 0.97])


@pytest.mark.parametrize("lag", [1e-4, 1e-2, 1.0, 99.0])
@pytest.mark.parametrize("name", sorted(MARGIN_SURFACES))
def test_cdf_has_uniform_margins(name, lag):
    # C(1, v) = v and C(u, 1) = u; at short lags C(v|w) steps from 1 to 0 in a
    # narrow band around w = v, which a rule in w can miss altogether
    surf = MARGIN_SURFACES[name](1.0, 1.0 + lag)
    p = MARGIN_POINTS
    np.testing.assert_allclose(surf.cdf(1.0, p), p, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(surf.cdf(p, 1.0), p, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("name", ["gaussian", "ou", "from_transition_ou"])
def test_cdf_on_grid_takes_few_rounds(name, monkeypatch):
    # each quadrature round is one call of the conditional at the nodes; integrands in probit
    # coordinates converge in a few rounds where w-space rules bisect toward w = 0 for a
    # dozen or more.  Each surface is rebuilt without its CDF core, which needs no rounds
    surf = MESH_SURFACES[name]()
    surf = copula.CopulaSurface(surf._density_core, surf._conditional_core,
                                time_pair=surf.time_pair, provenance=surf.provenance)
    conditional, calls = surf._conditional, []

    def counted(u, v):
        calls.append(np.shape(u))
        return conditional(u, v)

    monkeypatch.setattr(surf, "_conditional", counted)
    copula.cdf_on_grid(surf, CORNERS, CORNERS)
    assert 1 <= len(calls) <= 4


@pytest.mark.parametrize("lag", [1.0, 1e-2, 1e-4])
def test_conditional_fallback_matches_closed_form(lag):
    closed = copula.gaussian_closed_form(1.0, 1.0 + lag)
    bare = copula.CopulaSurface(closed._density_core, None, time_pair=closed.time_pair,
                                provenance="closed_form")
    us, vs = np.array([0.02, 0.4, 0.98])[:, None], np.array([0.02, 0.4, 0.7, 0.98])[None, :]
    exact = closed.conditional(us, vs)
    got = bare.conditional(us, vs)
    seen = exact >= 1e-6
    assert seen.sum() >= 6
    np.testing.assert_allclose(got[seen], exact[seen], rtol=1e-10, atol=0.0)


BATCH_US, BATCH_VS = np.array([0.02, 0.5, 0.98]), np.array([0.02, 0.25, 0.75, 0.98])


@pytest.mark.parametrize("name", ["gaussian", "rbm", "from_transition_ou", "from_transition_cir",
                                  "nonmonotone_abs_bm"])
def test_cdf_is_independent_of_the_batch(name):
    # every value owns its panels, so the points sharing a call change nothing.  The cir
    # marginal quantiles take the fixed-law table from 201 points a call
    # (`special._FIXED_LAW_MIN_SIZE`), so there the batch picks their route, and the values
    # agree to round-off, as a cir grid and its cells do
    rtol = 1e-14 if name == "from_transition_cir" else 0.0
    surf = MESH_SURFACES[name]()
    us, vs = BATCH_US, BATCH_VS
    grid = copula.cdf_on_grid(surf, us, vs)
    for j in range(vs.size):
        np.testing.assert_allclose(grid[:, j], copula.cdf_on_grid(surf, us, vs[j:j + 1])[:, 0],
                                   rtol=rtol, atol=0.0)
    mesh = surf.cdf(us[:, None], vs[None, :])
    assert mesh[1, 2] == pytest.approx(surf.cdf(us[1], vs[2]), rel=rtol, abs=0.0)
    assert mesh[2, 0] == pytest.approx(surf.cdf(us[2], vs[0]), rel=rtol, abs=0.0)


def test_conditional_fallback_is_independent_of_the_batch():
    surf = _quadrature_conditional()
    mesh = surf.conditional(BATCH_US[:, None], BATCH_VS[None, :])
    for i, u in enumerate(BATCH_US):
        for j, v in enumerate(BATCH_VS):
            assert mesh[i, j] == surf.conditional(u, v)


def _bad_surface(conditional_core=None, density_core=None):
    ones = lambda u, v: np.ones(np.broadcast(u, v).shape)
    return copula.CopulaSurface(density_core or ones, conditional_core,
                                time_pair=(1.0, 2.0), provenance="closed_form")


@pytest.mark.parametrize("core", [
    lambda u, v: np.full(np.broadcast(u, v).shape, np.nan),
    lambda u, v: np.random.default_rng(1).random(np.broadcast(u, v).shape),
    lambda u, v: (np.abs(u - 0.3) + 1e-300) ** -0.5 + 0.0 * v,   # beyond any bisection depth
], ids=["nan", "noise", "singular"])
def test_cdf_fails_loudly_on_a_broken_conditional(core):
    surf = _bad_surface(conditional_core=core)
    with pytest.raises(NumericsError):
        surf.cdf(0.7, 0.5)
    with pytest.raises(NumericsError):
        copula.cdf_on_grid(surf, [0.5, 1.0], [0.4])


def test_conditional_fallback_fails_loudly_on_a_nan_density():
    surf = _bad_surface(density_core=lambda u, v: np.full(np.broadcast(u, v).shape, np.nan))
    with pytest.raises(NumericsError):
        surf.conditional(0.4, 0.7)


# The Markov copula identity (Darsow, Nguyen & Olsen, Illinois J. Math. 36, 1992):
# C_{s,t} = C_{s,r} * C_{r,t}, for densities c_{s,t}(u, v) = int_0^1 c_{s,r}(u, w) c_{r,t}(w, v) dw.
# Each constructor maps a time pair (s, t) to its surface.
def _from_catalog(name):
    model = models.make_model(name, CATALOG[name][0], x0=CATALOG[name][1])
    return lambda s, t: copula.from_transition(model, s, t)


MARKOV_SURFACES = {
    "gaussian": copula.gaussian_closed_form,
    "ou_mean_reverting": lambda s, t: copula.ou_closed_form(0.7, s, t),
    "ou_explosive": lambda s, t: copula.ou_closed_form(-0.4, s, t),
    "rbm": copula.rbm_closed_form,
    "cir_gamma6.25": lambda s, t: copula.cir_closed_form(1.0, 6.25, 0.9, s, t),
    "cir_gamma1_x0_zero": lambda s, t: copula.cir_closed_form(1.0, 1.0, 0.0, s, t),
    **{f"from_transition_{name}": _from_catalog(name)
       for name in ("cir", "rayleigh", "gbm", "rbm")},
    "nonmonotone_abs_bm": lambda s, t: stt.nonmonotone_copula(
        models.make_model("bm", x0=0.0), stt.absolute_value(), s, t),
    "push_cir_to_bessel": _pushed_bessel,
}
MARKOV_TIMES = (1.0, 1.5, 2.5)                 # s < r < t
MARKOV_POINTS = ((0.3, 0.6), (0.05, 0.9), (0.9, 0.2), (1e-4, 1e-3), (0.999, 0.995))


def _composed_density(first, second, u, v):
    """int_0^1 c1(u, w) c2(w, v) dw through the density cores: the public `density` clamps
    its arguments at 1e-12, which the quadrature nodes pass below."""
    c1, c2 = first._density_core, second._density_core
    return float(copula._unit_integral(lambda w, _: c1(u, w) * c2(w, v), 0.0, 1.0, u))


@pytest.mark.parametrize("name", MARKOV_SURFACES)
def test_markov_identity_composes_time_pairs(name):
    make, (s, r, t) = MARKOV_SURFACES[name], MARKOV_TIMES
    first, second, direct = make(s, r), make(r, t), make(s, t)
    for u, v in MARKOV_POINTS:
        want = float(direct._density_core(np.array(u), np.array(v)))
        got = _composed_density(first, second, np.array(u), np.array(v))
        assert got == pytest.approx(want, rel=1e-9, abs=0), (u, v)


def test_markov_identity_rejects_independence_composed_with_ou():
    # at (1e-4, 1e-3) the ou density is 15.5; independence composed with ou integrates a
    # copula density over its first argument and reads 1
    s, r, t = MARKOV_TIMES
    u, v = np.array(1e-4), np.array(1e-3)
    want = float(copula.ou_closed_form(0.7, s, t)._density_core(u, v))
    got = _composed_density(copula.independence_surface((s, r)),
                            copula.ou_closed_form(0.7, r, t), u, v)
    assert want == pytest.approx(15.5, rel=0.01)
    assert got == pytest.approx(1.0, rel=1e-9, abs=0)
