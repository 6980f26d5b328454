"""Copula surface tests: closed forms, quotient construction, grids, CSV."""

import math

import mpmath
import numpy as np
import pytest

from diffcop import copula, models, special, stt
from diffcop._numerics import integrate
from diffcop.errors import DomainError, NumericsError

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


def _pushed_bessel():
    cir = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
    chain = stt.builtin_chain("cir_to_bessel", alpha=1.0, sigma=0.8)
    return copula.from_transition(stt.push_transition(cir, chain), 1.0, 2.0)


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
    **{f"from_transition_{name}":
       (lambda name=name: copula.from_transition(
           models.make_model(name, CATALOG[name][0], x0=CATALOG[name][1]), 0.8, 1.5))
       for name in CATALOG},
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

    def test_normalization(self):
        surf = copula.rbm_closed_form(1.0, 2.0)
        for v in (0.25, 0.7):
            mass = integrate(lambda u: float(surf.density(u, v)), 0.0, 1.0,
                             abs_tol=1e-8, rel_tol=1e-8, points=[v])
            assert abs(mass - 1.0) <= 1e-5


class TestCirClosedForm:
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
        alpha, gamma, x0 = 0.6, 4.0, 0.9
        sigma_c = 2.0 * math.sqrt(alpha)
        model = models.make_model(
            "cir", {"alpha": alpha, "beta": gamma * alpha, "sigma": sigma_c}, x0=x0)
        direct = copula.from_transition(model, 0.8, 1.5)
        closed = copula.cir_closed_form(alpha, gamma, x0, 0.8, 1.5)
        pts = np.linspace(0.15, 0.85, 5)
        worst = max(abs(float(direct.density(u, v)) - float(closed.density(u, v)))
                    for u in pts for v in pts)
        assert worst <= 1e-8

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

    def test_module_level_wrappers(self):
        surf = copula.gaussian_closed_form(1.0, 2.0)
        assert copula.conditional(surf, 0.4, 0.7) == surf.conditional(0.4, 0.7)
        assert copula.cdf(surf, 0.4, 0.7) == surf.cdf(0.4, 0.7)

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


# ---------------------------------------------------------------------------
# Copula CDF by Gauss-Legendre rounds
# ---------------------------------------------------------------------------

CORNERS = np.array([0.02, 0.5, 0.98])


def _mp_norm_quantile(p):
    return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


def _mp_gaussian_cdf(rho, u, v):
    """C(u, v) = int_{-inf}^{Phi^-1(u)} phi(x) Phi((Phi^-1(v) - rho x)/w) dx."""
    w, b = mpmath.sqrt(1 - rho ** 2), _mp_norm_quantile(v)
    return mpmath.quad(lambda x: mpmath.npdf(x) * mpmath.ncdf((b - rho * x) / w),
                       [-mpmath.inf, _mp_norm_quantile(u)])


def _mp_rbm_cdf(rho, u, v):
    """P(|Z1| <= h, |Z2| <= k) with h, k the half-normal quantiles of u, v."""
    w = mpmath.sqrt(1 - rho ** 2)
    h, k = _mp_norm_quantile((1 + mpmath.mpf(u)) / 2), _mp_norm_quantile((1 + mpmath.mpf(v)) / 2)
    return mpmath.quad(lambda x: mpmath.npdf(x) * (mpmath.ncdf((k - rho * x) / w)
                                                   - mpmath.ncdf((-k - rho * x) / w)),
                       [-h, 0, h])


@pytest.mark.parametrize("family,s,t", [("gaussian", 1.0, 2.0), ("gaussian", 1.0, 20.0),
                                        ("gaussian", 1.0, 1.05), ("rbm", 1.0, 2.0),
                                        ("rbm", 1.0, 20.0)])
def test_cdf_matches_mpmath_at_corners(family, s, t):
    surf = (copula.gaussian_closed_form if family == "gaussian" else copula.rbm_closed_form)(s, t)
    oracle = _mp_gaussian_cdf if family == "gaussian" else _mp_rbm_cdf
    with mpmath.workdps(30):
        exact = np.array([[float(oracle(mpmath.sqrt(mpmath.mpf(s) / t), u, v)) for v in CORNERS]
                          for u in CORNERS])
    assert np.all(exact >= 1e-12)
    for got in (copula.cdf_on_grid(surf, CORNERS, CORNERS),
                surf.cdf(CORNERS[:, None], CORNERS[None, :])):
        np.testing.assert_allclose(got, exact, rtol=1e-8, atol=0.0)


BATCH_US, BATCH_VS = np.array([0.02, 0.5, 0.98]), np.array([0.02, 0.25, 0.75, 0.98])


@pytest.mark.parametrize("name", ["gaussian", "rbm", "from_transition_ou", "nonmonotone_abs_bm"])
def test_cdf_is_independent_of_the_batch(name):
    # every value owns its panels, so the points sharing a call change nothing
    surf = MESH_SURFACES[name]()
    us, vs = BATCH_US, BATCH_VS
    grid = copula.cdf_on_grid(surf, us, vs)
    for j in range(vs.size):
        np.testing.assert_array_equal(grid[:, j], copula.cdf_on_grid(surf, us, vs[j:j + 1])[:, 0])
    mesh = surf.cdf(us[:, None], vs[None, :])
    assert mesh[1, 2] == surf.cdf(us[1], vs[2])
    assert mesh[2, 0] == surf.cdf(us[2], vs[0])


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
