"""Catalog model tests: kernels, marginals, stationary laws, samplers, CSV."""

import math

import mpmath as mp
import numpy as np
import pytest

from diffcop import models, special
from diffcop._numerics import central_diff, integrate, rel_step
from diffcop.errors import DomainError

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


def build(name):
    params, x0 = CATALOG[name]
    return models.make_model(name, params, x0=x0)


class TestCatalogValidation:
    def test_ids(self):
        assert set(models.catalog_ids()) == set(CATALOG)

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            models.make_model("heston", {}, x0=1.0)

    def test_unknown_parameter(self):
        with pytest.raises(DomainError):
            models.make_model("ou", {"alpha": 1.0, "beta": 0.0, "sigma": 1.0, "rho": 2.0},
                              x0=0.0)

    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            models.make_model("cir", {"alpha": 1.0, "beta": 1.0}, x0=1.0)

    def test_invalid_parameter(self):
        with pytest.raises(DomainError):
            models.make_model("ou", {"alpha": 1.0, "beta": 0.0, "sigma": -1.0}, x0=0.0)

    @pytest.mark.parametrize("name,x0", [("gbm", 0.0), ("cir", 0.0), ("bessel", 0.0)])
    def test_boundary_x0_rejected(self, name, x0):
        params, _ = CATALOG[name]
        with pytest.raises(DomainError):
            models.make_model(name, params, x0=x0)

    def test_rbm_may_start_at_reflecting_boundary(self):
        model = models.make_model("rbm", x0=0.0)
        assert model.marginal(1.0).cdf(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_tags(self):
        assert build("bm").spec.boundaries == ("natural", "natural")
        assert build("rbm").spec.boundaries == ("regular-reflecting", "natural")
        # beta >= sigma^2/2 -> entrance; here beta=1 > 0.32
        assert build("cir").spec.boundaries[0] == "entrance"
        low_noise = models.make_model("cir", {"alpha": 1.0, "beta": 0.1, "sigma": 0.8}, x0=0.5)
        assert low_noise.spec.boundaries[0] == "regular-reflecting"


class TestKernelBasics:
    def test_bm_heat_kernel(self):
        bm = build("bm")
        assert bm.kernel.pdf(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.39894228, abs=1e-8)

    def test_ou_stationary_standard_normal(self):
        ou = models.make_model("ou", {"alpha": 1.0, "beta": 0.0, "sigma": math.sqrt(2.0)},
                               x0=0.5)
        assert ou.stationary.quantile(0.5) == pytest.approx(0.0, abs=1e-14)
        for x in (-1.0, 0.3, 2.0):
            assert ou.stationary.cdf(x) == pytest.approx(special.norm_cdf(x), abs=1e-14)

    def test_time_ordering_enforced(self):
        bm = build("bm")
        with pytest.raises(DomainError):
            bm.kernel.pdf(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            models.sample_transition(bm, 2.0, 0.0, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_pdf_normalizes(self, name):
        model = build(name)
        lo, hi = model.interval
        y = model.x0 if model.x0 > lo else 0.5
        mass = integrate(lambda x: float(model.kernel.pdf(0.5, y, 1.5, x)), lo, hi,
                         abs_tol=1e-9, rel_tol=1e-9, points=[y])
        assert mass == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_quantile_inverts_cdf(self, name):
        model = build(name)
        y = model.x0 if model.x0 > model.interval[0] else 0.5
        ps = np.array([0.05, 0.3, 0.5, 0.8, 0.99])
        q = model.kernel.quantile(0.5, y, 1.5, ps)
        back = model.kernel.cdf(0.5, y, 1.5, q)
        assert np.max(np.abs(back - ps)) <= 1e-9

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_chapman_kolmogorov(self, name):
        model = build(name)
        lo, hi = model.interval
        s, r, t = 0.5, 1.0, 2.0
        y = model.x0 if model.x0 > lo else 0.5
        x = float(model.kernel.quantile(s, y, t, 0.65))
        direct = float(model.kernel.pdf(s, y, t, x))
        composed = integrate(
            lambda z: float(model.kernel.pdf(r, z, t, x)) * float(model.kernel.pdf(s, y, r, z)),
            lo, hi, abs_tol=1e-9, rel_tol=1e-9, points=[y, x])
        assert abs(composed - direct) <= 1e-5

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_vector_conditioning_state_matches_loop(self, name):
        # every kernel takes an array conditioning state y; copula meshes rely on it
        k = build(name).kernel
        s, t, x, p = 0.5, 1.5, 1.1, 0.35
        ys = np.array([0.3, 1.2, 2.5])
        for method, arg in (("pdf", x), ("cdf", x), ("quantile", p), ("pdf_dx", x)):
            fn = getattr(k, method)
            loop = np.array([float(fn(s, y, t, arg)) for y in ys])
            np.testing.assert_array_equal(fn(s, ys, t, arg), loop)
            np.testing.assert_array_equal(fn(s, ys, t, np.full(3, arg)), loop)


class TestBackwardEquation:
    @pytest.mark.parametrize("name", ["bm", "ou"])
    def test_kernel_solves_backward_equation(self, name):
        model = build(name)
        t, x_fix = 2.0, 0.3
        worst = 0.0
        for s in (0.4, 0.8):
            for y in (-0.5, 0.0, 0.7):
                h_s = rel_step(s, 1e-4)
                h_y = rel_step(y, 1e-4)
                f = lambda yy, ss: float(model.kernel.pdf(ss, yy, t, x_fix))
                df_ds = central_diff(lambda ss: f(y, ss), s, h_s)
                df_dy = central_diff(lambda yy: f(yy, s), y, h_y)
                d2f = (f(y + h_y, s) - 2.0 * f(y, s) + f(y - h_y, s)) / h_y ** 2
                mu = float(model.spec.drift(y, s))
                sg = float(model.spec.diffusion(y, s))
                worst = max(worst, abs(df_ds + mu * df_dy + 0.5 * sg ** 2 * d2f))
        assert worst <= 1e-3

    def test_cir_reflecting_boundary_condition(self):
        # 0 < beta < sigma^2/2: the backward sensitivity dF/dx decreases toward
        # the boundary, and the reflection condition proper holds at the
        # uniformized level, d/du C_{t|s}(v|u) -> 0 as u -> 0 (the marginal
        # density diverges at the regular boundary, so the plain x-derivative
        # levels off at a positive constant instead of vanishing)
        from diffcop import copula, uniformize
        model = models.make_model("cir", {"alpha": 1.0, "beta": 0.1, "sigma": 0.8}, x0=0.5)
        y_fix = 0.4

        def dF_dx(x):
            h = x / 2.0
            return (float(model.kernel.cdf(0.5, x + h, 1.5, y_fix))
                    - float(model.kernel.cdf(0.5, x - h, 1.5, y_fix))) / (2.0 * h)

        d_coarse, d_fine = abs(dF_dx(1e-3)), abs(dF_dx(1e-6))
        assert d_fine < d_coarse

        surf = copula.from_transition(model, 0.5, 1.5)
        du_outer = abs(float(uniformize.conditional_du(surf, 1e-2, 0.5, h=5e-3)))
        du_mid = abs(float(uniformize.conditional_du(surf, 1e-3, 0.5, h=5e-4)))
        du_inner = abs(float(uniformize.conditional_du(surf, 1e-4, 0.5, h=5e-5)))
        assert du_mid <= 1e-2
        assert du_inner < du_mid < du_outer


class TestRbmFolding:
    def test_rbm_kernel_is_folded_bm(self):
        rbm = build("rbm")
        bm = build("bm")
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            y = float(rng.uniform(0.0, 3.0))
            x = float(rng.uniform(0.0, 4.0))
            s, t = 0.5, 0.5 + float(rng.uniform(0.1, 2.0))
            folded = (float(bm.kernel.pdf(s, y, t, x))
                      + float(bm.kernel.pdf(s, y, t, -x)))
            worst = max(worst, abs(float(rbm.kernel.pdf(s, y, t, x)) - folded))
        assert worst <= 1e-14

    def test_quantile_at_probability_clamp(self):
        # far below the 1e-12 surface clamp the inversion must still return a root
        k = models.make_model("rbm", {}, x0=0.3).kernel
        quantum = np.spacing(special.norm_cdf(-0.3))
        for p in (1e-15, 1e-20):
            x = k.quantile(0.0, 0.3, 1.0, p)
            assert 0.0 < x and float(k.cdf(0.0, 0.3, 1.0, x)) == pytest.approx(p, abs=2 * quantum)

    @staticmethod
    def mp_folded_cdf(x, y, var):
        """Phi((x - y)/sd) - Phi((-x - y)/sd) in 50-digit arithmetic."""
        with mp.workdps(50):
            sd = mp.sqrt(mp.mpf(var))
            x, y = mp.mpf(x), mp.mpf(y)
            return mp.ncdf((x - y) / sd) - mp.ncdf((-x - y) / sd)

    @pytest.mark.parametrize("y", [0.0, 0.3, 1.0, 3.0, 8.0])
    @pytest.mark.parametrize("sd", [0.1, 1.0, 3.0])
    def test_cdf_near_origin_matches_mpmath(self, y, sd):
        # the difference of two normal cdfs cancels as x -> 0; the kernel must
        # stay accurate relative to the (tiny) probability all the same
        k = build("rbm").kernel
        var = sd * sd
        x = sd * np.logspace(-16.0, 1.0, 52)
        got = k.cdf(0.0, y, var, x)
        for xi, g in zip(x, got):
            ref = self.mp_folded_cdf(xi, y, var)
            if ref >= 1e-300:
                assert abs(g / float(ref) - 1.0) <= 1e-10, (xi, g, ref)
            else:                          # below the normal doubles
                assert 0.0 <= g <= 1e-290

    @pytest.mark.parametrize("y", [0.0, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("p", [1e-15, 1e-12, 1e-9])
    def test_quantile_in_left_tail_matches_mpmath(self, y, p):
        k = build("rbm").kernel
        root = k.quantile(0.0, y, 1.0, p)
        assert abs(float(self.mp_folded_cdf(root, y, 1.0)) / p - 1.0) <= 1e-10


class TestMarginals:
    def test_bm_median(self):
        bm = build("bm")
        assert bm.marginal(4.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_marginal_requires_future_time(self):
        with pytest.raises(DomainError):
            build("bm").marginal(0.0)

    def test_ou_converges_to_stationary(self):
        p = {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}
        ou = models.make_model("ou", p, x0=3.0)
        marg = ou.marginal(100.0 / p["alpha"])
        xs = np.linspace(-2.0, 3.0, 41)
        gap = np.max(np.abs(np.asarray(marg.cdf(xs)) - np.asarray(ou.stationary.cdf(xs))))
        assert gap <= 1e-6

    def test_cir_special_marginal_is_pushforward_of_reflected_bm(self):
        # X_{phi(t)} = sigma^2 R_t^2 / (4 (alpha t + 1)) with R reflected BM from r0
        alpha, sigma, x0 = 0.6, 1.1, 0.4
        model = models.make_model("cir_special", {"alpha": alpha, "sigma": sigma}, x0=x0)
        r0 = 2.0 * math.sqrt(x0) / sigma
        tau = 1.3
        t_bm = math.expm1(alpha * tau) / alpha
        marg = model.marginal(tau)
        ps = np.linspace(0.04, 0.96, 20)
        q = np.asarray(marg.quantile(ps))
        r = 2.0 * np.sqrt(q * (alpha * t_bm + 1.0)) / sigma
        folded = (special.norm_cdf((r - r0) / math.sqrt(t_bm))
                  - special.norm_cdf((-r - r0) / math.sqrt(t_bm)))
        assert np.max(np.abs(folded - ps)) <= 1e-8

    def test_analytic_marginal_derivatives(self):
        ou = build("ou")
        marg = ou.marginal(1.5)
        x = 0.4
        h = rel_step(x, 1e-6)
        fd = (float(marg.pdf(x + h)) - float(marg.pdf(x - h))) / (2.0 * h)
        assert float(marg.pdf_dx(x)) == pytest.approx(fd, rel=1e-6)
        h_t = 1e-6
        fd_t = (float(build("ou").marginal(1.5 + h_t).cdf(x))
                - float(build("ou").marginal(1.5 - h_t).cdf(x))) / (2.0 * h_t)
        assert float(marg.cdf_dt(x)) == pytest.approx(fd_t, rel=1e-5)


class TestSampling:
    def test_bm_draw_is_gaussian_increment(self):
        bm = build("bm")
        rng = np.random.default_rng(5)
        draws = models.sample_transition(bm, 0.5, 1.0, 1.5, rng, size=200_000)
        z = (draws - 1.0) / math.sqrt(1.0)
        assert abs(z.mean()) <= 3.0 / math.sqrt(draws.size)
        assert abs(z.std(ddof=1) - 1.0) <= 0.01

    def test_ou_sampler_mean(self):
        ou = build("ou")
        rng = np.random.default_rng(6)
        n = 100_000
        draws = models.sample_transition(ou, 0.5, 1.3, 1.5, rng, size=n)
        p = CATALOG["ou"][0]
        e = math.exp(-p["alpha"] * 1.0)
        mean = 1.3 * e + p["beta"] / p["alpha"] * (1.0 - e)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - mean) <= 3.0 * se

    @pytest.mark.parametrize("name", ["cir", "rayleigh", "bessel", "rbm", "gbm"])
    def test_sampler_matches_kernel_law(self, name):
        from diffcop.uniformize import ks_statistic
        model = build(name)
        y = model.x0 if model.x0 > model.interval[0] else 0.5
        rng = np.random.default_rng(8)
        draws = models.sample_transition(model, 0.5, y, 1.5, rng, size=50_000)
        ks = ks_statistic(draws, lambda x: model.kernel.cdf(0.5, y, 1.5, x))
        assert ks <= 0.01

    def test_reproducible(self):
        ou = build("ou")
        a = models.sample_transition(ou, 0.5, 0.2, 1.0, np.random.default_rng(42), size=10)
        b = models.sample_transition(ou, 0.5, 0.2, 1.0, np.random.default_rng(42), size=10)
        np.testing.assert_array_equal(a, b)


class TestPaths:
    def test_path_shapes_and_determinism(self):
        ou = build("ou")
        ens = models.simulate_paths(ou, [0.5, 1.0, 2.0], 64, seed=3)
        assert ens.paths.shape == (64, 3)
        ens2 = models.simulate_paths(ou, [0.5, 1.0, 2.0], 64, seed=3)
        np.testing.assert_array_equal(ens.paths, ens2.paths)

    def test_times_validation(self):
        ou = build("ou")
        with pytest.raises(DomainError):
            models.simulate_paths(ou, [0.0, 1.0], 4, seed=0)      # starts at t0
        with pytest.raises(DomainError):
            models.simulate_paths(ou, [1.0, 0.5], 4, seed=0)

    def test_kernels_support_large_horizons(self):
        # spec horizon: any 0 <= t0 < s < t < 1e6
        for name in ("bm", "ou", "cir", "bessel"):
            model = build(name)
            y = model.x0 if model.x0 > model.interval[0] else 0.5
            s, t = 9.9e5, 1.0e6
            q = float(model.kernel.quantile(s, y, t, 0.7))
            assert np.isfinite(q)
            assert float(model.kernel.cdf(s, y, t, q)) == pytest.approx(0.7, abs=1e-9)

    def test_csv_round_trip(self, tmp_path):
        ou = build("ou")
        ens = models.simulate_paths(ou, [0.5, 1.0], 5, seed=9)
        path = tmp_path / "paths.csv"
        ens.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "# paths=5,seed=9"
        back = models.PathEnsemble.from_csv(path)
        np.testing.assert_array_equal(back.times, ens.times)
        np.testing.assert_array_equal(back.paths, ens.paths)
        assert back.seed == 9
