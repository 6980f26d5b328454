"""Catalog model tests: kernels, marginals, stationary laws, samplers, CSV."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaincinv

from diffcop import models, special, stt
from diffcop._numerics import central_diff, rel_step
from diffcop.errors import DomainError
from diffcop.recombine import model_marginal_family, recombine

from quad_oracle import integrate
from test_special import mp_chi2nc_tail

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


def every_kernel():
    """Every catalog kernel, two pushed kernels and a recombined kernel, by label."""
    cir, ou = build("cir"), build("ou")
    chain = stt.builtin_chain("cir_to_bessel", alpha=1.0, sigma=0.8)
    return {**{name: build(name).kernel for name in CATALOG},
            "pushed_cir_to_bessel": stt.push_transition(cir, chain).kernel,
            "pushed_ou_identity": stt.push_transition(ou, stt.identity_transform()).kernel,
            "recombined_ou_to_cir": recombine(ou, model_marginal_family(cir)).kernel}


KERNELS = every_kernel()


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

    @pytest.mark.parametrize("name", ["gbm", "rbm", "cir", "cir_special", "rayleigh", "bessel"])
    def test_zero_below_the_state_space(self, name):
        k = build(name).kernel
        for fn in (k.pdf, k.cdf, k.pdf_dx):
            assert float(fn(0.5, 1.0, 1.5, -1.0)) == 0.0
            np.testing.assert_array_equal(fn(0.5, np.array([[0.3], [1.0]]), 1.5,
                                             np.array([-2.0, -1e-3])), 0.0)


class TestKernelProtocol:
    def test_every_kernel_is_a_kernel(self):
        for kernel in KERNELS.values():
            assert isinstance(kernel, models.Kernel), type(kernel).__name__

    @pytest.mark.parametrize("label", sorted(KERNELS))
    def test_limits_at_infinity(self, label):
        k = KERNELS[label]
        edges = np.array([-np.inf, np.inf])
        np.testing.assert_array_equal(k.pdf(0.5, 1.0, 1.5, edges), [0.0, 0.0])
        np.testing.assert_array_equal(k.cdf(0.5, 1.0, 1.5, edges), [0.0, 1.0])
        assert float(k.pdf(0.5, 1.0, 1.5, np.inf)) == 0.0
        assert float(k.cdf(0.5, 1.0, 1.5, -np.inf)) == 0.0
        for derivative in (k.pdf_dx, k.cdf_dt):
            if derivative is not None:
                np.testing.assert_array_equal(derivative(0.5, 1.0, 1.5, edges), [0.0, 0.0])

    @pytest.mark.parametrize("name, method", [
        (name, method) for name in CATALOG
        for method in ("pdf", "cdf", "quantile", "sample", "pdf_dx", "cdf_dt")
        if getattr(build(name).kernel, method) is not None])
    def test_every_method_checks_time_order(self, name, method):
        fn = getattr(build(name).kernel, method)
        last = np.random.default_rng(0) if method == "sample" else 0.7
        with pytest.raises(DomainError):
            fn(1.0, 0.2, 0.5, last)

    def test_marginal_calls_no_kernel_method(self):
        # marginal(t) is the kernel's law bound at (t0, x0, t), with no law beside it
        class Raising:
            def _fail(self, *args, **kwargs):
                raise AssertionError("kernel method called")
            bind = pdf = cdf = quantile = sample = pdf_dx = cdf_dt = _fail

        with pytest.raises(AssertionError):
            dataclasses.replace(build("ou"), kernel=Raising()).marginal(1.5)
        model = build("ou")
        marg, law = model.marginal(1.5), model.kernel.bind(model.t0, model.x0, 1.5)
        for name in ("pdf", "cdf", "quantile", "pdf_dx", "cdf_dt"):
            assert getattr(marg, name)(0.5) == getattr(law, name)(0.5)


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

    @pytest.mark.parametrize("y", [8.0, 20.0, 25.0, 37.0])
    @pytest.mark.parametrize("sd", [0.3, 1.0])
    def test_cdf_far_from_the_fold_matches_mpmath(self, y, sd):
        # with the mean many sd out, Phi(c + h) - Phi(c - h) cancels beyond the series cut
        # h (1 + |c|) = 0.03 as well: from just above the cut to near the mean
        k = build("rbm").kernel
        cut = 0.03 * sd / (1.0 + y)
        x = np.concatenate((cut * np.array([1.0001, 1.01, 1.3, 3.0, 30.0]),
                            sd * y * np.array([0.1, 0.5, 0.9, 0.99])))
        got = k.cdf(0.0, sd * y, sd * sd, x)
        for xi, g in zip(x, got):
            ref = float(self.mp_folded_cdf(xi, sd * y, sd * sd))
            assert ref >= 1e-307 and abs(g / ref - 1.0) <= 5e-13, (xi, g, ref)   # normal doubles

    @pytest.mark.parametrize("y", [0.0, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("p", [1e-15, 1e-12, 1e-9])
    def test_quantile_in_left_tail_matches_mpmath(self, y, p):
        k = build("rbm").kernel
        root = k.quantile(0.0, y, 1.0, p)
        assert abs(float(self.mp_folded_cdf(root, y, 1.0)) / p - 1.0) <= 1e-10


    def test_derivatives_and_edges_are_folded_bm(self):
        # pdf_dx and cdf_dt are the standard Brownian kernel's at x minus its at -x
        rbm, bm = build("rbm").kernel, models.GaussianKernel(0.0, 0.0, 1.0)
        s, y, t = 0.5, np.array([0.0, 0.4, 2.5]), 1.75
        xs = np.linspace(0.0, 6.0, 25)[:, None]
        for fn in ("pdf_dx", "cdf_dt"):
            np.testing.assert_array_equal(
                getattr(rbm, fn)(s, y, t, xs),
                getattr(bm, fn)(s, y, t, xs) - getattr(bm, fn)(s, y, t, -xs), err_msg=fn)
        below = np.array([-np.inf, -3.0, -1e-300])[:, None]
        for fn in ("pdf", "cdf", "pdf_dx", "cdf_dt"):
            np.testing.assert_array_equal(getattr(rbm, fn)(s, y, t, below), 0.0, err_msg=fn)
        np.testing.assert_array_equal(rbm.cdf(s, y, t, np.array([[-np.inf], [np.inf]])),
                                      [[0.0] * 3, [1.0] * 3])

    def test_samples_are_folded_bm(self):
        rbm, bm = build("rbm").kernel, models.GaussianKernel(0.0, 0.0, 1.0)
        y = np.array([0.0, 0.4, 2.5])
        np.testing.assert_array_equal(
            rbm.sample(0.5, y, 1.75, np.random.default_rng(12), (4, 3)),
            np.abs(bm.sample(0.5, y, 1.75, np.random.default_rng(12), (4, 3))))


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


def composed_jet(law, p):
    """The jet's oracle: quantile, then pdf, pdf_dx and cdf_dt at that state, four calls."""
    x = law.quantile(p)
    return x, law.pdf(x), law.pdf_dx(x), law.cdf_dt(x)


def decreasing_push():
    """Y = e^{-X} of bm_drift: psi(u) = e^{-u}, J = -e^{-u} = -y and dJ/du = y."""
    return models.MappedKernel(models.GaussianKernel(0.0, 0.3, 1.2), lambda t, x: np.exp(-x),
                               lambda t, y: -np.log(y), lambda t, x, y: -y, (0.0, np.inf),
                               increasing=False, djac_dx=lambda t, x, y: y, static=True)


def jet_laws():
    """Every catalog marginal at s = 0.3, 1 and 2, the stationary laws and a decreasing push."""
    laws = {}
    for name in CATALOG:
        model = build(name)
        laws.update({f"{name}@{s}": model.marginal(s) for s in (0.3, 1.0, 2.0)})
        if model.stationary is not None:
            laws[f"{name}@stationary"] = model.stationary
    laws.update({f"exp(-bm_drift)@{s}": decreasing_push().bind(0.0, 0.5, s) for s in (0.3, 2.0)})
    return laws


JET_LAWS = jet_laws()
JET_P = np.concatenate([[1e-9, 1e-6], np.linspace(0.01, 0.99, 99), [1.0 - 1e-6]])


class TestJet:
    """``Marginal.jet(p)`` against the four calls it stands for, at 1e-13 of each scale."""

    @pytest.mark.parametrize("label", sorted(JET_LAWS))
    def test_array_jet_matches_four_calls(self, label):
        law = JET_LAWS[label]
        got, want = law.jet(JET_P), composed_jet(law, JET_P)
        for name, g, w in zip(("x", "pdf", "pdf_dx", "cdf_dt"), got, want):
            assert np.shape(g) == JET_P.shape, name
            scale = np.max(np.abs(w))
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-13 * scale, err_msg=name)

    @pytest.mark.parametrize("label", sorted(JET_LAWS))
    def test_scalar_jet_matches_four_calls(self, label):
        law = JET_LAWS[label]
        rows = [law.jet(float(p)) for p in JET_P]
        assert all(isinstance(v, float) for row in rows for v in row)
        got, want = np.array(rows).T, composed_jet(law, JET_P)
        for name, g, w in zip(("x", "pdf", "pdf_dx", "cdf_dt"), got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-13 * np.max(np.abs(w)), err_msg=name)

    def test_jet_checks_p(self):
        for law in (JET_LAWS["ou@1.0"], JET_LAWS["gbm@1.0"], JET_LAWS["cir@1.0"],
                    JET_LAWS["rbm@1.0"]):
            for p in (0.0, 1.0, math.nan, np.array([0.5, 1.5])):
                with pytest.raises(DomainError):
                    law.jet(p)

    def test_time_dependent_map_has_no_time_derivative_in_its_jet(self):
        gauss = models.GaussianKernel(0.0, 0.3, 1.2)
        kern = models.MappedKernel(gauss, lambda t, x: t + x, lambda t, y: y - t,
                                   lambda t, x, y: 1.0, (-np.inf, np.inf),
                                   djac_dx=lambda t, x, y: 0.0)
        law = kern.bind(0.0, 0.5, 1.0)
        assert law.cdf_dt is None and law.jet(0.3)[3] is None
        x, f, fp, _ = law.jet(0.3)
        assert (x, f, fp) == pytest.approx(composed_jet(gauss.bind(0.0, 0.5, 1.0), 0.3)[:3]
                                           + np.array([1.0, 0.0, 0.0]), rel=1e-15)

    def test_marginals_without_pdf_dx_have_no_jet(self):
        cir = build("cir")
        chain = stt.builtin_chain("cir_to_bessel", alpha=1.0, sigma=0.8)
        assert stt.push_transition(cir, chain).marginal(1.3).jet is None
        assert stt.pushforward_marginal(build("bm"), stt.absolute_value(), 1.3).jet is None


def _normal_oracle(mean, var):
    m, v = mp.mpf(mean), mp.mpf(var)
    sd = mp.sqrt(v)
    return {"pdf": lambda x: mp.npdf(x, m, sd), "cdf": lambda x: mp.ncdf(x, m, sd),
            "quantile": lambda p: m + sd * mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1),
            "pdf_dx": lambda x: -(x - m) / v * mp.npdf(x, m, sd)}


def _gamma_oracle(shape, scale, sqrt=False):
    """Gamma(shape, scale), or the law of its square root when ``sqrt``."""
    k, th = mp.mpf(shape), mp.mpf(scale)
    pdf = lambda x: x ** (k - 1) * mp.exp(-x / th) / (mp.gamma(k) * th ** k)
    pdf_dx = lambda x: pdf(x) * ((k - 1) / x - 1 / th)
    tail = lambda x, upper: mp.gammainc(k, *((x / th, mp.inf) if upper else (0, x / th)),
                                        regularized=True)

    def quantile(p):
        # the root of the tail that holds p, from scipy's inverse as a start
        upper = p > 0.5
        target = 1 - mp.mpf(p) if upper else mp.mpf(p)
        x0 = mp.mpf(scale * gammaincinv(shape, p))
        return mp.findroot(lambda x: tail(x, upper) / target - 1,
                           (x0, x0 * (1 + mp.mpf(10) ** -6)), solver="secant",
                           tol=mp.mpf(10) ** -40)

    if not sqrt:
        return {"pdf": pdf, "cdf": lambda x: tail(x, False), "quantile": quantile,
                "pdf_dx": pdf_dx}
    return {"pdf": lambda y: 2 * y * pdf(y * y), "cdf": lambda y: tail(y * y, False),
            "quantile": lambda p: mp.sqrt(quantile(p)),
            "pdf_dx": lambda y: 2 * pdf(y * y) + 4 * y * y * pdf_dx(y * y)}


class TestStationaryLaws:
    """`Model.stationary` is the marginal at an infinite lag; oracles written out in mpmath."""

    PS = [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3, 1 - 1e-6, 1 - 1e-10]

    @pytest.mark.parametrize("name, params, x0, oracle", [
        ("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, 0.2,
         lambda: _normal_oracle(0.5, 0.81 / 2.0)),                   # Normal(b/a, s^2/2a)
        ("ou", {"alpha": 0.3, "beta": -2.0, "sigma": 1.7}, 4.0,
         lambda: _normal_oracle(-2.0 / 0.3, 1.7 ** 2 / 0.6)),
        ("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, 1.2,
         lambda: _gamma_oracle(3.125, 0.32)),                        # Gamma(g/2, s^2/2a)
        ("cir", {"alpha": 2.0, "beta": 0.0784, "sigma": 0.8}, 1.2,
         lambda: _gamma_oracle(0.245, 0.16)),                        # nu = 0.49
        ("cir_special", {"alpha": 0.6, "sigma": 1.1}, 0.4,
         lambda: _gamma_oracle(0.5, 1.21 / 1.2)),
        ("rayleigh", {"a": 2.625, "b": -0.5}, 2.7,
         lambda: _gamma_oracle(3.125, 2.0, sqrt=True)),              # sqrt Gamma(a+1/2, -1/b)
        ("rayleigh", {"a": -0.25, "b": -1.0}, 0.7,
         lambda: _gamma_oracle(0.25, 1.0, sqrt=True)),
    ])
    def test_law_against_mpmath(self, name, params, x0, oracle):
        law = models.make_model(name, params, x0=x0).stationary
        with mp.workdps(40):
            ref = oracle()
            for p in self.PS:
                x = float(ref["quantile"](p))
                assert float(law.quantile(p)) == pytest.approx(x, rel=1e-12, abs=0), p
                for fn in ("pdf", "cdf", "pdf_dx"):
                    want = float(ref[fn](mp.mpf(x)))
                    assert float(getattr(law, fn)(x)) == pytest.approx(want, rel=1e-12, abs=0), \
                        (fn, p)

    @pytest.mark.parametrize("name, params, x0", [
        ("bm", {}, 0.0), ("bm_drift", {"mu": 0.3, "sigma": 1.2}, 0.5),
        ("gbm", {"mu": 0.1, "sigma": 0.4}, 1.0), ("rbm", {}, 0.3), ("bessel", {"delta": 1.5}, 1.0),
        ("ou", {"alpha": 0.0, "beta": 0.5, "sigma": 0.9}, 0.2),
        ("ou", {"alpha": -0.5, "beta": 0.5, "sigma": 0.9}, 0.2),
        ("rayleigh", {"a": 2.625, "b": 0.0}, 2.7), ("rayleigh", {"a": 2.625, "b": 0.5}, 2.7)])
    def test_none_without_a_stationary_law(self, name, params, x0):
        assert models.make_model(name, params, x0=x0).stationary is None


class TestCirTimeDerivative:
    """The cir family's exact d cdf/dt, from dF/dlam = -f(z; nu + 2, lam), against the
    mpmath derivative of the mpmath Poisson-mixture cdf; rayleigh and bessel read it
    through their static sqrt map.  Rows reach 1e-9 into each tail."""

    PS = [1e-9, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9]

    @pytest.mark.parametrize("name, alpha, sigma, nu, y0, squared", [
        ("cir", 1.0, 0.8, 4.0 / 0.64, 1.2, False),               # nu = 4 beta / sigma^2
        ("cir_special", 0.6, 1.1, 1.0, 0.4, False),
        ("rayleigh", 1.0, 2.0, 6.25, 2.7 ** 2, True),           # the cir of Y^2: alpha = -2b,
        ("bessel", 0.0, 2.0, 4.0, 1.0, True)])                   # sigma = 2, nu = 2a + 1
    def test_cdf_dt_against_mpmath(self, name, alpha, sigma, nu, y0, squared):
        t = 1.3
        marg = build(name).marginal(t)

        def tail(x, r, upper):
            phi = r if alpha == 0.0 else -mp.expm1(-alpha * r) / alpha
            twoc = 4 / (mp.mpf(sigma) ** 2 * phi)
            return mp_chi2nc_tail(twoc * x, nu, twoc * mp.exp(-alpha * r) * y0, upper)

        with mp.workdps(30):
            for p in self.PS:
                x = float(marg.quantile(p))
                state = mp.mpf(x) ** 2 if squared else mp.mpf(x)
                upper = p > 0.5              # d/dt of the cdf is minus that of the survival
                want = (-1 if upper else 1) * mp.diff(lambda r: tail(state, r, upper), t)
                assert float(marg.cdf_dt(x)) == pytest.approx(float(want), rel=1e-12, abs=0), p


class TestOneGaussianKernel:
    """bm, bm_drift and ou at alpha = 0 are one kernel: the same numbers, bit for bit."""

    @pytest.mark.parametrize("name, params, mu, sigma", [
        ("ou", {"alpha": 0.0, "beta": -0.7, "sigma": 1.3}, -0.7, 1.3),
        ("bm", {}, 0.0, 1.0)])
    def test_equals_bm_drift(self, name, params, mu, sigma):
        k = models.make_model(name, params, x0=0.4).kernel
        ref = models.make_model("bm_drift", {"mu": mu, "sigma": sigma}, x0=0.4).kernel
        s, y, t = 0.5, np.array([-1.0, 0.4, 2.5]), 1.75
        xs = np.linspace(-4.0, 4.0, 17)[:, None]
        for fn in ("pdf", "cdf", "pdf_dx", "cdf_dt"):
            np.testing.assert_array_equal(getattr(k, fn)(s, y, t, xs),
                                          getattr(ref, fn)(s, y, t, xs), err_msg=fn)
        ps = np.array([1e-12, 0.2, 0.5, 0.9, 1 - 1e-10])[:, None]
        np.testing.assert_array_equal(k.quantile(s, y, t, ps), ref.quantile(s, y, t, ps))
        np.testing.assert_array_equal(k.sample(s, y, t, np.random.default_rng(11), (4, 3)),
                                      ref.sample(s, y, t, np.random.default_rng(11), (4, 3)))

    @pytest.mark.parametrize("alpha", [1e-4, 1e-7, 1e-10, 1.0])
    def test_ou_mean_exact_at_small_alpha(self, alpha):
        # the median is the mean y e^{-alpha d} + beta (1 - e^{-alpha d}) / alpha; written as
        # beta/alpha + (y - beta/alpha) e^{-alpha d} it missed by 2.9e-10 at alpha = 1e-7
        k = models.make_model("ou", {"alpha": alpha, "beta": 1.0, "sigma": 1.0}, x0=0.0).kernel
        a, d = mp.mpf(alpha), mp.mpf(1.25)
        for y in (0.0, 2.5, -40.0):
            exact = float(y * mp.exp(-a * d) - mp.expm1(-a * d) / a)
            assert float(k.quantile(0.5, y, 1.75, 0.5)) == pytest.approx(exact, rel=1e-14, abs=0)


class TestOneSqrtFamily:
    """bessel(delta) is rayleigh(a = delta, b = 0): the same numbers, bit for bit."""

    @pytest.mark.parametrize("delta", [0.2, 1.5, 4.0])
    def test_bessel_equals_rayleigh_at_b_zero(self, delta):
        k = models.make_model("bessel", {"delta": delta}, x0=1.3)
        ref = models.make_model("rayleigh", {"a": delta, "b": 0.0}, x0=1.3)
        s, y, t = 0.5, np.array([0.1, 1.3, 4.0]), 1.75
        xs = np.geomspace(0.01, 8.0, 17)[:, None]
        for fn in ("pdf", "cdf", "pdf_dx"):
            np.testing.assert_array_equal(getattr(k.kernel, fn)(s, y, t, xs),
                                          getattr(ref.kernel, fn)(s, y, t, xs), err_msg=fn)
        ps = np.array([1e-12, 0.2, 0.5, 0.9, 1 - 1e-10])[:, None]
        np.testing.assert_array_equal(k.kernel.quantile(s, y, t, ps),
                                      ref.kernel.quantile(s, y, t, ps))
        np.testing.assert_array_equal(
            k.kernel.sample(s, y, t, np.random.default_rng(11), (4, 3)),
            ref.kernel.sample(s, y, t, np.random.default_rng(11), (4, 3)))
        np.testing.assert_array_equal(k.spec.drift(xs, t), ref.spec.drift(xs, t))
        assert k.spec.boundaries == ref.spec.boundaries and k.stationary is ref.stationary is None


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

    def test_explosive_paths_raise_at_the_first_time_that_overflows(self):
        # ou with alpha = -1 grows by e^16 over each step of 16: its states leave double
        # precision at t = 720 (a RuntimeWarning would fail the test: see pyproject.toml)
        ou = models.make_model("ou", {"alpha": -1.0, "beta": 0.0, "sigma": 1.0}, x0=0.0)
        times = 16.0 * np.arange(1, 51)
        with pytest.raises(DomainError, match=r"not finite at t = 720:"):
            models.simulate_paths(ou, times, 100, seed=0)
        before = models.simulate_paths(ou, times[times < 720.0], 100, seed=0)
        assert np.isfinite(before.paths).all()

    def test_explosive_cir_family_draw_raises_with_its_time(self):
        # rayleigh with b = 1 grows like e^t: at t = 21.6 the noncentrality of its cir-family
        # draw passes numpy's Poisson range while the states are still finite
        rayleigh = models.make_model("rayleigh", {"a": 1.0, "b": 1.0}, x0=1.0)
        times = 30.0 * np.arange(1, 51) / 50
        with pytest.raises(DomainError, match=r"draw at t = 21.6 "):
            models.simulate_paths(rayleigh, times, 100, seed=0)
        before = models.simulate_paths(rayleigh, times[times < 21.6], 100, seed=0)
        assert np.isfinite(before.paths).all()

    @pytest.mark.parametrize("name, params", [
        ("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}),          # normal route, df = 6.25
        ("bessel", {"delta": 0.5}),                                  # mixture route
    ])
    def test_cir_family_draw_from_below_zero_raises(self, name, params):
        model = models.make_model(name, params, x0=1.0)
        kernel = model.kernel.base if name == "bessel" else model.kernel
        with pytest.raises(DomainError, match=r"starts below 0"):
            kernel.sample(0.0, np.array([1.0, -1.0]), 1.0, np.random.default_rng(0))

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

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        paths = np.array([[-0.0, 5e-324, 1e-300], [1e300, 0.1, -2.5]])
        ens = models.PathEnsemble(times=np.array([0.5, 1.0, 1.5]), paths=paths, seed=None)
        ens.to_csv(tmp_path / "paths.csv")
        expected = "# paths=2,seed=None\n" + "".join(
            f"{t:.17g}," + ",".join(f"{v:.17g}" for v in paths[:, i]) + "\n"
            for i, t in enumerate(ens.times))
        assert (tmp_path / "paths.csv").read_bytes() == expected.encode()
