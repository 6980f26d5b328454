"""Uniformized process tests: coefficients, backward equation, exact simulation."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from diffcop import copula, models, special, uniformize
from diffcop.errors import DomainError

STANDARD_OU = {"alpha": 1.0, "beta": 0.0, "sigma": math.sqrt(2.0)}

ALL_MODELS = {
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


STATIONARY = sorted(name for name, (params, x0) in ALL_MODELS.items()
                    if models.make_model(name, params, x0=x0).stationary is not None)


def without_derivatives(model, hidden=("pdf_dx", "cdf_dt")):
    """The model with a kernel, and a stationary law, that hide the ``hidden`` derivatives."""
    k, none = model.kernel, dict.fromkeys(hidden)
    methods = {m: getattr(k, m) for m in ("pdf", "cdf", "quantile", "sample", "pdf_dx", "cdf_dt")}
    kernel = SimpleNamespace(**{**methods, **none},
                             bind=lambda s, y, t: replace(k.bind(s, y, t), **none))
    law = None if model.stationary is None else replace(model.stationary, **none)
    return replace(model, kernel=kernel, stationary=law)


class TestZeroFlux:
    """mu~ = 1/2 d_u sigma~^2: the forward equation of a diffusion whose marginals stay
    uniform, with zero flux at the ends.  It shares no code with the coefficient formula."""

    U = np.linspace(0.05, 0.95, 19)
    H = 1e-4

    def check(self, coefficients):
        mu, sg = coefficients(self.U)
        _, sg_up = coefficients(self.U + self.H)
        _, sg_dn = coefficients(self.U - self.H)
        half_dsg2 = (sg_up ** 2 - sg_dn ** 2) / (4.0 * self.H)
        assert mu.shape == sg.shape == self.U.shape
        assert np.max(np.abs(mu - half_dsg2)) <= 1e-5 * np.max(sg ** 2)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_time_dependent(self, name, s):
        params, x0 = ALL_MODELS[name]
        model = models.make_model(name, params, x0=x0)
        self.check(lambda u: uniformize.uniformized_coefficients(model, u, s))

    @pytest.mark.parametrize("name", STATIONARY)
    def test_stationary(self, name):
        params, x0 = ALL_MODELS[name]
        model = models.make_model(name, params, x0=x0)
        self.check(lambda u: uniformize.stationary_uniformized_coefficients(model, u))


class TestStationaryCoefficients:
    def test_standard_ou_values(self):
        ou = models.make_model("ou", STANDARD_OU, x0=0.5)
        mu, sg = uniformize.stationary_uniformized_coefficients(ou, 0.5)
        assert mu == pytest.approx(0.0, abs=1e-14)
        assert sg == pytest.approx(0.5641895835477564, abs=1e-12)
        assert sg == pytest.approx(math.sqrt(2.0) * special.norm_pdf(0.0), abs=1e-14)

    def test_ou_drift_antisymmetry(self):
        ou = models.make_model("ou", STANDARD_OU, x0=0.5)
        for u in (0.15, 0.3, 0.45):
            mu_lo, _ = uniformize.stationary_uniformized_coefficients(ou, u)
            mu_hi, _ = uniformize.stationary_uniformized_coefficients(ou, 1.0 - u)
            assert mu_lo == pytest.approx(-mu_hi, abs=1e-13)

    def test_cir_diffusion_positive_and_vanishing_at_ends(self):
        cir = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        interior = [uniformize.stationary_uniformized_coefficients(cir, u)[1]
                    for u in (0.2, 0.5, 0.8)]
        assert all(v > 0.0 for v in interior)
        lo = uniformize.stationary_uniformized_coefficients(cir, 1e-8)[1]
        hi = uniformize.stationary_uniformized_coefficients(cir, 1.0 - 1e-8)[1]
        assert lo < min(interior) * 1e-2
        assert hi < min(interior) * 1e-2

    def test_requires_stationary_law(self):
        bm = models.make_model("bm", x0=0.0)
        with pytest.raises(DomainError):
            uniformize.stationary_uniformized_coefficients(bm, 0.5)

    def test_boundary_u_rejected(self):
        ou = models.make_model("ou", STANDARD_OU, x0=0.5)
        for u in (0.0, 1.0):
            with pytest.raises(DomainError):
                uniformize.stationary_uniformized_coefficients(ou, u)


@pytest.mark.parametrize("hidden, call", [
    (("pdf_dx", "cdf_dt"), lambda m: uniformize.uniformized_coefficients(m, 0.5, 1.3)),
    (("cdf_dt",), lambda m: uniformize.uniformized_coefficients(m, 0.5, 1.3)),
    (("pdf_dx", "cdf_dt"), lambda m: uniformize.stationary_uniformized_coefficients(m, 0.5)),
], ids=["both", "cdf_dt", "stationary"])
def test_kernel_without_derivatives_has_no_coefficients(hidden, call):
    # the coefficients read only the analytic derivatives, with no differences in their place
    params, x0 = ALL_MODELS["ou"]
    model = without_derivatives(models.make_model("ou", params, x0=x0), hidden)
    with pytest.raises(DomainError, match=f"'ou' has no analytic {hidden[0]}"):
        call(model)


class TestLongHorizon:
    """gbm's states pass double precision at long horizons: x^2 in sigma^2 and in the
    Jacobian's square overflows once x > 1.3e154.  The coefficients then raise, naming s,
    and warn of nothing first, as `simulate_paths` does for overflowing paths."""

    GBM = models.make_model("gbm", {"mu": 0.1, "sigma": 0.3}, x0=1.0)

    @pytest.mark.parametrize("s, u", [(6000.0, 0.3), (6000.0, np.linspace(0.01, 0.99, 9)),
                                      (7000.0, 0.3), (math.inf, 0.3)])
    def test_overflowing_coefficients_raise_naming_s(self, s, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"'gbm' .* s = {s}"):
                uniformize.uniformized_coefficients(self.GBM, u, s)

    def test_finite_before_the_overflow(self):
        mu, sg = uniformize.uniformized_coefficients(self.GBM, np.linspace(0.01, 0.99, 9), 3000.0)
        assert np.isfinite(mu).all() and (sg > 0.0).all()

    def test_stationary_law_serves_s_inf(self):
        params, x0 = ALL_MODELS["ou"]
        ou = models.make_model("ou", params, x0=x0)
        assert (uniformize.uniformized_coefficients(ou, 0.3, math.inf)
                == uniformize.stationary_uniformized_coefficients(ou, 0.3))


# U_t = F_t(X_t) is the same process for X and psi(X) with psi increasing and static
INVARIANT_PAIRS = {
    "gbm=exp(bm_drift)": (("gbm", {"mu": 0.1, "sigma": 0.4}, 1.5),
                          ("bm_drift", {"mu": 0.1, "sigma": 0.4}, math.log(1.5))),
    "rayleigh=sqrt(cir)": (("rayleigh", {"a": 1.0, "b": -0.5}, 1.0),
                           ("cir", {"alpha": 1.0, "beta": 3.0, "sigma": 2.0}, 1.0)),
}


@pytest.mark.parametrize("s", [0.3, 1.0, 30.0])
@pytest.mark.parametrize("pair", sorted(INVARIANT_PAIRS))
def test_coefficients_invariant_under_increasing_static_maps(pair, s):
    (name, params, x0), (base, base_params, base_x0) = INVARIANT_PAIRS[pair]
    pushed = models.make_model(name, params, x0=x0)
    source = models.make_model(base, base_params, x0=base_x0)
    u = np.linspace(0.01, 0.99, 99)
    for got, want in zip(uniformize.uniformized_coefficients(pushed, u, s),
                         uniformize.uniformized_coefficients(source, u, s)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["cir", "rayleigh", "bessel"])
def test_cir_family_coefficients_take_two_density_calls(name, monkeypatch):
    # one jet: f(z; df, lam) and f(z; df + 2, lam) once each, for the pdf and both derivatives
    calls = []
    core = special._chi2nc_pdf
    counted = lambda *args: calls.append(1) or core(*args)
    monkeypatch.setattr(special, "_chi2nc_pdf", counted)
    monkeypatch.setattr(models, "_chi2nc_pdf", counted)
    params, x0 = ALL_MODELS[name]
    model = models.make_model(name, params, x0=x0)
    for u in (0.3, np.array([0.1, 0.5, 0.9])):
        calls.clear()
        uniformize.uniformized_coefficients(model, u, 1.3)
        assert 1 <= len(calls) <= 2, (u, len(calls))


class TestTimeDependentCoefficients:
    def test_bm_diffusion_coefficient(self):
        bm = models.make_model("bm", x0=0.0)
        for s in (0.5, 2.0):
            for u in (0.2, 0.5, 0.8):
                _, sg = uniformize.uniformized_coefficients(bm, u, s)
                expect = special.norm_pdf(special.norm_quantile(u)) / math.sqrt(s)
                assert sg == pytest.approx(expect, rel=1e-12)

    def test_bm_drift_coefficient(self):
        # mu~(u, s) = -z phi(z)/s for standard BM started at 0
        bm = models.make_model("bm", x0=0.0)
        u, s = 0.3, 1.7
        z = special.norm_quantile(u)
        mu, _ = uniformize.uniformized_coefficients(bm, u, s)
        assert mu == pytest.approx(-z * special.norm_pdf(z) / s, rel=1e-10)

    def test_converges_to_stationary(self):
        ou = models.make_model("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, x0=0.2)
        for u in (0.25, 0.6):
            mu_t, sg_t = uniformize.uniformized_coefficients(ou, u, 40.0)
            mu_s, sg_s = uniformize.stationary_uniformized_coefficients(ou, u)
            assert mu_t == pytest.approx(mu_s, abs=1e-6)
            assert sg_t == pytest.approx(sg_s, abs=1e-6)

    def test_numeric_time_derivative_path(self):
        # cir marginals carry no analytic time derivative; exercise the fallback
        cir = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        mu, sg = uniformize.uniformized_coefficients(cir, 0.4, 1.0)
        assert np.isfinite(mu) and sg > 0.0

    def test_diffusion_vanishes_at_natural_boundaries(self):
        bm = models.make_model("bm", x0=0.0)
        _, sg_mid = uniformize.uniformized_coefficients(bm, 0.5, 1.0)
        _, sg_lo = uniformize.uniformized_coefficients(bm, 1e-9, 1.0)
        _, sg_hi = uniformize.uniformized_coefficients(bm, 1.0 - 1e-9, 1.0)
        assert sg_lo < 1e-3 * sg_mid
        assert sg_hi < 1e-3 * sg_mid

    def test_quadratic_variation_oracle(self):
        # empirical quadratic variation of F_t(B_t) over [1, 2] matches
        # int_1^2 int_0^1 sigma~^2 du ds = (2 pi sqrt(3))^{-1} log 2
        bm = models.make_model("bm", x0=0.0)
        times = np.linspace(1.0, 2.0, 1001)
        ens = uniformize.simulate_uniformized(bm, times, 2000, seed=91)
        qv = float(np.mean(np.sum(np.diff(ens.paths, axis=1) ** 2, axis=1)))
        expect = math.log(2.0) / (2.0 * math.pi * math.sqrt(3.0))
        assert abs(qv - expect) / expect <= 0.05


class TestBackwardEquationResidual:
    def test_gaussian_surface_residual(self):
        bm = models.make_model("bm", x0=0.0)
        surf = copula.gaussian_closed_form(1.0, 2.0)
        assert uniformize.kolmogorov_copula_residual(surf, bm) <= 1e-3

    def test_second_order_convergence(self):
        bm = models.make_model("bm", x0=0.0)
        surf = copula.gaussian_closed_form(1.0, 2.0)
        r1 = uniformize.kolmogorov_copula_residual(surf, bm, h_u=1e-3)
        r2 = uniformize.kolmogorov_copula_residual(surf, bm, h_u=5e-4)
        assert 3.0 <= r1 / r2 <= 5.0

    def test_independence_density_detected(self):
        bm = models.make_model("bm", x0=0.0)
        neg = uniformize.kolmogorov_copula_residual(
            copula.independence_surface((1.0, 2.0)), bm)
        assert neg > 0.1

    def test_ou_surface_residual(self):
        ou = models.make_model("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, x0=0.2)
        surf = copula.from_transition(ou, 1.0, 2.0)
        assert uniformize.kolmogorov_copula_residual(surf, ou) <= 1e-3

    def test_boundary_grid_rejected(self):
        bm = models.make_model("bm", x0=0.0)
        surf = copula.gaussian_closed_form(1.0, 2.0)
        with pytest.raises(DomainError):
            uniformize.kolmogorov_copula_residual(surf, bm, us=np.array([0.0005, 0.5]))

    def test_rbm_reflection_condition(self):
        surf = copula.rbm_closed_form(1.0, 2.0)
        for v in (0.3, 0.6):
            assert abs(float(uniformize.conditional_du(surf, 1e-3, v))) <= 1e-2


class TestSimulation:
    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_probability_integral_transform(self, name):
        params, x0 = ALL_MODELS[name]
        model = models.make_model(name, params, x0=x0)
        ens = uniformize.simulate_uniformized(model, [0.5, 1.0], 200_000, seed=17)
        for col in range(2):
            assert uniformize.ks_statistic(ens.paths[:, col], lambda x: x) <= 0.01

    def test_requires_start_after_t0(self):
        bm = models.make_model("bm", x0=0.0)
        with pytest.raises(DomainError):
            uniformize.simulate_uniformized(bm, [0.0, 1.0], 8, seed=0)

    def test_deterministic(self):
        ou = models.make_model("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, x0=0.2)
        a = uniformize.simulate_uniformized(ou, [0.5, 1.0], 32, seed=4)
        b = uniformize.simulate_uniformized(ou, [0.5, 1.0], 32, seed=4)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_maps_the_exact_paths_of_the_same_seed(self):
        ou = models.make_model("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, x0=0.2)
        times = [0.5, 1.0, 1.5]
        ens = uniformize.simulate_uniformized(ou, times, 64, seed=8)
        x = models.simulate_paths(ou, times, 64, seed=8)
        for col, t in enumerate(times):
            np.testing.assert_array_equal(ens.paths[:, col], ou.marginal(t).cdf(x.paths[:, col]))
        assert ens.meta == {**x.meta, "uniformized": True} and ens.seed == 8

    def test_binned_density_matches_surface(self):
        ou = models.make_model("ou", {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, x0=0.2)
        ens = uniformize.simulate_uniformized(ou, [0.5, 1.0], 200_000, seed=21)
        ec = uniformize.empirical_copula(ens.paths[:, 0], ens.paths[:, 1])
        emp = ec.binned_density(10)
        exact = copula.cell_masses(copula.ou_closed_form(1.0, 0.5, 1.0), 10) * 100.0
        assert float(np.mean(np.abs(emp - exact))) <= 0.05


class TestEmpiricalCopula:
    def test_degenerate_corner_sample(self):
        ec = uniformize.empirical_copula([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert ec.cdf(0.9, 0.9) == 0.0
        assert ec.cdf(1.0, 1.0) == 1.0

    def test_independent_uniforms(self):
        rng = np.random.default_rng(2)
        u, v = rng.random(100_000), rng.random(100_000)
        ec = uniformize.empirical_copula(u, v)
        edges, chat = ec.cdf_grid(20)
        prod = np.outer(edges, edges)
        assert float(np.max(np.abs(chat - prod))) <= 0.01

    def test_binned_density_normalizes(self):
        rng = np.random.default_rng(3)
        ec = uniformize.empirical_copula(rng.random(5000), rng.random(5000))
        dens = ec.binned_density(20)
        assert float(dens.sum()) / (20 * 20) == pytest.approx(1.0, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            uniformize.empirical_copula([], [])

    def test_out_of_square_rejected(self):
        with pytest.raises(DomainError):
            uniformize.empirical_copula([0.5, 1.2], [0.5, 0.5])

    def test_pseudo_observations(self):
        x = np.array([5.0, -1.0, 2.5])
        np.testing.assert_allclose(uniformize.pseudo_observations(x),
                                   [2.5 / 3, 0.5 / 3, 1.5 / 3])

    def test_ks_statistic_exact_on_known_sample(self):
        # single observation at 0.5 against the uniform law: D = 0.5
        assert uniformize.ks_statistic([0.5], lambda x: np.asarray(x)) == pytest.approx(0.5)
