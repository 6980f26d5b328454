"""Recombination and first-passage-time tests."""

import math

import numpy as np
import pytest

from diffcop import models, uniformize
from diffcop._numerics import integrate
from diffcop.errors import DomainError
from diffcop.recombine import (FirstPassageSample, first_passage_times,
                               model_marginal_family, recombine,
                               tabulated_marginal_family)

OU_P = {"alpha": 1.0, "beta": 0.5, "sigma": 0.9}


def ou_model(x0=0.2):
    return models.make_model("ou", OU_P, x0=x0)


class TestMarginalFamilies:
    def test_model_family_delegates(self):
        ou = ou_model()
        fam = model_marginal_family(ou)
        marg = ou.marginal(1.3)
        assert fam.cdf(1.3, 0.4) == marg.cdf(0.4)
        assert fam.quantile(1.3, 0.7) == marg.quantile(0.7)

    def test_tabulated_family_round_trip(self):
        # forward and inverse interpolants are independent fits of the table,
        # so the round trip carries the interpolation error of the grid
        xs = np.linspace(-3.0, 3.0, 400)
        fam = tabulated_marginal_family(xs, 0.5 * (1.0 + np.tanh(xs)))
        for p in (0.1, 0.4, 0.8):
            q = float(fam.quantile(0.0, p))
            assert float(fam.cdf(0.0, q)) == pytest.approx(p, abs=1e-5)

    def test_non_monotone_table_rejected(self):
        xs = np.linspace(0.0, 1.0, 10)
        fs = np.linspace(0.0, 1.0, 10)
        fs[4] = fs[5]
        with pytest.raises(DomainError):
            tabulated_marginal_family(xs, fs)


class TestRecombination:
    def test_own_marginals_give_identity_map(self):
        ou = ou_model()
        proc = recombine(ou, model_marginal_family(ou))
        xs = np.linspace(-1.5, 2.0, 21)
        mapped = np.asarray(proc.map(1.2, xs), dtype=float)
        assert np.max(np.abs(mapped - xs)) <= 1e-12

    def test_uniform_target_gives_uniformized_process(self):
        ou = ou_model()
        grid = np.linspace(-1e-9, 1.0 + 1e-9, 200)
        fam = tabulated_marginal_family(grid, np.clip(grid, 0.0, 1.0))
        proc = recombine(ou, fam)
        ens = proc.sample_paths([0.5, 1.0], 20_000, seed=31)
        for col in range(2):
            assert uniformize.ks_statistic(ens.paths[:, col], lambda x: np.clip(x, 0, 1)) \
                <= 0.015

    def test_non_invertible_target_rejected(self):
        ou = ou_model()

        class Flat:
            def cdf(self, t, x):
                return np.full_like(np.asarray(x, dtype=float), 0.5)

            def quantile(self, t, p):
                return np.zeros_like(np.asarray(p, dtype=float))

            def pdf(self, t, x):
                return np.zeros_like(np.asarray(x, dtype=float))

        with pytest.raises(DomainError):
            recombine(ou, Flat())

    def test_marginal_replacement_and_copula_preservation(self):
        target = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        source = ou_model()
        proc = recombine(source, model_marginal_family(target))
        s, t, n = 1.0, 1.5, 50_000
        z = proc.sample_paths([s, t], n, seed=41)
        marg = target.marginal(s)
        assert uniformize.ks_statistic(z.paths[:, 0], lambda x: marg.cdf(x)) <= 0.012

        x = models.simulate_paths(source, [s, t], n, seed=42)
        ec_z = uniformize.empirical_copula(uniformize.pseudo_observations(z.paths[:, 0]),
                                           uniformize.pseudo_observations(z.paths[:, 1]))
        ec_x = uniformize.empirical_copula(uniformize.pseudo_observations(x.paths[:, 0]),
                                           uniformize.pseudo_observations(x.paths[:, 1]))
        _, cz = ec_z.cdf_grid(25)
        _, cx = ec_x.cdf_grid(25)
        assert float(np.max(np.abs(cz - cx))) <= 0.02

    def test_transition_pdf_normalizes_and_matches_cdf(self):
        target = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        proc = recombine(ou_model(), model_marginal_family(target))
        s, t, z1 = 0.8, 1.4, 1.1
        mass = integrate(lambda z2: float(proc.transition_pdf(s, z1, t, z2)), 0.0, np.inf,
                         abs_tol=1e-8, rel_tol=1e-8)
        assert mass == pytest.approx(1.0, abs=1e-6)
        h = 1e-5
        z2 = 1.3
        fd = (float(proc.transition_cdf(s, z1, t, z2 + h))
              - float(proc.transition_cdf(s, z1, t, z2 - h))) / (2.0 * h)
        assert fd == pytest.approx(float(proc.transition_pdf(s, z1, t, z2)), rel=1e-4)

    @pytest.mark.parametrize("name, params, x0", [
        ("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, 1.2),
        ("rayleigh", {"a": 2.625, "b": -0.5}, 2.7),
        ("bessel", {"delta": 1.5}, 1.0),
    ])
    def test_transition_vector_z1_matches_loop(self, name, params, x0):
        proc = recombine(models.make_model(name, params, x0=x0), model_marginal_family(ou_model()))
        s, t, z2 = 0.8, 1.4, 0.6
        z1 = np.array([-0.4, 0.3, 1.1])
        for method in (proc.transition_pdf, proc.transition_cdf):
            loop = np.array([float(method(s, z, t, z2)) for z in z1])
            np.testing.assert_array_equal(method(s, z1, t, z2), loop)

    def test_rbm_inverse_map_at_probability_clamp(self):
        # target cdf values below 1e-15 are clamped there, then inverted through
        # the rbm kernel, whose cdf is quantized at that level
        target = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        proc = recombine(models.make_model("rbm", {}, x0=0.3), model_marginal_family(target))
        zs = np.array([1e-12, 1e-5, 1e-3, 0.5])
        xs = proc.inverse_map(1.0, zs)
        assert xs[0] == xs[1] and np.all(np.diff(xs[1:]) > 0.0)
        assert xs[0] == pytest.approx(1.31e-15, rel=0.15)
        assert np.isfinite(float(proc.transition_pdf(0.5, 0.8, 1.0, 1e-9)))

    def test_map_monotone(self):
        target = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        proc = recombine(ou_model(), model_marginal_family(target))
        xs = np.linspace(-2.0, 2.0, 41)
        mapped = np.asarray(proc.map(1.0, xs), dtype=float)
        assert np.all(np.diff(mapped) > 0.0)

    def test_ou_and_cir_share_autocorrelation_empirically(self):
        # same mean-reversion rate => same lag correlation, checked by MC only
        alpha, lag, n = 1.0, 0.5, 60_000
        ou = models.make_model("ou", {"alpha": alpha, "beta": 1.0, "sigma": 0.7}, x0=1.0)
        cir = models.make_model("cir", {"alpha": alpha, "beta": 1.0, "sigma": 0.7}, x0=1.0)
        t_stat = 8.0 / alpha
        expect = math.exp(-alpha * lag)
        for model in (ou, cir):
            ens = models.simulate_paths(model, [t_stat, t_stat + lag], n, seed=55)
            corr = np.corrcoef(ens.paths[:, 0], ens.paths[:, 1])[0, 1]
            assert corr == pytest.approx(expect, abs=0.02)


class TestFirstPassage:
    def test_threshold_below_start(self):
        ou = ou_model(x0=1.0)
        out = first_passage_times(ou, threshold=0.0, reset=1.0, t_max=1.0, dt=0.1,
                                  n_paths=16, seed=0)
        assert out.n_censored == 0
        np.testing.assert_allclose(out.times, 0.1)

    def test_unreachable_threshold_censors_all(self):
        ou = ou_model()
        out = first_passage_times(ou, threshold=1e10, t_max=1.0, dt=0.1,
                                  n_paths=16, seed=0)
        assert out.n_censored == 16
        assert np.all(np.isnan(out.times))

    @pytest.mark.parametrize("bad", [dict(dt=0.0), dict(dt=-0.1), dict(n_paths=0)])
    def test_invalid_arguments(self, bad):
        ou = ou_model()
        kwargs = dict(threshold=1.0, t_max=1.0, dt=0.1, n_paths=8, seed=0)
        kwargs.update(bad)
        with pytest.raises(DomainError):
            first_passage_times(ou, **kwargs)

    def test_grid_refinement_self_consistency(self):
        # OU(alpha=0.1) with stationary mean below the threshold: the grid FPT
        # mean is stable when dt halves (discretization bias acknowledged,
        # no exact-crossing claim)
        model = models.make_model("ou", {"alpha": 0.1, "beta": 0.1, "sigma": 0.5}, x0=0.5)
        means = []
        for i, dt in enumerate((1e-2, 5e-3)):
            out = first_passage_times(model, threshold=1.2, reset=0.5, t_max=150.0,
                                      dt=dt, n_paths=6000, seed=60 + i)
            assert out.n_censored < 60
            means.append(float(np.nanmean(out.times)))
        assert abs(means[0] - means[1]) / means[1] <= 0.05

    def test_recombined_process_fpt(self):
        target = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        proc = recombine(ou_model(), model_marginal_family(target))
        out = first_passage_times(proc, threshold=1.4, t_max=10.0, dt=0.05,
                                  n_paths=500, seed=61)
        crossed = ~out.censored
        assert crossed.sum() > 400
        assert np.all(out.times[crossed] > 0.0)

    def test_csv_round_trip(self, tmp_path):
        ou = ou_model()
        out = first_passage_times(ou, threshold=0.8, reset=0.2, t_max=2.0, dt=0.1,
                                  n_paths=64, seed=7)
        path = tmp_path / "fpt.csv"
        out.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 64
        assert any(line.startswith(">") for line in lines) == (out.n_censored > 0)
        back = FirstPassageSample.from_csv(path)
        assert back.censored.sum() == out.n_censored
        np.testing.assert_allclose(back.times[~back.censored], out.times[~out.censored])
