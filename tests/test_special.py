"""Special-function kernel tests: frozen examples, oracles, and invariants."""

import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.special import iv, ndtr

import diffcop
from diffcop import copula, models, special
from diffcop._numerics import invert_monotone_cdf
from diffcop.errors import DomainError, NumericsError


def invert_by_bracketed_bisection(cdf, p, lo=-60.0, hi=60.0, iters=200):
    """Independent quantile oracle: plain bisection on a monotone CDF."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# mpmath oracles, independent of scipy; the `mp30` fixture sets their precision


@pytest.fixture
def mp30():
    with mp.workdps(30):
        yield


def mp_chi2nc_pdf(z, nu, lam):
    """The Bessel-form noncentral chi-square density."""
    z, nu, lam = mp.mpf(z), mp.mpf(nu), mp.mpf(lam)
    return (mp.exp(-(z + lam) / 2) * (z / lam) ** ((nu - 2) / 4)
            * mp.besseli((nu - 2) / 2, mp.sqrt(lam * z)) / 2)


def mp_chi2nc_tail(z, nu, lam, upper):
    """P(Z <= z), or P(Z > z) when ``upper``, as a Poisson mixture of regularized gammas."""
    z, nu, h = mp.mpf(z), mp.mpf(nu), mp.mpf(lam) / 2
    total, j = mp.mpf(0), 0
    while True:
        a = nu / 2 + j
        g = (mp.gammainc(a, z / 2, mp.inf, regularized=True) if upper
             else mp.gammainc(a, 0, z / 2, regularized=True))
        term = mp.exp(j * mp.log(h) - h - mp.loggamma(j + 1)) * g
        total += term
        # the terms are unimodal in j, so past the Poisson mode a negligible one ends the sum
        if j > h and term < mp.mpf(10) ** -35 * total:
            return total
        j += 1


def mp_chi2nc_quantile(p, nu, lam, x0):
    """Root of the mpmath CDF (of the survival function for p > 1/2), searched from x0.

    The CDF is strictly increasing, so the root does not depend on x0.
    """
    upper = p > 0.5
    target = 1 - mp.mpf(p) if upper else mp.mpf(p)
    f = lambda x: mp_chi2nc_tail(x, nu, lam, upper) / target - 1
    return mp.findroot(f, (mp.mpf(x0), mp.mpf(x0) * (1 + mp.mpf(10) ** -6)),
                       solver="secant", tol=mp.mpf(10) ** -40)


class TestTolerance:
    def test_defaults_valid(self):
        tol = special.Tolerance()
        assert tol.rel_tol > 0 and tol.max_iter >= 1

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"rel_tol": -1e-3}, {"max_iter": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            special.Tolerance(**kwargs)


class TestNormal:
    def test_pdf_at_zero(self):
        assert special.norm_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_pdf_at_one(self):
        assert special.norm_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-16)

    def test_pdf_even(self):
        assert special.norm_pdf(-1.0) == special.norm_pdf(1.0)

    def test_pdf_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            special.norm_pdf(np.nan)
        with pytest.raises(DomainError):
            special.norm_pdf(np.inf)

    def test_cdf_examples(self):
        assert special.norm_cdf(0.0) == 0.5
        assert special.norm_cdf(40.0) == pytest.approx(1.0, abs=1e-12)
        assert special.norm_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)

    def test_cdf_reflection(self):
        for z in (-3.0, -0.7, 0.2, 2.5):
            assert special.norm_cdf(z) + special.norm_cdf(-z) == pytest.approx(1.0, abs=1e-15)

    def test_quantile_examples(self):
        assert special.norm_quantile(0.5) == 0.0
        oracle = invert_by_bracketed_bisection(special.norm_cdf, 0.975)
        assert special.norm_quantile(0.975) == pytest.approx(oracle, abs=1e-8)
        assert special.norm_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)

    def test_quantile_round_trip(self):
        assert special.norm_quantile(special.norm_cdf(1.234)) == pytest.approx(1.234, abs=1e-10)

    def test_quantile_matches_bisection_oracle(self):
        for p in (0.01, 0.2, 0.5, 0.77, 0.999):
            oracle = invert_by_bracketed_bisection(special.norm_cdf, p)
            assert special.norm_quantile(p) == pytest.approx(oracle, abs=1e-10)

    def test_quantile_grid_round_trip(self):
        p = np.arange(0.01, 0.995, 0.01)
        back = special.norm_cdf(special.norm_quantile(p))
        assert np.max(np.abs(back - p)) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            special.norm_quantile(p)

    def test_quantile_far_tail(self):
        # the root of mpmath's ncdf at 1e-20; no clamp may move it
        assert special.norm_quantile(1e-20) == pytest.approx(-9.262340089798408, rel=1e-14)

    def test_odd_symmetry(self):
        assert special.norm_quantile(0.3) == pytest.approx(-special.norm_quantile(0.7),
                                                           abs=1e-14)

    def test_vectorized(self):
        out = special.norm_cdf(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert isinstance(special.norm_cdf(0.3), float)


class TestBesselI:
    def test_at_origin(self):
        assert special.bessel_i(0.0, 0.0) == 1.0
        assert special.bessel_i(1.0, 0.0) == 0.0

    def test_series_value(self):
        assert special.bessel_i(0.0, 1.0) == pytest.approx(1.2660658777520082, abs=1e-12)

    def test_against_scipy(self):
        for a in (0.0, 0.5, 1.0, 2.75, -0.4):
            for z in (0.1, 1.0, 5.0, 20.0, 50.0):
                mine = special.bessel_i(a, z)
                ref = iv(a, z)
                assert mine == pytest.approx(ref, rel=1e-12)

    def test_integer_negative_order(self):
        assert special.bessel_i(-1.0, 2.3) == special.bessel_i(1.0, 2.3)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            special.bessel_i(0.0, -1.0)

    def test_order_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            special.bessel_i(-1.5, 1.0)


class TestChi2ncPdf:
    def test_central_chi2_value(self):
        # central chi-square with 2 dof: pdf(z) = exp(-z/2)/2
        assert special.chi2nc_pdf(2.0, 2.0, 0.0) == pytest.approx(0.18393972058572117,
                                                                  abs=1e-15)

    def test_origin_behavior(self):
        assert special.chi2nc_pdf(0.0, 1.0, 0.0) == np.inf     # boundary-singular
        assert special.chi2nc_pdf(0.0, 2.0, 5.0) == pytest.approx(0.5 * math.exp(-2.5))
        assert special.chi2nc_pdf(0.0, 3.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [
        dict(z=-1.0, nu=2.0, lam=0.0),
        dict(z=1.0, nu=0.0, lam=0.0),
        dict(z=1.0, nu=2.0, lam=-0.5),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            special.chi2nc_pdf(bad["z"], bad["nu"], bad["lam"])

    def test_mean_by_quadrature(self):
        # E[chi2nc(3, 5)] = 8, verified numerically, not assumed
        from diffcop._numerics import integrate
        mid = 8.0
        mean = (integrate(lambda z: z * special.chi2nc_pdf(z, 3.0, 5.0), 0.0, mid,
                          abs_tol=1e-9, rel_tol=1e-9)
                + integrate(lambda z: z * special.chi2nc_pdf(z, 3.0, 5.0), mid, np.inf,
                            abs_tol=1e-9, rel_tol=1e-9))
        assert mean == pytest.approx(8.0, abs=1e-6)

    def test_against_scipy(self):
        # probability-range arguments; the tails are checked against mpmath below
        for nu in (1.0, 2.5, 7.0, 120.0):
            for lam in (0.0, 0.3, 12.0, 300.0):
                dist = stats.ncx2(nu, lam) if lam > 0 else stats.chi2(nu)
                z = dist.ppf([0.01, 0.25, 0.5, 0.75, 0.99])
                mine = special.chi2nc_pdf(z, nu, lam)
                np.testing.assert_allclose(mine, dist.pdf(z), rtol=1e-10)

    def test_mixture_vs_bessel_form(self):
        worst = 0.0
        for nu in (2.0, 3.0, 4.0, 25.0):
            for lam in (0.5, 1.0, 10.0, 50.0):
                for z in (0.4, 2.0, 10.0, 30.0, 50.0):
                    a = special.chi2nc_pdf(z, nu, lam)
                    b = special.chi2nc_pdf_bessel_form(z, nu, lam)
                    worst = max(worst, abs(a - b) / b)
        assert worst <= 1e-8

    def test_left_tail_against_mpmath(self, mp30):
        ref = float(mp_chi2nc_pdf(0.1, 6.25, 100.0))
        assert ref == pytest.approx(1.461e-25, rel=1e-3, abs=0)
        assert special.chi2nc_pdf(0.1, 6.25, 100.0) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_kernel_pdf_dx_against_mpmath(self, mp30):
        # Ncx2Kernel.pdf_dx = d/dx [2c f(2c x; df, lam)], left tail to right tail
        kern = models.Ncx2Kernel(6.25, 1.0, 0.8)
        s, y, t = 0.5, 1.2, 1.5
        twoc = kern._twoc(t - s)
        lam = twoc * math.exp(-(t - s)) * y
        worst = 0.0
        for x in np.geomspace(1e-3, 20.0, 40):
            ref = float(mp.diff(lambda xx: twoc * mp_chi2nc_pdf(twoc * xx, 6.25, lam), x))
            if abs(ref) > 1e-50:
                worst = max(worst, abs(kern.pdf_dx(s, y, t, x) - ref) / abs(ref))
        assert worst <= 1e-12

    def test_array_noncentrality_broadcasts(self):
        lams = np.array([0.0, 2.0, 30.0])
        for fn, arg in ((special.chi2nc_pdf, 3.0), (special.chi2nc_cdf, 3.0),
                        (special.chi2nc_quantile, 0.4)):
            loop = np.array([fn(arg, 4.0, lam) for lam in lams])
            np.testing.assert_array_equal(fn(arg, 4.0, lams), loop)
            np.testing.assert_array_equal(fn(np.full(3, arg), 4.0, lams), loop)
        with pytest.raises(DomainError):
            special.chi2nc_cdf(1.0, 4.0, np.array([1.0, -1.0]))

    def test_bessel_form_domain(self):
        with pytest.raises(DomainError):
            special.chi2nc_pdf_bessel_form(1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            special.chi2nc_pdf_bessel_form(0.0, 2.0, 1.0)


class TestChi2ncCdfQuantile:
    def test_cdf_at_zero(self):
        assert special.chi2nc_cdf(0.0, 4.0, 2.0) == 0.0

    def test_exponential_special_case(self):
        for z in (0.2, 1.0, 3.5, 10.0):
            assert special.chi2nc_cdf(z, 2.0, 0.0) == pytest.approx(-math.expm1(-z / 2.0),
                                                                    abs=1e-12)

    def test_round_trip_example(self):
        p = special.chi2nc_cdf(3.7, 4.0, 2.0)
        assert special.chi2nc_quantile(p, 4.0, 2.0) == pytest.approx(3.7, abs=1e-8)

    @pytest.mark.parametrize("nu", [1.0, 2.0, 4.0, 25.0])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0, 100.0])
    def test_grid_invariants(self, nu, lam):
        from diffcop._numerics import integrate
        mid = nu + lam
        mass = (integrate(lambda z: special.chi2nc_pdf(z, nu, lam), 0.0, mid,
                          abs_tol=1e-9, rel_tol=1e-9)
                + integrate(lambda z: special.chi2nc_pdf(z, nu, lam), mid, np.inf,
                            abs_tol=1e-9, rel_tol=1e-9))
        assert abs(mass - 1.0) <= 1e-6
        ps = np.arange(0.05, 0.951, 0.05)
        q = special.chi2nc_quantile(ps, nu, lam)
        assert np.max(np.abs(special.chi2nc_cdf(q, nu, lam) - ps)) <= 1e-8

    def test_cdf_monotone(self):
        z = np.linspace(0.0, 40.0, 200)
        c = special.chi2nc_cdf(z, 3.0, 4.0)
        assert np.all(np.diff(c) >= 0.0)

    def test_against_scipy_cdf(self):
        z = np.array([1.0, 5.0, 20.0])
        np.testing.assert_allclose(special.chi2nc_cdf(z, 6.0, 9.0),
                                   stats.ncx2.cdf(z, 6.0, 9.0), rtol=1e-10)

    def test_quantile_against_scipy(self):
        for p in (0.05, 0.4, 0.95):
            assert special.chi2nc_quantile(p, 6.0, 9.0) == pytest.approx(
                stats.ncx2.ppf(p, 6.0, 9.0), rel=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            special.chi2nc_quantile(p, 3.0, 1.0)

    @pytest.mark.parametrize("nu, lam", [(6.25, 100.0), (625.0, 12.0)])
    @pytest.mark.parametrize("p", [1e-12, 1e-9, 1.0 - 1e-9])
    def test_tail_quantile_against_mpmath(self, mp30, nu, lam, p):
        q = special.chi2nc_quantile(p, nu, lam)
        root = mp_chi2nc_quantile(p, nu, lam, q)
        # a double p fixes its quantile only to within a few ulps of p, which
        # the density at the root turns into a width in z
        width = 4.0 * np.spacing(p) / float(mp_chi2nc_pdf(root, nu, lam))
        assert abs(q - float(root)) <= 1e-12 * float(root) + width

    def test_large_noncentrality(self):
        # stable at the noncentrality scale of the cir surfaces
        p = special.chi2nc_cdf(12000.0, 625.0, 11500.0)
        assert 0.0 < p < 1.0
        q = special.chi2nc_quantile(0.5, 625.0, 11500.0)
        assert special.chi2nc_cdf(q, 625.0, 11500.0) == pytest.approx(0.5, abs=1e-10)


class TestCopulaCorner:
    def test_cir_from_transition_density_at_corner(self, mp30):
        # c(u, v) = 2c_k f(2c_k xv; g, lam_k(xu)) / (2c_t f(2c_t xv; g, lam_t)), recomputed
        # with mpmath quantiles.  The corner quantiles are defined only to a few
        # ulps of u, v, which the density's slope there turns into ~1e-7.
        model = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        s, t, g, u = 0.5, 1.5, 6.25, 1.0 - 1e-9

        def twoc(r):
            return 4.0 / (0.8 ** 2 * -math.expm1(-r))

        def x_quantile(r):                      # marginal at time r from x0 = 1.2 at 0
            lam = twoc(r) * math.exp(-r) * 1.2
            q = special.chi2nc_quantile(u, g, lam)
            return mp_chi2nc_quantile(u, g, lam, q) / twoc(r), lam

        xu, _ = x_quantile(s)
        xv, lam_t = x_quantile(t)
        ck = twoc(t - s)
        ref = (ck * mp_chi2nc_pdf(ck * xv, g, ck * mp.exp(-(t - s)) * xu)
               / (twoc(t) * mp_chi2nc_pdf(twoc(t) * xv, g, lam_t)))
        got = copula.from_transition(model, s, t).density(u, u)
        assert got == pytest.approx(float(ref), rel=1e-6)


class TestMonotoneInversion:
    def test_unconverged_root_raises(self):
        # three bisections of [-50, 50] stop at -6.25, whose cdf is 2.1e-10, not 0.3
        with pytest.raises(NumericsError):
            invert_monotone_cdf(ndtr, 0.3, -50.0, 50.0, max_iter=3)

    def test_tolerance_relative_to_tail(self):
        # an absolute f_tol of 1e-9 would accept any x whose cdf is below 1.001e-9
        x = invert_monotone_cdf(ndtr, 1e-12, -50.0, 50.0, f_tol=1e-9)
        assert ndtr(x) == pytest.approx(1e-12, rel=1e-9, abs=0)


def test_import_loads_no_scipy_stats():
    # scipy.stats would add about half to the time and 15 MB to the memory of `import diffcop`
    src = str(Path(diffcop.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import diffcop; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
