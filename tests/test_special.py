"""Special-function kernel tests: frozen examples, oracles, and invariants."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.special import chndtrix, iv, ndtr
from scipy.special._ufuncs import _ncx2_pdf

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
    """The Bessel-form noncentral chi-square density; the central one at lam = 0."""
    z, nu, lam = mp.mpf(z), mp.mpf(nu), mp.mpf(lam)
    if lam == 0:
        return z ** (nu / 2 - 1) * mp.exp(-z / 2) / (2 ** (nu / 2) * mp.gamma(nu / 2))
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
        term = h ** j * mp.exp(-h - mp.loggamma(j + 1)) * g      # h ** 0 = 1 at lam = 0
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
        from quad_oracle import integrate
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
        # nu = 120 reaches the uniform expansion at lam = 100 and 200
        worst = 0.0
        for nu in (2.0, 3.0, 4.0, 25.0, 120.0):
            for lam in (0.5, 1.0, 10.0, 50.0, 100.0, 200.0):
                for z in (0.4, 2.0, 10.0, 30.0, 50.0):
                    a = special.chi2nc_pdf(z, nu, lam)
                    b = special.chi2nc_pdf_bessel_form(z, nu, lam)
                    worst = max(worst, abs(a - b) / b)
        assert worst <= 1e-8

    def test_debye_polynomials_match_the_recurrence(self):
        # DLMF 10.41.10: u_{k+1}(p) = p^2 (1 - p^2) u_k'(p) / 2 + int_0^p (1 - 5 t^2) u_k(t) dt / 8,
        # in exact arithmetic, as coefficient lists in p
        u = [Fraction(1)]
        for row in special._DEBYE_U:
            nxt = [Fraction(0)] * (len(u) + 3)
            for j, c in enumerate(u):
                if j:
                    nxt[j + 1] += j * c / 2
                    nxt[j + 3] -= j * c / 2
                nxt[j + 1] += c / (8 * (j + 1))
                nxt[j + 3] -= 5 * c / (8 * (j + 3))
            u, k = nxt, len(nxt) // 3                  # u_k has degree 3k
            assert [float(c) for c in u] == [
                row[(j - k) // 2] if j >= k and (j - k) % 2 == 0 else 0.0 for j in range(len(u))]
        assert len(special._DEBYE_U) == 6

    def test_left_tail_against_mpmath(self, mp30):
        ref = float(mp_chi2nc_pdf(0.1, 6.25, 100.0))
        assert ref == pytest.approx(1.461e-25, rel=1e-3, abs=0)
        assert special.chi2nc_pdf(0.1, 6.25, 100.0) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("nu, lam, z", [(2.0, 100.0, 1e-5), (5.0, 300.0, 0.1),
                                            (1.0, 1000.0, 1.0), (0.5, 500.0, 1.0),
                                            (6.25, 400.0, 1e-3)])
    def test_far_left_tail_against_mpmath(self, mp30, nu, lam, z):
        # normal doubles from 1e-205 to 1e-22, which Boost's Poisson series returns as 0
        ref = float(mp_chi2nc_pdf(z, nu, lam))
        assert special.chi2nc_pdf(z, nu, lam) == pytest.approx(ref, rel=1e-12, abs=0)

    @staticmethod
    def _kernel_pdf_dx_worst_error(t):
        # Ncx2Kernel.pdf_dx = d/dx [2c f(2c x; df, lam)], left tail to right tail
        kern = models.Ncx2Kernel(6.25, 1.0, 0.8)
        s, y = 0.5, 1.2
        twoc = kern._twoc(t - s)
        lam = twoc * math.exp(-(t - s)) * y
        worst = 0.0
        for x in np.geomspace(1e-3, 20.0, 40):
            ref = float(mp.diff(lambda xx: twoc * mp_chi2nc_pdf(twoc * xx, 6.25, lam), x))
            if abs(ref) > 1e-50:
                worst = max(worst, abs(kern.pdf_dx(s, y, t, x) - ref) / abs(ref))
        return worst

    def test_kernel_pdf_dx_against_mpmath(self, mp30):
        assert self._kernel_pdf_dx_worst_error(1.5) <= 1e-12           # lam = 4.4

    def test_kernel_pdf_dx_short_lag_against_mpmath(self, mp30):
        assert self._kernel_pdf_dx_worst_error(0.55) <= 1e-12          # lam = 146, Bessel form

    @pytest.mark.parametrize("nu, limit", [(1.0, -np.inf), (2.0, None), (3.0, np.inf),
                                           (4.0, None), (6.25, 0.0)])
    def test_kernel_pdf_dx_at_origin_is_right_limit(self, nu, limit):
        kern = models.Ncx2Kernel(nu, 1.0, 0.8)
        got = kern.pdf_dx(0.5, 1.2, 1.5, 0.0)
        if limit is None:                           # finite at nu = 2 and 4, continuous there
            assert np.isfinite(got)
            assert got == pytest.approx(kern.pdf_dx(0.5, 1.2, 1.5, 1e-9), rel=1e-6)
        else:
            assert got == limit

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


# outer meshes like the benchmark's cir numerators: (nu, z range, lam range, n)
BENCHMARK_MESHES = [
    (1.04, (1.1e-3, 154.0), (1.04e-3, 146.0), 101),       # gamma = 1 from the boundary
    (5.23, (13.3, 331.0), (12.6, 315.0), 51),             # q = lam z / 4 up to 2.6e4
    (126.4, (105.0, 190.0), (13.0, 22.9), 51),
]


def outer(z_range, lam_range, n):
    return np.geomspace(*z_range, n)[:, None], np.geomspace(*lam_range, n)[None, :]


class TestChi2ncMesh:
    """The mesh route of `special._pdf`: the Poisson mixture as one matrix product."""

    @pytest.mark.parametrize("nu, z_range, lam_range, n", BENCHMARK_MESHES)
    def test_against_mpmath(self, mp30, nu, z_range, lam_range, n):
        z, lam = outer(z_range, lam_range, n)
        mesh, redo = special._mesh_pdf(z, nu, lam)
        assert not redo.any()
        f = special.chi2nc_pdf(z, nu, lam)
        np.testing.assert_array_equal(f, mesh)
        # the corners and the smallest cell (1.4e-35 at nu = 1.04, 9.3e-48 at 5.23)
        cells = {(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1),
                 np.unravel_index(f.argmin(), f.shape)}
        for i, j in cells:
            ref = float(mp_chi2nc_pdf(z[i, 0], nu, lam[0, j]))
            assert f[i, j] == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0])
    def test_zero_row_and_column_are_redone(self, nu):
        z = np.r_[0.0, np.geomspace(0.01, 30.0, 20)][:, None]
        lam = np.r_[0.0, np.geomspace(0.1, 40.0, 20)][None, :]
        _, redo = special._mesh_pdf(z, nu, lam)
        assert redo[0].all() and redo[:, 0].all() and not redo[1:, 1:].any()
        f = special.chi2nc_pdf(z, nu, lam)
        loop = np.array([[special.chi2nc_pdf(zi, nu, li) for li in lam[0]] for zi in z[:, 0]])
        np.testing.assert_array_equal(f[0], loop[0])             # inf, e^{-lam/2}/2 or 0
        np.testing.assert_array_equal(f[:, 0], loop[:, 0])       # the central law
        np.testing.assert_allclose(f, loop, rtol=1e-12, atol=0)

    def test_underflowing_corner_is_redone(self):
        # below 1e-290 the mesh value is redone per element: 1.4e-297 at the far corner
        z = np.geomspace(1.0, 1380.0, 20)[:, None]
        lam = np.geomspace(0.1, 5.0, 20)[None, :]
        _, redo = special._mesh_pdf(z, 1.0, lam)
        assert redo[-1, 0] and not redo[0].any()
        f = special._pdf(z, 1.0, lam)
        np.testing.assert_array_equal(f[redo], special._pdf_elements(z, 1.0, lam)[redo])
        with mp.workdps(30):
            assert f[-1, 0] == pytest.approx(float(mp_chi2nc_pdf(1380.0, 1.0, 0.1)), rel=1e-12)

    def test_orientation(self):
        nu, *mesh = BENCHMARK_MESHES[0]
        z, lam = outer(*mesh)
        f = special.chi2nc_pdf(z, nu, lam)
        np.testing.assert_array_equal(special.chi2nc_pdf(z.T, nu, lam.T), f.T)

    @pytest.mark.parametrize("z, nu, lam", [
        (np.linspace(1.0, 9.0, 300), 3.0, 2.0),                            # one law
        (np.linspace(1.0, 9.0, 300), 3.0, np.linspace(1.0, 9.0, 300)),     # elementwise
        (np.linspace(1.0, 9.0, 15)[:, None], 3.0, np.linspace(1.0, 9.0, 15)),  # lam 1-d
        (np.linspace(1.0, 9.0, 15)[:, None], 3.0, np.linspace(1.0, 9.0, 15)[:, None]),
        (np.linspace(1.9e3, 3.4e3, 51)[:, None], 131.3, np.linspace(1.8e3, 3.2e3, 51)[None, :]),
        (np.linspace(1.6e3, 2.0e3, 11)[:, None], 6.0, np.linspace(8e2, 1e3, 11)[None, :]),
        (0.0, 3.0, np.array([[2.0]])),                                     # q = 0
        (np.empty((0, 1)), 3.0, np.array([[2.0, 3.0]])),
    ])
    def test_stays_per_element(self, z, nu, lam):
        # not an outer mesh of two 2-d arrays; every cell on the Debye route; every q above
        # ``_MESH_MAX_Q``; no q above 0; no cell
        assert special._mesh_pdf(np.asarray(z, dtype=float), nu, np.asarray(lam)) is None

    def test_debye_cells_and_large_q_are_redone(self):
        # lam > 50 at nu/2 - 1 >= 50 stays on the Debye route, and q above 3e5 per element
        z = np.linspace(100.0, 140.0, 21)[:, None]
        lam = np.linspace(40.0, 60.0, 21)[None, :]
        _, redo = special._mesh_pdf(z, 126.0, lam)
        np.testing.assert_array_equal(redo, np.broadcast_to(lam > 50.0, redo.shape))
        z = np.linspace(900.0, 1500.0, 21)[:, None]
        lam = np.linspace(900.0, 1400.0, 21)[None, :]
        _, redo = special._mesh_pdf(z, 6.0, lam)
        np.testing.assert_array_equal(redo, z * lam / 4.0 > special._MESH_MAX_Q)
        assert 0 < redo.sum() < redo.size

    @pytest.mark.parametrize("nu, z, lam", [
        (1.04, np.geomspace(1e-3, 154.0, 12), np.geomspace(1e-3, 146.0, 13)),
        (126.0, np.linspace(100.0, 140.0, 12), np.linspace(40.0, 60.0, 13)),
        (6.0, np.linspace(900.0, 1500.0, 12), np.linspace(900.0, 1400.0, 13)),
        (2.5, np.r_[0.0, np.geomspace(0.01, 1400.0, 11)], np.r_[0.0, np.geomspace(0.1, 5.0, 12)]),
    ])
    def test_a_cell_alone_takes_its_grid_route(self, nu, z, lam):
        # the route of a cell depends on the cell alone: its 1 x 1 mesh gives the grid's
        # value but for the order of the sum
        grid = special.chi2nc_pdf(z[:, None], nu, lam[None, :])
        alone = np.array([[special.chi2nc_pdf(np.array([[zi]]), nu, np.array([[li]]))[0, 0]
                           for li in lam] for zi in z])
        np.testing.assert_allclose(grid, alone, rtol=1e-14, atol=0)

    def test_benchmark_numerators_never_reach_boost(self, monkeypatch):
        # the cir and rayleigh from_transition grids at n = 51 and the gamma = 1 closed form
        # at n = 101: only their 1-d denominators call Boost's density
        sizes = []

        def recording(z, nu, lam):
            sizes.append(np.broadcast(z, lam).size)
            return _ncx2_pdf(z, nu, lam)

        monkeypatch.setattr(special, "_ncx2_pdf", recording)
        cir = models.make_model("cir", {"alpha": 1.0, "beta": 1.0, "sigma": 0.8}, x0=1.2)
        ray = models.make_model("rayleigh", {"a": 1.0, "b": -0.5}, x0=1.0)
        for surface, n in ((copula.from_transition(cir, 0.8, 1.5), 51),
                           (copula.from_transition(ray, 0.8, 1.5), 51),
                           (copula.cir_closed_form(0.1, 1.0, 0.0, 30.0, 30.5), 101)):
            sizes.clear()
            assert np.all(np.isfinite(copula.grid_eval(surface, n)))
            assert sizes and max(sizes) == n


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
        from quad_oracle import integrate
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

    @pytest.mark.parametrize("nu, lam", [(6.25, 100.0), (625.0, 12.0), (0.5, 3.0), (2.0, 0.0)])
    def test_fixed_law_tail_quantiles_against_mpmath(self, mp30, nu, lam):
        # the tail points of test_tail_quantile_against_mpmath, embedded in an
        # array large enough for the fixed-law path
        tails = np.array([1e-12, 1e-9, 1.0 - 1e-9])
        p = np.concatenate([np.linspace(0.001, 0.999, special._FIXED_LAW_MIN_SIZE), tails])
        q = special.chi2nc_quantile(p, nu, lam)[-3:]
        for pi, qi in zip(tails, q):
            root = mp_chi2nc_quantile(pi, nu, lam, qi)
            width = 4.0 * np.spacing(pi) / float(mp_chi2nc_pdf(root, nu, lam))
            assert abs(qi - float(root)) <= 1e-12 * float(root) + width

    def test_unchecked_roots_come_from_chndtrix(self, monkeypatch):
        # F is flat in double precision in the far upper tail, so no residual
        # certifies a root there: those roots, and every root of a call whose
        # table is not strictly increasing, are chndtrix's
        calls = []

        def recording(p, nu, lam):
            calls.append(np.array(p, copy=True))
            return chndtrix(p, nu, lam)

        monkeypatch.setattr(special, "chndtrix", recording)
        n = special._FIXED_LAW_MIN_SIZE
        tails = np.array([1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15])
        p = np.concatenate([np.linspace(0.01, 0.99, n), tails])
        x = special.chi2nc_quantile(p, 625.0, 12.0)
        assert len(calls) == 2                      # the node table, then the redone roots
        np.testing.assert_array_equal(calls[1], tails)
        np.testing.assert_array_equal(x[-3:], chndtrix(tails, 625.0, 12.0))
        np.testing.assert_allclose(x[:n], chndtrix(p[:n], 625.0, 12.0), rtol=1e-12, atol=0)

        calls.clear()
        same = np.full(n, 0.3)                      # a table of one repeated node
        np.testing.assert_array_equal(special.chi2nc_quantile(same, 625.0, 12.0),
                                      chndtrix(same, 625.0, 12.0))
        np.testing.assert_array_equal(calls[-1], same)

    @pytest.mark.parametrize("nu, lam, z", [(5.0, 300.0, 0.1), (1.0, 1000.0, 1.0),
                                            (0.5, 200.0, 1e-3), (0.3, 150.0, 0.05)])
    def test_far_left_tail_cdf_against_mpmath(self, mp30, nu, lam, z):
        # chndtr returns 0 at the first three points, 7.0e-69, 3.0e-206 and 6.4e-45; the
        # last, 5.7e-33, is the integral at nu < 1, where the density is unbounded at 0
        ref = float(mp_chi2nc_tail(z, nu, lam, False))
        assert special.chi2nc_cdf(z, nu, lam) == pytest.approx(ref, rel=1e-12, abs=0)
        assert special.chi2nc_cdf(np.array([z, nu + lam]), nu, lam)[0] == pytest.approx(
            ref, rel=1e-12, abs=0)
        # z is the root for the rounded ref to within the width that rounding allows;
        # alone, among fixed-law points and with an array lam
        width = 4.0 * np.spacing(ref) / float(mp_chi2nc_pdf(z, nu, lam))
        n = special._FIXED_LAW_MIN_SIZE
        for q in (special.chi2nc_quantile(ref, nu, lam),
                  special.chi2nc_quantile(np.r_[np.linspace(0.01, 0.99, n), ref], nu, lam)[-1],
                  special.chi2nc_quantile(ref, nu, np.array([lam, 2.0 * lam]))[0]):
            assert abs(q - z) <= 1e-12 * z + width

    def test_far_left_tail_quantile_against_mpmath(self, mp30):
        # chndtrix returned 0.8898 here, where the root is 0.1000217
        q = special.chi2nc_quantile(7e-69, 5.0, 300.0)
        root = mp_chi2nc_quantile(7e-69, 5.0, 300.0, q)
        width = 4.0 * np.spacing(7e-69) / float(mp_chi2nc_pdf(root, 5.0, 300.0))
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
            invert_monotone_cdf(lambda x: (ndtr(x), None), 0.3, -50.0, 50.0, max_iter=3)

    def test_tolerance_relative_to_tail(self):
        # an absolute f_tol of 1e-9 would accept any x whose cdf is below 1.001e-9
        x = invert_monotone_cdf(lambda x: (ndtr(x), None), 1e-12, -50.0, 50.0, f_tol=1e-9)
        assert ndtr(x) == pytest.approx(1e-12, rel=1e-9, abs=0)


def test_import_loads_no_scipy_stats():
    # scipy.stats would add about half to the time and 15 MB to the memory of `import diffcop`;
    # scipy.integrate and scipy.interpolate load optimize, linalg and sparse, together about a
    # third of the time and 28 MB.  The console entry point imports diffcop.cli.
    src = str(Path(diffcop.__file__).resolve().parents[1])
    forbidden = ("scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy.optimize",
                 "scipy.linalg", "scipy.sparse")
    for module in ("diffcop", "diffcop.cli"):
        code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
                f"print(sorted(m for m in sys.modules if m.startswith({forbidden!r})))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]", module
