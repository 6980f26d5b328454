"""The shared numerical kernels: the clock, the monotone solver, the Hermite table and the
Gauss-Legendre engine."""

import math

import mpmath as mp
import numpy as np
import pytest

from diffcop import builtin_chain, make_model, special
from diffcop._numerics import (clock, clock_inv, hermite_eval, hermite_table, integrate,
                               invert_monotone_cdf)
from diffcop.errors import DomainError, NumericsError


CLOCK_RATES = (-5.0, -1e-9, -1e-300, 0.0, 1e-300, 1e-9, 5.0)
CLOCK_TIMES = (1e-12, 1.0, 100.0, math.inf)


def _mp_clock(a, t):
    """(e^{a t} - 1)/a in 40 digits: t at a = 0, and its limit at t = inf."""
    with mp.workdps(40):
        a, t = mp.mpf(a), mp.mpf(t)
        if a == 0:
            return t
        return (mp.inf if a > 0 else -1 / a) if mp.isinf(t) else mp.expm1(a * t) / a


@pytest.mark.parametrize("a", CLOCK_RATES)
@pytest.mark.parametrize("t", CLOCK_TIMES)
def test_clock_matches_mpmath(a, t):
    exact = _mp_clock(a, t)
    if mp.isinf(exact):
        assert clock(a, t) == math.inf
    else:
        assert clock(a, t) == pytest.approx(float(exact), rel=1e-15, abs=0)


# where 1 + a tau = e^{a t} < 1/2, log1p(a tau) amplifies the rounding of tau: left out
@pytest.mark.parametrize("a, t", [(a, t) for a in CLOCK_RATES for t in CLOCK_TIMES[:-1]
                                  if a * t >= -math.log(2.0)])
def test_clock_inv_matches_mpmath_and_round_trips(a, t):
    tau = clock(a, t)
    with mp.workdps(40):
        exact = mp.mpf(tau) if a == 0 else mp.log1p(mp.mpf(a) * mp.mpf(tau)) / a
    assert clock_inv(a, tau) == pytest.approx(float(exact), rel=1e-15, abs=0)
    assert clock_inv(a, tau) == pytest.approx(t, rel=1e-15, abs=0)


@pytest.mark.parametrize("a, tau", [(-5.0, 0.2), (-5.0, 0.3), (-1.0, math.inf), (2.0, -0.5)])
def test_clock_inv_rejects_times_beyond_the_horizon(a, tau):
    with pytest.raises(DomainError):
        clock_inv(a, tau)


@pytest.mark.parametrize("call", [
    lambda: clock(1.0, 710.0),
    lambda: clock(-2.0, -400.0),
    lambda: make_model("ou", {"alpha": -1.0, "beta": 0.0, "sigma": 1.0}, x0=0.0).kernel.pdf(
        0.0, 0.0, 500.0, 0.0),
    lambda: builtin_chain("ou_to_bm", alpha=1.0, beta=0.0, sigma=1.0).phi(400.0)])
def test_clock_overflow_is_a_domain_error(call):
    # past a t = 709.78 e^{a t} overflows; the error is typed and names a t
    with pytest.raises(DomainError, match="a t = "):
        call()


@pytest.mark.parametrize("f, exact", [
    (lambda y, _: y ** -0.5, 2.0 * math.sqrt(2.0)),
    (lambda y, _: special.chi2nc_pdf(y, 1.0, 0.0), math.erf(1.0)),   # P(chi2_1 <= 2)
], ids=["inverse_sqrt", "chi2_nu1"])
def test_integrable_singularity_at_an_end_converges(f, exact):
    # both integrands grow like y^(-1/2) at 0, which takes about 125 bisections toward it
    assert float(integrate(f, 0.0, 2.0, 0.0)) == pytest.approx(exact, rel=1e-10, abs=0)


@pytest.mark.parametrize("nu, lam", [(1.0, 0.0), (4.0, 10.0), (25.0, 100.0)])
def test_upper_tail_by_the_half_infinite_map(nu, lam):
    mid = nu + lam
    tail = integrate(lambda z, _: special.chi2nc_pdf(z, nu, lam), mid, np.inf, mid)
    assert float(tail) == pytest.approx(1.0 - special.chi2nc_cdf(mid, nu, lam), rel=1e-10, abs=0)


def test_lower_infinite_end():
    half = integrate(lambda z, _: special.norm_pdf(z), -np.inf, 0.0, -1.0)
    assert float(half) == pytest.approx(0.5, rel=1e-12, abs=0)


def test_reversed_bounds_negate():
    f = lambda y, _: np.exp(-y) * (1.0 + y * y)
    ends = np.array([2.0, 0.5, np.inf])
    forward = integrate(f, 0.0, ends, 0.0)
    np.testing.assert_array_equal(integrate(f, ends, 0.0, 0.0), -forward)
    assert forward[2] == pytest.approx(3.0, rel=1e-11, abs=0)


def test_nonintegrable_singularity_raises():
    with pytest.raises(NumericsError):
        integrate(lambda y, _: 1.0 / y, 0.0, 1.0, 0.0)


def test_two_infinite_ends_are_rejected():
    with pytest.raises(DomainError):
        integrate(lambda y, _: special.norm_pdf(y), -np.inf, np.inf, 0.0)


def _inside_only(f, lo, hi):
    """``f``, failing the test when called at a point outside the open interval (lo, hi)."""
    def guarded(x):
        x = np.asarray(x, dtype=float)
        assert np.all((lo < x) & (x < hi)), f"evaluated outside ({lo}, {hi})"
        return f(x)
    return guarded


def _law(cdf, pdf=None):
    """The ``(cdf, pdf)`` pair that `invert_monotone_cdf` evaluates.  Bracket growth reads
    the cdf alone, so a law whose solve fails there may leave pdf None."""
    return lambda x: (cdf(x), None if pdf is None else pdf(x))


@pytest.mark.parametrize("p", [1e-12, 0.3, 1.0 - 1e-9])
def test_solver_grows_toward_finite_bounds_without_reaching_them(p):
    # x^2 on (0, 1) from the point bracket [0.5, 0.5]: each side halves its way toward its bound
    x = invert_monotone_cdf(_inside_only(_law(np.square, lambda x: 2.0 * x), 0.0, 1.0), p,
                            0.5, 0.5, bounds=(0.0, 1.0))
    assert x * x == pytest.approx(p, rel=1e-12, abs=0)


def test_solver_never_evaluates_an_end_on_its_bound():
    p = np.array([1e-10, 0.5, 0.999])
    x = invert_monotone_cdf(_inside_only(_law(lambda x: -np.expm1(-x), lambda x: np.exp(-x)),
                                         0.0, np.inf), p, 0.0, 1.0, bounds=(0.0, np.inf))
    np.testing.assert_allclose(x, -np.log1p(-p), rtol=1e-12, atol=0)


def test_solver_reaches_a_far_target_of_log():
    # the lower end halves from 5 toward the bound 0 until log(lo) <= -20
    x = invert_monotone_cdf(_inside_only(_law(np.log, lambda x: 1.0 / x), 0.0, np.inf), -20.0,
                            5.0, 6.0, bounds=(0.0, np.inf))
    assert x == pytest.approx(math.exp(-20.0), rel=1e-13, abs=0)


@pytest.mark.parametrize("law, p, bounds", [
    (_law(special.norm_cdf), 1.5, (-np.inf, np.inf)),      # 200 moves toward +inf
    (_inside_only(_law(np.square), 0.0, 1.0), 2.0, (0.0, 1.0)),    # the upper end would land on 1
    (_inside_only(_law(np.square), 0.0, 1.0), -1.0, (0.0, 1.0)),   # 200 halvings toward 0
], ids=["infinite_bound", "finite_upper", "finite_lower"])
def test_solver_rejects_an_unreachable_target(law, p, bounds):
    with pytest.raises(NumericsError, match="bracket growth failed"):
        invert_monotone_cdf(law, p, 0.5, 0.5, bounds=bounds)


def test_solver_starts_at_start_inside_per_root_bounds():
    # each root gets its own bracket, with both ends on its bounds: no end is evaluated,
    # and the first evaluation is at the start
    p = np.array([0.1, 0.5, 0.9])
    root = special.norm_quantile(p)
    lo, hi = root - np.array([0.5, 0.1, 0.2]), root + np.array([0.1, 0.3, 0.05])
    seen = []

    def law(x):
        assert np.all((lo < x) & (x < hi)), "evaluated outside the bounds"
        seen.append(x.copy())
        return special.norm_cdf(x), special.norm_pdf(x)
    start = root + 1e-3
    x = invert_monotone_cdf(law, p, lo, hi, start, bounds=(lo, hi), f_tol=1e-13)
    np.testing.assert_array_equal(seen[0], start)
    np.testing.assert_allclose(x, root, rtol=1e-14, atol=1e-15)


def test_solver_takes_the_last_evaluations_newton_step():
    # a start 1e-4 off meets f_tol = 1e-3 at once; the Newton step of that one evaluation,
    # taken without another, leaves the root about 1e-8 off
    p = np.array([0.2, 0.7])
    root = special.norm_quantile(p)
    calls = []

    def law(x):
        calls.append(x)
        return special.norm_cdf(x), special.norm_pdf(x)
    x = invert_monotone_cdf(law, p, root - 0.1, root + 0.1, root * (1.0 + 1e-4),
                            bounds=(root - 0.1, root + 0.1), f_tol=1e-3)
    assert len(calls) == 1
    np.testing.assert_allclose(x, root, rtol=1e-7, atol=0)


def test_solver_returns_a_float_for_a_scalar_and_the_shape_of_an_array():
    solve = lambda p: invert_monotone_cdf(_law(special.norm_cdf, special.norm_pdf), p, -1.0, 1.0)
    for p in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(solve(p)) is float
    p = np.array([[0.1, 0.5], [0.9, 1e-6]])
    x = solve(p)
    assert isinstance(x, np.ndarray) and x.shape == (2, 2)
    assert np.all(np.abs(special.norm_cdf(x) - p) <= 1e-12 * np.minimum(p, 1.0 - p))
    assert solve(np.array([0.3])).shape == (1,)


@pytest.mark.parametrize("degree", [3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hermite_table_reproduces_polynomials_of_its_degree(degree, seed):
    # from y and y' the cubic, with y'' too the quintic: each is exact on a polynomial of its
    # degree, cell by cell, on uneven nodes
    rng = np.random.default_rng(seed)
    poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
    x = -2.0 + np.cumsum(rng.uniform(0.05, 1.0, 9))
    table = hermite_table(x, poly(x), poly.deriv()(x), poly.deriv(2)(x) if degree == 5 else None)
    assert table.shape == (degree + 1, x.size - 1)
    k = np.repeat(np.arange(x.size - 1), 9)
    t = np.tile(np.linspace(0.0, 1.0, 9), x.size - 1)
    h = (x[1:] - x[:-1])[k]
    y, slope = hermite_eval(table, k, t)
    at = x[k] + t * h
    np.testing.assert_allclose(y, poly(at), rtol=1e-12, atol=1e-12 * np.abs(poly(at)).max())
    exact = poly.deriv()(at)
    np.testing.assert_allclose(slope / h, exact, rtol=1e-12, atol=1e-12 * np.abs(exact).max())
