"""Property test of the cir-family draw, `models.Ncx2Kernel.sample`.

Above one degree of freedom a draw is chi2_{df-1} + (Z + sqrt(lam))^2; at or
below it, the Poisson mixture chi2_{df + 2N}, N ~ Poisson(lam/2).  Either way
the draws must follow chi2nc(df, lam): a Kolmogorov-Smirnov distance against
`special.chi2nc_cdf` below its 1e-4 critical value, and the mean df + lam and
variance 2 (df + 2 lam) within six standard errors.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diffcop import models, special  # noqa: E402

N = 4000
KS_CRIT = math.sqrt(-math.log(0.5e-4) / (2 * N))    # the asymptotic 1e-4 level


def _draws(df, lam, seed):
    # alpha = 0, sigma = 2 and a lag of 1 give 2c = 4 / (sigma^2 * 1) = 1, so the state is
    # the chi2nc(df, lam) variate itself, with lam = 2c y = y
    kernel = models.Ncx2Kernel(df, 0.0, 2.0)
    return kernel.sample(0.0, lam, 1.0, np.random.default_rng(seed), size=N)


def _check_law(x, df, lam):
    assert x.shape == (N,) and np.all(x >= 0.0)
    x = np.sort(x)
    f = special.chi2nc_cdf(x, df, lam)
    i = np.arange(1, N + 1)
    ks = max(np.max(i / N - f), np.max(f - (i - 1) / N))
    assert ks <= KS_CRIT
    mean, var = df + lam, 2.0 * (df + 2.0 * lam)
    kurt = 12.0 * (df + 4.0 * lam) / (df + 2.0 * lam) ** 2          # excess kurtosis
    assert abs(x.mean() - mean) <= 6.0 * math.sqrt(var / N)
    assert abs(x.var(ddof=1) - var) <= 6.0 * var * math.sqrt((2.0 + kurt) / N)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(df=st.floats(1.0, 1000.0, exclude_min=True), lam=st.floats(0.0, 1e4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normal_route_draws_follow_the_law(df, lam, seed):
    _check_law(_draws(df, lam, seed), df, lam)


@pytest.mark.parametrize("df", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("lam", [0.0, 3.0, 100.0])
def test_mixture_route_draws_follow_the_law(df, lam):
    _check_law(_draws(df, lam, 7), df, lam)
