"""Property test of the fixed-law noncentral chi-square quantile path.

On both sides of the size threshold, `special.chi2nc_quantile` must agree
with scipy's per-element ``chndtrix`` to 1e-12 relative and be strictly
increasing in p.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.special import chndtrix  # noqa: E402

from diffcop import special  # noqa: E402

N = special._FIXED_LAW_MIN_SIZE
P_MIN = 1e-15


@settings(derandomize=True, deadline=None, max_examples=60)
@given(nu=st.floats(0.3, 700.0), lam=st.floats(0.0, 200.0),
       size=st.sampled_from([N - 1, N, 4 * N]),
       picks=st.lists(st.floats(P_MIN, 1.0 - P_MIN), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fixed_law_quantile_matches_chndtrix(nu, lam, size, picks, seed):
    # hypothesis picks a few p, including the ends of the range; the rest are
    # spread over the same range, uniform in z = Phi^{-1}(p)
    z = np.random.default_rng(seed).uniform(-7.9, 7.9, size - len(picks))
    p = np.clip(np.concatenate([picks, special.norm_cdf(z)]), P_MIN, 1.0 - P_MIN)
    x = special.chi2nc_quantile(p, nu, lam)
    np.testing.assert_allclose(x, chndtrix(p, nu, lam), rtol=1e-12, atol=0.0)
    # p closer than 1e-9 relative pin their quantiles only to the 1e-13 of a
    # checked root (chndtrix gives 1e-15 and 1.0000000000000003e-15 one quantile)
    ps, order = np.unique(p, return_index=True)
    apart = np.diff(ps) > 1e-9 * np.minimum(ps[:-1], 1.0 - ps[1:])
    assert np.all(np.diff(x[order])[apart] > 0.0)
