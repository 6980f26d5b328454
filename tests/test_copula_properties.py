"""Property tests of copula surfaces over their parameter domains."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diffcop import copula  # noqa: E402


@settings(max_examples=12, deadline=None, derandomize=True)
@given(gamma=st.floats(0.5, 700.0), x0=st.one_of(st.just(0.0), st.floats(0.01, 20.0)),
       s=st.floats(0.05, 40.0), lag=st.floats(0.01, 15.0))
def test_cir_mesh_matches_pointwise(gamma, x0, s, lag):
    # the broadcast mesh and one scalar call per cell must agree to round-off
    surf = copula.cir_closed_form(0.1, gamma, x0, s, s + lag)
    n = 4
    mids = (np.arange(n) + 0.5) / n
    grid = copula.grid_eval(surf, n)
    cond = surf.conditional(mids[None, :], mids[:, None])
    assert np.all(np.isfinite(grid)) and np.all(grid >= 0.0)
    assert np.all(np.diff(cond, axis=0) >= 0.0)          # rows index v
    for i, v in enumerate(mids):
        for j, u in enumerate(mids):
            assert grid[i, j] == pytest.approx(surf.density(u, v), rel=1e-14, abs=0.0)
            assert cond[i, j] == pytest.approx(surf.conditional(u, v), rel=1e-14, abs=0.0)
