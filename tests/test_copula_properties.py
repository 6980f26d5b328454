"""Property tests of copula surfaces over their parameter domains."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from diffcop import copula, models, stt  # noqa: E402


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


CLOSED_FORMS = {
    "gaussian": lambda alpha, s, t: copula.gaussian_closed_form(s, t),
    "ou": copula.ou_closed_form,
    "rbm": lambda alpha, s, t: copula.rbm_closed_form(s, t),
}
# multiples of 2^-20, so that u + v - 1 is exact; 0 and 1 included
UNIT = st.integers(0, 2 ** 20).map(lambda i: i / 2 ** 20)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CLOSED_FORMS)), alpha=st.floats(-0.5, 2.0),
       lag=st.floats(-4.0, math.log10(99.0)).map(lambda e: 10.0 ** e),
       us=st.lists(UNIT, min_size=3, max_size=3), vs=st.lists(UNIT, min_size=3, max_size=3))
def test_closed_form_cdf_matches_quadrature(name, alpha, lag, us, vs):
    surf = CLOSED_FORMS[name](alpha, 1.0, 1.0 + lag)
    assume(surf._cdf_core is not None)                   # rbm has one below rho = 0.925 only
    _check_cdf_core(surf, us, vs)


_NEGATE = stt.SpaceTimeTransform(
    phi=lambda t: t, phi_inv=lambda tau: tau,
    psi=lambda t, x: -np.asarray(x, dtype=float),
    jacobian=lambda t, x: -np.ones_like(np.asarray(x, dtype=float)),
    pieces=(stt.MonotonePiece(-np.inf, np.inf, lambda t, y: -np.asarray(y, dtype=float), False),),
    name="negate")
_OU_P = {"beta": 0.5, "sigma": 0.9}
# catalog models whose kernels report the Gaussian copula, and monotone pushes of them
GAUSSIAN_KERNELS = {
    "bm": lambda alpha: models.make_model("bm", x0=0.3),
    "bm_drift": lambda alpha: models.make_model("bm_drift", {"mu": 0.3, "sigma": 1.2}, x0=0.5),
    "gbm": lambda alpha: models.make_model("gbm", {"mu": 0.1, "sigma": 0.4}, x0=1.0),
    "ou": lambda alpha: models.make_model("ou", {"alpha": alpha, **_OU_P}, x0=0.2),
    # alpha in [-0.51, -0.01]: 1 - rho^2 stays above about lag / 2, where the quadrature that
    # the core is checked against resolves the step of C(v | w) at short lags
    "ou_explosive": lambda alpha: models.make_model(
        "ou", {"alpha": -0.01 - abs(alpha) / 4.0, **_OU_P}, x0=0.2),
    "ou_t0": lambda alpha: models.make_model("ou", {"alpha": alpha, **_OU_P}, x0=0.2, t0=0.4),
    "push_ou_to_bm": lambda alpha: stt.push_transition(
        models.make_model("ou", {"alpha": 1.0, **_OU_P}, x0=0.2),
        stt.builtin_chain("ou_to_bm", alpha=1.0, **_OU_P)),
    "push_negate": lambda alpha: stt.push_transition(
        models.make_model("bm_drift", {"mu": 0.3, "sigma": 1.2}, x0=0.5), _NEGATE),
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(GAUSSIAN_KERNELS)), alpha=st.floats(-0.5, 2.0),
       lag=st.floats(-4.0, math.log10(99.0)).map(lambda e: 10.0 ** e),
       us=st.lists(UNIT, min_size=3, max_size=3), vs=st.lists(UNIT, min_size=3, max_size=3))
def test_from_transition_cdf_matches_quadrature(name, alpha, lag, us, vs):
    surf = copula.from_transition(GAUSSIAN_KERNELS[name](alpha), 1.0, 1.0 + lag)
    assert surf._cdf_core is not None
    _check_cdf_core(surf, us, vs)


def _check_cdf_core(surf, us, vs):
    # the CDF core against the same surface without it, which integrates its conditional
    bare = copula.CopulaSurface(surf._density_core, surf._conditional_core,
                                time_pair=surf.time_pair, provenance=surf.provenance)
    u, v = np.array(us)[:, None], np.array(vs)[None, :]
    got, quad = surf.cdf(u, v), bare.cdf(u, v)
    seen = quad >= 1e-4
    np.testing.assert_allclose(got[seen], quad[seen], rtol=1e-9, atol=0.0)
    # the Frechet bounds, and cell masses that are probabilities
    assert np.all(np.maximum(u + v - 1.0, 0.0) <= got) and np.all(got <= np.minimum(u, v))
    masses = copula.cell_masses(surf, 20)
    assert np.all(masses >= 0.0)
    assert abs(masses.sum() - 1.0) <= 1e-13
