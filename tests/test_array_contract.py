"""The array contract over the public API: an array call equals a loop of scalar calls.

Every name in `diffcop.__all__` is either given array cases or a reason why it
has none, and the table must cover `__all__` exactly, so a new public name has
to be classified.  A case is a callable of one argument and a 2-d array of
points for it; the array call must keep the shape and equal, bit for bit, one
scalar call per point.  Arrays stay under 256 points: larger `chi2nc_quantile`
requests take the checked fixed-law table, which matches the scalar route only
to 1e-12 (tests/test_quantile_properties.py).
"""

import numpy as np
import pytest

import diffcop as dc
from diffcop import uniformize

from test_uniformize import ALL_MODELS as CATALOG, without_derivatives

P = np.linspace(0.02, 0.98, 15).reshape(3, 5)        # probabilities and copula coordinates
Z = np.linspace(-3.0, 3.0, 15).reshape(3, 5)         # real states
POS = np.geomspace(0.05, 8.0, 15).reshape(3, 5)      # positive states
T = np.linspace(0.1, 2.5, 15).reshape(3, 5)          # times


def _model(name):
    params, x0 = CATALOG[name]
    return dc.make_model(name, params, x0=x0)


def _states(model):
    return Z if model.interval[0] == -np.inf else POS


def _make_model_cases():
    cases = []
    for name in CATALOG:
        model = _model(name)
        marg, xs = model.marginal(1.3), _states(model)
        cases += [(f"{name}.marginal.pdf", marg.pdf, xs), (f"{name}.marginal.cdf", marg.cdf, xs),
                  (f"{name}.marginal.quantile", marg.quantile, P),
                  (f"{name}.marginal.pdf_dx", marg.pdf_dx, xs),
                  (f"{name}.spec.drift", lambda x, m=model: m.spec.drift(x, 1.3), xs),
                  (f"{name}.spec.diffusion", lambda x, m=model: m.spec.diffusion(x, 1.3), xs)]
        if marg.cdf_dt is not None:
            cases.append((f"{name}.marginal.cdf_dt", marg.cdf_dt, xs))
        law = model.stationary
        if law is not None:
            cases += [(f"{name}.stationary.{fn}", getattr(law, fn), P if fn == "quantile" else xs)
                      for fn in ("pdf", "cdf", "quantile", "pdf_dx")]
    return cases


def _marginal_cases(label, marg, xs):
    return [(f"{label}.pdf", marg.pdf, xs), (f"{label}.cdf", marg.cdf, xs),
            (f"{label}.quantile", marg.quantile, P)]


def _family_cases(label, family, xs):
    return [(f"{label}.cdf", lambda x: family(1.3).cdf(x), xs),
            (f"{label}.pdf", lambda x: family(1.3).pdf(x), xs),
            (f"{label}.quantile", lambda p: family(1.3).quantile(p), P)]


def _recombine_cases():
    source, target = _model("ou"), _model("cir")
    z = dc.recombine(source, dc.model_marginal_family(target), probe_time=1.3)
    return [("ou_to_cir.map", lambda x: z.map(1.3, x), Z),
            ("ou_to_cir.inverse_map", lambda y: z.inverse_map(1.3, y), POS),
            ("ou_to_cir.transition_pdf", lambda y: z.transition_pdf(0.8, 1.1, 1.3, y), POS),
            ("ou_to_cir.transition_cdf", lambda y: z.transition_cdf(0.8, 1.1, 1.3, y), POS)]


def _uniformized_cases():
    cases = [(name, lambda u, m=_model(name): dc.uniformized_coefficients(m, u, 1.3), P)
             for name in CATALOG]
    fd = without_derivatives(_model("ou"))
    cases.append(("ou_by_differences", lambda u: dc.uniformized_coefficients(fd, u, 1.3), P))
    return cases


def _transform_cases(label, transform, xs):
    cases = [(f"{label}.psi", lambda x: transform.psi(1.3, x), xs),
             (f"{label}.jacobian", lambda x: transform.jacobian(1.3, x), xs),
             (f"{label}.phi", transform.phi, T), (f"{label}.phi_inv", transform.phi_inv, T)]
    for k, piece in enumerate(transform.pieces):
        ys = transform.psi(1.3, np.clip(xs, piece.lo + 0.01, piece.hi - 0.01))
        cases.append((f"{label}.pieces[{k}].inverse", lambda y, p=piece: p.inverse(1.3, y), ys))
    return cases


CHAINS = {"ou_to_bm": ({"alpha": 1.0, "beta": 0.5, "sigma": 0.9}, Z),
          "bm_to_special_cir": ({"alpha": 0.6, "sigma": 1.1}, Z),
          "cir_to_rayleigh": ({"sigma": 0.8}, POS),
          "rayleigh_to_bessel": ({"b": -0.5}, POS),
          "cir_to_bessel": ({"alpha": 1.0, "sigma": 0.8}, POS)}

RANDOM = "draws from an rng: an array call and a scalar loop consume the stream differently"
SURFACE = ("surface constructor: tests/test_copula.py::test_grid_eval_matches_pointwise "
           "checks its density and conditional meshes against pointwise calls")
GRID = "evaluates a whole grid given by its size or edges, not pointwise values"
RECORD = "data record without point-valued methods"

TABLE = {
    # special functions
    "norm_pdf": [("z", dc.norm_pdf, Z)],
    "norm_cdf": [("z", dc.norm_cdf, Z)],
    "norm_quantile": [("p", dc.norm_quantile, P)],
    "bessel_i": [("z", lambda x: dc.bessel_i(1.25, x), POS)],
    "chi2nc_pdf": [("z", lambda x: dc.chi2nc_pdf(x, 3.0, 4.0), POS),
                   ("lambda", lambda lam: dc.chi2nc_pdf(2.0, 3.0, lam), POS)],
    "chi2nc_cdf": [("z", lambda x: dc.chi2nc_cdf(x, 3.0, 4.0), POS),
                   ("lambda", lambda lam: dc.chi2nc_cdf(2.0, 3.0, lam), POS)],
    "chi2nc_quantile": [("p", lambda p: dc.chi2nc_quantile(p, 3.0, 4.0), P),
                        ("lambda", lambda lam: dc.chi2nc_quantile(0.3, 3.0, lam), POS)],
    "chi2nc_pdf_bessel_form": [("z", lambda x: dc.chi2nc_pdf_bessel_form(x, 3.0, 4.0), POS)],
    # models
    "make_model": _make_model_cases(),
    "Model": "built by make_model, whose cases cover its marginals, coefficients and "
             "stationary law",
    "DiffusionSpec": "coefficient record: make_model's cases cover the catalog coefficients",
    "PathEnsemble": RECORD,
    "sample_transition": RANDOM,
    "simulate_paths": RANDOM,
    "euler_maruyama": RANDOM,
    # copula surfaces
    "CopulaSurface": SURFACE,
    "from_transition": SURFACE,
    "gaussian_closed_form": SURFACE,
    "ou_closed_form": SURFACE,
    "rbm_closed_form": SURFACE,
    "cir_closed_form": SURFACE,
    "independence_surface": SURFACE,
    "nonmonotone_copula": SURFACE,
    "grid_eval": GRID,
    "cdf_on_grid": GRID,
    "cell_masses": GRID,
    # space-time transformations
    "SpaceTimeTransform": "transform record: the constructors' cases cover psi, jacobian "
                          "and the piece inverses",
    "MonotonePiece": "piece record: the constructors' cases cover the piece inverses",
    "identity_transform": _transform_cases("identity", dc.identity_transform(), Z),
    "absolute_value": _transform_cases("abs", dc.absolute_value(), Z),
    "builtin_chain": [case for name, (params, xs) in CHAINS.items()
                      for case in _transform_cases(name, dc.builtin_chain(name, **params), xs)],
    "compose": _transform_cases("cir_to_rayleigh_to_bessel", dc.compose(
        dc.builtin_chain("rayleigh_to_bessel", b=-0.5),
        dc.builtin_chain("cir_to_rayleigh", sigma=0.8)), POS),
    "wiener_stt": _transform_cases("ou", dc.wiener_stt(_model("ou").spec, -1.0, 0.5 / 0.9), Z),
    "push_transition": _marginal_cases("cir_to_bessel", dc.push_transition(
        _model("cir"), dc.builtin_chain("cir_to_bessel", alpha=1.0, sigma=0.8)).marginal(1.3),
        POS),
    "pushforward_marginal": _marginal_cases("abs_bm", dc.pushforward_marginal(
        _model("bm"), dc.absolute_value(), 1.3), POS),
    "preimage_weights": "takes one scalar level by contract and rejects arrays with DomainError",
    "wiener_transformability_check": "returns a verdict and the worst residual over its grid",
    # recombination
    "model_marginal_family": _family_cases("cir", dc.model_marginal_family(_model("cir")), POS),
    "tabulated_marginal_family": _family_cases("table", dc.tabulated_marginal_family(
        np.linspace(0.0, 10.0, 21), dc.norm_cdf((np.linspace(0.0, 10.0, 21) - 5.0) / 2.0)), POS),
    "recombine": _recombine_cases(),
    "RecombinedProcess": "built by recombine, whose cases cover its maps and kernel",
    "first_passage_times": RANDOM,
    "FirstPassageSample": RECORD,
    # uniformized process and empirical copulas
    "uniformized_coefficients": _uniformized_cases(),
    "stationary_uniformized_coefficients": [
        (name, lambda u, m=_model(name): dc.stationary_uniformized_coefficients(m, u), P)
        for name in CATALOG if _model(name).stationary is not None],
    "kolmogorov_copula_residual": "returns the worst residual over its (u, v) grid",
    "simulate_uniformized": RANDOM,
    "EmpiricalCopula": "built by empirical_copula, whose cases cover its cdf",
    "empirical_copula": [("cdf", lambda u: dc.empirical_copula(
        *np.random.default_rng(5).random((2, 200))).cdf(u, 0.6), P)],
    "pseudo_observations": "ranks a whole sample: each value depends on all the others",
    "ks_statistic": "reduces a whole sample to one distance",
    # errors
    "DomainError": "exception type",
    "NumericsError": "exception type",
}

# public functions of submodules that `diffcop` does not export
SUBMODULE = {
    "uniformize.conditional_du": [
        ("rbm", lambda u: uniformize.conditional_du(dc.rbm_closed_form(1.0, 2.0), u, 0.6), P)],
}

CASES = [pytest.param(fn, xs, id=f"{name}:{label}")
         for name, entry in {**TABLE, **SUBMODULE}.items() if not isinstance(entry, str)
         for label, fn, xs in entry]


def test_table_covers_all_public_names():
    assert set(TABLE) == set(dc.__all__)
    for name, entry in TABLE.items():
        assert entry, f"{name} has neither cases nor a reason"


@pytest.mark.parametrize("fn, xs", CASES)
def test_array_call_equals_scalar_loop(fn, xs):
    assert xs.size < 256
    out = fn(xs)
    loop = [fn(float(x)) for x in xs.ravel()]
    if not isinstance(out, tuple):          # the uniformized coefficients are (drift, diffusion)
        out, loop = (out,), [(value,) for value in loop]
    assert all(isinstance(v, float) for value in loop for v in value)
    for k, got in enumerate(out):
        assert np.shape(got) == xs.shape
        np.testing.assert_array_equal(got, np.reshape([value[k] for value in loop], xs.shape))
