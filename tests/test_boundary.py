"""Checks at the public boundary: NaN and out-of-domain input raise `DomainError`.

Inside the package the special-function cores and the kernels' bound laws run
unchecked on arrays their callers made or checked already, so every check
lives at an entry a user reaches.  One case per entry and bad argument: every
public `special` function, every method of each catalog model's marginal and
stationary law, every method of every kernel (catalog, pushed and recombined,
at a NaN state x or start y, and at p outside (0, 1)), and the density,
conditional and CDF of each kind of copula surface at a NaN or out-of-[0, 1]
coordinate.
"""

import math

import numpy as np
import pytest

from diffcop import copula, special
from diffcop.errors import DomainError

from test_models import CATALOG, build, every_kernel

NAN = math.nan
P_OUTSIDE = (0.0, 1.0, 1.5, -0.5, NAN)


def _special_cases():
    s = special
    cases = [("norm_pdf", s.norm_pdf, (NAN,)), ("norm_cdf", s.norm_cdf, (NAN,)),
             ("bessel_i", s.bessel_i, (1.0, NAN)), ("bessel_i.z<0", s.bessel_i, (1.0, -1.0))]
    cases += [(f"norm_quantile.p={p}", s.norm_quantile, (p,)) for p in P_OUTSIDE]
    for name in ("chi2nc_pdf", "chi2nc_cdf", "chi2nc_pdf_bessel_form"):
        fn = getattr(s, name)
        cases += [(f"{name}.z=nan", fn, (NAN, 2.0, 1.0)), (f"{name}.z<0", fn, (-1.0, 2.0, 1.0)),
                  (f"{name}.lam=nan", fn, (1.0, 2.0, NAN)), (f"{name}.nu=nan", fn, (1.0, NAN, 1.0))]
    cases += [(f"chi2nc_quantile.p={p}", s.chi2nc_quantile, (p, 2.0, 1.0)) for p in P_OUTSIDE]
    cases += [("chi2nc_quantile.lam=nan", s.chi2nc_quantile, (0.5, 2.0, NAN))]
    return [(f"special.{label}", fn, args) for label, fn, args in cases]


def _law_cases(label, law):
    cases = []
    for method in ("pdf", "cdf", "pdf_dx", "cdf_dt"):
        fn = getattr(law, method)
        if fn is not None:
            cases += [(f"{label}.{method}.x=nan", fn, (NAN,)),
                      (f"{label}.{method}.x=[1,nan]", fn, (np.array([1.0, NAN]),))]
    cases += [(f"{label}.quantile.p={p}", law.quantile, (p,)) for p in P_OUTSIDE]
    cases.append((f"{label}.quantile.p=[0.5,2]", law.quantile, (np.array([0.5, 2.0]),)))
    return cases


def _model_cases():
    cases = []
    for name in CATALOG:
        model = build(name)
        cases += _law_cases(f"{name}.marginal", model.marginal(1.3))
        if model.stationary is not None:
            cases += _law_cases(f"{name}.stationary", model.stationary)
    return cases


def _kernel_cases():
    cases = []
    for label, k in every_kernel().items():
        for method in ("pdf", "cdf", "pdf_dx", "cdf_dt"):
            fn = getattr(k, method)
            if fn is not None:
                cases += [(f"kernel.{label}.{method}.x=nan", fn, (0.5, 1.0, 1.5, NAN)),
                          (f"kernel.{label}.{method}.y=nan", fn, (0.5, NAN, 1.5, 1.0))]
        cases += [(f"kernel.{label}.quantile.p={p}", k.quantile, (0.5, 1.0, 1.5, p))
                  for p in P_OUTSIDE]
        cases.append((f"kernel.{label}.quantile.y=nan", k.quantile, (0.5, NAN, 1.5, 0.5)))
    return cases


def _surface_cases():
    ou = build("ou")
    surfaces = {"gaussian": copula.gaussian_closed_form(1.0, 2.0),
                "ou": copula.ou_closed_form(0.5, 1.0, 2.0),
                "rbm": copula.rbm_closed_form(1.0, 2.0),
                "cir": copula.cir_closed_form(0.1, 5.0, 1.0, 1.0, 2.0),
                "from_transition_ou": copula.from_transition(ou, 1.0, 2.0),
                "independence": copula.independence_surface()}
    cases = []
    for label, surf in surfaces.items():
        for method in ("density", "conditional", "cdf"):
            fn = getattr(surf, method)
            for bad in (NAN, 1.5, -0.5):
                cases += [(f"surface.{label}.{method}.u={bad}", fn, (bad, 0.5)),
                          (f"surface.{label}.{method}.v={bad}", fn, (0.5, bad))]
    return cases


CASES = _special_cases() + _model_cases() + _kernel_cases() + _surface_cases()


@pytest.mark.parametrize("fn, args", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
def test_public_entry_rejects_nan_and_out_of_domain_input(fn, args):
    with pytest.raises(DomainError):
        fn(*args)
