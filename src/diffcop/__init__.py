"""diffcop: copula structure of one-dimensional diffusion processes.

Exact transition kernels for a catalog of tractable diffusions, their copula
surfaces, the uniformized (probability-integral-transformed) process calculus,
monotone and piecewise-monotone space-time transformations, and marginal
recombination for building new diffusions from a prescribed copula and
prescribed marginals.
"""

from .copula import (CopulaSurface, cdf_on_grid, cell_masses, cir_closed_form,
                     from_transition, gaussian_closed_form, grid_eval,
                     independence_surface, ou_closed_form, rbm_closed_form)
from .errors import DomainError, NumericsError
from .models import (DiffusionSpec, Model, PathEnsemble, euler_maruyama, make_model,
                     sample_transition, simulate_paths)
from .recombine import (FirstPassageSample, RecombinedProcess, first_passage_times,
                        model_marginal_family, recombine, tabulated_marginal_family)
from .special import (bessel_i, chi2nc_cdf, chi2nc_pdf, chi2nc_pdf_bessel_form,
                      chi2nc_quantile, norm_cdf, norm_pdf, norm_quantile)
from .stt import (MonotonePiece, SpaceTimeTransform, absolute_value, builtin_chain,
                  compose, identity_transform, nonmonotone_copula,
                  preimage_weights, push_transition, pushforward_marginal,
                  wiener_stt, wiener_transformability_check)
from .uniformize import (EmpiricalCopula, empirical_copula, kolmogorov_copula_residual,
                         ks_statistic, pseudo_observations, simulate_uniformized,
                         stationary_uniformized_coefficients, uniformized_coefficients)

__version__ = "0.1.0"

__all__ = [
    "CopulaSurface", "DiffusionSpec", "DomainError", "EmpiricalCopula",
    "FirstPassageSample", "Model", "MonotonePiece", "NumericsError",
    "PathEnsemble", "RecombinedProcess", "SpaceTimeTransform",
    "absolute_value", "bessel_i", "builtin_chain", "cdf_on_grid", "cell_masses",
    "chi2nc_cdf", "chi2nc_pdf",
    "chi2nc_pdf_bessel_form", "chi2nc_quantile", "cir_closed_form", "compose",
    "empirical_copula", "euler_maruyama", "first_passage_times", "from_transition",
    "gaussian_closed_form", "grid_eval", "identity_transform",
    "independence_surface", "kolmogorov_copula_residual", "ks_statistic",
    "make_model", "model_marginal_family", "nonmonotone_copula", "norm_cdf",
    "norm_pdf", "norm_quantile", "ou_closed_form", "preimage_weights",
    "pseudo_observations", "push_transition", "pushforward_marginal",
    "rbm_closed_form", "recombine", "sample_transition", "simulate_paths",
    "simulate_uniformized", "stationary_uniformized_coefficients",
    "tabulated_marginal_family", "uniformized_coefficients", "wiener_stt",
    "wiener_transformability_check",
]
