"""scipy ``quad`` as the tests' independent quadrature oracle.

The library integrates with its own Gauss-Legendre engine
(`diffcop._numerics.integrate`); tests that check masses and integrals
against an integral use this wrapper, so they never check the engine
against itself.
"""

from typing import Callable

import numpy as np
from scipy.integrate import quad

from diffcop.errors import NumericsError


def integrate(f: Callable, a: float, b: float, abs_tol: float = 1e-8,
              rel_tol: float = 1e-8, points=None, limit: int = 200) -> float:
    """Adaptive quadrature of ``f`` on (a, b); raises `NumericsError` on failure."""
    kwargs = dict(epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=1)
    if points is not None and np.isfinite(a) and np.isfinite(b):
        pts = [x for x in points if a < x < b]
        if pts:
            kwargs["points"] = pts
    result = quad(f, a, b, **kwargs)
    value, abserr = result[0], result[1]
    if len(result) > 3:  # message present => ier != 0
        achieved = max(abserr, 0.0)
        if achieved > max(abs_tol, rel_tol * abs(value)) * 50:
            raise NumericsError(
                f"quadrature did not converge: achieved tolerance {achieved:.3e}")
    return value
