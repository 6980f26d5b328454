"""Build new diffusions by combining a source copula with prescribed marginals.

Given a source diffusion X and target marginals F^Z_t with continuous, strictly
increasing cdfs, any t -> `models.Marginal` (a model's `Model.marginal`, one fit
of a cdf table, a pushed law of `stt`), the recombined process

    Z_t = (F^Z_t)^{-1}(F^X_t(X_t))

has exactly the target marginals while keeping the copula (hence the whole
serial-dependence structure) of X.  Paths of Z are simulated exactly by
transforming exact paths of X.  The recombination is a monotone space-time
transformation, so the transition kernel of Z is the `models.MappedKernel` of
the source kernel through the map, whose Jacobian is f^X_t(x) / f^Z_t(z):

    f^Z_{t|s}(z2 | z1) = f^X_{t|s}(x2 | x1) * f^Z_t(z2) / f^X_t(x2).

A first-passage-time sampler on a regular grid provides the integrate-and-fire
style demo; crossings are detected on grid points only and right-censored
samples are flagged, with a dt-refinement check in the test suite instead of
any exact-crossing claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from ._numerics import invert_monotone_cdf, require
from .errors import DomainError
from .models import MappedKernel, Marginal, Model, PathEnsemble, _map_paths, _resolve_rng

__all__ = [
    "model_marginal_family", "tabulated_marginal_family",
    "RecombinedProcess", "recombine",
    "FirstPassageSample", "first_passage_times",
]


def model_marginal_family(model: Model) -> Callable[[float], Marginal]:
    """A model's marginals as a target; `Model.marginal` is looked up at each call."""
    return lambda t: model.marginal(t)


def tabulated_marginal_family(xs, cdf_values) -> Callable[[float], Marginal]:
    """A time-constant target from a table (x, F(x)): one monotone-cubic (PCHIP) fit of F, its
    derivative and its inverse by `invert_monotone_cdf`.  Beyond the table the cdf holds the
    table's end values and the pdf is 0, and p beyond them maps to the table's ends."""
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(cdf_values, dtype=float)
    require(xs.ndim == 1 and xs.size >= 4, "need at least 4 table points")
    require(np.all(np.diff(xs) > 0), "table abscissae must be strictly increasing")
    if not np.all(np.diff(fs) > 0):
        raise DomainError("target cdf table is not strictly increasing (not invertible)")
    require(fs[0] >= 0.0 and fs[-1] <= 1.0, "cdf values must lie in [0, 1]")
    # imported here, not with the module: scipy.interpolate loads scipy.optimize, linalg,
    # sparse and spatial, about 0.2 s and 23 MB that `import diffcop` does without
    from scipy.interpolate import PchipInterpolator
    fit = PchipInterpolator(xs, fs)
    density = fit.derivative()

    def cdf(x):
        # held at the table's ends: the fit's end cubics extrapolate to values off the law
        return np.clip(fit(np.clip(x, xs[0], xs[-1])), 0.0, 1.0)[()]

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x < xs[0]) | (x > xs[-1]), 0.0, np.clip(density(x), 0.0, None))[()]

    def quantile(p):
        p = np.asarray(p, dtype=float)
        inner = (p > fs[0]) & (p < fs[-1])
        p_in = np.where(inner, p, 0.5 * (fs[0] + fs[-1]))
        # the table's chords start Newton in the right interval: 3 evaluations, not 10
        x = invert_monotone_cdf(lambda y: (fit(y), density(y)), p_in, xs[0], xs[-1],
                                start=np.interp(p_in, fs, xs), bounds=(xs[0], xs[-1]))
        return np.select([inner, p <= fs[0], p >= fs[-1]], [x, xs[0], xs[-1]], np.nan)[()]

    return lambda t: Marginal(t, pdf, cdf, quantile)


@dataclass(frozen=True)
class RecombinedProcess:
    """Z_t = (F^Z_t)^{-1}(F^X_t(X_t)): source copula, target marginals ``target(t)``.

    The transition ``kernel`` of Z, built once per process, is the `MappedKernel` of the
    source kernel through `map`; it is read as ``kernel.pdf``/``kernel.cdf``, as for a `Model`.
    """

    source: Model
    target: Callable[[float], Marginal]

    def map(self, t: float, x):
        """The recombination map x -> z at time t (strictly increasing in x)."""
        p = np.clip(self.source.marginal(t).cdf(x), 1e-15, 1.0 - 1e-15)
        return self.target(t).quantile(p)

    def inverse_map(self, t: float, z):
        p = np.clip(self.target(t).cdf(z), 1e-15, 1.0 - 1e-15)
        return self.source.marginal(t).quantile(p)

    @cached_property
    def kernel(self) -> MappedKernel:
        return MappedKernel(self.source.kernel, self.map, self.inverse_map, self._jacobian,
                            (-np.inf, np.inf))

    def _jacobian(self, t: float, x, z):
        # dz/dx = f^X_t(x)/f^Z_t(z), infinite (density 0) where the target density is 0
        with np.errstate(divide="ignore"):
            return self.source.marginal(t).pdf(x) / np.asarray(self.target(t).pdf(z), dtype=float)

    def sample_paths(self, times, n_paths: int, rng=None, seed=None) -> PathEnsemble:
        """Exact Z-paths: exact X-paths mapped pointwise through the recombination."""
        return _map_paths(self.source, times, n_paths, rng, seed, self.map, "recombined")


def recombine(model: Model, target, probe_time: float | None = None) -> RecombinedProcess:
    """Wrap a source model and a target ``t -> Marginal``: `DomainError` unless the target's
    law at ``probe_time`` (default t0 + 1) is a `Marginal` with strictly increasing quantiles."""
    t_probe = probe_time if probe_time is not None else model.t0 + 1.0
    law = target(t_probe) if callable(target) else None
    if not isinstance(law, Marginal):
        raise DomainError("target must be a callable t -> Marginal, as Model.marginal is")
    q = np.asarray(law.quantile(np.linspace(0.05, 0.95, 7)), dtype=float)
    if not (np.all(np.isfinite(q)) and np.all(np.diff(q) > 0)):
        raise DomainError("target marginal cdf is not strictly increasing (not invertible)")
    return RecombinedProcess(source=model, target=target)


# ---------------------------------------------------------------------------
# First-passage times on a regular grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstPassageSample:
    """Grid first-passage times; censored entries carry time NaN."""

    times: np.ndarray
    censored: np.ndarray
    threshold: float
    t_max: float
    meta: Mapping[str, object]

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())

    def to_csv(self, path) -> None:
        """One FPT per line; right-censored entries as `>t_max`."""
        with open(path, "w") as fh:
            for fpt, cens in zip(self.times, self.censored):
                fh.write(f">{self.t_max:.17g}\n" if cens else f"{fpt:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "FirstPassageSample":
        times, censored = [], []
        t_max = np.nan
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith(">"):
                    t_max = float(line[1:])
                    times.append(np.nan)
                    censored.append(True)
                else:
                    times.append(float(line))
                    censored.append(False)
        times = np.asarray(times)
        if np.isnan(t_max):
            t_max = float(np.nanmax(times)) if times.size else np.nan
        return cls(times=times, censored=np.asarray(censored, dtype=bool),
                   threshold=np.nan, t_max=t_max, meta={})


def first_passage_times(process, threshold: float, reset: float | None = None, *,
                        t_max: float, dt: float, n_paths: int, rng=None,
                        seed=None) -> FirstPassageSample:
    """First grid time at which each path reaches the threshold.

    ``process`` is a catalog `Model` or a `RecombinedProcess`.  Paths start at
    ``reset`` (falling back to the model's x0); for a recombined process the
    reset applies to the source state, since the target marginals are
    degenerate at t0.  Transitions are sampled exactly on the dt-grid; paths
    that never cross by ``t_max`` are right-censored.
    """
    require(dt > 0.0, "dt must be positive")
    require(n_paths >= 1, "n_paths must be positive")
    require(np.isfinite(threshold), "threshold must be finite")
    rng, seed = _resolve_rng(rng, seed)

    recombined = isinstance(process, RecombinedProcess)
    source = process.source if recombined else process
    require(t_max > source.t0 + dt / 2.0, "t_max must leave room for at least one step")

    start = float(reset) if reset is not None else source.x0
    lo, hi = source.interval
    require(lo <= start < hi, f"reset state {start} outside the diffusion interval")

    n_steps = int(np.floor((t_max - source.t0) / dt + 1e-12))
    grid = source.t0 + dt * np.arange(1, n_steps + 1)

    state = np.full(n_paths, start, dtype=float)
    fpt = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    prev = source.t0
    for t in grid:
        if not np.any(alive):
            break
        draw = np.asarray(source.kernel.sample(prev, state[alive], float(t), rng), dtype=float)
        state[alive] = draw
        # the recombination map is strictly increasing, so crossing in target
        # space is crossing of the pulled-back threshold in source space
        level = float(process.inverse_map(float(t), threshold)) if recombined else threshold
        crossed = np.zeros(n_paths, dtype=bool)
        crossed[alive] = draw >= level
        fpt[crossed] = t
        alive &= ~crossed
        prev = float(t)

    meta = {"model": source.name, "dt": dt, "t_max": t_max, "seed": seed,
            "reset": start, "recombined": recombined}
    return FirstPassageSample(times=fpt, censored=alive.copy(), threshold=threshold,
                              t_max=float(t_max), meta=meta)
