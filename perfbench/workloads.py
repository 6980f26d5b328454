"""The benchmark's three workloads, each a fixed schedule of seeded operations.

``build(name, seed)`` draws every parameter from the seed, constructs the
models and transformations (this is the set-up the benchmark times), and
returns the schedule.  An operation's ``run`` is the timed call into diffcop
and returns its output; ``check(out, ref)`` compares that output with an
independent reference and is never timed.  The caller passes the
``reference`` module in as ``ref``: nothing here imports it, so neither the
set-up timing nor an unchecked run loads the reference's dependencies.

The design of each schedule is fixed: which constructions, which grid sizes,
which lags.  The seed jitters each parameter by a few percent around its design
level, so different seeds give different inputs of the same cost, and
run-to-run spread measures the program rather than the draw.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from diffcop import cli, copula, models, stt, uniformize

recombine = importlib.import_module("diffcop.recombine")   # the package re-exports a function by that name

WORKLOADS = ("surface-sweep", "cdf-quadrature", "path-ensemble")

# Relative tolerance behind bad_value_frac: the accuracy diffcop's own solvers and
# quadratures request.
REL_TOL = 1e-8
# Every schedule has 5 mod 10 operations.  A run repeats its schedule, so its
# latencies form one cluster per operation; with that count the median and
# the p90 fall in the middle of a cluster instead of between two of them.


@dataclass
class Op:
    name: str                          # stable label, also names the trace's root span
    values: int                        # output values: grid cells, CDF points, path states
    run: Callable[[], object]          # timed; returns an ndarray or the path of a CSV file
    check: Callable[[object, object], object] = field(repr=False)   # (output, reference) -> Check


class _Draw:
    """Seeded jitter around design levels."""

    def __init__(self, seed: int, workload: str):
        self.rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])

    def jit(self, level: float, rel: float = 0.05) -> float:
        return float(level * math.exp(self.rng.uniform(-rel, rel)))

    def shift(self, level: float, width: float) -> float:
        return float(level + self.rng.uniform(-width, width))

    def seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 31 - 1))


def _mids(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _density_check(ref_fn, n):
    """``ref_fn(ref, us, vs)`` is the reference density grid."""
    def check(out, ref):
        c = ref.require_range(out, lo=0.0, what="density")
        if c.invalid:
            return c
        return ref.compare(out, ref_fn(ref, _mids(n), _mids(n)), REL_TOL)
    return check


# ---------------------------------------------------------------------------
# surface-sweep: one copula density grid per operation
# ---------------------------------------------------------------------------

# (gamma, x0, lag, n); x0 = 0 starts at the boundary (central chi-square marginals)
CIR_SWEEP = (
    (1.0, 0.0, "short", 101),
    (5.0, 10.0, "short", 51),
    (5.0, 0.0, "long", 51),
    (25.0, 10.0, "short", 101),
    (125.0, 10.0, "long", 51),
    (125.0, 0.0, "short", 51),
    (625.0, 10.0, "short", 201),
    (625.0, 0.0, "long", 51),
)
LAGS = {"short": (30.0, 0.5), "long": (2.0, 10.0)}      # (s, t - s) at alpha = 0.1


def _surface_sweep(d: _Draw):
    ops = []
    for gamma, x0, lag, n in CIR_SWEEP:
        alpha, g, x = d.jit(0.1), d.jit(gamma), d.jit(x0)
        s0, dt = LAGS[lag]
        s = d.jit(s0)
        t = s + d.jit(dt)
        ops.append(Op(f"grid.cir_closed_form.n{n}", n * n,
                      lambda a=alpha, g=g, x=x, s=s, t=t, n=n:
                          copula.grid_eval(copula.cir_closed_form(a, g, x, s, t), n),
                      _density_check(lambda ref, u, v, a=alpha, g=g, x=x, s=s, t=t:
                                         ref.SqrtLaw.canonical(a, g, x).copula_density(s, t, u, v),
                                     n)))

    def catalog(name, params, x0, law, pushed=False):
        """``law`` is (SqrtLaw constructor name, its arguments): the cir law of the state or its square."""
        model = models.make_model(name, params, x0=x0)
        s = d.jit(0.8)
        t = s + d.jit(0.7)
        law_s, law_t = s, t
        if pushed:
            chain = stt.builtin_chain("cir_to_bessel", alpha=params["alpha"], sigma=params["sigma"])
            model = stt.push_transition(model, chain)
            a = params["alpha"]
            s, t = (math.expm1(a * x) / a for x in (s, t))   # the Bessel clock phi(s)
        n = 51
        kind, args = law
        return Op(f"grid.from_transition.{'push_cir_to_bessel' if pushed else name}.n{n}", n * n,
                  lambda: copula.grid_eval(copula.from_transition(model, s, t), n),
                  _density_check(lambda ref, u, v: getattr(ref.SqrtLaw, kind)(*args)
                                 .copula_density(law_s, law_t, u, v), n))

    p = {"alpha": d.jit(1.0), "beta": d.jit(1.0), "sigma": d.jit(0.8)}
    x0 = d.jit(1.2)
    ops.append(catalog("cir", p, x0, ("cir", (p["alpha"], p["beta"], p["sigma"], x0))))
    p = {"a": d.jit(1.0), "b": d.jit(-0.5)}
    x0 = d.jit(1.0)
    ops.append(catalog("rayleigh", p, x0, ("squared_rayleigh", (p["a"], p["b"], x0))))
    p = {"delta": d.jit(1.0)}
    x0 = d.jit(1.0)
    ops.append(catalog("bessel", p, x0, ("squared_bessel", (p["delta"], x0))))
    p = {"alpha": d.jit(1.0), "beta": d.jit(1.0), "sigma": d.jit(0.8)}
    x0 = d.jit(1.2)
    ops.append(catalog("cir", p, x0, ("cir", (p["alpha"], p["beta"], p["sigma"], x0)), pushed=True))

    for fam, n in (("ou", 201), ("ou", 101), ("gaussian", 201)):
        s = d.jit(30.0 if fam == "ou" else 1.0)
        t = s + d.jit(0.5 if n == 201 else 3.0)
        if fam == "ou":
            alpha = d.jit(0.1)
            make = lambda a=alpha, s=s, t=t: copula.ou_closed_form(a, s, t)
            rho = lambda ref, a=alpha, s=s, t=t: ref.ou_rho(a, s, t)
        else:
            make = lambda s=s, t=t: copula.gaussian_closed_form(s, t)
            rho = lambda ref, s=s, t=t: ref.bm_rho(s, t)
        ops.append(Op(f"grid.{fam}_closed_form.n{n}", n * n,
                      lambda make=make, n=n: copula.grid_eval(make(), n),
                      _density_check(lambda ref, u, v, rho=rho:
                                         ref.gaussian_copula_density(rho(ref), u, v), n)))
    return ops


# ---------------------------------------------------------------------------
# cdf-quadrature: copula CDFs, cell masses and scalar calculus, Gaussian family only
# ---------------------------------------------------------------------------

# Three 3 x 3 point designs per surface; the first reaches into the copula corners.
CDF_POINTS = ((0.02, 0.5, 0.98), (0.15, 0.4, 0.75), (0.3, 0.6, 0.9))


def _cdf_quadrature(d: _Draw):
    ops = []

    def pair():
        s = d.jit(1.0)
        return s, s + d.jit(1.0)

    def cdf_check(ref_cdf, us, vs):
        def check(out, ref):
            c = ref.require_range(out, 0.0, 1.0, "copula CDF")
            return c if c.invalid else ref.compare(out, ref_cdf(ref, us, vs), REL_TOL)
        return check

    ou_p = {"alpha": d.jit(1.0), "beta": d.jit(0.5), "sigma": d.jit(0.9)}
    ou_x0 = d.jit(0.2)
    ou = models.make_model("ou", ou_p, x0=ou_x0)
    gbm_p = {"mu": d.jit(0.1), "sigma": d.jit(0.3)}
    gbm_x0 = d.jit(1.0)
    gbm = models.make_model("gbm", gbm_p, x0=gbm_x0)

    # Each returns (surface factory, reference CDF (ref, us, vs) -> C[i, j]).
    def ou_closed():
        a, (s, t) = d.jit(0.5), pair()
        return (lambda: copula.ou_closed_form(a, s, t),
                lambda ref, u, v: ref.gaussian_copula_cdf(ref.ou_rho(a, s, t), u, v))

    def gaussian_closed():
        s, t = pair()
        return (lambda: copula.gaussian_closed_form(s, t),
                lambda ref, u, v: ref.gaussian_copula_cdf(ref.bm_rho(s, t), u, v))

    def rbm_closed():
        s, t = pair()
        return (lambda: copula.rbm_closed_form(s, t),
                lambda ref, u, v: ref.rbm_copula_cdf(ref.bm_rho(s, t), u, v))

    def ou_transition():
        s, t = pair()
        return (lambda: copula.from_transition(ou, s, t),
                lambda ref, u, v: ref.gaussian_copula_cdf(ref.ou_rho(ou_p["alpha"], s, t), u, v))

    def gbm_transition():
        s, t = pair()
        return (lambda: copula.from_transition(gbm, s, t),
                lambda ref, u, v: ref.gaussian_copula_cdf(ref.bm_rho(s, t), u, v))

    surfaces = {"ou_closed_form": ou_closed, "gaussian_closed_form": gaussian_closed,
                "rbm_closed_form": rbm_closed, "from_transition.ou": ou_transition,
                "from_transition.gbm": gbm_transition}
    for label, draw in surfaces.items():
        for k, design in enumerate(CDF_POINTS):
            make, ref_cdf = draw()
            us = np.array([d.shift(x, 0.01) for x in design])
            vs = np.array([d.shift(x, 0.01) for x in design])
            ops.append(Op(f"cdf_on_grid.{label}.{k}", us.size * vs.size,
                          lambda make=make, us=us, vs=vs: copula.cdf_on_grid(make(), us, vs),
                          cdf_check(ref_cdf, us, vs)))

    def masses_check(ref_cdf, m):
        def check(out, ref):
            c = ref.require_range(out, 0.0, 1.0, "cell mass")
            if c.invalid:
                return c
            off = abs(float(np.sum(out)) - 1.0)
            c = ref.Check(checked=1, bad=int(not off <= 1e-8), gross=int(not off <= ref.GROSS_REL_TOL))
            masses = ref.cell_masses_from_cdf(lambda u, v: ref_cdf(ref, u, v), m)
            return c.add(ref.compare(out, masses, REL_TOL))
        return check

    m = 3
    for label in ("ou_closed_form", "gaussian_closed_form", "rbm_closed_form"):
        make, ref_cdf = surfaces[label]()
        ops.append(Op(f"cell_masses.{label}.m{m}", m * m,
                      lambda make=make: copula.cell_masses(make(), m),
                      masses_check(ref_cdf, m)))

    bm = models.make_model("bm", x0=0.0)
    fold = stt.absolute_value()
    for n in (7, 9, 11):
        s, t = pair()
        ops.append(Op(f"grid.nonmonotone.abs_bm.n{n}", n * n,
                      lambda n=n, s=s, t=t: copula.grid_eval(stt.nonmonotone_copula(bm, fold, s, t), n),
                      _density_check(lambda ref, u, v, s=s, t=t:
                                         ref.rbm_copula_density(ref.bm_rho(s, t), u, v), n)))

    laws = (("ou", ou, lambda ref: ref.OULaw(ou_p["alpha"], ou_p["beta"], ou_p["sigma"], ou_x0)),
            ("gbm", gbm, lambda ref: ref.GBMLaw(gbm_p["mu"], gbm_p["sigma"], gbm_x0)))
    for label, model, law in laws:
        for lo, hi in ((0.01, 0.49), (0.51, 0.99)):
            us = np.array([d.shift(x, 0.005) for x in np.linspace(lo, hi, 21)])
            t = d.jit(1.0)

            def run(model=model, us=us, t=t):
                return np.array([uniformize.uniformized_coefficients(model, float(u), t)
                                 for u in us]).T

            def check(out, ref, law=law, us=us, t=t):
                c = ref.require_range(out, what="coefficient")
                if c.invalid:
                    return c
                return ref.compare(out, np.array(law(ref).uniformized_coefficients(us, t)), REL_TOL)

            ops.append(Op(f"uniformized_coefficients.{label}.u{lo:g}-{hi:g}", 2 * us.size, run, check))
    return ops


# ---------------------------------------------------------------------------
# path-ensemble: exact simulation, recombination, first passage and CSV output
# ---------------------------------------------------------------------------

FPT_REF_PATHS = 20_000     # reference paths behind each first-passage check


def _path_ensemble(d: _Draw, tmpdir: str):
    ops = []
    times = lambda t_max, k: t_max * np.arange(1, k + 1) / k

    # Reference laws are built from the drawn parameters inside the checks:
    # each factory takes the reference module and returns the law.
    ou_p = {"alpha": d.jit(1.0), "beta": d.jit(0.5), "sigma": d.jit(0.9)}
    ou_x0 = d.jit(0.2)
    ou = models.make_model("ou", ou_p, x0=ou_x0)
    ou_law = lambda ref: ref.OULaw(ou_p["alpha"], ou_p["beta"], ou_p["sigma"], ou_x0)
    cir_p = {"alpha": d.jit(1.0), "beta": d.jit(1.0), "sigma": d.jit(0.8)}
    cir_x0 = d.jit(1.2)
    cir = models.make_model("cir", cir_p, x0=cir_x0)
    cir_law = lambda ref: ref.SqrtLaw.cir(cir_p["alpha"], cir_p["beta"], cir_p["sigma"], cir_x0)
    gbm_p = {"mu": d.jit(0.1), "sigma": d.jit(0.3)}
    gbm_x0 = d.jit(1.0)
    gbm = models.make_model("gbm", gbm_p, x0=gbm_x0)
    gbm_law = lambda ref: ref.GBMLaw(gbm_p["mu"], gbm_p["sigma"], gbm_x0)
    ray_p = {"a": d.jit(1.0), "b": d.jit(-0.5)}
    ray_x0 = d.jit(1.0)
    ray = models.make_model("rayleigh", ray_p, x0=ray_x0)
    ray_law = lambda ref: ref.RootLaw(ref.SqrtLaw.squared_rayleigh(ray_p["a"], ray_p["b"], ray_x0))

    def add_sim(label, model, law, n_paths, k, t_max):
        grid, seed = times(t_max, k), d.seed()
        ops.append(Op(f"simulate_paths.{label}.{n_paths}x{k}", n_paths * k,
                      lambda: models.simulate_paths(model, grid, n_paths, seed=seed).paths,
                      lambda out, ref: ref.require_range(out, what="path state").add(
                          ref.ks_columns(out, grid, law(ref).cdf))))

    for n_paths, k in ((10_000, 20), (1_000, 100)):
        add_sim("ou", ou, ou_law, n_paths, k, 2.0)
        add_sim("cir", cir, cir_law, n_paths, k, 2.0)
        add_sim("gbm", gbm, gbm_law, n_paths, k, 2.0)
        add_sim("rayleigh", ray, ray_law, n_paths, k, 2.0)

    def add_uniformized(label, model, law, n_paths, k, t_max):
        grid, seed = times(t_max, k), d.seed()

        def check(out, ref):
            c = ref.require_range(out, 0.0, 1.0, "uniformized state")
            if c.invalid:
                return c
            x = models.simulate_paths(model, grid, n_paths, seed=seed).paths
            cdf = law(ref).cdf
            u_ref = np.stack([cdf(float(t), x[:, i]) for i, t in enumerate(grid)], axis=1)
            return c.add(ref.compare(out, u_ref, REL_TOL)).add(ref.ks_columns(out, grid, ref.uniform_cdf))

        ops.append(Op(f"simulate_uniformized.{label}.{n_paths}x{k}", n_paths * k,
                      lambda: uniformize.simulate_uniformized(model, grid, n_paths, seed=seed).paths,
                      check))

    add_uniformized("ou", ou, ou_law, 10_000, 20, 2.0)
    add_uniformized("cir", cir, cir_law, 2_000, 20, 2.0)

    # recombination: OU copula with the marginals of a cir (gamma = 625) target
    src_p = {"alpha": d.jit(0.1), "beta": d.jit(0.2), "sigma": d.jit(0.5)}
    src_x0 = d.jit(2.0)
    src = models.make_model("ou", src_p, x0=src_x0)
    src_law = lambda ref: ref.OULaw(src_p["alpha"], src_p["beta"], src_p["sigma"], src_x0)
    tgt_p = {"alpha": d.jit(0.1), "beta": d.jit(62.5), "sigma": d.jit(0.6325)}
    tgt_x0 = d.jit(10.0)
    tgt = models.make_model("cir", tgt_p, x0=tgt_x0)
    tgt_law = lambda ref: ref.SqrtLaw.cir(tgt_p["alpha"], tgt_p["beta"], tgt_p["sigma"], tgt_x0)
    t_max = d.jit(30.0)
    proc = recombine.recombine(src, recombine.model_marginal_family(tgt), probe_time=t_max / 2.0)
    grid, seed, n_rec = times(t_max, 10), d.seed(), 1_000

    def rec_check(out, ref):
        c = ref.require_range(out, lo=0.0, what="recombined state")
        if c.invalid:
            return c
        x = models.simulate_paths(src, grid, n_rec, seed=seed).paths
        s_law, t_law = src_law(ref), tgt_law(ref)
        z_ref = np.stack([t_law.quantile(float(t), s_law.cdf(float(t), x[:, i]))
                          for i, t in enumerate(grid)], axis=1)
        return c.add(ref.compare(out, z_ref, REL_TOL)).add(ref.ks_columns(out, grid, t_law.cdf))

    ops.append(Op(f"recombine.ou_to_cir.sample_paths.{n_rec}x10", n_rec * 10,
                  lambda: proc.sample_paths(grid, n_rec, seed=seed).paths, rec_check))

    def add_fpt(label, process, law, threshold, t_max, dt, n_paths, levels):
        """``law`` is the OU law that is sampled; ``levels(ref, grid)`` is the threshold
        in its space at each grid time."""
        seed = d.seed()
        steps = int(np.floor(t_max / dt + 1e-12))
        grid = dt * np.arange(1, steps + 1)

        def check(out, ref):
            done = out[np.isfinite(out)]
            if np.any(np.min(np.abs(done[:, None] - grid[None, :]), axis=1) > 1e-9 * t_max):
                return ref.Check(invalid="first-passage time off the time grid")
            expected = ref.ar1_first_passage(law(ref), grid, levels(ref, grid), FPT_REF_PATHS,
                                             seed=[seed, 1])
            return ref.first_passage(out, expected)

        ops.append(Op(f"first_passage_times.{label}.{n_paths}", n_paths,
                      lambda: recombine.first_passage_times(process, threshold, t_max=t_max, dt=dt,
                                                            n_paths=n_paths, seed=seed).times,
                      check))

    thr = d.jit(1.2)
    add_fpt("ou", ou, ou_law, thr, 3.0, 0.01, 1_000, lambda ref, grid: np.full(grid.size, thr))
    # a target-space threshold near the 0.8-quantile of the cir marginal at t_max / 4, from
    # its mean and variance (the gamma = 625 marginal is close to normal)
    a, b, sg = tgt_p["alpha"], tgt_p["beta"], tgt_p["sigma"]
    e = math.exp(-a * t_max / 4.0)
    mean = tgt_x0 * e + b / a * (1.0 - e)
    var = tgt_x0 * sg ** 2 / a * (e - e * e) + b * sg ** 2 / (2.0 * a * a) * (1.0 - e) ** 2
    z_thr = mean + d.jit(0.84, 0.02) * math.sqrt(var)

    def pulled_back(ref, grid):
        """The source level with the same marginal probability as z_thr at each grid time."""
        s_law, t_law = src_law(ref), tgt_law(ref)
        return np.array([s_law.quantile(float(t), t_law.cdf(float(t), z_thr)) for t in grid])

    add_fpt("recombined", proc, src_law, z_thr, t_max / 2.0, t_max / 100.0, 1_000, pulled_back)

    # command line: argument parsing, simulation and CSV output in one call
    def add_cli(label, argv, grid, law):
        path = os.path.join(tmpdir, f"{label}.csv")

        def run():
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + ["--out", path])
            except SystemExit as exc:                  # argparse rejects the arguments
                code = exc.code
            if code != 0:
                raise RuntimeError(f"diffcop {argv[0]} exited with {code}")
            return path

        def check(out, ref):
            data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[0] != grid.size or np.any(np.abs(data[:, 0] - grid) > 1e-12 * grid):
                return ref.Check(invalid="CSV time column does not match the requested grid")
            paths = data[:, 1:].T
            return ref.require_range(paths, what="CSV path state").add(
                ref.ks_columns(paths, grid, law(ref).cdf))

        n_paths, k = int(argv[argv.index("--n-paths") + 1]), int(argv[argv.index("--n-steps") + 1])
        ops.append(Op(f"cli.{label}.{n_paths}x{k}", n_paths * k, run, check))

    fmt = lambda p: ",".join(f"{key}={val!r}" for key, val in p.items())
    add_cli("simulate", ["simulate", "--model", "ou", "--params", fmt(ou_p), "--x0", repr(ou_x0),
                         "--t-max", "2.0", "--n-steps", "20", "--n-paths", "1000",
                         "--seed", str(d.seed())], times(2.0, 20), ou_law)
    add_cli("recombine", ["recombine", "--source-model", "ou", "--source-params", fmt(src_p),
                          "--source-x0", repr(src_x0), "--target-model", "cir",
                          "--target-params", fmt(tgt_p), "--target-x0", repr(tgt_x0),
                          "--t-max", repr(t_max), "--n-steps", "10", "--n-paths", "1000",
                          "--seed", str(d.seed())], times(t_max, 10), tgt_law)
    return ops


def build(name: str, seed: int, tmpdir: str) -> list[Op]:
    """The schedule of workload ``name`` for ``seed``; CLI output goes under ``tmpdir``."""
    d = _Draw(seed, name)
    if name == "surface-sweep":
        return _surface_sweep(d)
    if name == "cdf-quadrature":
        return _cdf_quadrature(d)
    if name == "path-ensemble":
        return _path_ensemble(d, tmpdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
