"""Span tracing of diffcop from outside the package, and the per-layer metrics.

``Tracer.install`` replaces each public function and kernel/surface method of
the diffcop modules by a wrapper that records a span.  A function is replaced
under every name it is reached by, so a call from one module into another
(``copula.integrate``, ``special.invert_monotone_cdf``,
``uniformize.simulate_paths``) is caught where the caller looks it up.
``uninstall`` restores the originals, so traced and untraced cycles run the
same code.

A span is ``[name, start, end, parent, op, elems]``: ``parent`` is the index
of the enclosing span (-1 at the root) and ``op`` the index of the benchmark
operation that caused it.  Names are ``<layer>.<function>``, where the layer
is the module (``_numerics`` is reported as ``numerics``) and ``io`` collects
CSV writers.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_MODULES = ("special", "_numerics", "_parallel", "models", "copula", "stt",
                 "uniformize", "recombine", "cli")
SKIP = {"require", "rel_step", "catalog_ids"}          # trivial helpers called everywhere
KERNEL_METHODS = ("pdf", "cdf", "quantile", "sample", "pdf_dx", "cdf_dt")
CLASS_METHODS = {
    ("copula", "CopulaSurface"): ("density", "conditional", "cdf"),
    ("models", "Model"): ("marginal",),
    ("recombine", "RecombinedProcess"): ("map", "inverse_map", "transition_pdf",
                                         "transition_cdf", "sample_paths"),
}
WRITERS = (("models", "PathEnsemble"), ("recombine", "FirstPassageSample"))   # to_csv(self, path)
QUANTILE_SPANS = {"special.chi2nc_quantile", "special.norm_quantile", "models.kernel_quantile",
                  "stt.kernel_quantile", "stt.pushforward_quantile"}


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _size(x) -> int:
    return int(np.size(x))


def _sample_elems(a, k):
    size = a[5] if len(a) > 5 else k.get("size")
    return int(np.prod(size)) if size is not None else _size(a[2])


def _kernel_elems(method):
    if method == "sample":
        return _sample_elems
    return lambda a, k: _size(a[4]) if len(a) > 4 else 0


ELEMS = {
    "numerics.invert_monotone_cdf": lambda a, k: _size(a[1]),
    "numerics.grow_bracket": lambda a, k: _size(a[1]),
    "copula.density": lambda a, k: np.broadcast(a[1], a[2]).size,
    "copula.conditional": lambda a, k: np.broadcast(a[1], a[2]).size,
    "copula.cdf": lambda a, k: np.broadcast(a[1], a[2]).size,
    "copula.grid_eval": lambda a, k: int(a[1]) ** 2,
    "copula.cdf_on_grid": lambda a, k: _size(a[1]) * _size(a[2]),
    "copula.cell_masses": lambda a, k: int(a[1]) ** 2,
    "recombine.map": lambda a, k: _size(a[2]),
    "recombine.inverse_map": lambda a, k: _size(a[2]),
}
COUNTED_ARG = {                                        # callable passed in -> counter name
    "numerics.invert_monotone_cdf": "numerics.invert_monotone_cdf.cdf_evals",
    "numerics.grow_bracket": "numerics.grow_bracket.cdf_evals",
    "numerics.integrate": "numerics.integrate.fevals",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str, elems: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, elems])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, post=None):
        elems_fn = ELEMS.get(name)
        counter = COUNTED_ARG.get(name)
        if name.endswith(tuple(f".kernel_{m}" for m in KERNEL_METHODS)):
            elems_fn = _kernel_elems(name.rsplit("_", 1)[-1])
        elif name.startswith("special."):
            elems_fn = lambda a, k: _size(a[0]) if a else 0
        counts = self.counts

        def traced(*args, **kwargs):
            if counter is not None and args:
                inner = args[0]

                def counted(*a, **k):
                    counts[counter] += 1
                    return inner(*a, **k)
                args = (counted,) + args[1:]
            idx = self.open(name, elems_fn(args, kwargs) if elems_fn else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return post(out) if post else out

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap diffcop's layers; names that do not exist are listed in ``missing``."""
        mods = {}
        for name in LAYER_MODULES:
            try:
                mods[name] = importlib.import_module(f"{package.__name__}.{name}")
            except ImportError:
                self.missing.append(name)
        everywhere = [m for k, m in sys.modules.items()
                      if k == package.__name__ or k.startswith(package.__name__ + ".")]

        originals = {}                                  # id(fn) -> span name
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if callable(obj) and not isinstance(obj, type) and not attr.startswith("_") \
                        and attr not in SKIP and getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = f"{layer_of(mname)}.{attr}"
        posts = {"stt.pushforward_marginal": self._wrap_marginal,
                 "stt.nonmonotone_copula": self._wrap_surface_cores}
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                name = originals.get(id(obj))
                if name == "copula.write_grid_csv":           # (surface, n, path)
                    self._set(mod, attr, self._wrap_writer(obj, 2))
                elif name is not None:
                    self._set(mod, attr, self.wrap(obj, name, posts.get(name)))

        for mname, mod in mods.items():
            for cname, cls in list(vars(mod).items()):
                if isinstance(cls, type) and cls.__module__ == mod.__name__ \
                        and cname.endswith("Kernel"):
                    for meth in KERNEL_METHODS:
                        if meth in vars(cls):
                            self._set(cls, meth, self.wrap(vars(cls)[meth],
                                                           f"{layer_of(mname)}.kernel_{meth}"))
        for (mname, cname), methods in CLASS_METHODS.items():
            cls = getattr(mods.get(mname), cname, None)
            for meth in methods:
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{mname}.{cname}.{meth}")
                    continue
                self._set(cls, meth, self.wrap(vars(cls)[meth], f"{layer_of(mname)}.{meth}"))
        for mname, cname in WRITERS:
            cls = getattr(mods.get(mname), cname, None)
            if cls is None or "to_csv" not in vars(cls):
                self.missing.append(f"{mname}.{cname}.to_csv")
                continue
            self._set(cls, "to_csv", self._wrap_writer(vars(cls)["to_csv"], 1))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap_writer(self, fn, path_arg: int):
        def traced(*args, **kwargs):
            idx = self.open("io.write")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self.counts["io.bytes_written"] += os.path.getsize(args[path_arg])
        return traced

    def _wrap_marginal(self, marg):
        return dataclasses.replace(marg, **{
            f: self.wrap(getattr(marg, f), f"stt.pushforward_{f}") for f in ("pdf", "cdf", "quantile")})

    def _wrap_surface_cores(self, surface):
        for attr, label in (("_density_core", "density"), ("_conditional_core", "conditional")):
            core = getattr(surface, attr, None)
            if core is not None:
                setattr(surface, attr, self.wrap(core, f"stt.nonmonotone_{label}"))
        return surface


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(tracer: Tracer) -> dict[str, float]:
    """Per-span-name calls/elems/self_s, per-layer self_s, and the derived ratios."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, elems, self_s, layer_s = Counter(), Counter(), Counter(), Counter()
    for sp, st in zip(spans, selfs):
        calls[sp[0]] += 1
        elems[sp[0]] += sp[5]
        self_s[sp[0]] += st
        layer_s[sp[0].split(".", 1)[0]] += st

    # quantile elements solved under a grid evaluation, outermost quantile spans only
    in_grid = [False] * len(spans)
    under_q = [False] * len(spans)
    q_elems = 0
    for i, sp in enumerate(spans):
        p = sp[3]
        if p >= 0:
            in_grid[i] = in_grid[p] or spans[p][0] == "copula.grid_eval"
            under_q[i] = under_q[p] or spans[p][0] in QUANTILE_SPANS
        if in_grid[i] and not under_q[i] and sp[0] in QUANTILE_SPANS:
            q_elems += sp[5]
    cells = elems["copula.grid_eval"]

    out: dict[str, float] = {}
    for fn in ("chi2nc_quantile", "chi2nc_cdf", "chi2nc_pdf", "norm_quantile"):
        key = f"special.{fn}"
        out.update({f"{key}.calls": calls[key], f"{key}.elems": elems[key],
                    f"{key}.self_s": self_s[key]})
    special_elems = sum(v for k, v in elems.items() if k.startswith("special."))
    out["special.self_s"] = layer_s["special"]
    out["special.ns_per_elem"] = 1e9 * layer_s["special"] / special_elems if special_elems else 0.0

    key = "numerics.invert_monotone_cdf"
    out.update({f"{key}.calls": calls[key], f"{key}.elems": elems[key],
                f"{key}.cdf_evals": tracer.counts[f"{key}.cdf_evals"],
                f"{key}.self_s": self_s[key]})
    out["numerics.grow_bracket.cdf_evals"] = tracer.counts["numerics.grow_bracket.cdf_evals"]
    key = "numerics.integrate"
    out.update({f"{key}.calls": calls[key], f"{key}.fevals": tracer.counts[f"{key}.fevals"],
                f"{key}.self_s": self_s[key]})

    for m in ("pdf", "cdf", "quantile", "sample"):
        key = f"models.kernel_{m}"
        out.update({f"{key}.calls": calls[key], f"{key}.elems": elems[key],
                    f"{key}.self_s": self_s[key]})
    out["models.marginal.calls"] = calls["models.marginal"]
    out["models.self_s"] = layer_s["models"]

    for m in ("density", "conditional"):
        out[f"copula.{m}.calls"] = calls[f"copula.{m}"]
        out[f"copula.{m}.points"] = elems[f"copula.{m}"]
    out["copula.self_s"] = layer_s["copula"]
    out["copula.quantile_elems_per_cell"] = q_elems / cells if cells else 0.0

    out["stt.self_s"] = layer_s["stt"]
    out["stt.pushforward_marginal.calls"] = calls["stt.pushforward_marginal"]
    out["stt.preimage_weights.calls"] = calls["stt.preimage_weights"]
    out["uniformize.self_s"] = layer_s["uniformize"]
    out["uniformize.uniformized_coefficients.calls"] = calls["uniformize.uniformized_coefficients"]
    out["recombine.map.calls"] = calls["recombine.map"]
    out["recombine.map.elems"] = elems["recombine.map"]
    out["recombine.inverse_map.calls"] = calls["recombine.inverse_map"]
    out["recombine.self_s"] = layer_s["recombine"]
    out["cli.self_s"] = layer_s["cli"]
    out["io.bytes_written"] = tracer.counts["io.bytes_written"]
    out["io.write_s"] = layer_s["io"]
    out["trace.spans"] = len(spans)
    return out


def is_count(metric: str) -> bool:
    """Counts repeat exactly under the same seed; times and ratios of times do not."""
    return not metric.endswith(("_s", "ns_per_elem", "overhead_frac"))
