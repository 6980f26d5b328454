"""Tests of the benchmark itself: trace arithmetic, the live gate, determinism.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping), c [8, 12]
    # (ends after its parent); a has a child [2, 3].
    spans = [["special.root", 0.0, 10.0, -1, 0, 0],
             ["copula.a", 1.0, 4.0, 0, 0, 0],
             ["special.a1", 2.0, 3.0, 1, 0, 0],
             ["copula.b", 3.0, 6.0, 0, 0, 0],
             ["models.c", 8.0, 12.0, 0, 0, 0]]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 7.0, 2.0, 1.0, 3.0, 4.0])
    tracer = tracing.Tracer()
    tracer.spans = spans
    metrics = tracing.aggregate(tracer)
    assert metrics["special.self_s"] == pytest.approx(3.0 + 1.0)
    assert metrics["copula.self_s"] == pytest.approx(2.0 + 3.0)
    assert metrics["models.self_s"] == pytest.approx(4.0)
    assert metrics["trace.spans"] == 5


def test_bivariate_normal_reference_matches_its_limits():
    us = np.array([1e-3, 0.3, 0.5, 0.7, 1.0 - 1e-3])
    assert np.allclose(ref.gaussian_copula_cdf(0.0, us, us), np.outer(us, us), rtol=1e-12)
    rho = 0.6
    c = ref.gaussian_copula_cdf(rho, us, us)
    assert c[2, 2] == pytest.approx(0.25 + np.arcsin(rho) / (2 * np.pi), rel=1e-14)
    assert np.allclose(c, c.T, rtol=1e-13)
    masses = ref.cell_masses_from_cdf(lambda u, v: ref.rbm_copula_cdf(rho, u, v), 4)
    assert masses.sum() == pytest.approx(1.0, abs=1e-13) and np.all(masses > 0)


def _one_cycle(ops):
    runner = run.Runner(ops)
    runner.cycle(ref=ref)
    return runner


def test_independence_surface_in_place_of_cir_is_flagged(tmp_path):
    from diffcop import copula
    op = workloads.build("surface-sweep", 3, str(tmp_path))[0]
    assert op.name.startswith("grid.cir_closed_form.")
    n = math.isqrt(op.values)
    wrong = dataclasses.replace(
        op, run=lambda: copula.grid_eval(copula.independence_surface((1.0, 2.0)), n))
    v = run.verdict(_one_cycle([wrong]))
    assert v["bad_values"] > 0.5 * v["values_checked"] and v["gross_values"] > 0
    assert not v["correct"]


def test_perturbed_path_ensemble_is_flagged(tmp_path):
    op = workloads.build("path-ensemble", 3, str(tmp_path))[0]
    assert op.name.startswith("simulate_paths.")

    def shifted():                                    # every column moved by a quarter of its spread
        paths = op.run()
        return paths + 0.25 * paths.std(axis=0)

    v = run.verdict(_one_cycle([dataclasses.replace(op, run=shifted)]))
    assert v["bad_values"] > 0 and v["gross_values"] > 0 and not v["correct"]
    assert run.verdict(_one_cycle([op]))["correct"]


@pytest.mark.parametrize("label", ["ou", "recombined"])
def test_wrong_first_passage_times_are_flagged(tmp_path, label):
    op = next(o for o in workloads.build("path-ensemble", 3, str(tmp_path))
              if o.name.startswith(f"first_passage_times.{label}."))
    clean = op.run()
    assert run.verdict(_one_cycle([op]))["correct"]
    censored = dataclasses.replace(op, run=lambda: np.full_like(clean, np.nan))
    v = run.verdict(_one_cycle([censored]))
    assert v["gross_values"] > 0 and not v["correct"]
    # every passage a tenth of the horizon late, on the grid; later ones are censored
    last = float(np.nanmax(clean))
    step = float(np.min(np.diff(np.unique(clean[np.isfinite(clean)]))))
    shifted = clean + max(1, round(0.1 * last / step)) * step
    shifted[shifted > last + 0.5 * step] = np.nan
    v = run.verdict(_one_cycle([dataclasses.replace(op, run=lambda: shifted)]))
    assert v["bad_values"] > 0 and v["fail_frac"] == 0.0


def test_setup_import_does_not_load_the_reference(tmp_path):
    # The set-up probe times ``import diffcop``, ``import workloads`` and the build;
    # beyond diffcop's own imports this must add only the standard library.
    code = (f"import sys, json; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
            "import diffcop\n"
            "before = set(sys.modules)\n"
            "import workloads\n"
            "added = sorted(set(sys.modules) - before)\n"
            f"for w in workloads.WORKLOADS: workloads.build(w, 1, {str(tmp_path)!r})\n"
            "print(json.dumps([added, 'reference' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    added, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    foreign = [m for m in added if m != "workloads" and not m.startswith("diffcop")
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign and not loaded


def test_changed_digest_counts_as_failed_operation():
    outputs = iter([np.zeros(3), np.ones(3)])
    op = workloads.Op("synthetic", 3, lambda: next(outputs), lambda out, ref: ref.Check(checked=3))
    runner = _one_cycle([op])
    runner.cycle()
    assert runner.failed == 1 and runner.attempted == 2
    assert "digest" in runner.failures[0]


def _bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_counts_and_digests(workload):
    results = []
    for _ in range(2):
        proc = _bench(workload, 5, 1)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        full = json.loads((HERE / "out" / f"result-{workload}-seed5-trace1.json").read_text())
        results.append((last, full["digests"]))
    (m1, d1), (m2, d2) = results
    assert m1["correct"] and m2["correct"]
    counts = [k for k in m1["metrics"] if tracing.is_count(k)]
    assert counts and {k: m1["metrics"][k]["value"] for k in counts} == \
        {k: m2["metrics"][k]["value"] for k in counts}
    assert d1 == d2 and all(d1.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("path-ensemble", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
