#!/usr/bin/env python3
"""diffcop benchmark: end-to-end timings, a live correctness gate, and per-layer tracing.

Usage (from the repository root):

    python3 perfbench/run.py --workload surface-sweep --seed 1 --seconds 20 --trace 0

Workloads are ``surface-sweep``, ``cdf-quadrature`` and ``path-ensemble`` (see
``workloads.py`` and BENCHMARK.json for why each exists).  One process, one
calling thread, closed loop: each operation is issued when the previous one
returns, after only a 1 ms host-speed probe.  ``DIFFCOP_THREADS`` is removed
from the environment, so the default serial path is measured.

A run is a sequence of cycles through the workload's schedule.  The first
cycle warms up and checks every output against an independent reference
(untimed); later cycles are timed, and every output must reproduce the first
cycle's sha256 digest.  Timed cycles continue until ``--seconds`` have passed,
the tail percentile has at least ten operations beyond it, and every operation
has been timed ten times.  Timings are corrected for the host's speed, which a
calibration probe measures before every timed operation (see CAL_REF_S).
Set-up time and peak memory come from fresh interpreters that import only
diffcop and the schedule, never the reference (see ``setup_probe``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced cycles and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it restate every metric with its unit, the correctness
figures and the provenance.  Full results and the spans of one traced cycle
are written under ``perfbench/out/``.  The exit code is nonzero when diffcop's
sources are missing or a reference check cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "diffcop"
OUT = HERE / "out"
SETUP_REPEATS = 5
# op_tail_ms is this percentile for every workload and commit.  A run keeps
# cycling until --seconds have passed, at least ten operations lie beyond the
# percentile, and every operation has been timed MIN_CYCLES times.
TAIL_PCT = 90.0
MIN_CYCLES = 10
# Host-speed correction.  Other tenants of a shared machine change its speed by
# tens of percent within seconds and for minutes at a time, which would swamp a
# regression bound.  A calibration probe that calls no routine diffcop calls is
# timed before every timed operation, outside its timing, and each latency is
# rescaled by the probes around it:
#     reported = measured * CAL_REF_S / median(the CAL_WINDOW nearest probes).
# Set-up times are rescaled by CAL_SETUP_SAMPLES probes in the same interpreter.
# CAL_REF_S estimates the probe's median on a quiet 2-vCPU x86-64 host, so reported
# times read as that host's wall-clock times.
CAL_REF_S = 1.13e-3
CAL_WINDOW = 11
CAL_SETUP_SAMPLES = 30
THREAD_VARS = ("DIFFCOP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# Modules reported as <module>.sloc (0 once deleted); src.sloc counts every module.
SLOC_MODULES = ("init", "numerics", "parallel", "cli", "copula", "errors", "models",
                "recombine", "special", "stt", "uniformize", "validation")


class ReferenceCheckError(RuntimeError):
    """A reference check could not run; the run has no valid result."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one import-and-build in a fresh interpreter")
    ap.add_argument("--probe-cycles", type=int, default=0,
                    help="internal: unchecked cycles the set-up probe runs before reading its peak RSS")
    return ap.parse_args(argv)


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# Host-speed probe; set-up time and peak memory measured in fresh interpreters
# ---------------------------------------------------------------------------

def calibration() -> float:
    """Seconds taken by a fixed host-speed probe: scipy's incomplete elliptic integral.

    The probe is compiled scalar code on short vectors, like the special
    functions diffcop spends its time in, but calls none of them, so no
    operation of the benchmark starts with a routine the probe has warmed.
    """
    import numpy as np
    from scipy.special import ellipeinc
    phi = np.linspace(0.05, 1.5, 200)
    m = np.linspace(0.01, 0.95, 200)
    start = time.perf_counter()
    for k in range(20):
        ellipeinc(phi, m * (k % 7 + 1) / 8.0).sum()
    return time.perf_counter() - start


def setup_probe(workload: str, seed: int, cycles: int) -> int:
    """Time the import and the build, then the calibration probe, then read peak RSS.

    The timed region imports diffcop and ``workloads`` and builds the schedule;
    ``workloads`` does not import ``reference``, so nothing the checks need is
    loaded here.  After ``cycles`` unchecked cycles of the schedule, the
    process's peak resident memory is that of diffcop running the workload.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(PACKAGE.parent))
    import diffcop  # noqa: F401
    import workloads
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        ops = workloads.build(workload, seed, tmp)
        elapsed = time.perf_counter() - start
        cal = statistics.median(calibration() for _ in range(CAL_SETUP_SAMPLES))
        for _ in range(cycles):
            for op in ops:
                op.run()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(repr(elapsed), repr(cal), repr(rss_mb))
    return 0


def measure_setup(workload: str, seed: int, env: dict) -> tuple[list[tuple[float, float]], float]:
    """(set-up seconds, calibration seconds) from fresh interpreters, and the peak RSS
    in MB of the first of them, which also runs one unchecked cycle."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out, rss_mb = [], None
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(cmd + ["--probe-cycles", "1" if i == 0 else "0"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, cal, rss = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(elapsed), float(cal)))
        rss_mb = float(rss) if rss_mb is None else rss_mb
    return out, rss_mb


# ---------------------------------------------------------------------------
# Running the schedule
# ---------------------------------------------------------------------------

def digest(out) -> str:
    import numpy as np
    h = hashlib.sha256()
    if isinstance(out, str):                      # CLI operations return their CSV path
        h.update(Path(out).read_bytes())
    else:
        arr = np.ascontiguousarray(out, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.data)
    return h.hexdigest()


class Runner:
    """Executes cycles of a schedule and keeps per-operation outcomes."""

    def __init__(self, ops):
        self.ops = ops
        self.first_digest: list[str | None] = [None] * len(ops)
        self.invalid: list[str] = [""] * len(ops)
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, i, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{self.ops[i].name}: {why}")

    def cycle(self, tracer=None, ref=None, between=None) -> list[float]:
        """One pass through the schedule; returns the operation latencies in seconds.

        With ``ref``, the ``reference`` module, every output is checked against it.
        ``between`` is called before each operation, outside its timing.
        """
        latencies = []
        for i, op in enumerate(self.ops):
            if between is not None:
                between()
            self.attempted += 1
            if tracer is not None:
                tracer.op = i
                root = tracer.open(f"bench.{op.name}", op.values)
            start = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:              # an operation that raises is a failed one
                out, error = None, exc
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.close(root)
            if error is not None:
                self._fail(i, "".join(traceback.format_exception_only(error)).strip())
                continue
            dig = digest(out)
            if self.first_digest[i] is None:
                self.first_digest[i] = dig
            elif dig != self.first_digest[i]:
                self._fail(i, "output digest changed under the same seed")
                continue
            if ref is not None:
                try:
                    result = op.check(out, ref)
                except Exception as exc:
                    raise ReferenceCheckError(f"reference check of {op.name} failed: {exc!r}") from exc
                self.checks.append((op.name, result))
                self.invalid[i] = result.invalid
            if self.invalid[i]:
                self._fail(i, self.invalid[i])
        return latencies


def verdict(runner: Runner) -> dict:
    """Failure and bad-value fractions; correct means no failed operation and no gross error."""
    checked = sum(c.checked for _, c in runner.checks)
    bad = sum(c.bad for _, c in runner.checks)
    gross = sum(c.gross for _, c in runner.checks)
    return {"fail_frac": runner.failed / runner.attempted,
            "bad_value_frac": bad / checked if checked else 0.0,
            "values_checked": checked, "bad_values": bad, "gross_values": gross,
            "worst_rel_err": max((c.worst for _, c in runner.checks), default=0.0),
            "correct": runner.failed == 0 and gross == 0 and checked > 0}


def percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), pct))


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def sloc(path: Path) -> int:
    lines = path.read_text().splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def module_sloc() -> dict[str, int]:
    return {p.stem.strip("_") or p.stem: sloc(p) for p in sorted(PACKAGE.glob("*.py"))}


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def provenance(args, thread_env, ops) -> dict:
    import numpy
    import scipy
    import diffcop
    sha, dirty = git_state()
    src = hashlib.sha256()
    for p in sorted(PACKAGE.glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": sha, "git_dirty": dirty, "src_sha256": src.hexdigest(),
        "diffcop": diffcop.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "thread_env": thread_env,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "sizes": [[op.name, op.values] for op in ops],
        "sloc": module_sloc(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: diffcop sources not found under {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.probe_cycles)

    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("DIFFCOP_THREADS", None)
    sys.path.insert(0, str(PACKAGE.parent))
    import diffcop
    if Path(diffcop.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported diffcop from {diffcop.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup, rss_mb = ([], None) if args.trace else measure_setup(args.workload, args.seed,
                                                                 dict(os.environ))
    import reference
    tmp = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-")
    try:
        ops = workloads.build(args.workload, args.seed, tmp)
        runner = Runner(ops)
        try:
            runner.cycle(ref=reference)
        except ReferenceCheckError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        if args.trace:
            result = traced_run(args, runner, tracing, diffcop)
        else:
            result = timed_run(args, runner, setup, rss_mb)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    v = verdict(runner)
    correct = v["correct"] and result.pop("counts_repeat", True)
    metrics = result["metrics"]
    if args.trace:
        metrics["check.fail_frac"] = v["fail_frac"]
        metrics["check.bad_value_frac"] = v["bad_value_frac"]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are emitted but not declared "
              "in BENCHMARK.json, or declared but not emitted", file=sys.stderr)
        return 4

    prov = provenance(args, thread_env, ops)
    tol = workloads.REL_TOL
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"{len(ops)} operations per cycle, {result['info']}"]
    raw = result.get("uncorrected", {})
    for name, value in metrics.items():
        lines.append(f"  {name:<44s} {value!r:>24} {units[name]}"
                     + (f"  (uncorrected {raw[name]!r})" if name in raw and raw[name] != value else ""))
    lines.append(f"  {'fail_frac':<44s} {v['fail_frac']!r:>24} ({runner.failed} of "
                 f"{runner.attempted} operations raised, returned invalid output or changed digest)")
    lines.append(f"  {'bad_value_frac':<44s} {v['bad_value_frac']!r:>24} ({v['bad_values']} of "
                 f"{v['values_checked']} checked values beyond relative tolerance {tol:g}; "
                 f"{v['gross_values']} beyond {reference.GROSS_REL_TOL:g}; worst "
                 f"{v['worst_rel_err']:.3g} where the reference is >= {reference.GROSS_FLOOR:g})")
    for why in runner.failures:
        lines.append(f"  failure: {why}")
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"provenance": prov, **v, "correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "failures": runner.failures, "rel_tol": tol,
            "checks": [{"op": n, **vars(c)} for n, c in runner.checks],
            "digests": dict(zip((op.name for op in ops), runner.first_digest)),
            "metrics": metrics, "setup_probes_s": setup, "info": result["info"],
            **{k: result.get(k) for k in ("uncorrected", "op_median_ms", "latencies_s",
                                          "probes_s")}}
    (OUT / f"result-{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True))
    if "spans" in result:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "elems"],
             "ops": [op.name for op in ops], "spans": result["spans"]}))

    print(json.dumps({"correct": bool(correct), "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def local_speed(probes: list[float]) -> list[float]:
    """For each operation, the median of the CAL_WINDOW probes centred on its own."""
    half = CAL_WINDOW // 2
    return [statistics.median(probes[max(0, i - half):i + half + 1]) for i in range(len(probes))]


def timed_run(args, runner, setup, peak_rss_mb) -> dict:
    min_ops = math.ceil(10.0 / (1.0 - TAIL_PCT / 100.0)) + 1
    k = len(runner.ops)
    latencies, probes = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(latencies) < min_ops
           or len(latencies) < MIN_CYCLES * k):
        latencies.extend(runner.cycle(between=lambda: probes.append(calibration())))
    values = sum(op.values for op in runner.ops)
    corrected = [t * CAL_REF_S / c for t, c in zip(latencies, local_speed(probes))]

    def timings(lat, setup_s):
        cycles = [sum(lat[i:i + k]) for i in range(0, len(lat), k)]
        return {"setup_s": statistics.median(setup_s),
                "values_per_s": values / statistics.median(cycles),
                "op_p50_ms": 1e3 * percentile(lat, 50.0),
                "op_tail_ms": 1e3 * percentile(lat, TAIL_PCT),
                "peak_rss_mb": peak_rss_mb}

    info = (f"{len(latencies) // k} timed cycles, {len(latencies)} timed operations, "
            f"op_tail_ms is p{TAIL_PCT:g}, setup_s is the median of {len(setup)}; host speed "
            f"{CAL_REF_S / statistics.median(probes):.3f} of the reference (median over "
            f"{len(probes)} probes)")
    op_ms = {op.name + f"#{i}": 1e3 * statistics.median(latencies[i::k])
             for i, op in enumerate(runner.ops)}
    return {"metrics": timings(corrected, [t * CAL_REF_S / c for t, c in setup]), "info": info,
            "uncorrected": timings(latencies, [t for t, _ in setup]),
            "op_median_ms": op_ms, "latencies_s": latencies, "probes_s": probes}


def traced_run(args, runner, tracing, package) -> dict:
    plain, traced, per_cycle, first_tracer = [], [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        runner.cycle()
        plain.append(time.perf_counter() - t0)
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            t0 = time.perf_counter()
            runner.cycle(tracer=tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        per_cycle.append(tracing.aggregate(tracer))
        first_tracer = first_tracer or tracer
    if first_tracer.missing:
        print(f"warning: trace hooks not found: {', '.join(first_tracer.missing)}", file=sys.stderr)

    counts_repeat = all({k: v for k, v in m.items() if tracing.is_count(k)}
                        == {k: v for k, v in per_cycle[0].items() if tracing.is_count(k)}
                        for m in per_cycle)
    if not counts_repeat:
        print("error: per-layer counts differ between traced cycles", file=sys.stderr)
    metrics = {k: (v if tracing.is_count(k) else statistics.fmean(m[k] for m in per_cycle))
               for k, v in per_cycle[0].items()}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    slocs = module_sloc()
    for mod in SLOC_MODULES:
        metrics[f"{mod}.sloc"] = slocs.get(mod, 0)
    metrics["src.sloc"] = sum(slocs.values())
    info = (f"{len(traced)} traced and {len(plain)} untraced cycles, counts from one traced "
            "cycle, times are the mean per traced cycle")
    return {"metrics": metrics, "info": info, "spans": first_tracer.spans,
            "counts_repeat": counts_repeat}


if __name__ == "__main__":
    sys.exit(main())
