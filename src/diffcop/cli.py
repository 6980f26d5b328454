"""Command-line entry point.

Subcommands: copula-grid, simulate, recombine, fpt, validate.  An optional
JSON config (--config) supplies flags: each ``key: value`` is parsed and
checked as the flag ``--key-with-dashes=value``, and a flag on the command line
always wins.  Unknown config keys are rejected.  Exit codes: 0 ok, 1 numerical
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import copula, models, uniformize, validation
from .recombine import first_passage_times, model_marginal_family, recombine as build_recombined
from .errors import DomainError, NumericsError

_DEFAULT_GRID_N = 201
_DEFAULT_SEED = 0


def _parse_params(raw: str | None) -> dict:
    """Parse `key=value[,key=value...]` into a float-valued dict."""
    if not raw:
        return {}
    out = {}
    for item in raw.split(","):
        if "=" not in item:
            raise DomainError(f"malformed parameter item '{item}' (expected key=value)")
        key, val = item.split("=", 1)
        out[key.strip()] = float(val)
    return out


def _config_tokens(args: argparse.Namespace, cfg) -> list[str]:
    """A JSON config as flags of the parsed subcommand: ``key: value`` becomes
    ``--key-with-dashes=value``, and an on/off flag takes only a JSON boolean."""
    sub: argparse.ArgumentParser = args.subparser
    if not isinstance(cfg, dict):
        sub.error("config must be a JSON object of flag names and values")
    unknown = set(cfg) - (set(vars(args)) - {"subparser", "func", "command"})
    if unknown:        # else argparse would expand an abbreviated key to a flag
        sub.error(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, val in cfg.items():
        switch = sub.get_default(key) is False          # an on/off flag, as --uniformized
        if isinstance(val, bool) != switch:
            sub.error(f"config key '{key}': invalid value {val!r}")
        flag = "--" + key.replace("_", "-")
        if not switch:
            tokens.append(f"{flag}={val}")      # the '=' form keeps '-x.csv' a value
        elif val:
            tokens.append(flag)
    return tokens


def _time_grid(t0: float, t_max: float, n_steps: int) -> np.ndarray:
    if n_steps < 1 or t_max <= t0:
        raise DomainError("need n_steps >= 1 and t_max > t0")
    return t0 + (t_max - t0) * np.arange(1, n_steps + 1) / n_steps


def _build_model(args, prefix: str = "") -> models.Model:
    get = lambda name: getattr(args, f"{prefix}{name}")
    return models.make_model(get("model"), _parse_params(get("params")),
                             x0=get("x0"), t0=get("t0"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_SURFACES = {
    "bm": lambda a: copula.gaussian_closed_form(a.s, a.t),
    "gaussian": lambda a: copula.gaussian_closed_form(a.s, a.t),
    "ou": lambda a: copula.ou_closed_form(a.alpha, a.s, a.t),
    "rbm": lambda a: copula.rbm_closed_form(a.s, a.t),
    "cir": lambda a: copula.cir_closed_form(a.alpha, a.gamma, a.x0, a.s, a.t),
}


def _cmd_copula_grid(args) -> int:
    copula.write_grid_csv(_SURFACES[args.model](args), args.n, args.out)
    print(f"wrote {args.n}x{args.n} copula grid to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    model = _build_model(args)
    times = _time_grid(args.t0, args.t_max, args.n_steps)
    if args.uniformized:
        ens = uniformize.simulate_uniformized(model, times, args.n_paths, seed=args.seed)
    else:
        ens = models.simulate_paths(model, times, args.n_paths, seed=args.seed)
    ens.to_csv(args.out)
    print(f"wrote {args.n_paths} paths on {times.size} times to {args.out}")
    return 0


def _cmd_recombine(args) -> int:
    source = _build_model(args, "source_")
    target = _build_model(args, "target_")
    t0 = args.source_t0
    process = build_recombined(source, model_marginal_family(target),
                               probe_time=t0 + (args.t_max - t0) / 2.0)
    times = _time_grid(t0, args.t_max, args.n_steps)
    ens = process.sample_paths(times, args.n_paths, seed=args.seed)
    ens.to_csv(args.out)
    print(f"wrote {args.n_paths} recombined paths to {args.out}")
    return 0


def _cmd_fpt(args) -> int:
    model = _build_model(args)
    sample = first_passage_times(
        model, args.threshold, reset=args.reset, t_max=args.t_max,
        dt=args.dt, n_paths=args.n_paths, seed=args.seed)
    sample.to_csv(args.out)
    print(f"wrote {args.n_paths} first-passage records to {args.out} "
          f"({sample.n_censored} censored)")
    return 0


def _cmd_validate(args) -> int:
    results = validation.run_suite(args.suite)
    failed = 0
    for result in results:
        print(validation.format_result(result))
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} criterion(s) FAILED")
        return 1
    print("all criteria passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(sub, prefix: str = "", x0_required: bool = False) -> None:
    dash = prefix.replace("_", "-")
    sub.add_argument(f"--{dash}model", required=True,
                     choices=models.catalog_ids(), dest=f"{prefix}model")
    sub.add_argument(f"--{dash}params", default="", dest=f"{prefix}params",
                     help="model parameters as key=value[,key=value...]")
    sub.add_argument(f"--{dash}x0", type=float, default=None if x0_required else 0.0,
                     required=x0_required, dest=f"{prefix}x0")
    sub.add_argument(f"--{dash}t0", type=float, default=0.0, dest=f"{prefix}t0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcop",
        description="Copula structure of one-dimensional diffusions: grids, "
                    "simulation, recombination, first-passage times, validation.")
    subs = parser.add_subparsers(dest="command", required=True)

    grid = subs.add_parser("copula-grid", help="write a copula density grid CSV")
    grid.add_argument("--config", default=None, help="JSON config (flags override)")
    grid.add_argument("--model", required=True, choices=tuple(_SURFACES))
    grid.add_argument("--alpha", type=float, default=0.1)
    grid.add_argument("--gamma", type=float, default=625.0)
    grid.add_argument("--x0", type=float, default=10.0)
    grid.add_argument("--s", type=float, required=True)
    grid.add_argument("--t", type=float, required=True)
    grid.add_argument("--n", type=int, default=_DEFAULT_GRID_N)
    grid.add_argument("--out", default="copula_grid.csv")
    grid.set_defaults(func=_cmd_copula_grid, subparser=grid)

    sim = subs.add_parser("simulate", help="exact path simulation to CSV")
    sim.add_argument("--config", default=None)
    _add_model_flags(sim)
    sim.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    sim.add_argument("--n-steps", type=int, default=50, dest="n_steps")
    sim.add_argument("--n-paths", type=int, default=100, dest="n_paths")
    sim.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    sim.add_argument("--uniformized", action="store_true",
                     help="emit probability-integral-transformed paths")
    sim.add_argument("--out", default="paths.csv")
    sim.set_defaults(func=_cmd_simulate, subparser=sim)

    rec = subs.add_parser("recombine",
                          help="combine a source copula with target marginals")
    rec.add_argument("--config", default=None)
    _add_model_flags(rec, "source_")
    _add_model_flags(rec, "target_", x0_required=True)
    rec.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    rec.add_argument("--n-steps", type=int, default=50, dest="n_steps")
    rec.add_argument("--n-paths", type=int, default=100, dest="n_paths")
    rec.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    rec.add_argument("--out", default="recombined_paths.csv")
    rec.set_defaults(func=_cmd_recombine, subparser=rec)

    fpt = subs.add_parser("fpt", help="first-passage times through a threshold")
    fpt.add_argument("--config", default=None)
    _add_model_flags(fpt)
    fpt.add_argument("--threshold", type=float, required=True)
    fpt.add_argument("--reset", type=float, default=None)
    fpt.add_argument("--t-max", type=float, default=10.0, dest="t_max")
    fpt.add_argument("--dt", type=float, default=0.01)
    fpt.add_argument("--n-paths", type=int, default=1000, dest="n_paths")
    fpt.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    fpt.add_argument("--out", default="fpt.csv")
    fpt.set_defaults(func=_cmd_fpt, subparser=fpt)

    val = subs.add_parser("validate", help="run the invariant/acceptance suite")
    val.add_argument("--config", default=None)
    val.add_argument("--suite", default="all", choices=validation.suite_names())
    val.set_defaults(func=_cmd_validate, subparser=val)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                tokens = _config_tokens(args, json.load(fh))
            # the config's flags go first, so a flag on the command line wins
            args = parser.parse_args([argv[0], *tokens, *argv[1:]])
        return args.func(args)
    except (DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
