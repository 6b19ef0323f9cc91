"""Command-line front end: `opertail eval|sample|verify --config FILE --out DIR`.

A run is described by a single JSON config (archivable experiment record);
flags are limited to --config, --out, --seed. Outputs are CSV with
17 significant digits (deterministic runs diff cleanly) or a JSON report.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import copulatail, verify
from .exponent import DivergentIntegralError, exponent_function
from .liouville import IntegrabilityError, LiouvilleParams, NotOperatorRegularlyVarying
from .opscale import DiagExponent

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise ConfigError(f"config is missing required field {field!r}")
    return cfg[field]


def _build_params(cfg: dict) -> LiouvilleParams:
    spec = _require(cfg, "distribution")
    try:
        return LiouvilleParams.from_dict(spec)
    except IntegrabilityError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid field 'distribution': {e}")


def _build_exponent(cfg: dict, p: LiouvilleParams) -> DiagExponent:
    spec = cfg.get("exponent")
    if spec is None:
        return DiagExponent([1.0] * p.dim)
    try:
        return DiagExponent.from_dict(spec)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid field 'exponent': {e}")


def _grid_points(task: dict, dim: int):
    if "points" in task:
        pts = [np.asarray(pt, dtype=float) for pt in task["points"]]
    elif "grid" in task:
        g = task["grid"]
        axis = np.linspace(float(g.get("start", 0.5)), float(g.get("stop", 2.0)),
                           int(g.get("num", 5)))
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        pts = [np.array(pt) for pt in zip(*(m.ravel() for m in mesh))]
    else:
        raise ConfigError("task must provide either 'points' or 'grid'")
    for pt in pts:
        if pt.shape != (dim,):
            raise ConfigError(f"point {pt.tolist()} has wrong dimension (need {dim})")
    return pts


def _make_evaluator(name: str, task: dict, p: LiouvilleParams, E: DiagExponent):
    if name == "joint_density":
        return p.joint_density, "liouville-kernel", "c_f included"
    if name == "limiting_density":
        return (lambda x: p.limiting_density(E, x),
                "operator-limit", "c_f carried in the limit form")
    if name == "liouville_copula_tail_density":
        form = copulatail.liouville_copula_tail_form(p, E)
        return form, "copula-tail-closed-form", "c_f carried in the limit form"
    if name == "copula_density":
        return (lambda u: copulatail.copula_density(p, u),
                "copula-density", "margins via Weyl quadrature")
    if name == "marginal_density":
        i = int(task.get("margin", 0))
        return (lambda x: p.marginal_density(i, float(x[0])),
                "weyl-marginal", "margin integrates to 1")
    if name == "exponent_function":
        form = copulatail.liouville_copula_tail_form(p, E)
        return (lambda w: exponent_function(form, w),
                "exponent-lower-union", "lower-strip orientation")
    raise ConfigError(f"unknown evaluator {name!r}")


def cmd_eval(cfg: dict, out_dir: Path) -> int:
    p = _build_params(cfg)
    E = _build_exponent(cfg, p)
    task = _require(cfg, "task")
    name = _require(task, "evaluator")
    dim = 1 if name == "marginal_density" else p.dim
    fn, formula, note = _make_evaluator(name, task, p, E)
    points = _grid_points(task, dim)
    values = [float(fn(pt)) for pt in points]
    out_path = out_dir / "eval.csv"
    with open(out_path, "w") as fh:
        cols = [f"w{i + 1}" for i in range(dim)]
        fh.write(",".join(cols + ["value", "formula", "normalization"]) + "\n")
        for pt, val in zip(points, values):
            fh.write(",".join([_fmt(v) for v in pt] + [_fmt(val), formula, note])
                     + "\n")
    print(f"wrote {out_path} ({len(points)} rows)")
    return EXIT_OK


def cmd_sample(cfg: dict, out_dir: Path, seed_override) -> int:
    p = _build_params(cfg)
    task = _require(cfg, "task")
    n = _require(task, "n")
    if (isinstance(n, bool) or not isinstance(n, (int, float))
            or (isinstance(n, float) and not n.is_integer()) or n < 1):
        raise ConfigError(f"invalid field 'n': need an integer >= 1, got {n!r}")
    n = int(n)
    seed = seed_override if seed_override is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("config is missing required field 'seed' "
                          "(or pass --seed)")
    x = p.sample(n, int(seed))
    out_path = out_dir / "samples.csv"
    with open(out_path, "w") as fh:
        fh.write(f"# seed={int(seed)} params={json.dumps(p.to_dict())}\n")
        fh.write(",".join(f"x{i + 1}" for i in range(p.dim)) + "\n")
        for row in x:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {out_path} ({n} rows)")
    return EXIT_OK


def cmd_verify(cfg: dict, out_dir: Path, seed_override) -> int:
    task = _require(cfg, "task")
    name = _require(task, "suite")
    kwargs = dict(task.get("params", {}))
    if seed_override is not None and name in ("orthant-mc", "marginal-hill",
                                              "transform-roundtrip"):
        kwargs["seed"] = int(seed_override)
    try:
        checks = verify.run_suite(name, **kwargs)
    except ValueError as e:
        raise ConfigError(str(e))
    report = {"suite": name,
              "checks": [c.to_dict() for c in checks],
              "passed": all(c.passed for c in checks)}
    out_path = out_dir / "report.json"
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: measured={c.measured:.3g} "
              f"tolerance={c.tolerance:.3g} {c.detail}")
    print(f"wrote {out_path}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opertail",
        description="Operator tail densities of copulas: evaluate, sample, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "sample", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON run config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        if args.command == "sample":
            return cmd_sample(cfg, out_dir, args.seed)
        return cmd_verify(cfg, out_dir, args.seed)
    except (ConfigError, IntegrabilityError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergentIntegralError, NotOperatorRegularlyVarying,
            ArithmeticError, RuntimeError, ValueError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
