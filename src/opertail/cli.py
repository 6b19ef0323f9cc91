"""Command-line front end: `opertail eval|sample|verify --config FILE --out DIR`.

A run is described by a single JSON config (archivable experiment record);
flags are limited to --config, --out, --seed. `eval` evaluates all points in one
call. `eval` and `sample` write CSV, `verify` writes JSON. A CSV file is ASCII
with "\\n" line ends: its header lines, then one line per row, every number as
"%.17g" (so it re-parses to the same float64) and joined by ",", and for `eval`
the two text columns `formula` and `normalization`.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 numerical
trouble. The exception's class alone picks the code, in ``main``: a
``ValueError`` (``ConfigError``, ``IntegrabilityError``, a point outside an
evaluator's domain, an ``--out`` that cannot be made a directory or written
into) exits 2, an ``ArithmeticError`` or ``RuntimeError``
(``DivergentIntegralError``, ``NotOperatorRegularlyVarying``, overflow, an
exhausted quantile bracket, an untrustworthy exponent cubature, a NaN result,
for which no CSV is written) exits 3, and anything else is a bug and
propagates.
Every config value is checked by ``_require``, ``_int_field`` or ``_num_field``
or by the constructor it feeds; a verify param takes the type of its suite's
default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import copulatail, verify
from .exponent import exponent_function
from .liouville import LiouvilleParams
from .opscale import DiagExponent

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"config file cannot be read: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")


def _require(obj, field: str, name: str = "config"):
    """``obj[field]``; ``obj`` (the config, or its ``task``) must be an object."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object, got {obj!r}")
    if field not in obj:
        raise ConfigError(f"{name} is missing required field {field!r}")
    return obj[field]


def _build_params(cfg: dict) -> LiouvilleParams:
    spec = _require(cfg, "distribution")
    try:
        return LiouvilleParams.from_dict(spec)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid field 'distribution': {e}")


def _build_exponent(cfg: dict, p: LiouvilleParams) -> DiagExponent:
    spec = cfg.get("exponent")
    if spec is None:
        return DiagExponent([1.0] * p.dim)
    eigenvalues = _require(spec, "eigenvalues", "exponent")
    try:
        E = DiagExponent(eigenvalues)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid field 'exponent': {e}")
    if E.dim != p.dim:
        raise ConfigError(f"invalid field 'exponent': need {p.dim} eigenvalues, "
                          f"got {E.dim}")
    return E


def _int_field(value, field: str, lo: int, hi: float = float("inf")) -> int:
    """``value`` as an int in [lo, hi); integral floats such as 1e5 pass."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or value % 1 or not lo <= value < hi):
        raise ConfigError(f"invalid field {field!r}: need an integer in [{lo}, {hi}), "
                          f"got {value!r}")
    return int(value)


def _num_field(value, field: str) -> float:
    """``value`` as a finite float; bools, strings, null and lists fail."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"invalid field {field!r}: need a finite number, got {value!r}")
    return float(value)


def _grid_points(task: dict, dim: int) -> np.ndarray:
    """The task's points, or its grid in "ij" order, as one (n, dim) array."""
    if "points" in task:
        try:
            pts = np.array(task["points"], dtype=float)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid field 'points': {e}")
    elif "grid" in task:
        g = task["grid"]
        if not isinstance(g, dict):
            raise ConfigError(f"invalid field 'grid': need an object, got {g!r}")
        axis = np.linspace(_num_field(g.get("start", 0.5), "grid.start"),
                           _num_field(g.get("stop", 2.0), "grid.stop"),
                           _int_field(g.get("num", 5), "grid.num", 1))
        pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), -1).reshape(-1, dim)
    else:
        raise ConfigError("task must provide either 'points' or 'grid'")
    if pts.ndim != 2 or len(pts) == 0 or pts.shape[1] != dim or not np.isfinite(pts).all():
        raise ConfigError(f"invalid field 'points': need a non-empty list of finite "
                          f"points of dimension {dim}")
    return pts


def _make_evaluator(name: str, task: dict, p: LiouvilleParams, E: DiagExponent):
    """(fn, formula, normalization); ``fn`` maps an (n, d) array to n values."""
    if name == "joint_density":
        return p.joint_density, "liouville-kernel", "c_f included"
    if name == "limiting_density":
        return (lambda X: p.limiting_density(E, X),
                "operator-limit", "c_f carried in the limit form")
    if name == "liouville_copula_tail_density":
        form = copulatail.liouville_copula_tail_form(p, E)
        return form, "copula-tail-closed-form", "c_f carried in the limit form"
    if name == "copula_density":
        return (lambda U: copulatail.copula_density(p, U),
                "copula-density", "Liouville marginal law")
    if name == "marginal_density":
        i = _int_field(task.get("margin", 0), "margin", 0, p.dim)
        return (lambda X: p.marginal_density(i, X[:, 0]),
                "weyl-marginal", "margin integrates to 1")
    if name == "exponent_function":
        form = copulatail.liouville_copula_tail_form(p, E)
        # exponent_function is looked up per call, so a later wrapper on it is seen
        return (lambda W: [exponent_function(form, w) for w in W],
                "exponent-lower-union", "lower-strip orientation")
    raise ConfigError(f"unknown evaluator {name!r}")


_BLOCK_ROWS = 4096  # rows per `%` call: a few MB of strings, not the whole file


def _open_out(path: Path, mode: str):
    """``open(path, mode)``; an OSError (say, ``path`` is a directory) is a bad
    ``--out``."""
    try:
        return open(path, mode)
    except OSError as e:
        raise ConfigError(f"invalid option '--out': {e}")


def _write_csv(path: Path, header_lines, body: np.ndarray, text=()) -> None:
    """The header lines, then per row of ``body`` (a 1-D body is one column)
    its numbers as "%.17g" and the ``text`` columns, joined by ",".

    ASCII with "\\n" line ends, the bytes ``np.savetxt`` writes for the same
    header and row format. A NaN raises ArithmeticError before the file is
    opened; +-inf is written as "inf"/"-inf".
    """
    body = np.asarray(body, dtype=float)
    if body.ndim == 1:
        body = body[:, None]
    nan_rows = np.isnan(body).any(axis=1)
    if nan_rows.any():
        raise ArithmeticError(f"row {nan_rows.argmax() + 1} of {len(body)} is NaN; "
                              f"{path.name} not written")
    row = (",".join(["%.17g"] * body.shape[1] + list(text)) + "\n").encode("ascii")
    with _open_out(path, "wb") as fh:
        fh.write(("\n".join(header_lines) + "\n").encode("ascii"))
        for i in range(0, len(body), _BLOCK_ROWS):
            block = body[i:i + _BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def cmd_eval(cfg: dict, out_dir: Path) -> int:
    p = _build_params(cfg)
    E = _build_exponent(cfg, p)
    task = _require(cfg, "task")
    name = _require(task, "evaluator", "task")
    dim = 1 if name == "marginal_density" else p.dim
    fn, formula, note = _make_evaluator(name, task, p, E)
    points = _grid_points(task, dim)
    try:  # every evaluator rejects a point outside its domain with a ValueError
        values = np.asarray(fn(points), dtype=float)
    except ValueError as e:
        raise ConfigError(f"invalid field 'points': {e}")
    out_path = out_dir / "eval.csv"
    cols = [f"w{i + 1}" for i in range(dim)]
    _write_csv(out_path, [",".join(cols + ["value", "formula", "normalization"])],
               np.column_stack([points, values]), (formula, note))
    print(f"wrote {out_path} ({len(points)} rows)")
    return EXIT_OK


def cmd_sample(cfg: dict, out_dir: Path, seed_override) -> int:
    p = _build_params(cfg)
    task = _require(cfg, "task")
    n = _int_field(_require(task, "n", "task"), "n", 1)
    seed = seed_override if seed_override is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("config is missing required field 'seed' "
                          "(or pass --seed)")
    seed = _int_field(seed, "seed", 0)
    x = p.sample(n, seed)
    out_path = out_dir / "samples.csv"
    _write_csv(out_path, [f"# seed={seed} params={json.dumps(p.to_dict())}",
                          ",".join(f"x{i + 1}" for i in range(p.dim))], x)
    print(f"wrote {out_path} ({n} rows)")
    return EXIT_OK


def cmd_verify(cfg: dict, out_dir: Path, seed_override) -> int:
    task = _require(cfg, "task")
    name = _require(task, "suite", "task")
    if not isinstance(name, str):
        raise ConfigError(f"invalid field 'suite': need a string, got {name!r}")
    params = task.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"invalid field 'params': need an object, got {params!r}")
    kwargs = dict(params)
    # run_suite rejects an unknown suite or param; a known param takes the type
    # of its default, and every suite param defaults to an int or a float
    signature = (inspect.signature(verify.SUITES[name]).parameters
                 if name in verify.SUITES else {})
    if seed_override is not None and "seed" in signature:
        kwargs["seed"] = seed_override
    for key, value in kwargs.items():
        if key in signature:
            kwargs[key] = (_int_field(value, key, 0)
                           if isinstance(signature[key].default, int)
                           else _num_field(value, key))
    checks = verify.run_suite(name, **kwargs)
    report = {"suite": name,
              "checks": [c.to_dict() for c in checks],
              "passed": all(c.passed for c in checks)}
    out_path = out_dir / "report.json"
    with _open_out(out_path, "w") as fh:
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
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"invalid option '--out': {e}")
        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        if args.command == "sample":
            return cmd_sample(cfg, out_dir, args.seed)
        return cmd_verify(cfg, out_dir, args.seed)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
