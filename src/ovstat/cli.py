"""Command-line front end.

Subcommands
    probs        exact rank-pair probability table (CSV or JSON)
    density      gridded continuous part and diagonal atom profile (CSV)
    regress      regression curve on a quantile-spaced grid (CSV)
    reconstruct  parent cdf from a tabulated regression curve (CSV + JSON)
    verify       Monte Carlo concordance report (JSON)

Spec and model options may come from flags or from one JSON config file
(``--config``, read once per command; ``reconstruct`` takes flags only);
flags win on conflict.  Exit codes: 0 ok, 2 configuration error or an
``--out`` path or stdout that cannot be written, 3 invalid mathematical
input, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .curve import Curve, tabulate
from .density import nu_total_mass, overlap_density
from .mc import regression_comparison, verify_spec
from .overlap import CELL_FIELDS, OverlapSpec, probability_table
from .parent import ParentModel, from_config
from .reconstruct import (
    ReconstructionError,
    from_adjacent_regression,
    from_max_regression,
    from_min_regression,
    from_single_regression_slope,
)
from .regression import mean_extended_given_original, mean_original_given_extended

__all__ = ["main"]


class ConfigError(ValueError):
    pass


_SPEC_KEYS = ("r", "m", "n", "i", "j")
_MODEL_KEYS = ("family", "params", "location", "scale")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    for key in _SPEC_KEYS:
        p.add_argument(f"--{key}", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file of spec and model keys; flags override its entries")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default=None, help="parent family name (e.g. uniform, logistic, cb)")
    p.add_argument("--params", default=None, help="family parameters as key=value[,key=value...]")
    p.add_argument("--location", type=float, default=None)
    p.add_argument("--scale", type=float, default=None)


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _merge(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """The command's ``keys`` from its flags, else from its config file, read once."""
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(cfg) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key in keys:
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else cfg.get(key)
    return merged


def _spec_from(cfg: dict) -> OverlapSpec:
    missing = [k for k in _SPEC_KEYS if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing spec values: {missing}")
    try:
        return OverlapSpec(*(cfg[k] for k in _SPEC_KEYS))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_params(raw) -> dict:
    if raw is None:
        return {}
    if isinstance(raw, dict):
        return raw
    out = {}
    for piece in str(raw).split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad parameter {piece!r}; expected key=value")
        key, value = piece.split("=", 1)
        out[key.strip()] = float(value)
    return out


def _model_from(cfg: dict) -> ParentModel:
    if not cfg.get("family"):
        raise ConfigError("a parent model is required (--family)")
    try:
        return from_config(
            {
                "family": cfg["family"],
                "params": _parse_params(cfg.get("params")),
                "location": cfg.get("location") or 0.0,
                "scale": cfg.get("scale") if cfg.get("scale") is not None else 1.0,
            }
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _header(formula: str, extra: dict) -> list[str]:
    lines = [f"# ovstat {__version__}", f"# formula: {formula}"]
    lines += [f"# {key}: {value}" for key, value in extra.items()]
    return lines


@contextlib.contextmanager
def _output(out: str | None, newline: str | None = None):
    """The open output file, or stdout without a path; a failure to open or
    write either is a configuration error that names it.  After a failed
    stdout write, stdout points at the null device, so that the
    interpreter's final flush does not fail again."""
    if not out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(out, "w", newline=newline) as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None


def _write_csv(out: str | None, header: list[str], rows) -> None:
    with _output(out, newline="") as handle:
        for line in header:
            handle.write(line + "\n")
        csv.writer(handle).writerows(rows)


def _write_text(out: str | None, text: str) -> None:
    with _output(out) as handle:
        handle.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_probs(args) -> int:
    spec = _spec_from(_merge(args, _SPEC_KEYS))
    table = probability_table(spec)
    if args.format == "json":
        with _output(args.out) as handle:
            table.write_json(handle, formula="exact-rank-match-table", version=__version__)
            handle.write("\n")
    else:
        header = _header("exact-rank-match-table", {"spec": spec})
        _write_csv(args.out, header, itertools.chain([CELL_FIELDS], table.rows()))
    return 0


def _cmd_density(args) -> int:
    cfg = _merge(args, _SPEC_KEYS + _MODEL_KEYS)
    spec, model = _spec_from(cfg), _model_from(cfg)
    if args.grid < 2:
        raise ConfigError("grid must be >= 2")
    dens = overlap_density(spec, model)
    mass = nu_total_mass(dens, tol=args.tol)
    u = np.arange(1, args.grid + 1) / (args.grid + 1)
    x = np.asarray(model.quantile(u), dtype=float)
    meta = {"spec": spec, "model": model.name, "total_mass": f"{mass:.12g}"}
    cont = dens.continuous(x[:, None], x[None, :])
    rows = [("x", "y", "continuous")]
    rows += [(f"{xv:.12g}", f"{yv:.12g}", f"{cv:.12g}") for xv, row in zip(x, cont) for yv, cv in zip(x, row)]
    _write_csv(args.out, _header("pooled-os-mixture-density", meta), rows)
    atom_rows = [("x", "atom")]
    atom_vals = dens.atom(x)
    atom_rows += [(f"{xv:.12g}", f"{av:.12g}") for xv, av in zip(x, atom_vals)]
    atom_out = None
    if args.out:
        base = Path(args.out)
        atom_out = str(base.with_name(base.stem + ".atom" + base.suffix))
    _write_csv(atom_out, _header("diagonal-atom-profile", meta), atom_rows)
    return 0


def _cmd_regress(args) -> int:
    cfg = _merge(args, _SPEC_KEYS + _MODEL_KEYS)
    spec, model = _spec_from(cfg), _model_from(cfg)
    fn = mean_original_given_extended if args.direction == "orig-given-ext" else mean_extended_given_original
    curve = tabulate(lambda xv: fn(spec, model, xv), model, size=args.grid)
    u, x, values = curve.probs, curve.grid, curve.values
    if args.format == "json":
        payload = {
            "formula": "rank-mixture-regression",
            "version": __version__,
            "spec": {"r": spec.r, "m": spec.m, "n": spec.n, "i": spec.i, "j": spec.j},
            "model": model.name,
            "direction": args.direction,
            "points": [
                {"u": float(uv), "x": float(xv), "value": float(v)}
                for uv, xv, v in zip(u, x, values)
            ],
        }
        _write_text(args.out, json.dumps(payload, indent=2))
        return 0
    rows = [("u", "x", "value")]
    for uv, xv, v in zip(u, x, values):
        rows.append((f"{uv:.12g}", f"{xv:.12g}", f"{v:.12g}"))
    meta = {"spec": spec, "model": model.name, "direction": args.direction}
    _write_csv(args.out, _header("rank-mixture-regression", meta), rows)
    return 0


def _read_curve_csv(path: str) -> tuple[Curve, np.ndarray | None]:
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(row for row in handle if not row.startswith("#"))
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read curve file: {exc}") from None
    if not rows:
        raise ConfigError("empty curve file")
    names = [c.strip().lower() for c in rows[0]]
    if "x" not in names or "value" not in names:
        raise ConfigError("curve CSV needs 'x' and 'value' columns")
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    x = data[:, names.index("x")]
    value = data[:, names.index("value")]
    deriv = data[:, names.index("derivative")] if "derivative" in names else None
    order = np.argsort(x)
    return Curve(x[order], value[order]), (deriv[order] if deriv is not None else None)


def _cmd_reconstruct(args) -> int:
    curve, deriv = _read_curve_csv(args.input)
    route = args.route
    if route in ("min", "max"):
        if args.n is None or args.m is None:
            raise ConfigError(f"route {route!r} needs --n and --m")
        inverse = from_min_regression if route == "min" else from_max_regression
        result = inverse(curve, args.n, args.m, derivative=deriv)
        formula = f"{route}-regression-slope-inverse"
    elif route == "adjacent":
        if args.i is None or args.upper is None:
            raise ConfigError("route 'adjacent' needs --i and --upper")
        result = from_adjacent_regression(curve, args.i, float(args.upper))
        formula = "adjacent-gap-tail-integral"
    elif route == "single-slope":
        if args.n is None or args.j is None:
            raise ConfigError("route 'single-slope' needs --j and --n")
        slope = deriv if deriv is not None else curve.derivative()
        result = from_single_regression_slope(Curve(curve.grid, slope), args.j, args.n)
        formula = "single-draw-kernel-slope-inverse"
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown route {route!r}")
    rows = [("x", "cdf")] + [
        (f"{xv:.12g}", f"{fv:.12g}") for xv, fv in zip(result.cdf.grid, result.cdf.values)
    ]
    _write_csv(args.out, _header(formula, {"route": route, "gauge": result.gauge}), rows)
    diag = {
        "formula": formula,
        "gauge": result.gauge,
        "diagnostics": result.diagnostics,
        "version": __version__,
    }
    diag_path = args.diagnostics
    if diag_path is None and args.out:
        base = Path(args.out)
        diag_path = str(base.with_name(base.stem + ".diagnostics.json"))
    _write_text(diag_path, json.dumps(diag, indent=2, default=float))
    return 0


def _cmd_verify(args) -> int:
    cfg = _merge(args, _SPEC_KEYS + _MODEL_KEYS)
    spec, model = _spec_from(cfg), _model_from(cfg)
    if args.reps < 1:
        raise ConfigError("reps must be >= 1")
    if not args.zmax > 0:
        raise ConfigError("zmax must be > 0")
    # the output is opened first, so that a bad path costs no Monte Carlo run
    with _output(args.out) as handle:
        reports = [verify_spec(spec, model, count=args.reps, seed=args.seed, zmax=args.zmax, workers=args.workers)]
        if args.regression:
            reports.append(
                regression_comparison(
                    spec, model, count=args.reps, seed=args.seed + 1, zmax=args.zmax, trim=(0.1, 0.9), workers=args.workers
                )
            )
        passed = all(rep.passed for rep in reports)
        payload = {
            "formula": "mc-verification",
            "version": __version__,
            "passed": passed,
            "reports": [rep.to_json_dict() for rep in reports],
        }
        handle.write(json.dumps(payload, indent=2) + "\n")
    return 0 if passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovstat",
        description="Exact laws and regressions of order statistics from overlapping samples",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="exact rank-pair probability table")
    _add_spec_flags(p)
    _add_out_flag(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_probs)

    p = sub.add_parser("density", help="continuous density grid and atom profile")
    _add_spec_flags(p)
    _add_model_flags(p)
    _add_out_flag(p)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("regress", help="regression curve on a quantile grid")
    _add_spec_flags(p)
    _add_model_flags(p)
    _add_out_flag(p)
    p.add_argument("--grid", type=int, default=99)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--direction",
        choices=("orig-given-ext", "ext-given-orig"),
        default="orig-given-ext",
    )
    p.set_defaults(fn=_cmd_regress)

    p = sub.add_parser("reconstruct", help="parent cdf from a regression curve CSV")
    _add_out_flag(p)
    p.add_argument("--route", choices=("min", "max", "adjacent", "single-slope"), required=True)
    p.add_argument("--input", required=True, help="curve CSV with columns x,value[,derivative]")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--upper", type=float, default=None)
    p.add_argument("--diagnostics", default=None, help="diagnostics JSON path")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("verify", help="Monte Carlo concordance report")
    _add_spec_flags(p)
    _add_model_flags(p)
    _add_out_flag(p)
    p.add_argument("--reps", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zmax", type=float, default=4.0)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--regression", action="store_true", help="also check the binned regression curve")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReconstructionError, RuntimeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
