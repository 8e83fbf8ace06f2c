"""Command-line driver: every operation as a subcommand with JSON configs.

Precedence is flags > config file > defaults.  Each option is declared once
in ``_OPTIONS``, whose parser types its value once, from either source.
Every run echoes the fully resolved configuration (and the tool version)
alongside its results, so a saved output is a complete recipe for
reproducing itself.  Outputs are
written atomically (temp file + rename).  Exit codes: 0 success, 2 config
errors, 3 domain errors, 4 budget errors; failures print one machine
readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import struct
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dimensions import DimensionReport, full_report
from .engine import (
    DEFAULT_CELL_BUDGET,
    PercolationParams,
    derive_seed,
    generate,
    pgm_bytes,
    raster_side,
    realization_to_dict,
    render_raster,
)
from .errors import BudgetExceededError, InvalidParamsError, PercLabError
from .estimators import (
    CSV_COLUMNS,
    _z_score,
    csv_row,
    estimate_boxdim,
    estimate_measure,
    estimate_survival,
)
from .probseq import DEFAULT_WINDOW, ProbSequence, classify
from .witness import WitnessSpec, build_witness, format_witness_ledger


class ConfigError(Exception):
    """Structural problem with flags or the config file (exit code 2)."""


# ---------------------------------------------------------------------------
# value parsers: each types a flag string or a config-file value once, and
# raises TypeError or ValueError on a value of the wrong shape


def _number(value) -> int | float:
    """A JSON number or a numeric string; booleans, arrays and objects are refused."""
    if isinstance(value, str):
        try:
            return int(value)  # exact for 64-bit seeds
        except ValueError:
            return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _integer(value) -> int:
    number = _number(value)
    if number != int(number):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _real(value) -> float:
    return float(_number(value))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _reals(value) -> list[float]:
    """A comma list or an array of numbers."""
    items = [v for v in value.split(",") if v.strip()] if isinstance(value, str) else value
    if not isinstance(items, list):
        raise TypeError(f"expected a comma list or an array, got {value!r}")
    return [_real(v) for v in items]


def _fields(value, count: int, form: str) -> list | tuple:
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != count:
        raise ValueError(f"expected {form}, got {value!r}")
    return parts


def _pair(value) -> tuple[int, int]:
    lo, hi = _fields(value, 2, "lo:hi")
    return _integer(lo), _integer(hi)


def _parse_grid(value) -> tuple[float, float, int]:
    lo, hi, count = _fields(value, 3, "lo:hi:count")
    lo, hi, count = _real(lo), _real(hi), _integer(count)
    if count < 2:
        raise ValueError(f"needs count >= 2, got {count}")
    return lo, hi, count


def _grid(value):
    """A checked grid, kept as given so that the echoed config is the user's own."""
    _parse_grid(value)
    return value


def _threads(value) -> int:
    threads = _integer(value)
    if threads < 1:
        raise ValueError(f"must be >= 1, got {threads}")
    return threads


class _Option(NamedTuple):
    flag: str
    parse: Callable
    default: object
    help: str
    choices: tuple[str, ...] | None = None


# every config field, keyed by name; a config file uses the same names
_OPTIONS = {
    "out": _Option("--out", _text, None, "output path (stdout when omitted; required for pgm)"),
    "format": _Option("--format", _text, None, "output format", ("json", "csv", "pgm")),
    "family": _Option("--family", _text, None, "mfp | power | power_head | power_telescope | explicit"),
    "p": _Option("--p", _real, None, "base probability"),
    "a": _Option("--a", _real, None, "family shape parameter / gap ratio"),
    "prefix": _Option("--prefix", _reals, None, "comma list: probabilities (explicit) or exponents (power)"),
    "tail": _Option("--tail", _real, None, "constant tail: probability (explicit) or exponent (power)"),
    "n": _Option("--n", _integer, 1, "ambient dimension"),
    "m": _Option("--m", _integer, 2, "subdivision index"),
    "depth": _Option("--depth", _integer, 8, "subdivision depth K"),
    "seed": _Option("--seed", _integer, 0, "64-bit master seed"),
    "budget": _Option("--budget", _integer, DEFAULT_CELL_BUDGET, "max candidate cells per level"),
    "stream": _Option("--stream", _integer, 0, "replicate stream index"),
    "level": _Option("--level", _integer, None, "level to rasterize (default: depth)"),
    "replicates": _Option("--reps", _integer, 1000, "replicate count"),
    "threads": _Option("--threads", _threads, 1, "no effect: replicates run inline in stream order"),
    "window": _Option("--window", _pair, DEFAULT_WINDOW, "k_lo:k_hi evaluation window"),
    "method": _Option("--method", _text, "auto", "dimension method", ("auto", "analytic", "windowed")),
    "fit": _Option("--fit", _pair, None, "k_min:k_max fit levels (boxdim)"),
    "max_attempts": _Option("--max-attempts", _integer, 1000, "replicates drawn at most (boxdim)"),
    "quantity": _Option("--quantity", _text, None, "swept quantity", ("survival", "measure", "boxdim", "dims")),
    "p_grid": _Option("--p-grid", _grid, None, "lo:hi:count grid over p"),
    "a_grid": _Option("--a-grid", _grid, None, "lo:hi:count grid over a"),
    "r": _Option("--r", _real, None, "target dimension"),
    "l": _Option("--l", _real, 0.0, "target expected measure"),
    "case": _Option("--case", _text, "union", "fractional | integer | positive | union"),
    "terms": _Option("--terms", _integer, 8, "union terms J for integer targets"),
    "ledger": _Option("--ledger", _boolean, False, "print the text ledger"),
}

_SEQ = ("family", "p", "a", "prefix", "tail", "n", "m")
_SIM = _SEQ + ("depth", "seed", "budget")
_EST = _SIM + ("replicates", "threads")
_WINDOWED = ("window", "method")
_BOX = ("fit", "max_attempts")

# the fields each subcommand takes as flags, after --out and --format
_COMMANDS = {
    "dims": ("analytic/windowed dimension report", _SEQ + _WINDOWED),
    "classify": ("survival/interior classifier", _SEQ + _WINDOWED),
    "generate": ("sample one realization to JSON", _SIM + ("stream",)),
    "render": ("sample and rasterize one planar realization to PGM", _SIM + ("stream", "level")),
    "measure": ("Monte Carlo expected-measure estimate", _EST),
    "survival": ("Monte Carlo survival-frequency estimate", _EST),
    "boxdim": ("box-counting slope over surviving replicates", _EST + _BOX),
    "witness": ("build a (dimension, measure) witness report", ("n", "m", "r", "l", "case", "terms", "ledger")),
    "sweep": ("grid sweep over one parameter, CSV out", _EST + ("quantity", "p_grid", "a_grid") + _WINDOWED + _BOX),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perclab",
        description="Fat fractal percolation laboratory: dimensions, classifiers, sampling, estimators.",
    )
    parser.add_argument("--version", action="version", version=f"perclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (helptext, fields) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=helptext)
        cmd.add_argument("--config", help="JSON config file; flags override its fields")
        for field in ("out", "format") + fields:
            opt = _OPTIONS[field]
            # flags stay strings here; resolve_config types them with the file's values
            if opt.parse is _boolean:
                cmd.add_argument(opt.flag, dest=field, action="store_const", const=True, help=opt.help)
            else:
                cmd.add_argument(opt.flag, dest=field, choices=opt.choices, help=opt.help)
    return parser


# ---------------------------------------------------------------------------
# config resolution


def _read_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(loaded) - set(_OPTIONS) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    file_cmd = loaded.pop("command", None)
    if file_cmd is not None and file_cmd != command:
        raise ConfigError(f"config file names command {file_cmd!r} but {command!r} was invoked")
    return loaded


def resolve_config(args: argparse.Namespace) -> dict:
    """Flags over config file over defaults, every field typed by its parser."""
    given = _read_config(args.config, args.command) if args.config else {}
    given.update((field, value) for field, value in vars(args).items() if value is not None)
    cfg = {"command": args.command}
    for field, opt in _OPTIONS.items():
        value = opt.default if given.get(field) is None else given[field]
        if value is not None:
            try:
                value = opt.parse(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {field}: {exc}") from exc
            if opt.choices and value not in opt.choices:
                raise ConfigError(f"{field} must be one of {list(opt.choices)}, got {value!r}")
        cfg[field] = value
    return cfg


def build_seq(cfg: dict) -> ProbSequence:
    family = cfg.get("family")
    if not family:
        raise ConfigError("missing --family")
    d = {"kind": family}
    for key in ("p", "a", "prefix", "tail"):
        if cfg.get(key) is not None:
            d[key] = cfg[key]
    return ProbSequence.from_dict(d)


def build_params(cfg: dict) -> PercolationParams:
    return PercolationParams(
        cfg["n"], cfg["m"], cfg["depth"], build_seq(cfg), seed=cfg["seed"], cell_budget=cfg["budget"]
    )


def _family_label(cfg: dict) -> tuple[str, str]:
    family = cfg.get("family") or ""
    parts = []
    for key in ("p", "a", "tail"):
        if cfg.get(key) is not None:
            parts.append(f"{key}={format(cfg[key], '.17g')}")
    if cfg.get("prefix"):
        parts.append("prefix=" + "|".join(format(v, ".17g") for v in cfg["prefix"]))
    return family, ";".join(parts)


# ---------------------------------------------------------------------------
# output plumbing


def _atomic_write(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".perclab-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _doc(cfg: dict, result) -> dict:
    return {"tool": "perclab", "version": __version__, "config": cfg, "result": result}


def _emit_json(cfg: dict, result, out) -> None:
    text = json.dumps(_doc(cfg, result), indent=2, sort_keys=True) + "\n"
    if out:
        _atomic_write(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _emit_csv(cfg: dict, rows: list[list[str]], out) -> None:
    lines = [
        f"# version: perclab {__version__}",
        "# config: " + json.dumps(cfg, sort_keys=True),
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        _atomic_write(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _pick_format(cfg: dict, allowed: tuple[str, ...], default: str) -> str:
    fmt = cfg.get("format")
    if not fmt and cfg.get("out"):
        ext = os.path.splitext(cfg["out"])[1].lstrip(".").lower()
        if ext in allowed:
            fmt = ext
    fmt = fmt or default
    if fmt not in allowed:
        raise ConfigError(f"format {fmt!r} not supported here (choose from {list(allowed)})")
    return fmt


# ---------------------------------------------------------------------------
# subcommands


def _dims_report(cfg: dict) -> DimensionReport:
    return full_report(
        build_seq(cfg), cfg["n"], cfg["m"], window=cfg["window"], method=cfg["method"]
    )


def _dims_row(cfg: dict, rep: DimensionReport) -> list[str]:
    family, fparams = _family_label(cfg)
    return csv_row(
        "dims", None, family, fparams, None, rep.hausdorff, 0.0, rep.hausdorff, None, n=rep.n, m=rep.m
    )


def cmd_dims(cfg: dict) -> str:
    rep = _dims_report(cfg)
    fmt = _pick_format(cfg, ("json", "csv"), "json")
    if fmt == "json":
        _emit_json(cfg, rep.to_dict(), cfg["out"])
    else:
        _emit_csv(cfg, [_dims_row(cfg, rep)], cfg["out"])
    return (
        f"dims {cfg['family']} n={cfg['n']} m={cfg['m']}: hausdorff={rep.hausdorff:.6g} "
        f"packing={rep.packing:.6g} assouad={rep.assouad:.6g} measure={rep.expected_measure:.6g} "
        f"[{rep.method}]"
    )


def cmd_classify(cfg: dict) -> str:
    seq = build_seq(cfg)
    rep = classify(seq, cfg["n"], cfg["m"], window=cfg["window"], method=cfg["method"])
    _pick_format(cfg, ("json",), "json")
    _emit_json(cfg, rep.to_dict(), cfg["out"])
    return (
        f"classify {cfg['family']} n={cfg['n']} m={cfg['m']}: alpha={rep.alpha:.6g} beta={rep.beta:.6g} "
        f"{rep.survival_class}/{rep.interior_class}"
    )


def cmd_generate(cfg: dict) -> str:
    params = build_params(cfg)
    r = generate(params, stream=cfg["stream"])
    _pick_format(cfg, ("json",), "json")
    _emit_json(cfg, realization_to_dict(r), cfg["out"])
    return (
        f"generate {cfg['family']} n={params.n} m={params.m} K={params.depth} seed={params.seed}: "
        f"X_K={r.counts[params.depth]} measure={r.measure_at(params.depth):.6g}"
    )


def cmd_render(cfg: dict) -> str:
    params = build_params(cfg)
    if not cfg.get("out"):
        raise ConfigError("render writes binary PGM; --out is required")
    _pick_format(cfg, ("pgm",), "pgm")
    level = params.depth if cfg["level"] is None else cfg["level"]
    if not 0 <= level <= params.depth:
        raise InvalidParamsError(f"level {level} outside [0, {params.depth}]")
    side = raster_side(params.n, params.m, level)  # before any cell is sampled
    # deeper levels draw later in the stream, so generating only to this one
    # gives the same bytes at any depth; the realization is dropped once its
    # level is rasterized
    shallow = dataclasses.replace(params, depth=max(level, 1))
    data = pgm_bytes(render_raster(generate(shallow, stream=cfg["stream"]), level))
    _atomic_write(cfg["out"], data)
    # provenance for the binary output goes to stdout instead of the file
    sys.stdout.write(json.dumps(_doc(cfg, {"out": cfg["out"], "width": side, "height": side}),
                                sort_keys=True) + "\n")
    return f"render {cfg['family']} level={level}: {side}x{side} PGM -> {cfg['out']}"


def _run_estimator(cfg: dict, quantity: str, params: PercolationParams):
    reps = cfg["replicates"]
    if quantity == "survival":
        return estimate_survival(params, reps)
    if quantity == "measure":
        return estimate_measure(params, reps)
    return estimate_boxdim(params, reps, fit_levels=cfg["fit"], max_attempts=cfg["max_attempts"])


def _estimator_row(cfg: dict, quantity: str, params: PercolationParams, rep) -> list[str]:
    family, fparams = _family_label(cfg)
    if quantity == "boxdim":
        theory = None
        if params.seq.limit is not None:
            theory = full_report(params.seq, params.n, params.m).hausdorff
        return csv_row(
            "box_dimension", params, family, fparams, rep.replicates_used,
            rep.slope, rep.slope_std_error, theory, _z_score(rep.slope, theory, rep.slope_std_error),
        )
    return csv_row(
        rep.quantity, params, family, fparams, rep.replicates,
        rep.estimate, rep.std_error, rep.theory, rep.z_score,
    )


def _cmd_estimate(cfg: dict, quantity: str) -> str:
    params = build_params(cfg)
    rep = _run_estimator(cfg, quantity, params)
    fmt = _pick_format(cfg, ("json", "csv"), "json")
    if fmt == "json":
        _emit_json(cfg, rep.to_dict(), cfg["out"])
    else:
        _emit_csv(cfg, [_estimator_row(cfg, quantity, params, rep)], cfg["out"])
    if quantity == "boxdim":
        return (
            f"boxdim {cfg['family']} n={params.n} m={params.m} K={params.depth}: "
            f"slope={rep.slope:.6g} r2={rep.r_squared:.4f} attempts={rep.attempts}"
        )
    theory = "n/a" if rep.theory is None else f"{rep.theory:.6g}"
    return (
        f"{quantity} {cfg['family']} n={params.n} m={params.m} K={params.depth} R={rep.replicates}: "
        f"estimate={rep.estimate:.6g} se={rep.std_error:.3g} theory={theory}"
    )


def cmd_witness(cfg: dict) -> str:
    if cfg["r"] is None:
        raise ConfigError("witness needs --r (target dimension)")
    spec = WitnessSpec(r=cfg["r"], l=cfg["l"], n=cfg["n"], m=cfg["m"], case=cfg["case"], terms=cfg["terms"])
    rep = build_witness(spec)
    if cfg["ledger"]:
        sys.stdout.write(format_witness_ledger(rep) + "\n")
    else:
        _pick_format(cfg, ("json",), "json")
        _emit_json(cfg, rep.to_dict(), cfg["out"])
    return (
        f"witness case={spec.case}: combined_dim={rep.combined_dim:.10g} "
        f"combined_measure={rep.combined_measure:.10g} components={len(rep.components)}"
    )


def cmd_sweep(cfg: dict) -> str:
    quantity = cfg["quantity"]
    if quantity is None:
        raise ConfigError("sweep needs --quantity survival|measure|boxdim|dims")
    if (cfg["p_grid"] is None) == (cfg["a_grid"] is None):
        raise ConfigError("sweep needs exactly one of --p-grid / --a-grid")
    key, grid_spec = ("p", cfg["p_grid"]) if cfg["p_grid"] is not None else ("a", cfg["a_grid"])
    lo, hi, count = _parse_grid(grid_spec)
    values = np.linspace(lo, hi, count)
    master = cfg["seed"]
    rows = []
    for value in values:
        point = dict(cfg)
        point[key] = float(value)
        if quantity == "dims":
            rows.append(_dims_row(point, _dims_report(point)))
            continue
        # keyed by the grid value so repeated values reproduce identical rows
        value_bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        point["seed"] = derive_seed(master, value_bits)
        params = build_params(point)
        rep = _run_estimator(point, quantity, params)
        rows.append(_estimator_row(point, quantity, params, rep))
    _pick_format(cfg, ("csv",), "csv")
    _emit_csv(cfg, rows, cfg["out"])
    return f"sweep {quantity} over {key}: {count} points in [{lo:g}, {hi:g}]"


_RUNNERS = {
    "dims": cmd_dims,
    "classify": cmd_classify,
    "generate": cmd_generate,
    "render": cmd_render,
    "measure": lambda cfg: _cmd_estimate(cfg, "measure"),
    "survival": lambda cfg: _cmd_estimate(cfg, "survival"),
    "boxdim": lambda cfg: _cmd_estimate(cfg, "boxdim"),
    "witness": cmd_witness,
    "sweep": cmd_sweep,
}


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = resolve_config(args)
        summary = _RUNNERS[cfg["command"]](cfg)
    except ConfigError as exc:
        return _fail(exc, 2)
    except BudgetExceededError as exc:
        return _fail(exc, 4)
    except (PercLabError, ValueError, OverflowError) as exc:
        return _fail(exc, 3)
    sys.stderr.write(summary + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
