"""Command-line driver: every operation as a subcommand with JSON configs.

Precedence is flags > config file > defaults.  Each option is declared once
in ``_OPTIONS``, whose parser types its value once, from either source.
Each subcommand is declared once in ``_COMMANDS``: its help, its flags, the
formats it writes (the first is the default) and its runner.  ``main``
picks the format and checks that ``--out`` can be written before any work;
the runner returns its payload in that format and a summary line for
stderr; ``_emit`` writes the payload (JSON, CSV, PGM with a provenance line
on stdout, or the witness ledger), atomically to ``--out`` (temp file +
rename) or to stdout.  Every run echoes the fully resolved configuration
(and the tool version) alongside its results, so a saved output is a
complete recipe for reproducing itself.
Exit codes: 0 success, 2 config errors (an unwritable ``--out`` among
them), 3 domain errors, 4 budget errors; failures print one machine
readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import struct
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dimensions import full_report
from .engine import (
    DEFAULT_CELL_BUDGET,
    PercolationParams,
    _pgm_chunks,
    derive_seed,
    generate,
    realization_to_dict,
    render_level,
)
from .errors import BudgetExceededError, PercLabError
from .estimators import (
    CSV_COLUMNS,
    QUANTITY_BOXDIM,
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


class _Command(NamedTuple):
    help: str
    fields: tuple[str, ...]  # flags after --out and --format
    formats: tuple[str, ...]  # the first is the default
    run: Callable  # (cfg, fmt) -> (payload in fmt, stderr summary line)


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
    "ledger": _Option("--ledger", _boolean, False, "write the text ledger, not the JSON report"),
}

_SEQ = ("family", "p", "a", "prefix", "tail", "n", "m")
_SIM = _SEQ + ("depth", "seed", "budget")
_EST = _SIM + ("replicates", "threads")
_WINDOWED = ("window", "method")
_BOX = ("fit", "max_attempts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perclab",
        description="Fat fractal percolation laboratory: dimensions, classifiers, sampling, estimators.",
    )
    parser.add_argument("--version", action="version", version=f"perclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        cmd = sub.add_parser(command, help=spec.help)
        cmd.add_argument("--config", help="JSON config file; flags override its fields")
        for field in ("out", "format") + spec.fields:
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
# output: the format is picked before any work, and one emitter writes it


def _atomic_write(path: str, chunks):
    """Write an iterable of byte chunks to a temp file in the target directory, then rename.

    A failed write is a config error.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".perclab-tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # strerror only: the full message names the random temp file
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _doc(cfg: dict, result) -> dict:
    return {"tool": "perclab", "version": __version__, "config": cfg, "result": result}


def _pick_format(cfg: dict, spec: _Command) -> str:
    """``--ledger``, else ``--format``, else the ``--out`` extension, else the default."""
    fmt = cfg["format"]
    if cfg["ledger"] and "ledger" in spec.fields:
        if fmt:
            raise ConfigError("--ledger writes the text ledger and takes no --format")
        return "ledger"
    if not fmt and cfg["out"]:
        ext = os.path.splitext(cfg["out"])[1].lstrip(".").lower()
        if ext in spec.formats:
            fmt = ext
    fmt = fmt or spec.formats[0]
    if fmt not in spec.formats:
        raise ConfigError(f"format {fmt!r} not supported here (choose from {list(spec.formats)})")
    if fmt == "pgm" and not cfg["out"]:
        raise ConfigError("render writes binary PGM; --out is required")
    return fmt


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that is a directory or lies in a missing one, before any work.

    The message is the one :func:`_atomic_write` gives when the write
    fails that way; it keeps its own handling for a target that changes
    in between.
    """
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        code = errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def _emit(cfg: dict, fmt: str, payload) -> None:
    """Write a runner's payload in ``fmt``, atomically to ``--out`` or to stdout."""
    if fmt == "pgm":
        side = payload.shape[0]
        _atomic_write(cfg["out"], _pgm_chunks(payload))
        # provenance for the binary output goes to stdout instead of the file
        doc = _doc(cfg, {"out": cfg["out"], "width": side, "height": side})
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    if fmt == "json":
        text = json.dumps(_doc(cfg, payload), indent=2, sort_keys=True)
    elif fmt == "csv":
        lines = [f"# version: perclab {__version__}", "# config: " + json.dumps(cfg, sort_keys=True)]
        text = "\n".join(lines + [",".join(CSV_COLUMNS)] + [",".join(row) for row in payload])
    else:  # the witness ledger
        text = payload
    text += "\n"
    if cfg["out"]:
        _atomic_write(cfg["out"], [text.encode("utf-8")])
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# runners: each takes the resolved config and the picked format, and returns
# the payload in that format with the summary line for stderr


def _run_dims(cfg: dict, fmt: str):
    rep = full_report(build_seq(cfg), cfg["n"], cfg["m"], window=cfg["window"], method=cfg["method"])
    if fmt == "json":
        payload = rep.to_dict()
    else:
        payload = [csv_row("dims", None, *_family_label(cfg), None, rep.hausdorff, 0.0, rep.hausdorff, None,
                           n=rep.n, m=rep.m)]
    return payload, (
        f"dims {cfg['family']} n={cfg['n']} m={cfg['m']}: hausdorff={rep.hausdorff:.6g} "
        f"packing={rep.packing:.6g} assouad={rep.assouad:.6g} measure={rep.expected_measure:.6g} "
        f"[{rep.method}]"
    )


def _run_classify(cfg: dict, fmt: str):
    rep = classify(build_seq(cfg), cfg["n"], cfg["m"], window=cfg["window"], method=cfg["method"])
    return rep.to_dict(), (
        f"classify {cfg['family']} n={cfg['n']} m={cfg['m']}: alpha={rep.alpha:.6g} beta={rep.beta:.6g} "
        f"{rep.survival_class}/{rep.interior_class}"
    )


def _run_generate(cfg: dict, fmt: str):
    params = build_params(cfg)
    r = generate(params, stream=cfg["stream"])
    return realization_to_dict(r), (
        f"generate {cfg['family']} n={params.n} m={params.m} K={params.depth} seed={params.seed}: "
        f"X_K={r.counts[params.depth]} measure={r.measure_at(params.depth):.6g}"
    )


def _run_render(cfg: dict, fmt: str):
    params = build_params(cfg)
    level = params.depth if cfg["level"] is None else cfg["level"]
    # render_level checks the level and the raster side before it samples
    # anything; _emit streams the grid's PGM to --out block by block
    grid = render_level(params, level, stream=cfg["stream"])
    side = grid.shape[0]
    return grid, f"render {cfg['family']} level={level}: {side}x{side} PGM -> {cfg['out']}"


def _run_estimate(estimate: Callable, cfg: dict, fmt: str):
    """``measure`` and ``survival``: one EstimateReport."""
    params = build_params(cfg)
    rep = estimate(params, cfg["replicates"])
    if fmt == "json":
        payload = rep.to_dict()
    else:
        payload = [csv_row(rep.quantity, params, *_family_label(cfg), rep.replicates,
                           rep.estimate, rep.std_error, rep.theory, rep.z_score)]
    theory = "n/a" if rep.theory is None else f"{rep.theory:.6g}"
    return payload, (
        f"{cfg['command']} {cfg['family']} n={params.n} m={params.m} K={params.depth} R={rep.replicates}: "
        f"estimate={rep.estimate:.6g} se={rep.std_error:.3g} theory={theory}"
    )


def _run_boxdim(cfg: dict, fmt: str):
    params = build_params(cfg)
    rep = estimate_boxdim(params, cfg["replicates"], fit_levels=cfg["fit"], max_attempts=cfg["max_attempts"])
    if fmt == "json":
        payload = rep.to_dict()
    else:
        theory = None if params.seq.limit is None else full_report(params.seq, params.n, params.m).hausdorff
        payload = [csv_row(QUANTITY_BOXDIM, params, *_family_label(cfg), rep.replicates_used, rep.slope,
                           rep.slope_std_error, theory, _z_score(rep.slope, theory, rep.slope_std_error))]
    return payload, (
        f"boxdim {cfg['family']} n={params.n} m={params.m} K={params.depth}: "
        f"slope={rep.slope:.6g} r2={rep.r_squared:.4f} attempts={rep.attempts}"
    )


def _run_witness(cfg: dict, fmt: str):
    if cfg["r"] is None:
        raise ConfigError("witness needs --r (target dimension)")
    spec = WitnessSpec(r=cfg["r"], l=cfg["l"], n=cfg["n"], m=cfg["m"], case=cfg["case"], terms=cfg["terms"])
    rep = build_witness(spec)
    return format_witness_ledger(rep) if fmt == "ledger" else rep.to_dict(), (
        f"witness case={spec.case}: combined_dim={rep.combined_dim:.10g} "
        f"combined_measure={rep.combined_measure:.10g} components={len(rep.components)}"
    )


def _run_sweep(cfg: dict, fmt: str):
    """One CSV row per grid point, from the ``--quantity`` command's own runner."""
    quantity = cfg["quantity"]
    if quantity is None:
        raise ConfigError("sweep needs --quantity survival|measure|boxdim|dims")
    if (cfg["p_grid"] is None) == (cfg["a_grid"] is None):
        raise ConfigError("sweep needs exactly one of --p-grid / --a-grid")
    key, grid_spec = ("p", cfg["p_grid"]) if cfg["p_grid"] is not None else ("a", cfg["a_grid"])
    lo, hi, count = _parse_grid(grid_spec)
    rows = []
    for value in np.linspace(lo, hi, count):
        # keyed by the grid value so repeated values reproduce identical rows
        value_bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        point = dict(cfg, command=quantity, seed=derive_seed(cfg["seed"], value_bits))
        point[key] = float(value)
        rows += _COMMANDS[quantity].run(point, "csv")[0]
    return rows, f"sweep {quantity} over {key}: {count} points in [{lo:g}, {hi:g}]"


# every subcommand, declared once
_COMMANDS = {
    "dims": _Command("analytic/windowed dimension report", _SEQ + _WINDOWED, ("json", "csv"), _run_dims),
    "classify": _Command("survival/interior classifier", _SEQ + _WINDOWED, ("json",), _run_classify),
    "generate": _Command("sample one realization to JSON", _SIM + ("stream",), ("json",), _run_generate),
    "render": _Command("sample and rasterize one planar realization to PGM", _SIM + ("stream", "level"),
                       ("pgm",), _run_render),
    "measure": _Command("Monte Carlo expected-measure estimate", _EST, ("json", "csv"),
                        functools.partial(_run_estimate, estimate_measure)),
    "survival": _Command("Monte Carlo survival-frequency estimate", _EST, ("json", "csv"),
                         functools.partial(_run_estimate, estimate_survival)),
    "boxdim": _Command("box-counting slope over surviving replicates", _EST + _BOX, ("json", "csv"), _run_boxdim),
    "witness": _Command("build a (dimension, measure) witness report",
                        ("n", "m", "r", "l", "case", "terms", "ledger"), ("json",), _run_witness),
    "sweep": _Command("grid sweep over one parameter, CSV out",
                      _EST + ("quantity", "p_grid", "a_grid") + _WINDOWED + _BOX, ("csv",), _run_sweep),
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
        spec = _COMMANDS[cfg["command"]]
        fmt = _pick_format(cfg, spec)
        if cfg["out"]:
            _check_out(cfg["out"])
        payload, summary = spec.run(cfg, fmt)
        _emit(cfg, fmt, payload)
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
