"""Command-line driver: every operation as a subcommand with JSON configs.

Precedence is flags > config file > defaults.  Each option is declared once
in ``_OPTIONS``, whose parser types its value once, from either source.
Each subcommand is declared once in ``_COMMANDS``: its help, its fields,
the formats it writes (the first is the default) and its runner.  Its
fields with ``out`` and ``format`` (for ``sweep``, also those of its
``--quantity``) are its whole input surface: its flags, the fields its
config file may hold and its echoed config; any other is refused (exit 2).
Argparse only collects strings; ``resolve_config`` and ``_pick_format``
check each value and choice once, whichever source gave it.  ``main`` picks
the format (``--format``, else the ``--out`` extension, else the default)
and checks that ``--out`` can be written before any work; the runner
returns its payload in that format and a summary line for stderr; ``_emit``
writes it (JSON, CSV, PGM with a provenance line on stdout, or the witness
ledger), atomically to ``--out`` (temp file + rename) or to stdout.  Every
run echoes its resolved configuration (and the tool version) alongside its
results, so a saved output is a complete recipe for reproducing itself.
Only what samples or writes a PGM imports the engine, and numpy with it, at
the call: ``dims``, ``classify``, ``witness`` and a ``dims`` sweep load no numpy.
Exit codes: 0 success, 2 config errors (an unwritable ``--out`` among
them), 3 domain errors, 4 budget errors (a budget too large for memory
among them); failures print one machine readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import struct
import sys
import tempfile
from typing import Callable, NamedTuple

from . import __version__
from .dimensions import full_report
from .errors import DEFAULT_CELL_BUDGET, BudgetExceededError, PercLabError
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


def _int(value) -> int:
    number = _number(value)
    if number != int(number):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _real(value) -> float:
    """A finite real: NaN and infinities, from a flag or from JSON's NaN and Infinity, are refused."""
    number = float(_number(value))
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
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
    return _int(lo), _int(hi)


def _parse_grid(value) -> tuple[float, float, int]:
    lo, hi, count = _fields(value, 3, "lo:hi:count")
    lo, hi, count = _real(lo), _real(hi), _int(count)
    if not 2 <= count <= MAX_GRID_POINTS:
        raise ValueError(f"needs 2 <= count <= {MAX_GRID_POINTS}, got {count}")
    return lo, hi, count


def _grid(value):
    """A checked grid, kept as given so that the echoed config is the user's own."""
    _parse_grid(value)
    return value


def _threads(value) -> int:
    threads = _int(value)
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
    fields: tuple[str, ...]  # fields after out and format
    formats: tuple[str, ...]  # the first is the default
    run: Callable  # (cfg, fmt) -> (payload in fmt, stderr summary line)

    @property
    def options(self) -> tuple[str, ...]:  # flags, config fields, echoed keys; a sweep adds its quantity's
        return ("out", "format") + self.fields


# every config field, keyed by name; a config file uses the same names
_OPTIONS = {
    "out": _Option("--out", _text, None, "output path (stdout when omitted; required for pgm)"),
    "format": _Option("--format", _text, None, "output format"),  # each command's own formats
    "family": _Option("--family", _text, None,
                      "mfp | power | power_head | power_harmonic | power_telescope | explicit"),
    "p": _Option("--p", _real, None, "base probability"),
    "a": _Option("--a", _real, None, "family shape parameter / gap ratio"),
    "prefix": _Option("--prefix", _reals, None, "comma list: probabilities (explicit) or exponents (power)"),
    "tail": _Option("--tail", _real, None, "constant tail: probability (explicit) or exponent (power)"),
    "n": _Option("--n", _int, 1, "ambient dimension"),
    "m": _Option("--m", _int, 2, "subdivision index"),
    "depth": _Option("--depth", _int, 8, "subdivision depth K"),
    "seed": _Option("--seed", _int, 0, "64-bit master seed"),
    "budget": _Option("--budget", _int, DEFAULT_CELL_BUDGET, "max candidate cells per level"),
    "stream": _Option("--stream", _int, 0, "replicate stream index"),
    "level": _Option("--level", _int, None, "level to rasterize (default: depth)"),
    "replicates": _Option("--reps", _int, 1000, "replicate count"),
    "threads": _Option("--threads", _threads, 1, "no effect: replicates run inline in stream order"),
    "window": _Option("--window", _pair, DEFAULT_WINDOW, "k_lo:k_hi evaluation window"),
    "method": _Option("--method", _text, "auto", "dimension method", ("auto", "analytic", "windowed")),
    "fit": _Option("--fit", _pair, None, "k_min:k_max fit levels (boxdim)"),
    "max_attempts": _Option("--max-attempts", _int, 1000, "replicates drawn at most (boxdim)"),
    "quantity": _Option("--quantity", _text, None, "swept quantity", ("survival", "measure", "boxdim", "dims")),
    "p_grid": _Option("--p-grid", _grid, None, "lo:hi:count grid over p"),
    "a_grid": _Option("--a-grid", _grid, None, "lo:hi:count grid over a"),
    "r": _Option("--r", _real, None, "target dimension"),
    "l": _Option("--l", _real, 0.0, "target expected measure"),
}

_SEQ = ("family", "p", "a", "prefix", "tail", "n", "m")
_SIM = _SEQ + ("depth", "seed", "budget")
_EST = _SIM + ("replicates", "threads")
_WINDOWED = ("window", "method")
_BOX = ("fit", "max_attempts")
MAX_GRID_POINTS = 1 << 20  # points in a sweep grid at most


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
        # the parser is static: sweep offers every quantity's flags, and resolve_config refuses the others
        quantities = _OPTIONS["quantity"].choices if "quantity" in spec.fields else ()
        for field in dict.fromkeys(spec.options + sum((_COMMANDS[q].fields for q in quantities), ())):
            opt = _OPTIONS[field]
            choices = spec.formats if field == "format" else opt.choices
            # flags stay strings and their choices are only shown here;
            # resolve_config and _pick_format check them with the file's values
            cmd.add_argument(opt.flag, dest=field, metavar=choices and "{" + ",".join(choices) + "}",
                             help=opt.help)
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
    file_cmd = loaded.pop("command", None)
    if file_cmd is not None and file_cmd != command:
        raise ConfigError(f"config file names command {file_cmd!r} but {command!r} was invoked")
    return loaded


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's fields: flags over config file over defaults, each typed and checked once."""
    given = _read_config(args.config, args.command) if args.config else {}
    given.update((field, value) for field, value in vars(args).items() if value is not None)
    cfg = {"command": args.command}
    fields = list(_COMMANDS[args.command].options)
    for field in fields:  # a sweep's list grows by its quantity's fields
        opt = _OPTIONS[field]
        value = opt.default if given.get(field) is None else given[field]
        if value is not None:
            try:
                value = opt.parse(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {field}: {exc}") from exc
            if opt.choices and value not in opt.choices:
                raise ConfigError(f"{field} must be one of {list(opt.choices)}, got {value!r}")
        cfg[field] = value
        if field == "quantity":
            if value is None:
                raise ConfigError("sweep needs --quantity " + "|".join(opt.choices))
            fields += _COMMANDS[value].fields
    if unknown := sorted(given.keys() - cfg.keys() - {"config"}):
        quantity = f" --quantity {cfg['quantity']}" if "quantity" in cfg else ""
        raise ConfigError(f"unknown config fields for {args.command}{quantity}: {unknown}")
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


def build_params(cfg: dict):
    from .engine import PercolationParams

    return PercolationParams(
        cfg["n"], cfg["m"], cfg["depth"], build_seq(cfg), seed=cfg["seed"], cell_budget=cfg["budget"]
    )


def _family_label(cfg: dict) -> tuple[str, str]:
    family = cfg.get("family") or ""
    parts = [f"{key}={cfg[key]:.17g}" for key in ("p", "a", "tail") if cfg.get(key) is not None]
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
    """``--format``, else the ``--out`` extension, else the default."""
    fmt = cfg["format"]
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
        from .engine import _pgm_chunks

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
        payload = [csv_row("dims", rep.n, rep.m, None, *_family_label(cfg), None, rep.hausdorff, 0.0,
                           rep.hausdorff, None)]
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
    from .engine import generate, realization_to_dict

    params = build_params(cfg)
    r = generate(params, stream=cfg["stream"])
    return realization_to_dict(r), (
        f"generate {cfg['family']} n={params.n} m={params.m} K={params.depth} seed={params.seed}: "
        f"X_K={r.counts[params.depth]} measure={r.measure_at(params.depth):.6g}"
    )


def _run_render(cfg: dict, fmt: str):
    from .engine import render_level

    params = build_params(cfg)
    level = params.depth if cfg["level"] is None else cfg["level"]
    # render_level checks the level and the raster side before it samples
    # anything; _emit streams the grid's PGM to --out block by block
    grid = render_level(params, level, stream=cfg["stream"])
    side = grid.shape[0]
    return grid, f"render {cfg['family']} level={level}: {side}x{side} PGM -> {cfg['out']}"


def _run_estimate(cfg: dict, fmt: str):
    """``measure`` and ``survival``: one EstimateReport."""
    # looked up when the command runs, so a wrapper installed on this module
    # after import (a tracer's) sees the call
    estimate = estimate_measure if cfg["command"] == "measure" else estimate_survival
    params = build_params(cfg)
    rep = estimate(params, cfg["replicates"])
    if fmt == "json":
        payload = rep.to_dict()
    else:
        payload = [csv_row(rep.quantity, params.n, params.m, params.depth, *_family_label(cfg),
                           rep.replicates, rep.estimate, rep.std_error, rep.theory, rep.z_score)]
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
        payload = [csv_row(QUANTITY_BOXDIM, params.n, params.m, params.depth, *_family_label(cfg),
                           rep.replicates_used, rep.slope, rep.slope_std_error, theory,
                           _z_score(rep.slope, theory, rep.slope_std_error))]
    return payload, (
        f"boxdim {cfg['family']} n={params.n} m={params.m} K={params.depth}: "
        f"slope={rep.slope:.6g} r2={rep.r_squared:.4f} attempts={rep.attempts}"
    )


def _run_witness(cfg: dict, fmt: str):
    if cfg["r"] is None:
        raise ConfigError("witness needs --r (target dimension)")
    rep = build_witness(WitnessSpec(r=cfg["r"], l=cfg["l"], n=cfg["n"], m=cfg["m"]))
    return format_witness_ledger(rep) if fmt == "ledger" else rep.to_dict(), (
        f"witness: combined_dim={rep.combined_dim:.10g} "
        f"combined_measure={rep.combined_measure:.10g} components={len(rep.components)}"
    )


def _run_sweep(cfg: dict, fmt: str):
    """One CSV row per grid point, from the ``--quantity`` command's own runner."""
    quantity = cfg["quantity"]
    if (cfg["p_grid"] is None) == (cfg["a_grid"] is None):
        raise ConfigError("sweep needs exactly one of --p-grid / --a-grid")
    key = "p" if cfg["p_grid"] is not None else "a"
    if cfg[key] is not None:
        raise ConfigError(f"sweep over {key} takes no --{key}: the grid gives it")
    lo, hi, count = _parse_grid(cfg[key + "_grid"])
    # numpy.linspace bit for bit: its formula, and its branch for a step that underflows to zero
    step = (hi - lo) / (count - 1)
    grid = [lo + (i / (count - 1) * (hi - lo) if step == 0 else i * step) for i in range(count - 1)] + [hi]
    rows = []
    for value in grid:
        point = dict(cfg, command=quantity, **{key: value})
        if "seed" in cfg:  # a sampled quantity: seeded by the grid value, so equal values give equal rows
            from .engine import derive_seed

            point["seed"] = derive_seed(cfg["seed"], struct.unpack("<Q", struct.pack("<d", value))[0])
        rows += _COMMANDS[quantity].run(point, "csv")[0]
    return rows, f"sweep {quantity} over {key}: {count} points in [{lo:g}, {hi:g}]"


# every subcommand, declared once
_COMMANDS = {
    "dims": _Command("analytic/windowed dimension report", _SEQ + _WINDOWED, ("json", "csv"), _run_dims),
    "classify": _Command("survival/interior classifier", _SEQ + _WINDOWED, ("json",), _run_classify),
    "generate": _Command("sample one realization to JSON", _SIM + ("stream",), ("json",), _run_generate),
    "render": _Command("sample and rasterize one planar realization to PGM", _SIM + ("stream", "level"),
                       ("pgm",), _run_render),
    "measure": _Command("Monte Carlo expected-measure estimate", _EST, ("json", "csv"), _run_estimate),
    "survival": _Command("Monte Carlo survival-frequency estimate", _EST, ("json", "csv"), _run_estimate),
    "boxdim": _Command("box-counting slope over surviving replicates", _EST + _BOX, ("json", "csv"), _run_boxdim),
    "witness": _Command("build a (dimension, measure) witness report",
                        ("n", "m", "r", "l"), ("json", "ledger"), _run_witness),
    "sweep": _Command("grid sweep over one parameter, CSV out", ("quantity", "p_grid", "a_grid"), ("csv",),
                      _run_sweep),
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
    except MemoryError as exc:  # numpy's own subclass has a private name
        return _fail(MemoryError(str(exc)), 4)
    except (PercLabError, ValueError, OverflowError) as exc:
        return _fail(exc, 3)
    sys.stderr.write(summary + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
