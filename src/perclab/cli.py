"""Command-line driver: every operation as a subcommand with JSON configs.

Precedence is flags > config file > defaults; every run echoes the fully
resolved configuration (and the tool version) alongside its results, so a
saved output is a complete recipe for reproducing itself.  Outputs are
written atomically (temp file + rename).  Exit codes: 0 success, 2 config
errors, 3 domain errors, 4 budget errors; failures print one machine
readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import tempfile

import numpy as np

from . import __version__
from .dimensions import DimensionReport, full_report
from .engine import (
    DEFAULT_CELL_BUDGET,
    PercolationParams,
    derive_seed,
    generate,
    pgm_bytes,
    realization_to_dict,
    render_raster,
)
from .errors import BudgetExceededError, PercLabError
from .estimators import (
    CSV_COLUMNS,
    csv_row,
    estimate_boxdim,
    estimate_measure,
    estimate_survival,
)
from .probseq import DEFAULT_WINDOW, ProbSequence, classify
from .witness import WitnessSpec, build_witness, format_witness_ledger

THREADS_ENV = "PERC_LAB_THREADS"


class ConfigError(Exception):
    """Structural problem with flags or the config file (exit code 2)."""


_DEFAULTS: dict = {
    "family": None,
    "p": None,
    "a": None,
    "prefix": None,
    "tail": None,
    "n": 1,
    "m": 2,
    "depth": 8,
    "seed": 0,
    "stream": 0,
    "replicates": 1000,
    "window": list(DEFAULT_WINDOW),
    "method": "auto",
    "fit": None,
    "level": None,
    "budget": DEFAULT_CELL_BUDGET,
    "threads": 1,
    "max_attempts": 1000,
    "quantity": None,
    "p_grid": None,
    "a_grid": None,
    "r": None,
    "l": 0.0,
    "case": "union",
    "terms": 8,
    "ledger": False,
    "out": None,
    "format": None,
}

# fields a config file may give as a number or a numeric string, never as an
# array or object
_NUMERIC_FIELDS = (
    "p", "a", "tail", "n", "m", "depth", "seed", "stream", "replicates",
    "level", "budget", "threads", "max_attempts", "r", "l", "terms",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perclab",
        description="Fat fractal percolation laboratory: dimensions, classifiers, sampling, estimators.",
    )
    parser.add_argument("--version", action="version", version=f"perclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, seq=False, geom=False, sim=False, est=False):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", help="output path (stdout when omitted; required for pgm)")
        p.add_argument("--format", choices=["json", "csv", "pgm"], help="output format")
        if seq:
            p.add_argument("--family", help="mfp | power | power_head | power_telescope | explicit")
            p.add_argument("--p", type=float, help="base probability")
            p.add_argument("--a", type=float, help="family shape parameter / gap ratio")
            p.add_argument("--prefix", help="comma list: probabilities (explicit) or exponents (power)")
            p.add_argument("--tail", type=float, help="constant tail: probability (explicit) or exponent (power)")
        if geom:
            p.add_argument("--n", type=int, help="ambient dimension")
            p.add_argument("--m", type=int, help="subdivision index")
        if sim:
            p.add_argument("--depth", type=int, help="subdivision depth K")
            p.add_argument("--seed", type=int, help="64-bit master seed")
            p.add_argument("--budget", type=int, help="max candidate cells per level")
        if est:
            p.add_argument("--reps", type=int, dest="replicates", help="replicate count")
            p.add_argument("--threads", type=int, help=f"worker threads (capped by ${THREADS_ENV})")

    p_dims = sub.add_parser("dims", help="analytic/windowed dimension report")
    add_common(p_dims, seq=True, geom=True)
    p_dims.add_argument("--window", help="k_lo:k_hi evaluation window")
    p_dims.add_argument("--method", choices=["auto", "analytic", "windowed"])

    p_cls = sub.add_parser("classify", help="survival/interior classifier")
    add_common(p_cls, seq=True, geom=True)
    p_cls.add_argument("--window", help="k_lo:k_hi evaluation window")
    p_cls.add_argument("--method", choices=["auto", "analytic", "windowed"])

    p_gen = sub.add_parser("generate", help="sample one realization to JSON")
    add_common(p_gen, seq=True, geom=True, sim=True)
    p_gen.add_argument("--stream", type=int, help="replicate stream index")

    p_ren = sub.add_parser("render", help="sample and rasterize one planar realization to PGM")
    add_common(p_ren, seq=True, geom=True, sim=True)
    p_ren.add_argument("--stream", type=int, help="replicate stream index")
    p_ren.add_argument("--level", type=int, help="level to rasterize (default: depth)")

    for name, helptext in (
        ("measure", "Monte Carlo expected-measure estimate"),
        ("survival", "Monte Carlo survival-frequency estimate"),
    ):
        p_est = sub.add_parser(name, help=helptext)
        add_common(p_est, seq=True, geom=True, sim=True, est=True)

    p_box = sub.add_parser("boxdim", help="box-counting slope over surviving replicates")
    add_common(p_box, seq=True, geom=True, sim=True, est=True)
    p_box.add_argument("--fit", help="k_min:k_max fit levels")
    p_box.add_argument("--max-attempts", type=int, dest="max_attempts")

    p_wit = sub.add_parser("witness", help="build a (dimension, measure) witness report")
    add_common(p_wit, geom=True)
    p_wit.add_argument("--r", type=float, help="target dimension")
    p_wit.add_argument("--l", type=float, help="target expected measure")
    p_wit.add_argument("--case", help="fractional | integer | positive | union")
    p_wit.add_argument("--terms", type=int, help="union terms J for integer targets")
    p_wit.add_argument("--ledger", action="store_const", const=True, help="print the text ledger")

    p_sweep = sub.add_parser("sweep", help="grid sweep over one parameter, CSV out")
    add_common(p_sweep, seq=True, geom=True, sim=True, est=True)
    p_sweep.add_argument("--quantity", choices=["survival", "measure", "boxdim", "dims"])
    p_sweep.add_argument("--p-grid", dest="p_grid", help="lo:hi:count grid over p")
    p_sweep.add_argument("--a-grid", dest="a_grid", help="lo:hi:count grid over a")
    p_sweep.add_argument("--window", help="k_lo:k_hi evaluation window (dims)")
    p_sweep.add_argument("--fit", help="k_min:k_max fit levels (boxdim)")
    p_sweep.add_argument("--max-attempts", type=int, dest="max_attempts")
    p_sweep.add_argument("--method", choices=["auto", "analytic", "windowed"])

    return parser


# ---------------------------------------------------------------------------
# config resolution


def _parse_pair(text, what: str) -> list[int]:
    if isinstance(text, (list, tuple)):
        pair = list(text)
    else:
        pair = str(text).split(":")
    if len(pair) != 2:
        raise ConfigError(f"{what} must be lo:hi, got {text!r}")
    try:
        return [int(pair[0]), int(pair[1])]
    except ValueError as exc:
        raise ConfigError(f"{what} must hold integers, got {text!r}") from exc


def _parse_grid(text, what: str) -> tuple[float, float, int]:
    if isinstance(text, (list, tuple)):
        parts = list(text)
    else:
        parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{what} must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc
    if count < 2:
        raise ConfigError(f"{what} needs count >= 2, got {count}")
    return lo, hi, count


def _parse_float_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    try:
        return [float(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg["command"] = args.command
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(_DEFAULTS) - {"command"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        file_cmd = loaded.pop("command", None)
        if file_cmd is not None and file_cmd != args.command:
            raise ConfigError(
                f"config file names command {file_cmd!r} but {args.command!r} was invoked"
            )
        cfg.update(loaded)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in _NUMERIC_FIELDS:
        if isinstance(cfg[key], (list, dict)):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
    if cfg.get("out") is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path string, got {cfg['out']!r}")
    if cfg.get("prefix") is not None:
        cfg["prefix"] = _parse_float_list(cfg["prefix"])
    if cfg.get("window") is not None:
        cfg["window"] = _parse_pair(cfg["window"], "window")
    if cfg.get("fit") is not None:
        cfg["fit"] = _parse_pair(cfg["fit"], "fit")
    cfg["ledger"] = bool(cfg.get("ledger"))
    try:
        threads = int(cfg["threads"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"threads must be an integer, got {cfg['threads']!r}") from exc
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    env_cap = os.environ.get(THREADS_ENV)
    if env_cap:
        try:
            cfg["threads"] = min(threads, max(1, int(env_cap)))
        except ValueError as exc:
            raise ConfigError(f"${THREADS_ENV} must be an integer") from exc
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
        n=int(cfg["n"]),
        m=int(cfg["m"]),
        depth=int(cfg["depth"]),
        seq=build_seq(cfg),
        seed=int(cfg["seed"]),
        cell_budget=int(cfg["budget"]),
    )


def _family_label(cfg: dict) -> tuple[str, str]:
    family = cfg.get("family") or ""
    parts = []
    for key in ("p", "a", "tail"):
        if cfg.get(key) is not None:
            parts.append(f"{key}={format(float(cfg[key]), '.17g')}")
    if cfg.get("prefix"):
        parts.append("prefix=" + "|".join(format(float(v), ".17g") for v in cfg["prefix"]))
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
        build_seq(cfg), int(cfg["n"]), int(cfg["m"]), window=tuple(cfg["window"]), method=cfg["method"]
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
    rep = classify(seq, int(cfg["n"]), int(cfg["m"]), window=tuple(cfg["window"]), method=cfg["method"])
    _pick_format(cfg, ("json",), "json")
    _emit_json(cfg, rep.to_dict(), cfg["out"])
    return (
        f"classify {cfg['family']} n={cfg['n']} m={cfg['m']}: alpha={rep.alpha:.6g} beta={rep.beta:.6g} "
        f"{rep.survival_class}/{rep.interior_class}"
    )


def cmd_generate(cfg: dict) -> str:
    params = build_params(cfg)
    r = generate(params, stream=int(cfg["stream"]))
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
    level = int(cfg["level"]) if cfg.get("level") is not None else params.depth
    r = generate(params, stream=int(cfg["stream"]))
    data = pgm_bytes(render_raster(r, level))
    _atomic_write(cfg["out"], data)
    side = params.m**level
    # provenance for the binary output goes to stdout instead of the file
    sys.stdout.write(json.dumps(_doc(cfg, {"out": cfg["out"], "width": side, "height": side}),
                                sort_keys=True) + "\n")
    return f"render {cfg['family']} level={level}: {side}x{side} PGM -> {cfg['out']}"


def _run_estimator(cfg: dict, quantity: str, params: PercolationParams):
    reps = int(cfg["replicates"])
    threads = int(cfg["threads"])
    if quantity == "survival":
        return estimate_survival(params, reps, threads=threads)
    if quantity == "measure":
        return estimate_measure(params, reps, threads=threads)
    fit = tuple(cfg["fit"]) if cfg.get("fit") else None
    return estimate_boxdim(
        params, reps, fit_levels=fit, max_attempts=int(cfg["max_attempts"]), threads=threads
    )


def _estimator_row(cfg: dict, quantity: str, params: PercolationParams, rep) -> list[str]:
    family, fparams = _family_label(cfg)
    if quantity == "boxdim":
        theory = None
        if params.seq.is_catalog:
            theory = full_report(params.seq, params.n, params.m).hausdorff
        z = (rep.slope - theory) / rep.slope_std_error if (theory is not None and rep.slope_std_error > 0) else None
        return csv_row(
            "box_dimension", params, family, fparams, rep.replicates_used,
            rep.slope, rep.slope_std_error, theory, z,
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
    if cfg.get("r") is None:
        raise ConfigError("witness needs --r (target dimension)")
    spec = WitnessSpec(
        r=float(cfg["r"]),
        l=float(cfg["l"]),
        n=int(cfg["n"]),
        m=int(cfg["m"]),
        case=cfg["case"],
        terms=int(cfg["terms"]),
        depth=int(cfg["depth"]),
    )
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
    quantity = cfg.get("quantity")
    if quantity not in ("survival", "measure", "boxdim", "dims"):
        raise ConfigError("sweep needs --quantity survival|measure|boxdim|dims")
    if (cfg.get("p_grid") is None) == (cfg.get("a_grid") is None):
        raise ConfigError("sweep needs exactly one of --p-grid / --a-grid")
    key, grid_spec = ("p", cfg["p_grid"]) if cfg.get("p_grid") is not None else ("a", cfg["a_grid"])
    lo, hi, count = _parse_grid(grid_spec, f"{key}-grid")
    values = np.linspace(lo, hi, count)
    master = int(cfg["seed"])
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
    except (PercLabError, ValueError) as exc:
        return _fail(exc, 3)
    sys.stderr.write(summary + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
