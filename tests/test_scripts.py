"""Smoke runs of the experiment scripts with tiny arguments."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perclab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, made",
    [
        ("dimension_table.py", ("--mc-reps", "3", "--mc-depth", "8"), None),
        (
            "survival_threshold_sweep.py",
            ("--depth", "6", "--reps", "100", "--points", "3", "--out", "sweep.csv"),
            "sweep.csv",
        ),
        ("render_gallery.py", ("--depths", "2,3", "--outdir", "gallery"), "gallery/mfp_p0.9_m2_k3.pgm"),
    ],
)
def test_script_runs(tmp_path, name, args, made):
    proc = run_script(name, tmp_path, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if made is not None:
        assert (tmp_path / made).stat().st_size > 0


def test_dimension_table_windowed_rows_match_analytic(tmp_path):
    # the script's purpose: both methods print the same row for every family
    proc = run_script("dimension_table.py", tmp_path, "--mc-reps", "3", "--mc-depth", "8")
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 6 and fields[1] in ("analytic", "windowed"):
            rows.setdefault(fields[0], {})[fields[1]] = fields[2:]
    assert set(rows) == {"mfp", "power_head", "power_telescope"}
    for family, by_method in rows.items():
        assert by_method["windowed"] == by_method["analytic"], family


def test_analytic_probe_prints_one_line_per_call(tmp_path):
    proc = run_script("analytic_probe.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 76 sequences, each with 360 per-geometry calls, 15 alphas, 8 measures and one limit
    assert len(lines) == 76 * 384
    assert lines[0].startswith("('mfp(1e-300)', 'full_report', 1, 2, (64, 512), 'auto', DimensionReport(")
    assert any("WindowTooSmallError" in line for line in lines)


def test_sample_probe_prints_one_line_per_case(tmp_path):
    proc = run_script("sample_probe.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 7 geometries, 6 sequences, 2 budgets, 2 seeds and 3 streams
    assert len(lines) == 504
    kinds = set()
    for line in lines:
        *_, gen, counts = ast.literal_eval(line)
        # both samplers give the same counts or the same error
        assert (gen[0] if isinstance(counts, list) else gen) == counts
        kinds.add("counts" if isinstance(counts, list) else counts[0])
    assert kinds == {"counts", "BudgetExceededError", "InvalidParamsError"}


def test_cli_probe_prints_one_line_per_call(tmp_path):
    proc = run_script("cli_probe.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    calls = []
    for line in proc.stdout.splitlines():
        got = ast.literal_eval(line)
        calls.append(got if isinstance(got[0], tuple) else got[1])
    # 50 flag calls, the malformed config file and 28 config contents
    assert len(calls) == 79
    assert {code for _, code, *_ in calls} == {0, 2, 3, 4}
    assert {err for *_, err in calls} >= {None, "ConfigError", "argparse", "InvalidParamsError"}
    # every flag of every subcommand is exercised at least once
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command, subparser in sub.choices.items():
        used = {arg for argv, *_ in calls if argv[0] == command for arg in argv}
        flags = {s for a in subparser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags <= used, (command, flags - used)
    # every successful --out call hashes the file it wrote
    assert all(out_sha for argv, code, _, out_sha, _ in calls if "--out" in argv and code == 0)
