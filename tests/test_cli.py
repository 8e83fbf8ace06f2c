"""CLI surface: flags, configs, output formats, exit codes, reproducibility."""

import json
import math

import pytest

from perclab import __version__
from perclab.cli import build_parser, main
from perclab.estimators import CSV_COLUMNS


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- dims / classify -----------------------------------------------------------------


def test_dims_json_stdout(capsys):
    rc, out, err = run(capsys, "dims", "--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert doc["config"]["p"] == 0.9
    assert doc["config"]["window"] == [64, 512]  # defaults echoed
    want = 2 + math.log2(0.9)
    for field in ("hausdorff", "packing", "assouad", "box_lower", "box_upper"):
        assert abs(doc["result"][field] - want) < 1e-9
    assert doc["result"]["expected_measure"] == 0.0
    assert "hausdorff=" in err


def test_dims_to_file_atomic(tmp_path, capsys):
    out_path = tmp_path / "dims.json"
    rc, out, _ = run(
        capsys, "dims", "--family", "power_telescope", "--p", "0.75", "--a", "0.5",
        "--n", "1", "--m", "2", "--out", str(out_path),
    )
    assert rc == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["result"]["hausdorff"] == 1.0
    assert doc["result"]["expected_measure"] == 0.75
    assert not list(tmp_path.glob(".perclab-tmp-*"))


def test_classify_boundary(capsys):
    rc, out, _ = run(capsys, "classify", "--family", "mfp", "--p", "0.5", "--n", "1", "--m", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["alpha"] == 0.5
    assert doc["result"]["survival_class"] == "empty_as"


# -- generate / render ------------------------------------------------------------------


def test_generate_json(capsys):
    rc, out, _ = run(
        capsys, "generate", "--family", "explicit", "--tail", "1.0",
        "--n", "1", "--m", "2", "--depth", "3", "--seed", "5",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["counts"] == [1, 2, 4, 8]
    assert doc["result"]["levels"][3] == [[k] for k in range(8)]


def test_render_pgm_golden(tmp_path, capsys):
    out_path = tmp_path / "c.pgm"
    args = (
        "render", "--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2",
        "--depth", "2", "--seed", "7", "--out", str(out_path),
    )
    rc, out, err = run(capsys, *args)
    assert rc == 0
    data1 = out_path.read_bytes()
    assert data1.startswith(b"P5\n4 4\n255\n")
    assert len(data1) == len(b"P5\n4 4\n255\n") + 16
    assert set(data1[len(b"P5\n4 4\n255\n"):]) <= {0, 255}
    prov = json.loads(out)
    assert prov["result"]["width"] == 4
    # byte-identical rerun
    rc2, _, _ = run(capsys, *args)
    assert rc2 == 0
    assert out_path.read_bytes() == data1


def test_render_spec_scale(tmp_path, capsys):
    out_path = tmp_path / "c8.pgm"
    rc, _, _ = run(
        capsys, "render", "--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2",
        "--depth", "8", "--seed", "7", "--out", str(out_path),
    )
    assert rc == 0
    data = out_path.read_bytes()
    assert data.startswith(b"P5\n256 256\n255\n")
    assert len(data) == len(b"P5\n256 256\n255\n") + 256 * 256


def test_render_requires_out(capsys):
    rc, _, err = run(capsys, "render", "--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2")
    assert rc == 2
    assert json.loads(err.splitlines()[0])["exit_code"] == 2


# -- estimators --------------------------------------------------------------------------


def test_measure_csv(tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    rc, _, _ = run(
        capsys, "measure", "--family", "mfp", "--p", "0.8", "--n", "1", "--m", "2",
        "--depth", "6", "--seed", "3", "--reps", "300", "--out", str(out_path), "--format", "csv",
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == f"# version: perclab {__version__}"
    assert lines[1].startswith("# config: ")
    assert lines[2] == ",".join(CSV_COLUMNS)
    row = lines[3].split(",")
    assert row[0] == "expected_measure"
    assert row[1:4] == ["1", "2", "6"]
    assert row[4] == "mfp"
    assert float(row[9]) == pytest.approx(0.8**6, rel=1e-12)


def test_survival_json_summary(capsys):
    rc, out, err = run(
        capsys, "survival", "--family", "mfp", "--p", "0.8", "--n", "1", "--m", "2",
        "--depth", "8", "--seed", "3", "--reps", "400",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["quantity"] == "survival_prob"
    assert 0.8 < doc["result"]["estimate"] <= 1.0
    assert "survival" in err


def test_boxdim_json(capsys):
    rc, out, _ = run(
        capsys, "boxdim", "--family", "explicit", "--tail", "1.0", "--n", "2", "--m", "2",
        "--depth", "6", "--seed", "0", "--reps", "2", "--fit", "1:6",
    )
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["result"]["slope"] - 2.0) < 1e-12


# -- witness -----------------------------------------------------------------------------


def test_witness_json(capsys):
    rc, out, _ = run(capsys, "witness", "--r", "1", "--l", "1.5", "--n", "1", "--m", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["combined_dim"] == 1.0
    assert doc["result"]["combined_measure"] == 1.5


def test_witness_ledger(capsys):
    rc, out, _ = run(capsys, "witness", "--r", "0.5", "--n", "1", "--m", "2", "--ledger")
    assert rc == 0
    assert "max over components" in out


# -- sweep -------------------------------------------------------------------------------


def test_sweep_survival_transition(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc, _, _ = run(
        capsys, "sweep", "--quantity", "survival", "--family", "mfp", "--n", "1", "--m", "2",
        "--p-grid", "0.3:0.9:7", "--depth", "10", "--reps", "300",
        "--seed", "11", "--out", str(out_path),
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 7
    first, last = float(rows[0][7]), float(rows[-1][7])
    assert first < 0.05  # p = 0.3, far below the 1/2 threshold
    assert last > 0.9  # p = 0.9, comfortably above


def test_sweep_degenerate_grid_identical_rows(tmp_path, capsys):
    out_path = tmp_path / "deg.csv"
    rc, _, _ = run(
        capsys, "sweep", "--quantity", "measure", "--family", "mfp", "--n", "1", "--m", "2",
        "--p-grid", "0.7:0.7:2", "--depth", "5", "--reps", "200", "--seed", "4",
        "--out", str(out_path),
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[3] == lines[4]


def test_sweep_dims_constant_for_telescope(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--quantity", "dims", "--family", "power_telescope", "--p", "0.6",
        "--n", "2", "--m", "2", "--a-grid", "0.2:0.8:5",
    )
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert len(rows) == 5
    assert all(float(r[7]) == 2.0 for r in rows)


def test_sweep_needs_exactly_one_grid(capsys):
    rc, _, err = run(capsys, "sweep", "--quantity", "survival", "--family", "mfp", "--n", "1", "--m", "2")
    assert rc == 2
    rc2, _, _ = run(
        capsys, "sweep", "--quantity", "survival", "--family", "mfp",
        "--p-grid", "0.2:0.4:3", "--a-grid", "0.2:0.4:3",
    )
    assert rc2 == 2


# -- config files and precedence -----------------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "dims", "family": "mfp", "p": 0.5, "n": 1, "m": 2}))
    rc, out, _ = run(capsys, "dims", "--config", str(cfg), "--p", "0.9")
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["p"] == 0.9  # flag beats config file
    assert doc["result"]["hausdorff"] == pytest.approx(1 + math.log2(0.9), abs=1e-12)


def test_config_command_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "classify", "family": "mfp", "p": 0.5}))
    rc, _, err = run(capsys, "dims", "--config", str(cfg))
    assert rc == 2
    assert json.loads(err.splitlines()[0])["error"] == "ConfigError"


def test_config_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "mfp", "p": 0.5, "bogus": 1}))
    rc, _, err = run(capsys, "dims", "--config", str(cfg))
    assert rc == 2


def test_config_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc, _, err = run(capsys, "dims", "--config", str(cfg))
    assert rc == 2


# -- exit codes ------------------------------------------------------------------------------


def test_domain_error_exit_3(capsys):
    rc, _, err = run(capsys, "dims", "--family", "mfp", "--p", "1.5", "--n", "1", "--m", "2")
    assert rc == 3
    payload = json.loads(err.splitlines()[0])
    assert payload["exit_code"] == 3


def test_budget_error_exit_4(capsys):
    rc, _, err = run(
        capsys, "generate", "--family", "explicit", "--tail", "1.0", "--n", "2", "--m", "2",
        "--depth", "5", "--budget", "10",
    )
    assert rc == 4
    assert json.loads(err.splitlines()[0])["error"] == "BudgetExceededError"


def test_missing_family_exit_2(capsys):
    rc, _, err = run(capsys, "dims", "--n", "1", "--m", "2")
    assert rc == 2


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    base = ("survival", "--family", "mfp", "--p", "0.8", "--depth", "4", "--reps", "10")
    rc, out, err = run(capsys, *base, "--threads", threads)
    assert rc == 2 and out == ""
    assert json.loads(err.splitlines()[0])["error"] == "ConfigError"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": int(threads)}))
    rc, out, _ = run(capsys, *base, "--config", str(cfg))
    assert rc == 2 and out == ""


@pytest.mark.parametrize(
    "command, fields",
    [
        ("dims", {"family": "mfp", "p": [0.5]}),
        ("dims", {"family": "mfp", "p": 0.5, "n": [2]}),
        ("dims", {"family": "power_head", "p": 0.5, "a": [2]}),
        ("survival", {"family": "mfp", "p": 0.8, "depth": {}, "replicates": 100}),
    ],
)
def test_config_array_or_object_in_numeric_field_exit_2(tmp_path, capsys, command, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    rc, out, err = run(capsys, command, "--config", str(cfg))
    assert rc == 2 and out == ""
    assert json.loads(err.splitlines()[0])["error"] == "ConfigError"


@pytest.mark.parametrize("command", ["dims", "render"])
@pytest.mark.parametrize("out", [["x.json"], 5, {"path": "x.json"}])
def test_config_non_string_out_exit_2(tmp_path, capsys, command, out):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "mfp", "p": 0.5, "out": out}))
    rc, stdout, err = run(capsys, command, "--config", str(cfg))
    assert rc == 2 and stdout == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ConfigError"


# -- determinism ---------------------------------------------------------------------------


def test_identical_reruns_byte_identical(capsys):
    args = (
        "measure", "--family", "power_telescope", "--p", "0.5", "--a", "0.5",
        "--n", "1", "--m", "2", "--depth", "8", "--seed", "42", "--reps", "250",
    )
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_csv_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = (
        "sweep", "--quantity", "survival", "--family", "mfp", "--n", "1", "--m", "2",
        "--p-grid", "0.4:0.8:3", "--depth", "8", "--reps", "200", "--seed", "9",
    )
    rc1, _, _ = run(capsys, *base, "--out", str(a))
    rc2, _, _ = run(capsys, *base, "--out", str(b))
    assert rc1 == rc2 == 0
    # the config comment embeds each run's own output path; all else is bytewise equal
    a_lines, b_lines = a.read_bytes().splitlines(), b.read_bytes().splitlines()
    assert a_lines[0] == b_lines[0]
    assert a_lines[2:] == b_lines[2:]
    assert len(a_lines) == 3 + 3  # version, config, header, three grid points


# -- the flag surface ----------------------------------------------------------------------

_SEQ_FLAGS = {
    (("--a",), "a", None), (("--family",), "family", None), (("--m",), "m", None),
    (("--n",), "n", None), (("--p",), "p", None), (("--prefix",), "prefix", None),
    (("--tail",), "tail", None),
}
_IO_FLAGS = {
    (("-h", "--help"), "help", None), (("--config",), "config", None), (("--out",), "out", None),
    (("--format",), "format", ("json", "csv", "pgm")),
}
_SIM_FLAGS = {(("--budget",), "budget", None), (("--depth",), "depth", None), (("--seed",), "seed", None)}
_EST_FLAGS = {(("--reps",), "replicates", None), (("--threads",), "threads", None)}
_WINDOW_FLAGS = {
    (("--window",), "window", None),
    (("--method",), "method", ("auto", "analytic", "windowed")),
}
_BOX_FLAGS = {(("--fit",), "fit", None), (("--max-attempts",), "max_attempts", None)}
_STREAM_FLAGS = {(("--stream",), "stream", None)}

# every subcommand's (option strings, dest, choices), as the CLI has always declared them
SURFACE = {
    "dims": _IO_FLAGS | _SEQ_FLAGS | _WINDOW_FLAGS,
    "classify": _IO_FLAGS | _SEQ_FLAGS | _WINDOW_FLAGS,
    "generate": _IO_FLAGS | _SEQ_FLAGS | _SIM_FLAGS | _STREAM_FLAGS,
    "render": _IO_FLAGS | _SEQ_FLAGS | _SIM_FLAGS | _STREAM_FLAGS | {(("--level",), "level", None)},
    "measure": _IO_FLAGS | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS,
    "survival": _IO_FLAGS | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS,
    "boxdim": _IO_FLAGS | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS | _BOX_FLAGS,
    "witness": _IO_FLAGS | {
        (("--n",), "n", None), (("--m",), "m", None), (("--r",), "r", None), (("--l",), "l", None),
        (("--case",), "case", None), (("--terms",), "terms", None), (("--ledger",), "ledger", None),
    },
    "sweep": _IO_FLAGS | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS | _WINDOW_FLAGS | _BOX_FLAGS | {
        (("--quantity",), "quantity", ("survival", "measure", "boxdim", "dims")),
        (("--p-grid",), "p_grid", None), (("--a-grid",), "a_grid", None),
    },
}


def test_cli_surface_unchanged():
    parser = build_parser()
    sub = next(action for action in parser._actions if action.dest == "command")
    assert set(sub.choices) == set(SURFACE)
    for command, subparser in sub.choices.items():
        got = {
            (tuple(a.option_strings), a.dest, tuple(a.choices) if a.choices else None)
            for a in subparser._actions
        }
        assert got == SURFACE[command], command


# -- config typing ---------------------------------------------------------------------------


def run_config(tmp_path, capsys, command, fields, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    return run(capsys, command, "--config", str(cfg), *flags)


def assert_config_error(rc, out, err):
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


@pytest.mark.parametrize(
    "command, fields",
    [
        ("generate", {"family": "mfp", "p": 0.5, "depth": 4.9}),  # once truncated to 4
        ("generate", {"family": "mfp", "p": 0.5, "seed": 1.5}),  # once truncated to 1
        ("witness", {"r": 0.5, "ledger": "false"}),  # once printed the ledger
        ("dims", {"family": "mfp", "p": 0.5, "n": True}),
        ("dims", {"family": "mfp", "p": "abc"}),  # once a domain error, exit 3
        ("dims", {"family": "mfp", "p": 0.5, "method": "bogus"}),  # once a domain error, exit 3
        ("dims", {"family": "mfp", "p": 0.5, "prefix": 5}),
        ("boxdim", {"family": "mfp", "p": 0.9, "fit": [1, 2, 3]}),
        ("sweep", {"family": "mfp", "quantity": "survival", "p_grid": "0.1:0.9:1.5"}),
    ],
)
def test_config_badly_typed_value_exit_2(tmp_path, capsys, command, fields):
    assert_config_error(*run_config(tmp_path, capsys, command, fields))


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--family", "mfp", "--p", "abc"),
        ("dims", "--family", "mfp", "--p", "0.5", "--window", "3"),
        ("generate", "--family", "mfp", "--p", "0.5", "--seed", "1.5"),
    ],
)
def test_flag_badly_typed_value_one_json_line(capsys, argv):
    # the same single JSON line as a bad config-file value, not argparse's usage text
    assert_config_error(*run(capsys, *argv))


def test_config_numeric_strings_and_integral_floats_typed_in_echo(tmp_path, capsys):
    rc, out, _ = run_config(
        tmp_path, capsys, "generate", {"family": "mfp", "p": "0.5", "m": "3", "depth": 8.0}
    )
    assert rc == 0
    echoed = json.loads(out)["config"]
    assert (echoed["p"], echoed["m"], echoed["depth"]) == (0.5, 3, 8)
    assert type(echoed["m"]) is int and type(echoed["depth"]) is int
    # the echo is a recipe: as a config file it runs to the same bytes
    rc2, out2, _ = run_config(tmp_path, capsys, "generate", echoed)
    assert rc2 == 0 and out2 == out


@pytest.mark.parametrize("seed", [18446744073709551615, "18446744073709551615"])
def test_config_full_width_seed_round_trips(tmp_path, capsys, seed):
    rc, out, _ = run_config(tmp_path, capsys, "generate", {"family": "mfp", "p": 0.5, "seed": seed})
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 18446744073709551615
    assert doc["result"]["seed"] == 18446744073709551615


def test_witness_ignores_config_depth(tmp_path, capsys):
    # witness takes no --depth; a config file's depth must not reach the witness build
    rc, out, _ = run_config(tmp_path, capsys, "witness", {"depth": 0}, "--r", "1.5", "--n", "2")
    assert rc == 0
    assert json.loads(out)["result"]["combined_dim"] == 1.5


@pytest.mark.parametrize("terms", ["54", "60"])
def test_witness_too_many_terms_names_the_option(capsys, terms):
    rc, out, err = run(
        capsys, "witness", "--case", "integer", "--r", "1", "--l", "0", "--n", "1", "--m", "2", "--terms", terms
    )
    assert rc == 3 and out == ""
    assert "terms" in json.loads(err)["message"]
    rc, out, _ = run(capsys, "witness", "--case", "integer", "--r", "1", "--n", "1", "--m", "2", "--terms", "53")
    assert rc == 0
    assert len(json.loads(out)["result"]["components"]) == 53
