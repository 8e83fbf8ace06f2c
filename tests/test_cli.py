"""CLI surface: flags, configs, output formats, exit codes, reproducibility."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from perclab import __version__
from perclab.cli import (MAX_GRID_POINTS, _COMMANDS, _OPTIONS, _grid, _pick_format, _real, _reals, build_parser,
                         main, resolve_config)
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
    for field in ("hausdorff", "packing", "box_lower", "box_upper"):
        assert abs(doc["result"][field] - want) < 1e-9
    assert doc["result"]["assouad"] == 2.0
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


@pytest.mark.parametrize(
    "args, digest",
    [
        (("--m", "2", "--depth", "8", "--seed", "7"),
         "080e7623f92e734bddd836dc325b2721e2dc535230137adf118525e27ebfd4d5"),
        (("--m", "3", "--depth", "5", "--seed", "11"),
         "d8e07152648870987dcda26c77a055d56e08df156a379a77f4876287a5cf3dee"),
        (("--m", "2", "--depth", "9", "--seed", "3", "--level", "6"),
         "91829980e9a3013311c056cbb2d77871ec5aa3b83ab7fdbfe9a6a5cc90cd8de0"),
    ],
)
def test_render_pgm_pinned_digest(tmp_path, capsys, args, digest):
    # sha256 of the PGM bytes: pins the draw order, the level ordering, the
    # raster orientation and the PGM encoding together
    out_path = tmp_path / "pinned.pgm"
    rc, _, _ = run(
        capsys, "render", "--family", "mfp", "--p", "0.9", "--n", "2", *args,
        "--out", str(out_path),
    )
    assert rc == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


UNDERFLOW_SURVIVAL = (
    "survival", "--family", "power_head", "--p", "1e-200", "--a", "2", "--n", "1", "--m", "2",
    "--depth", "5", "--reps", "100",
)


@pytest.mark.parametrize(
    "args, digest",
    [
        (("measure", "--family", "mfp", "--p", "0.7", "--n", "2", "--m", "2", "--depth", "6",
          "--reps", "300", "--seed", "5"),
         "ff93ffa0dd63afa0e38ca879f2d63bd76b397cccde91fe079d37ca6c59ea2b25"),
        (("measure", "--family", "explicit", "--prefix", "0.6,0.9", "--tail", "1.0", "--n", "1",
          "--m", "3", "--depth", "5", "--reps", "200", "--seed", "8"),
         "b945d2311c3f978e835aec48f2051c19f3d5aaae5352aec06535e32c5cc6a3cc"),
        (("survival", "--family", "power_telescope", "--p", "0.6", "--a", "0.3", "--n", "1",
          "--m", "2", "--depth", "12", "--reps", "500", "--seed", "9"),
         "de4032135a46bdf62821c707d8fc6474db12ac7755db92d08af1fefb7e380193"),
        (UNDERFLOW_SURVIVAL,
         "769402deea6d7de0d6ec91a71438dce6f1485658f7852de998d0d422faf81f9b"),
        (("boxdim", "--family", "mfp", "--p", "0.45", "--n", "2", "--m", "2", "--depth", "7",
          "--reps", "30", "--seed", "3"),
         "088fed48b973efa5fdf63b907afe156311e8b044afa76159bded93d514a99791"),
    ],
    ids=["measure", "measure-tail-1", "survival", "survival-underflow", "boxdim-rejecting"],
)
def test_estimator_result_pinned_digest(capsys, args, digest):
    # sha256 of the JSON result: pins the replicate-to-stream map, the draw
    # order and keep test, and each estimator's fold together
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    result = json.loads(out)["result"]
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == digest


def test_underflowed_retention_keeps_nothing(capsys):
    # p_1 = (1e-200)^2 underflows to 0.0: no candidate is kept, nothing fails
    rc, out, _ = run(capsys, *UNDERFLOW_SURVIVAL)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["estimate"] == 0.0 and result["replicates"] == 100


@pytest.mark.parametrize("prefix, rc", [("0.01,0.01", 0), ("0.9,0.9", 3)], ids=["all-die", "alive-past"])
def test_measure_past_a_tailless_prefix(capsys, prefix, rc):
    # depth 5 past a 2-term prefix: with every replicate dead within the
    # prefix the estimate stands and its theory is null, as in survival; a
    # replicate alive at level 3 fails there
    argv = ("measure", "--family", "explicit", "--prefix", prefix, "--n", "1", "--m", "2", "--depth", "5",
            "--reps", "100")
    got, out, err = run(capsys, *argv)
    assert got == rc
    if rc:
        assert json.loads(err.splitlines()[0])["message"] == "explicit sequence defined only up to k=2, asked for k=3"
    else:
        result = json.loads(out)["result"]
        assert (result["estimate"], result["theory"], result["z_score"]) == (0.0, None, None)


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


def test_render_generates_only_to_its_level(tmp_path, capsys):
    # deeper levels draw later in the stream, so the depth changes no byte,
    # even past the depth generate takes (m^(n K) = 2^80 > 2^64)
    base = ("render", "--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2", "--seed", "7")
    pgms = []
    for depth in ("4", "40"):
        out_path = tmp_path / f"d{depth}.pgm"
        rc, _, _ = run(capsys, *base, "--depth", depth, "--level", "4", "--out", str(out_path))
        assert rc == 0
        pgms.append(out_path.read_bytes())
    assert pgms[0] == pgms[1]
    assert pgms[0].startswith(b"P5\n16 16\n255\n")
    rc, _, _ = run(capsys, *base, "--depth", "40", "--out", str(tmp_path / "g.pgm"))
    assert rc == 3
    rc, _, err = run(capsys, *base, "--depth", "4", "--level", "5", "--out", str(tmp_path / "h.pgm"))
    assert rc == 3
    assert "level 5 outside [0, 4]" in err


def test_render_level_zero_is_one_pixel(tmp_path, capsys):
    # level 0 draws nothing, so no budget can refuse it
    for extra in ((), ("--budget", "1")):
        out_path = tmp_path / f"l0-{len(extra)}.pgm"
        rc, _, _ = run(
            capsys, "render", "--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2",
            "--depth", "40", "--level", "0", *extra, "--out", str(out_path),
        )
        assert rc == 0
        assert out_path.read_bytes() == b"P5\n1 1\n255\n\xff"


@pytest.mark.parametrize(
    "shape, error",
    [(("--n", "2", "--depth", "13"), "RasterTooLargeError"),
     (("--n", "3", "--depth", "4"), "UnsupportedDimensionError")],
    ids=["side-8192", "n-3"],
)
def test_render_rejects_the_raster_before_sampling(tmp_path, capsys, monkeypatch, shape, error):
    # the raster rule reads only n, m and the level, so a raster that cannot
    # be drawn fails before any cell is sampled
    def refuse(*args, **kwargs):
        raise AssertionError("render sampled a realization it cannot draw")

    monkeypatch.setattr("perclab.engine._draw_levels", refuse)
    rc, out, err = run(capsys, "render", "--family", "mfp", "--p", "0.95", "--m", "2", *shape,
                       "--seed", "1", "--out", str(tmp_path / "x.pgm"))
    assert rc == 3 and out == ""
    assert json.loads(err.splitlines()[0])["error"] == error
    assert not (tmp_path / "x.pgm").exists()


def test_generate_past_64_bit_keys_exits_3_and_estimators_keep_the_depth(capsys):
    wide = ("--family", "mfp", "--p", "0.3", "--n", "2", "--m", "2", "--depth", "40")
    rc, _, err = run(capsys, "generate", *wide)
    assert rc == 3
    assert "exceeds 2^64" in err
    rc, out, _ = run(capsys, "measure", *wide, "--reps", "100")
    assert rc == 0
    assert json.loads(out)["result"]["replicates"] == 100


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


@pytest.mark.parametrize(
    "command, args",
    [
        ("measure", ("--n", "1", "--p", "0.8", "--depth", "8", "--seed", "33", "--reps", "300")),
        ("survival", ("--n", "1", "--p", "0.6", "--depth", "8", "--seed", "33", "--reps", "300")),
        ("boxdim", ("--n", "2", "--p", "0.85", "--depth", "8", "--seed", "3", "--reps", "4",
                    "--fit", "3:8")),
    ],
    ids=["measure", "survival", "boxdim"],
)
def test_threads_leave_the_result_unchanged(capsys, command, args):
    # --threads is validated and echoed, but replicates run inline in stream
    # order whatever its value
    results = []
    for threads in ("1", "3"):
        rc, out, _ = run(capsys, command, "--family", "mfp", "--m", "2", *args, "--threads", threads)
        assert rc == 0
        doc = json.loads(out)
        assert doc["config"]["threads"] == int(threads)
        results.append(json.dumps(doc["result"], sort_keys=True))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "command, args",
    [
        ("dims", ("--n", "2", "--p", "0.9")),
        ("survival", ("--n", "1", "--p", "0.6", "--depth", "6", "--reps", "100")),
        ("boxdim", ("--n", "2", "--p", "0.9", "--depth", "6", "--reps", "2")),
    ],
    ids=["dims", "survival", "boxdim"],
)
def test_json_run_builds_no_csv_row(capsys, monkeypatch, command, args):
    # a runner builds its payload in the picked format only: boxdim's CSV
    # row would also compute a full dimension report for its theory
    def refuse(*args, **kwargs):
        raise AssertionError("a JSON run built a CSV row")

    monkeypatch.setattr("perclab.cli.csv_row", refuse)
    rc, out, _ = run(capsys, command, "--family", "mfp", "--m", "2", *args)
    assert rc == 0 and json.loads(out)["result"]


@pytest.mark.parametrize("command", ["measure", "survival"])
def test_estimator_looked_up_when_the_command_runs(capsys, monkeypatch, command):
    # a wrapper installed on perclab.cli after import (as a tracer does) sees
    # the call, and the output bytes are those of the unwrapped run
    import perclab.cli as cli

    argv = (command, "--family", "mfp", "--p", "0.7", "--n", "1", "--m", "2", "--depth", "6",
            "--seed", "9", "--reps", "50")
    want = run(capsys, *argv)
    calls = {}
    for name in ("estimate_measure", "estimate_survival"):
        def recorded(params, replicates, _fn=getattr(cli, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(params, replicates)

        monkeypatch.setattr(cli, name, recorded)
    assert run(capsys, *argv) == want
    assert calls == {f"estimate_{command}": 1}


# -- witness -----------------------------------------------------------------------------


def test_witness_json(capsys):
    rc, out, _ = run(capsys, "witness", "--r", "1", "--l", "1.5", "--n", "1", "--m", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["combined_dim"] == 1.0
    assert doc["result"]["combined_measure"] == 1.5


def test_witness_ledger(capsys):
    rc, out, _ = run(capsys, "witness", "--r", "0.5", "--n", "1", "--m", "2", "--format", "ledger")
    assert rc == 0
    assert "max over components" in out


def test_witness_ledger_honours_out(tmp_path, capsys):
    args = ("witness", "--r", "1.5", "--n", "2", "--format", "ledger")
    rc, ledger, _ = run(capsys, *args)
    assert rc == 0
    out_path = tmp_path / "w.txt"
    rc, out, err = run(capsys, *args, "--out", str(out_path))
    assert rc == 0 and out == ""
    assert out_path.read_text() == ledger
    assert err.startswith("witness: combined_dim=")
    assert not list(tmp_path.glob(".perclab-tmp-*"))


def test_witness_ledger_from_the_out_extension(tmp_path, capsys):
    rc, ledger, _ = run(capsys, "witness", "--r", "1.5", "--n", "2", "--format", "ledger")
    assert rc == 0
    out_path = tmp_path / "w.ledger"
    rc, out, _ = run(capsys, "witness", "--r", "1.5", "--n", "2", "--out", str(out_path))
    assert rc == 0 and out == ""
    assert out_path.read_text() == ledger


@pytest.mark.parametrize("flag", [("--case", "union"), ("--ledger",)], ids=["case", "ledger"])
def test_witness_removed_flags_exit_2(capsys, flag):
    rc, out, err = run(capsys, "witness", "--r", "1.5", "--n", "2", *flag)
    assert rc == 2 and out == ""
    assert flag[0] in err


@pytest.mark.parametrize("fields", [{"case": "union"}, {"ledger": True}], ids=["case", "ledger"])
def test_witness_removed_config_fields_exit_2(tmp_path, capsys, fields):
    rc, out, err = run_config(tmp_path, capsys, "witness", fields, "--r", "1.5", "--n", "2")
    assert_config_error(rc, out, err)
    assert "unknown config fields" in err


def test_dims_refuses_the_ledger_format(capsys):
    assert_config_error(*run(capsys, "dims", "--family", "mfp", "--p", "0.9", "--format", "ledger"))


@pytest.mark.parametrize(
    "args, digest",
    [
        (("--r", "0.5", "--n", "1", "--m", "3"),
         "3f6665706dd29f6a4bff09ced519d1fd59044fa90744c1734cb7921193cdd964"),
        (("--r", "1", "--n", "1", "--m", "2"),
         "01cd4c02508c38e9308fddbbc18e99c3af9cf3b7ad721dd88de1dfb7b38baf37"),
        (("--r", "1", "--l", "2.5", "--n", "1", "--m", "2"),
         "fd426005c55980157f22e4e3b27002e7eb0c6064fe411c5cc2b202ef44c444b7"),
        (("--r", "1", "--l", "1.5", "--n", "1", "--m", "2"),
         "882444220c5770edaedc30700dec3e7467da7a39fe6f7d325fc98f5bd95fc2fd"),
    ],
    ids=["r0.5-l0-n1-m3", "r1-l0-n1-m2", "r1-l2.5-n1-m2", "r1-l1.5-n1-m2"],
)
def test_witness_json_pinned_digest(capsys, args, digest):
    # sha256 of stdout: pins each target's components, regions, sequences, the
    # combined ledger and the target together
    rc, out, _ = run(capsys, "witness", *args)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_witness_large_measure_target(capsys):
    # b^n * p rounds to l only up to a few ulps, which exceed any fixed absolute bound
    rc, out, _ = run(capsys, "witness", "--r", "1", "--l", "1e9", "--n", "3")
    assert rc == 0
    assert json.loads(out)["result"]["combined_measure"] == 1e9


@pytest.mark.parametrize("l", ["4503599627370496", "9007199254740992", "1e16", "1e300"])
def test_witness_measure_at_and_past_2_53(capsys, l):
    # from 2^53 on floor(l) + 1 rounds back to l; the block is scaled by the
    # next double above l instead, so p = l / scale stays below 1
    rc, out, _ = run(capsys, "witness", "--r", "1", "--l", l, "--n", "1", "--m", "2")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["combined_measure"] == float(l)
    assert result["components"][0]["seq"]["p"] < 1.0


def test_witness_refuses_the_largest_double(capsys):
    # no double lies above it to scale the block by
    rc, out, err = run(capsys, "witness", "--r", "1", "--l", "1.7976931348623157e308", "--n", "1", "--m", "2")
    assert rc == 3 and out == ""
    error = json.loads(err.splitlines()[0])
    assert error["error"] == "InvalidParamsError"
    assert "must be below 1.7976931348623157e+308" in error["message"]


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


def test_sweep_refuses_the_fields_its_quantity_does_not_read(tmp_path, capsys):
    # sweep has these flags for other quantities; a survival sweep would never read them
    argv = ("--quantity", "survival", "--family", "mfp", "--n", "1", "--m", "2", "--p-grid", "0.5:0.9:2",
            "--depth", "4", "--reps", "100")
    extra = {"method": "windowed", "window": "16:64", "fit": "1:4", "max_attempts": 7}
    flags = [arg for field, value in extra.items() for arg in (_OPTIONS[field].flag, str(value))]
    from_flags = run(capsys, "sweep", *argv, *flags)
    from_file = run_config(tmp_path, capsys, "sweep", extra, *argv)
    assert_config_error(*from_flags)
    assert from_flags == from_file
    assert json.loads(from_flags[2])["message"] == (
        "unknown config fields for sweep --quantity survival: ['fit', 'max_attempts', 'method', 'window']"
    )


@pytest.mark.parametrize("key, argv", [
    ("p", ("--quantity", "dims", "--family", "mfp", "--n", "2", "--p", "0.1", "--p-grid", "0.3:0.9:3")),
    ("a", ("--quantity", "dims", "--family", "power_telescope", "--p", "0.6", "--a", "0.1",
           "--a-grid", "0.2:0.8:3")),
])
def test_sweep_refuses_the_swept_field(capsys, key, argv):
    # the grid sets it at every point, so a given value would be echoed and overwritten
    rc, out, err = run(capsys, "sweep", *argv)
    assert_config_error(rc, out, err)
    assert json.loads(err)["message"] == f"sweep over {key} takes no --{key}: the grid gives it"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lo=st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
    hi=st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
    count=st.integers(min_value=2, max_value=40),
)
@example(lo=5e-324, hi=1e-323, count=11)  # a step that underflows to zero
@example(lo=0.7, hi=0.7, count=3)
def test_sweep_grid_is_numpy_linspace_bit_for_bit(capsys, lo, hi, count):
    rc, out, _ = run(capsys, "sweep", "--quantity", "dims", "--family", "mfp",
                     "--p-grid", f"{lo!r}:{hi!r}:{count}")
    assert rc == 0
    params = [line.split(",")[5] for line in out.splitlines()[3:]]
    assert [float(p.removeprefix("p=")) for p in params] == np.linspace(lo, hi, count).tolist()


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


HUGE = "1" + "0" * 400  # an integer no float can hold


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--family", "mfp", "--p", "0.5", "--n", HUGE),
        ("witness", "--format", "ledger", "--r", "1", "--n", "2", "--m", HUGE),
    ],
)
def test_integer_too_large_for_a_float_exit_3(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "OverflowError"


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--quantity", "dims", "--family", "mfp", "--p", "0.5", "--n", "1", "--a-grid", "1:2:3"),
        ("dims", "--family", "mfp", "--p", "0.5", "--a", "7", "--prefix", "0.1,0.2"),
        ("dims", "--family", "explicit", "--p", "0.5", "--tail", "0.9"),
    ],
)
def test_sequence_field_the_family_does_not_read_exit_3(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"


@pytest.mark.parametrize(
    "extra, field",
    [
        # the laws of power_telescope and mfp, which have one spelling each
        (("--a", "0.5"), "'a'"),
        ((), "'tail'"),
    ],
)
def test_power_reads_only_an_exponent_list(capsys, extra, field):
    base = ("dims", "--family", "power", "--p", "0.5", "--n", "1", "--m", "2")
    rc, out, err = run(capsys, *base, *extra)
    assert rc == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidParamsError" and field in payload["message"]
    # a tail alone is an empty exponent list: p_k = 0.5^0.5 for every k
    rc, out, _ = run(capsys, *base, "--tail", "0.5")
    assert rc == 0
    assert json.loads(out)["result"]["hausdorff"] == pytest.approx(0.5, abs=1e-12)


_REAL_FIELDS = sorted(field for field, opt in _OPTIONS.items() if opt.parse in (_real, _reals, _grid))


@pytest.mark.parametrize("field", _REAL_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_real_exit_2(tmp_path, capsys, field, value):
    parse = _OPTIONS[field].parse
    flag, given = {
        _real: (str(value), value),
        _reals: (f"0.5,{value}", [0.5, value]),
        _grid: (f"0.1:{value}:3", [0.1, value, 3]),
    }[parse]
    if parse is _grid:
        command = ("sweep", "--quantity", "dims")
    else:
        command = (next(name for name, spec in _COMMANDS.items() if field in spec.fields),)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: given}))  # as NaN, Infinity or -Infinity
    # --flag=value: argparse would read a separate "-inf" as a flag
    for argv in ((*command, f"{_OPTIONS[field].flag}={flag}"), (*command, "--config", str(cfg))):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and payload["message"].startswith(f"bad {field}: ")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**preset: str) -> dict:
    """The environment of a child that imports perclab from ``src``: none of
    the variables OpenBLAS sizes its thread pool from is set, except ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_capped(cap: int, *argv):
    """Run the CLI in a child whose address space is capped at ``cap`` bytes.

    The cap is set before perclab starts, without preexec_fn, which is unsafe
    once the test process runs threads.
    """
    capped_main = (
        f"import resource, runpy, sys; cap = {cap}; "
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
        "sys.argv[0] = 'perclab'; runpy.run_module('perclab', run_name='__main__')"
    )
    return subprocess.run(
        [sys.executable, "-c", capped_main, *argv], env=child_env(), capture_output=True, text=True,
        timeout=60,
    )


def test_huge_depth_rejected_before_m_to_the_depth_is_built():
    # 2^(10^11) would need 12.5 GB as an integer; the cap turns any attempt to
    # build it into a MemoryError instead of letting it take the machine
    proc = run_capped(3 << 30, "survival", "--family", "mfp", "--p", "0.5", "--n", "1",
                      "--depth", "100000000000", "--reps", "100")
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "InvalidParamsError"


def test_huge_window_top_rejected_before_the_log_table_is_built():
    # a table through k_hi = 10^11 would ask for 745 GiB
    proc = run_capped(1 << 30, "dims", "--family", "mfp", "--p", "0.9", "--n", "1",
                      "--method", "windowed", "--window", "64:100000000000")
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "InvalidParamsError"


@pytest.mark.parametrize("command, extra", [("generate", ()), ("survival", ("--reps", "100"))])
def test_keep_mask_too_large_for_memory_exit_4(command, extra):
    # a budget of 2^60 cells lets one level ask numpy for a 1 EiB keep mask
    proc = run_capped(1 << 30, command, "--family", "mfp", "--p", "0.5", "--n", "3", "--m", "1048576",
                      "--depth", "1", "--budget", str(1 << 60), *extra)
    assert proc.returncode == 4 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "MemoryError" and payload["exit_code"] == 4


def test_huge_sweep_grid_rejected_before_it_is_built():
    # 10^11 points would ask for 745 GiB as one array, or run for days as a list
    proc = run_capped(1 << 30, "sweep", "--quantity", "dims", "--family", "mfp", "--n", "2",
                      "--p-grid", "0.3:0.9:100000000000")
    assert proc.returncode == 2 and proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert payload["error"] == "ConfigError" and str(MAX_GRID_POINTS) in payload["message"]


# records every write to os.environ made by perclab's first use of numpy
# (importing the engine, unless the probe is given another first use), then
# prints them with the BLAS thread variables and the process's thread count
IMPORT_PROBE = """
import json, os, sys
writes = []
environ = type(os.environ)
set_item, del_item = environ.__setitem__, environ.__delitem__
def recording_set(self, key, value):
    writes.append(["set", key, value])
    set_item(self, key, value)
def recording_del(self, key):
    writes.append(["del", key])
    del_item(self, key)
environ.__setitem__, environ.__delitem__ = recording_set, recording_del
%%(first_use)s
environ.__setitem__, environ.__delitem__ = set_item, del_item
tasks = "/proc/self/task"
print(json.dumps({
    "writes": writes,
    "vars": {key: os.environ.get(key) for key in %r},
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "numpy": "numpy" in sys.modules,
}))
""" % (BLAS_THREAD_VARS,)
CAPPED_WRITES = [["set", "OPENBLAS_NUM_THREADS", "1"], ["del", "OPENBLAS_NUM_THREADS"]]


def probe_import(prelude: str = "", first_use: str = "import perclab.engine", **preset: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", prelude + IMPORT_PROBE % {"first_use": first_use}],
        env=child_env(**preset), capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_import_starts_no_blas_pool_and_unsets_its_cap():
    probe = probe_import()
    assert probe["numpy"] and probe["writes"] == CAPPED_WRITES
    assert probe["vars"] == dict.fromkeys(BLAS_THREAD_VARS)
    assert probe["threads"] in (None, 1)  # None where /proc/self/task is missing


def test_windowed_evaluation_loads_numpy_with_the_cap():
    # no draw: the windowed evaluator is the first user of numpy here
    probe = probe_import(first_use="from perclab.probseq import ProbSequence, _Limits\n"
                                   "_Limits(ProbSequence.mfp(0.5), (8, 32), 'windowed')")
    assert probe["numpy"] and probe["writes"] == CAPPED_WRITES
    assert probe["vars"] == dict.fromkeys(BLAS_THREAD_VARS)
    assert probe["threads"] in (None, 1)


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_keeps_a_caller_chosen_blas_thread_count(var):
    probe = probe_import(**{var: "2"})
    assert probe["writes"] == []
    assert probe["vars"] == {**dict.fromkeys(BLAS_THREAD_VARS), var: "2"}


def test_import_after_numpy_leaves_the_environment_untouched():
    probe = probe_import("import numpy\n")
    assert probe["writes"] == []
    assert probe["vars"] == dict.fromkeys(BLAS_THREAD_VARS)


# runs the CLI in a child that imports perclab.cli; with no arguments, only
# imports perclab; then prints its exit code and which of numpy and the engine loaded
LOADS_PROBE = """
import contextlib, io, json, sys
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if argv:
        from perclab import cli
        code = cli.main(argv)
    else:
        import perclab
        code = 0
print(json.dumps([code, [name for name in ("numpy", "perclab.engine") if name in sys.modules]]))
"""


def probe_loads(*argv: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "-c", LOADS_PROBE, *argv], env=child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    return tuple(json.loads(proc.stdout))


MFP = ("--family", "mfp", "--p", "0.7", "--n", "2")


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("--version",),
        ("--help",),
        ("dims", *MFP),
        ("dims", *MFP, "--format", "csv"),
        ("dims", "--family", "power_telescope", "--p", "0.5", "--a", "0.25", "--n", "1"),
        ("classify", *MFP),
        ("classify", "--family", "explicit", "--prefix", "0.5,0.6", "--tail", "1", "--n", "1"),
        ("witness", "--r", "0.5", "--l", "0.2"),
        ("witness", "--r", "0.5", "--format", "ledger"),
        ("sweep", "--quantity", "dims", "--family", "mfp", "--n", "2", "--p-grid", "0.3:0.9:5"),
    ],
    ids=["import", "version", "help", "dims", "dims-csv", "dims-telescope", "classify", "classify-explicit",
         "witness", "witness-ledger", "sweep-dims"],
)
def test_analytic_commands_load_no_numpy(argv):
    assert probe_loads(*argv) == (0, [])


@pytest.mark.parametrize(
    "argv, loads",
    [
        (("generate", *MFP, "--depth", "3"), ["numpy", "perclab.engine"]),
        (("survival", *MFP, "--depth", "3", "--reps", "100"), ["numpy", "perclab.engine"]),
        (("dims", *MFP, "--method", "windowed", "--window", "8:32"), ["numpy"]),
    ],
    ids=["generate", "survival", "dims-windowed"],
)
def test_draws_and_windowed_evaluation_load_numpy(argv, loads):
    assert probe_loads(*argv) == (0, loads)


def test_package_names_resolve_on_first_use():
    import importlib

    import perclab

    for name in perclab.__all__[1:]:
        module = importlib.import_module(f"perclab.{perclab._MODULE_OF[name]}")
        assert getattr(perclab, name) is getattr(module, name), name
        assert name not in vars(perclab), name  # looked up afresh, never stored
    assert perclab.__all__[0] == "__version__"
    assert set(perclab.__all__) <= set(dir(perclab))
    namespace: dict = {}
    exec("from perclab import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(perclab.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        perclab.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--family", "mfp", "--p", "0.7", "--n", "2", "--method", "windowed",
         "--window", "8:32", "--format", "csv"),
        ("survival", "--family", "mfp", "--p", "0.8", "--n", "1", "--depth", "6", "--reps", "200",
         "--seed", "3", "--out", "out.json"),
        ("render", "--family", "mfp", "--p", "0.9", "--n", "2", "--depth", "5", "--seed", "5",
         "--out", "out.pgm"),
    ],
    ids=["dims", "survival", "render"],
)
def test_output_identical_whatever_the_blas_thread_count(tmp_path, argv):
    outputs = []
    for preset in ({"OPENBLAS_NUM_THREADS": "2"}, {}):
        cwd = tmp_path / str(len(outputs))
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "perclab", *argv], env=child_env(**preset), cwd=cwd,
            capture_output=True, timeout=60, check=True,
        )
        outputs.append((proc.stdout, {p.name: p.read_bytes() for p in cwd.iterdir()}))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]


def test_budget_error_exit_4(capsys):
    rc, _, err = run(
        capsys, "generate", "--family", "explicit", "--tail", "1.0", "--n", "2", "--m", "2",
        "--depth", "5", "--budget", "10",
    )
    assert rc == 4
    assert json.loads(err.splitlines()[0])["error"] == "BudgetExceededError"


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--family", "mfp", "--p", "0.9", "--n", "2"),
        ("render", "--family", "mfp", "--p", "0.9", "--n", "2", "--depth", "3"),
        ("witness", "--r", "1.5", "--n", "2", "--format", "ledger"),
    ],
    ids=["json", "pgm", "ledger"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, argv, target):
    # an --out that cannot be written is one ConfigError line, not a
    # traceback, found before any params are built or cells sampled, and
    # leaves no temp file behind
    def refuse(*args, **kwargs):
        raise AssertionError("worked before the --out check")

    monkeypatch.setattr("perclab.cli.build_seq", refuse)  # under build_params too
    monkeypatch.setattr("perclab.cli.build_witness", refuse)
    monkeypatch.setattr("perclab.engine._draw_levels", refuse)
    (tmp_path / "sub").mkdir()
    out_path = tmp_path / "missing" / "x.out" if target == "missing-dir" else tmp_path / "sub"
    rc, out, err = run(capsys, *argv, "--out", str(out_path))
    assert_config_error(rc, out, err)
    assert f"cannot write {out_path}" in json.loads(err)["message"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sub"]


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--family", "mfp", "--p", "1.0", "--n", "2", "--depth", "20", "--budget", "1000",
         "--format", "csv"),
        ("render", "--family", "mfp", "--p", "1.0", "--n", "2", "--depth", "3", "--format", "json",
         "--out", "x.pgm"),
        ("render", "--family", "mfp", "--p", "1.0", "--n", "2", "--depth", "3"),
    ],
    ids=["generate-csv", "render-json", "render-without-out"],
)
def test_refused_format_exits_2_before_any_work(capsys, monkeypatch, argv):
    # the format is resolved before the params are built (p = 1.0 would exit
    # 3) and before anything is sampled
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the format was checked")

    monkeypatch.setattr("perclab.engine._draw_levels", refuse)
    assert_config_error(*run(capsys, *argv))


@pytest.mark.parametrize("command", ["generate", "render"])
@pytest.mark.parametrize("stream", ["-1", "18446744073709551616"])
def test_stream_outside_64_bits_exit_3(tmp_path, capsys, command, stream):
    # once reduced modulo 2^64: stream 2^64 drew stream 0's cells
    args = (command, "--family", "mfp", "--p", "0.8", "--n", "2", "--depth", "6",
            "--out", str(tmp_path / "x.out"))
    rc, out, err = run(capsys, *args, "--stream", stream)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"
    assert not list(tmp_path.iterdir())
    rc, out, _ = run(capsys, *args, "--stream", "18446744073709551615")
    assert rc == 0


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
_IO_FLAGS = {(("-h", "--help"), "help", None), (("--config",), "config", None), (("--out",), "out", None)}
_SIM_FLAGS = {(("--budget",), "budget", None), (("--depth",), "depth", None), (("--seed",), "seed", None)}
_EST_FLAGS = {(("--reps",), "replicates", None), (("--threads",), "threads", None)}
_WINDOW_FLAGS = {
    (("--window",), "window", None),
    (("--method",), "method", "{auto,analytic,windowed}"),
}
_BOX_FLAGS = {(("--fit",), "fit", None), (("--max-attempts",), "max_attempts", None)}
_STREAM_FLAGS = {(("--stream",), "stream", None)}


def _format(*formats):
    return {(("--format",), "format", "{" + ",".join(formats) + "}")}


# every subcommand's (option strings, dest, metavar): the metavar shows a
# flag's choices, and each --format lists only its command's own formats
SURFACE = {
    "dims": _IO_FLAGS | _format("json", "csv") | _SEQ_FLAGS | _WINDOW_FLAGS,
    "classify": _IO_FLAGS | _format("json") | _SEQ_FLAGS | _WINDOW_FLAGS,
    "generate": _IO_FLAGS | _format("json") | _SEQ_FLAGS | _SIM_FLAGS | _STREAM_FLAGS,
    "render": _IO_FLAGS | _format("pgm") | _SEQ_FLAGS | _SIM_FLAGS | _STREAM_FLAGS
    | {(("--level",), "level", None)},
    "measure": _IO_FLAGS | _format("json", "csv") | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS,
    "survival": _IO_FLAGS | _format("json", "csv") | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS,
    "boxdim": _IO_FLAGS | _format("json", "csv") | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS | _BOX_FLAGS,
    "witness": _IO_FLAGS | _format("json", "ledger") | {
        (("--n",), "n", None), (("--m",), "m", None), (("--r",), "r", None), (("--l",), "l", None),
    },
    "sweep": _IO_FLAGS | _format("csv") | _SEQ_FLAGS | _SIM_FLAGS | _EST_FLAGS | _WINDOW_FLAGS | _BOX_FLAGS
    | {
        (("--quantity",), "quantity", "{survival,measure,boxdim,dims}"),
        (("--p-grid",), "p_grid", None), (("--a-grid",), "a_grid", None),
    },
}


def test_cli_surface_unchanged():
    parser = build_parser()
    sub = next(action for action in parser._actions if action.dest == "command")
    assert set(sub.choices) == set(SURFACE)
    for command, subparser in sub.choices.items():
        got = {(tuple(a.option_strings), a.dest, a.metavar) for a in subparser._actions}
        assert got == SURFACE[command], command
        # argparse only collects strings; resolve_config and _pick_format check the choices
        assert all(a.choices is None for a in subparser._actions), command


def test_readme_command_lines_resolve(tmp_path):
    # every `perclab …` line of the README's "Command line" block is parsed,
    # resolved and given a format, but not run: a flag the CLI dropped or
    # renamed fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("perclab ")]
    assert {argv[0] for argv in argvs} == set(_COMMANDS)
    for argv in argvs:
        cfg = resolve_config(build_parser().parse_args(argv))
        _pick_format(cfg, _COMMANDS[cfg["command"]])
    # every JSON config example of the Configuration paragraph is read and
    # resolved for its command: a field that command does not take fails here
    paragraph = section.split("\nConfiguration:", 1)[1].split("\n\n", 1)[0]
    examples = []
    for span in paragraph.replace("\n", " ").split("`")[1::2]:
        try:
            example = json.loads(span)
        except ValueError:
            continue
        if isinstance(example, dict):
            examples.append(example)
    assert examples
    path = tmp_path / "cfg.json"
    for example in examples:
        path.write_text(json.dumps(example))
        cfg = resolve_config(build_parser().parse_args([example["command"], "--config", str(path)]))
        assert {k: cfg[k] for k in example} == example


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
        ("witness", {"r": 0.5, "l": True}),  # a boolean is not a number
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
    # witness takes no --depth, so a config file may not hold one either
    rc, out, err = run_config(tmp_path, capsys, "witness", {"depth": 0}, "--r", "1.5", "--n", "2")
    assert_config_error(rc, out, err)
    assert "'depth'" in err


def test_witness_has_no_terms_option(tmp_path, capsys):
    # integer targets are exact, so there is no union to truncate
    args = ("witness", "--format", "ledger", "--r", "1", "--n", "1", "--m", "2")
    rc, out, err = run(capsys, *args, "--terms", "4")
    assert rc == 2 and out == ""
    assert "--terms" in err
    assert_config_error(*run_config(tmp_path, capsys, "witness", {"terms": 4}, *args[1:]))


# -- each command's own fields ---------------------------------------------------------------

# one small run per subcommand; render's --out is filled in per test
RUNS = {
    "dims": ("--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2"),
    "classify": ("--family", "power_telescope", "--p", "0.5", "--a", "0.2"),
    "generate": ("--family", "mfp", "--p", "0.8", "--n", "2", "--depth", "4", "--seed", "7"),
    "render": ("--family", "mfp", "--p", "0.9", "--n", "2", "--depth", "3", "--seed", "7"),
    "measure": ("--family", "power_telescope", "--p", "0.5", "--a", "0.5", "--depth", "5", "--reps", "100"),
    "survival": ("--family", "mfp", "--p", "0.8", "--depth", "5", "--reps", "100", "--format", "csv"),
    "boxdim": ("--family", "mfp", "--p", "0.9", "--n", "2", "--depth", "5", "--reps", "3", "--fit", "1:5"),
    "witness": ("--r", "1", "--l", "1.5"),
}
# and one per quantity that sweep runs
SWEEP_RUNS = {
    "dims": ("--family", "mfp", "--n", "2", "--p-grid", "0.3:0.9:3"),
    "measure": ("--family", "power_telescope", "--a", "0.5", "--p-grid", "0.4:0.6:2", "--depth", "5",
                "--reps", "100"),
    "survival": ("--family", "mfp", "--p-grid", "0.7:0.9:2", "--depth", "5", "--reps", "100"),
    "boxdim": ("--family", "mfp", "--n", "2", "--p-grid", "0.9:0.95:2", "--depth", "4", "--reps", "2",
               "--fit", "1:4"),
}


def _surfaces(command: str) -> list[tuple[tuple[str, ...], set[str], tuple[str, ...]]]:
    """(leading flags, input fields, run flags) of a command: sweep has one per quantity."""
    if command != "sweep":
        return [((), set(_COMMANDS[command].options), RUNS[command])]
    return [(("--quantity", q), set(_COMMANDS[q].options) | {"quantity", "p_grid", "a_grid"}, SWEEP_RUNS[q])
            for q in _OPTIONS["quantity"].choices]


def _echoed_config(out: str) -> dict:
    if out.startswith("# version:"):
        return json.loads(out.splitlines()[1].removeprefix("# config: "))
    return json.loads(out)["config"]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_echoed_config_holds_exactly_the_command_fields_and_reruns(tmp_path, capsys, command):
    surfaces = _surfaces(command)
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    # argparse is static: sweep's flags are those of every quantity
    dests = {a.dest for a in subparsers[command]._actions} - {"help", "config"}
    assert dests == set().union(*(options for _, options, _ in surfaces))
    for lead, options, run_args in surfaces:
        out_args = ("--out", str(tmp_path / "r.pgm")) if command == "render" else ()
        rc, out, _ = run(capsys, command, *lead, *run_args, *out_args)
        assert rc == 0, lead
        echoed = _echoed_config(out)
        assert set(echoed) == options | {"command"}, lead
        written = (tmp_path / "r.pgm").read_bytes() if out_args else None
        # the echo is a recipe: as a config file it runs to the same bytes
        rc2, out2, _ = run_config(tmp_path, capsys, command, echoed)
        assert rc2 == 0 and out2 == out, lead
        assert written is None or (tmp_path / "r.pgm").read_bytes() == written


@pytest.mark.parametrize(
    "command, field",
    [(command, field) for command in _COMMANDS for field in _OPTIONS
     if any(field not in options for _, options, _ in _surfaces(command))],
)
def test_config_field_the_command_does_not_take_exit_2(tmp_path, capsys, command, field):
    # refused like the flag argparse does not know, not accepted, echoed and ignored;
    # sweep is checked for each quantity that does not read the field
    surfaces = _surfaces(command)
    flags = set().union(*(options for _, options, _ in surfaces))
    for lead, options, _ in surfaces:
        if field in options:
            continue
        rc, out, err = run_config(tmp_path, capsys, command, {field: 1}, *lead)
        assert_config_error(rc, out, err)
        message = json.loads(err)["message"]
        assert " ".join((command, *lead)) in message and repr(field) in message
        if field in flags:  # sweep has another quantity's flag, and refuses it by the same line
            assert run(capsys, command, *lead, _OPTIONS[field].flag, "1") == (rc, out, err)


def test_bad_choice_same_line_from_flag_and_file(tmp_path, capsys):
    base = ("--family", "mfp", "--p", "0.9")
    from_flag = run(capsys, "dims", *base, "--method", "bogus")
    from_file = run_config(tmp_path, capsys, "dims", {"method": "bogus"}, *base)
    assert_config_error(*from_flag)
    assert from_flag == from_file


def test_boxdim_shortfall_exit_3(capsys):
    # 5 of 20 survive within the attempt budget: refused, not a silent 5-replicate fit
    rc, out, err = run(capsys, "boxdim", "--family", "mfp", "--p", "0.45", "--n", "1", "--m", "2",
                       "--depth", "40", "--reps", "20", "--max-attempts", "100")
    assert rc == 3 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "AllExtinctError"
    assert payload["message"] == "5 of 20 replicates survived to depth 40 within 2000 attempts"
