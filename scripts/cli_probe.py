"""Print one repr line per call of the command line, run in-process.

The matrix is fixed: every subcommand, every flag of each, valid config
files and invalid ones, and the flag and config errors the CLI must turn
into exit codes.  Each line holds the argv, the exit code, the sha256 of
stdout, the sha256 of the ``--out`` file (or None) and the error type named
on stderr (``argparse`` for a usage message, None when there is none).  Two
versions of the package that print the same line for a call gave that call
the same bytes and the same exit code.

Config files and outputs go to fixed names in the current directory, so the
echoed configs, and with them the hashes, compare across runs:

    mkdir probe && cd probe && PYTHONPATH=../src python ../scripts/cli_probe.py > cli.txt
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from perclab import cli

SEQ = ("--family", "mfp", "--p", "0.8", "--n", "1", "--m", "2")
PLANE = ("--family", "mfp", "--p", "0.9", "--n", "2", "--m", "2")
TELESCOPE = ("--family", "power_telescope", "--p", "0.6", "--a", "0.5", "--n", "1", "--m", "2")
POWER = ("--family", "power", "--p", "0.8", "--prefix", "2,1", "--tail", "0.5", "--n", "1", "--m", "2")
SIM = ("--depth", "5", "--seed", "3")

FLAG_CALLS = [
    ("--version",),
    ("dims", *PLANE),
    ("dims", *PLANE, "--window", "16:64", "--method", "windowed"),
    ("dims", "--family", "power_telescope", "--p", "0.5", "--a", "0.5", "--n", "1", "--m", "2"),
    ("dims", "--family", "power", "--p", "0.5", "--prefix", "2,1", "--tail", "0.25", "--n", "1", "--m", "2"),
    ("dims", "--family", "explicit", "--prefix", "0.3,0.5", "--tail", "0.7", "--n", "1", "--m", "2"),
    ("dims", *PLANE, "--format", "csv"),
    ("dims", *PLANE, "--out", "probe.csv"),
    ("dims", *PLANE, "--method", "analytic", "--out", "probe.json", "--format", "json"),
    ("classify", *SEQ),
    ("classify", "--family", "mfp", "--p", "0.5", "--n", "1", "--m", "2", "--window", "64:512",
     "--method", "auto", "--out", "probe.json"),
    ("classify", "--family", "power", "--p", "0.5", "--a", "0.5", "--n", "1", "--m", "2", "--format", "json"),
    ("classify", "--family", "explicit", "--prefix", "0.3,0.5", "--tail", "0.7", "--n", "1", "--m", "2"),
    ("generate", *PLANE, "--depth", "4", "--seed", "7", "--stream", "1", "--budget", "100000"),
    ("generate", "--family", "explicit", "--tail", "1.0", "--n", "1", "--m", "2", "--depth", "3",
     "--out", "probe.json", "--format", "json"),
    ("generate", *TELESCOPE, "--depth", "4", "--seed", "1"),
    ("generate", *POWER, "--depth", "4"),
    ("render", *PLANE, "--depth", "3", "--seed", "7", "--stream", "2", "--level", "2", "--out", "probe.pgm"),
    ("render", "--family", "power_head", "--p", "0.9", "--a", "2", "--n", "2", "--m", "2", "--depth", "3",
     "--budget", "1000", "--format", "pgm", "--out", "probe.pgm"),
    ("render", "--family", "explicit", "--prefix", "1,0.5", "--tail", "0.9", "--n", "2", "--m", "3",
     "--depth", "2", "--out", "probe.pgm"),
    ("measure", *TELESCOPE, *SIM, "--reps", "50", "--threads", "1", "--out", "probe.csv"),
    ("measure", *POWER, *SIM, "--reps", "50", "--format", "csv", "--budget", "1000"),
    ("survival", *TELESCOPE, *SIM, "--reps", "50", "--threads", "2", "--out", "probe.json"),
    ("survival", *POWER, *SIM, "--reps", "50", "--out", "probe.csv", "--format", "csv", "--budget", "1000"),
    ("boxdim", "--family", "explicit", "--tail", "1.0", "--n", "2", "--m", "2", "--depth", "5",
     "--reps", "2", "--fit", "1:5", "--max-attempts", "10", "--threads", "1", "--seed", "0"),
    ("boxdim", *PLANE, "--depth", "5", "--reps", "2", "--max-attempts", "50", "--format", "csv"),
    ("boxdim", "--family", "power_head", "--p", "0.9", "--a", "2", "--n", "2", "--m", "2", "--depth", "4",
     "--reps", "2", "--out", "probe.json"),
    ("boxdim", "--family", "explicit", "--prefix", "1,1", "--tail", "0.95", "--n", "2", "--m", "2",
     "--depth", "4", "--reps", "2", "--budget", "100000"),
    ("witness", "--r", "1", "--l", "1.5", "--n", "1", "--m", "2"),
    ("witness", "--r", "0.5", "--n", "1", "--m", "2", "--ledger"),
    ("witness", "--case", "integer", "--r", "1", "--n", "1", "--m", "2", "--terms", "4", "--out", "probe.json"),
    ("witness", "--case", "fractional", "--r", "0.5", "--n", "1", "--m", "3", "--format", "json"),
    ("witness", "--case", "positive", "--r", "1", "--l", "2.5", "--n", "1", "--m", "2"),
    ("sweep", "--quantity", "measure", *TELESCOPE, "--p-grid", "0.4:0.8:3", "--depth", "4", "--reps", "30",
     "--seed", "9"),
    ("sweep", "--quantity", "dims", "--family", "power_telescope", "--p", "0.6", "--n", "2", "--m", "2",
     "--a-grid", "0.2:0.8:3", "--window", "16:64", "--method", "windowed"),
    ("sweep", "--quantity", "boxdim", *PLANE, "--p-grid", "0.9:0.95:2", "--depth", "4", "--reps", "2",
     "--fit", "1:4", "--max-attempts", "20", "--budget", "100000"),
    ("sweep", "--quantity", "survival", *POWER, "--p-grid", "0.3:0.9:3", "--depth", "4", "--reps", "30",
     "--threads", "2", "--out", "probe.csv", "--format", "csv"),
    # errors: domain (3), budget (4), config (2) and argparse's own
    ("dims", "--family", "mfp", "--p", "1.5", "--n", "1", "--m", "2"),
    ("dims", "--n", "1", "--m", "2"),
    ("dims", *PLANE, "--method", "bogus"),
    ("dims", *PLANE, "--window", "3"),
    ("dims", "--family", "mfp", "--p", "abc"),
    ("dims", *PLANE, "--out", "probe.json", "--format", "pgm"),
    ("generate", "--family", "explicit", "--tail", "1.0", "--n", "2", "--m", "2", "--depth", "5",
     "--budget", "10"),
    ("render", *PLANE),
    ("survival", *SEQ, *SIM, "--reps", "10", "--threads", "0"),
    ("sweep", "--quantity", "survival", *SEQ),
    ("witness", "--n", "1", "--m", "2"),
    ("witness", "--case", "integer", "--r", "1", "--n", "1", "--m", "2", "--terms", "54"),
    ("bogus",),
]

# (command, config file contents, extra flags)
CONFIG_CALLS = [
    ("dims", {"command": "dims", "family": "mfp", "p": 0.9, "n": 2, "m": 2}, ()),
    ("dims", {"family": "mfp", "p": 0.5, "n": 1, "m": 2}, ("--p", "0.9")),
    ("dims", {"family": "explicit", "prefix": [0.3, 0.5], "tail": 0.7, "window": [16, 64],
              "method": "windowed", "format": "csv"}, ()),
    ("classify", {"family": "mfp", "p": 0.25, "n": 2, "method": "analytic"}, ()),
    ("generate", {"family": "mfp", "p": 0.5, "seed": 18446744073709551615, "depth": 4, "stream": 3}, ()),
    ("render", {"family": "mfp", "p": 0.9, "n": 2, "depth": 3, "level": 1}, ("--out", "probe.pgm")),
    ("measure", {"family": "power_telescope", "p": 0.5, "a": 0.5, "depth": 4, "replicates": 40,
                 "format": "csv"}, ("--seed", "2")),
    ("survival", {"family": "mfp", "p": 0.8, "depth": 4, "replicates": 40, "threads": 2, "seed": 5}, ()),
    ("boxdim", {"family": "mfp", "p": 0.9, "n": 2, "depth": 4, "replicates": 2, "fit": [1, 4],
                "max_attempts": 30}, ()),
    ("witness", {"r": 0.5, "ledger": True}, ()),
    ("sweep", {"quantity": "dims", "family": "mfp", "n": 2, "p_grid": "0.3:0.9:3"}, ()),
    ("sweep", {"quantity": "measure", "family": "mfp", "a_grid": None, "p_grid": [0.4, 0.8, 2],
               "depth": 3, "replicates": 20}, ()),
    # values whose type the CLI fixes at the boundary
    ("generate", {"family": "mfp", "p": "0.5", "m": "3", "depth": 8.0}, ()),
    ("generate", {"family": "mfp", "p": 0.5, "seed": "18446744073709551615"}, ()),
    ("witness", {"depth": 0}, ("--r", "1.5", "--n", "2")),
    # invalid config files
    ("generate", {"family": "mfp", "p": 0.5, "depth": 4.9}, ()),
    ("generate", {"family": "mfp", "p": 0.5, "seed": 1.5}, ()),
    ("witness", {"r": 0.5, "ledger": "false"}, ()),
    ("dims", {"family": "mfp", "p": 0.5, "n": True}, ()),
    ("dims", {"family": "mfp", "p": "abc"}, ()),
    ("dims", {"family": "mfp", "p": 0.5, "method": "bogus"}, ()),
    ("dims", {"family": "mfp", "p": [0.5]}, ()),
    ("dims", {"family": "mfp", "p": 0.5, "out": ["x.json"]}, ()),
    ("dims", {"family": "mfp", "p": 0.5, "bogus": 1}, ()),
    ("dims", {"command": "classify", "family": "mfp", "p": 0.5}, ()),
    ("survival", {"family": "mfp", "p": 0.8, "threads": 0}, ()),
    ("survival", {"family": "mfp", "p": 0.8, "depth": {}}, ()),
    ("dims", [1, 2], ()),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def error_type(code: int, stderr: str):
    for line in stderr.splitlines():
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if isinstance(payload, dict) and "error" in payload:
            return payload["error"]
    return "argparse" if code == 2 and "usage:" in stderr else None


def call(argv: tuple[str, ...]) -> tuple:
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_path and os.path.exists(out_path):
        os.unlink(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    out_sha = sha256(Path(out_path).read_bytes()) if out_path and os.path.exists(out_path) else None
    return argv, code, sha256(stdout.getvalue().encode("utf-8")), out_sha, error_type(code, stderr.getvalue())


def main():
    for argv in FLAG_CALLS:
        print(repr(call(argv)))
    with open("probe_bad.json", "w", encoding="utf-8") as fh:
        fh.write("{not json")
    print(repr(call(("dims", "--config", "probe_bad.json"))))
    for index, (command, fields, flags) in enumerate(CONFIG_CALLS):
        path = f"probe_cfg_{index}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fields, fh)
        print(repr((fields, call((command, "--config", path, *flags)))))


if __name__ == "__main__":
    main()
