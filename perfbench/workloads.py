"""The four benchmark workloads, their inputs, and the checks on their outputs.

Every workload runs the real ``perclab`` CLI.  A round is what one client
runs before the next: a single invocation, except for ``dims-windowed``,
whose round is one sweep per family.  Round ``i`` of a run with workload
seed ``s`` passes ``--seed s * SEED_STRIDE + i``, so repeated rounds sample
fresh realizations and two workload seeds never share an input.

Checks that do not depend on the seed run on every output.  Their oracles
are computed here from first principles, not taken from the program:

- survival: the depth-K varying-environment Galton-Watson extinction
  probability g_1 o ... o g_K(0), g_k(s) = (1 - p_k + p_k s)^(m^n)
  (Broman et al., "Fat fractal percolation and k-fractal percolation", 2012);
- boxdim: the slope against n + log_m p;
- render: header, size, pixel values, and the level-K cell count against the
  exact Galton-Watson mean and variance;
- dims: each windowed Hausdorff value against its family's closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

SEED_STRIDE = 1_000_000
MAX_SEED = (2**64 - 1) // SEED_STRIDE - 1
Z_LIMIT = 5.0
# perclab.dimensions.ORDERING_TOL_WINDOWED: the slack windowed estimators get
WINDOWED_TOL = 5e-2


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its label within the round, arguments, output suffix."""

    label: str
    argv: tuple[str, ...]
    suffix: str


@dataclass
class Outcome:
    """What the checks made of one invocation's output."""

    digest: str
    work: float
    problems: list[str]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(doc: dict) -> str:
    # digest `result` only: the echoed config holds the --out path
    return _sha(json.dumps(doc["result"], sort_keys=True).encode())


def _z_problem(what: str, value: float, expect: float, se: float) -> list[str]:
    z = (value - expect) / se if se > 0 else math.inf
    if abs(z) < Z_LIMIT:
        return []
    return [f"{what} {value!r} vs {expect!r} (se {se:.3g}): |z| = {abs(z):.2f} >= {Z_LIMIT}"]


def gw_survival(p: float, n: int, m: int, depth: int) -> float:
    """P(X_K > 0) for constant p: one minus g composed K times at 0."""
    q = 0.0
    for _ in range(depth):
        q = (1.0 - p + p * q) ** (m**n)
    return 1.0 - q


def gw_level_moments(p: float, n: int, m: int, depth: int) -> tuple[float, float]:
    """Exact mean and variance of X_K for Binomial(m^n, p) offspring."""
    mu = m**n * p
    sigma2 = m**n * p * (1.0 - p)
    mean = mu**depth
    var = sigma2 * mu ** (depth - 1) * (mu**depth - 1.0) / (mu - 1.0)
    return mean, var


class Workload:
    name = ""
    # mean work units of one invocation; see run.py for how it is used
    expected_work = 0.0

    def ops(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def inspect(self, op: Op, out: Path, stdout: bytes) -> Outcome:
        raise NotImplementedError


class SurvivalSmall(Workload):
    name = "survival-small"
    P, N, M, DEPTH, REPS = 0.8, 1, 2, 14, 10_000
    expected_work = float(REPS)

    def ops(self, seed, index):
        argv = ("survival", "--family", "mfp", "--p", repr(self.P), "--n", str(self.N),
                "--m", str(self.M), "--depth", str(self.DEPTH), "--reps", str(self.REPS),
                "--threads", "1", "--seed", str(seed * SEED_STRIDE + index))
        return [Op("survival", argv, ".json")]

    def inspect(self, op, out, stdout):
        doc = json.loads(out.read_bytes())
        res = doc["result"]
        s = gw_survival(self.P, self.N, self.M, self.DEPTH)
        problems = _z_problem("survival estimate", res["estimate"], s,
                              math.sqrt(s * (1.0 - s) / self.REPS))
        if res["replicates"] != self.REPS:
            problems.append(f"replicates {res['replicates']} != {self.REPS}")
        return Outcome(_result_digest(doc), float(res["replicates"]), problems)


class RenderLarge(Workload):
    name = "render-large"
    P, N, M, DEPTH = 0.95, 2, 2, 12
    expected_work = gw_level_moments(P, N, M, DEPTH)[0]

    def ops(self, seed, index):
        argv = ("render", "--family", "mfp", "--p", repr(self.P), "--n", str(self.N),
                "--m", str(self.M), "--depth", str(self.DEPTH),
                "--seed", str(seed * SEED_STRIDE + index))
        return [Op("render", argv, ".pgm")]

    def inspect(self, op, out, stdout):
        doc = json.loads(stdout)
        res = doc["result"]
        side = self.M**self.DEPTH
        header = f"P5\n{side} {side}\n255\n".encode("ascii")
        problems = []
        # read in chunks: a child's ru_maxrss starts from this process's peak
        # resident size, so the benchmark process stays small
        digest = hashlib.sha256()
        size = occupied = vacant = 0
        with open(out, "rb") as fh:
            head = fh.read(len(header))
            digest.update(head)
            size += len(head)
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
                vacant += chunk.count(0)
                occupied += chunk.count(255)
        if head != header:
            problems.append(f"PGM header {head!r} != {header!r}")
        if size != len(header) + side * side:
            problems.append(f"PGM size {size} != {len(header) + side * side}")
        if occupied + vacant != size - len(head):
            problems.append("PGM pixels other than 0 and 255")
        mean, var = gw_level_moments(self.P, self.N, self.M, self.DEPTH)
        problems += _z_problem("occupied cells", occupied, mean, math.sqrt(var))
        if (res["width"], res["height"]) != (side, side):
            problems.append(f"reported size {res['width']}x{res['height']} != {side}x{side}")
        shown = {k: v for k, v in res.items() if k != "out"}
        digest.update(json.dumps(shown, sort_keys=True).encode())
        return Outcome(digest.hexdigest(), float(occupied), problems)


class BoxdimThreads(Workload):
    name = "boxdim-threads"
    P, N, M, DEPTH, REPS = 0.9, 2, 2, 10, 20
    expected_work = float(REPS)

    def ops(self, seed, index):
        argv = ("boxdim", "--family", "mfp", "--p", repr(self.P), "--n", str(self.N),
                "--m", str(self.M), "--depth", str(self.DEPTH), "--reps", str(self.REPS),
                "--threads", "2", "--seed", str(seed * SEED_STRIDE + index))
        return [Op("boxdim", argv, ".json")]

    def inspect(self, op, out, stdout):
        doc = json.loads(out.read_bytes())
        res = doc["result"]
        theory = self.N + math.log(self.P) / math.log(self.M)
        problems = _z_problem("box slope", res["slope"], theory, res["slope_std_error"])
        if res["replicates_used"] != self.REPS:
            problems.append(f"replicates_used {res['replicates_used']} != {self.REPS}")
        if res["attempts"] < self.REPS:
            problems.append(f"attempts {res['attempts']} < {self.REPS}")
        return Outcome(_result_digest(doc), float(res["replicates_used"]), problems)


class DimsWindowed(Workload):
    name = "dims-windowed"
    N, M = 2, 2
    P_LO, P_HI, COUNT = 0.5, 0.95, 16
    expected_work = float(COUNT)
    FAMILIES = (("mfp", ()), ("power_head", ("--a", "2")), ("power_telescope", ("--a", "0.5")))

    def grid(self, seed: int) -> str:
        # the seed shifts the grid by a fraction of one step; p stays below 1
        step = (self.P_HI - self.P_LO) / (self.COUNT - 1)
        shift = (seed % 16) / 16 * step
        return f"{self.P_LO + shift!r}:{self.P_HI + shift!r}:{self.COUNT}"

    def ops(self, seed, index):
        grid = self.grid(seed)
        return [
            Op(family, ("sweep", "--quantity", "dims", "--method", "windowed",
                        "--family", family, *extra, "--n", str(self.N), "--m", str(self.M),
                        "--p-grid", grid), ".csv")
            for family, extra in self.FAMILIES
        ]

    def closed_form(self, family: str, p: float) -> float:
        if family == "power_telescope":
            return float(self.N)  # alpha = 1
        return min(max(self.N + math.log(p) / math.log(self.M), 0.0), float(self.N))

    def inspect(self, op, out, stdout):
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        header, data = rows[0].split(","), [r.split(",") for r in rows[1:]]
        col = {name: i for i, name in enumerate(header)}
        problems = []
        if len(data) != self.COUNT:
            problems.append(f"{len(data)} rows != {self.COUNT}")
        for row in data:
            params = dict(kv.split("=", 1) for kv in row[col["params"]].split(";"))
            expect = self.closed_form(op.label, float(params["p"]))
            got = float(row[col["estimate"]])
            if abs(got - expect) > WINDOWED_TOL:
                problems.append(f"{op.label} p={params['p']}: windowed {got!r} vs closed form "
                                f"{expect!r} beyond {WINDOWED_TOL}")
        return Outcome(_sha("\n".join(rows).encode()), float(len(data)), problems)


WORKLOADS = {w.name: w for w in (SurvivalSmall(), RenderLarge(), BoxdimThreads(), DimsWindowed())}
