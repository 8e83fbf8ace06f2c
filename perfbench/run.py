"""perclab benchmark: end-to-end CLI timing plus an outside-in traced run.

Run from the repository root (the package is not installed; children get
``PYTHONPATH=src``):

    python3 perfbench/run.py --workload survival-small --seed 0 --seconds 30 --trace 0

``--trace 0`` times fresh ``python -m perclab`` children in a closed loop,
one client, one invocation at a time, and reports the ``end_to_end`` metrics
of BENCHMARK.json.  ``--trace 1`` runs the same invocation untraced as a
child, untraced in this process, and traced in this process, checks that all
three give byte-identical results, and reports the ``per_layer`` metrics.
With no arguments every workload runs both ways at seed 0.

Every output is checked (see workloads.py).  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Full
records, with provenance, go to ``.perfbench/``; so do the trace spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from tracer import Tracer, self_times  # noqa: E402
from workloads import MAX_SEED, WORKLOADS, Op, Outcome  # noqa: E402

DEFAULT_SEED = 0
SETUP_MIN = 5
OP_TIMEOUT_S = 60.0  # a hung child is killed well inside a run's time limit
THREADS_ENV = "PERC_LAB_THREADS"  # perclab's thread cap; unset so --threads holds


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# children


@dataclass
class Sample:
    label: str
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: Path, label: str) -> Sample:
    """Run one child to exit; wall from spawn to exit, rusage from wait4."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Sample(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


SETUP_ARGV = [sys.executable, "-c", "import perclab"]


def setup_sample(work: Path) -> float:
    """Wall time of a fresh ``import perclab``, spawn to exit."""
    return spawn(SETUP_ARGV, work / "setup.out", "setup").wall_s


# ---------------------------------------------------------------------------
# checks


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def judge(workload, op: Op, seed: int, index: int, code: int, out_path: Path,
          stdout: bytes, stderr: bytes) -> Outcome:
    """Check one invocation's output; any problem fails the invocation."""
    if code != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return Outcome("", 0.0, [f"{op.label}: exit code {code} {tail}"])
    try:
        outcome = workload.inspect(op, out_path, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome("", 0.0, [f"{op.label}: unreadable output: {exc!r}"])
    if seed == DEFAULT_SEED and index == 0:
        want = load_golden().get(workload.name, {}).get(op.label)
        if outcome.digest != want:
            outcome.problems.append(
                f"{op.label}: result digest {outcome.digest} != recorded {want}")
    return outcome


# ---------------------------------------------------------------------------
# untraced end-to-end run


@dataclass
class Run:
    """One run's metrics; ``failed`` counts invocations, ``problems`` all failures."""

    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    def count(self, outcome: Outcome):
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems += outcome.problems


def cli_argv(op: Op, out: Path) -> list[str]:
    return [*op.argv, "--out", str(out)]


def run_child(workload, op: Op, seed: int, index: int, work: Path) -> tuple[Sample, Outcome]:
    """One ``python -m perclab`` invocation, timed and checked."""
    out = work / f"out{op.suffix}"
    stdout = work / "child.out"
    sample = spawn([sys.executable, "-m", "perclab", *cli_argv(op, out)], stdout, op.label)
    outcome = judge(workload, op, seed, index, sample.code, out, stdout.read_bytes(),
                    stdout.with_suffix(".err").read_bytes())
    return sample, outcome


def run_end_to_end(workload, seed: int, seconds: float, work: Path) -> Run:
    run = Run()
    setup_sample(work)  # warm-up: byte-compiles the package on a fresh checkout
    setup, rates, scaled, round_walls = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        t_round = time.perf_counter()
        for op in workload.ops(seed, index):
            sample, outcome = run_child(workload, op, seed, index, work)
            run.count(outcome)
            run.samples.append(sample)
            rates.append(outcome.work / sample.wall_s)
            scale = workload.expected_work / outcome.work if outcome.work else 1.0
            scaled.append((sample.wall_s * scale, sample.cpu_s * scale, sample.rss_mib * scale))
        # set-up samples are spread over the run, so that they see the same
        # machine as the invocations do
        setup.append(setup_sample(work))
        round_walls.append(time.perf_counter() - t_round)
        index += 1
        if time.perf_counter() + median(round_walls) > deadline:
            break
    while len(setup) < SETUP_MIN:
        setup.append(setup_sample(work))
    # Size-dependent figures are scaled to the workload's mean work per
    # invocation.  Only render-large's work varies (one realization's cell
    # count spreads ~12% between seeds); for the others the scale is 1.
    s = run.samples
    run.metrics = {
        "setup_s": median(setup),
        "wall_s": median([x[0] for x in scaled]),
        "work_per_s": median(rates),
        "cpu_s": median([x[1] for x in scaled]),
        "peak_rss_mb": median([x[2] for x in scaled]),
    }
    run.extra = {"ops": len(s), "fail_rate": run.failed / run.attempted,
                 "raw_wall_s": median([x.wall_s for x in s]),
                 "raw_cpu_s": median([x.cpu_s for x in s]),
                 "raw_peak_rss_mb": median([x.rss_mib for x in s]),
                 "setup_samples_s": setup}
    return run


# ---------------------------------------------------------------------------
# traced run


def _observe_generate(a: dict, r) -> dict:
    params = a["params"]
    counts = r.counts
    mn = params.m**params.n
    candidates = [x * mn for x in counts[:-1]]
    return {"uniforms": sum(candidates), "kept": sum(counts[1:]), "cells": counts[-1],
            "peak_candidates": max(candidates), "cell_budget": params.cell_budget,
            "n": params.n}


def _observe_boxdim(a: dict, r) -> dict:
    return {"attempts": r.attempts, "used": r.replicates_used, "threads": a["threads"]}


OBSERVERS = {"engine.generate": _observe_generate, "estimators.estimate_boxdim": _observe_boxdim}
# per-layer stats read off the clock take a median over rounds; every other
# stat is a count that must repeat exactly on one input
TIMING_DERIVED = (".self_s", ".parallel_eff")


def layer_stats(spans) -> dict:
    """Per-layer numbers for one traced round, keyed ``<module>.<function>.<stat>``."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    out: dict = {}
    for s in spans:
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own[s.sid]
    gens = [s.counts for s in spans if s.name == "engine.generate"]
    uniforms = sum(c["uniforms"] for c in gens)
    out["engine.generate.uniforms"] = uniforms
    out["engine.generate.cells"] = sum(c["cells"] for c in gens)
    out["engine.generate.keep_ratio"] = sum(c["kept"] for c in gens) / uniforms if gens else 0.0
    out["engine.generate.peak_candidates"] = max((c["peak_candidates"] for c in gens), default=0)
    out["engine.generate.peak_bytes_computed"] = max(
        (c["peak_candidates"] * (16 * c["n"] + 9) for c in gens), default=0)
    out["engine.generate.budget_headroom"] = min(
        (1.0 - c["peak_candidates"] / c["cell_budget"] for c in gens), default=1.0)
    boxes = [s for s in spans if s.name == "estimators.estimate_boxdim"]
    attempts = sum(s.counts["attempts"] for s in boxes)
    out["estimators.estimate_boxdim.attempts"] = attempts
    out["estimators.estimate_boxdim.accept_ratio"] = (
        sum(s.counts["used"] for s in boxes) / attempts if attempts else 0.0)
    busy = sum(s.duration for s in spans
               if s.name == "engine.generate" and s.parent in by_id
               and by_id[s.parent].name == "estimators.estimate_boxdim")
    capacity = sum(s.duration * s.counts["threads"] for s in boxes)
    out["estimators.estimate_boxdim.parallel_eff"] = busy / capacity if capacity else 0.0
    return out


def run_inprocess(cli, op: Op, out: Path) -> tuple[float, int, bytes, bytes]:
    """cli.main on one op in this process; stdout and stderr are captured."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        t0 = time.perf_counter()
        code = cli.main(cli_argv(op, out))
        wall = time.perf_counter() - t0
    return wall, code, sink_out.getvalue().encode(), sink_err.getvalue().encode()


def run_traced(workload, seed: int, seconds: float, work: Path, spans_path: Path) -> Run:
    """Rounds of (child, in-process, traced in-process) on the round-0 input."""
    sys.path.insert(0, str(SRC))
    os.environ.pop(THREADS_ENV, None)
    import perclab.cli as cli

    run = Run()
    plain_walls, traced_walls, rounds = [], [], []
    traced_names: list[str] = []
    spans_path.unlink(missing_ok=True)
    for op in workload.ops(seed, 0):  # warm-up: first in-process use pays lazy set-up
        run_inprocess(cli, op, work / f"out{op.suffix}")
    deadline = time.perf_counter() + seconds
    while True:
        t_round = time.perf_counter()
        plain = traced = 0.0
        tracer = Tracer(OBSERVERS)
        for op in workload.ops(seed, 0):
            out = work / f"out{op.suffix}"
            _, ref = run_child(workload, op, seed, 0, work)
            run.count(ref)
            wall, code, sout, serr = run_inprocess(cli, op, out)
            plain += wall
            run.count(judge(workload, op, seed, 0, code, out, sout, serr))
            traced_names = tracer.install()
            try:
                wall, code, sout, serr = run_inprocess(cli, op, out)
            finally:
                restored = tracer.restore()
            traced += wall
            outcome = judge(workload, op, seed, 0, code, out, sout, serr)
            if outcome.digest != ref.digest:
                outcome.problems.append(f"{op.label}: traced result differs from the child's")
            if not restored:
                outcome.problems.append("tracer left a patched name behind")
            run.count(outcome)
        tracer.write_spans(str(spans_path), round=len(rounds))
        rounds.append(layer_stats(tracer.spans))
        plain_walls.append(plain)
        traced_walls.append(traced)
        if time.perf_counter() + (time.perf_counter() - t_round) > deadline:
            break
    keys = sorted(set().union(*rounds))
    for key in keys:
        values = [r.get(key, 0) for r in rounds]
        if key.endswith(TIMING_DERIVED):
            run.metrics[key] = median(values)
        else:
            run.metrics[key] = values[0]
            if any(v != values[0] for v in values):
                run.problems.append(f"{key} differs between rounds on one input: {values}")
    run.metrics["trace_overhead_s"] = median(traced_walls) - median(plain_walls)
    run.extra = {"rounds": len(rounds), "traced_names": traced_names}
    return run


# ---------------------------------------------------------------------------
# provenance and output


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def cpu_caches() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        level = _read(f"{base}/index{i}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/index{i}/size")
    return caches


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def provenance(seed: int, trace_overhead_s) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cpu_caches(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha(),
        "workload_seed": seed,
        "trace_overhead_s": trace_overhead_s,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def run_one(workload, seed: int, seconds: float, trace: int, spec: dict, work: Path) -> Run:
    tag = f"{workload.name}-seed{seed}"
    if trace:
        run = run_traced(workload, seed, seconds, work, OUT_DIR / f"{tag}-spans.jsonl")
        names = set(run.extra["traced_names"])
        for m in spec["per_layer"]:
            base = m["name"].rpartition(".")[0]
            if m["name"] not in run.metrics and base not in names:
                run.problems.append(f"declared metric {m['name']} names no traced layer")
        overhead = run.metrics["trace_overhead_s"]
    else:
        run = run_end_to_end(workload, seed, seconds, work)
        overhead = None
    units = {m["name"]: m["unit"] for m in declared(spec, trace)}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    record = {
        "workload": workload.name, "why": why, "trace": trace, "seconds": seconds,
        "provenance": provenance(seed, overhead),
        "correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "metrics": run.metrics, "extra": run.extra,
        "samples": [vars(s) for s in run.samples],
    }
    with open(OUT_DIR / f"{tag}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"# {workload.name} seed={seed} trace={trace}: {why}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name in sorted(run.metrics):
        if trace and name.endswith(".calls") and not run.metrics[name]:
            continue
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        print(f"{workload.name} {name} {run.metrics[name]:.6g} {unit}")
    for name, value in run.extra.items():
        if isinstance(value, (int, float)):
            print(f"{workload.name} {name} {value:.6g}")
    for problem in run.problems:
        print(f"{workload.name} FAIL {problem}")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if not (SRC / "perclab" / "__init__.py").is_file():
        print(f"perfbench: no perclab package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must be in [0, {MAX_SEED}]")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="work-"))
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        # untraced passes first: a child's ru_maxrss starts from this process's
        # resident size at spawn, which an in-process traced run inflates
        for trace in traces:
            for name in names:
                run = run_one(WORKLOADS[name], args.seed, args.seconds, trace, spec, work)
                correct &= not run.problems
                attempted += run.attempted
                failed += run.failed
                prefix = "" if len(names) * len(traces) == 1 else f"{name}/"
                for m in declared(spec, trace):
                    metrics[prefix + m["name"]] = {"value": run.metrics.get(m["name"], 0),
                                                   "unit": m["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
