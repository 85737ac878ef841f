"""Benchmark of the contactkit command line.

Runs one workload's CLI commands in this process through
``contactkit.cli.main(argv)``, checks every output against its oracle and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON report with sample counts, percentiles, work counters and
provenance.

    python3 perfbench/run.py --workload torus-flow --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time in fresh
interpreters, then the wall time of each command, repeated for
``--seconds`` after one warm-up pass.  ``--trace 1`` reports the per-layer
metrics: one pass with spans at every layer boundary, one without for the
tracing overhead, a paired classify run at one and at all cores, and the
layer microbenchmark.  Run it from anywhere; it imports contactkit from
the ``src`` directory next to its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import micro
from spans import Tracer
from workloads import WORKLOADS, counters

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_ITERATIONS = 3
MICRO_MIN_SECONDS = 3.0

UNITS = {"setup_s": "s", "flow_s": "s", "freq_s": "s", "actions_s": "s",
         "check_s": "s", "classify_points_per_s": "1/s", "peak_rss_mb": "MB"}


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count, and the highest whole percentile
    that has at least ten samples beyond it (None below ten samples)."""
    n = len(values)
    tail = math.floor(100.0 * (1.0 - 10.0 / n)) if n >= 10 else None
    return {"n": n, "median": statistics.median(values),
            "q1": float(np.percentile(values, 25)), "q3": float(np.percentile(values, 75)),
            "tail_percentile": tail,
            "tail_value": None if tail is None else float(np.percentile(values, tail))}


class Runner:
    """Runs the workload's commands, each into a fresh output path, and
    checks every output: its oracle, and counters and CSV bytes that must
    repeat exactly across repeats of the same command."""

    def __init__(self, cli, workload, tmp: Path):
        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, tuple] = {}
        self.serial = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(f"{what}: " + "; ".join(problems))

    def run_op(self, op) -> tuple[float, int]:
        """Wall seconds of the command and the points it classified."""
        self.serial += 1
        self.attempted += 1
        out = self.tmp / f"{self.serial:06d}-{op.name}{op.suffix}"
        argv = [*op.argv, "--out", str(out)]
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit):
            elapsed = perf_counter() - t0
            self.fail(op.name, [traceback.format_exc(limit=3)])
            return elapsed, 0
        elapsed = perf_counter() - t0
        points = 0
        try:
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                problems += op.check(out)
                counted = counters(op.metric, out)
                points = sum(counted.get("counts", {}).values())
                digest = (hashlib.sha256(out.read_bytes()).hexdigest()
                          if op.suffix == ".csv" else None)
                first = self.reference.setdefault(op.name, (counted, digest))
                if (counted, digest) != first:
                    problems.append("counters or CSV bytes differ from the first repeat")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        for path in self.tmp.glob(out.stem + "*"):
            path.unlink()
        if problems:
            self.fail(op.name, problems)
        return elapsed, points

    def iteration(self) -> dict[str, float]:
        """Run every command once; per end-to-end metric its value."""
        seconds = defaultdict(float)
        classify_s = 0.0
        points = 0
        for op in self.workload.ops:
            elapsed, counted = self.run_op(op)
            if op.metric == "classify":
                classify_s += elapsed
                points += counted
            else:
                seconds[f"{op.metric}_s"] += elapsed
        return {**seconds, "classify_points_per_s": points / classify_s}

    def setup_seconds(self) -> list[float]:
        """Fresh-interpreter set-up times; the first, which also compiles
        the byte code, is discarded."""
        name, args = self.workload.setup
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), name, json.dumps(args)]
        times = []
        for _ in range(SETUP_REPEATS + 1):
            self.attempted += 1
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                self.fail("setup", [proc.stderr.strip()[-500:]])
                continue
            times.append(float(proc.stdout.strip().splitlines()[-1]))
        return times[1:]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    samples = defaultdict(list)
    samples["setup_s"] = runner.setup_seconds()
    runner.iteration()
    iteration_s = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for name, value in runner.iteration().items():
            samples[name].append(value)
        iteration_s.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if (len(iteration_s) >= MIN_ITERATIONS
                and elapsed + statistics.median(iteration_s) > seconds):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {name: summarize(values) for name, values in samples.items() if values}
    metrics = {name: stats[name]["median"] for name in UNITS if name in stats}
    metrics["peak_rss_mb"] = peak_mb
    return ({name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
            {"samples": stats, "iteration_s": summarize(iteration_s)})


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    start = perf_counter()
    runner.iteration()
    t0 = perf_counter()
    runner.iteration()
    untraced = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        runner.iteration()
        traced = perf_counter() - t0
    finally:
        tracer.remove()
    calls = tracer.calls()
    self_s = tracer.self_seconds()

    # one worker against one per core, alternating which runs first
    cores = os.cpu_count() or 1
    pool = {1: 0.0, cores: 0.0}
    for i, op in enumerate(op for op in runner.workload.ops if op.metric == "classify"):
        for threads in ((1, cores) if i % 2 == 0 else (cores, 1)):
            os.environ["CONTACTKIT_THREADS"] = str(threads)
            pool[threads] += runner.run_op(op)[0]
    os.environ["CONTACTKIT_THREADS"] = "1"

    micro_samples = micro.run(max(MICRO_MIN_SECONDS, seconds - (perf_counter() - start)))
    us = {name: statistics.median(values) for name, values in micro_samples.items()}
    flow = runner.reference["flow"][0]
    ctl = flow["controller"]
    values = {
        "dynamics.rhs_evals": (ctl["rhs_evaluations"], "count"),
        "dynamics.steps_accepted": (ctl["accepted"], "count"),
        "dynamics.steps_rejected": (ctl["rejected"], "count"),
        "dynamics.accept_ratio": (ctl["accepted"] / (ctl["accepted"] + ctl["rejected"]),
                                  "ratio"),
        "dynamics.chart_switches": (len(flow["chart_switches"]), "count"),
        "dynamics.step_us": (us["dynamics.step_us"], "us"),
        "dynamics.self_s": (self_s["dynamics"], "s"),
        "bundle.map_coords_calls": (calls["bundle.map_coords"], "count"),
        "bundle.classify_calls": (calls["bundle.classify"], "count"),
        "bundle.momentum_rank_calls": (calls["bundle.momentum_rank"], "count"),
        "bundle.classify_point_us": (us["bundle.classify_point_us"], "us"),
        "bundle.self_s": (self_s["bundle"], "s"),
        "numkernel.solve_calls": (calls["numkernel.solve"], "count"),
        "numkernel.rank_calls": (calls["numkernel.numerical_rank"], "count"),
        "numkernel.solve_us": (us["numkernel.solve_us"], "us"),
        "numkernel.max_solve_residual": (tracer.max_solve_residual, "abs"),
        "numkernel.self_s": (self_s["numkernel"], "s"),
        "geometry.frame_calls": (calls["geometry.ContactFrame"], "count"),
        "geometry.frame_us": (us["geometry.frame_us"], "us"),
        "geometry.dalpha_us": (us["geometry.dalpha_us"], "us"),
        "geometry.contact_check_calls": (calls["geometry.contact_check"], "count"),
        "geometry.contact_check_us": (us["geometry.contact_check_us"], "us"),
        "geometry.self_s": (self_s["geometry"], "s"),
        "jacobi.field_calls": (calls["jacobi.field"], "count"),
        "jacobi.field_us": (us["jacobi.field_us"], "us"),
        "jacobi.bracket_calls": (calls["jacobi.bracket"], "count"),
        "jacobi.self_s": (self_s["jacobi"], "s"),
        "expr.eval_calls": (calls["expr.eval"], "count"),
        "expr.eval_dual_calls": (calls["expr.eval_dual"], "count"),
        "expr.eval_us": (us["expr.eval_us"], "us"),
        "expr.gradient_us": (us["expr.gradient_us"], "us"),
        "expr.self_s": (self_s["expr"], "s"),
        "models.validate_s": (us["models.validate_s"], "s"),
        "models.self_s": (self_s["models"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.pool_speedup": (pool[1] / pool[cores], "ratio"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
    }
    detail = {"spans": len(tracer.start), "calls": dict(sorted(calls.items())),
              "self_s": self_s, "untraced_s": untraced, "traced_s": traced,
              "pool_s": {str(k): v for k, v in pool.items()},
              "micro": {name: summarize(v) for name, v in micro_samples.items()}}
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, detail


def provenance(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "seed": seed,
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted(SRC.rglob("*.py")))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "contactkit" / "__init__.py").is_file():
        print(f"contactkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["CONTACTKIT_THREADS"] = "1"
    from contactkit import cli

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(cli, workload, tmp)
        if args.trace:
            metrics, detail = per_layer(runner, args.seconds)
        else:
            metrics, detail = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    report = {"workload": args.workload, "trace": args.trace, **provenance(args.seed),
              "counters": {name: ref[0] for name, ref in runner.reference.items()},
              "problems": runner.problems, **detail}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
