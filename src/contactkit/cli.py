"""Command-line front end: validation reports, flows, stratification sweeps,
frequency and action extraction.  Reports are CSV or JSON with every float
printed at full precision; each JSON report embeds the resolved run
configuration so it can be reproduced."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .bundle import Stratum, classify
from .dynamics import (coordinate_circle, flow, frequencies, loop_integral)
from .errors import ContactKitError
from .geometry import Point
from .models import (ValidationError, canonical, from_config, primer, primer2,
                     validate_model)  # noqa: F401 - perfbench/spans.py traces this name

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INTEGRATOR = 3
MAX_GRID_POINTS = 10**6  # largest classify --grid sweep
CSV_BLOCK = 4096  # classify rows formatted per write


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class RunConfig:
    command: str
    model: str | None
    config: str | None
    n: int
    omega: tuple[float, ...]
    f: str | None
    k: int
    reduced: bool
    chart: str | None
    x0: tuple[float, ...] | None
    t_final: float
    rtol: float
    atol: float
    strata_tol: float
    rank_tol: float
    switch_tol: float
    samples: int
    grid: int
    subdivisions: int
    seed: int
    out: str | None
    format: str

    def as_dict(self) -> dict:
        d = asdict(self)
        d["omega"] = list(self.omega)
        d["x0"] = None if self.x0 is None else list(self.x0)
        return d


def _comma_floats(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactkit",
        description="Contact-system toolkit: check models, integrate flows, "
                    "classify strata, extract frequencies and actions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("check", "validate a model and report per-check residuals"),
            ("flow", "integrate a trajectory and write it as CSV"),
            ("classify", "stratify sampled points of a chart"),
            ("freq", "integrate a trajectory and fit winding rates"),
            ("actions", "loop integrals around the periodic coordinates")]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--model", choices=["canonical", "primer", "primer2"],
                         help="built-in model name")
        cmd.add_argument("--config", help="path to a model config file")
        cmd.add_argument("--n", type=int, default=2, help="built-in model size")
        cmd.add_argument("--omega", type=_comma_floats, default=(),
                         help="comma list of frequencies for the built-ins")
        cmd.add_argument("--f", dest="f_expr", default=None,
                         help="profile expression for primer/primer2; for the "
                              "canonical model this is the Hamiltonian")
        cmd.add_argument("--k", type=int, default=0,
                         help="index of the section multiplied by the profile")
        cmd.add_argument("--reduced", action="store_true",
                         help="use the reduced single-chart view (primer2)")
        cmd.add_argument("--chart", default=None, help="chart id of the start/sweep")
        cmd.add_argument("--x0", type=_comma_floats, default=None,
                         help="comma list of start coordinates")
        cmd.add_argument("--t-final", type=float, default=100.0)
        cmd.add_argument("--rtol", type=float, default=1e-10)
        cmd.add_argument("--atol", type=float, default=1e-10)
        cmd.add_argument("--strata-tol", type=float, default=1e-8)
        cmd.add_argument("--rank-tol", type=float, default=1e-9)
        cmd.add_argument("--switch-tol", type=float, default=1e-3)
        cmd.add_argument("--samples", type=int, default=1001,
                         help="trajectory samples, or sweep size for classify")
        cmd.add_argument("--grid", type=int, default=0,
                         help="classify on a per-axis grid instead of random points")
        cmd.add_argument("--subdivisions", type=int, default=8,
                         help="quadrature panels for actions")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--format", choices=["csv", "json"], default=None)
    return parser


def _run_config(args) -> RunConfig:
    for name in ("rtol", "atol", "strata_tol", "rank_tol", "switch_tol"):
        if not getattr(args, name) > 0.0:
            raise ContactKitError(f"--{name.replace('_', '-')} must be positive")
    for name, least in (("samples", 0), ("grid", 0), ("subdivisions", 1)):
        if getattr(args, name) < least:
            raise ContactKitError(f"--{name} must be at least {least}")
    if not (np.isfinite(args.t_final) and args.t_final != 0.0):
        raise ContactKitError("--t-final must be finite and nonzero")
    default_format = {"check": "json", "flow": "csv", "classify": "csv",
                      "freq": "json", "actions": "json"}[args.command]
    return RunConfig(
        command=args.command, model=args.model, config=args.config, n=args.n,
        omega=tuple(args.omega), f=args.f_expr, k=args.k, reduced=args.reduced,
        chart=args.chart, x0=tuple(args.x0) if args.x0 is not None else None,
        t_final=args.t_final, rtol=args.rtol, atol=args.atol,
        strata_tol=args.strata_tol, rank_tol=args.rank_tol,
        switch_tol=args.switch_tol, samples=args.samples, grid=args.grid,
        subdivisions=args.subdivisions, seed=args.seed, out=args.out,
        format=args.format or default_format)


def _load_model(cfg: RunConfig):
    if cfg.config:
        return from_config(cfg.config)
    if cfg.model is None:
        raise ContactKitError("one of --model or --config is required")
    try:
        if cfg.model == "canonical":
            return canonical(cfg.n)
        omega = cfg.omega or tuple([1.0] * cfg.n)
        if cfg.model == "primer":
            profile = cfg.f or "2 + sin(phi%d)" % cfg.n
            return primer(cfg.n, omega, profile, cfg.k)
        profile = cfg.f or "sin(phi%d)" % cfg.n
        model = primer2(cfg.n, omega, profile)
    except ValueError as exc:
        raise ContactKitError(f"--model {cfg.model}: {exc}") from exc
    return model.reduced if cfg.reduced else model


def _output(path: str | None):
    return open(path, "w") if path is not None else nullcontext(sys.stdout)


def _write_json(path: str | None, payload: dict) -> None:
    with _output(path) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str | None, header: list[str], rows: Iterable[list]) -> None:
    """One line per row: strings as they are, numbers at full precision."""
    with _output(path) as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(cell if isinstance(cell, str) else _fmt(cell)
                               for cell in row) + "\n")


def _sidecar(path: str, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + suffix))


def cmd_check(cfg: RunConfig) -> int:
    failure = None
    records = []
    try:
        records = _load_model(cfg).records  # the load validated the model
    except ValidationError as exc:
        failure = {"check": exc.check, "subject": exc.subject,
                   "residual": exc.residual,
                   "where": None if exc.where is None else exc.where.tolist()}
    except ContactKitError as exc:
        failure = {"check": "load", "subject": str(exc), "residual": None,
                   "where": None}
    payload = {
        "config": cfg.as_dict(),
        "ok": failure is None and all(r.ok for r in records),
        "failure": failure,
        "checks": [{"check": r.check, "subject": r.subject,
                    "residual": None if r.residual is None else float(r.residual),
                    "ok": r.ok} for r in records],
    }
    _write_json(cfg.out, payload)
    return EXIT_OK if payload["ok"] else EXIT_VALIDATION


def _start_point(cfg: RunConfig, model):
    chart = model.atlas.chart(cfg.chart or model.atlas.chart_ids[0])
    if cfg.x0 is None:
        raise ContactKitError("--x0 is required for this command")
    if len(cfg.x0) != chart.dim:
        raise ContactKitError(f"--x0 needs {chart.dim} coordinates on chart {chart.id!r}")
    return chart.point(np.array(cfg.x0, dtype=float))


def _run_flow(cfg: RunConfig, model):
    x0 = _start_point(cfg, model)
    h = cfg.f if (cfg.f and cfg.model == "canonical") else None
    return flow(model, h, x0, cfg.t_final, rtol=cfg.rtol, atol=cfg.atol,
                n_samples=cfg.samples, switch_tol=cfg.switch_tol), x0


def cmd_flow(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    traj, x0 = _run_flow(cfg, model)
    start_chart = model.atlas.chart(x0.chart)
    header = ["t", "chart"] + list(start_chart.names)
    rows = [[t, p.chart] + list(p.coords)
            for t, p in zip(traj.times, traj.points)]
    events = {
        "config": cfg.as_dict(),
        "chart_switches": [{"time": s.time, "from": s.src, "to": s.dst}
                           for s in traj.switches],
        "controller": {"accepted": traj.stats.accepted,
                       "rejected": traj.stats.rejected,
                       "min_step": traj.stats.min_step,
                       "max_step": traj.stats.max_step,
                       "rhs_evaluations": traj.stats.rhs_evaluations},
    }
    if cfg.format == "json":
        events["header"] = header
        events["rows"] = [[r[0], r[1], *map(float, r[2:])] for r in rows]
        _write_json(cfg.out, events)
    else:
        _write_csv(cfg.out, header, rows)
        if cfg.out is not None:
            _write_json(_sidecar(cfg.out, ".events.json"), events)
    return EXIT_OK


def _sweep_points(cfg: RunConfig, model):
    chart = model.atlas.chart(cfg.chart or model.atlas.chart_ids[0])
    box = chart.effective_sample_box()
    if cfg.grid > 0:
        if cfg.grid ** chart.dim > MAX_GRID_POINTS:
            raise ContactKitError(f"--grid {cfg.grid}^{chart.dim} exceeds {MAX_GRID_POINTS} points")
        axes = []
        for (lo, hi), per in zip(box, chart.periodic):
            if per:
                axes.append(np.linspace(0.0, 2.0 * np.pi, cfg.grid, endpoint=False))
            else:
                axes.append(np.linspace(lo, hi, cfg.grid))
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        rng = np.random.default_rng(cfg.seed)
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        coords = lo + rng.random((cfg.samples, chart.dim)) * (hi - lo)
    return chart, coords


def cmd_classify(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    chart, coords = _sweep_points(cfg, model)

    # one stacked call; classify checks the domain with every other error,
    # in row order
    strata = classify(model.atlas, model.sections, model.r,
                      Point(chart.id, chart.wrap(coords)),
                      strata_tol=cfg.strata_tol, rank_tol=cfg.rank_tol)

    header = list(chart.names) + ["stratum", "dimE", "dimF"]
    labels = [s.value for s in Stratum]
    # boxed a block at a time: a sweep's rows are never all in memory
    rows = ([*row, labels[code], e, f] for start in range(0, len(coords), CSV_BLOCK)
            for row, code, e, f in zip(*(a[start:start + CSV_BLOCK].tolist() for a in (
                coords, strata.stratum, strata.dimE, strata.dimF))))
    counts = {s.value: n for s, n in strata.counts().items()}
    summary = {"config": cfg.as_dict(), "chart": chart.id, "counts": counts,
               "points": len(coords)}
    if cfg.format == "json":
        summary["header"] = header
        summary["rows"] = list(rows)
        _write_json(cfg.out, summary)
    else:
        _write_csv(cfg.out, header, rows)
        if cfg.out is not None:
            _write_json(_sidecar(cfg.out, ".summary.json"), summary)
    return EXIT_OK


def cmd_freq(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    traj, x0 = _run_flow(cfg, model)
    chart = model.atlas.chart(x0.chart)
    indices = [i for i, per in enumerate(chart.periodic) if per]
    fit = frequencies(traj, indices, model.atlas)
    payload = {
        "config": cfg.as_dict(),
        "frequencies": {chart.names[j]: float(w)
                        for j, w in zip(indices, fit.omegas)},
        "residuals": {chart.names[j]: float(rho)
                      for j, rho in zip(indices, fit.residuals)},
        "chart_switches": len(traj.switches),
    }
    _write_json(cfg.out, payload)
    return EXIT_OK


def cmd_actions(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    x0 = _start_point(cfg, model)
    chart = model.atlas.chart(x0.chart)
    actions = {}
    for i in model.angle_indices(x0.chart):
        result = loop_integral(chart, coordinate_circle(chart, i, x0.coords),
                               subdivisions=cfg.subdivisions)
        actions[chart.names[i]] = {"value": result.value,
                                   "refinement_error": result.refinement_error}
    payload = {"config": cfg.as_dict(), "actions": actions}
    _write_json(cfg.out, payload)
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "flow": cmd_flow,
    "classify": cmd_classify,
    "freq": cmd_freq,
    "actions": cmd_actions,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _run_config(args)
        return _COMMANDS[cfg.command](cfg)
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContactKitError as exc:
        from .dynamics import LeftAtlas, StepSizeUnderflow
        if isinstance(exc, (StepSizeUnderflow, LeftAtlas)):
            print(f"integrator failure: {exc}", file=sys.stderr)
            return EXIT_INTEGRATOR
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
