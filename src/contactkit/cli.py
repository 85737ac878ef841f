"""Command-line front end: validation reports, flows, stratification sweeps,
frequency and action extraction.  Reports are CSV or JSON with every float
printed at full precision.

The parsed arguments are the run configuration: :func:`_run_config` checks
them, every command reads them, and every JSON report or sidecar embeds
them as its ``config`` block (22 keys: ``command`` and one per option, with
``format`` resolved to the command's default) so the run can be
reproduced."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

import numpy as np

from .bundle import Stratum, classify
from .dynamics import IntegratorError, coordinate_circle, flow, frequencies, loop_integral
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


def _comma_floats(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    # the options every command shares, declared once and inherited by each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=["canonical", "primer", "primer2"],
                        help="built-in model name")
    common.add_argument("--config", help="path to a model config file")
    common.add_argument("--n", type=int, default=2, help="built-in model size")
    common.add_argument("--omega", type=_comma_floats, default=(),
                        help="comma list of frequencies for the built-ins")
    common.add_argument("--f", default=None, metavar="F_EXPR",
                        help="profile expression for primer/primer2; for the "
                             "canonical model this is the Hamiltonian")
    common.add_argument("--k", type=int, default=0,
                        help="index of the section multiplied by the profile")
    common.add_argument("--reduced", action="store_true",
                        help="use the reduced single-chart view (primer2)")
    common.add_argument("--chart", default=None, help="chart id of the start/sweep")
    common.add_argument("--x0", type=_comma_floats, default=None,
                        help="comma list of start coordinates")
    common.add_argument("--t-final", type=float, default=100.0)
    common.add_argument("--rtol", type=float, default=1e-10)
    common.add_argument("--atol", type=float, default=1e-10)
    common.add_argument("--strata-tol", type=float, default=1e-8)
    common.add_argument("--rank-tol", type=float, default=1e-9)
    common.add_argument("--switch-tol", type=float, default=1e-3)
    common.add_argument("--samples", type=int, default=1001,
                        help="trajectory samples, or sweep size for classify")
    common.add_argument("--grid", type=int, default=0,
                        help="classify on a per-axis grid instead of random points")
    common.add_argument("--subdivisions", type=int, default=8,
                        help="quadrature panels for actions")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    parser = argparse.ArgumentParser(
        prog="contactkit",
        description="Contact-system toolkit: check models, integrate flows, "
                    "classify strata, extract frequencies and actions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, formats, helptext in [
            ("check", ["json"], "validate a model and report per-check residuals"),
            ("flow", ["csv", "json"], "integrate a trajectory and write it as CSV"),
            ("classify", ["csv", "json"], "stratify sampled points of a chart"),
            ("freq", ["json"], "integrate a trajectory and fit winding rates"),
            ("actions", ["json"], "loop integrals around the periodic coordinates")]:
        cmd = sub.add_parser(name, help=helptext, parents=[common])
        cmd.add_argument("--format", choices=formats, default=formats[0])
    return parser


def _run_config(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed arguments, checked."""
    for name in ("rtol", "atol", "strata_tol", "rank_tol", "switch_tol"):
        if not getattr(args, name) > 0.0:
            raise ContactKitError(f"--{name.replace('_', '-')} must be positive")
    for name, least in (("samples", 0), ("grid", 0), ("subdivisions", 1)):
        if getattr(args, name) < least:
            raise ContactKitError(f"--{name} must be at least {least}")
    if not (np.isfinite(args.t_final) and args.t_final != 0.0):
        raise ContactKitError("--t-final must be finite and nonzero")
    if args.reduced and (args.config or args.model != "primer2"):
        raise ContactKitError("--reduced applies only to --model primer2 without --config")
    return args


def _load_model(cfg: argparse.Namespace):
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
    """The report with its ``config`` block: tuples such as ``omega`` and
    ``x0`` become JSON lists."""
    with _output(path) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_table(cfg: argparse.Namespace, header: list[str], rows: Iterable[tuple],
                 report: dict, suffix: str) -> None:
    """The rows as CSV, strings as they are and numbers at full precision,
    with ``report`` in the sidecar ``<out stem><suffix>`` (none on stdout);
    or with ``--format json`` one report holding the rows.  Each row is a
    tuple with the first row's column types: one ``%`` format built from
    the first row (``%s`` for a string, ``%.17g`` for a number, which is
    ``f"{float(cell):.17g}"``) writes every row."""
    if cfg.format == "json":
        _write_json(cfg.out, {**report, "header": header, "rows": list(rows)})
        return
    with _output(cfg.out) as out:
        out.write(",".join(header) + "\n")
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            line = ",".join("%s" if isinstance(cell, str) else "%.17g"
                            for cell in first) + "\n"
            out.write(line % first)
            out.writelines(map(line.__mod__, rows))
    if cfg.out is not None:
        out = Path(cfg.out)
        _write_json(str(out.with_name(out.stem + suffix)), report)


def cmd_check(cfg: argparse.Namespace) -> int:
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
        "config": vars(cfg),
        "ok": failure is None and all(r.ok for r in records),
        "failure": failure,
        "checks": [{"check": r.check, "subject": r.subject,
                    "residual": None if r.residual is None else float(r.residual),
                    "ok": r.ok} for r in records],
    }
    _write_json(cfg.out, payload)
    return EXIT_OK if payload["ok"] else EXIT_VALIDATION


def _start_point(cfg: argparse.Namespace, model):
    chart = model.atlas.chart(cfg.chart or model.atlas.chart_ids[0])
    if cfg.x0 is None:
        raise ContactKitError("--x0 is required for this command")
    if len(cfg.x0) != chart.dim:
        raise ContactKitError(f"--x0 needs {chart.dim} coordinates on chart {chart.id!r}")
    return chart.point(np.array(cfg.x0, dtype=float))


def _run_flow(cfg: argparse.Namespace, model):
    x0 = _start_point(cfg, model)
    h = cfg.f if (cfg.f and cfg.model == "canonical") else None
    return flow(model, h, x0, cfg.t_final, rtol=cfg.rtol, atol=cfg.atol,
                n_samples=cfg.samples, switch_tol=cfg.switch_tol), x0


def cmd_flow(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg)
    traj, x0 = _run_flow(cfg, model)
    header = ["t", "chart", *model.atlas.chart(x0.chart).names]
    rows = [(t, p.chart, *p.coords) for t, p in zip(traj.times, traj.points)]
    events = {
        "config": vars(cfg),
        "chart_switches": [{"time": s.time, "from": s.src, "to": s.dst}
                           for s in traj.switches],
        "controller": asdict(traj.stats),
    }
    _write_table(cfg, header, rows, events, ".events.json")
    return EXIT_OK


def _sweep_points(cfg: argparse.Namespace, model):
    chart = model.atlas.chart(cfg.chart or model.atlas.chart_ids[0])
    box = chart.effective_sample_box()
    if cfg.grid > 0:
        if cfg.grid ** chart.dim > MAX_GRID_POINTS:
            raise ContactKitError(f"--grid {cfg.grid}^{chart.dim} exceeds {MAX_GRID_POINTS} points")
        axes = []
        for (lo, hi), per, (low, high) in zip(box, chart.periodic, chart.bounds):
            if per:
                axes.append(np.linspace(0.0, 2.0 * np.pi, cfg.grid, endpoint=False))
                continue
            axis = np.linspace(lo, hi, cfg.grid)
            # domains are open: an end point on a bound moves one ulp inside
            if axis[0] == low:
                axis[0] = np.nextafter(low, hi)
            if axis[-1] == high:
                axis[-1] = np.nextafter(high, lo)
            axes.append(axis)
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        rng = np.random.default_rng(cfg.seed)
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        coords = lo + rng.random((cfg.samples, chart.dim)) * (hi - lo)
    return chart, coords


def cmd_classify(cfg: argparse.Namespace) -> int:
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
    rows = ((*row, labels[code], e, f) for start in range(0, len(coords), CSV_BLOCK)
            for row, code, e, f in zip(*(a[start:start + CSV_BLOCK].tolist() for a in (
                coords, strata.stratum, strata.dimE, strata.dimF))))
    counts = {s.value: n for s, n in strata.counts().items()}
    summary = {"config": vars(cfg), "chart": chart.id, "counts": counts,
               "points": len(coords)}
    _write_table(cfg, header, rows, summary, ".summary.json")
    return EXIT_OK


def cmd_freq(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg)
    traj, x0 = _run_flow(cfg, model)
    chart = model.atlas.chart(x0.chart)
    indices = [i for i, per in enumerate(chart.periodic) if per]
    fit = frequencies(traj, indices, model.atlas)
    payload = {
        "config": vars(cfg),
        "frequencies": {chart.names[j]: float(w)
                        for j, w in zip(indices, fit.omegas)},
        "residuals": {chart.names[j]: float(rho)
                      for j, rho in zip(indices, fit.residuals)},
        "chart_switches": len(traj.switches),
    }
    _write_json(cfg.out, payload)
    return EXIT_OK


def cmd_actions(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg)
    x0 = _start_point(cfg, model)
    chart = model.atlas.chart(x0.chart)
    actions = {}
    for i in model.angle_indices(x0.chart):
        result = loop_integral(chart, coordinate_circle(chart, i, x0.coords),
                               subdivisions=cfg.subdivisions)
        actions[chart.names[i]] = {"value": result.value,
                                   "refinement_error": result.refinement_error}
    payload = {"config": vars(cfg), "actions": actions}
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
    except IntegratorError as exc:
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except ContactKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
