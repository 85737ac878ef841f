"""The three benchmark workloads: the CLI commands each runs and the oracle
that checks every command's output.

Every workload runs all five commands, because every run reports every
end-to-end metric.  The commands a workload is about carry the sizes that
give it its character; the others run small on the workload's own model,
so a change aimed at one command shows on one workload and should leave
the others unchanged.  The exception is classify: every sweep has 3125
points, since shorter sweeps time too unsteadily to bound.

An oracle never asks contactkit for the expected answer: it uses a closed
form, an exact count derived from the sweep grid, or a bound from the
test suite (never a tighter one).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
OMEGA = (1.0, 1.41421356)
OMEGA_ARG = "1,1.41421356"
CHART_SWITCH_CONFIG = Path(__file__).resolve().parent / "chart_switch.yaml"

# bounds taken from the test suite
ANGLE_TOL = 1e-9        # test_linear_winding
FIBER_TOL = 1e-12       # test_linear_winding
FREQ_TOL = 1e-8         # test_freq_report
ACTION_TOL = 1e-10      # test_c09_action_integrals
DISSIPATIVE_ANGLE_TOL = 1e-8   # test_reduced_dissipative_equations
DISSIPATIVE_REL_TOL = 1e-7     # test_reduced_dissipative_equations
# test_chart_switching_closed_form holds 1e-9 relative over t = 8 with one
# switch; this flow runs 75 times longer through 19 switches at the same
# tolerances, and the global error grows with the length of the run.
CHART_SWITCH_REL_TOL = 1e-7


@dataclass(frozen=True)
class Op:
    """One CLI command with its oracle.

    ``metric`` is the end-to-end metric its wall time feeds; ``check``
    receives the output path and returns the problems it found.
    """

    name: str
    metric: str
    argv: tuple[str, ...]
    suffix: str
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # public contactkit constructor and its arguments; it builds the
    # workload's model and validates it
    setup: tuple[str, list]


def sidecar(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def arc(a, b):
    """``a - b`` along the shortest arc of the circle."""
    return (np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi


def ls_slope(t: np.ndarray, y: np.ndarray) -> float:
    tc = t - t.mean()
    return float(tc @ (y - y.mean()) / (tc @ tc))


def counters(metric: str, out: Path) -> dict:
    """Deterministic work counters from the command's public outputs."""
    if metric == "flow":
        events = read_json(sidecar(out, ".events.json"))
        return {"controller": events["controller"],
                "chart_switches": events["chart_switches"]}
    if metric == "classify":
        return {"counts": read_json(sidecar(out, ".summary.json"))["counts"]}
    if metric == "freq":
        return {"chart_switches": read_json(out)["chart_switches"]}
    if metric == "check":
        return {"checks": len(read_json(out)["checks"])}
    return {}


def model_args(model: str, f: str, k: int | None = None) -> tuple[str, ...]:
    args = ("--model", model, "--n", "2", "--omega", OMEGA_ARG, "--f", f)
    return args if k is None else args + ("--k", str(k))


def fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# oracles

def check_ok(out: Path) -> list[str]:
    report = read_json(out)
    return [] if report["ok"] else ["check reported ok=false"]


def check_strata(expected: dict[str, int], points: int) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        summary = read_json(sidecar(out, ".summary.json"))
        problems = []
        if summary["points"] != points:
            problems.append(f"{summary['points']} points, expected {points}")
        for stratum, count in expected.items():
            if summary["counts"][stratum] != count:
                problems.append(f"{stratum}: {summary['counts'][stratum]}, "
                                f"expected {count}")
        return problems
    return check


def check_actions(expected: dict[str, float]) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        actions = read_json(out)["actions"]
        problems = []
        if set(actions) != set(expected):
            return [f"actions for {sorted(actions)}, expected {sorted(expected)}"]
        for name, want in expected.items():
            got = actions[name]
            if abs(got["value"] - want) > ACTION_TOL:
                problems.append(f"action {name} = {got['value']!r}, expected {want!r}")
            if got["refinement_error"] > ACTION_TOL:
                problems.append(f"action {name} refinement {got['refinement_error']!r}")
        return problems
    return check


def check_freq(expected: dict[str, float], switches: int) -> Callable[[Path], list[str]]:
    """Each fitted rate matches the expected one to within the larger of the
    fit's reported residual and the test suite's frequency bound."""
    def check(out: Path) -> list[str]:
        report = read_json(out)
        problems = []
        if report["chart_switches"] != switches:
            problems.append(f"{report['chart_switches']} chart switches, expected {switches}")
        for name, want in expected.items():
            got = report["frequencies"][name]
            allowed = max(report["residuals"][name], FREQ_TOL)
            if abs(got - want) > allowed:
                problems.append(f"frequency {name} = {got!r}, expected {want!r}")
        return problems
    return check


def check_linear_flow(x0: np.ndarray, rates: np.ndarray, t_final: float,
                      samples: int) -> Callable[[Path], list[str]]:
    """Angles advance as phi0 + omega t and the fiber ratios stay put."""
    def check(out: Path) -> list[str]:
        header, rows = read_csv(out)
        problems = []
        events = read_json(sidecar(out, ".events.json"))
        if events["chart_switches"]:
            problems.append("unexpected chart switch")
        if len(rows) != samples or header[:2] != ["t", "chart"]:
            return problems + [f"{len(rows)} rows with header {header}"]
        t = np.array([float(r[0]) for r in rows])
        x = np.array([[float(c) for c in r[2:]] for r in rows])
        if any(r[1] != "V0" for r in rows):
            problems.append("row off chart V0")
        if np.max(np.abs(t - np.linspace(0.0, t_final, samples))) > 1e-12 * t_final:
            problems.append("sample times off the requested grid")
        angles = x0[:3] + np.outer(t, rates)
        angle_err = float(np.max(np.abs(arc(x[:, :3], angles))))
        fiber_err = float(np.max(np.abs(x[:, 3:] - x0[3:])))
        if angle_err > ANGLE_TOL:
            problems.append(f"angle error {angle_err:.3e}")
        if fiber_err > FIBER_TOL:
            problems.append(f"fiber error {fiber_err:.3e}")
        return problems
    return check


def chart_switch_j1(t):
    """Closed form of J1 on the chart-switch flow from J1(0) = 0.11."""
    return 0.11 + (1.0 - np.cos(0.1 * t)) / 0.1


def expected_switches(t_final: float, switch_tol: float) -> list[tuple[float, str, str]]:
    """Chart changes the closed form predicts: V0 -> V1 when V0's
    denominator 1/sqrt(1 + J1^2) falls under the switch tolerance, and back
    when V1's does (J0 = 1/J1).  J1 = 0.11 + 10 (1 - cos theta), theta = 0.1 t,
    rises on (0, pi) and falls on (pi, 2 pi)."""
    limit = math.sqrt(1.0 / switch_tol ** 2 - 1.0)
    rise = math.acos(1.0 - (limit - 0.11) / 10.0)
    fall = TWO_PI - math.acos(1.0 - (1.0 / limit - 0.11) / 10.0)
    out = []
    for turn in range(int(0.1 * t_final / TWO_PI) + 1):
        for theta, src, dst in ((rise, "V0", "V1"), (fall, "V1", "V0")):
            t = (theta + TWO_PI * turn) / 0.1
            if t <= t_final:
                out.append((t, src, dst))
    return out


def check_chart_switch_flow(x0: np.ndarray, t_final: float,
                            switch_tol: float) -> Callable[[Path], list[str]]:
    predicted = expected_switches(t_final, switch_tol)

    def check(out: Path) -> list[str]:
        problems = []
        _, rows = read_csv(out)
        events = read_json(sidecar(out, ".events.json"))
        switches = events["chart_switches"]
        max_step = events["controller"]["max_step"]
        if [(s["from"], s["to"]) for s in switches] != [p[1:] for p in predicted]:
            problems.append(f"switches {[(s['from'], s['to']) for s in switches]}, "
                            f"expected {len(predicted)} alternating V0/V1")
        else:
            for s, (when, _, _) in zip(switches, predicted):
                # the switch happens at the end of the step that crosses
                if not when - max_step - 1e-3 <= s["time"] <= when + max_step + 1e-3:
                    problems.append(f"switch at t={s['time']!r}, crossing at {when!r}")
        for row in rows:
            t, chart, j = float(row[0]), row[1], float(row[4])
            j1 = j if chart == "V0" else 1.0 / j
            rel = abs(j1 - chart_switch_j1(t)) / chart_switch_j1(t)
            if rel > CHART_SWITCH_REL_TOL:
                problems.append(f"J1 relative error {rel:.3e} at t={t!r}")
            if abs(arc(float(row[3]), x0[1] + 0.1 * t)) > ANGLE_TOL:
                problems.append(f"phi1 off 0.1 t at t={t!r}")
        return problems
    return check


def check_chart_switch_freq(x0: np.ndarray, t_final: float, samples: int,
                            switches: int) -> Callable[[Path], list[str]]:
    """phi1 winds at 0.1; phi0 = phi0(0) + 10 sin(0.1 t) has the least-squares
    slope of its closed form on the sample grid."""
    t = np.linspace(0.0, t_final, samples)
    phi0 = x0[0] + 10.0 * np.sin(0.1 * t)
    return check_freq({"phi0": ls_slope(t, phi0), "phi1": 0.1}, switches)


def dissipative_closed_form(x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """primer2(2) with f = sin(phi2) on chart V2: the angles phi0, phi1 wind
    at omega, phi2 solves phi2' = sin(phi2), and the ratios J0, J1 scale with
    sin(phi2(t)) / sin(phi2(0))."""
    phi2 = 2.0 * np.arctan(np.exp(t) * np.tan(0.5 * x0[2]))
    scale = np.sin(phi2) / np.sin(x0[2])
    return np.column_stack([x0[0] + OMEGA[0] * t, x0[1] + OMEGA[1] * t, phi2,
                            x0[3] * scale, x0[4] * scale])


def check_dissipative_flow(x0: np.ndarray, t_final: float,
                           samples: int) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        _, rows = read_csv(out)
        if len(rows) != samples or any(r[1] != "V2" for r in rows):
            return [f"{len(rows)} rows, expected {samples} on chart V2"]
        t = np.array([float(r[0]) for r in rows])
        x = np.array([[float(c) for c in r[2:]] for r in rows])
        want = dissipative_closed_form(x0, t)
        problems = []
        angle_err = float(np.max(np.abs(arc(x[:, :3], want[:, :3]))))
        rel_err = float(np.max(np.abs(x[:, 3:] - want[:, 3:]) / np.abs(want[:, 3:])))
        if angle_err > DISSIPATIVE_ANGLE_TOL:
            problems.append(f"angle error {angle_err:.3e}")
        if rel_err > DISSIPATIVE_REL_TOL:
            problems.append(f"ratio relative error {rel_err:.3e}")
        return problems
    return check


# ---------------------------------------------------------------------------
# workloads

def torus_flow(rng: np.random.Generator) -> Workload:
    """The DP5 controller at a step set by the 2001-row sample grid, the
    per-RHS frame solves and the CSV writer; freq runs the same integration
    with little output, which isolates the output layer."""
    model = model_args("primer", "2+sin(phi2)", 0)
    x0 = np.concatenate([rng.uniform(0.0, TWO_PI, 3), [0.7, -1.3]])
    start = ("--chart", "V0", "--x0", ",".join(map(fmt, x0)))
    run = ("--t-final", "100", "--samples", "2001", "--rtol", "1e-10",
           "--atol", "1e-10")
    sweep_seed = str(int(rng.integers(1 << 31)))
    return Workload("torus-flow", (
        Op("flow", "flow", ("flow", *model, *start, *run), ".csv",
           check_linear_flow(x0, np.array([*OMEGA, 0.0]), 100.0, 2001)),
        Op("freq", "freq", ("freq", *model, *start, *run), ".json",
           check_freq({"phi0": OMEGA[0], "phi1": OMEGA[1], "phi2": 0.0}, 0)),
        Op("actions", "actions", ("actions", *model, *start, "--subdivisions", "64"),
           ".json", check_actions({"phi0": 1.0, "phi1": 0.7, "phi2": -1.3})),
        Op("check", "check", ("check", *model), ".json", check_ok),
        # V0 carries s0 = 1, so no point of it lies on a singular stratum
        Op("classify", "classify", ("classify", *model, "--chart", "V0",
                                    "--samples", "3125", "--seed", sweep_seed),
           ".csv", check_strata({"regular_transverse": 3125}, 3125)),
    ), ("primer", [2, list(OMEGA), "2+sin(phi2)", 0]))


def chart_switch(rng: np.random.Generator) -> Workload:
    """A tolerance-limited flow through 19 chart changes and rejected steps,
    and the config loader with its schema check and overlap probing."""
    config = ("--config", str(CHART_SWITCH_CONFIG))
    x0 = np.array([rng.uniform(0.0, TWO_PI), 0.5 * math.pi, 0.11])
    start = ("--chart", "V0", "--x0", ",".join(map(fmt, x0)))
    run = ("--t-final", "600", "--switch-tol", "0.3")
    sweep_seed = str(int(rng.integers(1 << 31)))
    switches = len(expected_switches(600.0, 0.3))
    return Workload("chart-switch", (
        Op("flow", "flow", ("flow", *config, *start, *run, "--samples", "2"),
           ".csv", check_chart_switch_flow(x0, 600.0, 0.3)),
        Op("check", "check", ("check", *config), ".json", check_ok),
        Op("freq", "freq", ("freq", *config, *start, *run, "--samples", "601"),
           ".json", check_chart_switch_freq(x0, 600.0, 601, switches)),
        Op("actions", "actions", ("actions", *config, *start), ".json",
           check_actions({"phi0": 1.0, "phi1": 0.11})),
        # h vanishes only on a curve, which random points miss
        Op("classify", "classify", ("classify", *config, "--chart", "V0",
                                    "--samples", "3125", "--seed", sweep_seed),
           ".csv", check_strata({"regular_transverse": 3125}, 3125)),
    ), ("from_config", [str(CHART_SWITCH_CONFIG)]))


def strata_sweep(rng: np.random.Generator) -> Workload:
    """Per-point frames, rank SVDs and momentum_rank on grids that hit every
    stratum (a random sweep never does), and validation of three models.

    On the 5-point grid of chart V2 the ratio axes take the value 0 exactly,
    which fixes the counts: J0 = 0 makes the momentum rank drop for k = 0
    (625 points), J0 = J1 = 0 makes the commuting family vanish for k = 2
    (125 points), and J0 = J1 = sin(phi2) = 0 is the zero locus of primer2
    (25 points).
    """
    grid = ("--chart", "V2", "--grid", "5")
    primer2 = model_args("primer2", "sin(phi2)")
    # phi2 stays fixed: it sets the dissipation and with it the step count
    x0 = np.concatenate([rng.uniform(0.0, TWO_PI, 2), [1.0, 0.8, -0.5]])
    start = ("--chart", "V2", "--x0", ",".join(map(fmt, x0)))
    run = ("--t-final", "6", "--samples", "61", "--rtol", "1e-11", "--atol", "1e-12")
    sweep_seed = str(int(rng.integers(1 << 31)))
    return Workload("strata-sweep", (
        Op("check", "check", ("check", *primer2), ".json", check_ok),
        Op("classify-sigma", "classify",
           ("classify", *model_args("primer", "2+sin(phi2)", 2), *grid), ".csv",
           check_strata({"sigma": 125, "unclassified": 0, "zero_locus": 0}, 3125)),
        Op("classify-unclassified", "classify",
           ("classify", *model_args("primer", "2+sin(phi2)", 0), *grid), ".csv",
           check_strata({"unclassified": 625, "sigma": 0, "zero_locus": 0}, 3125)),
        Op("classify-zero-locus", "classify", ("classify", *primer2, *grid), ".csv",
           check_strata({"zero_locus": 25, "sigma": 0, "unclassified": 0}, 3125)),
        # s0 = 1 on V0: neither zero locus nor sigma can occur there
        Op("classify-random", "classify",
           ("classify", *primer2, "--chart", "V0", "--samples", "3125",
            "--seed", sweep_seed), ".csv",
           check_strata({"regular_transverse": 3125}, 3125)),
        Op("flow", "flow", ("flow", *primer2, *start, *run), ".csv",
           check_dissipative_flow(x0, 6.0, 61)),
        Op("freq", "freq", ("freq", *primer2, *start, *run), ".json",
           check_freq({"phi0": OMEGA[0], "phi1": OMEGA[1]}, 0)),
        Op("actions", "actions", ("actions", *primer2, *start), ".json",
           check_actions({"phi0": x0[3], "phi1": x0[4], "phi2": 1.0})),
    ), ("primer2", [2, list(OMEGA), "sin(phi2)"]))


WORKLOADS = {"torus-flow": torus_flow, "chart-switch": chart_switch,
             "strata-sweep": strata_sweep}
