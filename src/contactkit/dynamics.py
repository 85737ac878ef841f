"""Flow integration across charts, invariance monitors, and torus diagnostics.

The integrator is an explicit Dormand-Prince 5(4) embedded pair with the
usual proportional step controller.  Steps are chosen by the tolerance and
not by the sample grid: a requested sample inside an accepted step is
filled from the free 4th-order continuous extension of the pair (Dormand &
Prince 1980, with Shampine's 1986 coefficients; Hairer, Norsett & Wanner,
Solving ODEs I, II.6).  Where that extension cannot be trusted to the
tolerance the integrator lands a step on the sample instead, so the sample
is an integration node.  The controller caps the step so no periodic
coordinate advances more than half a turn per step, which keeps sampled
angle sequences unwrappable.

Chart changes happen when the current point drifts within a relative
margin of a bounded domain wall, or when the chart's declining
``denominator`` expression falls under ``switch_tol``; the integrator then
moves to the overlapping chart with the best health score and records the
event on the trajectory.

:func:`loop_integral` evaluates the Gauss nodes of one refinement level as
one stack and sums the weighted terms in node order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bundle import Atlas, OutOfAtlas, Section
from .errors import ContactKitError
from .expr import DomainError, Expression, parse
from .geometry import (Chart, ChartField, OutOfDomain, Point, TWO_PI, _by_blocks, _check_domain,
                       frame_at)
from .jacobi import _field_components
from .numkernel import SingularSystem, row_dot

# Dormand-Prince 5(4): 5th order propagation, embedded 4th order error estimate
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _B5 - _B4
# continuous extension y0 + h * sum_i b_i(theta) k_i with
# b(theta) = _P @ (theta, theta^2, theta^3, theta^4); b(1) = _B5
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# interpolant error estimate: continuous extension minus the cubic Hermite
# through both step ends (slopes k_0 and the FSAL stage k_6), at mid-step
_MID = _P @ np.array([1 / 2, 1 / 4, 1 / 8, 1 / 16]) - _B5 / 2 \
    - np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]) / 8

_MAX_ANGLE_PER_STEP = 0.5 * np.pi


class StepSizeUnderflow(ContactKitError):
    def __init__(self, time: float):
        self.time = time
        super().__init__(f"step size underflow at t = {time:.6g}")


class LeftAtlas(ContactKitError):
    def __init__(self, time: float, chart_id: str):
        self.time = time
        self.chart_id = chart_id
        super().__init__(f"trajectory left the atlas from chart {chart_id!r} "
                         f"at t = {time:.6g}")


class NotClosed(ContactKitError):
    def __init__(self, gap: float):
        self.gap = gap
        super().__init__(f"curve endpoints differ by {gap:.3e}; not a closed cycle")


class InsufficientSamples(ContactKitError):
    def __init__(self, have: int, need: int):
        super().__init__(f"need at least {need} samples, trajectory has {have}")


class SampleEvaluationError(ContactKitError):
    def __init__(self, time: float, cause: Exception):
        self.time = time
        self.cause = cause
        super().__init__(f"quantity evaluation failed at t = {time:.6g}: {cause}")


@dataclass
class ControllerStats:
    accepted: int = 0
    rejected: int = 0
    min_step: float = np.inf
    max_step: float = 0.0
    rhs_evaluations: int = 0


@dataclass(frozen=True)
class ChartSwitch:
    time: float
    src: str
    dst: str


@dataclass
class Trajectory:
    times: np.ndarray
    points: list[Point]
    switches: list[ChartSwitch]
    stats: ControllerStats


def _resolve_hamiltonian(model, atlas: Atlas, h) -> Section:
    if h is None:
        h = getattr(model, "hamiltonian", None)
        if h is None:
            raise ValueError("no Hamiltonian given and the model supplies no default")
    if isinstance(h, Section):
        return h
    if isinstance(h, str):
        for s in getattr(model, "sections", ()) or ():
            if s.name == h:
                return s
        h = parse(h)
    if isinstance(h, Expression):
        # raw scalar prescription: usable on every chart that binds its names
        local = {cid: h for cid, chart in atlas.charts.items()
                 if h.names <= set(chart.names)}
        if not local:
            raise ContactKitError("Hamiltonian expression uses names absent from every chart")
        return Section("h", local)
    raise TypeError(f"cannot interpret {h!r} as a Hamiltonian")


def _boundary_gap(chart: Chart, x: np.ndarray) -> float:
    """Distance to the nearest finite bound, as a fraction of its axis width."""
    gap = np.inf
    for i, per in enumerate(chart.periodic):
        lo, hi = chart.bounds[i]
        if not per and np.isfinite(lo) and np.isfinite(hi):
            gap = min(gap, min(x[i] - lo, hi - x[i]) / (hi - lo))
    return gap


def _chart_health(chart: Chart, x: np.ndarray) -> float:
    if chart.denominator is not None:
        try:
            return abs(chart.denominator.eval(chart.bindings(x)))
        except DomainError:
            return 0.0
    return min(_boundary_gap(chart, x), 1.0)


def _interp_error(h: float, k: np.ndarray, tol_vec: np.ndarray) -> float:
    """Tolerance-scaled mid-step gap between the continuous extension and
    the cubic Hermite of one step, a conservative estimate of the
    extension's error."""
    mid = (_MID @ k) / tol_vec
    return h * math.sqrt(mid @ mid / mid.size)


def _dense(y0: np.ndarray, h: float, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """States of the continuous extension at step fractions ``theta``."""
    powers = np.power.outer(theta, np.arange(1, 5))
    return y0 + h * ((powers @ _P.T) @ k)


def flow(model, h, x0: Point, t_final: float,
         rtol: float = 1e-10, atol: float = 1e-10,
         n_samples: int = 201, switch_tol: float = 1e-3,
         boundary_margin: float = 0.05, max_steps: int = 1_000_000) -> Trajectory:
    """Integrate the contact field of ``h`` from ``x0`` for ``t_final`` time
    units (negative runs backwards), sampling ``n_samples`` evenly spaced
    states.

    The first and last samples, and every sample a step is landed on, are
    integration nodes.  Any other sample is the continuous extension of the
    step that covers it; a step covers samples without landing only while
    the extension's mid-step error estimate stays within ``rtol``/``atol``.
    """
    atlas: Atlas = getattr(model, "atlas", model)
    section = _resolve_hamiltonian(model, atlas, h)
    evaluators: dict[str, ChartField] = {}

    def rhs(chart: Chart, x: np.ndarray) -> np.ndarray:
        if chart.id not in evaluators:
            evaluators[chart.id] = ChartField(chart, section.on(chart.id))
        stats.rhs_evaluations += 1
        return _field_components(frame_at(chart, chart.wrap(x)), evaluators[chart.id])

    stats = ControllerStats()
    chart = atlas.chart_of(x0)
    y = np.array(x0.coords, dtype=float)
    t = 0.0
    if not (math.isfinite(t_final) and t_final != 0.0):
        raise ValueError("t_final must be finite and nonzero")
    direction = 1.0 if t_final > 0 else -1.0

    sample_times = np.linspace(0.0, t_final, max(2, int(n_samples)))
    points: list[Point] = [chart.point(y)]
    switches: list[ChartSwitch] = []
    next_sample = 1

    def try_switch(require: bool) -> bool:
        nonlocal chart, y, k1, last
        wrapped = chart.wrap(y)
        current = -np.inf if require else _chart_health(chart, wrapped)
        best_score = current
        best = None
        for dst in atlas.neighbors(chart.id):
            try:
                z = atlas.map_coords(chart.id, dst, wrapped)
            except (DomainError, OutOfAtlas):
                continue
            if not np.all(np.isfinite(z)):
                continue
            dst_chart = atlas.charts[dst]
            z = dst_chart.wrap(z)
            if not dst_chart.contains(z):
                continue
            score = _chart_health(dst_chart, z)
            if score > best_score * 1.1 + 1e-300:
                best_score = score
                best = (dst_chart, z)
        if best is None:
            return False
        switches.append(ChartSwitch(t, chart.id, best[0].id))
        chart, y = best[0], best[1]
        k1 = rhs(chart, y)
        last = None
        return True

    k1 = rhs(chart, y)
    scale0 = float(np.linalg.norm(y)) + 1.0
    speed0 = float(np.linalg.norm(k1))
    h_abs = min(abs(t_final), 1e-2 * scale0 / (speed0 + 1e-8), 1.0)
    # (h, k, tol_vec) of the last accepted step, for the interpolant error
    # estimate; with none yet, after a chart change or a redo, samples are
    # landed on
    last = None

    for _ in range(max_steps):
        if direction * (t - t_final) >= 0.0:
            break
        periodic_mask = np.array(chart.periodic)
        remaining = abs(t_final - t)
        top_speed = float(np.max(np.abs(k1[periodic_mask]))) if periodic_mask.any() else 0.0
        if top_speed > 0.0:
            h_abs = min(h_abs, _MAX_ANGLE_PER_STEP / top_speed)
        if h_abs < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(t)
        # land exactly on the final time, and on the next requested sample
        # when the continuous extension is not predicted to meet the
        # tolerance there (the estimate scales with h^4)
        h_try = h_abs
        t_target = None
        landed = False
        if h_try >= remaining / 1.05:
            h_try = remaining
            t_target = t_final
        if next_sample < len(sample_times):
            to_next = abs(sample_times[next_sample] - t)
            if h_try >= to_next > 0.0 and \
                    (last is None or _interp_error(*last) * (h_try / last[0]) ** 4 > 1.0):
                h_try = to_next
                t_target = float(sample_times[next_sample])
                landed = True
        h_step = direction * h_try

        k = np.empty((7, y.shape[0]))
        k[0] = k1
        failed = False
        try:
            for i in range(1, 7):
                yi = y + h_step * (_A[i] @ k[:i])
                k[i] = rhs(chart, yi)
            y1 = y + h_step * (_B5 @ k)
        except (OutOfDomain, DomainError, SingularSystem):
            failed = True

        if not failed:
            err_vec = h_step * (_ERR @ k)
            tol_vec = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
            err = float(np.sqrt(np.mean((err_vec / tol_vec) ** 2)))
        if failed or err > 1.0 or not chart.contains(chart.wrap(y1)):
            stats.rejected += 1
            if not failed and err > 1.0:
                h_abs = h_try * max(0.1, min(0.9, 0.9 * err ** -0.2))
            else:
                h_abs = 0.5 * h_try
            if h_abs < 1e-14 * max(1.0, abs(t)):
                # wedged against an obstruction; a chart change is the way out
                if try_switch(require=True):
                    h_abs = 1e-6 * max(1.0, abs(t_final))
                    continue
                raise LeftAtlas(t, chart.id)
            continue

        t_new = t_target if t_target is not None else t + h_step
        stop = next_sample
        while stop < len(sample_times) and \
                direction * (sample_times[stop] - t_new) <= 1e-12 * max(1.0, abs(t_new)):
            stop += 1
        if stop > next_sample:
            covered = sample_times[next_sample:stop]
            if landed:
                points.extend(chart.point(y1) for _ in covered)
            else:
                if np.any(covered != t_new) and _interp_error(h_try, k, tol_vec) > 1.0:
                    # the extension would miss the tolerance at a sample:
                    # redo the step landed
                    stats.rejected += 1
                    last = None
                    continue
                # samples at the node keep the node; the rest are interpolants
                states = _dense(y, h_step, k, (covered - t) / h_step)
                states[covered == t_new] = y1
                points.extend(chart.point(x) for x in states)
            next_sample = stop

        stats.accepted += 1
        last = (h_try, k, tol_vec)
        stats.min_step = min(stats.min_step, h_try)
        stats.max_step = max(stats.max_step, h_try)
        t = t_new
        y = y1
        k1 = k[6]

        switched = False
        wrapped = chart.wrap(y)
        if _boundary_gap(chart, wrapped) < boundary_margin or \
                _chart_health(chart, wrapped) < switch_tol:
            switched = try_switch(require=False)
        if not switched:
            if err > 0.0:
                h_abs = h_try * min(5.0, max(0.2, 0.9 * err ** -0.2))
            else:
                h_abs = 5.0 * h_try
    else:
        raise ContactKitError(f"step budget of {max_steps} exhausted at t = {t:.6g}")

    while next_sample < len(sample_times):
        points.append(chart.point(y))
        next_sample += 1
    return Trajectory(sample_times, points, switches, stats)


@dataclass(frozen=True)
class DriftRecord:
    max_drift: float
    at_time: float


def drift(traj: Trajectory,
          quantities: Mapping[str, Callable[[Point], float]]) -> dict[str, DriftRecord]:
    """Largest excursion of each scalar quantity from its initial value."""
    out = {}
    for name, fn in quantities.items():
        try:
            reference = fn(traj.points[0])
        except Exception as exc:  # noqa: BLE001 - reported with the sample time
            raise SampleEvaluationError(float(traj.times[0]), exc) from exc
        worst = 0.0
        at = float(traj.times[0])
        for t, p in zip(traj.times[1:], traj.points[1:]):
            try:
                dev = abs(fn(p) - reference)
            except Exception as exc:  # noqa: BLE001
                raise SampleEvaluationError(float(t), exc) from exc
            if dev > worst:
                worst, at = dev, float(t)
        out[name] = DriftRecord(worst, at)
    return out


@dataclass(frozen=True)
class FrequencyFit:
    omegas: np.ndarray
    residuals: np.ndarray


def frequencies(traj: Trajectory, angle_indices: Sequence[int],
                atlas: Atlas | None = None) -> FrequencyFit:
    """Winding rates of the designated periodic coordinates.

    ``angle_indices`` are positions in the chart of the first sample.  With
    an ``atlas`` each angle is followed by name across chart switches, and a
    chart along the trajectory that lacks the name is an error; without one
    the trajectory must stay on one chart.  Each angle series is unwrapped
    (sample-to-sample change must stay under half a turn) and fitted with a
    least-squares line; the residual is the largest deviation of the
    unwrapped series from that line.
    """
    if len(traj.points) < 10:
        raise InsufficientSamples(len(traj.points), 10)
    chart_ids = {p.chart for p in traj.points}
    if atlas is not None:
        first = atlas.chart_of(traj.points[0])
        names = [first.names[j] for j in angle_indices]
        for j in angle_indices:
            if not first.periodic[j]:
                raise ValueError(f"coordinate {first.names[j]!r} is not periodic")
        positions = {}
        for cid in chart_ids:
            chart = atlas.chart(cid)
            missing = [name for name in names if name not in chart.names]
            if missing:
                raise ValueError(f"chart {cid!r} along the trajectory has no "
                                 f"coordinate {missing[0]!r}")
            positions[cid] = [chart.names.index(name) for name in names]
    elif len(chart_ids) > 1:
        raise ValueError("the trajectory changes chart; pass the atlas to follow "
                         "angles by name")
    else:
        positions = {chart_ids.pop(): list(angle_indices)}
    t = np.asarray(traj.times, dtype=float)
    design = np.vstack([t, np.ones_like(t)]).T
    omegas = np.empty(len(angle_indices))
    residuals = np.empty(len(angle_indices))
    for col in range(len(angle_indices)):
        series = np.unwrap([p.coords[positions[p.chart][col]] for p in traj.points])
        coeffs, *_ = np.linalg.lstsq(design, series, rcond=None)
        omegas[col] = coeffs[0]
        residuals[col] = float(np.max(np.abs(series - design @ coeffs)))
    return FrequencyFit(omegas, residuals)


@dataclass(frozen=True)
class Cycle:
    """Closed parametrized curve on one chart, parameter running over [0, 1]."""

    point: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray] | None = None


def coordinate_circle(chart: Chart, axis: int, base) -> Cycle:
    base = np.array(base, dtype=float)
    if not chart.periodic[axis]:
        raise ValueError(f"coordinate {chart.names[axis]!r} is not periodic")
    unit = np.zeros(chart.dim)
    unit[axis] = TWO_PI

    return Cycle(point=lambda s: base + s * unit,
                 velocity=lambda s: unit)


@dataclass(frozen=True)
class ActionIntegral:
    value: float
    refinement_error: float


def loop_integral(chart: Chart, cycle: Cycle, subdivisions: int = 8,
                  nodes: int = 64, closure_tol: float = 1e-9) -> ActionIntegral:
    """Integral of the contact form along a closed curve, divided by ``2 pi``.

    Composite Gauss-Legendre quadrature; the reported error is the change
    under doubling the number of panels.  The nodes of one level are one
    array: the curve and its velocity are called per node, the wrap, the
    domain check, alpha and the pairing run on the stack, and the weighted
    terms are summed in node order.
    """
    start = np.asarray(cycle.point(0.0), dtype=float)
    end = np.asarray(cycle.point(1.0), dtype=float)
    gap = float(np.max(np.abs(chart.shortest_arc_delta(end, start))))
    if gap > closure_tol:
        raise NotClosed(gap)

    if cycle.velocity is not None:
        velocity = cycle.velocity
    else:
        def velocity(s, _h=1e-7):
            a = np.asarray(cycle.point(s + _h), dtype=float)
            b = np.asarray(cycle.point(s - _h), dtype=float)
            return chart.shortest_arc_delta(a, b) / (2.0 * _h)

    base_nodes, base_weights = np.polynomial.legendre.leggauss(nodes)

    def pairing(ts: np.ndarray) -> np.ndarray:
        x = _check_domain(chart, chart.wrap(np.array([cycle.point(s) for s in ts], dtype=float)))
        a = chart.alpha_kernel.value_stack(x)
        return row_dot(a, np.array([velocity(s) for s in ts], dtype=float))

    def integrate(panels: int) -> float:
        width = 1.0 / panels
        ts = ((np.arange(panels) + 0.5) * width)[:, None] + 0.5 * width * base_nodes
        terms = (np.tile(base_weights, panels) * np.concatenate(_by_blocks(pairing, ts.ravel()))
                 * 0.5 * width)
        # a cumulative sum adds in node order, as a running total does
        return float(np.cumsum(np.concatenate([[0.0], terms]))[-1])

    coarse = integrate(subdivisions)
    fine = integrate(2 * subdivisions)
    value = fine / TWO_PI
    return ActionIntegral(value, abs(fine - coarse) / (TWO_PI * (1.0 + abs(value))))
