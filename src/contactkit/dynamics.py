"""Flow integration across charts, invariance monitors, and torus diagnostics.

The integrator is DOP853, the explicit Dormand-Prince 8(5,3) pair with its
order-7 dense output (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed.,
II.5-II.6).  The step is set by the tolerance alone: the error norm
combines the pair's 5th- and 3rd-order estimates, and the step controller
uses the exponent -1/8.  A requested sample inside an accepted step comes
from the dense output, whose three extra stages are computed only for a
step that covers such a sample, so sample spacing is set by the sample
count and not by the step.  A sample is a row of the step's stack of dense
states, wrapped and checked against the chart once; a sample at a step's
end is the step's wrapped end state.

Chart changes happen when the current point drifts within
``BOUNDARY_MARGIN`` (relative to the axis) of a bounded domain wall, or
when the chart's declining ``denominator`` expression falls under
``switch_tol``; the integrator then moves to the overlapping chart with the
best health score and records the event on the trajectory.  A step that
leaves the chart is halved.  The flow is wedged, and must change chart or
raise :class:`LeftAtlas`, when the halved step falls to the resolution of
``t``, or when the step after one that left the chart moves no coordinate
with a finite bound: then the point rests one ulp inside a wall, and any
step short enough to be accepted leaves it there.

:func:`loop_integral` calls a :class:`Cycle` once per block of Gauss nodes
and sums the weighted terms in node order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bundle import Atlas, OutOfAtlas, Section
from .errors import ContactKitError
from .expr import DomainError, Expression, parse
from .geometry import (Chart, ChartField, ContactFrame, OutOfDomain, Point, TWO_PI, _by_blocks,
                       _check_domain)
from .geometry import frame_at  # noqa: F401 - perfbench/spans.py traces this name
from .jacobi import _field_components
from .numkernel import SingularSystem, row_dot

BOUNDARY_MARGIN = 0.05  # a wall this close, as a fraction of its axis, asks for a chart change
CLOSURE_TOL = 1e-9  # largest end-point gap of a closed cycle

# DOP853 (Hairer's dop853.f).  Rows 1-11 of _A are the stages of a step,
# row 12 the 8th-order weights, rows 13-15 the extra stages of the dense
# output; row i lists a_ij for j < i.  The field is autonomous, so the nodes
# c_i (the row sums) are not needed.
_A = [
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]),
    np.array([2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
              9.24834003261792003115737966543e-1]),
    np.array([3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
              1.25467687566822425016691814123e-1]),
    np.array([3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
              6.02165389804559606850219397283e-2, -1.7578125e-2]),
    np.array([3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
              1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
              8.27378916381402288758473766002e-3]),
    np.array([6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
              -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
              2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]),
    np.array([4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
              -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
              1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
              -2.03312017085086261358222928593e-2]),
    np.array([-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
              1.09143734899672957818500254654, -8.14978701074692612513997267357,
              -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
              2.49360555267965238987089396762, -3.0467644718982195003823669022]),
    np.array([2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
              -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
              2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
              -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
              6.43392746015763530355970484046e-1]),
    np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
              4.45031289275240888144113950566, 1.89151789931450038304281599044,
              -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
              -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
              4.47106157277725905176885569043e-2]),
    np.array([5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
              2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
              -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
              8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
              -8.298e-3]),
    np.array([3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
              2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
              -5.49237485713909884646569340306e-2, 0.0, 0.0,
              -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
              -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]),
    np.array([-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
              -4.69762141536116384314449447206, 7.68342119606259904184240953878,
              4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0,
              0.0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
              -9.15095847217987001081870187138]),
]
_B = _A[12]
# the 5th- and 3rd-order error weights; both leave out the slope at the new point
_E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
                -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
                0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1])
_E3 = _B - np.array([0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.733846688281611857341361741547, 0.0, 0.0,
                     0.220588235294117647058823529412e-1])
# dense-output rows 3-6; rows 0-2 come from the step's end points
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])


class IntegratorError(ContactKitError):
    """The flow stopped short of its final time."""


class StepSizeUnderflow(IntegratorError):
    def __init__(self, time: float):
        self.time = time
        super().__init__(f"step size underflow at t = {time:.6g}")


class LeftAtlas(IntegratorError):
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
    for i, lo, hi in chart._axes[1]:
        if np.isfinite(lo) and np.isfinite(hi):
            gap = min(gap, min(x[i] - lo, hi - x[i]) / (hi - lo))
    return gap


def _stalled_at_a_wall(chart: Chart, y: np.ndarray, y1: np.ndarray) -> bool:
    """Whether the chart has a finite bound and the step ``y -> y1`` moves
    no coordinate that has one."""
    walls = [i for i, lo, hi in chart._axes[1] if lo > -np.inf or hi < np.inf]
    return bool(walls) and all(y1[i] == y[i] for i in walls)


def _chart_health(chart: Chart, x: np.ndarray) -> float:
    if chart.denominator is not None:
        try:
            return abs(chart.denominator_field(x))
        except DomainError:
            return 0.0
    return min(_boundary_gap(chart, x), 1.0)


def _error_norm(h: float, k: np.ndarray, scale: np.ndarray) -> float:
    """DOP853's error norm of a step from its 12 stages ``k``: the 5th-order
    estimate damped by the 3rd-order one, in units of the tolerance."""
    e5 = (_E5 @ k) / scale
    e3 = (_E3 @ k) / scale
    e5_sq = float(e5 @ e5)
    e3_sq = float(e3 @ e3)
    if e5_sq == 0.0 and e3_sq == 0.0:
        return 0.0
    return abs(h) * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * scale.size)


def _dense(y0: np.ndarray, y1: np.ndarray, h: float, k: np.ndarray,
           theta: np.ndarray) -> np.ndarray:
    """States at step fractions ``theta`` from the order-7 dense output of the
    step ``y0 -> y1``; ``k`` holds the 12 stages, the slope at ``y1`` and the
    3 extra stages."""
    dy = y1 - y0
    rows = [dy, h * k[0] - dy, 2.0 * dy - h * (k[0] + k[12]), *(h * (_D @ k))]
    theta = theta[:, None]
    out = np.zeros((theta.shape[0], y0.shape[0]))
    for i, row in enumerate(reversed(rows)):
        out += row
        out *= theta if i % 2 == 0 else 1.0 - theta
    return y0 + out


def flow(model, h, x0: Point, t_final: float,
         rtol: float = 1e-10, atol: float = 1e-10,
         n_samples: int = 201, switch_tol: float = 1e-3,
         max_steps: int = 1_000_000) -> Trajectory:
    """Integrate the contact field of ``h`` from ``x0`` for ``t_final`` time
    units (negative runs backwards), sampling ``n_samples`` evenly spaced
    states.

    A sample inside a step is a row of the step's wrapped and checked stack
    of dense states, on the step's chart; a step whose dense output leaves
    the chart at a sample is rejected like a step that ends outside it.  A
    sample at a step's end (the last sample always is one) is the wrapped
    end state, taken after any chart change there.
    """
    atlas: Atlas = getattr(model, "atlas", model)
    section = _resolve_hamiltonian(model, atlas, h)
    evaluators: dict[str, ChartField] = {}

    def rhs(chart: Chart, x: np.ndarray) -> np.ndarray:
        if chart.id not in evaluators:
            evaluators[chart.id] = ChartField(chart, section.on(chart.id))
        stats.rhs_evaluations += 1
        return _field_components(ContactFrame(chart, chart.checked(x)), evaluators[chart.id])

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

    def try_switch(x: np.ndarray, current: float) -> bool:
        """Move to the neighbour whose health at the image of ``x`` beats ``current``."""
        nonlocal chart, y, k1
        best_score = current
        best = None
        for dst in atlas.neighbors(chart.id):
            dst_chart = atlas.charts[dst]
            try:
                z = np.array(dst_chart.checked(atlas.map_coords(chart.id, dst, x)))
            except (DomainError, OutOfAtlas, OutOfDomain):
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
        return True

    with np.errstate(all="ignore"):
        k1 = rhs(chart, y)
    if not np.all(np.isfinite(k1)):
        # bad input, not an integrator failure: steps reject non-finite stages
        raise ContactKitError(f"the contact field is not finite at the start point {y.tolist()}")
    scale0 = float(np.linalg.norm(y)) + 1.0
    speed0 = float(np.linalg.norm(k1))
    h_abs = min(abs(t_final), 1e-2 * scale0 / (speed0 + 1e-8), 1.0)
    # the step after a rejection may not grow
    after_rejection = False
    # the last step left the chart, or one of its stages raised
    left_chart = False

    for _ in range(max_steps):
        if direction * (t - t_final) >= 0.0:
            break
        if h_abs < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(t)
        # land exactly on the final time
        h_try = h_abs
        remaining = abs(t_final - t)
        final = h_try >= remaining / 1.05
        if final:
            h_try = remaining
        h_step = direction * h_try
        t_new = t_final if final else t + h_step

        k = np.empty((16, y.shape[0]))
        k[0] = k1
        err = math.nan   # stays NaN when a stage raises
        inside = False
        try:
            for i in range(1, 12):
                k[i] = rhs(chart, y + h_step * (_A[i] @ k[:i]))
            y1 = y + h_step * (_B @ k[:12])
            err = _error_norm(h_step, k[:12], atol + rtol * np.maximum(np.abs(y), np.abs(y1)))
            if err <= 1.0:
                end = np.array(chart.checked(y1))
                k[12] = rhs(chart, y1)
                # sample_times runs in the flow's direction, so this is monotone
                stop = np.searchsorted(direction * (sample_times - t_new),
                                       1e-12 * max(1.0, abs(t_new)), side="right")
                covered = sample_times[next_sample:stop]
                inner = covered[direction * (covered - t_new) < 0.0]
                if inner.size:
                    for i in range(13, 16):
                        k[i] = rhs(chart, y + h_step * (_A[i] @ k[:i]))
                    states = chart.wrap(_dense(y, y1, h_step, k, (inner - t) / h_step))
                inside = not inner.size or bool(np.all(chart.contains(states)))
        except (OutOfDomain, DomainError, SingularSystem):
            pass

        # after a step that left the chart, one that moves no coordinate with a
        # finite bound cannot reach the wall at float resolution
        wedged = inside and left_chart and _stalled_at_a_wall(chart, y, y1)
        if not inside or wedged:
            # too large an error, a stage that raised, a step end or sample
            # outside the chart, or a step stalled at a wall
            stats.rejected += 1
            after_rejection = True
            left_chart = not err > 1.0
            if err > 1.0:
                h_abs = h_try * max(0.2, 0.9 * err ** -0.125)
            else:
                h_abs = 0.5 * h_try
            if wedged or h_abs < 1e-14 * max(1.0, abs(t)):
                # wedged against an obstruction; a chart change is the way out
                if try_switch(y, -np.inf):
                    h_abs = 1e-6 * max(1.0, abs(t_final))
                    left_chart = False
                    continue
                raise LeftAtlas(t, chart.id)
            continue

        if inner.size:
            states.flags.writeable = False
            points.extend(Point(chart.id, row) for row in states)
        stats.accepted += 1
        stats.min_step = min(stats.min_step, h_try)
        stats.max_step = max(stats.max_step, h_try)
        left_chart = False
        t = t_new
        y = y1
        k1 = k[12]

        health = _chart_health(chart, end)
        switched = (_boundary_gap(chart, end) < BOUNDARY_MARGIN or health < switch_tol) \
            and try_switch(end, health)
        # samples at the step's end are taken on the chart it ends on
        end = y if switched else end
        end.flags.writeable = False
        points.extend(Point(chart.id, end) for _ in range(stop - next_sample - inner.size))
        next_sample = stop
        if not switched:
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
            h_abs = h_try * (min(1.0, factor) if after_rejection else factor)
        after_rejection = False
    else:
        raise IntegratorError(f"step budget of {max_steps} exhausted at t = {t:.6g}")

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
    """Closed curve on one chart: ``point`` and ``velocity`` map a 1-D array
    ``s`` of parameters in [0, 1] to one row each, shape ``(len(s), dim)``."""

    point: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]


def coordinate_circle(chart: Chart, axis: int, base) -> Cycle:
    base = np.array(base, dtype=float)
    if not chart.periodic[axis]:
        raise ValueError(f"coordinate {chart.names[axis]!r} is not periodic")
    unit = np.zeros(chart.dim)
    unit[axis] = TWO_PI

    return Cycle(point=lambda s: base + np.multiply.outer(s, unit),
                 velocity=lambda s: np.tile(unit, (len(s), 1)))


@dataclass(frozen=True)
class ActionIntegral:
    value: float
    refinement_error: float


def loop_integral(chart: Chart, cycle: Cycle, subdivisions: int = 8,
                  nodes: int = 64) -> ActionIntegral:
    """Integral of the contact form along a closed curve, divided by ``2 pi``.

    Composite Gauss-Legendre quadrature; the reported error is the change
    under doubling the number of panels.  The nodes of one level are one
    stack: one call of the curve and one of its velocity per block, and the
    weighted terms are summed in node order.
    """
    start, end = np.asarray(cycle.point(np.array([0.0, 1.0])), dtype=float)
    gap = float(np.max(np.abs(chart.shortest_arc_delta(end, start))))
    if gap > CLOSURE_TOL:
        raise NotClosed(gap)

    base_nodes, base_weights = np.polynomial.legendre.leggauss(nodes)

    def pairing(ts: np.ndarray) -> np.ndarray:
        x = _check_domain(chart, chart.wrap(cycle.point(ts)))
        a = chart.alpha_kernel.value_stack(x)
        return row_dot(a, np.asarray(cycle.velocity(ts), dtype=float))

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
