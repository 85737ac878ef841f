import numpy as np
import pytest
from scipy.integrate import solve_ivp

from contactkit import dynamics, expr
from contactkit.bundle import Atlas, Section, momentum, section_ratio
from contactkit.dynamics import (ControllerStats, Cycle, InsufficientSamples,
                                 LeftAtlas, NotClosed, StepSizeUnderflow,
                                 Trajectory, coordinate_circle, drift, flow,
                                 frequencies, loop_integral)
from contactkit.expr import parse
from contactkit.geometry import Chart, Point
from contactkit.models import Model, canonical, from_config, primer, primer2
from helpers import CHART_SWITCH_CONFIG, canonical_chart, normal_form_chart

OMEGA = (1.0, np.sqrt(2.0))


@pytest.fixture(scope="module")
def pm():
    return primer(2, OMEGA, "2 + sin(phi2)", k=0)


@pytest.fixture(scope="module")
def pm2():
    return primer2(2, OMEGA, "sin(phi2)")


def test_chart_health_is_the_denominator_on_the_chart(pm):
    rng = np.random.default_rng(73)
    for chart in pm.atlas.charts.values():
        for _ in range(20):
            x = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 3), rng.uniform(-2.0, 2.0, 2)])
            want = abs(chart.denominator.eval(chart.bindings(x)))
            assert dynamics._chart_health(chart, x) == want


def test_linear_winding(pm):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.2, 0.4, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 10.0, n_samples=101)
    assert not traj.switches
    for t, p in zip(traj.times, traj.points):
        assert p.coords[0] == pytest.approx((0.2 + t) % (2 * np.pi), abs=1e-9)
        assert p.coords[1] == pytest.approx((0.4 + np.sqrt(2) * t) % (2 * np.pi),
                                            abs=1e-9)
        assert p.coords[2] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p.coords[3:], [0.7, -1.3], atol=1e-12)


def test_zero_hamiltonian_is_constant(pm):
    zero = Section("zero", {cid: expr.literal(0.0) for cid in pm.atlas.chart_ids})
    chart = pm.atlas.chart("V1")
    x0 = chart.point(np.array([0.3, 0.6, 0.9, 0.5, 0.8]))
    traj = flow(pm, zero, x0, 5.0, n_samples=21)
    for p in traj.points:
        assert np.allclose(p.coords, x0.coords, atol=1e-14)


def test_reduced_dissipative_equations(pm2):
    red = pm2.reduced
    chart = red.atlas.chart("N")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.8, -0.5]))
    traj = flow(red, None, x0, 6.0, rtol=1e-11, atol=1e-12, n_samples=61)
    # closed form: phi_i = phi_i(0) + omega_i t; phi2 solves d(phi2)/dt = sin(phi2);
    # p_i scale by sin(phi2(t)) / sin(phi2(0))  (since dp/dt = cos(phi2) p and
    # d/dt log sin(phi2) = cos(phi2))
    for t, p in zip(traj.times, traj.points):
        phi2 = 2.0 * np.arctan(np.exp(t) * np.tan(0.5))
        scale = np.sin(phi2) / np.sin(1.0)
        assert p.coords[0] == pytest.approx(t % (2 * np.pi), abs=1e-8)
        assert p.coords[1] == pytest.approx((np.sqrt(2) * t) % (2 * np.pi), abs=1e-8)
        assert p.coords[2] == pytest.approx(phi2, abs=1e-8)
        assert p.coords[3] == pytest.approx(0.8 * scale, rel=1e-7)
        assert p.coords[4] == pytest.approx(-0.5 * scale, rel=1e-7)


def _arc(a, b):
    return (np.asarray(a) - np.asarray(b) + np.pi) % (2 * np.pi) - np.pi


def test_linear_winding_against_dop853(pm):
    # 2001 samples over 100 time units: most samples fall inside steps and
    # come from the continuous extension
    chart = pm.atlas.chart("V0")
    y0 = np.array([0.2, 0.4, 1.0, 0.7, -1.3])
    traj = flow(pm, None, chart.point(y0), 100.0, rtol=1e-10, atol=1e-10,
                n_samples=2001)
    ref = solve_ivp(lambda t, y: [OMEGA[0], OMEGA[1], 0.0, 0.0, 0.0],
                    (0.0, 100.0), y0, method="DOP853", rtol=1e-13, atol=1e-13,
                    t_eval=traj.times).y.T
    got = np.array([p.coords for p in traj.points])
    assert np.max(np.abs(_arc(got[:, :2], ref[:, :2]))) < 1e-9
    assert np.max(np.abs(got[:, 2:] - ref[:, 2:])) < 1e-12


DISSIPATIVE_RUNS = pytest.mark.parametrize("n_samples, rtol, atol", [
    (61, 1e-11, 1e-12),   # tight tolerance, a sample every 0.1
    (601, 1e-9, 1e-9),    # hundreds of interpolated samples
])


def _check_dissipative_flow(pm2, n_samples, rtol, atol, method):
    """The reduced dissipative flow against scipy's ``method`` at 1e-13."""
    red = pm2.reduced
    chart = red.atlas.chart("N")
    y0 = np.array([0.0, 0.0, 1.0, 0.8, -0.5])

    def equations(t, y):
        return [OMEGA[0], OMEGA[1], np.sin(y[2]),
                np.cos(y[2]) * y[3], np.cos(y[2]) * y[4]]

    traj = flow(red, None, chart.point(y0), 6.0, rtol=rtol, atol=atol,
                n_samples=n_samples)
    ref = solve_ivp(equations, (0.0, 6.0), y0, method=method, rtol=1e-13,
                    atol=1e-13, t_eval=traj.times).y.T
    got = np.array([p.coords for p in traj.points])
    assert np.max(np.abs(_arc(got[:, :2], ref[:, :2]))) < 1e-8
    assert np.max(np.abs(got[:, 2] - ref[:, 2])) < 1e-8
    assert np.max(np.abs(got[:, 3:] / ref[:, 3:] - 1.0)) < 1e-7


@DISSIPATIVE_RUNS
def test_dissipative_flow_against_dop853(pm2, n_samples, rtol, atol):
    _check_dissipative_flow(pm2, n_samples, rtol, atol, "DOP853")


@DISSIPATIVE_RUNS
def test_dissipative_flow_against_radau(pm2, n_samples, rtol, atol):
    # an implicit collocation method: no oracle shares the integrator's method
    _check_dissipative_flow(pm2, n_samples, rtol, atol, "Radau")


def test_dop853_tables_match_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    a = np.zeros((16, 16))
    for i, row in enumerate(dynamics._A):
        a[i, :i] = row
    assert np.array_equal(a, ref.A)
    assert np.array_equal(dynamics._B, ref.B)
    # the nodes are the row sums
    assert np.allclose(a.sum(axis=1), ref.C, rtol=0.0, atol=1e-13)
    assert np.array_equal(dynamics._E5, ref.E5[:12]) and ref.E5[12] == 0.0
    assert np.array_equal(dynamics._E3, ref.E3[:12]) and ref.E3[12] == 0.0
    assert np.array_equal(dynamics._D, ref.D)


def test_sample_grid_does_not_set_the_step(pm):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 100.0, rtol=1e-10, atol=1e-10, n_samples=2001)
    assert len(traj.points) == 2001
    assert traj.stats.accepted <= 100
    assert traj.stats.rhs_evaluations <= 600
    # nor does the winding rate: a quarter turn per step at rates (1, sqrt 2)
    # would cap every step at (pi/2)/sqrt 2
    assert traj.stats.max_step > 0.5 * np.pi / np.sqrt(2)


def test_integrator_against_harmonic_oracle():
    model = canonical(1)
    chart = model.atlas.chart("canonical")
    x0 = chart.point(np.array([0.0, 0.0, 1.0]))
    traj = flow(model, "(p1^2 + q1^2)/2", x0, 7.0, rtol=1e-11, atol=1e-12,
                n_samples=71)
    for t, p in zip(traj.times, traj.points):
        assert p.coords[1] == pytest.approx(np.sin(t), abs=1e-8)
        assert p.coords[2] == pytest.approx(np.cos(t), abs=1e-8)
        assert p.coords[0] == pytest.approx(-np.sin(2 * t) / 4.0, abs=1e-8)


def test_time_reversal(pm2):
    red = primer2(2, OMEGA, "2 + sin(phi2)").reduced
    chart = red.atlas.chart("N")
    x0 = chart.point(np.array([0.3, 0.9, 2.0, 0.4, -0.7]))
    forward = flow(red, None, x0, 20.0, rtol=1e-10, atol=1e-10, n_samples=11)
    back = flow(red, None, forward.points[-1], -20.0, rtol=1e-10, atol=1e-10,
                n_samples=11)
    gap = chart.shortest_arc_delta(back.points[-1].coords, x0.coords)
    assert np.max(np.abs(gap)) < 1e-6


def test_chart_switching_closed_form():
    model = primer(1, (1.0,), "2 + sin(phi1)", k=0)
    profile = parse("sin(phi1)")
    h = Section("f*s0", {cid: expr.multiply(profile, e)
                         for cid, e in model.section("s0").local.items()})
    chart = model.atlas.chart("V0")
    # at phi1 = pi the angles freeze and dJ1/dt = -cos(pi) = 1
    x0 = chart.point(np.array([0.2, np.pi, 0.11]))
    traj = flow(model, h, x0, 8.0, switch_tol=0.3, n_samples=161)
    assert len(traj.switches) == 1
    assert (traj.switches[0].src, traj.switches[0].dst) == ("V0", "V1")
    final = traj.points[-1]
    assert final.chart == "V1"
    assert final.coords[2] == pytest.approx(1.0 / 8.11, rel=1e-9)
    for t, p in zip(traj.times, traj.points):
        ratio = p.coords[2] if p.chart == "V0" else 1.0 / p.coords[2]
        assert ratio == pytest.approx(0.11 + t, rel=1e-9)


def test_a_switch_at_the_last_step_moves_the_last_sample():
    model = primer(1, (1.0,), "2 + sin(phi1)", k=0)
    profile = parse("sin(phi1)")
    h = Section("f*s0", {cid: expr.multiply(profile, e)
                         for cid, e in model.section("s0").local.items()})
    chart = model.atlas.chart("V0")
    x0 = chart.point(np.array([0.2, np.pi, 0.11]))
    # V0's health 1/sqrt(1 + J1^2) falls under 0.3 at t = 3.07, inside the
    # last step: the switch is at its end, t = 3.2
    traj = flow(model, h, x0, 3.2, switch_tol=0.3, n_samples=33)
    assert [(s.time, s.src, s.dst) for s in traj.switches] == [(3.2, "V0", "V1")]
    assert [p.chart for p in traj.points] == ["V0"] * 32 + ["V1"]
    for t, p in zip(traj.times, traj.points):
        ratio = p.coords[2] if p.chart == "V0" else 1.0 / p.coords[2]
        assert ratio == pytest.approx(0.11 + t, rel=1e-9)


@pytest.mark.parametrize("t_final", [0.0, float("nan"), float("inf"), -float("inf")])
def test_flow_refuses_a_zero_or_non_finite_horizon(t_final):
    model = canonical(1)
    x0 = model.atlas.chart("canonical").point(np.zeros(3))
    with pytest.raises(ValueError, match="finite and nonzero"):
        flow(model, "q1", x0, t_final, max_steps=10)


def test_leaving_the_atlas():
    names = ("q0", "q1", "p1")
    chart = Chart("box", names,
                  (expr.literal(1.0), expr.coordinate("p1"), expr.literal(0.0)),
                  (False,) * 3, ((-np.inf, np.inf), (-2.0, 2.0), (-np.inf, np.inf)))
    model = Model("box", Atlas([chart]),
                  (Section("s", {"box": parse("p1")}),), 0,
                  Section("s", {"box": parse("p1")}))
    x0 = chart.point(np.array([0.0, 0.0, 1.0]))   # q1 grows at unit rate
    with pytest.raises(LeftAtlas) as err:
        flow(model, None, x0, 5.0, n_samples=11)
    assert 1.5 < err.value.time <= 2.01


def test_a_sample_outside_the_chart_rejects_the_step():
    # q1 = sin t peaks at 1 above the wall, so the sample at t = pi/2 lies
    # outside the chart although steps can end inside on either side of the
    # excursion.  At 1 - 1e-6 the flow comes to rest one ulp below the wall:
    # a step short enough to be accepted leaves q1 where it is.
    for wall in (2e-5, 1e-6):
        names = ("q0", "q1", "p1")
        chart = Chart("box", names,
                      (expr.literal(1.0), expr.coordinate("p1"), expr.literal(0.0)),
                      (False,) * 3, ((-np.inf, np.inf), (-2.0, 1.0 - wall), (-np.inf, np.inf)))
        h = Section("h", {"box": parse("(p1^2 + q1^2)/2")})
        model = Model("box", Atlas([chart]), (h,), 0, h)
        x0 = chart.point(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(LeftAtlas) as err:
            flow(model, None, x0, np.pi, n_samples=3, max_steps=3000)
        assert err.value.time == pytest.approx(np.arcsin(1.0 - wall), abs=1e-6)


def test_step_size_underflow(pm2):
    red = pm2.reduced
    chart = red.atlas.chart("N")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.5, 0.5]))
    fast = Section("fast", {"N": parse("1e16*p0")})
    with pytest.raises(StepSizeUnderflow):
        flow(red, fast, x0, 1.0, n_samples=11)


def test_drift_constant_quantity(pm):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    traj = flow(pm, None, x0, 5.0, n_samples=26)
    records = drift(traj, {"const": lambda p: 4.2})
    assert records["const"].max_drift == 0.0


def test_drift_of_ratio_integrals(pm):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 100.0, rtol=1e-10, atol=1e-10, n_samples=401)
    quantities = {f"{name}/s0": section_ratio(pm.atlas, pm.section(name),
                                              pm.section("s0"))
                  for name in ("s1", "s2", "f*s0")}
    for name, record in drift(traj, quantities).items():
        assert record.max_drift < 1e-6, name


def test_drift_ratio_of_momenta():
    # both momenta satisfy the same scalar linear equation, so their ratio
    # is conserved; a positive profile keeps them away from the noise floor
    red = primer2(2, OMEGA, "2 + sin(phi2)").reduced
    chart = red.atlas.chart("N")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.8, -0.5]))
    traj = flow(red, None, x0, 40.0, n_samples=201)
    ratio = section_ratio(red.atlas, red.section("p0"), red.section("p1"))
    records = drift(traj, {"p0/p1": ratio})
    assert records["p0/p1"].max_drift < 1e-6


def test_momentum_fiber_invariance(pm):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 100.0, rtol=1e-10, atol=1e-10, n_samples=401)
    start = momentum(pm.atlas, pm.sections, traj.points[0])
    worst = max(np.max(np.abs(momentum(pm.atlas, pm.sections, p).homogeneous
                              - start.homogeneous)) for p in traj.points)
    assert worst < 1e-6


def test_zero_divisor_invariance(pm):
    # a trajectory started on the zero set of s0 stays on it
    chart = pm.atlas.chart("V1")
    x0 = chart.point(np.array([0.2, 0.5, 1.4, 0.0, 0.9]))   # J0 = 0 kills s0
    traj = flow(pm, None, x0, 100.0, n_samples=201)
    for t, p in zip(traj.times, traj.points):
        value = pm.section("s0").on(p.chart).eval(
            pm.atlas.chart(p.chart).bindings(p.coords))
        assert abs(value) < 1e-6 * (1.0 + abs(t))


def test_frequencies_of_winding(pm):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 100.0, rtol=1e-10, atol=1e-10, n_samples=2001)
    fit = frequencies(traj, [0, 1, 2], pm.atlas)
    assert np.allclose(fit.omegas, [1.0, np.sqrt(2.0), 0.0], atol=1e-6)
    assert np.max(fit.residuals) < 1e-6


def test_frequencies_constant_angle(pm):
    zero = Section("zero", {cid: expr.literal(0.0) for cid in pm.atlas.chart_ids})
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.3, 0.6, 0.9, 0.5, 0.8]))
    traj = flow(pm, zero, x0, 5.0, n_samples=26)
    fit = frequencies(traj, [0], pm.atlas)
    assert fit.omegas[0] == pytest.approx(0.0, abs=1e-12)


def test_frequencies_nonlinear_phase(pm2):
    # strictly positive profile: phi2 winds with a nonzero mean rate but the
    # residual reveals the nonuniform phase
    red = primer2(2, OMEGA, "2 + sin(phi2)").reduced
    chart = red.atlas.chart("N")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.4, 0.2]))
    traj = flow(red, None, x0, 60.0, n_samples=1201)
    fit = frequencies(traj, [2], red.atlas)
    assert fit.omegas[0] > 0.5
    assert fit.residuals[0] > 1e-3


def test_frequencies_follow_names_across_reordered_chart():
    # the chart-switch atlas with V1's angles stored as (phi1, phi0): phi1
    # winds at 0.1 and phi0 = phi0(0) + 10 sin(0.1 t)
    def chart(cid, coords, alpha, ratio):
        return {"id": cid, "coordinates": coords, "periodic": ["phi0", "phi1"],
                "alpha": alpha, "domain": {ratio: [-1e6, 1e6]},
                "denominator": f"1/sqrt(1 + {ratio}^2)"}

    model = from_config({
        "name": "reordered",
        "charts": [chart("V0", ["phi0", "phi1", "J1"], ["1", "J1", "0"], "J1"),
                   chart("V1", ["phi1", "phi0", "J0"], ["1", "J0", "0"], "J0")],
        "overlaps": [
            {"from": "V0", "to": "V1", "map": ["phi1", "phi0", "1/J1"], "factor": "J1"},
            {"from": "V1", "to": "V0", "map": ["phi0", "phi1", "1/J0"], "factor": "J0"}],
        "sections": [{"name": "h", "local": {"V0": "sin(phi1) + 0.1*J1",
                                             "V1": "sin(phi1)*J0 + 0.1"}}],
        "r": 0, "hamiltonian": "h"})
    x0 = model.atlas.chart("V0").point(np.array([0.3, 0.5 * np.pi, 0.11]))
    traj = flow(model, None, x0, 20.0, switch_tol=0.3, n_samples=201)
    assert [s.dst for s in traj.switches] == ["V1"]
    fit = frequencies(traj, [0, 1], model.atlas)
    t = traj.times
    slope = np.polyfit(t, 0.3 + 10.0 * np.sin(0.1 * t), 1)[0]
    assert fit.omegas == pytest.approx([slope, 0.1], abs=1e-6)


def test_frequencies_reject_chart_without_the_name():
    def chart(cid, angle):
        return Chart(cid, (angle, "q1", "p1"),
                     (expr.literal(1.0), expr.coordinate("p1"), expr.literal(0.0)),
                     (True, False, False),
                     ((0.0, 2 * np.pi), (-np.inf, np.inf), (-np.inf, np.inf)))

    atlas = Atlas([chart("A", "phi"), chart("B", "psi")])
    points = [Point("A" if i < 6 else "B", np.array([0.1 * i, 0.0, 1.0]))
              for i in range(12)]
    traj = Trajectory(np.linspace(0.0, 1.0, 12), points, [], ControllerStats())
    with pytest.raises(ValueError, match="'B'.*'phi'"):
        frequencies(traj, [0], atlas)
    with pytest.raises(ValueError, match="changes chart"):
        frequencies(traj, [0])


@pytest.mark.parametrize("n_samples", [9, 10])
def test_frequencies_need_samples(pm, n_samples):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 1.0, n_samples=n_samples)
    if n_samples < 10:
        with pytest.raises(InsufficientSamples):
            frequencies(traj, [0], pm.atlas)
    else:
        assert frequencies(traj, [0], pm.atlas).omegas[0] == pytest.approx(1.0, abs=1e-9)


def test_loop_integral_normal_form_chart():
    chart = normal_form_chart()
    base = np.array([0.0, 0.0, 1.7, -0.3, 0.9])
    phi0 = loop_integral(chart, coordinate_circle(chart, 0, base))
    phi1 = loop_integral(chart, coordinate_circle(chart, 1, base))
    assert phi0.value == pytest.approx(3.0, abs=1e-12)
    assert phi1.value == pytest.approx(1.7, abs=1e-12)
    assert phi0.refinement_error < 1e-12


def test_loop_integral_projective_fibers(pm):
    chart = pm.atlas.chart("V0")
    base = np.array([0.4, 1.2, 2.6, 0.8, -0.6])
    values = [loop_integral(chart, coordinate_circle(chart, j, base)).value
              for j in range(3)]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values[1] == pytest.approx(0.8, abs=1e-12)
    assert values[2] == pytest.approx(-0.6, abs=1e-12)


def test_loop_integral_double_traversal(pm):
    chart = pm.atlas.chart("V0")
    base = np.array([0.4, 1.2, 2.6, 0.8, -0.6])
    single = coordinate_circle(chart, 1, base)
    double = Cycle(point=lambda s: single.point(2.0 * s),
                   velocity=lambda s: 2.0 * single.velocity(2.0 * s))
    a = loop_integral(chart, single)
    b = loop_integral(chart, double)
    assert b.value == pytest.approx(2.0 * a.value, abs=1e-12)


def test_loop_integral_rejects_open_curve():
    chart = canonical_chart(1)
    arc = Cycle(point=lambda s: np.multiply.outer(s, [0.0, 1.0, 0.0]) + [0.0, 0.0, 0.3],
                velocity=lambda s: np.tile([0.0, 1.0, 0.0], (len(s), 1)))
    with pytest.raises(NotClosed):
        loop_integral(chart, arc)


def test_controller_statistics(pm):
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 10.0, n_samples=11)
    assert traj.stats.accepted > 0
    assert traj.stats.rhs_evaluations >= 6 * traj.stats.accepted
    assert 0.0 < traj.stats.min_step <= traj.stats.max_step


def test_backward_flow_switches_charts_back():
    model = primer(1, (1.0,), "2 + sin(phi1)", k=0)
    profile = expr.parse("sin(phi1)")
    h = Section("f*s0", {cid: expr.multiply(profile, e)
                         for cid, e in model.section("s0").local.items()})
    chart = model.atlas.chart("V0")
    x0 = chart.point(np.array([0.2, np.pi, 0.11]))
    forward = flow(model, h, x0, 8.0, switch_tol=0.3, n_samples=81)
    assert [s.dst for s in forward.switches] == ["V1"]
    back = flow(model, h, forward.points[-1], -8.0, switch_tol=0.3, n_samples=81)
    assert [s.dst for s in back.switches] == ["V0"]
    final = back.points[-1]
    assert final.chart == "V0"
    assert np.max(np.abs(chart.shortest_arc_delta(final.coords, x0.coords))) < 1e-8


@pytest.mark.parametrize("make, start, t_final, options, switches", [
    (lambda: primer(2, OMEGA, "2 + sin(phi2)", k=0), [0.3, 0.5, 1.0, 0.7, -1.3], 100.0,
     {"n_samples": 2001}, 0),
    (lambda: from_config(CHART_SWITCH_CONFIG), [0.4, np.pi / 2, 0.11], -200.0,
     {"n_samples": 401, "switch_tol": 0.3}, 7),
], ids=["primer", "chart-switch-backwards"])
def test_flow_makes_a_point_only_for_the_start(monkeypatch, make, start, t_final, options,
                                               switches):
    """A sample is a row of a step's checked stack or the wrapped end state,
    and equals what ``Chart.point`` makes of its coordinates on its chart."""
    model = make()
    x0 = model.atlas.chart("V0").point(np.array(start))
    point = Chart.point
    calls = []

    def counted(chart, coords):
        calls.append(chart.id)
        return point(chart, coords)

    monkeypatch.setattr(Chart, "point", counted)
    traj = flow(model, None, x0, t_final, **options)
    monkeypatch.undo()
    assert calls == ["V0"]
    assert len(traj.points) == options["n_samples"]
    assert len(traj.switches) == switches
    for p in traj.points:
        assert not p.coords.flags.writeable
        assert model.atlas.chart(p.chart).point(p.coords).coords.tobytes() == p.coords.tobytes()


def test_drift_error_carries_sample_time(pm):
    from contactkit.dynamics import SampleEvaluationError
    chart = pm.atlas.chart("V0")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
    traj = flow(pm, None, x0, 2.0, n_samples=11)

    def explode(point):
        if point.coords[0] > 0.5:
            raise ValueError("boom")
        return 1.0

    with pytest.raises(SampleEvaluationError) as err:
        drift(traj, {"q": explode})
    assert 0.5 < err.value.time <= 0.8


def test_momentum_fiber_invariance_commuting_family():
    red = primer2(2, OMEGA, "2 + sin(phi2)").reduced
    chart = red.atlas.chart("N")
    x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.8, -0.5]))
    traj = flow(red, None, x0, 100.0, rtol=1e-10, atol=1e-10, n_samples=401)
    start = momentum(red.atlas, red.sections, traj.points[0])
    worst = max(np.max(np.abs(momentum(red.atlas, red.sections, p).homogeneous
                              - start.homogeneous)) for p in traj.points)
    assert worst < 1e-6
