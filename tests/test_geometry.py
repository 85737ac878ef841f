import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from contactkit import expr
from contactkit.expr import UnboundName, parse
from contactkit.geometry import (Chart, ChartField, NotInZ0, OutOfDomain, alpha_at,
                                 contact_check, dalpha_at, decompose_vector,
                                 frame_at, reeb_at, sharp)
from contactkit.models import primer
from contactkit.numkernel import SingularSystem
from helpers import (canonical_chart, normal_form_chart, random_expression, random_polynomial,
                     reference_eval, reference_gradient)


@pytest.fixture(scope="module")
def primer_model():
    return primer(2, (1.0, np.sqrt(2.0)), "2 + sin(phi2)", k=0)


def test_alpha_canonical():
    chart = canonical_chart(2)
    x = np.array([0.5, 0.1, -0.7, 1.3, 0.4])
    assert np.allclose(alpha_at(chart, x).components, [1.0, 1.3, 0.4, 0.0, 0.0])


def test_alpha_projective_charts(primer_model):
    for i, cid in enumerate(primer_model.atlas.chart_ids):
        chart = primer_model.atlas.chart(cid)
        x = np.array([0.3, 1.1, 2.2, 0.8, -0.4])
        a = alpha_at(chart, x).components
        assert a[i] == 1.0                      # the unit ratio slot
        assert np.allclose(a[3:], 0.0)          # nothing on the ratio slots


def test_alpha_normal_form_chart():
    chart = normal_form_chart()
    x = np.array([0.4, 5.0, 1.7, -0.3, 0.9])
    assert np.allclose(alpha_at(chart, x).components, [3.0, 1.7, 0.0, 0.9, 0.0])


def test_dalpha_canonical():
    n = 2
    chart = canonical_chart(n)
    x = np.array([0.2, -0.4, 0.9, 1.1, -0.6])
    omega = dalpha_at(chart, x)
    expected = np.zeros((5, 5))
    for i in range(n):
        expected[n + 1 + i, 1 + i] = 1.0
        expected[1 + i, n + 1 + i] = -1.0
    assert np.allclose(omega, expected)
    assert np.allclose(omega, -omega.T)


def test_dalpha_constant_form_vanishes():
    names = ("a", "b", "c")
    chart = Chart("flat", names,
                  (expr.literal(2.0), expr.literal(-1.0), expr.literal(0.5)),
                  (False,) * 3, ((-np.inf, np.inf),) * 3)
    assert np.allclose(dalpha_at(chart, np.array([0.3, 1.0, -2.0])), 0.0)


def test_dalpha_projective_chart(primer_model):
    # d alpha on V_i pairs each ratio with its own angle slot
    chart = primer_model.atlas.chart("V0")
    x = np.array([0.5, 1.5, 2.5, 0.7, -1.1])
    omega = dalpha_at(chart, x)
    expected = np.zeros((5, 5))
    expected[3, 1] = 1.0   # J1 with phi1
    expected[1, 3] = -1.0
    expected[4, 2] = 1.0   # J2 with phi2
    expected[2, 4] = -1.0
    assert np.allclose(omega, expected)


def test_reeb_canonical():
    chart = canonical_chart(2)
    x = np.array([0.0, 0.3, -0.5, 1.7, 0.2])
    assert np.allclose(reeb_at(chart, x).components, [1, 0, 0, 0, 0], atol=1e-12)


def test_reeb_projective_charts(primer_model):
    for i, cid in enumerate(primer_model.atlas.chart_ids):
        chart = primer_model.atlas.chart(cid)
        x = np.array([0.3, 1.1, 2.2, 0.8, -0.4])
        z = reeb_at(chart, x).components
        expected = np.zeros(5)
        expected[i] = 1.0
        assert np.allclose(z, expected, atol=1e-12)


def test_reeb_of_rescaled_form():
    # doubling the form halves the Reeb field
    chart = canonical_chart(1)
    doubled = Chart("double", chart.names,
                    (expr.literal(2.0), expr.parse("2*p1"), expr.literal(0.0)),
                    chart.periodic, chart.bounds)
    x = np.array([0.1, 0.2, 0.9])
    assert np.allclose(reeb_at(doubled, x).components, [0.5, 0, 0], atol=1e-12)


def test_reeb_defining_conditions_random(primer_model):
    rng = np.random.default_rng(23)
    charts = [canonical_chart(2), normal_form_chart()] + \
        [primer_model.atlas.chart(cid) for cid in primer_model.atlas.chart_ids]
    for chart in charts:
        box = chart.effective_sample_box()
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        for _ in range(100):
            x = lo + rng.random(chart.dim) * (hi - lo)
            fr = frame_at(chart, x)
            assert abs(fr.alpha @ fr.reeb - 1.0) < 1e-10
            assert np.max(np.abs(fr.omega @ fr.reeb)) < 1e-10


def test_sharp_hand_solved():
    chart = canonical_chart(2)
    x = np.array([0.4, 0.6, -0.2, 0.8, 1.5])
    dq1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(sharp(chart, x, dq1).components,
                       [0, 0, 0, -1, 0], atol=1e-12)
    dp1 = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(sharp(chart, x, dp1).components,
                       [-0.8, 1, 0, 0, 0], atol=1e-12)


def test_sharp_zero():
    chart = canonical_chart(1)
    x = np.array([0.0, 0.0, 0.5])
    assert np.allclose(sharp(chart, x, np.zeros(3)).components, 0.0, atol=1e-13)


def test_sharp_rejects_alpha_direction():
    chart = canonical_chart(1)
    x = np.array([0.0, 0.0, 0.5])
    with pytest.raises(NotInZ0):
        sharp(chart, x, np.array([1.0, 0.5, 0.0]))  # this is alpha itself


def test_sharp_inverts_flat():
    rng = np.random.default_rng(31)
    chart = canonical_chart(2)
    for _ in range(30):
        x = rng.uniform(-1.5, 1.5, 5)
        fr = frame_at(chart, x)
        v = rng.uniform(-1, 1, 5)
        v -= (fr.alpha @ v) * fr.reeb            # horizontal part
        eta = -fr.omega @ v * -1.0               # flat(v) = omega @ v
        recovered = fr.sharp(fr.omega @ v)
        assert np.linalg.norm(recovered - v) < 1e-9
        assert np.max(np.abs(eta - fr.omega @ v)) < 1e-12


def test_decompose_reeb():
    chart = canonical_chart(2)
    x = np.array([0.7, -0.3, 0.2, 1.1, 0.9])
    fr = frame_at(chart, x)
    along, horizontal = decompose_vector(chart, x, fr.reeb)
    assert along == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(horizontal.components) < 1e-12


def test_decompose_horizontal_vector():
    chart = canonical_chart(1)
    x = np.array([0.0, 0.0, 0.7])
    v = np.array([-0.7, 1.0, 0.0])               # alpha(v) = -0.7 + 0.7 = 0
    along, horizontal = decompose_vector(chart, x, v)
    assert abs(along) < 1e-14
    assert np.allclose(horizontal.components, v)


def test_decompose_coordinate_direction():
    chart = canonical_chart(2)
    x = np.array([0.0, 0.0, 0.0, 0.8, -0.1])
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    along, horizontal = decompose_vector(chart, x, v)
    assert along == pytest.approx(0.8)
    assert np.allclose(horizontal.components, [-0.8, 1, 0, 0, 0])


def test_decompose_reconstructs():
    rng = np.random.default_rng(41)
    chart = canonical_chart(2)
    for _ in range(50):
        x = rng.uniform(-2, 2, 5)
        v = rng.uniform(-2, 2, 5)
        along, horizontal = decompose_vector(chart, x, v)
        fr = frame_at(chart, x)
        assert np.linalg.norm(along * fr.reeb + horizontal.components - v) < 1e-12
        assert abs(fr.alpha @ horizontal.components) < 1e-12


def test_contact_check_canonical_unit_determinant():
    rng = np.random.default_rng(43)
    chart = canonical_chart(2)
    for _ in range(25):
        x = rng.uniform(-3, 3, 5)
        result = contact_check(chart, x)
        assert result.ok
        assert result.det_proxy == pytest.approx(1.0, abs=1e-9)


def test_contact_check_degenerate_form():
    names = ("q0", "q1", "p1")
    chart = Chart("degenerate", names,
                  (expr.literal(1.0), expr.literal(0.0), expr.literal(0.0)),
                  (False,) * 3, ((-np.inf, np.inf),) * 3)
    result = contact_check(chart, np.array([0.1, 0.2, 0.3]))
    assert not result.ok
    assert result.rank == 0


def test_frame_rejects_degenerate_form():
    names = ("q0", "q1", "p1")
    chart = Chart("degenerate", names,
                  (expr.literal(1.0), expr.literal(0.0), expr.literal(0.0)),
                  (False,) * 3, ((-np.inf, np.inf),) * 3)
    with pytest.raises(SingularSystem):
        frame_at(chart, np.array([0.1, 0.2, 0.3]))


@pytest.mark.parametrize("eps, singular", [(1e-12, True), (1e-3, False)])
def test_frame_condition_threshold(eps, singular):
    # alpha = dz + eps x dy: d alpha = eps dx^dy, so alpha ^ d alpha = eps
    # dx^dy^dz and the bordered matrix has condition of order 1/eps
    names = ("x", "y", "z")
    tilt = expr.multiply(expr.literal(eps), expr.coordinate("x"))
    chart = Chart("tilted", names, (expr.literal(0.0), tilt, expr.literal(1.0)),
                  (False,) * 3, ((-np.inf, np.inf),) * 3)
    x = np.array([0.5, 0.2, 0.1])
    if singular:
        with pytest.raises(SingularSystem):
            frame_at(chart, x)
    else:
        assert np.allclose(frame_at(chart, x).reeb, [0.0, 0.0, 1.0], atol=1e-12)


def test_contact_check_projective(primer_model):
    chart = primer_model.atlas.chart("V1")
    result = contact_check(chart, np.array([0.3, 1.1, 2.2, 0.8, -0.4]))
    assert result.ok


def test_point_normalizes_periodic(primer_model):
    chart = primer_model.atlas.chart("V0")
    point = chart.point(np.array([2 * np.pi + 0.25, -0.5, 1.0, 0.3, 0.4]))
    assert point.coords[0] == pytest.approx(0.25)
    assert point.coords[1] == pytest.approx(2 * np.pi - 0.5)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1e-17)
@example(-2 * np.pi)
@example(2 * np.pi)
def test_wrap_lands_in_half_open_turn(angle):
    chart = normal_form_chart()
    wrapped = chart.wrap(np.array([angle, -angle, angle, 0.0, 0.0]))
    assert np.all((0.0 <= wrapped[:2]) & (wrapped[:2] < 2 * np.pi))
    assert wrapped[2] == angle


def test_point_outside_domain():
    names = ("q0", "q1", "p1")
    chart = Chart("box", names,
                  (expr.literal(1.0), expr.coordinate("p1"), expr.literal(0.0)),
                  (False,) * 3, ((-1.0, 1.0),) * 3)
    with pytest.raises(OutOfDomain):
        chart.point(np.array([0.0, 1.5, 0.0]))
    with pytest.raises(OutOfDomain):
        alpha_at(chart, np.array([0.0, 0.0, 2.0]))


def test_chart_field_raises_what_eval_raises_for_a_name_the_chart_lacks():
    chart = canonical_chart(1)
    e = parse("q1 * zz + p1 * aa")
    with pytest.raises(UnboundName) as want:
        e.eval(chart.bindings([0.0, 1.0, 2.0]))
    with pytest.raises(UnboundName) as got:
        ChartField(chart, e)
    assert (got.value.name, str(got.value)) == (want.value.name, str(want.value))
    assert got.value.name == "zz"


def test_chart_field_jet_is_the_value_and_the_gradient():
    rng = np.random.default_rng(53)
    chart = canonical_chart(2)
    for _ in range(30):
        e = random_expression(rng, chart.names, 3)
        field = ChartField(chart, e)
        x = rng.uniform(-1.2, 1.2, 5)
        value, gradient = field.jet(x)
        assert value == field(x) == reference_eval(e, chart.bindings(x))
        assert np.array_equal(gradient, reference_gradient(e, chart.bindings(x), chart.names))
    value, gradient = ChartField(chart, "2.5").jet(np.zeros(5))
    assert value == 2.5 and np.array_equal(gradient, np.zeros(5))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(47)
    chart = canonical_chart(2)
    from contactkit.geometry import ChartField
    from contactkit.numkernel import grad
    for _ in range(20):
        field = ChartField(chart, random_polynomial(rng, chart.names))
        x = rng.uniform(-1.2, 1.2, 5)
        exact = field.gradient(x)
        fd = grad(lambda y: field(y), x)
        assert np.max(np.abs(exact - fd) / (1.0 + np.abs(exact))) < 1e-6
