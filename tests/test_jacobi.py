import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactkit import expr
from contactkit.expr import parse
from contactkit.geometry import ChartField, alpha_at, frame_at
from contactkit.jacobi import (PreconditionFailed, _field_components, bracket, ham_field,
                               independence, iso_residual, make_symmetry)
from contactkit.models import from_config, primer2
from helpers import (CHART_SWITCH_CONFIG, canonical_bracket_oracle, canonical_chart,
                     contact_field_oracle, dissipative_oracle, random_polynomial)


@pytest.fixture(scope="module")
def chart():
    return canonical_chart(2)


def random_points(rng, dim, count, scale=1.2):
    return rng.uniform(-scale, scale, size=(count, dim))


def test_unit_hamiltonian_gives_reeb(chart):
    x = np.array([0.3, -0.8, 0.5, 1.1, 0.2])
    field = ham_field(chart, parse("1"), x).components
    fr = frame_at(chart, x)
    assert np.allclose(field, fr.reeb, atol=1e-12)


def test_momentum_hamiltonian(chart):
    # f = p1 generates the translation along q1 (the q0 terms cancel)
    x = np.array([0.2, 0.4, -0.6, 0.9, 1.3])
    field = ham_field(chart, parse("p1"), x).components
    assert np.allclose(field, [0, 1, 0, 0, 0], atol=1e-12)


def test_field_matches_flow_equations(chart):
    rng = np.random.default_rng(51)
    for _ in range(20):
        f = random_polynomial(rng, chart.names)
        for x in random_points(rng, chart.dim, 5):
            computed = ham_field(chart, f, x).components
            assert np.max(np.abs(computed - dissipative_oracle(f, chart, x))) < 1e-12


@pytest.fixture(scope="module")
def field_cases():
    """(chart, generators) on the switching atlas's charts and primer2(2) V2."""
    switching = from_config(CHART_SWITCH_CONFIG)
    model = primer2(2, (1.0, np.sqrt(2.0)), "sin(phi2)")
    cases = [(switching.atlas.chart(cid), [s.on(cid) for s in switching.sections])
             for cid in ("V0", "V1")]
    cases.append((model.atlas.chart("V2"), [s.on("V2") for s in model.sections]))
    return cases


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 2),
       unit=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_field_matches_defining_equations(field_cases, case, unit, seed):
    chart, generators = field_cases[case]
    box = chart.effective_sample_box()
    x = np.array([lo + u * (hi - lo) for (lo, hi), u in zip(box, unit)])
    rng = np.random.default_rng(seed)
    for f in [*generators, random_polynomial(rng, chart.names)]:
        computed = ham_field(chart, f, x).components
        reference = contact_field_oracle(f, chart, x)
        assert np.linalg.norm(computed - reference) <= 1e-12 * np.linalg.norm(reference)


def test_generating_relation(chart):
    rng = np.random.default_rng(53)
    for _ in range(20):
        f = random_polynomial(rng, chart.names)
        for x in random_points(rng, chart.dim, 5):
            value = f.eval(chart.bindings(x))
            field = ham_field(chart, f, x).components
            assert abs(alpha_at(chart, x).components @ field - value) < 1e-10


def test_bracket_self_vanishes(chart):
    f = parse("q0*p1 + sin(q1)")
    x = np.array([0.5, 0.1, 0.9, -0.2, 0.7])
    assert abs(bracket(chart, f, f, x)) < 1e-12


def test_bracket_with_unit_is_reeb_derivative(chart):
    rng = np.random.default_rng(59)
    for _ in range(10):
        f = random_polynomial(rng, chart.names)
        x = rng.uniform(-1, 1, 5)
        expected = f.eval_dual(chart.bindings(x), {"q0": 1.0})[1]
        assert abs(bracket(chart, parse("1"), f, x) - expected) < 1e-11


def test_bracket_p1_q1(chart):
    rng = np.random.default_rng(61)
    p1, q1 = parse("p1"), parse("q1")
    for x in random_points(rng, 5, 10, scale=2.0):
        assert bracket(chart, p1, q1, x) == pytest.approx(1.0, abs=1e-11)
        oracle = canonical_bracket_oracle(p1, q1, chart, x)
        assert oracle == pytest.approx(1.0, abs=1e-12)


def test_bracket_matches_explicit_formula(chart):
    rng = np.random.default_rng(67)
    for _ in range(15):
        f = random_polynomial(rng, chart.names)
        g = random_polynomial(rng, chart.names)
        for x in random_points(rng, 5, 4):
            lhs = bracket(chart, f, g, x)
            rhs = canonical_bracket_oracle(f, g, chart, x)
            assert abs(lhs - rhs) < 1e-11


def test_bracket_antisymmetry(chart):
    rng = np.random.default_rng(71)
    for _ in range(15):
        f = random_polynomial(rng, chart.names)
        g = random_polynomial(rng, chart.names)
        for x in random_points(rng, 5, 4):
            assert abs(bracket(chart, f, g, x) + bracket(chart, g, f, x)) < 1e-10


def test_bracket_jacobi_identity(chart):
    rng = np.random.default_rng(73)
    for _ in range(5):
        f, g, h = (random_polynomial(rng, chart.names, terms=3) for _ in range(3))
        for x in random_points(rng, 5, 2, scale=0.8):
            def nest(a, b, c):
                inner = lambda y: bracket(chart, b, c, y)
                return bracket(chart, a, inner, x)
            total = nest(f, g, h) + nest(g, h, f) + nest(h, f, g)
            assert abs(total) < 1e-6


def test_bracket_breaks_product_rule(chart):
    # search over monomials for a witness that the bracket is no derivation
    monomials = [parse(t) for t in ("1", "q0", "q1", "p1", "q0*q0", "p1*q1")]
    x = np.array([1.0, 0.7, -0.4, 0.5, 1.2])
    witnesses = []
    for f, g, h in itertools.product(monomials, repeat=3):
        lhs = bracket(chart, f, expr.multiply(g, h), x)
        rhs = (g.eval(chart.bindings(x)) * bracket(chart, f, h, x)
               + h.eval(chart.bindings(x)) * bracket(chart, f, g, x))
        if abs(lhs - rhs) > 0.1:
            witnesses.append((str(f), str(g), str(h), lhs - rhs))
    assert witnesses
    # the defect of (q0, q0, q0) is concrete and sizable at this point
    f = g = h = parse("q0")
    lhs = bracket(chart, f, expr.multiply(g, h), x)
    rhs = 2.0 * x[0] * bracket(chart, f, g, x)
    assert abs(lhs - rhs) > 0.1


def test_iso_residual_coincident(chart):
    f = parse("q0 + p1*q1")
    x = np.array([0.2, 0.5, -0.1, 0.3, 0.8])
    assert iso_residual(chart, f, f, x) < 1e-8


def test_iso_residual_unit(chart):
    rng = np.random.default_rng(79)
    g = parse("sin(q1) + p2*q2")
    for x in random_points(rng, 5, 5):
        assert iso_residual(chart, parse("1"), g, x) < 1e-6


def test_iso_residual_random_pairs(chart):
    rng = np.random.default_rng(83)
    for _ in range(5):
        f = random_polynomial(rng, chart.names, terms=3)
        g = random_polynomial(rng, chart.names, terms=3)
        x = rng.uniform(-1, 1, 5)
        assert iso_residual(chart, f, g, x) < 1e-6


def test_independence_of_momenta():
    chart = canonical_chart(3)
    rng = np.random.default_rng(89)
    fs = [parse("p1"), parse("p2")]
    for x in random_points(rng, 7, 20, scale=2.0):
        report = independence(chart, x, fs)
        assert report.dim_span_with_reeb == 3
        assert report.dim_span_without == 2
        assert report.rank_wedge == 3


def test_independence_constant_collapses(chart):
    x = np.array([0.3, 0.4, 0.5, 0.6, 0.7])
    with_const = independence(chart, x, [parse("p1"), parse("2")])
    without = independence(chart, x, [parse("p1")])
    assert with_const.rank_wedge == without.rank_wedge  # d(const) adds nothing


def test_independence_degenerate_at_zero_momentum(chart):
    # d q0 equals alpha where p = 0, and X_q0 aligns with the Reeb field
    x = np.array([1.3, 0.2, -0.5, 0.0, 0.0])
    report = independence(chart, x, [parse("q0")])
    assert report.rank_wedge == 1
    assert report.dim_span_with_reeb == 1


def test_make_symmetry_unit_integral(chart):
    rng = np.random.default_rng(97)
    points = random_points(rng, 5, 8)
    h, s = parse("p1"), parse("p2")
    product, report = make_symmetry(chart, h, s, parse("1"), points)
    assert report.max_residual < 1e-10
    for x in points:
        env = chart.bindings(x)
        assert product.eval(env) == s.eval(env)


def test_make_symmetry_ratio_integral(chart):
    rng = np.random.default_rng(101)
    points = rng.uniform(0.5, 1.5, size=(10, 5))   # keeps p1 away from zero
    h, s, f = parse("p1"), parse("p1"), parse("p2/p1")
    product, report = make_symmetry(chart, h, s, f, points)
    assert report.max_residual < 1e-8
    assert str(product)  # printable composite expression


def test_make_symmetry_rejects_non_integral(chart):
    rng = np.random.default_rng(103)
    points = rng.uniform(0.5, 1.0, size=(5, 5))
    with pytest.raises(PreconditionFailed):
        make_symmetry(chart, parse("p1"), parse("p2"), parse("q1"), points)
    with pytest.raises(PreconditionFailed):
        make_symmetry(chart, parse("p1"), parse("q1"), parse("1"), points)


def test_a_chart_field_is_evaluated_by_one_jet_call(chart, monkeypatch):
    # the field and the bracket of chart fields read the value and the
    # gradient from one kernel jet; the separate entry points must not run
    x = np.array([0.3, -0.8, 0.5, 1.1, 0.2])
    f = ChartField(chart, "q1*p2 + sin(q2)")
    g = ChartField(chart, "p1^2 - q0*q2")
    want_field = _field_components(frame_at(chart, x), f)
    want_bracket = bracket(chart, f, g, x)

    def forbidden(self, x):
        raise AssertionError("separate value or gradient call")

    monkeypatch.setattr(ChartField, "__call__", forbidden)
    monkeypatch.setattr(ChartField, "gradient", forbidden)
    assert np.array_equal(_field_components(frame_at(chart, x), f), want_field)
    assert bracket(chart, f, g, x) == want_bracket
    # a plain callable still goes through numkernel.grad
    plain = bracket(chart, lambda y: y[1] * y[4] + np.sin(y[2]), g, x)
    assert plain == pytest.approx(want_bracket, abs=1e-8)
