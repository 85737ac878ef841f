"""The canonical bracket, the dissipative flow equations and the
nondegeneracy residual against sympy."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactkit import expr
from contactkit.geometry import Chart, contact_check
from contactkit.jacobi import bracket, ham_field
from contactkit.models import _chart_samples, canonical, from_config, primer
from helpers import canonical_chart, random_expression, random_polynomial
from sympy_oracle import canonical_bracket, contact_volume, dissipative_field

_SEED = st.integers(0, 2**32 - 1)


def _formula(chart, seed, smooth):
    rng = np.random.default_rng(seed)
    if smooth:
        return random_expression(rng, chart.names, depth=4)
    return random_polynomial(rng, chart.names)


def _point(chart, seed):
    return np.random.default_rng(seed).uniform(-1.5, 1.5, chart.dim)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(seeds=st.tuples(_SEED, _SEED, _SEED), smooth=st.booleans())
def test_bracket_against_sympy(n, seeds, smooth):
    chart = canonical_chart(n)
    f, g = _formula(chart, seeds[0], smooth), _formula(chart, seeds[1], smooth)
    x = _point(chart, seeds[2])
    expected = canonical_bracket(f, g, chart, x)
    assert abs(bracket(chart, f, g, x) - expected) <= 1e-11 * (1.0 + abs(expected))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(seeds=st.tuples(_SEED, _SEED), smooth=st.booleans())
def test_dissipative_equations_against_sympy(n, seeds, smooth):
    chart = canonical_chart(n)
    f = _formula(chart, seeds[0], smooth)
    x = _point(chart, seeds[1])
    expected = np.array(dissipative_field(f, chart, x))
    computed = ham_field(chart, f, x).components
    assert np.all(np.abs(computed - expected) <= 1e-12 * (1.0 + np.abs(expected)))


def _tilted(eps):
    """``alpha = dz + eps x dy``: ``alpha ^ d alpha = eps dx ^ dy ^ dz``."""
    tilt = expr.multiply(expr.literal(eps), expr.coordinate("x"))
    return Chart("tilted", ("x", "y", "z"), (expr.literal(0.0), tilt, expr.literal(1.0)),
                 (False,) * 3, ((-np.inf, np.inf),) * 3)


def _residual_charts():
    yield pytest.param(canonical(2).atlas.chart("canonical"), id="canonical")
    for chart in primer(2, (1.0, math.sqrt(2.0)), "2 + sin(phi2)", 0).atlas.charts.values():
        yield pytest.param(chart, id=f"primer-{chart.id}")
    config = Path(__file__).resolve().parent.parent / "perfbench" / "chart_switch.yaml"
    for chart in from_config(config).atlas.charts.values():
        yield pytest.param(chart, id=f"chart-switch-{chart.id}")
    yield pytest.param(_tilted(1e-3), id="tilted")
    # a volume that varies: alpha ^ d alpha = -exp(q0) dq0 ^ dq1 ^ dp1
    yield pytest.param(Chart("exp", ("q0", "q1", "p1"),
                             tuple(map(expr.parse, ["exp(q0)", "p1", "0"])),
                             (False,) * 3, ((-np.inf, np.inf),) * 3), id="exp")


@pytest.mark.parametrize("chart", list(_residual_charts()))
def test_nondegeneracy_residual_is_the_squared_contact_volume(chart):
    samples = _chart_samples(chart, 8)
    got = contact_check(chart, samples).det_proxy
    for residual, x in zip(got, samples):
        want = contact_volume(chart, x) ** 2
        assert abs(residual - want) <= 1e-12 * max(1.0, want), (x, residual, want)
