"""The canonical bracket and the dissipative flow equations against sympy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactkit.jacobi import bracket, ham_field
from helpers import canonical_chart, random_expression, random_polynomial
from sympy_oracle import canonical_bracket, dissipative_field

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
