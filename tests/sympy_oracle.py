"""Symbolic oracle: expressions go to sympy through their printed text,
sympy differentiates them, and the results are evaluated exactly
(rationals) or to 30 digits, so no derivative here comes from contactkit's
own kernels.  The bracket and flow equations are those of the canonical
chart; the contact volume takes any chart."""

import itertools
import math
import re

import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr, rationalize,
                                        standard_transformations)

from contactkit.expr import to_text

_FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "exp": sympy.exp,
              "log": sympy.log, "sqrt": sympy.sqrt, "abs": sympy.Abs}
_TRANSFORMS = standard_transformations + (convert_xor, rationalize)


def canonical_symbols(chart):
    """``(q0, q, p)`` for the chart ``(q0, q1..qn, p1..pn)``."""
    symbols = [sympy.Symbol(name, real=True) for name in chart.names]
    n = chart.n
    return symbols[0], symbols[1:n + 1], symbols[n + 1:]


def to_sympy(e, chart):
    """The printed text of ``e`` as a sympy expression.  Its ``^`` is left
    associative with integer exponents, so a chain ``b^j^k`` is ``b^(j k)``."""
    text, chained = to_text(e), 1
    while chained:
        text, chained = re.subn(r"\^(-?\d+)\^(-?\d+)",
                                lambda m: f"^{int(m[1]) * int(m[2])}", text)
    local = {str(s): s for s in sympy.flatten(canonical_symbols(chart))}
    return parse_expr(text, local_dict={**local, **_FUNCTIONS}, transformations=_TRANSFORMS)


def _at(value, chart, x):
    q0, q, p = canonical_symbols(chart)
    point = dict(zip([q0, *q, *p], (sympy.Rational(float(v)) for v in x)))
    return float(value.subs(point).evalf(30))


def canonical_bracket(f, g, chart, x):
    """``[f, g]`` for ``alpha = dq0 + sum p_i dq_i`` from symbolic partials."""
    q0, q, p = canonical_symbols(chart)
    F, G = to_sympy(f, chart), to_sympy(g, chart)
    d = sympy.diff
    value = (sum(d(F, pi) * d(G, qi) - d(G, pi) * d(F, qi) for qi, pi in zip(q, p))
             + d(G, q0) * (F - sum(pi * d(F, pi) for pi in p))
             - d(F, q0) * (G - sum(pi * d(G, pi) for pi in p)))
    return _at(value, chart, x)


def dissipative_field(f, chart, x):
    """``X_f`` from the canonical equations ``q0' = f - p.f_p``,
    ``q' = f_p``, ``p' = -f_q + p f_q0``, with symbolic partials."""
    q0, q, p = canonical_symbols(chart)
    F = to_sympy(f, chart)
    d = sympy.diff
    components = ([F - sum(pi * d(F, pi) for pi in p)]
                  + [d(F, pi) for pi in p]
                  + [-d(F, qi) + pi * d(F, q0) for qi, pi in zip(q, p)])
    return [_at(c, chart, x) for c in components]


def contact_volume(chart, x):
    """``c / n!`` at ``x``, for the coefficient ``c`` of ``dx_0 ^ ... ^ dx_2n``
    in ``alpha ^ (d alpha)^n``: the sum over permutations ``s`` of ``sgn s
    a_s(0) prod_i Omega_s(2i-1)s(2i) / 2``, with ``Omega_jk = d_j a_k - d_k
    a_j`` from sympy's partials, summed at 30 digits."""
    symbols = sympy.flatten(canonical_symbols(chart))
    point = dict(zip(symbols, (sympy.Rational(float(v)) for v in x)))
    a = [to_sympy(e, chart) for e in chart.alpha]
    values = [a_j.subs(point).evalf(30) for a_j in a]
    half = [[((sympy.diff(a_k, s_j) - sympy.diff(a_j, s_k)) / 2).subs(point).evalf(30)
             for a_k, s_k in zip(a, symbols)] for a_j, s_j in zip(a, symbols)]
    total = sympy.Float(0, 30)
    for perm in itertools.permutations(range(chart.dim)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(chart.dim), 2))
        term = values[perm[0]] * (-1) ** inversions
        for i in range(1, chart.n + 1):
            term *= half[perm[2 * i - 1]][perm[2 * i]]
        total += term
    return float(total / math.factorial(chart.n))
