"""Shared fixtures-by-hand: the canonical chart, the two-chart switching
atlas, a random polynomial source, and independent oracles (finite
differences, the explicit canonical-chart bracket formula, the canonical
flow equations, the contact field from its defining equations)."""

import numpy as np

from contactkit import expr
from contactkit.geometry import Chart


def canonical_chart(n: int) -> Chart:
    names = tuple(["q0"] + [f"q{i}" for i in range(1, n + 1)]
                  + [f"p{i}" for i in range(1, n + 1)])
    alpha = tuple([expr.literal(1.0)]
                  + [expr.coordinate(f"p{i}") for i in range(1, n + 1)]
                  + [expr.literal(0.0)] * n)
    dim = 2 * n + 1
    return Chart(id="canonical", names=names, alpha=alpha,
                 periodic=(False,) * dim, bounds=((-np.inf, np.inf),) * dim)


def normal_form_chart() -> Chart:
    """Five coordinates (phi0, phi1, I1, q1, p1) with form
    3 dphi0 + I1 dphi1 + p1 dq1."""
    names = ("phi0", "phi1", "I1", "q1", "p1")
    alpha = (expr.literal(3.0), expr.coordinate("I1"), expr.literal(0.0),
             expr.coordinate("p1"), expr.literal(0.0))
    return Chart(id="normal", names=names, alpha=alpha,
                 periodic=(True, True, False, False, False),
                 bounds=((0.0, 2 * np.pi),) * 2 + ((-np.inf, np.inf),) * 3)


# two projective charts of T^2 x RP^1 glued by 1/J with factor J; flows of
# h cross between them
CHART_SWITCH_CONFIG = {
    "name": "chart-switch",
    "charts": [
        {"id": "V0", "coordinates": ["phi0", "phi1", "J1"], "periodic": ["phi0", "phi1"],
         "alpha": ["1", "J1", "0"], "domain": {"J1": [-1.0e6, 1.0e6]},
         "denominator": "1/sqrt(1 + J1^2)"},
        {"id": "V1", "coordinates": ["phi0", "phi1", "J0"], "periodic": ["phi0", "phi1"],
         "alpha": ["J0", "1", "0"], "domain": {"J0": [-1.0e6, 1.0e6]},
         "denominator": "1/sqrt(1 + J0^2)"},
    ],
    "overlaps": [
        {"from": "V0", "to": "V1", "map": ["phi0", "phi1", "1/J1"], "factor": "J1"},
        {"from": "V1", "to": "V0", "map": ["phi0", "phi1", "1/J0"], "factor": "J0"},
    ],
    "sections": [{"name": "h", "local": {"V0": "sin(phi1) + 0.1*J1",
                                         "V1": "sin(phi1)*J0 + 0.1"}}],
    "r": 0,
    "hamiltonian": "h",
}


def random_polynomial(rng: np.random.Generator, names, max_degree=3, terms=4):
    """Random multivariate polynomial with coefficients in [-1, 1]."""
    acc = expr.literal(float(rng.uniform(-1, 1)))
    for _ in range(terms):
        term = expr.literal(float(rng.uniform(-1, 1)))
        degree = int(rng.integers(1, max_degree + 1))
        for _ in range(degree):
            name = names[int(rng.integers(0, len(names)))]
            term = expr.multiply(term, expr.coordinate(name))
        acc = expr.add(acc, term)
    return acc


def random_expression(rng: np.random.Generator, names, depth):
    """Random smooth expression of bounded depth (safe domains only)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return expr.literal(float(rng.uniform(-2, 2)))
        return expr.coordinate(names[int(rng.integers(0, len(names)))])
    choice = rng.random()
    if choice < 0.55:
        op = [expr.add, expr.subtract, expr.multiply][int(rng.integers(0, 3))]
        return op(random_expression(rng, names, depth - 1),
                  random_expression(rng, names, depth - 1))
    if choice < 0.75:
        fn = ["sin", "cos"][int(rng.integers(0, 2))]
        return expr.call(fn, random_expression(rng, names, depth - 1))
    if choice < 0.9:
        return expr.power(random_expression(rng, names, depth - 1),
                          int(rng.integers(1, 4)))
    return expr.negate(random_expression(rng, names, depth - 1))


def fd_derivative(e, bindings, seed, h=1e-6):
    """Central finite-difference oracle for a directional derivative."""
    up = {k: v + h * seed.get(k, 0.0) for k, v in bindings.items()}
    dn = {k: v - h * seed.get(k, 0.0) for k, v in bindings.items()}
    return (e.eval(up) - e.eval(dn)) / (2.0 * h)


def partials(e, chart, x):
    env = chart.bindings(x)
    return np.array([e.eval_dual(env, {name: 1.0})[1] for name in chart.names])


def canonical_bracket_oracle(f, g, chart, x):
    """The explicit bracket formula for the canonical chart, evaluated from
    partial derivatives alone (independent of the solved vector fields)."""
    n = chart.n
    df = partials(f, chart, x)
    dg = partials(g, chart, x)
    env = chart.bindings(x)
    fv, gv = f.eval(env), g.eval(env)
    p = x[n + 1:]
    sym = sum(df[n + 1 + i] * dg[1 + i] - dg[n + 1 + i] * df[1 + i]
              for i in range(n))
    return (sym + dg[0] * (fv - float(p @ df[n + 1:]))
            - df[0] * (gv - float(p @ dg[n + 1:])))


def dissipative_oracle(f, chart, x):
    """Canonical-chart flow components from the displayed equations."""
    n = chart.n
    df = partials(f, chart, x)
    env = chart.bindings(x)
    value = f.eval(env)
    p = x[n + 1:]
    out = np.empty(chart.dim)
    out[0] = value - float(p @ df[n + 1:])
    out[1:n + 1] = df[n + 1:]
    out[n + 1:] = -df[1:n + 1] + p * df[0]
    return out


def contact_field_oracle(f, chart, x):
    """Contact field of ``f`` from its defining equations, ``alpha(X) = f``
    and ``Omega X = df - df(Z) alpha``, with alpha, Omega, the Reeb field Z
    and df all built here from partial derivatives and least squares."""
    env = chart.bindings(x)
    alpha = np.array([a.eval(env) for a in chart.alpha])
    jac = np.column_stack([partials(a, chart, x) for a in chart.alpha])
    omega = jac - jac.T
    system = np.vstack([alpha, omega])
    reeb = np.linalg.lstsq(system, np.eye(chart.dim + 1)[0], rcond=None)[0]
    df = partials(f, chart, x)
    rhs = np.concatenate([[f.eval(env)], df - (df @ reeb) * alpha])
    return np.linalg.lstsq(system, rhs, rcond=None)[0]
