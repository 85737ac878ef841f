"""Shared fixtures-by-hand: the canonical chart, the two-chart switching
atlas, a random polynomial source, and independent oracles (a recursive
dual-number evaluator, finite differences, the explicit canonical-chart
bracket formula, the canonical flow equations, the contact field from its
defining equations)."""

import math

import numpy as np

from contactkit import expr
from contactkit.expr import (BinaryOp, Coordinate, DomainError, Literal, Negate, Power,
                             UnboundName)
from contactkit.geometry import Chart


# ---------------------------------------------------------------------------
# Reference evaluator: a recursive walk over floats or dual numbers, the
# evaluator the compiled kernels replaced

class Dual:
    """Value plus directional derivative, propagated through arithmetic."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0.0):
        self.value = value
        self.deriv = deriv

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        return Dual(self.value + other, self.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        return Dual(self.value - other, self.deriv)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.deriv)

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.deriv * other.value + self.value * other.deriv)
        return Dual(self.value * other, self.deriv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value / other.value,
                        (self.deriv * other.value - self.value * other.deriv)
                        / (other.value * other.value))
        return Dual(self.value / other, self.deriv / other)

    def __rtruediv__(self, other):
        return Dual(other / self.value,
                    -other * self.deriv / (self.value * self.value))

    def __pow__(self, k):
        if k == 0:
            return Dual(1.0, 0.0)
        return Dual(self.value ** k, k * self.value ** (k - 1) * self.deriv)


def _value_of(s):
    return s.value if isinstance(s, Dual) else s


_REFERENCE_FUNCTIONS = {
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda v: -math.sin(v)),
    "tan": (math.tan, lambda v: 1.0 / math.cos(v) ** 2),
    "exp": (math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v),
    "sqrt": (math.sqrt, lambda v: 0.5 / math.sqrt(v)),
    "abs": (abs, lambda v: math.copysign(1.0, v) if v != 0.0 else 0.0),
}


def _evaluate(node, env, source):
    kind = type(node)
    if kind is Literal:
        return node.value
    if kind is Coordinate:
        try:
            return env[node.name]
        except KeyError:
            raise UnboundName(node.name) from None
    if kind is Negate:
        return -_evaluate(node.operand, env, source)
    if kind is BinaryOp:
        a = _evaluate(node.left, env, source)
        b = _evaluate(node.right, env, source)
        op = node.op
        if op == "+":
            out = a + b
        elif op == "-":
            out = a - b
        elif op == "*":
            out = a * b
        else:
            if _value_of(b) == 0.0:
                raise DomainError("division by zero", node.span, source)
            try:
                out = a / b
            except ZeroDivisionError:  # the dual quotient's squared denominator underflowed
                raise DomainError("derivative of a division underflows",
                                  node.span, source) from None
        v = out.value if type(out) is Dual else out
        if v != v:
            raise DomainError("undefined result (NaN)", node.span, source)
        return out
    if kind is Power:
        base = _evaluate(node.base, env, source)
        if node.exponent < 0 and _value_of(base) == 0.0:
            raise DomainError("negative power of zero", node.span, source)
        try:
            return base ** node.exponent
        except OverflowError:
            raise DomainError("overflow", node.span, source) from None
    # Call
    arg = _evaluate(node.argument, env, source)
    v = _value_of(arg)
    name = node.func
    if name == "log" and v <= 0.0:
        raise DomainError("log of a non-positive value", node.span, source)
    if name == "sqrt" and v < 0.0:
        raise DomainError("sqrt of a negative value", node.span, source)
    value_fn, deriv_fn = _REFERENCE_FUNCTIONS[name]
    try:
        value = value_fn(v)
    except OverflowError:
        raise DomainError("overflow", node.span, source) from None
    except ValueError:  # math's trig functions refuse an infinite argument
        raise DomainError(f"{name} of an infinite value", node.span, source) from None
    if isinstance(arg, Dual):
        if name == "sqrt" and v == 0.0:
            if arg.deriv == 0.0:
                return Dual(value, 0.0)
            raise DomainError("sqrt derivative at zero", node.span, source)
        return Dual(value, deriv_fn(v) * arg.deriv)
    return value


def reference_names(node):
    """Coordinate names in order of first appearance, left to right."""
    if type(node) is Coordinate:
        return [node.name]
    out = []
    for field in ("operand", "left", "right", "base", "argument"):
        child = getattr(node, field, None)
        if child is not None:
            out += [name for name in reference_names(child) if name not in out]
    return out


def reference_eval(e, bindings):
    return float(_evaluate(e.root, bindings, e.source))


def reference_eval_dual(e, bindings, seed):
    used = e.names
    env = {name: Dual(float(v), float(seed.get(name, 0.0)))
           for name, v in bindings.items() if name in used}
    result = _evaluate(e.root, env, e.source)
    if isinstance(result, Dual):
        return result.value, result.deriv
    return float(result), 0.0


def reference_gradient(e, bindings, names):
    """One dual pass per name the formula reads, in order of first
    appearance; exact zeros elsewhere."""
    out = np.zeros(len(names))
    for name in reference_names(e.root):
        out[names.index(name)] = reference_eval_dual(e, bindings, {name: 1.0})[1]
    return out



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
    return reference_gradient(e, chart.bindings(x), chart.names)


def canonical_bracket_oracle(f, g, chart, x):
    """The explicit bracket formula for the canonical chart, evaluated from
    partial derivatives alone (independent of the solved vector fields)."""
    n = chart.n
    df = partials(f, chart, x)
    dg = partials(g, chart, x)
    env = chart.bindings(x)
    fv, gv = reference_eval(f, env), reference_eval(g, env)
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
    value = reference_eval(f, env)
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
    alpha = np.array([reference_eval(a, env) for a in chart.alpha])
    jac = np.column_stack([partials(a, chart, x) for a in chart.alpha])
    omega = jac - jac.T
    system = np.vstack([alpha, omega])
    reeb = np.linalg.lstsq(system, np.eye(chart.dim + 1)[0], rcond=None)[0]
    df = partials(f, chart, x)
    rhs = np.concatenate([[reference_eval(f, env)], df - (df @ reeb) * alpha])
    return np.linalg.lstsq(system, rhs, rcond=None)[0]
