"""Shared fixtures-by-hand: the canonical chart, the two-chart switching
atlas, a random polynomial source, and independent oracles (the config
schema, a recursive dual-number evaluator, finite differences, the explicit
canonical-chart bracket formula, the canonical flow equations, the contact
field from its defining equations, the per-point validation, contact-check
and quadrature loops the stacked ones replaced, the per-row and
per-candidate overlap sample loops the array ones replaced, the
Gram-Schmidt contact check on ker alpha that the bordered one replaced, and
the contact frame on a stack of one that the one-point frame replaced)."""

import math
from types import SimpleNamespace

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


# The JSON Schema of a config document: the oracle for the field checks of
# models.from_config
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["charts", "sections", "r", "hamiltonian"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "charts": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "coordinates", "alpha"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "coordinates": {"type": "array", "items": {"type": "string"},
                                    "minItems": 3},
                    "periodic": {"type": "array", "items": {"type": "string"}},
                    "alpha": {"type": "array", "items": {"type": "string"}},
                    "domain": {"type": "object"},
                    "sample_box": {"type": "object"},
                    "denominator": {"type": "string"},
                },
            },
        },
        "overlaps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["from", "to", "map", "factor"],
                "additionalProperties": False,
                "properties": {
                    "from": {"type": "string"},
                    "to": {"type": "string"},
                    "map": {"type": "array", "items": {"type": "string"}},
                    "factor": {"type": "string"},
                    "samples": {"type": "array",
                                "items": {"type": "array",
                                          "items": {"type": "number"}}},
                },
            },
        },
        "sections": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "local"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "local": {"type": "object",
                              "additionalProperties": {"type": "string"}},
                },
            },
        },
        "r": {"type": "integer", "minimum": 0},
        "hamiltonian": {
            "oneOf": [{"type": "string"},
                      {"type": "object", "additionalProperties": {"type": "number"}}],
        },
    },
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


# ---------------------------------------------------------------------------
# Reference validation and quadrature: the per-point loops the stacked
# checks replaced, kept verbatim as oracles (coordinate maps, factors and
# section values go through ``Expression.eval`` one point at a time)

def reference_map_coords(atlas, src, dst, x):
    env = atlas.charts[src].bindings(x)
    return np.array([e.eval(env) for e in atlas.overlaps[(src, dst)].forward])


def reference_factor_at(atlas, src, dst, x):
    return atlas.overlaps[(src, dst)].factor.eval(atlas.charts[src].bindings(x))


def reference_transition_jacobian(atlas, src, dst, x):
    """``J[m, l]`` at one point: one ``Expression.gradient`` per forward expression."""
    src_chart = atlas.charts[src]
    env = src_chart.bindings(x)
    forward = atlas.overlaps[(src, dst)].forward
    return np.array([e.gradient(env, src_chart.names) for e in forward])


def reference_shortest_arc_delta(chart, a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    for i, per in enumerate(chart.periodic):
        if per:
            d[i] = (d[i] + np.pi) % (2 * np.pi) - np.pi
    return d


def reference_horizontal_basis(alpha, reeb):
    dim = alpha.shape[0]
    pairing = float(alpha @ reeb)
    if abs(pairing) > 1e-8:
        candidates = np.eye(dim) - np.outer(alpha, reeb / pairing)
    else:
        candidates = np.eye(dim) - np.outer(alpha, alpha) / float(alpha @ alpha)
    rows, ortho = [], []
    for v in candidates:
        w = v.copy()
        for u in ortho:
            w -= (w @ u) * u
        norm = float(np.linalg.norm(w))
        if norm > 1e-10:
            rows.append(v)
            ortho.append(w / norm)
        if len(rows) == dim - 1:
            break
    return np.array(rows) if rows else np.zeros((0, dim))


def reference_contact_check(chart, x, tol=1e-9):
    """``(ok, det_proxy, rank, expected_rank)`` at one point from a basis of
    ker alpha: the determinant and rank of ``d alpha`` restricted to it."""
    from contactkit import numkernel
    from contactkit.geometry import OutOfDomain
    x = np.asarray(x, dtype=float)
    if not chart.contains(x):
        raise OutOfDomain(chart.id, x)
    values, rows = chart.alpha_kernel.jet(*x.tolist())
    grads = np.array(rows)
    a, omega = np.array(values), grads.T - grads
    expected = chart.dim - 1
    if float(np.linalg.norm(a)) < 1e-14:
        return (False, 0.0, 0, expected)
    reeb = np.linalg.lstsq(np.vstack([omega, a]), np.eye(chart.dim + 1)[-1], rcond=None)[0]
    basis = reference_horizontal_basis(a, reeb)
    if basis.shape[0] < expected:
        return (False, 0.0, basis.shape[0], expected)
    restricted = basis @ omega @ basis.T
    rank = numkernel.numerical_rank(restricted, tol)
    det = abs(float(np.linalg.det(restricted)))
    return (rank == expected, det, rank, expected)


def reference_bordered_check(chart, x):
    """``(ok, det_proxy, rank, expected_rank)`` at one point from the bordered
    ``B = [[Omega, alpha^T], [alpha, 0]]`` built here: the frame gate (a
    1-norm condition of ``B`` at most ``1 / DEFAULT_RANK_TOL``), ``|det B|``
    and ``numerical_rank(B) - 2``, 0 where alpha vanishes or ``B`` is not
    finite."""
    from contactkit import numkernel
    from contactkit.geometry import OutOfDomain
    x = np.asarray(x, dtype=float)
    if not chart.contains(x):
        raise OutOfDomain(chart.id, x)
    values, rows = chart.alpha_kernel.jet(*x.tolist())
    grads = np.array(rows)
    a, d = np.array(values), chart.dim
    b = np.zeros((d + 1, d + 1))
    b[:d, :d] = grads.T - grads
    b[:d, d] = b[d, :d] = a
    try:
        cond = np.linalg.norm(b, 1) * np.linalg.norm(np.linalg.inv(b), 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    rank = numkernel.numerical_rank(b) - 2 if a.any() and np.isfinite(b).all() else 0
    return (bool(cond <= 1.0 / numkernel.DEFAULT_RANK_TOL), abs(float(np.linalg.det(b))),
            rank, d - 1)


def reference_frame(chart, x):
    """The contact frame at one point as a stack of one: ``alpha`` and
    ``Omega`` from the chart's jet, ``B`` and its inverse filled into one
    zeroed pair, a stacked ``inv`` and the 1-norm condition gate.  It holds
    what ``jacobi._field_components`` reads: ``x``, its floats ``coords`` and
    ``field``."""
    from contactkit import numkernel
    x = np.asarray(x, dtype=float)
    values, rows = chart.alpha_kernel.jet(*x.tolist())
    grads = np.array(rows)
    alpha, omega, d = np.array(values), grads.T - grads, chart.dim
    pair = np.zeros((2, d + 1, d + 1))
    pair[0, :d, :d] = omega
    pair[0, :d, d] = pair[0, d, :d] = alpha
    try:
        pair[1] = np.linalg.inv(pair[:1])[0]
        norms = np.abs(pair).sum(axis=1).max(axis=1)
        cond = float(norms[0] * norms[1])
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= 1.0 / numkernel.DEFAULT_RANK_TOL:
        raise numkernel.SingularSystem(None, d + 1, cond)
    sharp, reeb = pair[1, :d, :d], pair[1, :d, d]
    return SimpleNamespace(chart=chart, x=x, coords=x.tolist(), alpha=alpha, omega=omega,
                           reeb=reeb, field=lambda value, df: sharp @ df + value * reeb)


def _rank(residual):
    return math.inf if math.isnan(residual) else residual


def worse(value, worst) -> bool:
    """Whether a residual replaces the worst so far in a per-point loop:
    NaN ranks as +inf, and the first of equals stays."""
    return _rank(value) > _rank(worst)


def reference_validate_atlas(atlas, form_tol=1e-9, cocycle_tol=1e-10, roundtrip_tol=1e-9):
    from contactkit.bundle import CheckRecord, OutOfAtlas
    from contactkit.geometry import alpha_components
    records = []
    for (src, dst), ov in atlas.overlaps.items():
        subject = f"{src}->{dst}"
        src_chart = atlas.charts[src]
        worst_rt = 0.0
        worst_form = 0.0
        where_rt = where_form = None
        if (dst, src) not in atlas.overlaps:
            records.append(CheckRecord("roundtrip", subject, np.inf, False))
            continue
        if not ov.samples:
            records.append(CheckRecord("overlap-samples", subject, np.inf, False))
            continue
        for x in ov.samples:
            x = np.asarray(x, dtype=float)
            y = reference_map_coords(atlas, src, dst, x)
            back = reference_map_coords(atlas, dst, src, y)
            rt = float(np.max(np.abs(reference_shortest_arc_delta(src_chart, back, x))))
            if worse(rt, worst_rt):
                worst_rt, where_rt = rt, x
            a = alpha_components(src_chart, x)
            g = ov.factor.eval(src_chart.bindings(x))
            y = reference_map_coords(atlas, src, dst, x)
            b = alpha_components(atlas.charts[dst], y)
            jac = reference_transition_jacobian(atlas, src, dst, x)
            form = float(np.max(np.abs(a - g * (jac.T @ b))))
            if worse(form, worst_form):
                worst_form, where_form = form, x
        records.append(CheckRecord("roundtrip", subject, worst_rt,
                                   worst_rt < roundtrip_tol, where_rt))
        records.append(CheckRecord("form-compatibility", subject, worst_form,
                                   worst_form < form_tol, where_form))
    for (i, j, k) in atlas.triple_ids():
        subject = f"{i},{j},{k}"
        worst = 0.0
        where = None
        tested = 0
        for x in atlas.overlaps[(i, j)].samples:
            x = np.asarray(x, dtype=float)
            try:
                yj = reference_map_coords(atlas, i, j, x)
                yk = reference_map_coords(atlas, i, k, x)
                if not (atlas.charts[j].contains(yj) and atlas.charts[k].contains(yk)):
                    continue
                forward = (reference_factor_at(atlas, i, j, x)
                           * reference_factor_at(atlas, j, k, yj)
                           * reference_factor_at(atlas, k, i, yk))
                backward = (reference_factor_at(atlas, i, k, x)
                            * reference_factor_at(atlas, k, j, yk)
                            * reference_factor_at(atlas, j, i, yj))
            except (DomainError, OutOfAtlas):
                continue
            tested += 1
            dev = max(abs(forward - 1.0), abs(backward - 1.0))
            if worse(dev, worst):
                worst, where = dev, x
        if tested:
            records.append(CheckRecord("cocycle", subject, worst, worst < cocycle_tol, where))
    return records


def reference_validate_section(atlas, s, tol=1e-9):
    from contactkit.bundle import CheckRecord
    records = []
    for (src, dst), ov in atlas.overlaps.items():
        if src not in s.local or dst not in s.local:
            continue
        src_chart = atlas.charts[src]
        dst_chart = atlas.charts[dst]
        worst = 0.0
        where = None
        for x in ov.samples:
            x = np.asarray(x, dtype=float)
            left = s.local[src].eval(src_chart.bindings(x))
            y = reference_map_coords(atlas, src, dst, x)
            right = ov.factor.eval(src_chart.bindings(x)) \
                * s.local[dst].eval(dst_chart.bindings(y))
            dev = abs(left - right) / (1.0 + abs(left))
            if worse(dev, worst):
                worst, where = dev, x
        records.append(CheckRecord("section-compatibility",
                                   f"{s.name}:{src}->{dst}", worst, worst < tol, where))
    return records


def reference_hamiltonian_span(model, tol=1e-8):
    from contactkit.bundle import CheckRecord
    from contactkit.models import _chart_samples
    rows = []
    rhs = []
    for chart in model.atlas.charts.values():
        h_expr = model.hamiltonian.on(chart.id)
        basis = [s.on(chart.id) for s in model.sections[: model.r + 1]]
        for x in _chart_samples(chart, 16):
            env = chart.bindings(x)
            rows.append([b.eval(env) for b in basis])
            rhs.append(h_expr.eval(env))
            values = rows[-1] + [rhs[-1]]
            if not all(map(math.isfinite, values)):
                return CheckRecord("hamiltonian-span", model.hamiltonian.name,
                                   float(np.max(np.abs(values))), False, x)
    a = np.array(rows)
    b = np.array(rhs)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(a @ coeffs - b))) / (1.0 + float(np.max(np.abs(b))))
    return CheckRecord("hamiltonian-span", model.hamiltonian.name, residual, residual < tol)


def reference_validate_model(model, form_tol=1e-9, section_tol=1e-9, commutation_tol=1e-8,
                             strict=True):
    """The record list of the per-point ``validate_model`` loop."""
    from contactkit.bundle import CheckRecord
    from contactkit.jacobi import bracket
    from contactkit.models import (COMMUTATION_SAMPLES, CONTACT_SAMPLES_PER_CHART,
                                   ValidationError, _chart_samples)
    records = reference_validate_atlas(model.atlas, form_tol=form_tol)
    degenerate = set()
    for chart in model.atlas.charts.values():
        worst = (np.inf, None)
        ok = True
        for x in _chart_samples(chart, CONTACT_SAMPLES_PER_CHART):
            result_ok, det_proxy, _, _ = reference_bordered_check(chart, x)
            if not result_ok:
                worst = (det_proxy, x)
                ok = False
                degenerate.add(chart.id)
                break
            if det_proxy < worst[0]:
                worst = (det_proxy, x)
        records.append(CheckRecord("contact-nondegeneracy", chart.id, worst[0], ok, worst[1]))
    for s in model.sections:
        records.extend(reference_validate_section(model.atlas, s, tol=section_tol))
    per_chart = max(1, COMMUTATION_SAMPLES // max(1, len(model.atlas.charts)))
    for chart in model.atlas.charts.values():
        if chart.id in degenerate:
            continue
        samples = _chart_samples(chart, per_chart)
        for i in range(model.r + 1):
            si = model.sections[i]
            for j in range(len(model.sections)):
                sj = model.sections[j]
                worst = 0.0
                where = None
                for x in samples:
                    value = abs(bracket(chart, si.on(chart.id), sj.on(chart.id), x))
                    if worse(value, worst):
                        worst, where = value, x
                records.append(CheckRecord("commutation",
                                           f"[{si.name},{sj.name}] on {chart.id}",
                                           worst, worst <= commutation_tol, where))
    if model.hamiltonian is not None:
        records.append(reference_hamiltonian_span(model))
    if strict:
        for rec in records:
            if not rec.ok:
                raise ValidationError(rec.check, rec.subject, rec.residual, rec.where)
    return records


def reference_projective_overlap_samples(n, count):
    """The overlap samples of ``_projective_torus_atlas(n, count)``, one row
    of the low-discrepancy set at a time."""
    from contactkit.models import _low_discrepancy
    dim = 2 * n + 1
    samples = []
    for row in _low_discrepancy(dim, count):
        x = np.empty(dim)
        x[: n + 1] = row[: n + 1] * 2 * np.pi
        mags = 0.4 + 1.4 * row[n + 1:]
        signs = np.where(np.sin(37.0 * row[n + 1:] + 1.0) >= 0, 1.0, -1.0)
        x[n + 1:] = mags * signs
        samples.append(x)
    return samples


def reference_auto_overlap_samples(charts, ov):
    """The overlap samples ``from_config`` probes, one candidate at a time
    through the scalar map: a candidate whose image raises is skipped."""
    from contactkit.errors import ContactKitError
    from contactkit.models import OVERLAP_SAMPLES, _chart_samples
    src, dst = charts[ov.src], charts[ov.dst]
    kept = []
    for x in _chart_samples(src, OVERLAP_SAMPLES * 8):
        try:
            y = np.array([e.eval(src.bindings(x)) for e in ov.forward])
        except ContactKitError:
            continue
        if not np.all(np.isfinite(y)):
            continue
        if dst.contains(dst.wrap(y)):
            kept.append(x)
        if len(kept) >= OVERLAP_SAMPLES:
            break
    return kept


def reference_loop_integral(chart, cycle, subdivisions=8, nodes=64, closure_tol=1e-9):
    """``(value, refinement_error)`` of the per-node quadrature loop: the
    cycle is evaluated one parameter at a time."""
    from contactkit.dynamics import NotClosed
    from contactkit.geometry import OutOfDomain, alpha_components

    def point(s):
        return np.asarray(cycle.point(np.array([s])), dtype=float)[0]

    def velocity(s):
        return np.asarray(cycle.velocity(np.array([s])), dtype=float)[0]

    gap = float(np.max(np.abs(reference_shortest_arc_delta(chart, point(1.0), point(0.0)))))
    if gap > closure_tol:
        raise NotClosed(gap)
    base_nodes, base_weights = np.polynomial.legendre.leggauss(nodes)

    def integrate(panels):
        total = 0.0
        width = 1.0 / panels
        for p in range(panels):
            mid = (p + 0.5) * width
            ts = mid + 0.5 * width * base_nodes
            for w, s in zip(base_weights, ts):
                wrapped = chart.wrap(point(s))
                if not chart.contains(wrapped):
                    raise OutOfDomain(chart.id, wrapped)
                a = alpha_components(chart, wrapped)
                total += w * float(a @ velocity(s)) * 0.5 * width
        return total

    coarse = integrate(subdivisions)
    fine = integrate(2 * subdivisions)
    value = fine / (2 * np.pi)
    return value, abs(fine - coarse) / (2 * np.pi * (1.0 + abs(value)))
