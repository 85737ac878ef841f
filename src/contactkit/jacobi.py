"""Contact Hamiltonian vector fields and the Jacobi bracket on a single chart.

The generating relation is ``alpha(X_f) = f``; the field is

    X_f = f Z + sharp(df - df(Z) alpha),

which a :class:`~contactkit.geometry.ContactFrame` evaluates as ``f Z + P df``
with ``P`` from its one bordered inverse (nonsingular exactly when
``alpha ^ (d alpha)^n != 0``; ``P alpha = 0``).  The bracket is
``[f, g] = X_f(g) - g Z(f)``.  It is a Lie bracket but not a derivation;
see the tests for a concrete witness of the failing product rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numkernel
from .errors import ContactKitError
from .expr import Expression, multiply
from .geometry import Chart, ChartField, ContactFrame, FieldLike, TangentVector, as_field, frame_at

COMMUTATION_TOL = 1e-8  # largest bracket that counts as zero


class PreconditionFailed(ContactKitError):
    def __init__(self, what: str, where: np.ndarray, residual: float):
        self.what = what
        self.where = np.asarray(where, dtype=float)
        self.residual = residual
        super().__init__(f"{what}: residual {residual:.3e} at {self.where.tolist()}")


def _jet(field, frame: ContactFrame) -> tuple[float, np.ndarray]:
    """Value and gradient of a scalar field at the frame's point: one kernel
    call on the frame's floats for a chart field, the field and
    ``numkernel.grad`` for a plain callable."""
    if isinstance(field, ChartField):
        (value,), (partials,) = field.kernel.jet(*frame.coords)
        return value, np.array(partials)
    return float(field(frame.x)), numkernel.grad(field, frame.x)


def _field_components(frame: ContactFrame, field) -> np.ndarray:
    return frame.field(*_jet(field, frame))


class HamiltonianField:
    """Evaluator for the contact vector field generated by a scalar field."""

    def __init__(self, chart: Chart, f: FieldLike):
        self.chart = chart
        self.generator = as_field(chart, f)

    def __call__(self, x) -> np.ndarray:
        return _field_components(frame_at(self.chart, x), self.generator)

    def at(self, x) -> TangentVector:
        fr = frame_at(self.chart, x)
        return TangentVector(self.chart.id, fr.x, _field_components(fr, self.generator))


def ham_field(chart: Chart, f: FieldLike, x) -> TangentVector:
    return HamiltonianField(chart, f).at(x)


def _bracket(frame: ContactFrame, f_jet: tuple, g_jet: tuple) -> float:
    """``[f, g] = dg(X_f) - g Z(f)`` from the frame and the jets of f and g."""
    (fv, df), (gv, dg) = f_jet, g_jet
    # a huge or infinite section gives a non-finite bracket, not a numpy warning
    with np.errstate(invalid="ignore", over="ignore"):
        return float(dg @ frame.field(fv, df)) - gv * float(df @ frame.reeb)


def bracket(chart: Chart, f: FieldLike, g: FieldLike, x) -> float:
    """``[f, g]`` at the point ``x``."""
    fr = frame_at(chart, x)
    return _bracket(fr, _jet(as_field(chart, f), fr), _jet(as_field(chart, g), fr))


def bracket_field(chart: Chart, f: FieldLike, g: FieldLike):
    """The bracket as a pointwise-evaluated scalar field (no exact gradient)."""
    ff = as_field(chart, f)
    gf = as_field(chart, g)

    def value(x):
        return bracket(chart, ff, gf, x)

    return value


def iso_residual(chart: Chart, f: FieldLike, g: FieldLike, x) -> float:
    """Norm of ``X_[f,g] - [X_f, X_g]`` at ``x``.  Both sides need derivatives
    of solved quantities, so the outer level is finite differences and the
    meaningful tolerance is around 1e-6."""
    x = np.asarray(x, dtype=float)
    lhs = _field_components(frame_at(chart, x), bracket_field(chart, f, g))
    xf = HamiltonianField(chart, f)
    xg = HamiltonianField(chart, g)
    rhs = numkernel.lie_bracket(xf, xg, x)
    return float(np.linalg.norm(lhs - rhs))


@dataclass(frozen=True)
class IndependenceReport:
    rank_wedge: int
    dim_span_with_reeb: int
    dim_span_without: int


def independence(chart: Chart, x, fs: Sequence[FieldLike]) -> IndependenceReport:
    """Rank data behind the independence tests: the wedge of alpha with the
    differentials, and the span of the Hamiltonian fields with and without
    the Reeb field."""
    fr = frame_at(chart, x)
    jets = [_jet(as_field(chart, f), fr) for f in fs]
    rank_wedge = numkernel.numerical_rank(np.array([fr.alpha] + [df for _, df in jets]))
    vectors = np.array([fr.field(*jet) for jet in jets])
    without = numkernel.numerical_rank(vectors) if jets else 0
    stacked = np.vstack([fr.reeb[None, :], vectors]) if jets else fr.reeb[None, :]
    with_reeb = numkernel.numerical_rank(stacked)
    return IndependenceReport(rank_wedge, with_reeb, without)


@dataclass(frozen=True)
class SymmetryReport:
    max_residual: float
    worst_point: np.ndarray


def make_symmetry(chart: Chart, h: Expression, s: Expression, f: Expression,
                  points: Sequence[np.ndarray]) -> tuple[Expression, SymmetryReport]:
    """Multiply a symmetry ``s`` of ``h`` by an integral ``f`` of the flow,
    returning the product together with its verified bracket residual.

    Preconditions ``[h, s] = 0`` and ``X_h(f) = 0`` are checked at the
    supplied sample points and raise :class:`PreconditionFailed` when they
    do not hold.
    """
    product = multiply(f, s)
    hf, sf, ff, pf = (as_field(chart, e) for e in (h, s, f, product))
    # one frame and one jet of h per point, all checked before any product
    checked = []
    for x in points:
        fr = frame_at(chart, x)
        h_jet = _jet(hf, fr)
        commutator = _bracket(fr, h_jet, _jet(sf, fr))
        if abs(commutator) > COMMUTATION_TOL:
            raise PreconditionFailed("[h, s] != 0", x, abs(commutator))
        transport = float(_jet(ff, fr)[1] @ fr.field(*h_jet))
        if abs(transport) > COMMUTATION_TOL:
            raise PreconditionFailed("X_h(f) != 0", x, abs(transport))
        checked.append((x, fr, h_jet))
    worst = 0.0
    worst_point = np.asarray(points[0], dtype=float)
    for x, fr, h_jet in checked:
        residual = abs(_bracket(fr, h_jet, _jet(pf, fr)))
        if residual > worst:
            worst = residual
            worst_point = np.asarray(x, dtype=float)
    return product, SymmetryReport(worst, worst_point)
