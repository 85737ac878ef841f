"""Coordinate charts carrying a contact form, and the pointwise contact calculus.

A :class:`Chart` is a coordinate cube of odd dimension ``2n + 1`` whose
1-form is given per coordinate slot by an expression, ``alpha = sum_j
a_j(x) dx_j``.  Periodic coordinates have period ``2 pi`` and are stored
normalized to ``[0, 2 pi)`` on :class:`Point` construction.

The operations here realize the pointwise structure of a cooriented
contact chart: the 2-form ``d alpha`` as an antisymmetric matrix ``Omega``,
the Reeb field (``alpha(Z) = 1`` and ``i_Z d alpha = 0``), the sharp
isomorphism inverting ``X -> -i_X d alpha`` between horizontal fields and
the annihilator of the Reeb direction, the splitting of a vector into Reeb
and horizontal parts, and a sampled nondegeneracy check for
``alpha ^ (d alpha)^n != 0``.  That condition holds exactly where
``B = [[Omega, alpha^T], [alpha, 0]]`` is nonsingular, and a
:class:`ContactFrame` inverts ``B`` once per point.  The inverse's last
column is the Reeb field; its leading block ``P`` maps ``eta`` to ``X`` with
``alpha(X) = 0``, ``Omega X = eta - eta(Z) alpha``: sharp on the
annihilator of ``Z``, and ``P alpha = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import numkernel
from .errors import ContactKitError
from .expr import Expression, parse

TWO_PI = 2.0 * np.pi

# membership and sampling default for axes that are unbounded
_DEFAULT_SAMPLE_HALF_WIDTH = 2.0


class OutOfDomain(ContactKitError):
    def __init__(self, chart_id: str, coords):
        self.chart_id = chart_id
        self.coords = np.asarray(coords, dtype=float)
        super().__init__(f"point {self.coords.tolist()} outside domain of chart {chart_id!r}")


class NotInZ0(ContactKitError):
    def __init__(self, pairing: float):
        self.pairing = pairing
        super().__init__(f"covector pairs with the Reeb field ({pairing:.3e}), "
                         "so it has no horizontal preimage")


def _as_expression(e: Union[Expression, str]) -> Expression:
    return e if isinstance(e, Expression) else parse(e)


@dataclass(frozen=True)
class Chart:
    """One coordinate cube with its local contact form.

    ``bounds`` are open intervals per coordinate (ignored on periodic
    axes, which always cover a full period).  ``sample_box`` bounds the
    region used by sampled validation; it defaults to the domain clipped
    to a unit-scale box.  ``denominator`` is an optional scalar expression
    whose decay signals that the chart is about to become invalid; the
    flow integrator uses it to decide when to change charts.
    """

    id: str
    names: tuple[str, ...]
    alpha: tuple[Expression, ...]
    periodic: tuple[bool, ...]
    bounds: tuple[tuple[float, float], ...]
    sample_box: tuple[tuple[float, float], ...] | None = None
    denominator: Expression | None = None

    def __post_init__(self):
        dim = len(self.names)
        if dim < 3 or dim % 2 == 0:
            raise ValueError(f"chart {self.id!r} must have odd dimension >= 3, got {dim}")
        if len(self.alpha) != dim or len(self.periodic) != dim or len(self.bounds) != dim:
            raise ValueError(f"chart {self.id!r}: names, alpha, periodic and bounds "
                             "must all have the same length")
        if self.sample_box is not None and len(self.sample_box) != dim:
            raise ValueError(f"chart {self.id!r}: sample_box length mismatch")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return (len(self.names) - 1) // 2

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def bindings(self, x: np.ndarray) -> dict[str, float]:
        return dict(zip(self.names, map(float, x)))

    def wrap(self, coords) -> np.ndarray:
        """Copy of ``coords`` with periodic axes normalized to [0, 2 pi)."""
        x = np.array(coords, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                r = x[i] % TWO_PI
                # a tiny negative angle rounds up to exactly 2 pi
                x[i] = 0.0 if r == TWO_PI else r
        return x

    def contains(self, coords) -> bool:
        x = np.asarray(coords, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                continue
            lo, hi = self.bounds[i]
            if not (lo < x[i] < hi):
                return False
        return True

    def point(self, coords) -> "Point":
        x = self.wrap(coords)
        if not self.contains(x):
            raise OutOfDomain(self.id, x)
        x.flags.writeable = False
        return Point(self.id, x)

    def effective_sample_box(self) -> tuple[tuple[float, float], ...]:
        if self.sample_box is not None:
            return self.sample_box
        box = []
        for i, per in enumerate(self.periodic):
            if per:
                box.append((0.0, TWO_PI))
                continue
            lo, hi = self.bounds[i]
            clo = max(lo, -_DEFAULT_SAMPLE_HALF_WIDTH)
            chi = min(hi, _DEFAULT_SAMPLE_HALF_WIDTH)
            box.append((clo, chi) if clo < chi else (lo, hi))
        return tuple(box)

    def shortest_arc_delta(self, a, b) -> np.ndarray:
        """Componentwise ``a - b`` using the shortest arc on periodic axes."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                d[i] = (d[i] + np.pi) % TWO_PI - np.pi
        return d


@dataclass(frozen=True, eq=False)
class Point:
    chart: str
    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class TangentVector:
    chart: str
    base: np.ndarray
    components: np.ndarray


@dataclass(frozen=True, eq=False)
class CoVector:
    chart: str
    base: np.ndarray
    components: np.ndarray


class UnboundNameOnChart(ContactKitError):
    def __init__(self, chart_id: str, names: Sequence[str]):
        self.chart_id = chart_id
        self.names = tuple(names)
        super().__init__(f"expression uses {', '.join(names)} which are not "
                         f"coordinates of chart {chart_id!r}")


class ChartField:
    """Scalar field on a chart backed by an expression; derivatives are exact."""

    def __init__(self, chart: Chart, e: Union[Expression, str]):
        self.chart = chart
        self.expr = _as_expression(e)
        unknown = self.expr.names - set(chart.names)
        if unknown:
            raise UnboundNameOnChart(chart.id, sorted(unknown))

    def __call__(self, x) -> float:
        return self.expr.eval(self.chart.bindings(x))

    def gradient(self, x) -> np.ndarray:
        return self.expr.gradient(self.chart.bindings(x), self.chart.names)


FieldLike = Union[Expression, str, ChartField, Callable[[np.ndarray], float]]


def as_field(chart: Chart, f: FieldLike):
    """Coerce an expression, source text or callable to a scalar field on the chart."""
    if isinstance(f, ChartField):
        return f
    if isinstance(f, (Expression, str)):
        return ChartField(chart, f)
    return f


def _check_domain(chart: Chart, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not chart.contains(x):
        raise OutOfDomain(chart.id, x)
    return x


def alpha_components(chart: Chart, x) -> np.ndarray:
    env = chart.bindings(x)
    return np.array([a.eval(env) for a in chart.alpha])


def alpha_at(chart: Chart, x) -> CoVector:
    x = _check_domain(chart, x)
    return CoVector(chart.id, x, alpha_components(chart, x))


def dalpha_matrix(chart: Chart, x) -> np.ndarray:
    """Antisymmetric matrix of ``d alpha``: entry (j, k) is d_j a_k - d_k a_j.

    Coefficients are only differentiated along coordinates they mention;
    every other entry is exactly zero.
    """
    env = chart.bindings(x)
    grads = np.array([a.gradient(env, chart.names) for a in chart.alpha])
    return grads.T - grads


def dalpha_at(chart: Chart, x) -> np.ndarray:
    x = _check_domain(chart, x)
    return dalpha_matrix(chart, x)


class ContactFrame:
    """Contact data of one chart at one point, from one inverse of ``B``.

    Raises ``SingularSystem`` where the 1-norm condition estimate of ``B``
    is not finite or exceeds ``1 / DEFAULT_RANK_TOL``, the rank scale of
    ``numkernel.solve``."""

    def __init__(self, chart: Chart, x):
        self.chart = chart
        self.x = np.asarray(x, dtype=float)
        self.alpha = alpha_components(chart, self.x)
        self.omega = dalpha_matrix(chart, self.x)
        d = chart.dim
        # B and its inverse side by side: one reduction gives both 1-norms
        pair = np.zeros((2, d + 1, d + 1))
        bordered, inv = pair
        bordered[:d, :d] = self.omega
        bordered[:d, d] = bordered[d, :d] = self.alpha
        try:
            inv[:] = np.linalg.inv(bordered)
            norms = np.abs(pair).sum(axis=1).max(axis=1)
            cond = float(norms[0] * norms[1])
        except np.linalg.LinAlgError:
            cond = np.inf
        if not cond <= 1.0 / numkernel.DEFAULT_RANK_TOL:
            raise numkernel.SingularSystem(None, d + 1, cond)
        self._sharp = inv[:d, :d]
        self.reeb = inv[:d, d]

    def sharp(self, eta: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        pairing = float(eta @ self.reeb)
        if abs(pairing) > tol * (1.0 + float(np.linalg.norm(eta))):
            raise NotInZ0(pairing)
        return self._sharp @ eta

    def field(self, value: float, df: np.ndarray) -> np.ndarray:
        """``X_f`` from ``f`` and ``df``: ``alpha(X_f) = f``, ``Omega X_f = df - df(Z) alpha``."""
        return self._sharp @ df + value * self.reeb

    def flat(self, v: np.ndarray) -> np.ndarray:
        # -i_X d alpha has components (Omega @ X) under the sign convention above
        return self.omega @ np.asarray(v, dtype=float)


def frame_at(chart: Chart, x) -> ContactFrame:
    return ContactFrame(chart, _check_domain(chart, x))


def reeb_at(chart: Chart, x) -> TangentVector:
    fr = frame_at(chart, x)
    return TangentVector(chart.id, fr.x, fr.reeb)


def sharp(chart: Chart, x, eta, tol: float = 1e-8) -> TangentVector:
    fr = frame_at(chart, x)
    components = eta.components if isinstance(eta, CoVector) else np.asarray(eta, dtype=float)
    return TangentVector(chart.id, fr.x, fr.sharp(components, tol))


def decompose_vector(chart: Chart, x, v) -> tuple[float, TangentVector]:
    """Split ``v`` as ``alpha(v) * Z + horizontal``."""
    fr = frame_at(chart, x)
    components = v.components if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    along = float(fr.alpha @ components)
    horizontal = components - along * fr.reeb
    return along, TangentVector(chart.id, fr.x, horizontal)


@dataclass(frozen=True)
class ContactCheck:
    ok: bool
    det_proxy: float
    rank: int
    expected_rank: int


def horizontal_basis(alpha: np.ndarray, reeb: np.ndarray) -> np.ndarray:
    """Rows span ker alpha for a nonzero ``alpha``: the coordinate directions
    pushed into the hyperplane along the Reeb direction, taken in
    coordinate order."""
    dim = alpha.shape[0]
    pairing = float(alpha @ reeb)
    if abs(pairing) > 1e-8:
        candidates = np.eye(dim) - np.outer(alpha, reeb / pairing)
    else:
        # no usable Reeb direction; fall back to the orthogonal complement
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


def contact_check(chart: Chart, x, tol: float = numkernel.DEFAULT_RANK_TOL) -> ContactCheck:
    """Sampled nondegeneracy test: rank of ``d alpha`` restricted to ker alpha."""
    x = _check_domain(chart, x)
    a = alpha_components(chart, x)
    omega = dalpha_matrix(chart, x)
    expected = chart.dim - 1
    if float(np.linalg.norm(a)) < 1e-14:
        return ContactCheck(False, 0.0, 0, expected)
    # least squares, not a ContactFrame: a degenerate form is a result here
    reeb = np.linalg.lstsq(np.vstack([omega, a]), np.eye(chart.dim + 1)[-1], rcond=None)[0]
    basis = horizontal_basis(a, reeb)
    if basis.shape[0] < expected:
        return ContactCheck(False, 0.0, basis.shape[0], expected)
    restricted = basis @ omega @ basis.T
    rank = numkernel.numerical_rank(restricted, tol)
    det = abs(float(np.linalg.det(restricted)))
    return ContactCheck(rank == expected, det, rank, expected)
