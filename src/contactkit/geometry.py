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

:func:`frame_stack` builds the frames of a whole stack of points, one row
each: the chart's stacked alpha jet, one stacked inverse of ``B`` and the
same condition gate applied per row.  A :class:`ContactFrame` is that
inverse on a stack of one, so there is one frame path.  A single formula
on a chart is a :class:`ChartField` (its value and jet, at a point or over
a stack).  :func:`contact_check` reads the same ``B`` at a point or a
stack: nondegenerate exactly where the frames' gate passes, with residual
``|det B| = (c / n!)^2`` for ``c`` the coefficient of ``alpha ^ (d alpha)^n``.
:func:`_by_blocks` runs a failing block again row by row, so a stack raises
what its first failing row raises on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from . import numkernel
from .errors import ContactKitError
from .expr import Expression, Kernel, UnboundName, compiled, parse

TWO_PI = 2.0 * np.pi
Z0_TOL = 1e-8  # largest pairing with Reeb, relative to 1 + |eta|, that sharp accepts

# membership and sampling default for axes that are unbounded
_DEFAULT_SAMPLE_HALF_WIDTH = 2.0

_BLOCK = 512  # rows per stacked block: bounds the intermediates (about 1 MB) of any sweep


def _by_blocks(run: Callable[[np.ndarray], object], x: np.ndarray, skip=()) -> list:
    """``run`` over consecutive blocks of the rows of ``x`` (at least one
    block, empty for an empty stack).  A block that raises anything, a
    caller's callable included, is run again one row at a time: a row that
    raises one of ``skip`` is left out, and any other failure raises for
    the first row that has it, as it would for that row alone."""
    parts = []
    for start in range(0, max(len(x), 1), _BLOCK):
        block = x[start:start + _BLOCK]
        try:
            parts.append(run(block))
        except Exception:
            for k in range(len(block)):
                try:
                    parts.append(run(block[k:k + 1]))
                except skip:
                    pass
            if not skip:
                raise
    return parts


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

    def bindings(self, x: np.ndarray) -> dict[str, float]:
        return dict(zip(self.names, map(float, x)))

    @cached_property
    def alpha_kernel(self) -> Kernel:
        """The coefficients of the contact form compiled over ``names``."""
        return compiled(self.alpha, self.names)

    @cached_property
    def _axes(self) -> tuple[list[int], tuple[tuple[int, float, float], ...]]:
        """The periodic axes, and the bounded ones with their bounds."""
        periodic = [i for i, per in enumerate(self.periodic) if per]
        bounded = tuple((i, lo, hi) for i, ((lo, hi), per)
                        in enumerate(zip(self.bounds, self.periodic)) if not per)
        return periodic, bounded

    # wrap and contains take one point, with scalar operations (the per-step
    # hot path), or a stack of points, with one array operation per axis

    def wrap(self, coords) -> np.ndarray:
        """Copy of ``coords`` with periodic axes normalized to [0, 2 pi)."""
        x = np.array(coords, dtype=float)
        periodic = self._axes[0]
        if x.ndim == 1:
            for i in periodic:
                r = x[i] % TWO_PI
                # a tiny negative angle rounds up to exactly 2 pi
                x[i] = 0.0 if r == TWO_PI else r
            return x
        r = x[:, periodic] % TWO_PI
        r[r == TWO_PI] = 0.0
        x[:, periodic] = r
        return x

    def contains(self, coords):
        """Whether the point lies in the domain; a boolean per row for a stack."""
        x = np.asarray(coords, dtype=float)
        bounded = self._axes[1]
        if x.ndim == 1:
            for i, lo, hi in bounded:
                if not lo < x[i] < hi:
                    return False
            return True
        inside = np.ones(len(x), dtype=bool)
        for i, lo, hi in bounded:
            inside &= (lo < x[:, i]) & (x[:, i] < hi)
        return inside

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
        """Componentwise ``a - b`` (points or stacks) using the shortest arc on
        periodic axes."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        for i in self._axes[0]:
            d[..., i] = (d[..., i] + np.pi) % TWO_PI - np.pi
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


def _floats(x) -> list[float]:
    return np.asarray(x, dtype=float).tolist()


class ChartField:
    """Scalar field on a chart backed by an expression; derivatives are exact.

    The expression's own kernel does the work, through the chart positions
    of its arguments, so building a field compiles nothing; the first
    argument the chart lacks raises ``UnboundName`` as ``Expression.eval``
    does."""

    def __init__(self, chart: Chart, e: Union[Expression, str]):
        self.chart = chart
        self.expr = e if isinstance(e, Expression) else parse(e)
        missing = [name for name in self.expr.arguments if name not in chart.names]
        if missing:
            raise UnboundName(missing[0])
        self._positions = tuple(chart.names.index(name) for name in self.expr.arguments)

    def _args(self, x) -> list[float]:
        xs = _floats(x)
        return [xs[i] for i in self._positions]

    def __call__(self, x) -> float:
        return self.expr.kernel.value(*self._args(x))[0]

    def jet(self, x) -> tuple[float, np.ndarray]:
        """Value and gradient at ``x`` from one call of the kernel's jet."""
        (value,), (partials,) = self.expr.kernel.jet(*self._args(x))
        out = [0.0] * self.chart.dim
        for i, d in zip(self._positions, partials):
            out[i] = d
        return value, np.array(out)

    def gradient(self, x) -> np.ndarray:
        return self.jet(x)[1]

    def value_stack(self, x: np.ndarray) -> np.ndarray:
        """Values at the rows of an ``(N, dim)`` stack."""
        return self.expr.kernel.value_stack(x[:, self._positions])[:, 0]

    def jet_stack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(N,)`` and gradients ``(N, dim)`` at the rows of an
        ``(N, dim)`` stack, from one call of the kernel's stacked jet."""
        values, partials = self.expr.kernel.jet_stack(x[:, self._positions])
        grads = np.zeros(x.shape)
        grads[:, self._positions] = partials[:, 0]
        return values[:, 0], grads


FieldLike = Union[Expression, str, ChartField, Callable[[np.ndarray], float]]


def as_field(chart: Chart, f: FieldLike):
    """Coerce an expression, source text or callable to a scalar field on the chart."""
    if isinstance(f, ChartField):
        return f
    if isinstance(f, (Expression, str)):
        return ChartField(chart, f)
    return f


def _check_domain(chart: Chart, x) -> np.ndarray:
    """``x`` as floats; a stack raises for its first row outside the chart."""
    x = np.asarray(x, dtype=float)
    inside = chart.contains(x)
    if x.ndim == 1:
        if not inside:
            raise OutOfDomain(chart.id, x)
    elif not inside.all():
        raise OutOfDomain(chart.id, x[np.argmin(inside)])
    return x


def alpha_components(chart: Chart, x) -> np.ndarray:
    return np.array(chart.alpha_kernel.value(*_floats(x)))


def _alpha_jet(chart: Chart, x) -> tuple[np.ndarray, np.ndarray]:
    """``alpha`` and ``Omega`` at ``x`` from one call of the chart's kernel."""
    values, rows = chart.alpha_kernel.jet(*_floats(x))
    grads = np.array(rows)
    return np.array(values), grads.T - grads


def alpha_at(chart: Chart, x) -> CoVector:
    x = _check_domain(chart, x)
    return CoVector(chart.id, x, alpha_components(chart, x))


def dalpha_matrix(chart: Chart, x) -> np.ndarray:
    """Antisymmetric matrix of ``d alpha``: entry (j, k) is d_j a_k - d_k a_j.

    Coefficients are only differentiated along coordinates they mention;
    every other entry is exactly zero.
    """
    return _alpha_jet(chart, x)[1]


def dalpha_at(chart: Chart, x) -> np.ndarray:
    x = _check_domain(chart, x)
    return dalpha_matrix(chart, x)


# the frame gate: a condition estimate of B that is finite and at most
# 1 / DEFAULT_RANK_TOL, the rank scale of numkernel.solve
_COND_LIMIT = 1.0 / numkernel.DEFAULT_RANK_TOL


def _bordered(alpha: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """``B = [[Omega, alpha^T], [alpha, 0]]`` for a stack (``alpha`` is
    ``(N, d)``, ``omega`` ``(N, d, d)``), its inverse, both ``(N, d + 1,
    d + 1)``, and per row the 1-norm condition estimate of ``B``, infinite
    where ``B`` is exactly singular."""
    n, d = alpha.shape
    # the B and then their inverses in one array: one reduction gives every 1-norm
    pair = np.zeros((2 * n, d + 1, d + 1))
    bordered, inv = pair[:n], pair[n:]
    bordered[:, :d, :d] = omega
    bordered[:, :d, d] = bordered[:, d, :d] = alpha
    singular = []
    try:
        inv[:] = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:  # some row is exactly singular: find which
        for k, b in enumerate(bordered):
            try:
                inv[k] = np.linalg.inv(b)
            except np.linalg.LinAlgError:
                singular.append(k)
    norms = np.abs(pair).sum(axis=1).max(axis=1)
    cond = (norms[:n] * norms[n:]).tolist()
    for k in singular:
        cond[k] = np.inf
    return bordered, inv, cond


def _bordered_inverse(alpha: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Inverses ``(N, d + 1, d + 1)`` of the ``B`` of a stack; raises
    ``SingularSystem`` for the first row that fails the frame gate."""
    _, inv, cond = _bordered(alpha, omega)
    for c in cond:
        if not c <= _COND_LIMIT:  # a NaN estimate fails too
            raise numkernel.SingularSystem(None, alpha.shape[1] + 1, c)
    return inv


class ContactFrame:
    """Contact data of one chart at one point: the bordered inverse of
    ``B`` on a stack of one.  Raises ``SingularSystem`` where ``B`` fails
    the frame gate."""

    def __init__(self, chart: Chart, x):
        self.chart = chart
        self.x = np.asarray(x, dtype=float)
        self.alpha, self.omega = _alpha_jet(chart, self.x)
        d = chart.dim
        inv = _bordered_inverse(self.alpha[None], self.omega[None])[0]
        self._sharp = inv[:d, :d]
        self.reeb = inv[:d, d]

    def sharp(self, eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        pairing = float(eta @ self.reeb)
        if abs(pairing) > Z0_TOL * (1.0 + float(np.linalg.norm(eta))):
            raise NotInZ0(pairing)
        return self._sharp @ eta

    def field(self, value: float, df: np.ndarray) -> np.ndarray:
        """``X_f`` from ``f`` and ``df``: ``alpha(X_f) = f``, ``Omega X_f = df - df(Z) alpha``."""
        return self._sharp @ df + value * self.reeb


def frame_at(chart: Chart, x) -> ContactFrame:
    return ContactFrame(chart, _check_domain(chart, x))


class FrameStack(NamedTuple):
    """Contact frames at the rows of a stack: per row the block ``P`` of the
    bordered inverse (``sharp``) and the Reeb field (``reeb``)."""

    sharp: np.ndarray
    reeb: np.ndarray

    def fields(self, values: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """``X_f = P df + f Z`` per row for ``k`` generators: ``values`` is
        ``(N, k)``, ``grads`` ``(N, k, dim)``, the result ``(N, k, dim)``,
        each row as :meth:`ContactFrame.field` computes it."""
        return ((self.sharp[:, None] @ grads[..., None])[..., 0]
                + values[..., None] * self.reeb[:, None])


def frame_stack(chart: Chart, x) -> FrameStack:
    """Frames at the rows of an ``(N, dim)`` stack from one stacked alpha jet
    and one stacked bordered inverse; raises like :func:`frame_at` on the
    first row that fails."""
    x = _check_domain(chart, x)
    alpha, jac = chart.alpha_kernel.jet_stack(x)
    inv = _bordered_inverse(alpha, jac.transpose(0, 2, 1) - jac)
    d = chart.dim
    return FrameStack(inv[:, :d, :d], inv[:, :d, d])


def reeb_at(chart: Chart, x) -> TangentVector:
    fr = frame_at(chart, x)
    return TangentVector(chart.id, fr.x, fr.reeb)


def sharp(chart: Chart, x, eta) -> TangentVector:
    fr = frame_at(chart, x)
    components = eta.components if isinstance(eta, CoVector) else np.asarray(eta, dtype=float)
    return TangentVector(chart.id, fr.x, fr.sharp(components))


def decompose_vector(chart: Chart, x, v) -> tuple[float, TangentVector]:
    """Split ``v`` as ``alpha(v) * Z + horizontal``."""
    fr = frame_at(chart, x)
    components = v.components if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    along = float(fr.alpha @ components)
    horizontal = components - along * fr.reeb
    return along, TangentVector(chart.id, fr.x, horizontal)


@dataclass(frozen=True)
class ContactCheck:
    """Nondegeneracy at one point; for a stack, ``ok``, ``det_proxy`` and
    ``rank`` hold one entry per row."""

    ok: bool
    det_proxy: float
    rank: int
    expected_rank: int


def contact_check(chart: Chart, x) -> ContactCheck:
    """Sampled nondegeneracy from the ``B`` the frames invert, at one point or
    per row of an ``(N, dim)`` stack: ``ok`` where ``B`` passes the frame gate,
    exactly where :func:`frame_at` returns; ``det_proxy`` is ``|det B|``;
    ``rank``, that of ``d alpha`` on ker alpha, is ``numerical_rank(B) - 2``
    (0 where ``alpha`` vanishes)."""

    def run(x: np.ndarray) -> tuple[np.ndarray, ...]:
        a, jac = chart.alpha_kernel.jet_stack(_check_domain(chart, x))
        bordered, _, cond = _bordered(a, jac.transpose(0, 2, 1) - jac)
        rank = np.where(a.any(axis=1), numkernel.numerical_rank(bordered) - 2, 0)
        return np.array(cond) <= _COND_LIMIT, abs(np.linalg.det(bordered)), rank

    stack = np.asarray(x, dtype=float).reshape(-1, chart.dim)
    ok, det, rank = map(np.concatenate, zip(*_by_blocks(run, stack)))
    if np.ndim(x) == 1:
        return ContactCheck(bool(ok[0]), float(det[0]), int(rank[0]), chart.dim - 1)
    return ContactCheck(ok, det, rank, chart.dim - 1)
