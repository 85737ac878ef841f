"""Coordinate charts carrying a contact form, and the pointwise contact calculus.

A :class:`Chart` is a coordinate cube of odd dimension ``2n + 1`` whose
1-form is given per coordinate slot by an expression, ``alpha = sum_j
a_j(x) dx_j``.  Periodic coordinates have period ``2 pi`` and are stored
normalized to ``[0, 2 pi)`` on :class:`Point` construction.  Membership
is one rule, stated and kept by :class:`Chart`: every domain test here calls
:meth:`Chart.checked` for one point or :meth:`Chart.contains` for a stack.

The operations here realize the pointwise structure of a cooriented
contact chart: the 2-form ``d alpha`` as an antisymmetric matrix ``Omega``,
the Reeb field (``alpha(Z) = 1`` and ``i_Z d alpha = 0``), the sharp
isomorphism inverting ``X -> -i_X d alpha`` between horizontal fields and
the annihilator of the Reeb direction, and a sampled nondegeneracy check for
``alpha ^ (d alpha)^n != 0``.  That condition holds exactly where
``B = [[Omega, alpha^T], [alpha, 0]]`` is nonsingular, and a
:class:`ContactFrame` inverts ``B`` once per point.  The inverse's last
column is the Reeb field; its leading block ``P`` maps ``eta`` to ``X`` with
``alpha(X) = 0``, ``Omega X = eta - eta(Z) alpha``: sharp on the
annihilator of ``Z``, and ``P alpha = 0``.

:func:`frame_stack` builds the frames of a whole stack of points, one row
each: per block of rows, the chart's stacked alpha jet, one stacked inverse
of ``B`` and the condition gate applied per row.  A :class:`ContactFrame`
takes the rows of ``B`` at one point as Python floats from the chart's
kernel and inverts it once; a point and a stack share ``B``, the gate and
the bits.  A single formula
on a chart is a :class:`ChartField` (its value and jet, at a point or over
a stack), compiled over the chart's coordinates as the contact form is.
:func:`contact_check` reads the same ``B`` at a point or a stack:
nondegenerate exactly where the frames' gate passes, with residual
``|det B| = (c / n!)^2`` for ``c`` the coefficient of ``alpha ^ (d alpha)^n``.
:func:`_by_blocks` runs a failing block again row by row, so a stack raises
what its first failing row raises on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from . import numkernel
from .errors import ContactKitError
from .expr import Expression, Kernel, compiled, parse

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
    axes, which always cover a full period).  A point lies in the chart
    when every angle is finite and every other coordinate lies strictly
    inside its bound: :meth:`checked` decides this for one point on Python
    floats, :meth:`contains` for each row of a stack.  ``sample_box``
    bounds the region used by sampled validation; it defaults to the
    domain clipped to ``(-2, 2)``, or, where the domain misses that
    interval, to the domain with its open side, if any, cut 4 from the
    finite end.
    ``denominator`` is an optional scalar expression whose decay signals
    that the chart is about to become invalid; the flow integrator uses it
    to decide when to change charts.
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
    def denominator_field(self) -> ChartField | None:
        """The chart-health ``denominator`` as a field on this chart, if any."""
        return None if self.denominator is None else ChartField(self, self.denominator)

    @cached_property
    def _axes(self) -> tuple[list[int], tuple[tuple[int, float, float], ...]]:
        """The periodic axes, and the bounded ones with their bounds."""
        periodic = [i for i, per in enumerate(self.periodic) if per]
        bounded = tuple((i, lo, hi) for i, ((lo, hi), per)
                        in enumerate(zip(self.bounds, self.periodic)) if not per)
        return periodic, bounded

    # wrap and contains treat a point as one row of a stack, with one array
    # operation per axis; checked is the one-point form on Python floats

    def wrap(self, coords) -> np.ndarray:
        """Copy of ``coords``, a point or a stack, with periodic axes
        normalized to [0, 2 pi); a non-finite angle becomes NaN, which
        lies outside the chart, without a numpy warning."""
        x = np.array(coords, dtype=float)
        rows, periodic = x.reshape(-1, self.dim), self._axes[0]  # rows: a view of x
        with np.errstate(invalid="ignore"):
            r = rows[:, periodic] % TWO_PI
        # a tiny negative angle rounds up to exactly 2 pi
        r[r == TWO_PI] = 0.0
        rows[:, periodic] = r
        return x

    def contains(self, coords) -> np.ndarray:
        """Whether each row of ``coords`` lies in the domain, as
        :meth:`checked` decides for that row alone; a 0-d array for a point."""
        x = np.asarray(coords, dtype=float)
        rows = x.reshape(-1, self.dim)
        periodic, bounded = self._axes
        inside = np.isfinite(rows[:, periodic]).all(axis=1)
        for i, lo, hi in bounded:
            inside &= (lo < rows[:, i]) & (rows[:, i] < hi)
        return inside.reshape(x.shape[:-1])

    def checked(self, coords) -> list[float]:
        """The coordinates of one point as Python floats with the angles
        wrapped, or ``OutOfDomain``.  A non-finite coordinate lies outside
        every chart: an angle is tested before it wraps, since it would wrap
        to NaN."""
        x = np.asarray(coords, dtype=float).tolist()
        periodic, bounded = self._axes
        for i in periodic:
            if not math.isfinite(x[i]):
                raise OutOfDomain(self.id, coords)
            r = x[i] % TWO_PI
            x[i] = 0.0 if r == TWO_PI else r
        for i, lo, hi in bounded:
            if not lo < x[i] < hi:
                raise OutOfDomain(self.id, x)
        return x

    def point(self, coords) -> "Point":
        """The point at ``coords`` with its angles wrapped, or ``OutOfDomain``."""
        x = np.array(self.checked(coords))
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
            if clo >= chi:  # the domain misses (-2, 2): 4 wide from its finite end
                clo = hi - 2.0 * _DEFAULT_SAMPLE_HALF_WIDTH if lo == -np.inf else lo
                chi = lo + 2.0 * _DEFAULT_SAMPLE_HALF_WIDTH if hi == np.inf else hi
            box.append((clo, chi))
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


def _floats(x) -> list[float]:
    return np.asarray(x, dtype=float).tolist()


class ChartField:
    """Scalar field on a chart backed by an expression; derivatives are exact.

    The formula is compiled over the chart's coordinates, like the contact
    form, so equal formulas on one chart share one kernel; a name the chart
    lacks raises ``UnboundName`` as ``Expression.eval`` does."""

    def __init__(self, chart: Chart, e: Union[Expression, str]):
        self.chart = chart
        self.expr = e if isinstance(e, Expression) else parse(e)
        self.kernel = compiled((self.expr,), chart.names)

    def __call__(self, x) -> float:
        return self.kernel.value(*_floats(x))[0]

    def jet(self, x) -> tuple[float, np.ndarray]:
        """Value and gradient at ``x`` from one call of the kernel's jet."""
        (value,), (partials,) = self.kernel.jet(*_floats(x))
        return value, np.array(partials)

    def gradient(self, x) -> np.ndarray:
        return self.jet(x)[1]

    def value_stack(self, x: np.ndarray) -> np.ndarray:
        """Values at the rows of an ``(N, dim)`` stack."""
        return self.kernel.value_stack(x)[:, 0]

    def jet_stack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(N,)`` and gradients ``(N, dim)`` at the rows of an ``(N, dim)`` stack."""
        values, partials = self.kernel.jet_stack(x)
        return values[:, 0], partials[:, 0]


FieldLike = Union[Expression, str, ChartField, Callable[[np.ndarray], float]]


def as_field(chart: Chart, f: FieldLike):
    """Coerce an expression, source text or callable to a scalar field on the chart."""
    return ChartField(chart, f) if isinstance(f, (Expression, str)) else f


def _check_domain(chart: Chart, x) -> np.ndarray:
    """``x`` as floats, or ``OutOfDomain``: a point is tested by
    :meth:`Chart.checked`, a stack by :meth:`Chart.contains`, raising for
    its first row outside the chart."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        chart.checked(x)
    elif not (inside := chart.contains(x)).all():
        raise OutOfDomain(chart.id, x[np.argmin(inside)])
    return x


def alpha_components(chart: Chart, x) -> np.ndarray:
    return np.array(chart.alpha_kernel.value(*_floats(x)))


def dalpha_matrix(chart: Chart, x) -> np.ndarray:
    """Antisymmetric matrix of ``d alpha``: entry (j, k) is d_j a_k - d_k a_j.

    Coefficients are only differentiated along coordinates they mention;
    every other entry is exactly zero.  It is the leading block of the
    bordered ``B`` a :class:`ContactFrame` inverts.
    """
    return np.array(chart.alpha_kernel.bordered(*_floats(x)))[:-1, :-1]


def dalpha_at(chart: Chart, x) -> np.ndarray:
    x = _check_domain(chart, x)
    return dalpha_matrix(chart, x)


# the frame gate: a condition estimate of B that is finite and at most
# 1 / DEFAULT_RANK_TOL, the rank scale of numkernel.solve
_COND_LIMIT = 1.0 / numkernel.DEFAULT_RANK_TOL


def _conditions(pair: np.ndarray) -> list[float]:
    """The 1-norm condition estimates ``|B|_1 |B^-1|_1`` from a stack of the
    ``B`` followed by their inverses.  The products are taken on Python
    floats, so one that overflows is infinite without a numpy warning."""
    norms = np.abs(pair).sum(axis=1).max(axis=1).tolist()
    n = len(norms) // 2
    return [p * q for p, q in zip(norms[:n], norms[n:])]


def _gate(cond: list[float], size: int) -> None:
    """Raise ``SingularSystem`` for the first estimate that fails the frame gate."""
    for c in cond:
        if not c <= _COND_LIMIT:  # a NaN estimate fails too
            raise numkernel.SingularSystem(None, size, c)


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
    cond = _conditions(pair)
    for k in singular:
        cond[k] = np.inf
    return bordered, inv, cond


class ContactFrame:
    """Contact data of one chart at one point ``x``: an array, or a list of
    Python floats as :meth:`Chart.checked` returns.  The chart's kernel gives
    the rows of ``B`` at those floats, and ``B`` is inverted once and passes
    the frame gate of :func:`frame_stack`, so a frame equals its row of a
    stack bit for bit; ``alpha`` and ``omega`` are views of ``B``.  Raises
    ``SingularSystem`` where ``B`` fails the gate."""

    def __init__(self, chart: Chart, x):
        self.chart = chart
        self.coords = x if isinstance(x, list) else _floats(x)
        b = np.array(chart.alpha_kernel.bordered(*self.coords))
        d = chart.dim
        try:
            inv = np.linalg.inv(b)
        except np.linalg.LinAlgError:  # exactly singular
            raise numkernel.SingularSystem(None, d + 1, np.inf) from None
        _gate(_conditions(np.array((b, inv))), d + 1)
        self.alpha, self.omega = b[d, :d], b[:d, :d]
        self._sharp = inv[:d, :d]
        self.reeb = inv[:d, d]

    @cached_property
    def x(self) -> np.ndarray:
        return np.array(self.coords)

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
    and one stacked bordered inverse per block of rows; raises what
    :func:`frame_at` raises on the first row that fails."""
    d = chart.dim

    def run(x: np.ndarray) -> np.ndarray:
        alpha, jac = chart.alpha_kernel.jet_stack(_check_domain(chart, x))
        # a B that overflows fails the gate, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            _, inv, cond = _bordered(alpha, jac.transpose(0, 2, 1) - jac)
        _gate(cond, d + 1)
        return inv

    inv = np.concatenate(_by_blocks(run, np.asarray(x, dtype=float)))
    return FrameStack(inv[:, :d, :d], inv[:, :d, d])


def reeb_at(chart: Chart, x) -> TangentVector:
    fr = frame_at(chart, x)
    return TangentVector(chart.id, fr.x, fr.reeb)


def sharp(chart: Chart, x, eta) -> TangentVector:
    fr = frame_at(chart, x)
    return TangentVector(chart.id, fr.x, fr.sharp(eta))


@dataclass(frozen=True)
class ContactCheck:
    """Nondegeneracy at one point; for a stack, ``ok``, ``det_proxy`` and
    ``rank`` hold one entry per row.  ``rank`` is computed from the checked
    ``B``, block by block, the first time it is read; it is 0 on a row whose
    ``B`` is not finite."""

    ok: bool
    det_proxy: float
    expected_rank: int
    _blocks: tuple = field(repr=False, compare=False)

    @cached_property
    def rank(self):
        """``numerical_rank(B) - 2`` per row, 0 where ``alpha`` vanishes or
        ``B`` is not finite."""
        ranks = np.concatenate([
            np.where(b[:, -1, :-1].any(axis=1) & np.isfinite(b).all(axis=(1, 2)),
                     numkernel.numerical_rank(b) - 2, 0) for b in self._blocks])
        return int(ranks[0]) if np.ndim(self.ok) == 0 else ranks


def contact_check(chart: Chart, x) -> ContactCheck:
    """Sampled nondegeneracy from the ``B`` the frames invert, at one point or
    per row of an ``(N, dim)`` stack: ``ok`` where ``B`` passes the frame gate,
    exactly where :func:`frame_at` returns; ``det_proxy`` is ``|det B|``;
    ``rank``, that of ``d alpha`` on ker alpha, is ``numerical_rank(B) - 2``
    (0 where ``alpha`` vanishes or ``B`` is not finite, as when ``Omega``
    overflows), computed only when read.  Such a row fails the gate without
    a numpy warning."""

    def run(x: np.ndarray) -> tuple[np.ndarray, ...]:
        a, jac = chart.alpha_kernel.jet_stack(_check_domain(chart, x))
        # an Omega, norm or determinant that overflows, or a determinant that
        # underflows to 0, fails its row's gate: numpy need not warn
        with np.errstate(all="ignore"):
            bordered, _, cond = _bordered(a, jac.transpose(0, 2, 1) - jac)
            det = abs(np.linalg.det(bordered))
        return np.array(cond) <= _COND_LIMIT, det, bordered

    stack = np.asarray(x, dtype=float).reshape(-1, chart.dim)
    ok, det, blocks = zip(*_by_blocks(run, stack))
    ok, det = np.concatenate(ok), np.concatenate(det)
    if np.ndim(x) == 1:
        return ContactCheck(bool(ok[0]), float(det[0]), chart.dim - 1, blocks)
    return ContactCheck(ok, det, chart.dim - 1, blocks)
