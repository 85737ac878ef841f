"""Atlases glued by nonvanishing transition factors, sections, and the
projective momentum map.

Local contact forms on overlapping charts are related by ``alpha_U =
factor * pullback(alpha_V)``; the factors satisfy the cocycle identity on
triple overlaps and play the role of line-bundle transition functions.  A
:class:`Section` is a per-chart scalar expression compatible with the
factors, and it generates a chart-independent contact vector field.

Given a family of symmetry sections, ``momentum`` evaluates them at a
point and returns normalized homogeneous coordinates in projective space;
``classify`` sorts points into the regular transverse stratum, the sigma
stratum (commuting family tangent to the contact hyperplane), the common
zero locus, or unclassified when the momentum differential drops rank.

``classify`` and ``momentum_rank`` take one point or a stack of points of
one chart (a :class:`~contactkit.geometry.Point` whose coordinates are an
``(N, dim)`` array).  They work on blocks of rows: the section family is
one kernel on the chart, whose stacked values and then jets feed stacked
frames, fields, momentum ratios and ranks, so a sweep's intermediates stay
bounded.  A single point is a stack of one.  A block that raises is
classified again one row at a time, so the first failing row raises
exactly the error a per-point call raises on it.  ``validate_atlas`` and
``validate_section`` take each overlap's samples as one stack the same
way; an overlap's map is one kernel, whose jet is the transition Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from . import numkernel
from .errors import ContactKitError
from .expr import DomainError, Expression, Kernel, compiled, divide, linear_combination
from .geometry import (Chart, ChartField, Point, TangentVector, _by_blocks, frame_at,
                       frame_stack)
from .jacobi import _field_components, bracket

ZERO_TOL = 1e-9  # a section value of at most this magnitude is zero


class OutOfAtlas(ContactKitError):
    """A chart, overlap or local representative the atlas lacks."""


class ZeroDivisor(ContactKitError):
    def __init__(self, chart_id: str, x, value: float):
        self.chart_id = chart_id
        self.where = np.asarray(x, dtype=float)
        self.value = value
        super().__init__(f"section magnitude {abs(value):.3e} too small on chart "
                         f"{chart_id!r} at {self.where.tolist()}")


class ZeroLocus(ContactKitError):
    def __init__(self, chart_id: str, x):
        self.chart_id = chart_id
        self.where = np.asarray(x, dtype=float)
        super().__init__(f"all symmetry sections vanish at {self.where.tolist()} "
                         f"on chart {chart_id!r}")


@dataclass(frozen=True)
class Overlap:
    """Directed gluing data from chart ``src`` to chart ``dst``.

    ``forward`` gives the destination coordinates as expressions in the
    source coordinates; ``factor`` relates the local forms, ``alpha_src =
    factor * pullback(alpha_dst)``.  ``samples`` are validation points in
    source coordinates.
    """

    src: str
    dst: str
    forward: tuple[Expression, ...]
    factor: Expression
    samples: tuple = ()


class Atlas:
    def __init__(self, charts: Sequence[Chart], overlaps: Sequence[Overlap] = ()):
        self.charts: dict[str, Chart] = {}
        dims = {chart.dim for chart in charts}
        if len(dims) > 1:
            raise ValueError(f"charts of one atlas must share a dimension, got {sorted(dims)}")
        for chart in charts:
            if chart.id in self.charts:
                raise ValueError(f"duplicate chart id {chart.id!r}")
            self.charts[chart.id] = chart
        self.overlaps: dict[tuple[str, str], Overlap] = {}
        for ov in overlaps:
            if ov.src not in self.charts or ov.dst not in self.charts:
                raise ValueError(f"overlap {ov.src}->{ov.dst} references unknown chart")
            if len(ov.forward) != self.charts[ov.dst].dim:
                raise ValueError(f"overlap {ov.src}->{ov.dst}: map has wrong arity")
            self.overlaps[(ov.src, ov.dst)] = ov

    @property
    def chart_ids(self) -> tuple[str, ...]:
        return tuple(self.charts)

    def chart(self, chart_id: str) -> Chart:
        try:
            return self.charts[chart_id]
        except KeyError:
            raise OutOfAtlas(f"no chart {chart_id!r} in atlas") from None

    def chart_of(self, point: Point) -> Chart:
        return self.chart(point.chart)

    def neighbors(self, chart_id: str) -> tuple[str, ...]:
        return tuple(dst for (src, dst) in self.overlaps if src == chart_id)

    def _overlap(self, src: str, dst: str) -> Overlap:
        ov = self.overlaps.get((src, dst))
        if ov is None:
            raise OutOfAtlas(f"no overlap {src!r} -> {dst!r}")
        return ov

    def _map(self, src: str, dst: str) -> Kernel:
        """The overlap's map over the source names; its jet is the Jacobian."""
        return compiled(self._overlap(src, dst).forward, self.charts[src].names)

    def map_coords(self, src: str, dst: str, x) -> np.ndarray:
        """Destination coordinates of one point or of each row of a stack."""
        kernel = self._map(src, dst)
        x = np.asarray(x, dtype=float)
        return kernel.value_stack(x) if x.ndim == 2 else np.array(kernel.value(*x.tolist()))

    def transfer(self, point: Point, dst: str) -> Point:
        if point.chart == dst:
            return point
        return self.chart(dst).point(self.map_coords(point.chart, dst, point.coords))

    def factor_at(self, src: str, dst: str, x):
        """The factor at one point (a float) or at each row of a stack."""
        factor = ChartField(self.charts[src], self._overlap(src, dst).factor)
        return factor.value_stack(x) if np.ndim(x) == 2 else factor(x)

    def transition_jacobian(self, src: str, dst: str, x) -> np.ndarray:
        """Matrix ``J[m, l] = d (dst coord m) / d (src coord l)`` at ``x``, or
        one per row of a stack."""
        kernel = self._map(src, dst)
        x = np.asarray(x, dtype=float)
        return kernel.jet_stack(x)[1] if x.ndim == 2 else np.array(kernel.jet(*x.tolist())[1])

    def triple_ids(self) -> list[tuple[str, str, str]]:
        ids = list(self.charts)
        triples = []
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                for c in range(b + 1, len(ids)):
                    i, j, k = ids[a], ids[b], ids[c]
                    needed = [(i, j), (j, i), (i, k), (k, i), (j, k), (k, j)]
                    if all(pair in self.overlaps for pair in needed):
                        triples.append((i, j, k))
        return triples


@dataclass(frozen=True)
class Section:
    """Scalar data per chart, compatible across overlaps through the factors."""

    name: str
    local: Mapping[str, Expression]

    def on(self, chart_id: str) -> Expression:
        try:
            return self.local[chart_id]
        except KeyError:
            raise OutOfAtlas(f"section {self.name!r} has no representative "
                             f"on chart {chart_id!r}") from None


def combine_sections(name: str, terms: Sequence[tuple[float, Section]]) -> Section:
    """Pointwise linear combination, built chart by chart."""
    chart_ids = set.intersection(*(set(s.local) for _, s in terms))
    local = {cid: linear_combination([(c, s.on(cid)) for c, s in terms])
             for cid in chart_ids}
    return Section(name, local)


def section_value(atlas: Atlas, s: Section, point: Point) -> float:
    chart = atlas.chart_of(point)
    return s.on(chart.id).eval(chart.bindings(point.coords))


def section_field(atlas: Atlas, s: Section, point: Point) -> TangentVector:
    chart = atlas.chart_of(point)
    fr = frame_at(chart, point.coords)
    return TangentVector(chart.id, fr.x,
                         _field_components(fr, ChartField(chart, s.on(chart.id))))


def section_bracket(atlas: Atlas, s1: Section, s2: Section, point: Point) -> float:
    """Local representative of the bracket at the point's chart."""
    chart = atlas.chart_of(point)
    return bracket(chart, s1.on(chart.id), s2.on(chart.id), point.coords)


def section_ratio(atlas: Atlas, num: Section, den: Section) -> Callable[[Point], float]:
    """Chart-independent quotient ``num / den``, usable as a flow integral."""

    def value(point: Point) -> float:
        chart = atlas.chart(point.chart)
        return ChartField(chart, divide(num.on(chart.id), den.on(chart.id)))(point.coords)

    return value


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class CheckRecord:
    check: str
    subject: str
    residual: float
    ok: bool
    where: np.ndarray | None = None


@dataclass
class AtlasReport:
    records: list[CheckRecord]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def worst(self, check: str) -> float:
        values = [r.residual for r in self.records if r.check == check]
        return max(values) if values else 0.0


def _worst(values: np.ndarray, samples: np.ndarray,
           start: float = 0.0) -> tuple[float, np.ndarray | None]:
    """The largest of ``values`` above ``start`` with its sample, the first
    one on ties, as the loop ``if v > worst: worst, where = v, x`` keeps it,
    with NaN ranked as +inf so that it fails every tolerance; ``(start,
    None)`` when none is above."""
    v = np.where(np.isnan(values), np.inf, values)
    k = int(np.argmax(v)) if len(v) else 0
    if len(v) and v[k] > start:
        return float(values[k]), samples[k]
    return start, None


def validate_atlas(atlas: Atlas,
                   form_tol: float = 1e-9,
                   cocycle_tol: float = 1e-10,
                   roundtrip_tol: float = 1e-9) -> AtlasReport:
    """Check the gluing data on the stored overlap samples: coordinate maps
    invert each other, the local forms match through the factors, and the
    factors multiply to one around every triple overlap.  Each overlap's
    samples are one stack."""
    records: list[CheckRecord] = []
    for (src, dst), ov in atlas.overlaps.items():
        subject = f"{src}->{dst}"
        src_chart, dst_chart = atlas.charts[src], atlas.charts[dst]
        if (dst, src) not in atlas.overlaps:
            records.append(CheckRecord("roundtrip", subject, np.inf, False))
            continue
        if not ov.samples:
            records.append(CheckRecord("overlap-samples", subject, np.inf, False))
            continue

        def run(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            y = atlas.map_coords(src, dst, x)
            back = atlas.map_coords(dst, src, y)
            rt = np.max(np.abs(src_chart.shortest_arc_delta(back, x)), axis=1)
            a = src_chart.alpha_kernel.value_stack(x)
            g = atlas.factor_at(src, dst, x)
            b = dst_chart.alpha_kernel.value_stack(y)
            pulled = (atlas.transition_jacobian(src, dst, x).transpose(0, 2, 1)
                      @ b[..., None])[..., 0]
            return rt, np.max(np.abs(a - g[:, None] * pulled), axis=1)

        x = np.array(ov.samples, dtype=float).reshape(-1, src_chart.dim)
        rt, form = map(np.concatenate, zip(*_by_blocks(run, x)))
        worst_rt, where_rt = _worst(rt, x)
        worst_form, where_form = _worst(form, x)
        records.append(CheckRecord("roundtrip", subject, worst_rt,
                                   worst_rt < roundtrip_tol, where_rt))
        records.append(CheckRecord("form-compatibility", subject, worst_form,
                                   worst_form < form_tol, where_form))
    for (i, j, k) in atlas.triple_ids():

        def cocycle(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The rows whose images lie in both charts, with their deviations."""
            yj = atlas.map_coords(i, j, x)
            yk = atlas.map_coords(i, k, x)
            inside = atlas.charts[j].contains(yj) & atlas.charts[k].contains(yk)
            x, yj, yk = x[inside], yj[inside], yk[inside]
            # both orientations together exercise every directed factor
            forward = (atlas.factor_at(i, j, x) * atlas.factor_at(j, k, yj)
                       * atlas.factor_at(k, i, yk))
            backward = (atlas.factor_at(i, k, x) * atlas.factor_at(k, j, yk)
                        * atlas.factor_at(j, i, yj))
            up, down = np.abs(forward - 1.0), np.abs(backward - 1.0)
            return x, np.where(down > up, down, up)

        x = np.array(atlas.overlaps[(i, j)].samples, dtype=float).reshape(-1, atlas.charts[i].dim)
        # a sample whose images leave a domain is left out
        parts = _by_blocks(cocycle, x, skip=(DomainError, OutOfAtlas))
        tested, dev = map(np.concatenate, zip(*parts)) if parts else ((), ())
        if len(tested):
            worst, where = _worst(dev, tested)
            records.append(CheckRecord("cocycle", f"{i},{j},{k}", worst,
                                       worst < cocycle_tol, where))
    return AtlasReport(records)


def validate_section(atlas: Atlas, s: Section, tol: float = 1e-9) -> AtlasReport:
    """Compatibility ``s_src = factor * (s_dst after the coordinate map)`` on
    every overlap where both representatives exist, relative error, over
    the overlap's samples as one stack."""
    records: list[CheckRecord] = []
    for (src, dst), ov in atlas.overlaps.items():
        if src not in s.local or dst not in s.local:
            continue

        def run(x: np.ndarray) -> np.ndarray:
            left = ChartField(atlas.charts[src], s.local[src]).value_stack(x)
            y = atlas.map_coords(src, dst, x)
            right = (atlas.factor_at(src, dst, x)
                     * ChartField(atlas.charts[dst], s.local[dst]).value_stack(y))
            return np.abs(left - right) / (1.0 + np.abs(left))

        x = np.array(ov.samples, dtype=float).reshape(-1, atlas.charts[src].dim)
        worst, where = _worst(np.concatenate(_by_blocks(run, x)), x) if len(x) else (0.0, None)
        records.append(CheckRecord("section-compatibility",
                                   f"{s.name}:{src}->{dst}", worst, worst < tol, where))
    return AtlasReport(records)


# ---------------------------------------------------------------------------
# Rescaling by a section

@dataclass(frozen=True)
class RescaledFamily:
    """Charts of ``alpha / s`` on the open set where the section is nonzero.

    The Reeb field of any rescaled chart reproduces the contact field
    generated by the section itself.
    """

    section: Section
    charts: Mapping[str, Chart]

    def chart_at(self, atlas: Atlas, point: Point) -> Chart:
        rep = self.section.on(point.chart)
        value = rep.eval(atlas.chart(point.chart).bindings(point.coords))
        if abs(value) <= ZERO_TOL:
            raise ZeroDivisor(point.chart, point.coords, value)
        return self.charts[point.chart]


def rescale(atlas: Atlas, s: Section) -> RescaledFamily:
    charts = {}
    for cid, chart in atlas.charts.items():
        if cid not in s.local:
            continue
        rep = s.local[cid]
        scaled = tuple(divide(a, rep) for a in chart.alpha)
        charts[cid] = Chart(id=f"{cid}/{s.name}", names=chart.names, alpha=scaled,
                            periodic=chart.periodic, bounds=chart.bounds,
                            sample_box=chart.sample_box,
                            denominator=chart.denominator if chart.denominator is not None else rep)
    return RescaledFamily(s, charts)


# ---------------------------------------------------------------------------
# Momentum map and stratification

@dataclass(frozen=True, eq=False)
class MomentumValue:
    """Normalized homogeneous coordinates: unit norm, first component of
    meaningful size made positive, plus the affine chart index used."""

    homogeneous: np.ndarray
    chart_index: int


def _stack_of(atlas: Atlas, point: Point) -> tuple[Chart, np.ndarray]:
    chart = atlas.chart_of(point)
    return chart, np.asarray(point.coords, dtype=float).reshape(-1, chart.dim)


def _family(chart: Chart, sections: Sequence[Section]) -> Kernel:
    """The sections' representatives on the chart as one kernel over its
    names: values ``(N, k)`` and gradients ``(N, k, dim)`` per stack."""
    return compiled(tuple(s.on(chart.id) for s in sections), chart.names)


def momentum(atlas: Atlas, sections: Sequence[Section], point: Point) -> MomentumValue:
    chart, x = _stack_of(atlas, point)
    values = _family(chart, sections).value_stack(x)[0]
    magnitudes = np.abs(values)
    if magnitudes.max() <= ZERO_TOL:
        raise ZeroLocus(point.chart, point.coords)
    u = values / np.linalg.norm(values)
    lead = int(np.argmax(np.abs(u) > ZERO_TOL))
    if u[lead] < 0.0:
        u = -u
    u.flags.writeable = False
    return MomentumValue(u, int(np.argmax(magnitudes)))


def _ratio_rows(values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Per row, ``d(s_m / s_pivot)`` for ``m`` other than the section of
    largest magnitude, by the quotient rule that Dual division applies:
    ``(N, k - 1, dim)``."""
    n, k, dim = grads.shape
    rows = np.arange(n)
    pivot = np.abs(values).argmax(axis=1)
    vp = values[rows, pivot][:, None, None]
    gp = grads[rows, pivot][:, None, :]
    ratios = (grads * vp - values[:, :, None] * gp) / (vp * vp)
    return ratios[np.arange(k) != pivot[:, None]].reshape(n, k - 1, dim)


def momentum_rank(atlas: Atlas, sections: Sequence[Section], point: Point):
    """Rank of the differential of the affine momentum chart through the
    section of largest magnitude at the point; an array of ranks for a
    stack of points."""
    chart, x = _stack_of(atlas, point)
    single = np.ndim(point.coords) == 1

    def run(block: np.ndarray):
        family = _family(chart, sections)
        values = family.value_stack(block)
        zero = np.abs(values).max(axis=1) <= ZERO_TOL
        if zero.any():
            raise ZeroLocus(point.chart, block[np.argmax(zero)])
        ratios = _ratio_rows(values, family.jet_stack(block)[1])
        # a single point hands numerical_rank its one matrix
        return numkernel.numerical_rank(ratios[0] if single else ratios,
                                        numkernel.DEFAULT_RANK_TOL)

    parts = _by_blocks(run, x)
    return parts[0] if single else np.concatenate(parts)


class Stratum(Enum):
    REGULAR_TRANSVERSE = "regular_transverse"
    SIGMA = "sigma"
    ZERO_LOCUS = "zero_locus"
    UNCLASSIFIED = "unclassified"


_STRATA = tuple(Stratum)
_CODE = {s: i for i, s in enumerate(_STRATA)}


@dataclass(frozen=True)
class StratumReport:
    stratum: Stratum
    dimE: int
    dimF: int
    transverse: bool


@dataclass(frozen=True, eq=False)
class Strata:
    """Stratum reports of a stack of points, one entry per row: ``stratum``
    holds indices into ``Stratum`` in declaration order."""

    stratum: np.ndarray
    dimE: np.ndarray
    dimF: np.ndarray
    transverse: np.ndarray

    def __len__(self) -> int:
        return len(self.stratum)

    def __getitem__(self, i: int) -> StratumReport:
        return StratumReport(_STRATA[self.stratum[i]], int(self.dimE[i]),
                             int(self.dimF[i]), bool(self.transverse[i]))

    def counts(self) -> dict[Stratum, int]:
        return dict(zip(_STRATA, np.bincount(self.stratum, minlength=len(_STRATA)).tolist()))


def classify(atlas: Atlas, sections: Sequence[Section], r: int, point: Point,
             strata_tol: float = 1e-8,
             rank_tol: float = numkernel.DEFAULT_RANK_TOL):
    """Assign the point to a stratum of the symmetry family: a
    :class:`StratumReport` for one point, :class:`Strata` for a stack.

    ``sections`` must be ordered with the commuting subfamily first:
    ``sections[0 .. r]`` are required to commute with every member.  The
    report carries the computed ranks of the generated distributions
    (``dimE`` for the whole family, ``dimF`` for the commuting part) and
    whether the commuting family is transverse to the contact hyperplane.
    The rows of a stack are classified together, block by block (see the
    module docstring); the domain of the chart is checked there too, so a
    point outside it fails in row order with every other error.
    """
    if not 0 <= r < len(sections):
        raise ValueError(f"commuting index bound r={r} outside 0..{len(sections) - 1}")
    chart, x = _stack_of(atlas, point)
    p = len(sections) - 1

    def run(block: np.ndarray) -> tuple[np.ndarray, ...]:
        frames = frame_stack(chart, block)
        family = _family(chart, sections)
        values = family.value_stack(block)
        grads = family.jet_stack(block)[1]
        vectors = frames.fields(values, grads)
        dim_e = numkernel.numerical_rank(vectors, rank_tol)
        dim_f = numkernel.numerical_rank(vectors[:, : r + 1], rank_tol)
        scale = 1.0 + np.abs(values).max(axis=1)
        small = np.abs(values) <= strata_tol * scale[:, None]
        commuting_vanish = small[:, : r + 1].all(axis=1)
        zero = small.all(axis=1)
        live = ~zero
        dropped = np.zeros(len(block), dtype=bool)
        dropped[live] = numkernel.numerical_rank(
            _ratio_rows(values[live], grads[live]), rank_tol) < p
        stratum = np.select([zero, dropped, commuting_vanish],
                            [_CODE[Stratum.ZERO_LOCUS], _CODE[Stratum.UNCLASSIFIED],
                             _CODE[Stratum.SIGMA]], _CODE[Stratum.REGULAR_TRANSVERSE])
        return stratum, dim_e, dim_f, ~commuting_vanish

    strata = Strata(*map(np.concatenate, zip(*_by_blocks(run, x))))
    return strata[0] if np.ndim(point.coords) == 1 else strata
