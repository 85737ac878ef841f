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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from . import numkernel
from .errors import ContactKitError
from .expr import DomainError, Expression, divide, linear_combination
from .geometry import Chart, ChartField, Point, TangentVector, alpha_components, frame_at
from .jacobi import _field_components, bracket


class OutOfAtlas(ContactKitError):
    def __init__(self, what: str):
        super().__init__(what)


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

    def map_coords(self, src: str, dst: str, x) -> np.ndarray:
        ov = self.overlaps.get((src, dst))
        if ov is None:
            raise OutOfAtlas(f"no overlap {src!r} -> {dst!r}")
        env = self.charts[src].bindings(x)
        return np.array([e.eval(env) for e in ov.forward])

    def transfer(self, point: Point, dst: str) -> Point:
        if point.chart == dst:
            return point
        return self.chart(dst).point(self.map_coords(point.chart, dst, point.coords))

    def factor_at(self, src: str, dst: str, x) -> float:
        ov = self.overlaps.get((src, dst))
        if ov is None:
            raise OutOfAtlas(f"no overlap {src!r} -> {dst!r}")
        return ov.factor.eval(self.charts[src].bindings(x))

    def transition_jacobian(self, src: str, dst: str, x) -> np.ndarray:
        """Matrix ``J[m, l] = d (dst coord m) / d (src coord l)`` at ``x``."""
        ov = self.overlaps.get((src, dst))
        if ov is None:
            raise OutOfAtlas(f"no overlap {src!r} -> {dst!r}")
        src_chart = self.charts[src]
        env = src_chart.bindings(x)
        return np.array([e.gradient(env, src_chart.names) for e in ov.forward])

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
    cache: dict[str, ChartField] = {}

    def value(point: Point) -> float:
        if point.chart not in cache:
            chart = atlas.chart(point.chart)
            cache[point.chart] = ChartField(chart, divide(num.on(chart.id),
                                                          den.on(chart.id)))
        return cache[point.chart](point.coords)

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


def _pullback_form(atlas: Atlas, src: str, dst: str, x) -> np.ndarray:
    y = atlas.map_coords(src, dst, x)
    b = alpha_components(atlas.charts[dst], y)
    jac = atlas.transition_jacobian(src, dst, x)
    return jac.T @ b


def validate_atlas(atlas: Atlas,
                   form_tol: float = 1e-9,
                   cocycle_tol: float = 1e-10,
                   roundtrip_tol: float = 1e-9) -> AtlasReport:
    """Check the gluing data on the stored overlap samples: coordinate maps
    invert each other, the local forms match through the factors, and the
    factors multiply to one around every triple overlap."""
    records: list[CheckRecord] = []
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
            y = atlas.map_coords(src, dst, x)
            back = atlas.map_coords(dst, src, y)
            rt = float(np.max(np.abs(src_chart.shortest_arc_delta(back, x))))
            if rt > worst_rt:
                worst_rt, where_rt = rt, x
            a = alpha_components(src_chart, x)
            g = ov.factor.eval(src_chart.bindings(x))
            form = float(np.max(np.abs(a - g * _pullback_form(atlas, src, dst, x))))
            if form > worst_form:
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
                yj = atlas.map_coords(i, j, x)
                yk = atlas.map_coords(i, k, x)
                if not (atlas.charts[j].contains(yj) and atlas.charts[k].contains(yk)):
                    continue
                # both orientations together exercise every directed factor
                forward = (atlas.factor_at(i, j, x)
                           * atlas.factor_at(j, k, yj)
                           * atlas.factor_at(k, i, yk))
                backward = (atlas.factor_at(i, k, x)
                            * atlas.factor_at(k, j, yk)
                            * atlas.factor_at(j, i, yj))
            except (DomainError, OutOfAtlas):
                continue
            tested += 1
            dev = max(abs(forward - 1.0), abs(backward - 1.0))
            if dev > worst:
                worst, where = dev, x
        if tested:
            records.append(CheckRecord("cocycle", subject, worst,
                                       worst < cocycle_tol, where))
    return AtlasReport(records)


def validate_section(atlas: Atlas, s: Section, tol: float = 1e-9) -> AtlasReport:
    """Compatibility ``s_src = factor * (s_dst after the coordinate map)`` on
    every overlap where both representatives exist, relative error."""
    records: list[CheckRecord] = []
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
            y = atlas.map_coords(src, dst, x)
            right = ov.factor.eval(src_chart.bindings(x)) \
                * s.local[dst].eval(dst_chart.bindings(y))
            dev = abs(left - right) / (1.0 + abs(left))
            if dev > worst:
                worst, where = dev, x
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
    min_abs: float = 1e-9

    def chart_at(self, atlas: Atlas, point: Point) -> Chart:
        rep = self.section.on(point.chart)
        value = rep.eval(atlas.chart(point.chart).bindings(point.coords))
        if abs(value) <= self.min_abs:
            raise ZeroDivisor(point.chart, point.coords, value)
        return self.charts[point.chart]


def rescale(atlas: Atlas, s: Section, min_abs: float = 1e-9) -> RescaledFamily:
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
    return RescaledFamily(s, charts, min_abs)


# ---------------------------------------------------------------------------
# Momentum map and stratification

@dataclass(frozen=True, eq=False)
class MomentumValue:
    """Normalized homogeneous coordinates: unit norm, first component of
    meaningful size made positive, plus the affine chart index used."""

    homogeneous: np.ndarray
    chart_index: int


def _section_values(atlas: Atlas, sections: Sequence[Section], point: Point) -> np.ndarray:
    chart = atlas.chart_of(point)
    env = chart.bindings(point.coords)
    return np.array([s.on(chart.id).eval(env) for s in sections])


def momentum(atlas: Atlas, sections: Sequence[Section], point: Point,
             tol: float = 1e-9) -> MomentumValue:
    values = _section_values(atlas, sections, point)
    magnitudes = np.abs(values)
    if magnitudes.max() <= tol:
        raise ZeroLocus(point.chart, point.coords)
    u = values / np.linalg.norm(values)
    lead = int(np.argmax(np.abs(u) > tol))
    if u[lead] < 0.0:
        u = -u
    u.flags.writeable = False
    return MomentumValue(u, int(np.argmax(magnitudes)))


def momentum_rank(atlas: Atlas, sections: Sequence[Section], point: Point,
                  tol: float = numkernel.DEFAULT_RANK_TOL,
                  zero_tol: float = 1e-9) -> int:
    """Rank of the differential of the affine momentum chart through the
    section of largest magnitude at the point."""
    values = _section_values(atlas, sections, point)
    if np.abs(values).max() <= zero_tol:
        raise ZeroLocus(point.chart, point.coords)
    chart = atlas.chart_of(point)
    if len(sections) == 1:  # one point of projective space: no ratio to differentiate
        return numkernel.numerical_rank(np.empty((0, chart.dim)), tol)
    pivot = int(np.argmax(np.abs(values)))
    env = chart.bindings(point.coords)
    grads = np.array([s.on(chart.id).gradient(env, chart.names) for s in sections])
    # d(s_m / s_pivot), by the quotient rule that Dual division applies
    vp, gp = values[pivot], grads[pivot]
    rows = (grads * vp - values[:, None] * gp) / (vp * vp)
    return numkernel.numerical_rank(np.delete(rows, pivot, axis=0), tol)


class Stratum(Enum):
    REGULAR_TRANSVERSE = "regular_transverse"
    SIGMA = "sigma"
    ZERO_LOCUS = "zero_locus"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class StratumReport:
    stratum: Stratum
    dimE: int
    dimF: int
    transverse: bool


def classify(atlas: Atlas, sections: Sequence[Section], r: int, point: Point,
             strata_tol: float = 1e-8,
             rank_tol: float = numkernel.DEFAULT_RANK_TOL) -> StratumReport:
    """Assign the point to a stratum of the symmetry family.

    ``sections`` must be ordered with the commuting subfamily first:
    ``sections[0 .. r]`` are required to commute with every member.  The
    report carries the computed ranks of the generated distributions
    (``dimE`` for the whole family, ``dimF`` for the commuting part) and
    whether the commuting family is transverse to the contact hyperplane.
    """
    if not 0 <= r < len(sections):
        raise ValueError(f"commuting index bound r={r} outside 0..{len(sections) - 1}")
    chart = atlas.chart_of(point)
    fr = frame_at(chart, point.coords)
    values = _section_values(atlas, sections, point)
    scale = 1.0 + float(np.abs(values).max())
    vectors = np.array([_field_components(fr, ChartField(chart, s.on(chart.id)))
                        for s in sections])
    dim_e = numkernel.numerical_rank(vectors, rank_tol)
    dim_f = numkernel.numerical_rank(vectors[: r + 1], rank_tol)
    commuting_vanish = bool(np.all(np.abs(values[: r + 1]) <= strata_tol * scale))
    transverse = not commuting_vanish
    if np.all(np.abs(values) <= strata_tol * scale):
        return StratumReport(Stratum.ZERO_LOCUS, dim_e, dim_f, transverse)
    p = len(sections) - 1
    if momentum_rank(atlas, sections, point, rank_tol, zero_tol=strata_tol * scale) < p:
        return StratumReport(Stratum.UNCLASSIFIED, dim_e, dim_f, transverse)
    if commuting_vanish:
        return StratumReport(Stratum.SIGMA, dim_e, dim_f, transverse)
    return StratumReport(Stratum.REGULAR_TRANSVERSE, dim_e, dim_f, transverse)
