"""Built-in contact models and a loader for user-defined ones.

``canonical(n)`` is the contact vector space R^(2n+1) with the form
``dq0 + sum p_i dq_i`` on a single chart.  ``primer(n, ...)`` covers the
product of an (n+1)-torus with real projective n-space by n+1 toroidal
charts whose gluing factors are the coordinate ratios of the projective
fiber; its symmetry family consists of the n+1 ratio sections plus one
product of a ratio section with a positive angle-dependent profile.
``primer2(n, ...)`` reuses the same atlas with a fully commuting family
where the profile may vanish, which creates a nonempty common zero locus;
it also carries a reduced single-chart view equivalent to the cotangent
bundle of an n-torus times a circle.

Every constructor validates its model at load time: atlas gluing
identities, sampled contact nondegeneracy, section compatibility,
commutation residuals of the designated family (within ``COMMUTATION_TOL``)
and membership of the Hamiltonian in the designated span (within
``SPAN_TOL``).  Each check takes its samples of a chart or an overlap as one
stack (one jet of the section family and one frame stack serve every bracket
of a chart); a check that raises runs again point by point in the order of a
per-point loop, and so raises what that loop would.  The records stay on the
model, and primer2's reduced view is validated on first use.  Each sample
set is made once, as one array: every overlap of the projective atlas
shares one, and ``from_config`` probes the candidates for an overlap's
omitted samples as one stack of the overlap map.
``from_config`` checks each field where it reads it, and loads yaml only
then: libyaml's ``CSafeLoader`` when PyYAML has it, else ``SafeLoader``,
with the same result.  ``primer``'s positivity check and ``profile_zeros``
evaluate the profile on their angle grid in one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import expr
from .bundle import (Atlas, CheckRecord, Overlap, Section, _by_blocks, _family, _worst,
                     combine_sections, validate_atlas, validate_section)
from .errors import ContactKitError
from .expr import Expression, compiled, parse
from .geometry import TWO_PI, Chart, ChartField, contact_check, frame_stack
from .jacobi import COMMUTATION_TOL, bracket
from .numkernel import row_dot

CONTACT_SAMPLES_PER_CHART = 256
COMMUTATION_SAMPLES = 100
SPAN_TOL = 1e-8  # largest relative residual of the Hamiltonian's fit by the family
OVERLAP_SAMPLES = 32
DEFAULT_J_MAX = 1e6  # fiber ratios of the projective charts stay inside +-DEFAULT_J_MAX
PROFILE_ZERO_GRID = 2048  # profile_zeros looks for sign changes on this many angles
PROFILE_ZERO_TOL = 1e-12  # and bisects each to this width


class PositivityViolation(ContactKitError):
    def __init__(self, where: float, value: float):
        self.where = where
        self.value = value
        super().__init__(f"profile must stay positive; value {value:.6g} "
                         f"at angle {where:.6g}")


class SchemaError(ContactKitError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


class ValidationError(ContactKitError):
    def __init__(self, check: str, subject: str, residual: float, where=None):
        self.check = check
        self.subject = subject
        self.residual = residual
        self.where = None if where is None else np.asarray(where, dtype=float)
        at = "" if self.where is None else f" at {self.where.tolist()}"
        super().__init__(f"{check} failed for {subject}: residual {residual:.3e}{at}")


@dataclass
class Model:
    """A validated atlas with its symmetry sections.

    ``sections[0 .. r]`` is the designated commuting subfamily; the
    default Hamiltonian lies in its span.  ``records`` are the checks run at
    load time (None for a model built without validation).  ``reduced`` is
    the view ``reduced_view`` builds, if any, built on first use and then
    validated when this model was.
    """

    name: str
    atlas: Atlas
    sections: tuple[Section, ...]
    r: int
    hamiltonian: Section | None
    meta: dict = field(default_factory=dict)
    records: list[CheckRecord] | None = field(default=None, repr=False, compare=False)
    reduced_view: Callable[[], "Model"] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def reduced(self) -> "Model | None":
        if self.reduced_view is None:
            return None
        return _validated(self.reduced_view(), self.records is not None)

    @property
    def p(self) -> int:
        return len(self.sections) - 1

    def section(self, name: str) -> Section:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(f"no section named {name!r}")

    def angle_indices(self, chart_id: str | None = None) -> list[int]:
        chart = self.atlas.chart(chart_id or self.atlas.chart_ids[0])
        return [i for i, per in enumerate(chart.periodic) if per]


# ---------------------------------------------------------------------------
# sampling helpers

def _low_discrepancy(dim: int, count: int) -> np.ndarray:
    """Kronecker additive-recurrence points in the unit cube, deterministic."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alphas = np.array([phi ** -(i + 1) for i in range(dim)])
    steps = np.arange(1, count + 1)[:, None]
    return np.mod(0.5 + steps * alphas[None, :], 1.0)


def _chart_samples(chart: Chart, count: int) -> np.ndarray:
    box = chart.effective_sample_box()
    unit = _low_discrepancy(chart.dim, count)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + unit * (hi - lo)


def _contact_record(chart: Chart) -> CheckRecord:
    """The least determinant proxy over the chart's samples, or the first
    degenerate sample."""
    samples = _chart_samples(chart, CONTACT_SAMPLES_PER_CHART)
    try:
        result = contact_check(chart, samples)
    except Exception:
        # point by point: the test stops at the first degenerate point, so a
        # later point's failure is never reached
        for x in samples:
            result = contact_check(chart, x)
            if not result.ok:
                return CheckRecord("contact-nondegeneracy", chart.id, result.det_proxy, False, x)
        raise
    if not result.ok.all():
        k = int(np.argmin(result.ok))
        return CheckRecord("contact-nondegeneracy", chart.id, float(result.det_proxy[k]),
                           False, samples[k])
    least, where = _worst(-result.det_proxy, samples, -np.inf)
    return CheckRecord("contact-nondegeneracy", chart.id, -least, True, where)


def _commutation_records(model: Model, chart: Chart, count: int) -> list[CheckRecord]:
    """The largest bracket of each designated section with each section on
    the chart's samples, read off one jet of the section family and one frame
    stack as ``[s_i, s_j] = ds_j(X_{s_i}) - s_j Z(s_i)``, each row bit for bit
    the point ``bracket``.  If that raises, the point brackets run pair by
    pair, so the pair a per-point loop fails first raises."""
    samples = _chart_samples(chart, count)
    d = model.r + 1
    pairs = [(si, sj) for si in model.sections[:d] for sj in model.sections]
    # a bracket of huge or infinite sections overflows or multiplies inf by
    # zero: its non-finite value fails the check below, so numpy need not warn
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            frames = frame_stack(chart, samples)
            values, grads = _family(chart, model.sections).jet_stack(samples)
            fields = frames.fields(values[:, :d], grads[:, :d])[:, :, None]
            reeb = row_dot(grads[:, :d], frames.reeb[:, None])[..., None]
            brackets = row_dot(grads[:, None], fields) - values[:, None] * reeb
        except Exception:
            for si, sj in pairs:
                for x in samples:
                    bracket(chart, si.on(chart.id), sj.on(chart.id), x)
            raise
    records = []
    for (si, sj), value in zip(pairs, brackets.reshape(len(samples), -1).T):
        worst, where = _worst(np.abs(value), samples)
        records.append(CheckRecord("commutation", f"[{si.name},{sj.name}] on {chart.id}",
                                   worst, worst <= COMMUTATION_TOL, where))
    return records


def validate_model(model: Model, strict: bool = True) -> list[CheckRecord]:
    """Run every load-time check and return the full record list.

    With ``strict`` (the default) the first failing check raises
    :class:`ValidationError`; otherwise failures stay in the records.
    """
    records: list[CheckRecord] = []
    records.extend(validate_atlas(model.atlas).records)
    contact = [_contact_record(chart) for chart in model.atlas.charts.values()]
    records.extend(contact)
    for s in model.sections:
        records.extend(validate_section(model.atlas, s).records)

    # designated sections must commute with the whole family; brackets only
    # make sense on charts that passed the nondegeneracy test
    per_chart = max(1, COMMUTATION_SAMPLES // max(1, len(model.atlas.charts)))
    for chart, nondegenerate in zip(model.atlas.charts.values(), contact):
        if nondegenerate.ok:
            records.extend(_commutation_records(model, chart, per_chart))

    if model.hamiltonian is not None:
        records.append(_hamiltonian_span_record(model))

    if strict:
        for rec in records:
            if not rec.ok:
                raise ValidationError(rec.check, rec.subject, rec.residual, rec.where)
    return records


def _validated(model: Model, validate: bool = True) -> Model:
    if validate:
        model.records = validate_model(model)
    return model


def _hamiltonian_span_record(model: Model) -> CheckRecord:
    """Least-squares fit of the Hamiltonian by the designated sections on
    sampled points; the fit residual must vanish.  A sample where a value is
    not finite fails the check with that sample's largest magnitude."""
    rows, samples = [], []
    for chart in model.atlas.charts.values():
        h_expr = model.hamiltonian.on(chart.id)
        basis = [s.on(chart.id) for s in model.sections[: model.r + 1]] + [h_expr]
        x = _chart_samples(chart, 16)
        rows += _by_blocks(lambda x: np.column_stack([ChartField(chart, e).value_stack(x)
                                                      for e in basis]), x)
        samples += list(x)
    table = np.concatenate(rows)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        return CheckRecord("hamiltonian-span", model.hamiltonian.name,
                           float(np.max(np.abs(table[k]))), False, samples[k])
    a, b = table[:, :-1], table[:, -1]
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(a @ coeffs - b))) / (1.0 + float(np.max(np.abs(b))))
    return CheckRecord("hamiltonian-span", model.hamiltonian.name, residual,
                       residual < SPAN_TOL)


# ---------------------------------------------------------------------------
# built-in: contact R^(2n+1)

def canonical(n: int, validate: bool = True) -> Model:
    """Single chart (q0, q1..qn, p1..pn) with form dq0 + sum p_i dq_i.

    The section family is the single unit section, whose field is the Reeb
    translation along q0; Hamiltonians are arbitrary user expressions.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    names = tuple(["q0"] + [f"q{i}" for i in range(1, n + 1)]
                  + [f"p{i}" for i in range(1, n + 1)])
    alpha = tuple([expr.literal(1.0)]
                  + [expr.coordinate(f"p{i}") for i in range(1, n + 1)]
                  + [expr.literal(0.0)] * n)
    dim = 2 * n + 1
    chart = Chart(id="canonical", names=names, alpha=alpha,
                  periodic=(False,) * dim,
                  bounds=((-np.inf, np.inf),) * dim)
    atlas = Atlas([chart])
    unit = Section("one", {"canonical": expr.literal(1.0)})
    model = Model(name=f"canonical({n})", atlas=atlas, sections=(unit,), r=0,
                  hamiltonian=unit, meta={"n": n})
    return _validated(model, validate)


# ---------------------------------------------------------------------------
# built-in: torus times projective space

def _ratio_name(j: int) -> str:
    return f"J{j}"


@lru_cache(maxsize=None)
def _projective_torus_atlas(n: int, samples_per_overlap: int) -> Atlas:
    """Charts V_i over the (n+1)-torus with fiber ratios J_j = y_j / y_i."""
    dim = 2 * n + 1
    angle_names = [f"phi{j}" for j in range(n + 1)]
    charts = []
    for i in range(n + 1):
        ratio_names = [_ratio_name(j) for j in range(n + 1) if j != i]
        names = tuple(angle_names + ratio_names)
        alpha = []
        for j in range(n + 1):
            alpha.append(expr.literal(1.0) if j == i
                         else expr.coordinate(_ratio_name(j)))
        alpha.extend([expr.literal(0.0)] * n)
        periodic = (True,) * (n + 1) + (False,) * n
        bounds = tuple([(0.0, TWO_PI)] * (n + 1) + [(-DEFAULT_J_MAX, DEFAULT_J_MAX)] * n)
        denom_text = "1/sqrt(1 + " + " + ".join(f"{r}^2" for r in ratio_names) + ")"
        charts.append(Chart(id=f"V{i}", names=names, alpha=tuple(alpha),
                            periodic=periodic, bounds=bounds, denominator=parse(denom_text)))

    # one sample set for every overlap: the ratios stay well away from zero,
    # so any third chart also contains their image
    unit = _low_discrepancy(dim, samples_per_overlap)
    ratios = unit[:, n + 1:]
    signs = np.where(np.sin(37.0 * ratios + 1.0) >= 0, 1.0, -1.0)
    samples = tuple(np.hstack([unit[:, : n + 1] * TWO_PI, (0.4 + 1.4 * ratios) * signs]))
    overlaps = []
    for i in range(n + 1):
        for j in range(n + 1):
            if j == i:
                continue
            others_j = [m for m in range(n + 1) if m != j]
            forward = [expr.coordinate(a) for a in angle_names]
            for m in others_j:
                if m == i:
                    forward.append(expr.divide(expr.literal(1.0),
                                               expr.coordinate(_ratio_name(j))))
                else:
                    forward.append(expr.divide(expr.coordinate(_ratio_name(m)),
                                               expr.coordinate(_ratio_name(j))))
            overlaps.append(Overlap(src=f"V{i}", dst=f"V{j}",
                                    forward=tuple(forward),
                                    factor=expr.coordinate(_ratio_name(j)),
                                    samples=samples))
    return Atlas(charts, overlaps)


def _ratio_sections(n: int) -> list[Section]:
    sections = []
    for m in range(n + 1):
        local = {}
        for i in range(n + 1):
            local[f"V{i}"] = (expr.literal(1.0) if m == i
                              else expr.coordinate(_ratio_name(m)))
        sections.append(Section(f"s{m}", local))
    return sections


def _profile_times(f: Expression, base: Section, name: str) -> Section:
    local = {cid: expr.multiply(f, e) for cid, e in base.local.items()}
    return Section(name, local)


def _as_profile(n: int, f_expr: Union[str, Expression]) -> Expression:
    f = f_expr if isinstance(f_expr, Expression) else parse(f_expr)
    allowed = {f"phi{n}"}
    if not f.names <= allowed:
        raise ValueError(f"profile may only depend on phi{n}, got names {sorted(f.names)}")
    return f


def _on_angles(f: Expression, var: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` angles spaced evenly on [0, 2 pi) and ``f`` at each, in one
    stack that raises what ``f.eval`` raises at the first failing angle."""
    angles = np.linspace(0.0, TWO_PI, count, endpoint=False)
    return angles, compiled((f,), (var,)).value_stack(angles[:, None])[:, 0]


def profile_zeros(f: Expression, var: str) -> list[float]:
    """Zeros of a one-variable periodic profile on [0, 2 pi), located by sign
    changes on a grid of ``PROFILE_ZERO_GRID`` angles and bisected to
    ``PROFILE_ZERO_TOL``.  Useful for seeding the common zero locus of a
    family whose last section carries the profile."""
    grid = PROFILE_ZERO_GRID
    angles, values = _on_angles(f, var, grid)
    zeros = []
    for i in range(grid):
        a = angles[i]
        b = angles[i + 1] if i + 1 < grid else TWO_PI
        fa, fb = values[i], values[(i + 1) % grid]
        if fa == 0.0:
            zeros.append(float(a))
            continue
        if fa * fb >= 0.0:
            continue
        lo, hi, flo = a, b, fa
        while hi - lo > PROFILE_ZERO_TOL:
            mid = 0.5 * (lo + hi)
            fm = f.eval({var: mid})
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        zeros.append(0.5 * (lo + hi))
    return zeros


def primer(n: int, omegas: Sequence[float], f_expr: Union[str, Expression],
           k: int, validate: bool = True,
           samples_per_overlap: int = OVERLAP_SAMPLES) -> Model:
    """Torus times projective space with sections s_0..s_n and one extra
    product section f(phi_n) * s_k; the designated commuting family is
    s_0..s_(n-1) and the Hamiltonian is sum omega_j s_j over j < n.

    The profile must be strictly positive (checked on a dense angle grid).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")
    omegas = tuple(float(w) for w in omegas)
    if len(omegas) != n:
        raise ValueError(f"need {n} frequencies, got {len(omegas)}")
    f = _as_profile(n, f_expr)
    angles, values = _on_angles(f, f"phi{n}", 1024)
    nonpositive = np.flatnonzero(values <= 0.0)
    if nonpositive.size:
        k = nonpositive[0]
        raise PositivityViolation(angles[k], float(values[k]))

    atlas = _projective_torus_atlas(n, samples_per_overlap)
    base = _ratio_sections(n)
    extra = _profile_times(f, base[k], f"f*s{k}")
    sections = tuple(base + [extra])
    hamiltonian = combine_sections("h", [(omegas[j], base[j]) for j in range(n)])
    model = Model(name=f"primer({n})", atlas=atlas, sections=sections, r=n - 1,
                  hamiltonian=hamiltonian,
                  meta={"n": n, "omegas": omegas, "f": str(f), "k": k})
    return _validated(model, validate)


def _reduced_view(n: int, omegas: Sequence[float], f: Expression) -> Model:
    """Cotangent bundle of the n-torus times a circle: the V_n chart of the
    projective model with the fiber ratios renamed to momenta."""
    angle_names = [f"phi{j}" for j in range(n + 1)]
    momenta = [f"p{j}" for j in range(n)]
    names = tuple(angle_names + momenta)
    alpha = tuple([expr.coordinate(m) for m in momenta] + [expr.literal(1.0)]
                  + [expr.literal(0.0)] * n)
    periodic = (True,) * (n + 1) + (False,) * n
    bounds = tuple([(0.0, TWO_PI)] * (n + 1) + [(-np.inf, np.inf)] * n)
    chart = Chart(id="N", names=names, alpha=alpha, periodic=periodic, bounds=bounds)
    atlas = Atlas([chart])
    sections = [Section(f"p{j}", {"N": expr.coordinate(f"p{j}")}) for j in range(n)]
    sections.append(Section("f", {"N": f}))
    hamiltonian = combine_sections(
        "h", [(float(omegas[j]), sections[j]) for j in range(n)] + [(1.0, sections[n])])
    return Model(name=f"primer2-reduced({n})", atlas=atlas,
                 sections=tuple(sections), r=n, hamiltonian=hamiltonian,
                 meta={"n": n, "omegas": tuple(map(float, omegas)), "f": str(f)})


def primer2(n: int, omegas: Sequence[float], f_expr: Union[str, Expression],
            validate: bool = True,
            samples_per_overlap: int = OVERLAP_SAMPLES) -> Model:
    """Same atlas as :func:`primer` with the fully commuting family
    s_0..s_(n-1), f(phi_n) * s_n and Hamiltonian sum omega_j s_j + f s_n.

    The profile may vanish; its zero set times the vanishing fiber ratios
    forms the common zero locus.  ``model.reduced`` carries the
    single-chart cotangent-bundle view of the V_n chart, validated on first
    use.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    omegas = tuple(float(w) for w in omegas)
    if len(omegas) != n:
        raise ValueError(f"need {n} frequencies, got {len(omegas)}")
    f = _as_profile(n, f_expr)
    atlas = _projective_torus_atlas(n, samples_per_overlap)
    base = _ratio_sections(n)
    last = _profile_times(f, base[n], f"f*s{n}")
    sections = tuple(base[:n] + [last])
    hamiltonian = combine_sections(
        "h", [(omegas[j], base[j]) for j in range(n)] + [(1.0, last)])
    model = Model(name=f"primer2({n})", atlas=atlas, sections=sections, r=n,
                  hamiltonian=hamiltonian,
                  meta={"n": n, "omegas": omegas, "f": str(f)},
                  reduced_view=lambda: _reduced_view(n, omegas, f))
    return _validated(model, validate)


# ---------------------------------------------------------------------------
# config loader

_NUMBER = (int, float)
_KINDS = {str: "a string", list: "a list", Mapping: "a mapping", int: "an integer",
          _NUMBER: "a number", (str, Mapping): "a section name or a mapping"}


def _is(value, kind) -> bool:
    """``isinstance``, except that a bool is neither a number nor an integer."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _fields(spec: Mapping, path: str, required: dict, optional: dict) -> None:
    """``spec`` with every key of ``required``, no key outside ``required``
    and ``optional``, and each value of the kind its key maps to."""
    for key in required:
        if key not in spec:
            raise SchemaError(path, f"missing key {key!r}")
    kinds = {**required, **optional}
    for key, value in spec.items():
        if key not in kinds:
            raise SchemaError(path, f"unknown key {key!r}")
        if not _is(value, kinds[key]):
            raise SchemaError(f"{path}.{key}", f"expected {_KINDS[kinds[key]]}")


def _items(values: list, path: str, kind, least: int = 0) -> list:
    """``values`` with at least ``least`` items, each of ``kind``."""
    if len(values) < least:
        raise SchemaError(path, f"expected at least {least} items")
    for i, value in enumerate(values):
        if not _is(value, kind):
            raise SchemaError(f"{path}[{i}]", f"expected {_KINDS[kind]}")
    return values


def _interval(raw, path: str, finite: bool = False) -> tuple[float, float]:
    """``[low, high]`` of numbers, numeric strings or nulls (an open side), or
    null for both, with ``low < high``; a sample box needs finite bounds."""
    if raw is None:
        raw = [None, None]
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise SchemaError(path, "expected [low, high] or null")
    try:
        bounds = (-np.inf if raw[0] is None else float(raw[0]),
                  np.inf if raw[1] is None else float(raw[1]))
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(path, "bounds must be numbers, numeric strings or null") from None
    if finite and not np.isfinite(bounds).all():
        raise SchemaError(path, "sample-box bounds must be finite")
    if not bounds[0] < bounds[1]:
        raise SchemaError(path, "expected low < high")
    return bounds


def _parse_expr(text: str, path: str) -> Expression:
    try:
        return parse(text)
    except ContactKitError as exc:
        raise SchemaError(path, str(exc)) from exc


def _build_chart(spec: Mapping, path: str) -> Chart:
    _fields(spec, path, {"id": str, "coordinates": list, "alpha": list},
            {"periodic": list, "domain": Mapping, "sample_box": Mapping, "denominator": str})
    names = tuple(_items(spec["coordinates"], path + ".coordinates", str, 3))
    if len(names) != len(set(names)):
        raise SchemaError(path + ".coordinates", "duplicate coordinate names")
    periodic_names = set(_items(spec.get("periodic", []), path + ".periodic", str))
    for key in ("periodic", "domain", "sample_box"):
        bad = set(spec.get(key, ())) - set(names)
        if bad:
            raise SchemaError(f"{path}.{key}", f"unknown coordinates {sorted(map(str, bad))}")
    if len(_items(spec["alpha"], path + ".alpha", str)) != len(names):
        raise SchemaError(path + ".alpha", "one coefficient required per coordinate")
    alpha = tuple(_parse_expr(t, f"{path}.alpha[{i}]")
                  for i, t in enumerate(spec["alpha"]))
    domain = spec.get("domain", {})
    bounds = tuple(_interval(domain.get(name), f"{path}.domain.{name}")
                   for name in names)
    denominator = (_parse_expr(spec["denominator"], path + ".denominator")
                   if "denominator" in spec else None)
    try:
        chart = Chart(id=spec["id"], names=names, alpha=alpha,
                      periodic=tuple(n in periodic_names for n in names),
                      bounds=bounds, denominator=denominator)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    box_spec = spec.get("sample_box")
    if box_spec is None:
        return chart
    # a coordinate the sample box leaves out keeps the chart's own default
    default = chart.effective_sample_box()
    return replace(chart, sample_box=tuple(
        _interval(box_spec[name], f"{path}.sample_box.{name}", finite=True)
        if name in box_spec else default[i] for i, name in enumerate(names)))


def _auto_overlap_samples(atlas_charts: Mapping[str, Chart], ov: Overlap) -> tuple:
    """The first ``OVERLAP_SAMPLES`` of ``8 * OVERLAP_SAMPLES`` points of the
    source sample box whose image lies in the destination chart, in probe
    order; a point whose image raises is left out."""
    src = atlas_charts[ov.src]
    dst = atlas_charts[ov.dst]
    forward = compiled(ov.forward, src.names)

    def inside(x: np.ndarray) -> np.ndarray:
        # membership reads only whether an angle is finite, so the angles need no wrap
        return x[dst.contains(forward.value_stack(x))]

    kept = _by_blocks(inside, _chart_samples(src, OVERLAP_SAMPLES * 8), skip=(ContactKitError,))
    return tuple(x for part in kept for x in part)[:OVERLAP_SAMPLES]


def from_config(document: Union[str, Path, Mapping]) -> Model:
    """Build and fully validate a model from a YAML/JSON document or path.

    Each field is checked where it is read; a malformed one raises
    :class:`SchemaError` at its path."""
    import yaml
    if isinstance(document, Mapping):
        raw, name = document, "config-model"
    else:
        path = Path(document)
        # libyaml's parser when PyYAML was built with it: the same documents
        # and values, about ten times faster
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        try:
            raw = yaml.load(path.read_text(), Loader=loader)
        except OSError as exc:
            raise SchemaError(str(document), f"cannot read config: {exc}") from exc
        except yaml.YAMLError as exc:
            raise SchemaError(str(document), f"invalid document: {exc}") from exc
        name = path.stem
    if not isinstance(raw, Mapping):
        raise SchemaError("$", "top level must be a mapping")
    _fields(raw, "$", {"charts": list, "sections": list, "r": int, "hamiltonian": (str, Mapping)},
            {"name": str, "overlaps": list})
    name = raw.get("name", name)

    charts = {}
    for i, spec in enumerate(_items(raw["charts"], "$.charts", Mapping, 1)):
        chart = _build_chart(spec, f"$.charts[{i}]")
        if chart.id in charts:
            raise SchemaError(f"$.charts[{i}].id", f"duplicate chart id {chart.id!r}")
        charts[chart.id] = chart

    overlaps = []
    for i, spec in enumerate(_items(raw.get("overlaps", []), "$.overlaps", Mapping)):
        path = f"$.overlaps[{i}]"
        _fields(spec, path, {"from": str, "to": str, "map": list, "factor": str},
                {"samples": list})
        if spec["from"] not in charts or spec["to"] not in charts:
            raise SchemaError(path, "overlap references an unknown chart")
        dst = charts[spec["to"]]
        if len(_items(spec["map"], path + ".map", str)) != dst.dim:
            raise SchemaError(path + ".map", f"need {dst.dim} target expressions")
        forward = tuple(_parse_expr(t, f"{path}.map[{j}]")
                        for j, t in enumerate(spec["map"]))
        factor = _parse_expr(spec["factor"], path + ".factor")
        samples = tuple(np.asarray(_items(s, f"{path}.samples[{j}]", _NUMBER), dtype=float)
                        for j, s in enumerate(_items(spec.get("samples", []),
                                                     path + ".samples", list)))
        if any(s.shape != (charts[spec["from"]].dim,) for s in samples):
            raise SchemaError(path + ".samples", "each sample needs one value per "
                                                 "coordinate of the source chart")
        ov = Overlap(src=spec["from"], dst=spec["to"], forward=forward,
                     factor=factor, samples=samples)
        if not ov.samples:
            ov = replace(ov, samples=_auto_overlap_samples(charts, ov))
            if not ov.samples:
                raise SchemaError(path, "could not find overlap sample points; "
                                        "supply them explicitly")
        overlaps.append(ov)

    atlas = Atlas(list(charts.values()), overlaps)

    sections = []
    for i, spec in enumerate(_items(raw["sections"], "$.sections", Mapping, 1)):
        path = f"$.sections[{i}]"
        _fields(spec, path, {"name": str, "local": Mapping}, {})
        local = {}
        for cid, text in spec["local"].items():
            if not _is(text, str):
                raise SchemaError(f"{path}.local.{cid}", "expected a string")
            if cid not in charts:
                raise SchemaError(f"{path}.local.{cid}", "unknown chart id")
            local[cid] = _parse_expr(text, f"{path}.local.{cid}")
        sections.append(Section(spec["name"], local))
    names = [s.name for s in sections]
    if len(names) != len(set(names)):
        raise SchemaError("$.sections", "duplicate section names")

    r = raw["r"]
    if not 0 <= r < len(sections):
        raise SchemaError("$.r", f"r={r} must lie in 0..{len(sections) - 1}")

    ham_spec = raw["hamiltonian"]
    if isinstance(ham_spec, str):
        if ham_spec not in names:
            raise SchemaError("$.hamiltonian", f"unknown section {ham_spec!r}")
        hamiltonian = sections[names.index(ham_spec)]
    else:
        if not ham_spec or not all(_is(c, _NUMBER) for c in ham_spec.values()):
            raise SchemaError("$.hamiltonian", "expected a section name or a nonempty "
                                               "mapping of section names to numbers")
        terms = []
        for key, coeff in ham_spec.items():
            if key not in names:
                raise SchemaError(f"$.hamiltonian.{key}", "unknown section")
            terms.append((float(coeff), sections[names.index(key)]))
        hamiltonian = combine_sections("h", terms)

    model = Model(name=name or "config-model", atlas=atlas,
                  sections=tuple(sections), r=r, hamiltonian=hamiltonian,
                  meta={"source": "config"})
    return _validated(model)
