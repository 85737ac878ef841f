from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contactkit import expr, numkernel
from contactkit.errors import ContactKitError
from contactkit.bundle import (Atlas, Overlap, Section, Stratum, ZeroDivisor,
                               ZeroLocus, classify, combine_sections, momentum,
                               momentum_rank, rescale, section_bracket,
                               section_field, section_ratio, section_value,
                               validate_atlas, validate_section)
from contactkit.expr import parse
from contactkit.geometry import Chart, ChartField, Point, reeb_at
from contactkit.jacobi import bracket, ham_field
from contactkit.models import canonical, primer, primer2
from helpers import (canonical_chart, dissipative_oracle, random_expression,
                     reference_transition_jacobian)

OMEGA = (1.0, np.sqrt(2.0))


@pytest.fixture(scope="module")
def pm():
    return primer(2, OMEGA, "2 + sin(phi2)", k=0)


@pytest.fixture(scope="module")
def pm2():
    return primer2(2, OMEGA, "sin(phi2)")


def test_single_chart_atlas_trivially_valid():
    atlas = Atlas([canonical_chart(1)])
    report = validate_atlas(atlas)
    assert report.ok
    assert not report.records


def test_projective_atlas_identities(pm):
    report = validate_atlas(pm.atlas)
    assert report.ok
    assert report.worst("cocycle") < 1e-10
    assert report.worst("form-compatibility") < 1e-9
    assert report.worst("roundtrip") < 1e-9


def test_corrupted_factor_is_named(pm):
    overlaps = []
    for (src, dst), ov in pm.atlas.overlaps.items():
        if (src, dst) == ("V0", "V1"):
            ov = Overlap(src, dst, ov.forward,
                         expr.multiply(parse("1.01"), ov.factor), ov.samples)
        overlaps.append(ov)
    broken = Atlas(list(pm.atlas.charts.values()), overlaps)
    report = validate_atlas(broken)
    assert not report.ok
    failing = {r.check for r in report.failures()}
    assert "cocycle" in failing and "form-compatibility" in failing
    subjects = {r.subject for r in report.failures() if r.check == "cocycle"}
    assert any("V0" in s and "V1" in s and "V2" in s for s in subjects)


def test_section_compatibility(pm):
    for s in pm.sections:
        assert validate_section(pm.atlas, s).ok


def test_section_incompatibility_detected(pm):
    bad = Section("bad", {cid: parse("1") for cid in pm.atlas.chart_ids})
    report = validate_section(pm.atlas, bad)
    assert not report.ok


def test_ratio_section_fields_are_translations(pm):
    # the field of s_j reads as the unit translation along phi_j in any chart
    for cid in pm.atlas.chart_ids:
        chart = pm.atlas.chart(cid)
        point = chart.point(np.array([0.4, 1.2, 2.1, 0.9, -0.7]))
        for j in range(3):
            v = section_field(pm.atlas, pm.section(f"s{j}"), point).components
            expected = np.zeros(5)
            expected[j] = 1.0
            assert np.allclose(v, expected, atol=1e-11)


def test_unit_section_field_is_reeb():
    model = canonical(1)
    chart = model.atlas.chart("canonical")
    point = chart.point(np.array([0.3, -0.4, 0.8]))
    v = section_field(model.atlas, model.section("one"), point).components
    assert np.allclose(v, reeb_at(chart, point.coords).components, atol=1e-12)


def test_section_field_chart_independent(pm):
    # push the V0 value through the overlap and compare with the V1 value
    rng = np.random.default_rng(7)
    src = pm.atlas.chart("V0")
    for _ in range(20):
        coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                 rng.uniform(0.4, 1.8, 2) * rng.choice([-1, 1], 2)])
        point = src.point(coords)
        target = pm.atlas.transfer(point, "V1")
        jac = pm.atlas.transition_jacobian("V0", "V1", point.coords)
        for name in ("s1", "s2", "f*s0"):
            v_src = section_field(pm.atlas, pm.section(name), point).components
            pushed = jac @ v_src
            v_dst = section_field(pm.atlas, pm.section(name), target).components
            assert np.max(np.abs(pushed - v_dst)) < 1e-8


def test_section_bracket_self_and_pairs(pm):
    chart = pm.atlas.chart("V1")
    point = chart.point(np.array([0.2, 0.9, 1.7, 1.1, -0.6]))
    for a in range(3):
        for b in range(3):
            value = section_bracket(pm.atlas, pm.section(f"s{a}"),
                                    pm.section(f"s{b}"), point)
            assert abs(value) < 1e-11


def test_section_bracket_transformation_law(pm):
    # representatives of a bracket on two charts differ by the gluing factor
    rng = np.random.default_rng(11)
    s1 = pm.section("s1")
    fs0 = pm.section("f*s0")
    src = pm.atlas.chart("V0")
    for _ in range(10):
        coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                 rng.uniform(0.4, 1.6, 2)])
        point = src.point(coords)
        other = pm.atlas.transfer(point, "V2")
        left = section_bracket(pm.atlas, s1, fs0, point)
        right = section_bracket(pm.atlas, s1, fs0, other)
        g = pm.atlas.factor_at("V0", "V2", point.coords)
        if abs(right) > 1e-12:
            assert left / right == pytest.approx(g, rel=1e-9)
        else:
            assert abs(left) < 1e-9


def test_rescale_by_unit_keeps_form():
    model = canonical(1)
    family = rescale(model.atlas, model.section("one"))
    chart = family.charts["canonical"]
    x = np.array([0.1, 0.4, 0.9])
    base = model.atlas.chart("canonical")
    a0 = np.array([c.eval(base.bindings(x)) for c in base.alpha])
    a1 = np.array([c.eval(chart.bindings(x)) for c in chart.alpha])
    assert np.allclose(a0, a1)


def test_section_value_is_the_formula_on_the_chart(pm):
    """``section_value`` and the rescaled family's zero test read each
    representative as ``Expression.eval`` of the chart's bindings does, bit
    for bit."""
    rng = np.random.default_rng(71)
    family = rescale(pm.atlas, pm.section("s0"))
    for cid in pm.atlas.chart_ids:
        chart = pm.atlas.chart(cid)
        for _ in range(20):
            x = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 3), rng.uniform(0.1, 2.0, 2)])
            point = chart.point(x)
            for s in (*pm.sections, pm.hamiltonian):
                assert section_value(pm.atlas, s, point) == s.on(cid).eval(chart.bindings(x))
            assert family.chart_at(pm.atlas, point) is family.charts[cid]
    point = pm.atlas.chart("V1").point([0.1, 0.2, 0.3, 1e-12, 0.5])
    with pytest.raises(ZeroDivisor) as err:
        family.chart_at(pm.atlas, point)
    assert err.value.value == 1e-12


def test_rescale_unit_representative_on_own_chart(pm):
    family = rescale(pm.atlas, pm.section("s0"))
    chart = family.charts["V0"]
    x = np.array([0.3, 1.0, 2.0, 0.7, -0.9])
    base = pm.atlas.chart("V0")
    a0 = np.array([c.eval(base.bindings(x)) for c in base.alpha])
    a1 = np.array([c.eval(chart.bindings(x)) for c in chart.alpha])
    assert np.allclose(a0, a1)           # s0 is the unit on V0


def test_rescaled_reeb_is_section_field(pm):
    # the Reeb field of alpha / s0 equals the contact field of s0
    rng = np.random.default_rng(13)
    family = rescale(pm.atlas, pm.section("s0"))
    for cid in ("V1", "V2"):
        chart = pm.atlas.chart(cid)
        for _ in range(10):
            coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                     rng.uniform(0.4, 1.8, 2)])
            point = chart.point(coords)
            scaled = family.chart_at(pm.atlas, point)
            z = reeb_at(scaled, point.coords).components
            v = section_field(pm.atlas, pm.section("s0"), point).components
            assert np.max(np.abs(z - v)) < 1e-8


def test_rescale_canonical_positive_function():
    model = canonical(1)
    f = parse("2 + q1^2 + p1^2")
    s = Section("f", {"canonical": f})
    family = rescale(model.atlas, s)
    chart = model.atlas.chart("canonical")
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 3)
        z = reeb_at(family.charts["canonical"], x).components
        assert np.max(np.abs(z - dissipative_oracle(f, chart, x))) < 1e-9


def test_rescale_zero_divisor(pm):
    family = rescale(pm.atlas, pm.section("s0"))
    chart = pm.atlas.chart("V1")
    point = chart.point(np.array([0.1, 0.2, 0.3, 0.0, 0.5]))  # J0 = 0 kills s0
    with pytest.raises(ZeroDivisor):
        family.chart_at(pm.atlas, point)


def test_momentum_projective_formula(pm):
    chart = pm.atlas.chart("V2")
    coords = np.array([0.4, 1.3, 0.9, 0.6, -1.2])
    point = chart.point(coords)
    value = momentum(pm.atlas, pm.sections, point)
    f = 2.0 + np.sin(coords[2])
    raw = np.array([0.6, -1.2, 1.0, f * 0.6])
    expected = raw / np.linalg.norm(raw)
    assert np.max(np.abs(value.homogeneous - expected)) < 1e-12
    assert value.chart_index == int(np.argmax(np.abs(raw)))


def test_momentum_scale_invariance(pm):
    # scaling every section by the same positive chart factor changes nothing
    point = pm.atlas.chart("V0").point(np.array([0.3, 0.6, 1.0, 0.8, -0.5]))
    scaled = [Section(s.name, {cid: expr.multiply(parse("2.5"), e)
                               for cid, e in s.local.items()})
              for s in pm.sections]
    a = momentum(pm.atlas, pm.sections, point)
    b = momentum(pm.atlas, scaled, point)
    assert np.allclose(a.homogeneous, b.homogeneous, atol=1e-14)
    assert a.chart_index == b.chart_index


def test_momentum_chart_change_invariance(pm):
    rng = np.random.default_rng(19)
    src = pm.atlas.chart("V0")
    for _ in range(20):
        coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                 rng.uniform(0.4, 1.8, 2) * rng.choice([-1, 1], 2)])
        point = src.point(coords)
        mapped = pm.atlas.transfer(point, "V2")
        a = momentum(pm.atlas, pm.sections, point)
        b = momentum(pm.atlas, pm.sections, mapped)
        assert np.max(np.abs(a.homogeneous - b.homogeneous)) < 1e-10


def test_momentum_zero_locus(pm2):
    chart = pm2.atlas.chart("V2")
    point = chart.point(np.array([0.4, 1.3, 0.0, 0.0, 0.0]))
    with pytest.raises(ZeroLocus):
        momentum(pm2.atlas, pm2.sections, point)


def test_momentum_rank_generic(pm):
    chart = pm.atlas.chart("V2")
    point = chart.point(np.array([0.4, 1.3, 0.9, 0.6, -1.2]))
    assert momentum_rank(pm.atlas, pm.sections, point) == 3


def test_momentum_rank_constant_sections():
    model = canonical(1)
    chart = model.atlas.chart("canonical")
    point = chart.point(np.array([0.5, 0.2, 0.7]))
    sections = [Section("a", {"canonical": parse("2")}),
                Section("b", {"canonical": parse("3")})]
    assert momentum_rank(model.atlas, sections, point) == 0


def test_momentum_rank_drop_at_critical_profile_angle(pm):
    # where the profile is critical and J_k vanishes the differential
    # loses the profile direction
    chart = pm.atlas.chart("V2")
    point = chart.point(np.array([0.4, 1.3, np.pi / 2, 0.0, -1.2]))  # f'=0, J0=0
    assert momentum_rank(pm.atlas, pm.sections, point) < 3


def test_classify_table_rows(pm2):
    red = pm2.reduced
    chart = red.atlas.chart("N")
    generic = chart.point(np.array([0.3, 0.7, 1.1, 0.4, -0.8]))
    report = classify(red.atlas, red.sections, red.r, generic)
    assert report.stratum is Stratum.REGULAR_TRANSVERSE
    assert (report.dimE, report.dimF) == (red.p + 1, red.r + 1)
    assert report.transverse

    locus = chart.point(np.array([0.3, 0.7, np.pi, 0.0, 0.0]))
    report = classify(red.atlas, red.sections, red.r, locus)
    assert report.stratum is Stratum.ZERO_LOCUS
    assert (report.dimE, report.dimF) == (red.p, red.r)
    assert not report.transverse


def test_classify_sigma_stratum():
    model = primer(2, OMEGA, "2 + sin(phi2)", k=2)
    chart = model.atlas.chart("V2")
    point = chart.point(np.array([0.3, 0.7, 1.1, 0.0, 0.0]))
    report = classify(model.atlas, model.sections, model.r, point)
    assert report.stratum is Stratum.SIGMA
    assert (report.dimE, report.dimF) == (model.p, model.r + 1)
    assert not report.transverse


def test_classify_unclassified_on_rank_drop(pm):
    # with the profile attached to s0, the momentum differential genuinely
    # degenerates on the would-be sigma set, and that is reported as such
    chart = pm.atlas.chart("V2")
    point = chart.point(np.array([0.3, 0.7, 1.1, 0.0, 0.0]))
    report = classify(pm.atlas, pm.sections, pm.r, point)
    assert report.stratum is Stratum.UNCLASSIFIED


def test_division_map_is_bracket_homomorphism(pm):
    # dividing by a nonvanishing section turns the section bracket into the
    # rescaled-chart function bracket
    rng = np.random.default_rng(23)
    s0 = pm.section("s0")
    family = rescale(pm.atlas, s0)
    l1 = pm.section("s1")
    l2 = pm.section("f*s0")
    for cid in ("V1", "V2"):
        chart = pm.atlas.chart(cid)
        scaled = family.charts[cid]
        for _ in range(5):
            coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                     rng.uniform(0.5, 1.5, 2)])
            point = chart.point(coords)
            phi1 = expr.divide(l1.on(cid), s0.on(cid))
            phi2 = expr.divide(l2.on(cid), s0.on(cid))
            lhs = section_bracket(pm.atlas, l1, l2, point) \
                / section_value(pm.atlas, s0, point)
            rhs = bracket(scaled, phi1, phi2, point.coords)
            assert abs(lhs - rhs) < 1e-8


def test_ratios_are_first_integrals(pm):
    # X_h kills every ratio s_k / s_i where s_i does not vanish
    rng = np.random.default_rng(29)
    chart = pm.atlas.chart("V0")
    h = pm.hamiltonian
    for _ in range(10):
        coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                 rng.uniform(0.4, 1.6, 2)])
        point = chart.point(coords)
        xh = ham_field(chart, h.on("V0"), point.coords).components
        for k in ("s1", "s2", "f*s0"):
            ratio = expr.divide(pm.section(k).on("V0"), pm.section("s0").on("V0"))
            from contactkit.geometry import ChartField
            gradient = ChartField(chart, ratio).gradient(point.coords)
            assert abs(gradient @ xh) < 1e-8


def test_combine_sections_matches_pointwise(pm):
    combo = combine_sections("mix", [(2.0, pm.section("s0")),
                                     (-1.5, pm.section("s2"))])
    point = pm.atlas.chart("V1").point(np.array([0.1, 0.7, 1.9, 0.8, -0.3]))
    expected = 2.0 * section_value(pm.atlas, pm.section("s0"), point) \
        - 1.5 * section_value(pm.atlas, pm.section("s2"), point)
    assert section_value(pm.atlas, combo, point) == pytest.approx(expected)


def test_section_ratio_is_chart_independent(pm):
    ratio = section_ratio(pm.atlas, pm.section("s1"), pm.section("s0"))
    point = pm.atlas.chart("V0").point(np.array([0.1, 0.7, 1.9, 0.8, -0.3]))
    other = pm.atlas.transfer(point, "V1")
    assert ratio(point) == pytest.approx(ratio(other), abs=1e-12)


def test_momentum_deterministic_tie_break():
    model = canonical(1)
    chart = model.atlas.chart("canonical")
    point = chart.point(np.array([0.5, 0.2, 0.7]))
    sections = [Section("a", {"canonical": parse("2")}),
                Section("b", {"canonical": parse("0-2")}),
                Section("c", {"canonical": parse("1")})]
    value = momentum(model.atlas, sections, point)
    assert value.chart_index == 0          # first of the equal-magnitude pair
    assert value.homogeneous[0] > 0        # leading component made positive
    assert np.linalg.norm(value.homogeneous) == pytest.approx(1.0)


def test_validate_atlas_flags_missing_reverse_and_empty_samples():
    a = canonical_chart(1)
    b = Chart("other", a.names, a.alpha, a.periodic, a.bounds)
    identity = tuple(parse(n) for n in a.names)
    one_way = Atlas([a, b], [Overlap("canonical", "other", identity, parse("1"),
                                     (np.zeros(3),))])
    report = validate_atlas(one_way)
    assert not report.ok
    assert any(r.check == "roundtrip" and not r.ok for r in report.records)

    both = Atlas([a, b], [Overlap("canonical", "other", identity, parse("1")),
                          Overlap("other", "canonical", identity, parse("1"))])
    report = validate_atlas(both)
    assert not report.ok
    assert all(r.check == "overlap-samples" for r in report.failures())


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
       rows=st.lists(st.tuples(*[st.floats(0.1, 1.5)] * 3), min_size=1, max_size=6))
def test_transition_jacobian_equals_the_per_expression_loop(seeds, rows):
    """The jet of an overlap's map is its per-expression gradients bit for
    bit, at a point and on every row of a stack."""
    a = canonical_chart(1)
    b = Chart("other", a.names, a.alpha, a.periodic, a.bounds)
    forward = [random_expression(np.random.default_rng(seed), a.names, depth=3)
               for seed in seeds]
    forward[0] = expr.divide(forward[0], expr.coordinate("p1"))  # a quotient rule
    atlas = Atlas([a, b], [Overlap("canonical", "other", tuple(forward), parse("1"))])
    x = np.array(rows)
    stacked = atlas.transition_jacobian("canonical", "other", x)
    for k, row in enumerate(x):
        want = reference_transition_jacobian(atlas, "canonical", "other", row)
        assert _same_bits(atlas.transition_jacobian("canonical", "other", row), want)
        assert _same_bits(stacked[k], want)


def test_atlas_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        Atlas([canonical_chart(1), canonical_chart(2)])


def _momentum_rows(atlas, sections, point):
    """The rows ``momentum_rank`` hands to ``numerical_rank``."""
    seen = []
    real = numkernel.numerical_rank

    def capture(rows, tol):
        seen.append(rows)
        return real(rows, tol)

    with mock.patch.object(numkernel, "numerical_rank", capture):
        momentum_rank(atlas, sections, point)
    return seen[0]


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from(["primer", "primer2"]),
       chart_id=st.sampled_from(["V0", "V1", "V2"]),
       unit=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
def test_momentum_rank_rows_are_ratio_gradients(pm, pm2, which, chart_id, unit):
    model = pm if which == "primer" else pm2
    chart = model.atlas.chart(chart_id)
    box = chart.effective_sample_box()
    point = chart.point(np.array([lo + u * (hi - lo) for (lo, hi), u in zip(box, unit)]))
    values = np.array([section_value(model.atlas, s, point) for s in model.sections])
    assume(np.abs(values).max() > 1e-9)
    # the reference differentiates each ratio s_m / s_pivot as an expression
    pivot = int(np.argmax(np.abs(values)))
    local = [s.on(chart_id) for s in model.sections]
    reference = np.array([ChartField(chart, expr.divide(e, local[pivot])).gradient(point.coords)
                          for m, e in enumerate(local) if m != pivot])
    assert np.array_equal(_momentum_rows(model.atlas, model.sections, point), reference)


# ---------------------------------------------------------------------------
# Stacked classify


def _sweep(chart, grid):
    axes = [np.linspace(lo, hi, grid) for lo, hi in chart.effective_sample_box()]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _per_point(atlas, sections, r, chart, coords):
    """The per-point loop the stacked sweep replaces: reports up to the
    first row that raises, and that row's error."""
    reports = []
    for row in coords:
        try:
            reports.append(classify(atlas, sections, r, chart.point(row)))
        except ContactKitError as err:
            return reports, err
    return reports, None


@pytest.mark.parametrize("which, chart_id", [("pm", "V2"), ("pm2", "V2"), ("pm2", "V0")])
def test_stacked_classify_equals_the_per_point_loop(pm, pm2, which, chart_id):
    model = pm if which == "pm" else pm2
    chart = model.atlas.chart(chart_id)
    coords = np.concatenate([_sweep(chart, 3),
                             np.random.default_rng(4).uniform(0.0, 1.5, (40, 5))])
    strata = classify(model.atlas, model.sections, model.r, Point(chart.id, coords))
    reports, failure = _per_point(model.atlas, model.sections, model.r, chart, coords)
    assert failure is None and len(strata) == len(coords)
    assert [strata[k] for k in range(len(strata))] == reports
    assert sum(strata.counts().values()) == len(coords)


# alpha = x^3 dy + dz degenerates on the hyperplane x = 0, which an odd grid
# over the box hits; "log(J)" fails where J <= 0
_DEGENERATE = Chart(id="U", names=("x", "y", "J"),
                    alpha=(parse("0"), parse("x^3"), parse("1")),
                    periodic=(False,) * 3, bounds=((-5.0, 5.0),) * 3,
                    sample_box=((-2.0, 2.0), (-1.0, 1.0), (-1.0, 1.0)))
_CONTACT = Chart(id="U", names=("x", "y", "J"),
                 alpha=(parse("0"), parse("x"), parse("1")),
                 periodic=(False,) * 3, bounds=((-5.0, 5.0),) * 3,
                 sample_box=((-2.0, 2.0), (-1.0, 1.0), (-1.0, 1.0)))


@pytest.mark.parametrize("chart, section, error", [
    (_DEGENERATE, "1 + y^2", numkernel.SingularSystem),
    (_CONTACT, "log(J)", expr.DomainError),
    # the first row to fail has J = 0 while the frame fails only later, at
    # x = 0: the stack must not report the singular frame first
    (_DEGENERATE, "log(J + 1) + x", expr.DomainError),
    (_DEGENERATE, "sqrt(J + 1) * y", expr.DomainError),  # a derivative fails
])
def test_stacked_classify_raises_what_the_first_failing_row_raises(chart, section, error):
    atlas = Atlas([chart])
    sections = [Section("s", {"U": parse(section)}), Section("t", {"U": parse("2 + y")})]
    coords = _sweep(chart, 5)
    _, failure = _per_point(atlas, sections, 0, chart, coords)
    assert isinstance(failure, error)
    for stack in (coords, coords[::-1]):
        _, failure = _per_point(atlas, sections, 0, chart, stack)
        with pytest.raises(ContactKitError) as err:
            classify(atlas, sections, 0, Point(chart.id, stack))
        assert type(err.value) is type(failure) and str(err.value) == str(failure)
        assert getattr(err.value, "span", None) == getattr(failure, "span", None)


def test_classify_reads_each_section_jet_in_turn():
    # one jet of the family, section by section: the derivative of sqrt(q1)
    # fails at q1 = 0 before the value of the later log(q1) is reached
    chart = canonical_chart(1)
    atlas = Atlas([chart])
    sections = [Section("a", {chart.id: parse("sqrt(q1)")}),
                Section("b", {chart.id: parse("log(q1)")})]
    for point in (chart.point(np.array([0.3, 0.0, 0.5])),
                  Point(chart.id, np.array([[0.3, 1.0, 0.5], [0.3, 0.0, 0.5]]))):
        with pytest.raises(expr.DomainError) as err:
            classify(atlas, sections, 0, point)
        message = str(err.value)
        assert message.startswith("sqrt derivative at zero") and "'sqrt(q1)'" in message


def test_one_section_has_momentum_rank_zero_from_an_empty_matrix():
    model = canonical(1)
    chart = model.atlas.chart("canonical")
    point = chart.point(np.array([0.5, 0.2, 0.7]))
    sections = [Section("a", {"canonical": parse("2 + q0 * p1")})]
    rows = _momentum_rows(model.atlas, sections, point)
    assert rows.shape == (0, 3)
    assert momentum_rank(model.atlas, sections, point) == 0
    stack = Point(chart.id, np.array([[0.5, 0.2, 0.7], [0.1, 0.3, -0.4]]))
    assert momentum_rank(model.atlas, sections, stack).tolist() == [0, 0]
    report = classify(model.atlas, sections, 0, point)
    assert (report.stratum, report.dimE, report.dimF) == (Stratum.REGULAR_TRANSVERSE, 1, 1)


@pytest.mark.parametrize("r", [-1, 2, 5])
def test_classify_r_out_of_range_raises(pm, r):
    chart = pm.atlas.chart("V0")
    point = chart.point(np.array([0.3, 0.7, 1.1, 0.4, -0.8]))
    sections = pm.sections[:2]
    with pytest.raises(ValueError):
        classify(pm.atlas, sections, r, point)
    with pytest.raises(ValueError):
        classify(pm.atlas, sections, r, Point(chart.id, np.zeros((0, 5))))


def test_momentum_rank_stack_raises_zero_locus_of_first_row(pm2):
    red = pm2.reduced
    chart = red.atlas.chart("N")
    rows = np.array([[0.3, 0.7, 1.1, 0.4, -0.8], [0.3, 0.7, np.pi, 0.0, 0.0],
                     [0.1, 0.2, 0.0, 0.0, 0.0]])
    with pytest.raises(ZeroLocus) as err:
        momentum_rank(red.atlas, red.sections, Point(chart.id, rows))
    assert err.value.where.tolist() == rows[1].tolist()
    ranks = momentum_rank(red.atlas, red.sections, Point(chart.id, rows[:1]))
    assert ranks.tolist() == [momentum_rank(red.atlas, red.sections, chart.point(rows[0]))]
