import collections
import copy
import random
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

from contactkit import expr, models
from contactkit.bundle import Stratum, classify, momentum, validate_atlas
from contactkit.dynamics import flow
from contactkit.errors import ContactKitError
from contactkit.expr import parse
from contactkit.geometry import contact_check, reeb_at
from contactkit.jacobi import ham_field
from contactkit.models import (PositivityViolation, SchemaError,
                               ValidationError, canonical, from_config, primer,
                               primer2, validate_model)
from helpers import CONFIG_SCHEMA, dissipative_oracle, random_polynomial

OMEGA = (1.0, np.sqrt(2.0))


@pytest.fixture(scope="module")
def pm():
    return primer(2, OMEGA, "2 + sin(phi2)", k=0)


def test_canonical_reeb_and_flow_equations():
    model = canonical(2)
    chart = model.atlas.chart("canonical")
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 5)
        assert np.allclose(reeb_at(chart, x).components, [1, 0, 0, 0, 0],
                           atol=1e-12)
        f = random_polynomial(rng, chart.names)
        assert np.max(np.abs(ham_field(chart, f, x).components
                             - dissipative_oracle(f, chart, x))) < 1e-12
        assert contact_check(chart, x).ok


def test_canonical_requires_size():
    with pytest.raises(ValueError):
        canonical(0)


def test_primer_flow_matches_stated_equations(pm):
    chart = pm.atlas.chart("V1")
    x0 = chart.point(np.array([0.5, 1.0, 1.5, 0.6, -0.9]))
    traj = flow(pm, None, x0, 20.0, n_samples=81)
    for t, p in zip(traj.times, traj.points):
        assert p.coords[0] == pytest.approx((0.5 + t) % (2 * np.pi), abs=1e-9)
        assert p.coords[1] == pytest.approx((1.0 + np.sqrt(2) * t) % (2 * np.pi),
                                            abs=1e-9)
        assert p.coords[2] == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(p.coords[3:], [0.6, -0.9], atol=1e-12)


def test_primer_momentum_pattern(pm):
    chart = pm.atlas.chart("V2")
    coords = np.array([0.2, 0.8, 1.4, 0.5, 0.3])
    value = momentum(pm.atlas, pm.sections, chart.point(coords))
    f = 2.0 + np.sin(1.4)
    raw = np.array([0.5, 0.3, 1.0, f * 0.5])
    assert np.allclose(value.homogeneous, raw / np.linalg.norm(raw), atol=1e-13)


def test_primer_sigma_detection():
    model = primer(2, OMEGA, "2 + sin(phi2)", k=2)
    chart = model.atlas.chart("V2")
    rng = np.random.default_rng(5)
    for _ in range(10):
        angles = rng.uniform(0, 2 * np.pi, 3)
        on = chart.point(np.concatenate([angles, [0.0, 0.0]]))
        off = chart.point(np.concatenate([angles, rng.uniform(0.2, 1.0, 2)]))
        assert classify(model.atlas, model.sections, model.r, on).stratum \
            is Stratum.SIGMA
        assert classify(model.atlas, model.sections, model.r, off).stratum \
            is Stratum.REGULAR_TRANSVERSE


def test_primer_rejects_nonpositive_profile():
    with pytest.raises(PositivityViolation):
        primer(2, OMEGA, "sin(phi2)", k=0)


def test_primer_rejects_alien_profile_names():
    with pytest.raises(ValueError):
        primer(2, OMEGA, "2 + sin(phi1)", k=0)


def test_primer2_reduced_equations():
    model = primer2(1, (0.7,), "sin(phi1)")
    red = model.reduced
    chart = red.atlas.chart("N")
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = np.concatenate([rng.uniform(0, 2 * np.pi, 2), rng.uniform(-1, 1, 1)])
        v = ham_field(chart, red.hamiltonian.on("N"), x).components
        expected = np.array([0.7, np.sin(x[1]), np.cos(x[1]) * x[2]])
        assert np.max(np.abs(v - expected)) < 1e-12


def test_primer2_zero_locus_is_product_set():
    model = primer2(2, OMEGA, "sin(phi2)")
    red = model.reduced
    chart = red.atlas.chart("N")
    rng = np.random.default_rng(9)
    for _ in range(10):
        angles = rng.uniform(0, 2 * np.pi, 2)
        for root in (0.0, np.pi):
            point = chart.point(np.concatenate([angles, [root, 0.0, 0.0]]))
            assert classify(red.atlas, red.sections, red.r, point).stratum \
                is Stratum.ZERO_LOCUS
        away = chart.point(np.concatenate([angles, [0.5], rng.uniform(0.1, 1, 2)]))
        assert classify(red.atlas, red.sections, red.r, away).stratum \
            is not Stratum.ZERO_LOCUS


def test_primer2_positive_profile_has_empty_zero_locus():
    model = primer2(2, OMEGA, "2 + sin(phi2)")
    red = model.reduced
    chart = red.atlas.chart("N")
    rng = np.random.default_rng(11)
    for _ in range(200):
        point = chart.point(np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                            rng.uniform(-2, 2, 2)]))
        assert classify(red.atlas, red.sections, red.r, point).stratum \
            is not Stratum.ZERO_LOCUS


def test_primer_variants_share_the_atlas(pm):
    other = primer2(2, OMEGA, "sin(phi2)")
    assert other.atlas is pm.atlas


def test_rebuilding_a_model_compiles_no_kernel(monkeypatch):
    # each build on a new atlas: the charts of a cached one keep their kernels
    models._projective_torus_atlas.cache_clear()
    primer2(2, OMEGA, "sin(phi2)")
    models._projective_torus_atlas.cache_clear()
    compiles = []
    original = expr.Kernel._compile

    def counting(kernel, *args, **kwargs):
        compiles.append(args)
        return original(kernel, *args, **kwargs)

    monkeypatch.setattr(expr.Kernel, "_compile", counting)
    primer2(2, OMEGA, "sin(phi2)")
    assert compiles == []


def test_builtin_models_pass_validation(pm):
    records = validate_model(pm, strict=False)
    assert all(r.ok for r in records)
    assert any(r.check == "hamiltonian-span" for r in records)


CANONICAL_CONFIG = textwrap.dedent("""
    name: canonical-1
    charts:
      - id: U
        coordinates: [q0, q1, p1]
        alpha: ["1", "p1", "0"]
    sections:
      - name: one
        local: {U: "1"}
    r: 0
    hamiltonian: one
""")


def test_config_reproduces_canonical(tmp_path):
    path = tmp_path / "model.yaml"
    path.write_text(CANONICAL_CONFIG)
    loaded = from_config(path)
    built = canonical(1)
    rng = np.random.default_rng(13)
    chart_a = loaded.atlas.chart("U")
    chart_b = built.atlas.chart("canonical")
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, 3)
        f = random_polynomial(rng, chart_b.names, terms=2)
        va = ham_field(chart_a, f, x).components
        vb = ham_field(chart_b, f, x).components
        assert np.allclose(va, vb, atol=1e-13)
        assert np.allclose(reeb_at(chart_a, x).components,
                           reeb_at(chart_b, x).components, atol=1e-13)


TWO_CHART_CONFIG = textwrap.dedent("""
    name: two-ratio-charts
    charts:
      - id: A
        coordinates: [phi0, phi1, J]
        periodic: [phi0, phi1]
        alpha: ["1", "J", "0"]
        sample_box: {J: [0.4, 1.8]}
      - id: B
        coordinates: [phi0, phi1, J]
        periodic: [phi0, phi1]
        alpha: ["J", "1", "0"]
        sample_box: {J: [0.4, 1.8]}
    overlaps:
      - {from: A, to: B, map: ["phi0", "phi1", "1/J"], factor: "J"}
      - {from: B, to: A, map: ["phi0", "phi1", "1/J"], factor: "J"}
    sections:
      - name: s0
        local: {A: "1", B: "J"}
      - name: s1
        local: {A: "J", B: "1"}
    r: 0
    hamiltonian: s0
""")


def test_config_two_chart_model(tmp_path):
    path = tmp_path / "pair.yaml"
    path.write_text(TWO_CHART_CONFIG)
    model = from_config(path)
    assert set(model.atlas.chart_ids) == {"A", "B"}
    assert validate_atlas(model.atlas).ok
    chart = model.atlas.chart("A")
    x0 = chart.point(np.array([0.1, 0.2, 0.9]))
    traj = flow(model, None, x0, 3.0, n_samples=16)
    assert traj.points[-1].coords[0] == pytest.approx((0.1 + 3.0) % (2 * np.pi),
                                                      abs=1e-9)


def test_config_broken_cocycle_names_the_overlap(tmp_path):
    # three charts glued like coordinate ratios, with one factor corrupted
    text = textwrap.dedent("""
        charts:
          - id: A
            coordinates: [phi0, phi1, J]
            periodic: [phi0, phi1]
            alpha: ["1", "J", "0"]
            sample_box: {J: [0.4, 1.8]}
          - id: B
            coordinates: [phi0, phi1, J]
            periodic: [phi0, phi1]
            alpha: ["J", "1", "0"]
            sample_box: {J: [0.4, 1.8]}
        overlaps:
          - {from: A, to: B, map: ["phi0", "phi1", "1/J"], factor: "1.01*J"}
          - {from: B, to: A, map: ["phi0", "phi1", "1/J"], factor: "J"}
        sections:
          - name: s0
            local: {A: "1", B: "J"}
        r: 0
        hamiltonian: s0
    """)
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        from_config(path)
    assert err.value.check in ("form-compatibility", "section-compatibility")
    assert "A" in err.value.subject and "B" in err.value.subject


def test_validation_rejects_noncommuting_designated_family(tmp_path):
    text = textwrap.dedent("""
        charts:
          - id: U
            coordinates: [q0, q1, p1]
            alpha: ["1", "p1", "0"]
        sections:
          - name: a
            local: {U: "p1"}
          - name: b
            local: {U: "q1"}
        r: 1
        hamiltonian: a
    """)
    path = tmp_path / "noncommuting.yaml"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        from_config(path)
    assert err.value.check == "commutation"
    assert "[a,b]" in err.value.subject or "[b,a]" in err.value.subject


def test_validation_rejects_degenerate_form(tmp_path):
    text = textwrap.dedent("""
        charts:
          - id: U
            coordinates: [q0, q1, p1]
            alpha: ["1", "0", "0"]
        sections:
          - name: one
            local: {U: "1"}
        r: 0
        hamiltonian: one
    """)
    path = tmp_path / "degenerate.yaml"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        from_config(path)
    assert err.value.check == "contact-nondegeneracy"


def test_validation_rejects_hamiltonian_outside_span(tmp_path):
    text = textwrap.dedent("""
        charts:
          - id: U
            coordinates: [q0, q1, p1]
            alpha: ["1", "p1", "0"]
        sections:
          - name: a
            local: {U: "p1"}
          - name: b
            local: {U: "p1*p1"}
        r: 0
        hamiltonian: b
    """)
    path = tmp_path / "span.yaml"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        from_config(path)
    assert err.value.check == "hamiltonian-span"


def test_schema_error_paths(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("charts: []\nsections: []\nr: 0\nhamiltonian: h\n")
    with pytest.raises(SchemaError) as err:
        from_config(path)
    assert err.value.path.startswith("$")

    path.write_text(textwrap.dedent("""
        charts:
          - id: U
            coordinates: [q0, q1, p1]
            alpha: ["1", "p1", "bad ^^ expr"]
        sections:
          - name: one
            local: {U: "1"}
        r: 0
        hamiltonian: one
    """))
    with pytest.raises(SchemaError) as err:
        from_config(path)
    assert "alpha[2]" in str(err.value)


def test_config_schema_is_valid():
    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_loading_a_config_does_not_check_the_schema(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the config was checked with jsonschema")

    validator = validator_for(CONFIG_SCHEMA)
    for name in ("check_schema", "iter_errors", "validate"):
        monkeypatch.setattr(validator, name, refuse)
    monkeypatch.setattr(jsonschema, "validate", refuse)
    model = from_config(Path(__file__).resolve().parent.parent / "perfbench" / "chart_switch.yaml")
    assert model.atlas.chart_ids == ("V0", "V1")


# Documents the schema rejects, most of them for more than one reason
SCHEMA_EXAMPLES = [
    {"charts": [], "sections": [], "r": 0, "hamiltonian": "h"},
    {"charts": [{"id": "U", "coordinates": ["q0", "q1"], "alpha": []}],
     "sections": [{"name": "one", "local": {}}], "r": 0, "hamiltonian": "one"},
    {"charts": [{"id": "U", "coordinates": ["q0", "q1", "p1"], "alpha": ["1", "p1", "0"]}],
     "sections": [{"name": "one", "local": {"U": 1}}], "r": -1, "hamiltonian": 3},
    {"charts": [{"id": "U", "coordinates": ["q0", "q1", "p1"], "alpha": ["1", "p1", "0"],
                 "color": "red"}], "sections": [{"name": "one", "local": {"U": "1"}}],
     "r": 0, "hamiltonian": {"one": "two"}},
    {"sections": [], "r": "0", "overlaps": [{"from": "U"}]},
]


@pytest.mark.parametrize("document", SCHEMA_EXAMPLES)
def test_schema_errors_are_those_of_jsonschema_validate(document):
    """The loader reports the first error it meets, which need not be the one
    jsonschema ranks best, but always at one of the schema's error paths."""
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(document, CONFIG_SCHEMA)
    want = {error.json_path for error in validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
            .iter_errors(document)}
    with pytest.raises(SchemaError) as got:
        from_config(document)
    assert got.value.path in want
    assert str(got.value).startswith(f"config error at {got.value.path}: ")


# A two-chart document with every optional key; its first domain has the
# numeric-string bounds PyYAML reads from "[-1.0e6, 1.0e6]"
ORACLE_DOCUMENT = {
    "name": "two-ratio-charts",
    "charts": [
        {"id": "A", "coordinates": ["phi0", "phi1", "J"], "periodic": ["phi0", "phi1"],
         "alpha": ["1", "J", "0"], "domain": {"J": ["-1.0e6", "1.0e6"]},
         "sample_box": {"J": [0.4, 1.8]}, "denominator": "1/sqrt(1 + J^2)"},
        {"id": "B", "coordinates": ["phi0", "phi1", "J"], "periodic": ["phi0", "phi1"],
         "alpha": ["J", "1", "0"], "domain": {"J": [None, 1.0e6]},
         "sample_box": {"J": [0.4, 1.8]}, "denominator": "1/sqrt(1 + J^2)"},
    ],
    "overlaps": [
        {"from": "A", "to": "B", "map": ["phi0", "phi1", "1/J"], "factor": "J",
         "samples": [[0.1, 0.2, 0.5], [1.0, 2.0, 1.5]]},
        {"from": "B", "to": "A", "map": ["phi0", "phi1", "1/J"], "factor": "J",
         "samples": [[0.3, 0.4, 0.7], [2.0, 1.0, 1.2]]},
    ],
    "sections": [{"name": "s0", "local": {"A": "1", "B": "J"}},
                 {"name": "s1", "local": {"A": "J", "B": "1"}}],
    "r": 0,
    "hamiltonian": {"s0": 2.0},
}
_MUTANT_VALUES = [None, True, False, 0, 1, -1, 2.5, "", "x", "J", "1", "s0", "A", [], [1],
                  ["x"], ["J", "1"], [0.5, 1.5], [[0.1, 0.2, 0.5]], {}, {"J": "1"},
                  {"s0": 1}, {"J": [0, 1]}]
_MUTANT_KEYS = ["name", "color", "J", "A", "s1", "samples", "periodic", "r"]


def _mutant(rng, document):
    """``document`` with one key dropped or added, or one value replaced."""
    doc = copy.deepcopy(document)
    nodes = [((), doc)]
    for path, node in nodes:  # grows as it goes: every node, parents first
        if isinstance(node, (dict, list)):
            keys = node if isinstance(node, dict) else range(len(node))
            nodes += [(path + (key,), node[key]) for key in keys]
    value = copy.deepcopy(rng.choice(_MUTANT_VALUES))
    kind = rng.choice(["drop", "add", "replace"])
    if kind != "replace":
        _, mapping = rng.choice([(p, v) for p, v in nodes if isinstance(v, dict) and v])
        if kind == "drop":
            del mapping[rng.choice(sorted(mapping))]
        else:
            mapping[rng.choice(_MUTANT_KEYS)] = value
        return doc
    path, _ = rng.choice(nodes[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_config_errors_are_reported_where_the_schema_reports_them():
    """Every document the schema rejects fails with a SchemaError at one of
    the schema's error paths (its only one, if it has one), and no document
    fails with anything but a ContactKitError."""
    validator = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
    assert from_config(ORACLE_DOCUMENT).atlas.chart_ids == ("A", "B")
    rng = random.Random(17)
    mutants = [_mutant(rng, ORACLE_DOCUMENT) for _ in range(2000)]
    outcomes = collections.Counter()
    for document in [*SCHEMA_EXAMPLES, *mutants]:
        want = {error.json_path for error in validator.iter_errors(document)}
        try:
            from_config(document)
            got = None
        except SchemaError as exc:
            got = exc.path
        except ContactKitError:
            got = "other"
        assert not want or got in want, (document, want, got)
        outcomes["rejected" if want else "loaded" if got is None else "refused"] += 1
    assert outcomes["rejected"] > 1000 and outcomes["loaded"] > 100, outcomes


def test_schema_rejects_unknown_hamiltonian(tmp_path):
    path = tmp_path / "h.yaml"
    path.write_text(CANONICAL_CONFIG.replace("hamiltonian: one",
                                             "hamiltonian: missing"))
    with pytest.raises(SchemaError) as err:
        from_config(path)
    assert "missing" in str(err.value)


def model_as_config(model, factor_override=None):
    """Serialize a model back to the config mapping (expressions print)."""
    doc = {"name": model.name, "charts": [], "overlaps": [], "sections": [],
           "r": model.r, "hamiltonian": {}}
    for chart in model.atlas.charts.values():
        spec = {
            "id": chart.id,
            "coordinates": list(chart.names),
            "periodic": [n for n, per in zip(chart.names, chart.periodic) if per],
            "alpha": [str(a) for a in chart.alpha],
            "domain": {n: [None if np.isinf(b[0]) else float(b[0]),
                           None if np.isinf(b[1]) else float(b[1])]
                       for n, b in zip(chart.names, chart.bounds)},
        }
        if chart.sample_box is not None:
            spec["sample_box"] = {n: [float(b[0]), float(b[1])]
                                  for n, b in zip(chart.names, chart.sample_box)}
        if chart.denominator is not None:
            spec["denominator"] = str(chart.denominator)
        doc["charts"].append(spec)
    for (src, dst), ov in model.atlas.overlaps.items():
        factor = str(ov.factor)
        if factor_override and (src, dst) in factor_override:
            factor = factor_override[(src, dst)]
        doc["overlaps"].append({
            "from": src, "to": dst,
            "map": [str(e) for e in ov.forward],
            "factor": factor,
            "samples": [list(map(float, s)) for s in ov.samples],
        })
    for s in model.sections:
        doc["sections"].append({"name": s.name,
                                "local": {cid: str(e) for cid, e in s.local.items()}})
    omegas = model.meta["omegas"]
    doc["hamiltonian"] = {f"s{j}": float(w) for j, w in enumerate(omegas)}
    return doc


def test_config_round_trip_of_projective_model(pm):
    flat = primer(2, OMEGA, "2", k=0)          # angle-free profile loads fine
    loaded = from_config(model_as_config(flat))
    assert set(loaded.atlas.chart_ids) == set(flat.atlas.chart_ids)
    assert loaded.r == flat.r
    rng = np.random.default_rng(21)
    chart_id = "V1"
    for _ in range(20):
        coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                 rng.uniform(0.3, 1.5, 2)])
        a = loaded.atlas.chart(chart_id).point(coords)
        b = flat.atlas.chart(chart_id).point(coords)
        for name in ("s0", "s1", "s2"):
            va = ham_field(loaded.atlas.chart(chart_id),
                           loaded.section(name).on(chart_id), a.coords).components
            vb = ham_field(flat.atlas.chart(chart_id),
                           flat.section(name).on(chart_id), b.coords).components
            assert np.allclose(va, vb, atol=1e-13)


def test_config_corrupted_cocycle_names_triple():
    flat = primer(2, OMEGA, "2", k=0)
    doc = model_as_config(flat, factor_override={("V0", "V2"): "1.01*J2"})
    with pytest.raises(ValidationError) as err:
        from_config(doc)
    assert err.value.check in ("cocycle", "form-compatibility")
    if err.value.check == "cocycle":
        assert set(err.value.subject.split(",")) == {"V0", "V1", "V2"}


def test_make_symmetry_of_profile_product(pm):
    # multiplying a ratio section by an angle profile stays a symmetry
    from contactkit.jacobi import make_symmetry
    rng = np.random.default_rng(27)
    profile = pm.section("f*s0").local  # noqa: F841 - the model's own product
    f = parse("2 + sin(phi2)")
    for cid in pm.atlas.chart_ids:
        chart = pm.atlas.chart(cid)
        points = [np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                  rng.uniform(0.3, 1.5, 2)])
                  for _ in range(6)]
        product, report = make_symmetry(chart, pm.hamiltonian.on(cid),
                                        pm.section("s0").on(cid), f, points)
        assert report.max_residual < 1e-8


def test_momentum_rank_drop_with_double_zero_profile():
    from contactkit.bundle import momentum_rank
    model = primer2(2, OMEGA, "1 - cos(phi2)")
    red = model.reduced
    chart = red.atlas.chart("N")
    # profile and its slope both vanish at phi2 = 0; with one momentum zero
    # the affine differential loses a direction
    point = chart.point(np.array([0.3, 0.9, 0.0, 0.5, 0.0]))
    assert momentum_rank(red.atlas, red.sections, point) < red.p
    generic = chart.point(np.array([0.3, 0.9, 1.2, 0.5, -0.4]))
    assert momentum_rank(red.atlas, red.sections, generic) == red.p


def test_profile_zeros_by_bisection():
    from contactkit.models import profile_zeros
    zeros = profile_zeros(parse("sin(phi2)"), "phi2")
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx(0.0, abs=1e-10)
    assert zeros[1] == pytest.approx(np.pi, abs=1e-10)
    shifted = profile_zeros(parse("0.5 - cos(phi2)"), "phi2")
    assert len(shifted) == 2
    for z in shifted:
        assert abs(0.5 - np.cos(z)) < 1e-10
    assert profile_zeros(parse("2 + sin(phi2)"), "phi2") == []
