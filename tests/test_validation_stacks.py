"""Load-time validation, contact checks and action quadrature on stacks,
against the per-point loops they replaced (the reference oracles of
``helpers``): equal records, residual and ``where`` bits included, and the
same exception type and message when a check fails or raises."""

import json
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactkit import cli, models, numkernel
from contactkit.bundle import Atlas, _worst
from contactkit.dynamics import Cycle, coordinate_circle, loop_integral
from contactkit.errors import ContactKitError
from contactkit.expr import parse
from contactkit.geometry import Chart, contact_check, frame_at
from contactkit.models import canonical, from_config, primer, primer2, validate_model
import helpers

OMEGA = (1.0, math.sqrt(2.0))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def assert_same_records(got, want):
    assert [(r.check, r.subject, r.ok) for r in got] == [(r.check, r.subject, r.ok) for r in want]
    for g, w in zip(got, want):
        assert same_bits(g.residual, w.residual), (g, w)
        assert (g.where is None) == (w.where is None), (g, w)
        if w.where is not None:
            assert same_bits(g.where, w.where), (g, w)


def outcome(validate, model, strict):
    """The records of a validation, or the type and message of what it raised."""
    try:
        return validate(model, strict=strict)
    except ContactKitError as exc:
        return type(exc), str(exc)


def assert_same_outcome(model):
    for strict in (False, True):
        got = outcome(validate_model, model, strict)
        want = outcome(helpers.reference_validate_model, model, strict)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_records(got, want)


def unvalidated(doc):
    """The model of a config document, built without its load-time checks."""
    with mock.patch.object(models, "_validated", lambda model, validate=True: model):
        return from_config(doc)


_BUILT_IN = [("canonical", n) for n in (1, 2, 3)] \
    + [("primer", n, k) for n in (1, 2) for k in range(n + 1)] \
    + [("primer2", n) for n in (1, 2)] + [("primer2-reduced", n) for n in (1, 2)]


def _built_in(spec):
    name, n, *k = spec
    if name == "canonical":
        return canonical(n, validate=False)
    if name == "primer":
        return primer(n, OMEGA[:n], f"2 + sin(phi{n})", k[0], validate=False)
    model = primer2(n, OMEGA[:n], f"sin(phi{n})", validate=False)
    return model.reduced if name == "primer2-reduced" else model


@pytest.mark.parametrize("spec", _BUILT_IN, ids=lambda spec: "-".join(map(str, spec)))
def test_built_in_records_equal_the_per_point_loop(spec):
    assert_same_outcome(_built_in(spec))


def test_chart_switch_records_equal_the_per_point_loop():
    assert_same_outcome(unvalidated(helpers.CHART_SWITCH_CONFIG))


def _one_chart(alpha, sections, r=0, hamiltonian=None):
    return {"charts": [{"id": "U", "coordinates": ["q0", "q1", "p1"], "alpha": alpha}],
            "sections": [{"name": f"s{i}", "local": {"U": text}}
                         for i, text in enumerate(sections)],
            "r": r, "hamiltonian": hamiltonian or "s0"}


def _two_charts(factor, sections):
    box = {"J": [0.4, 1.8]}
    return {"charts": [{"id": "A", "coordinates": ["phi0", "phi1", "J"],
                        "periodic": ["phi0", "phi1"], "alpha": ["1", "J", "0"],
                        "sample_box": box},
                       {"id": "B", "coordinates": ["phi0", "phi1", "J"],
                        "periodic": ["phi0", "phi1"], "alpha": ["J", "1", "0"],
                        "sample_box": box}],
            "overlaps": [{"from": "A", "to": "B", "map": ["phi0", "phi1", "1/J"],
                          "factor": factor},
                         {"from": "B", "to": "A", "map": ["phi0", "phi1", "1/J"],
                          "factor": "J"}],
            "sections": [{"name": f"s{i}", "local": {"A": a, "B": b}}
                         for i, (a, b) in enumerate(sections)],
            "r": 0, "hamiltonian": "s0"}


FAILING = {
    "degenerate-form": _one_chart(["1", "0", "0"], ["1"]),
    # the form degenerates where p1 < 0, and alpha fails where q1 is low:
    # first in sample order, the degenerate point, then the failing one
    "degenerate-then-log": _one_chart(["1", "p1 + abs(p1)", "0*log(q1 + 1.9)"], ["1"]),
    "log-then-degenerate": _one_chart(["1", "p1 + abs(p1)", "0*log(q1 + 1.2)"], ["1"]),
    # the first sample fails the section, the second the frame
    "section-before-frame": _one_chart(["1", "p1 - 0.999999999999*abs(p1)", "0"],
                                       ["log(q0 + 0.5)"]),
    "log-on-an-overlap": _two_charts("J", [("1", "J"), ("log(J - 0.6)", "log(J)")]),
    "non-commuting-pair": _one_chart(["1", "p1", "0"], ["p1", "q1"], r=1),
    "broken-factor": _two_charts("1.01*J", [("1", "J")]),
    "unbound-section-names": _two_charts("J", [("1", "J"), ("K + L", "1")]),
    # no overlap back, so the atlas check goes on to the sections, where the
    # map fails before the factor
    "one-way-overlap": {**_two_charts("log(J - 1)", [("1", "J")]), "overlaps": [
        {"from": "A", "to": "B", "map": ["phi0", "phi1", "sqrt(J - 1)"],
         "factor": "log(J - 1)", "samples": [[0.1, 0.2, 1.5], [0.3, 0.4, 0.5]]}]},
    "span": _one_chart(["1", "p1", "0"], ["p1", "p1*p1"], hamiltonian="s1"),
    # finite sections whose bracket is NaN (inf times zero) at the samples
    "nan-bracket": _one_chart(["1", "p1", "0"], ["1", "1e200*q1*p1*1e200"]),
    # an infinite section: NaN brackets, and a span fit that cannot converge
    "infinite-section": _one_chart(["1", "p1", "0"], ["1e999", "1e200*q1*p1*1e200"]),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_config_fails_as_the_per_point_loop(name):
    assert_same_outcome(unvalidated(FAILING[name]))


@pytest.mark.parametrize("name, subjects", [
    ("nan-bracket", {"[s0,s1] on U"}),
    ("infinite-section", {"[s0,s0] on U", "[s0,s1] on U", "s0"})])
def test_a_non_finite_residual_fails_its_check(tmp_path, capsys, name, subjects):
    path, out = tmp_path / "model.json", tmp_path / "check.json"
    path.write_text(json.dumps(FAILING[name]))
    with warnings.catch_warnings():
        # the brackets multiply inf by zero, and say so only in their records
        warnings.simplefilter("error")
        records = validate_model(unvalidated(FAILING[name]), strict=False)
        assert cli.main(["check", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    with np.errstate(all="ignore"):
        assert_same_records(records, helpers.reference_validate_model(
            unvalidated(FAILING[name]), strict=False))
    failed = {r.subject: r for r in records if not r.ok}
    assert set(failed) == subjects
    for r in failed.values():
        assert not math.isfinite(r.residual) and r.where is not None, r
    report = json.loads(out.read_text())
    assert not report["ok"] and report["failure"]["subject"] in subjects
    assert not math.isfinite(report["failure"]["residual"]) and report["failure"]["where"]


def test_cocycle_skips_the_samples_where_a_factor_fails():
    # the factor from V1 to V2 fails where J2 <= -2: no overlap sample of V1
    # gets there, but the images of some samples of V0 do
    model = primer(2, OMEGA, "2 + sin(phi2)", 0, validate=False)
    overlaps = [replace(ov, factor=parse("J2 + 0*log(J2 + 2)")) if key == ("V1", "V2") else ov
                for key, ov in model.atlas.overlaps.items()]
    assert_same_outcome(replace(model, atlas=Atlas(list(model.atlas.charts.values()), overlaps)))


_ALPHAS = [["1", "p1", "0"], ["1", "0", "0"], ["1", "p1^3", "0"], ["cos(p1)", "sin(p1)", "q1"],
           ["1", "log(p1 + 1)", "0"], ["exp(q0)", "p1", "0"]]
_SECTIONS = ["1", "p1", "q1", "q0*p1", "log(q1)", "sqrt(p1)", "1/(q1 - 0.25)",
             "p1^2 + q1", "exp(q0)", "sqrt(q1 + p1)*p1"]


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from(_ALPHAS),
       sections=st.lists(st.sampled_from(_SECTIONS), min_size=1, max_size=3),
       r=st.integers(0, 2), hamiltonian=st.integers(0, 2))
def test_random_one_chart_configs_validate_as_the_per_point_loop(alpha, sections, r,
                                                                 hamiltonian):
    doc = _one_chart(alpha, sections, min(r, len(sections) - 1),
                     f"s{min(hamiltonian, len(sections) - 1)}")
    assert_same_outcome(unvalidated(doc))


_PAIRS = [("1", "J"), ("J", "1"), ("log(J)", "log(1/J)"), ("sqrt(J - 0.9)", "J*sqrt(1/J - 0.9)"),
          ("sin(phi0)", "J*sin(phi0)"), ("1/(J - 1)", "J/(1/J - 1)")]


@settings(max_examples=30, deadline=None)
@given(factor=st.sampled_from(["J", "1.01*J", "J + 1e-12"]),
       sections=st.lists(st.sampled_from(_PAIRS), min_size=1, max_size=3))
def test_random_two_chart_configs_validate_as_the_per_point_loop(factor, sections):
    assert_same_outcome(unvalidated(_two_charts(factor, sections)))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True) | st.just(0.0), max_size=8),
       start=st.sampled_from([0.0, -np.inf]))
@example(values=[1.0, float("nan"), 2.0], start=0.0)
@example(values=[float("inf"), float("nan")], start=0.0)
def test_worst_keeps_what_the_per_point_loop_keeps(values, start):
    samples = np.arange(len(values))
    worst, where = start, None
    for v, x in zip(values, samples):
        if helpers.worse(v, worst):
            worst, where = v, x
    got = _worst(np.array(values, dtype=float), samples, start)
    assert same_bits(got[0], worst) and got[1] == where


# ---------------------------------------------------------------------------
# contact_check on a stack


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from(_ALPHAS + [["1", "p1*q1", "q1"], ["p1", "1", "0"]]),
       rows=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
                     min_size=1, max_size=30))
def test_stacked_contact_check_rows_equal_the_per_point_check(alpha, rows):
    chart = Chart("U", ("q0", "q1", "p1"), tuple(map(parse, alpha)), (False,) * 3,
                  ((-np.inf, np.inf),) * 3)
    x = np.array(rows)
    try:
        want = [helpers.reference_bordered_check(chart, row) for row in x]
    except ContactKitError as exc:
        with pytest.raises(type(exc)) as err:
            contact_check(chart, x)
        assert str(err.value) == str(exc)
        return
    got = contact_check(chart, x)
    assert got.ok.tolist() == [w[0] for w in want]
    assert got.rank.tolist() == [w[2] for w in want]
    assert same_bits(got.det_proxy, [w[1] for w in want])
    one = contact_check(chart, x[0])
    assert (one.ok, one.rank, one.expected_rank) == (want[0][0], want[0][2], want[0][3])
    assert same_bits(one.det_proxy, want[0][1])


def _chart(alpha):
    return Chart("U", ("q0", "q1", "p1"), tuple(map(parse, alpha)), (False,) * 3,
                 ((-np.inf, np.inf),) * 3)


def _frame_outcome(chart, row):
    """Whether the frame at ``row`` exists, or what else it raised."""
    try:
        frame_at(chart, row)
    except numkernel.SingularSystem:
        return False
    except ContactKitError as exc:
        return type(exc), str(exc)
    return True


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from(_ALPHAS + [["0", "0", "0"], ["1", "p1*q1", "q1"]]),
       rows=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                               st.floats(-2.0, 2.0) | st.sampled_from([1e-5, 8.7e-57])),
                     min_size=1, max_size=20))
@example(alpha=["1", "p1^3", "0"], rows=[(0.0, 0.0, 1e-5), (0.0, 0.0, 8.7e-57), (0.0, 0.0, 1.0)])
def test_a_row_is_nondegenerate_exactly_where_its_frame_exists(alpha, rows):
    chart, x = _chart(alpha), np.array(rows)
    want = [_frame_outcome(chart, row) for row in x]
    failure = next((w for w in want if isinstance(w, tuple)), None)
    if failure is not None:
        with pytest.raises(failure[0]) as err:
            contact_check(chart, x)
        assert str(err.value) == failure[1]
        return
    assert contact_check(chart, x).ok.tolist() == want


def _validation_samples():
    """Each chart of the shipped models and the chart-switch config with
    its validation samples, then degenerate forms on sampled rows."""
    for spec in [("canonical", 2), ("primer", 2, 0), ("primer2", 2), ("primer2-reduced", 2)]:
        for chart in _built_in(spec).atlas.charts.values():
            yield chart, models._chart_samples(chart, models.CONTACT_SAMPLES_PER_CHART)
    for chart in unvalidated(helpers.CHART_SWITCH_CONFIG).atlas.charts.values():
        yield chart, models._chart_samples(chart, models.CONTACT_SAMPLES_PER_CHART)
    rows = np.random.default_rng(5).uniform(-2.0, 2.0, (64, 3))
    rows[0] = 0.0
    for alpha in (["1", "0", "0"], ["0", "0", "0"], ["q0", "q1", "p1"]):
        yield _chart(alpha), rows


def test_nondegeneracy_and_rank_equal_the_restriction_to_ker_alpha():
    for chart, samples in _validation_samples():
        got = contact_check(chart, samples)
        want = [helpers.reference_contact_check(chart, x) for x in samples]
        assert got.ok.tolist() == [w[0] for w in want], chart.id
        assert got.rank.tolist() == [w[2] for w in want], chart.id


# ---------------------------------------------------------------------------
# loop_integral on a stack of nodes


_BOXED = Chart("box", ("phi0", "phi1", "I"), (parse("1"), parse("I + sin(phi0)"), parse("0")),
               (True, True, False), ((0.0, 2 * np.pi), (0.0, 2 * np.pi), (-1.0, 1.0)))


@settings(max_examples=40, deadline=None)
@given(base=st.tuples(st.floats(0.0, 6.2), st.floats(0.0, 6.2), st.floats(-0.9, 0.9)),
       wobble=st.floats(0.0, 0.5), turns=st.integers(1, 2),
       subdivisions=st.integers(1, 4))
def test_stacked_loop_integral_equals_the_per_node_loop(base, wobble, turns, subdivisions):
    phi0, phi1, level = base

    # math functions element by element: a row's bits do not depend on the batch
    def point(s):
        return np.array([[phi0 + 2 * math.pi * turns * t, phi1,
                          level + wobble * math.sin(2 * math.pi * t)] for t in s])

    def velocity(s):
        return np.array([[2 * math.pi * turns, 0.0,
                          2 * math.pi * wobble * math.cos(2 * math.pi * t)] for t in s])

    cycle = Cycle(point, velocity)
    try:
        want = helpers.reference_loop_integral(_BOXED, cycle, subdivisions, nodes=16)
    except ContactKitError as exc:  # the wobble leaves the chart at some node
        with pytest.raises(type(exc)) as err:
            loop_integral(_BOXED, cycle, subdivisions, nodes=16)
        assert str(err.value) == str(exc)
        return
    got = loop_integral(_BOXED, cycle, subdivisions, nodes=16)
    assert same_bits(got.value, want[0]) and same_bits(got.refinement_error, want[1])


def test_loop_integral_raises_out_of_domain_at_the_first_node():
    cycle = Cycle(lambda s: np.array([[0.3, 1.0, 0.5 + 0.8 * math.sin(2 * math.pi * t)]
                                      for t in s]),
                  lambda s: np.array([[0.0, 0.0, 1.6 * math.pi * math.cos(2 * math.pi * t)]
                                      for t in s]))
    with pytest.raises(ContactKitError) as want:
        helpers.reference_loop_integral(_BOXED, cycle)
    with pytest.raises(type(want.value)) as got:
        loop_integral(_BOXED, cycle)
    assert str(got.value) == str(want.value)
    assert "outside domain" in str(got.value)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_action_circles_equal_the_per_node_loop(axis):
    model = primer(2, OMEGA, "2 + sin(phi2)", 0, validate=False)
    chart = model.atlas.chart("V0")
    circle = coordinate_circle(chart, axis, [0.3, 1.1, 2.0, 0.7, -1.3])
    got = loop_integral(chart, circle, subdivisions=8)
    want = helpers.reference_loop_integral(chart, circle, subdivisions=8)
    assert same_bits(got.value, want[0]) and same_bits(got.refinement_error, want[1])


# ---------------------------------------------------------------------------
# the stacked dot product


_FLOATS = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300, 3e300])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), d=st.integers(1, 9), stride=st.integers(1, 3))
def test_row_dot_equals_the_per_row_product(data, n, d, stride):
    a = np.array(data.draw(st.lists(_FLOATS, min_size=n * d, max_size=n * d))).reshape(n, d)
    wide = np.array(data.draw(st.lists(_FLOATS, min_size=n * d * stride,
                                       max_size=n * d * stride))).reshape(n, d, stride)
    b = wide[..., 0]  # a strided operand, as the Reeb column of a frame is
    with np.errstate(all="ignore"):
        got = numkernel.row_dot(a, b)
        want = [a[k] @ b[k] for k in range(n)]
    assert same_bits(got, np.array(want).reshape(n))


# ---------------------------------------------------------------------------
# validation once per command


def test_constructors_keep_their_records():
    model = primer(2, OMEGA, "2 + sin(phi2)", 0)
    assert_same_records(model.records, helpers.reference_validate_model(model))
    assert primer(2, OMEGA, "2 + sin(phi2)", 0, validate=False).records is None


def test_reduced_view_is_validated_on_first_use():
    calls = []
    real = models.validate_model

    def counting(model, **kwargs):
        calls.append(model.name)
        return real(model, **kwargs)

    with mock.patch.object(models, "validate_model", counting):
        model = primer2(2, OMEGA, "sin(phi2)")
        assert calls == ["primer2(2)"]
        reduced = model.reduced
        assert model.reduced is reduced and reduced.records is not None
        assert calls == ["primer2(2)", "primer2-reduced(2)"]
        assert primer2(1, OMEGA[:1], "sin(phi1)", validate=False).reduced.records is None


@pytest.mark.parametrize("argv", [
    ["--model", "primer2", "--n", "2", "--omega", "1,1.4142135623730951", "--f", "sin(phi2)"],
    ["--model", "primer2", "--n", "2", "--omega", "1,1.4142135623730951", "--f", "sin(phi2)",
     "--reduced"],
    ["--model", "canonical", "--n", "2"],
])
def test_check_reports_the_load_time_records(tmp_path, argv):
    out = tmp_path / "check.json"
    with mock.patch.object(models, "validate_model", wraps=models.validate_model) as spy:
        assert cli.main(["check", *argv, "--out", str(out)]) == 0
    assert spy.call_count == (2 if "--reduced" in argv else 1)
    model = cli._load_model(cli._run_config(cli.build_parser().parse_args(["check", *argv])))
    report = helpers.reference_validate_model(model, strict=False)
    checks = json.loads(out.read_text())["checks"]
    assert checks == [{"check": r.check, "subject": r.subject, "residual": float(r.residual),
                       "ok": r.ok} for r in report]
