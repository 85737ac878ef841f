import csv
import json
import os
import subprocess
import sys
import textwrap
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from contactkit import cli
from contactkit.cli import main
from contactkit.dynamics import IntegratorError, flow
from contactkit.models import canonical

PRIMER_ARGS = ["--model", "primer", "--n", "2",
               "--omega", "1,1.4142135623730951", "--f", "2+sin(phi2)", "--k", "0"]
CHART_SWITCH_YAML = str(Path(__file__).resolve().parents[1] / "perfbench" / "chart_switch.yaml")


def read_json(path):
    return json.loads(path.read_text())


def test_check_builtin_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", *PRIMER_ARGS, "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["ok"] is True
    assert report["config"]["model"] == "primer"
    assert any(c["check"] == "cocycle" for c in report["checks"])


def test_check_canonical(tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--model", "canonical", "--n", "1",
                 "--out", str(out)]) == 0
    assert read_json(out)["ok"] is True


def test_check_corrupted_config_exits_2(tmp_path):
    config = tmp_path / "model.yaml"
    config.write_text(textwrap.dedent("""
        charts:
          - id: U
            coordinates: [q0, q1, p1]
            alpha: ["1", "0", "0"]
        sections:
          - name: one
            local: {U: "1"}
        r: 0
        hamiltonian: one
    """))
    out = tmp_path / "report.json"
    code = main(["check", "--config", str(config), "--out", str(out)])
    assert code == 2
    report = read_json(out)
    assert report["ok"] is False
    assert report["failure"]["check"] == "contact-nondegeneracy"


def test_flow_csv_and_sidecar(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["flow", *PRIMER_ARGS, "--chart", "V0",
                 "--x0", "0,0,1,0.7,-1.3", "--t-final", "10",
                 "--samples", "21", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 21
    assert list(rows[0]) == ["t", "chart", "phi0", "phi1", "phi2", "J1", "J2"]
    assert float(rows[-1]["t"]) == pytest.approx(10.0)
    assert float(rows[-1]["phi0"]) == pytest.approx(10.0 % (2 * np.pi), abs=1e-9)
    events = read_json(tmp_path / "traj.events.json")
    assert events["chart_switches"] == []
    assert events["controller"]["accepted"] > 0
    assert events["config"]["t_final"] == 10.0


@pytest.mark.parametrize("command", ["check", "flow", "classify", "freq", "actions"])
def test_every_json_report_embeds_the_run_config(tmp_path, command):
    out = tmp_path / "report.json"
    start = [] if command in ("check", "classify") else ["--x0", "0,0,1,0.7,-1.3"]
    # check writes JSON by default: its format is resolved, not given
    fmt = [] if command == "check" else ["--format", "json"]
    assert main([command, *PRIMER_ARGS, "--chart", "V0", *start, "--t-final", "2",
                 "--samples", "11", "--out", str(out), *fmt]) == 0
    assert read_json(out)["config"] == {
        "command": command, "model": "primer", "config": None, "n": 2,
        "omega": [1.0, 1.4142135623730951], "f": "2+sin(phi2)", "k": 0, "reduced": False,
        "chart": "V0", "x0": [0.0, 0.0, 1.0, 0.7, -1.3] if start else None,
        "t_final": 2.0, "rtol": 1e-10, "atol": 1e-10, "strata_tol": 1e-8, "rank_tol": 1e-9,
        "switch_tol": 1e-3, "samples": 11, "grid": 0, "subdivisions": 8, "seed": 0,
        "out": str(out), "format": "json"}


def test_flow_requires_start_point():
    assert main(["flow", *PRIMER_ARGS]) == 2


@pytest.mark.parametrize("bad", [
    ["--rtol", "0"],
    ["--k", "7"],
    ["--omega", "1"],
    ["--t-final", "0"],
    ["--t-final", "nan"],
    ["--t-final", "inf"],
    ["--t-final=-inf"],
])
def test_bad_usage_exits_2_with_one_line(bad, capsys, tmp_path):
    args = ["--model", "primer", "--n", "2", "--chart", "V0",
            "--x0", "0,0,1,0.7,-1.3", "--t-final", "1", "--samples", "3"]
    assert main(["flow", *args, *bad, "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [
    ["classify", "--samples", "-1"],
    ["classify", "--grid", "-2"],
    ["actions", "--subdivisions", "0"],
    ["flow", "--samples", "-5"],
])
def test_bad_integer_arguments_exit_2_with_one_line(bad, capsys, tmp_path):
    args = [*bad, *PRIMER_ARGS, "--chart", "V0", "--x0", "0,0,1,0.7,-1.3",
            "--t-final", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["flow", "freq", "actions"])
@pytest.mark.parametrize("x0", ["0,0,1", "0,0,1,0.7,-1.3,2"])
def test_start_point_of_another_dimension_exits_2_with_one_line(command, x0, capsys,
                                                               tmp_path):
    out = tmp_path / "out"
    assert main([command, *PRIMER_ARGS, "--chart", "V0", "--x0", x0, "--t-final", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --x0 needs 5 coordinates on chart 'V0'\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["flow", "freq", "actions"])
@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_a_non_finite_start_angle_exits_2_with_one_line(command, angle, capsys, tmp_path):
    out = tmp_path / "out"
    assert main([command, *PRIMER_ARGS, "--chart", "V0", "--x0", f"{angle},0,1,0.7,-1.3",
                 "--t-final", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: point [{angle}, 0.0, 1.0, 0.7, -1.3] "
                                       "outside domain of chart 'V0'\n")
    assert not out.exists()


def test_canonical_hamiltonian_of_a_non_coordinate_exits_2_with_one_line(capsys, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["flow", "--model", "canonical", "--n", "1", "--f", "q1 * energy",
                 "--x0", "0,0,0", "--t-final", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Hamiltonian expression uses names absent")
    assert err.count("\n") == 1
    assert not out.exists()


def test_infinite_trig_argument_exits_2_with_one_line(capsys, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["flow", "--model", "canonical", "--n", "1", "--f", "sin(1e999)",
                 "--x0", "0,0,0", "--t-final", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sin of an infinite value") and err.count("\n") == 1
    assert not out.exists()


def test_non_finite_hamiltonian_at_the_start_exits_2_with_one_line(capsys, tmp_path):
    out = tmp_path / "t.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["flow", "--model", "canonical", "--n", "1", "--f", "1e999",
                     "--x0", "0,0,0", "--t-final", "1", "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_division_derivative_underflow_exits_2_with_one_line(capsys, tmp_path):
    # 1/q1 is finite at q1 = 1e-200, but its slope needs q1^2, which underflows
    out = tmp_path / "t.csv"
    assert main(["flow", "--model", "canonical", "--n", "1", "--f", "1/q1",
                 "--x0", "0,1e-200,0", "--t-final", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: derivative of a division underflows at offset 0 in '1/q1'\n"
    assert not out.exists()


def test_classify_grid_cap_refuses_before_allocating(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep grid was allocated")

    monkeypatch.setattr(np, "meshgrid", refuse)
    # 100000 points per axis on five axes asks for 10^25 points
    assert main(["classify", *PRIMER_ARGS, "--grid", "100000",
                 "--out", str(tmp_path / "grid.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --grid") and err.count("\n") == 1


def test_flow_integrator_failure_exits_3(tmp_path):
    config = tmp_path / "box.yaml"
    config.write_text(textwrap.dedent("""
        charts:
          - id: U
            coordinates: [q0, q1, p1]
            alpha: ["1", "p1", "0"]
            domain: {q1: [-2, 2]}
        sections:
          - name: drive
            local: {U: "p1"}
        r: 0
        hamiltonian: drive
    """))
    code = main(["flow", "--config", str(config), "--x0", "0,0,1",
                 "--t-final", "5", "--out", str(tmp_path / "t.csv")])
    assert code == 3


def test_an_exhausted_step_budget_exits_3(tmp_path, capsys, monkeypatch):
    model = canonical(1)
    x0 = model.atlas.chart("canonical").point(np.zeros(3))
    with pytest.raises(IntegratorError, match="step budget of 3 exhausted"):
        flow(model, "p1", x0, 100.0, max_steps=3)
    monkeypatch.setattr(cli, "flow", partial(flow, max_steps=3))
    code = main(["flow", "--model", "canonical", "--n", "1", "--f", "p1",
                 "--x0", "0,0,0", "--t-final", "100", "--out", str(tmp_path / "t.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("integrator failure: step budget of 3 exhausted") and err.count("\n") == 1


def test_classify_csv_summary_and_determinism(tmp_path):
    args = ["classify", "--model", "primer2", "--n", "2",
            "--omega", "1,1.4142135623730951", "--f", "sin(phi2)", "--reduced",
            "--samples", "64", "--seed", "7"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
    rows = list(csv.DictReader(out_a.open()))
    assert len(rows) == 64
    assert {"stratum", "dimE", "dimF"} <= set(rows[0])
    summary = read_json(tmp_path / "a.summary.json")
    assert summary["counts"]["regular_transverse"] == 64
    assert summary["config"]["seed"] == 7


def test_classify_seed_reports_are_byte_identical(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["classify", *PRIMER_ARGS, "--chart", "V1", "--samples", "40",
            "--seed", "7", "--out", str(out)]
    reports = []
    for _ in range(2):
        assert main(args) == 0
        reports.append((out.read_bytes(), (tmp_path / "sweep.summary.json").read_bytes()))
    assert reports[0] == reports[1]


def test_classify_grid_hits_zero_locus(tmp_path):
    # odd grid size puts p = 0 on the grid; the angle grid contains 0
    out = tmp_path / "grid.csv"
    assert main(["classify", "--model", "primer2", "--n", "1",
                 "--omega", "1", "--f", "sin(phi1)", "--reduced",
                 "--grid", "5", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    flagged = [r for r in rows if r["stratum"] == "zero_locus"]
    assert len(flagged) == 5      # phi0 free, phi1 = 0, p0 = 0
    for r in flagged:
        assert abs(float(r["p0"])) < 1e-12
        assert min(abs(np.sin(float(r["phi1"]))), 1.0) < 1e-12


def test_freq_report(tmp_path):
    out = tmp_path / "freq.json"
    code = main(["freq", *PRIMER_ARGS, "--chart", "V0",
                 "--x0", "0,0,1,0.7,-1.3", "--t-final", "50",
                 "--samples", "1001", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["frequencies"]["phi0"] == pytest.approx(1.0, abs=1e-8)
    assert report["frequencies"]["phi1"] == pytest.approx(np.sqrt(2), abs=1e-8)
    assert report["frequencies"]["phi2"] == pytest.approx(0.0, abs=1e-8)
    assert max(report["residuals"].values()) < 1e-8
    assert report["config"]["command"] == "freq"


def test_actions_report(tmp_path):
    out = tmp_path / "actions.json"
    code = main(["actions", *PRIMER_ARGS, "--chart", "V0",
                 "--x0", "0.3,1.1,2.0,0.8,-0.6", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["actions"]["phi0"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert report["actions"]["phi1"]["value"] == pytest.approx(0.8, abs=1e-12)
    assert report["actions"]["phi2"]["value"] == pytest.approx(-0.6, abs=1e-12)
    assert all(v["refinement_error"] < 1e-12 for v in report["actions"].values())


def test_flow_json_format(tmp_path):
    out = tmp_path / "traj.json"
    code = main(["flow", "--model", "canonical", "--n", "1", "--f", "p1",
                 "--x0", "0,0,0.5", "--t-final", "2", "--samples", "5",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["header"][:2] == ["t", "chart"]
    assert len(payload["rows"]) == 5
    # Hamiltonian p1 translates q1 at unit rate
    assert payload["rows"][-1][3] == pytest.approx(2.0, abs=1e-10)


def test_canonical_flow_with_expression_hamiltonian(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["flow", "--model", "canonical", "--n", "1",
                 "--f", "(p1^2 + q1^2)/2", "--x0", "0,0,1",
                 "--t-final", "3.14159", "--samples", "8", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert float(rows[-1]["q1"]) == pytest.approx(np.sin(3.14159), abs=1e-6)


def test_classify_canonical_trivial_family(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["classify", "--model", "canonical", "--n", "1",
                 "--samples", "50", "--seed", "3", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert all(r["stratum"] == "regular_transverse" for r in rows)
    assert all(r["dimE"] == "1" and r["dimF"] == "1" for r in rows)


def test_classify_positive_profile_has_no_zero_locus_rows(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["classify", "--model", "primer", "--n", "2",
                 "--omega", "1,1.4142135623730951", "--f", "2+sin(phi2)",
                 "--k", "2", "--chart", "V0", "--samples", "200", "--seed", "5",
                 "--out", str(out)]) == 0
    summary = read_json(tmp_path / "p.summary.json")
    assert summary["counts"]["zero_locus"] == 0


def test_classify_zero_samples_writes_header_only(tmp_path):
    out = tmp_path / "none.csv"
    assert main(["classify", *PRIMER_ARGS, "--chart", "V1", "--samples", "0",
                 "--out", str(out)]) == 0
    assert out.read_text() == "phi0,phi1,phi2,J0,J2,stratum,dimE,dimF\n"
    summary = read_json(tmp_path / "none.summary.json")
    assert summary["points"] == 0
    assert summary["counts"] == {"regular_transverse": 0, "sigma": 0,
                                 "zero_locus": 0, "unclassified": 0}


def _write_config(tmp_path, config) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    return str(path)


def _per_point_sweep(argv):
    """Reports and exit line of the per-point loop the stacked sweep
    replaced: one classify per row, each point built by ``chart.point``."""
    from contactkit import cli
    from contactkit.bundle import classify
    from contactkit.errors import ContactKitError
    cfg = cli._run_config(cli.build_parser().parse_args(argv))
    model = cli._load_model(cfg)
    chart, coords = cli._sweep_points(cfg, model)
    reports = []
    for row in coords:
        try:
            reports.append(classify(model.atlas, model.sections, model.r, chart.point(row),
                                    strata_tol=cfg.strata_tol, rank_tol=cfg.rank_tol))
        except ContactKitError as exc:
            return reports, f"error: {exc}\n"
    return reports, None


@pytest.mark.parametrize("model", ["primer2", "chart-switch"])
def test_classify_grid_of_one_point(tmp_path, model):
    from helpers import CHART_SWITCH_CONFIG
    args = (["--model", "primer2", "--n", "2", "--omega", "1,1.4142135623730951",
             "--f", "sin(phi2)"] if model == "primer2"
            else ["--config", _write_config(tmp_path, CHART_SWITCH_CONFIG)])
    argv = ["classify", *args, "--grid", "1"]
    out = tmp_path / "one.csv"
    assert main([*argv, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    (report,), failure = _per_point_sweep(argv)
    assert failure is None and len(rows) == 1
    assert (rows[0]["stratum"], rows[0]["dimE"], rows[0]["dimF"]) == \
        (report.stratum.value, str(report.dimE), str(report.dimF))
    assert sum(read_json(tmp_path / "one.summary.json")["counts"].values()) == 1


def _degenerate_config(section: str) -> dict:
    # alpha = x^3 dy + dz is contact off the plane x = 0, which the 5-point
    # grid over the sample box hits and the validation samples miss
    return {
        "charts": [{"id": "U", "coordinates": ["x", "y", "J"],
                    "alpha": ["0", "x^3", "1"],
                    "sample_box": {"x": [-2, 2], "y": [-1, 1], "J": [-1, 1]}}],
        "sections": [{"name": "s", "local": {"U": section}}],
        "r": 0,
        "hamiltonian": "s",
    }


@pytest.mark.parametrize("section, message", [
    ("1 + y^2", "error: linear system of size 4 is singular"),
    # J = 0 comes before x = 0 in row order, where only the frame fails
    ("log(abs(J)) + 2", "error: log of a non-positive value at offset 0 in 'log(abs(J))'"),
    ("sqrt(J + 1) * y + 1", "error: sqrt derivative at zero"),
])
def test_classify_error_is_the_first_failing_rows(tmp_path, capsys, section, message):
    argv = ["classify", "--config", _write_config(tmp_path, _degenerate_config(section)),
            "--grid", "5"]
    out = tmp_path / "sweep.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    _, expected = _per_point_sweep(argv)
    assert err == expected and err.startswith(message)
    assert not out.exists()


def test_classify_csv_streams_the_rows_of_the_sweep(tmp_path, monkeypatch):
    from contactkit import cli
    from contactkit.bundle import classify
    from contactkit.geometry import Point
    argv = ["classify", "--model", "primer2", "--n", "2", "--omega", "1,1.4142135623730951",
            "--f", "sin(phi2)", "--chart", "V2", "--grid", "3"]
    monkeypatch.setattr(cli, "CSV_BLOCK", 7)  # 243 rows: many blocks, the last one short
    out = tmp_path / "sweep.csv"
    assert main([*argv, "--out", str(out)]) == 0
    cfg = cli._run_config(cli.build_parser().parse_args(argv))
    model = cli._load_model(cfg)
    chart, coords = cli._sweep_points(cfg, model)
    strata = classify(model.atlas, model.sections, model.r, Point(chart.id, chart.wrap(coords)))
    lines = [",".join(chart.names) + ",stratum,dimE,dimF"]
    for k, row in enumerate(coords):
        report = strata[k]
        lines.append(",".join(f"{float(v):.17g}" for v in row)
                     + f",{report.stratum.value},{report.dimE},{report.dimF}")
    assert out.read_text() == "\n".join(lines) + "\n"


def test_a_table_row_is_the_per_cell_format(tmp_path):
    rows = [("a", -0.0, 5e-324, 1e308, np.inf, np.nan, 7, np.float64(0.1)),
            ("bc", 0.0, -5e-324, -1e308, -np.inf, 2.5, 2 ** 60 + 1, np.float64(-1 / 3)),
            ("", 1e-300, 1.0, 123456789.0, 1e22, -0.5, -3, np.float64(np.pi))]
    header = [f"c{j}" for j in range(len(rows[0]))]
    out = tmp_path / "table.csv"
    cfg = cli.build_parser().parse_args(["flow", "--out", str(out)])
    cli._write_table(cfg, header, iter(rows), {"rows": len(rows)}, ".side.json")
    want = [",".join(header)] + [
        ",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row) for row in rows]
    assert out.read_text() == "\n".join(want) + "\n"
    assert read_json(tmp_path / "table.side.json") == {"rows": 3}


def test_overlap_samples_need_one_value_per_coordinate(tmp_path):
    from helpers import CHART_SWITCH_CONFIG
    config = json.loads(json.dumps(CHART_SWITCH_CONFIG))
    config["overlaps"][0]["samples"] = [[0.1, 0.2]]
    out = tmp_path / "check.json"
    assert main(["check", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 2
    assert read_json(out)["failure"]["subject"].startswith("config error at $.overlaps[0].samples")


@pytest.mark.parametrize("where, value, path", [
    (("charts", 0, "domain"), {"J1": ["abc", 1]}, "$.charts[0].domain.J1"),
    (("charts", 0, "domain"), {"J1": [0, [1]]}, "$.charts[0].domain.J1"),
    (("charts", 1, "sample_box"), {"J0": ["abc", 1]}, "$.charts[1].sample_box.J0"),
    (("charts", 1, "sample_box"), {"J0": [0, [1]]}, "$.charts[1].sample_box.J0"),
    (("charts", 0, "sample_box"), {"J1": [None, 1]}, "$.charts[0].sample_box.J1"),
    (("hamiltonian",), {}, "$.hamiltonian"),
])
def test_a_malformed_field_is_a_config_error_at_its_path(tmp_path, where, value, path):
    from helpers import CHART_SWITCH_CONFIG
    config = json.loads(json.dumps(CHART_SWITCH_CONFIG))
    parent = config
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    out = tmp_path / "check.json"
    assert main(["check", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 2
    assert read_json(out)["failure"]["subject"].startswith(f"config error at {path}: ")


@pytest.mark.parametrize("where, value, path", [
    ("sample_box", {"K": [0, 1]}, "$.charts[0].sample_box"),
    ("sample_box", {"J1": [1, -1]}, "$.charts[0].sample_box.J1"),
    ("domain", {"J1": ["nan", 1.0e6]}, "$.charts[0].domain.J1"),
    ("domain", {"J1": [1.0e6, -1.0e6]}, "$.charts[0].domain.J1"),
], ids=["unknown-box-key", "reversed-box", "nan-domain", "reversed-domain"])
def test_a_bad_box_or_domain_is_a_config_error_at_its_path(tmp_path, where, value, path):
    from helpers import CHART_SWITCH_CONFIG
    config = json.loads(json.dumps(CHART_SWITCH_CONFIG))
    config["charts"][0][where] = value
    out = tmp_path / "check.json"
    assert main(["check", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 2
    assert read_json(out)["failure"]["subject"].startswith(f"config error at {path}: ")


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_an_unparsable_document_is_a_config_error_at_its_path(tmp_path, monkeypatch, libyaml):
    import yaml
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path, out = tmp_path / "model.yaml", tmp_path / "check.json"
    path.write_text("charts: [")
    assert main(["check", "--config", str(path), "--out", str(out)]) == 2
    report = read_json(out)
    assert not report["ok"] and report["failure"]["check"] == "load"
    assert report["failure"]["subject"].startswith(f"config error at {path}: invalid document")


def test_a_sample_box_leaves_the_other_coordinates_at_the_chart_default(tmp_path):
    """A coordinate the sample box omits samples the box the same chart
    samples without one: here J1 in (0.05, 2), not (-2, 2)."""
    from helpers import CHART_SWITCH_CONFIG
    from contactkit.models import from_config
    config = json.loads(json.dumps(CHART_SWITCH_CONFIG))
    config["charts"][0]["domain"] = {"J1": [0.05, 5]}
    without = from_config(config).atlas.chart("V0").effective_sample_box()
    config["charts"][0]["sample_box"] = {"phi0": [0, 1]}
    chart = from_config(config).atlas.chart("V0")
    assert chart.sample_box == ((0.0, 1.0), without[1], without[2]) == (
        (0.0, 1.0), (0.0, 2.0 * np.pi), (0.05, 2.0))
    out = tmp_path / "check.json"
    assert main(["check", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 0


def test_a_one_sided_domain_samples_a_finite_box(tmp_path):
    """J1 < -5 on V0: the default box of J1 is (-9, -5), so the overlap
    samples are found and every command runs clean of numpy warnings."""
    from helpers import CHART_SWITCH_CONFIG
    from contactkit.models import from_config
    config = json.loads(json.dumps(CHART_SWITCH_CONFIG))
    config["charts"][0]["domain"] = {"J1": [None, -5]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert from_config(config).atlas.chart("V0").effective_sample_box()[2] == (-9.0, -5.0)
        path = _write_config(tmp_path, config)
        out = tmp_path / "check.json"
        assert main(["check", "--config", path, "--out", str(out)]) == 0
        assert read_json(out)["ok"] is True
        assert main(["classify", "--config", path, "--chart", "V0", "--samples", "50",
                     "--seed", "1", "--out", str(tmp_path / "classify.csv")]) == 0
        assert main(["flow", "--config", path, "--chart", "V0", "--x0", "0.3,1.5,-6",
                     "--t-final", "5", "--samples", "11",
                     "--out", str(tmp_path / "flow.csv")]) == 0


def test_a_grid_reaching_an_open_domain_bound_stays_inside(tmp_path):
    """The sample box of V0 is its domain J1 in (-1.5, 1.5): the grid's end
    points move one ulp inside, every other point stays."""
    from helpers import CHART_SWITCH_CONFIG
    config = json.loads(json.dumps(CHART_SWITCH_CONFIG))
    config["charts"][0]["domain"] = {"J1": [-1.5, 1.5]}
    out = tmp_path / "sweep.csv"
    assert main(["classify", "--config", _write_config(tmp_path, config), "--chart", "V0",
                 "--grid", "3", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    j1 = sorted({float(row["J1"]) for row in rows})
    assert len(rows) == 27
    assert j1 == [np.nextafter(-1.5, 0.0), 0.0, np.nextafter(1.5, 0.0)]


@pytest.mark.parametrize("command", ["check", "freq", "actions"])
def test_a_json_only_command_refuses_csv(command, capsys, tmp_path):
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, *PRIMER_ARGS, "--chart", "V0", "--x0", "0,0,1,0.7,-1.3",
              "--t-final", "1", "--format", "csv", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    PRIMER_ARGS,
    ["--model", "canonical"],
    ["--config", CHART_SWITCH_YAML],
    ["--model", "primer2", "--config", CHART_SWITCH_YAML],
])
def test_reduced_without_primer2_exits_2_with_one_line(model, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", *model, "--reduced", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --reduced") and err.count("\n") == 1
    assert not out.exists()


def test_a_built_in_model_command_loads_no_config_library(tmp_path):
    # fresh interpreters: this one has loaded yaml and jsonschema for other tests;
    # a config model needs yaml, and jsonschema is a test-only package
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for model, loaded in [(PRIMER_ARGS, []), (["--config", CHART_SWITCH_YAML], ["yaml"])]:
        script = textwrap.dedent(f"""
            import sys
            import contactkit
            from contactkit import cli
            code = cli.main(["check", *{model!r}, "--out", {str(tmp_path / "report.json")!r}])
            print(code, sorted({{name.split(".")[0] for name in sys.modules}}
                               & {{"yaml", "jsonschema"}}))
        """)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, check=True)
        assert result.stdout == f"0 {loaded}\n"
