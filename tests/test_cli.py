import csv
import json
import textwrap

import numpy as np
import pytest

from contactkit.cli import main

PRIMER_ARGS = ["--model", "primer", "--n", "2",
               "--omega", "1,1.4142135623730951", "--f", "2+sin(phi2)", "--k", "0"]


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


def test_flow_requires_start_point():
    assert main(["flow", *PRIMER_ARGS]) == 2


@pytest.mark.parametrize("bad", [
    ["--rtol", "0"],
    ["--k", "7"],
    ["--omega", "1"],
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


def test_infinite_trig_argument_exits_2_with_one_line(capsys, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["flow", "--model", "canonical", "--n", "1", "--f", "sin(1e999)",
                 "--x0", "0,0,0", "--t-final", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sin of an infinite value") and err.count("\n") == 1
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


def test_classify_seed_reports_are_byte_identical(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    args = ["classify", *PRIMER_ARGS, "--chart", "V1", "--samples", "40",
            "--seed", "7", "--out", str(out)]
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CONTACTKIT_THREADS", threads)
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


def test_classify_positive_profile_has_no_zero_locus_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("CONTACTKIT_THREADS", "2")
    out = tmp_path / "p.csv"
    assert main(["classify", "--model", "primer", "--n", "2",
                 "--omega", "1,1.4142135623730951", "--f", "2+sin(phi2)",
                 "--k", "2", "--chart", "V0", "--samples", "200", "--seed", "5",
                 "--out", str(out)]) == 0
    summary = read_json(tmp_path / "p.summary.json")
    assert summary["counts"]["zero_locus"] == 0
