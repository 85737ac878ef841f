"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
Tolerances are pinned in the assertions."""

import textwrap
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from contactkit import expr
from contactkit.bundle import (Overlap, Atlas, Stratum, classify,
                               momentum, rescale, section_field, section_ratio,
                               validate_atlas, validate_section)
from contactkit.dynamics import coordinate_circle, drift, flow, frequencies, loop_integral
from contactkit.expr import parse
from contactkit.geometry import alpha_components, reeb_at
from contactkit.jacobi import bracket, ham_field, independence, iso_residual
from contactkit.models import (ValidationError, canonical, from_config, primer,
                               primer2)
from helpers import canonical_chart, dissipative_oracle, random_polynomial

OMEGA = (1.0, np.sqrt(2.0))
PROFILE = "2 + sin(phi2)"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {label}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {label}: PASS")


def random_canonical_points(rng, dim, count, scale=1.2):
    return rng.uniform(-scale, scale, size=(count, dim))


def test_c01_bracket_axioms():
    with criterion("1. bracket axioms on canonical(2)"):
        model = canonical(2)
        chart = model.atlas.chart("canonical")
        rng = np.random.default_rng(2024)
        triples = [tuple(random_polynomial(rng, chart.names, terms=3)
                         for _ in range(3)) for _ in range(50)]
        points = random_canonical_points(rng, 5, 50)

        def check_triple(args):
            f, g, h = args
            worst_anti = worst_jacobi = worst_generating = 0.0
            for x in points:
                anti = abs(bracket(chart, f, g, x) + bracket(chart, g, f, x))
                worst_anti = max(worst_anti, anti)
                value = f.eval(chart.bindings(x))
                field = ham_field(chart, f, x).components
                generating = abs(alpha_components(chart, x) @ field - value)
                worst_generating = max(worst_generating, generating)

                def nest(a, b, c):
                    return bracket(chart, a, lambda y: bracket(chart, b, c, y), x)
                jac = abs(nest(f, g, h) + nest(g, h, f) + nest(h, f, g))
                worst_jacobi = max(worst_jacobi, jac)
            return worst_anti, worst_jacobi, worst_generating

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(check_triple, triples))
        worst_anti = max(r[0] for r in results)
        worst_jacobi = max(r[1] for r in results)
        worst_generating = max(r[2] for r in results)
        print(f"  antisymmetry {worst_anti:.2e}, jacobi {worst_jacobi:.2e}, "
              f"generating {worst_generating:.2e}")
        assert worst_anti < 1e-10
        assert worst_jacobi < 1e-6
        assert worst_generating < 1e-10


def test_c02_field_isomorphism():
    with criterion("2. bracket/commutator isomorphism"):
        model = canonical(2)
        chart = model.atlas.chart("canonical")
        rng = np.random.default_rng(2025)
        worst = 0.0
        for _ in range(20):
            f = random_polynomial(rng, chart.names, terms=3)
            g = random_polynomial(rng, chart.names, terms=3)
            for x in random_canonical_points(rng, 5, 3):
                worst = max(worst, iso_residual(chart, f, g, x))
        print(f"  worst residual {worst:.2e}")
        assert worst < 1e-6


def test_c03_dissipative_equations():
    with criterion("3. dissipative flow equations"):
        model = canonical(2)
        chart = model.atlas.chart("canonical")
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(20):
            f = random_polynomial(rng, chart.names)
            for x in random_canonical_points(rng, 5, 20):
                dev = np.max(np.abs(ham_field(chart, f, x).components
                                    - dissipative_oracle(f, chart, x)))
                worst = max(worst, dev)
        print(f"  worst deviation {worst:.2e}")
        assert worst < 1e-12


def test_c04_atlas_identities():
    with criterion("4. atlas gluing identities at 100 overlap samples"):
        model = primer(2, OMEGA, PROFILE, k=0, samples_per_overlap=100)
        report = validate_atlas(model.atlas, form_tol=1e-10, cocycle_tol=1e-10,
                                roundtrip_tol=1e-10)
        assert report.ok
        worst = max(report.worst("cocycle"), report.worst("form-compatibility"))
        for s in model.sections:
            section_report = validate_section(model.atlas, s, tol=1e-10)
            assert section_report.ok
            worst = max(worst, section_report.worst("section-compatibility"))
        print(f"  worst identity residual {worst:.2e}")
        assert worst < 1e-10


def test_c05_flow_fibers_frequencies():
    with criterion("5. invariants and frequencies along the flow"):
        model = primer(2, OMEGA, PROFILE, k=0)
        chart = model.atlas.chart("V0")
        x0 = chart.point(np.array([0.0, 0.0, 1.0, 0.7, -1.3]))
        traj = flow(model, None, x0, 100.0, rtol=1e-10, atol=1e-10,
                    n_samples=2001)

        quantities = {f"{name}/s0": section_ratio(model.atlas,
                                                  model.section(name),
                                                  model.section("s0"))
                      for name in ("s1", "s2", "f*s0")}
        drifts = drift(traj, quantities)
        worst_ratio = max(r.max_drift for r in drifts.values())

        start = momentum(model.atlas, model.sections, traj.points[0])
        worst_momentum = max(
            np.max(np.abs(momentum(model.atlas, model.sections, p).homogeneous
                          - start.homogeneous))
            for p in traj.points)

        fit = frequencies(traj, [0, 1, 2], model.atlas)
        freq_err = np.max(np.abs(fit.omegas - np.array([1.0, np.sqrt(2), 0.0])))
        print(f"  ratio drift {worst_ratio:.2e}, momentum drift "
              f"{worst_momentum:.2e}, frequency error {freq_err:.2e}")
        assert worst_ratio < 1e-6
        assert worst_momentum < 1e-6
        assert freq_err < 1e-6
        assert np.max(fit.residuals) < 1e-6


def test_c06_stratification():
    with criterion("6. stratification of the projective model"):
        model = primer(2, OMEGA, PROFILE, k=2)
        chart = model.atlas.chart("V2")
        rng = np.random.default_rng(2027)

        def classify_coords(coords):
            return classify(model.atlas, model.sections, model.r,
                            chart.point(coords))

        # constructed points on the singular set: all designated ratios zero
        sigma_reports = []
        for _ in range(200):
            coords = np.concatenate([rng.uniform(0, 2 * np.pi, 3), [0.0, 0.0]])
            sigma_reports.append(classify_coords(coords))
        assert all(r.stratum is Stratum.SIGMA for r in sigma_reports)
        assert all((r.dimE, r.dimF) == (3, 2) for r in sigma_reports)

        # random sample: everything away from the singular band is regular
        samples = np.column_stack([rng.uniform(0, 2 * np.pi, (10_000, 3)),
                                   rng.uniform(-3, 3, (10_000, 2))])
        band = 1e-8
        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(pool.map(classify_coords, samples))
        mis = 0
        for coords, rep in zip(samples, reports):
            inside_band = np.max(np.abs(coords[3:])) <= band
            if inside_band:
                continue
            if rep.stratum is not Stratum.REGULAR_TRANSVERSE or \
                    (rep.dimE, rep.dimF) != (4, 2):
                mis += 1
        print(f"  sigma points {len(sigma_reports)}, sample size "
              f"{len(reports)}, misclassifications {mis}")
        assert mis == 0


def test_c07_zero_locus():
    with criterion("7. zero locus: classification, trapping, frequencies"):
        model = primer2(2, OMEGA, "sin(phi2)")
        red = model.reduced
        chart = red.atlas.chart("N")
        rng = np.random.default_rng(2028)

        # grid containing the locus exactly; compare with direct membership
        angles = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
        momenta = np.linspace(-1.0, 1.0, 5)
        mismatches = 0
        flagged = 0
        for phi2 in angles:
            for p0 in momenta:
                for p1 in momenta:
                    coords = np.array([0.4, 1.1, phi2, p0, p1])
                    member = (p0 == 0.0 and p1 == 0.0
                              and min(abs(np.sin(phi2)), 1.0) < 1e-12)
                    rep = classify(red.atlas, red.sections, red.r,
                                   chart.point(coords))
                    if rep.stratum is Stratum.ZERO_LOCUS:
                        flagged += 1
                        if not member or rep.dimF != red.r:
                            mismatches += 1
                    elif member:
                        mismatches += 1
        assert flagged == 2          # phi2 in {0, pi} at p = 0
        assert mismatches == 0

        # trajectories seeded on the locus stay on it and wind linearly
        worst_escape = 0.0
        freq_err = 0.0
        for root in (0.0, np.pi):
            x0 = chart.point(np.array([rng.uniform(0, 2 * np.pi),
                                       rng.uniform(0, 2 * np.pi),
                                       root, 0.0, 0.0]))
            traj = flow(red, None, x0, 100.0, rtol=1e-10, atol=1e-10,
                        n_samples=2001)
            for p in traj.points:
                worst_escape = max(worst_escape,
                                   abs(p.coords[3]), abs(p.coords[4]),
                                   min(abs(np.sin(p.coords[2])), 1.0))
            fit = frequencies(traj, [0, 1], red.atlas)
            freq_err = max(freq_err,
                           float(np.max(np.abs(fit.omegas - np.array(OMEGA)))))
        print(f"  flagged {flagged}, escape {worst_escape:.2e}, "
              f"frequency error {freq_err:.2e}")
        assert worst_escape < 1e-6
        assert freq_err < 1e-6


def test_c08_rescaling():
    with criterion("8. rescaled form reproduces the section field"):
        model = primer(2, OMEGA, PROFILE, k=0)
        family = rescale(model.atlas, model.section("s0"))
        rng = np.random.default_rng(2029)
        worst = 0.0
        for cid in ("V1", "V2"):
            chart = model.atlas.chart(cid)
            for _ in range(20):
                coords = np.concatenate([
                    rng.uniform(0, 2 * np.pi, 3),
                    rng.uniform(0.3, 1.8, 2) * rng.choice([-1.0, 1.0], 2)])
                point = chart.point(coords)
                scaled = family.chart_at(model.atlas, point)
                z = reeb_at(scaled, point.coords).components
                v = section_field(model.atlas, model.section("s0"),
                                  point).components
                worst = max(worst, float(np.max(np.abs(z - v))))
        print(f"  worst deviation {worst:.2e}")
        assert worst < 1e-8


def test_c09_action_integrals():
    with criterion("9. loop integrals recover the fiber coordinates"):
        model = primer(2, OMEGA, PROFILE, k=0)
        chart = model.atlas.chart("V0")
        rng = np.random.default_rng(2030)
        worst_value = worst_estimate = 0.0
        for _ in range(20):
            base = np.concatenate([rng.uniform(0, 2 * np.pi, 3),
                                   rng.uniform(-2, 2, 2)])
            expected = [1.0, base[3], base[4]]
            for axis in range(3):
                result = loop_integral(chart, coordinate_circle(chart, axis, base))
                worst_value = max(worst_value,
                                  abs(result.value - expected[axis]))
                worst_estimate = max(worst_estimate, result.refinement_error)
        print(f"  worst value error {worst_value:.2e}, "
              f"worst refinement {worst_estimate:.2e}")
        assert worst_value < 1e-10
        assert worst_estimate < 1e-10


def test_c10_independence_ranks():
    with criterion("10. independence ranks of momentum integrals"):
        chart = canonical_chart(3)
        rng = np.random.default_rng(2031)
        fs = [parse("p1"), parse("p2")]
        for _ in range(100):
            x = rng.uniform(-2, 2, 7)
            report = independence(chart, x, fs)
            assert report.dim_span_with_reeb == 3
        degenerate = np.array([1.3, 0.2, -0.5, 0.8, 0.0, 0.0, 0.0])
        report = independence(chart, degenerate, [parse("q0")])
        print(f"  degenerate point: wedge rank {report.rank_wedge}, "
              f"span with reeb {report.dim_span_with_reeb}")
        assert report.rank_wedge == 1          # dq0 equals the contact form here
        assert report.dim_span_with_reeb == 1  # the field collapses onto the Reeb line


def test_c11_negative_controls(tmp_path):
    with criterion("11. corrupted inputs fail loudly"):
        base = primer(2, OMEGA, PROFILE, k=0)

        # corrupted gluing factor
        overlaps = []
        for (src, dst), ov in base.atlas.overlaps.items():
            if (src, dst) == ("V0", "V2"):
                ov = Overlap(src, dst, ov.forward,
                             expr.multiply(parse("1.001"), ov.factor), ov.samples)
            overlaps.append(ov)
        broken = Atlas(list(base.atlas.charts.values()), overlaps)
        report = validate_atlas(broken)
        assert not report.ok
        cocycle_failures = [r for r in report.failures() if r.check == "cocycle"]
        assert cocycle_failures
        assert all("V0" in r.subject and "V2" in r.subject
                   for r in cocycle_failures)

        # designated family that does not commute
        config = tmp_path / "noncommuting.yaml"
        config.write_text(textwrap.dedent("""
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
        """))
        with pytest.raises(ValidationError) as err:
            from_config(config)
        assert err.value.check == "commutation"

        # degenerate contact form
        config = tmp_path / "degenerate.yaml"
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
        with pytest.raises(ValidationError) as err:
            from_config(config)
        assert err.value.check == "contact-nondegeneracy"
        print("  all three corruptions reported by name")
