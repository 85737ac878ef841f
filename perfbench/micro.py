"""Layer microbenchmark: the layer list of the roadmap, timed on fixed warm
inputs from primer(2) chart V0 and primer2(2) chart V2."""

from __future__ import annotations

from time import perf_counter

import numpy as np

X_V0 = np.array([0.3, 1.1, 2.0, 0.7, -1.3])
X_V2 = np.array([0.4, 2.3, 1.2, 0.8, -0.5])
BATCH_SECONDS = 0.01


def targets():
    """Per-layer metric name -> (callable, work units per call)."""
    from contactkit import numkernel
    from contactkit.bundle import classify
    from contactkit.dynamics import flow
    from contactkit.geometry import (ChartField, ContactFrame, alpha_components,
                                     contact_check, dalpha_matrix)
    from contactkit.jacobi import HamiltonianField
    from contactkit.models import primer, primer2, validate_model

    model = primer(2, (1.0, 1.41421356), "2+sin(phi2)", 0)
    v0 = model.atlas.chart("V0")
    env = v0.bindings(X_V0)
    denominator = v0.denominator
    gradient_field = ChartField(v0, denominator)
    system = np.vstack([dalpha_matrix(v0, X_V0), alpha_components(v0, X_V0)])
    rhs = np.zeros(v0.dim + 1)
    rhs[-1] = 1.0
    field = HamiltonianField(v0, model.hamiltonian.on("V0"))
    model2 = primer2(2, (1.0, 1.41421356), "sin(phi2)")
    point2 = model2.atlas.chart("V2").point(X_V2)
    start = v0.point(X_V0)
    steps = flow(model, None, start, 100.0, n_samples=2).stats
    # tolerance-limited steps: the sample grid is just the two end points
    dp5_steps = steps.accepted + steps.rejected

    return {
        "expr.eval_us": (lambda: denominator.eval(env), 1),
        "expr.gradient_us": (lambda: gradient_field.gradient(X_V0), 1),
        "geometry.dalpha_us": (lambda: dalpha_matrix(v0, X_V0), 1),
        "geometry.frame_us": (lambda: ContactFrame(v0, X_V0), 1),
        "numkernel.solve_us": (lambda: numkernel.solve(system, rhs), 1),
        "jacobi.field_us": (lambda: field(X_V0), 1),
        "geometry.contact_check_us": (lambda: contact_check(v0, X_V0), 1),
        "bundle.classify_point_us": (
            lambda: classify(model2.atlas, model2.sections, model2.r, point2), 1),
        "dynamics.step_us": (
            lambda: flow(model, None, start, 100.0, n_samples=2), dp5_steps),
        "models.validate_s": (lambda: validate_model(model), 1),
    }


def run(seconds: float) -> dict[str, dict]:
    """Round-robin batches over every target until ``seconds`` have passed
    (at least five batches each); per target the median time per unit."""
    cases = targets()
    sizes = {}
    for name, (fn, _) in cases.items():
        calls = 1
        while True:
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            if perf_counter() - t0 >= BATCH_SECONDS:
                break
            calls *= 2
        sizes[name] = calls
    samples = {name: [] for name in cases}
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or min(map(len, samples.values())) < 5:
        for name, (fn, units) in cases.items():
            calls = sizes[name]
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            samples[name].append((perf_counter() - t0) / (calls * units))
    scale = {name: 1.0 if name.endswith("_s") else 1e6 for name in cases}
    return {name: [v * scale[name] for v in values] for name, values in samples.items()}
