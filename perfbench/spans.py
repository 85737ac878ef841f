"""Spans and counts at contactkit's layer boundaries, recorded from outside.

:class:`Tracer` replaces each public layer function by a wrapper under the
name its caller looks it up by: ``dynamics`` and ``bundle`` bind
``frame_at`` and ``_field_components`` into their own namespaces, ``cli``
binds the functions it calls, while ``numkernel`` functions and the
methods of ``Expression``, ``ChartField`` and ``ContactFrame`` are looked up
on their module or class at call time.  A span is (name, start, end,
parent); spans stay in compact arrays until the run ends.  Spans nest only
while one thread runs contactkit at a time, so the traced pass runs with a
single classify worker while the main thread waits on it.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module or "module.Class", attribute, span name); the span name's first
# part is the layer the time and the count belong to
PATCHES = [
    ("cli", "main", "cli.main"),
    ("cli", "primer", "models.primer"),
    ("cli", "primer2", "models.primer2"),
    ("cli", "from_config", "models.from_config"),
    ("cli", "validate_model", "models.validate_model"),
    ("models", "validate_model", "models.validate_model"),
    ("cli", "flow", "dynamics.flow"),
    ("cli", "frequencies", "dynamics.frequencies"),
    ("cli", "loop_integral", "dynamics.loop_integral"),
    ("cli", "classify", "bundle.classify"),
    ("bundle", "momentum_rank", "bundle.momentum_rank"),
    ("bundle.Atlas", "map_coords", "bundle.map_coords"),
    ("models", "validate_atlas", "bundle.validate_atlas"),
    ("models", "validate_section", "bundle.validate_section"),
    ("dynamics", "frame_at", "geometry.frame_at"),
    ("bundle", "frame_at", "geometry.frame_at"),
    ("jacobi", "frame_at", "geometry.frame_at"),
    ("geometry.ContactFrame", "__init__", "geometry.ContactFrame"),
    ("geometry.ContactFrame", "sharp", "geometry.sharp"),
    ("geometry", "dalpha_matrix", "geometry.dalpha_matrix"),
    ("models", "contact_check", "geometry.contact_check"),
    ("geometry.ChartField", "__call__", "geometry.ChartField.__call__"),
    ("geometry.ChartField", "gradient", "geometry.ChartField.gradient"),
    ("dynamics", "_field_components", "jacobi.field"),
    ("bundle", "_field_components", "jacobi.field"),
    ("jacobi", "_field_components", "jacobi.field"),
    ("models", "bracket", "jacobi.bracket"),
    ("numkernel", "solve", "numkernel.solve"),
    ("numkernel", "numerical_rank", "numkernel.numerical_rank"),
    ("numkernel", "grad", "numkernel.grad"),
    ("expr.Expression", "eval", "expr.eval"),
    ("expr.Expression", "eval_dual", "expr.eval_dual"),
]

LAYERS = ("cli", "models", "dynamics", "bundle", "geometry", "jacobi",
          "numkernel", "expr")


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"contactkit.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.max_solve_residual = 0.0
        self._stack = [-1]
        self._saved = []

    def install(self) -> None:
        for path, attr, name in PATCHES:
            owner = _owner(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        solve = name == "numkernel.solve"

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if solve and result[1] > self.max_solve_residual:
                self.max_solve_residual = result[1]
            return result

        return traced

    def calls(self) -> Counter:
        counts = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                             minlength=len(self.names))
        return Counter({name: int(c) for name, c in zip(self.names, counts)})

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        start = np.frombuffer(self.start)
        duration = np.frombuffer(self.end) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        own = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                          weights=duration - covered, minlength=len(self.names))
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in zip(self.names, own):
            out[name.split(".")[0]] += float(seconds)
        return out
