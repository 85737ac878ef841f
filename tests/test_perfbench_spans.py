"""The benchmark's span table must name attributes that exist, so a refactor
that drops or moves a traced function fails here rather than in a traced
benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_patch_resolves():
    spans = _load_spans()
    missing = [f"{path}.{attr}" for path, attr, _ in spans.PATCHES
               if not callable(spans._owner(path).__dict__.get(attr))]
    assert not missing
