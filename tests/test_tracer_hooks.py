"""The benchmark tracer (perfbench/spans.py) still finds every name it hooks."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hook_points_exist_and_are_restored():
    spans = _load_spans()
    patched = []

    class Recording(spans.Tracer):
        def patch(self, owner, attr, key, counter=None):
            patched.append((owner, attr, getattr(owner, attr)))
            super().patch(owner, attr, key, counter)

    tracer = Recording()
    try:
        # A hooked name the package no longer has raises here.
        spans.install(tracer)
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
