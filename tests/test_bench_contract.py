"""The benchmark's tracer replaces module bindings by name; every binding it
names must exist, or a traced benchmark run breaks."""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_trace_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_instrument", os.path.join(ROOT, "bench", "instrument.py"))
    instrument = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, instrument)
    spec.loader.exec_module(instrument)
    bindings = instrument.module_bindings()
    assert len(bindings) == len(instrument.TRACE_SITES)
    for site, obj in bindings.items():
        assert callable(obj), site
