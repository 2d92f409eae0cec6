"""The benchmark harness traces mvmlab functions by `module.function` name
(benchmarks/spans.py, LAYERS); a rename would silently drop a span from
`--trace 1`, so every listed name must still resolve."""

import importlib
import importlib.util
import pathlib

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_traced_function_resolves_in_mvmlab():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for mod, fns in spans.LAYERS.items():
        module = importlib.import_module(f"mvmlab.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"mvmlab.{mod}.{fn}"


def _traced(spans):
    return {(mod, fn): getattr(importlib.import_module(f"mvmlab.{mod}"), fn)
            for mod, fns in spans.LAYERS.items() for fn in fns}


def test_the_tracer_wraps_every_traced_function_and_puts_it_back():
    # what `--trace 1` does first: build the tracer, patch, and later restore
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _traced(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _traced(spans)
        assert all(during[k] is not before[k] for k in before)
        during["enumeration", "enumerate_chain"](3, "si")
        assert tracer.calls["enumeration.enumerate_chain"] == 1
    finally:
        tracer.uninstall()
    after = _traced(spans)
    assert all(after[k] is before[k] for k in before)
