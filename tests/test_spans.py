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
