"""The benchmark's traced runs wrap rasched functions by name; a rename under
src/ must fail here rather than only when a traced benchmark run starts."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.WRAP_POINTS
    for module, path, *_ in tracing.WRAP_POINTS:
        owner, attr = tracing.resolve(module, path)
        # Tracer.installed() reads the attribute from the owner's own namespace
        assert attr in vars(owner), f"{module}: {path} is gone"
        assert callable(vars(owner)[attr]), f"{module}: {path} is not callable"
