"""The benchmark's tracer patches emonet functions by module and name; every
name it patches must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", tracing.STREAM_TARGETS + tracing.NN_TARGETS,
                         ids=lambda t: f"{t[0].__name__}.{t[1]}")
def test_target_resolves(target):
    module, attr = target[0], target[1]
    assert module.__name__.startswith("emonet.")
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
