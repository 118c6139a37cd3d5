"""The benchmark's tracer patches emonet functions by module and name; every
name it patches must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

import numpy as np
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


def test_conv_calls_per_step(monkeypatch):
    """The tracer numbers `nn.conv` spans under `nn.forward` as conv1, conv2, ...;
    backward must reach `_conv_batch` only for the input gradient of the
    second conv, and never from a forward pass of its own."""
    from emonet import nn

    phase = ["step"]
    calls = []

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapped

    def counted(*args, **kwargs):
        calls.append(phase[0])
        return conv_batch(*args, **kwargs)

    conv_batch = nn._conv_batch
    monkeypatch.setattr(nn, "_conv_batch", counted)
    monkeypatch.setattr(nn, "_forward_batch", in_phase("forward", nn._forward_batch))
    monkeypatch.setattr(nn, "_backward_batch", in_phase("backward", nn._backward_batch))
    model = nn.build_model(28, nn.emotion_layer_stack(), seed=7)
    x = np.random.default_rng(0).random((4, 28, 28)).astype(np.float32)
    nn.model_backward_and_step(model, x, np.array([0, 1, 2, 3]), learning_rate=0.1)
    assert calls == ["forward", "forward", "backward"]
