"""Spans around the calls into each emonet layer, recorded from outside.

`Tracer.patched` replaces the module-level names that `pipeline`,
`classifiers` and `nn` look up at call time with timing wrappers, and puts
the originals back afterwards, so the program itself is unchanged. Spans
stay in memory; `stream_layers` and `train_layers` reduce them to the
per-layer metrics when the run ends.

To measure what tracing costs, traced and untraced work is interleaved in
one run: the bench traces every other frame, and `every_other` traces the
calls inside every other SGD step. Spans of the untraced half are not
recorded, except the frame interval and the whole step.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from emonet import alerts, classifiers, nn, pipeline

now = time.monotonic

# What run_stream calls per frame. The reader and `send` are wrapped by the caller.
STREAM_TARGETS = (
    (pipeline, "temporal_smooth", "video.smooth"),
    (pipeline, "resize_to_width", "preprocess.resize"),
    (pipeline, "extract_roi", "preprocess.roi"),
    (pipeline, "cnn_predict", "classifiers.predict"),
    (pipeline, "lda_predict", "classifiers.predict"),
    (alerts, "ingest", "alerts.ingest"),
    (alerts, "tick", "alerts.tick"),
)
NN_TARGETS = (
    (nn, "model_backward_and_step", "nn.step", "every_other"),
    (nn, "_forward_batch", "nn.forward"),
    (nn, "_conv_batch", "nn.conv"),
    (nn, "_maxpool_batch", "nn.pool"),
    (nn, "_dense_batch", "nn.dense"),
    (nn, "sigmoid", "nn.sigmoid"),
    (nn, "_backward_batch", "nn.backward"),
    (nn, "_maxpool_backward", "nn.pool_bwd"),
    (classifiers, "_batch_argmax", "classifiers.argmax_pass"),
)
FRAME_STAGES = ("video.decode", "video.smooth", "preprocess.resize", "preprocess.roi",
                "classifiers.predict", "alerts.ingest", "alerts.tick", "smtp.send")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at top level
    request: object    # the frame or training cycle the span worked for

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.request: object = None
        self.enabled = True        # wrappers record only while this is set
        self._open: list[int] = []

    def wrap(self, name: str, fn, always: bool = False):
        def traced(*args, **kwargs):
            if not (always or self.enabled):
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.request)
        return traced

    def every_other(self, name: str, fn):
        """Records every call, and the calls inside it only every other time."""
        traced = self.wrap(name, fn, always=True)
        calls = itertools.count()

        def alternating(*args, **kwargs):
            self.enabled = next(calls) % 2 == 1
            try:
                return traced(*args, **kwargs)
            finally:
                self.enabled = True
        return alternating

    def call(self, name: str, fn, *args, **kwargs):
        """A call the bench makes itself; always recorded."""
        return self.wrap(name, fn, always=True)(*args, **kwargs)

    @contextlib.contextmanager
    def patched(self, targets):
        saved = [(target[0], target[1], getattr(target[0], target[1])) for target in targets]
        try:
            for module, attr, name, *how in targets:
                wrapper = self.every_other if how else self.wrap
                setattr(module, attr, wrapper(name, getattr(module, attr)))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s is not None and s.name == name]

    def mean_ms(self, name: str) -> float:
        spans = self.named(name)
        return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0


def stream_layers(tracer: Tracer, by_frame: dict) -> dict:
    """Per-frame stage costs over the traced frames of a stream phase.

    by_frame maps each traced (pass, frame) to the frame's interval in ms.
    Stage times are ms per traced frame, so they add up to the frame time;
    ingest is µs per call and send is ms per alert. `accounted_ms` is the
    median over frames of a frame's summed stage times, `unaccounted_ms` the
    median of its interval minus that sum: the loop's own work and the
    bench's stamps.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    per_frame = defaultdict(float)
    for s in tracer.spans:
        if (s is not None and s.parent == -1 and s.name in FRAME_STAGES
                and s.request in by_frame):
            total[s.name] += s.duration
            calls[s.name] += 1
            per_frame[s.request] += s.duration
    frames, wall_s = len(by_frame), sum(by_frame.values()) / 1e3

    def per_frame_ms(name: str) -> float:
        return 1e3 * total[name] / frames if frames else 0.0

    def per_call(name: str, scale: float) -> float:
        return scale * total[name] / calls[name] if calls[name] else 0.0

    def median(values) -> float:
        return float(np.median(values)) if values else 0.0

    return {
        "video.decode_ms": per_frame_ms("video.decode"),
        "video.smooth_ms": per_frame_ms("video.smooth"),
        "preprocess.resize_ms": per_frame_ms("preprocess.resize"),
        "preprocess.roi_ms": per_frame_ms("preprocess.roi"),
        "classifiers.predict_ms": per_frame_ms("classifiers.predict"),
        "alerts.ingest_us": per_call("alerts.ingest", 1e6),
        "smtp.send_ms": per_call("smtp.send", 1e3),
        "smtp.loop_blocked_share": total["smtp.send"] / wall_s if wall_s else 0.0,
        "accounted_ms": median([1e3 * v for v in per_frame.values()]),
        "trace.unaccounted_ms": median([ms - 1e3 * per_frame[key]
                                        for key, ms in by_frame.items()]),
    }


def train_layers(tracer: Tracer, epochs: int) -> dict:
    """Per-step layer costs over the train-toy cycles.

    Forward and backward times are ms per 32-sample SGD step, counting only
    work inside `model_backward_and_step` and only the steps traced inside;
    `nn.update_ms` is the step's self time: softmax, loss, gradient of the
    logits and the parameter update. `trace.step_ms_untraced` is the mean of
    the other steps.
    """
    spans = tracer.spans
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s is not None and s.parent >= 0:
            children[s.parent].append(i)
    in_cycle = [i for i, s in enumerate(spans) if s is not None
                and isinstance(s.request, tuple) and s.request[0] == "cycle"]
    all_steps = [i for i in in_cycle if spans[i].name == "nn.step"]
    steps = [i for i in all_steps if children[i]]
    untraced = [i for i in all_steps if not children[i]]
    fwd = defaultdict(float)
    step_total = backward = pool_bwd = update = 0.0
    for i in steps:
        step_total += spans[i].duration
        update += spans[i].duration - sum(spans[c].duration for c in children[i])
        for c in children[i]:
            if spans[c].name == "nn.forward":
                convs = 0
                for g in children[c]:
                    name = spans[g].name
                    if name == "nn.conv":
                        convs += 1
                        name = f"nn.conv{convs}"
                    fwd[name] += spans[g].duration
            elif spans[c].name == "nn.backward":
                backward += spans[c].duration
                pool_bwd += sum(spans[g].duration for g in children[c]
                                if spans[g].name == "nn.pool_bwd")

    def per_step(seconds: float) -> float:
        return 1e3 * seconds / len(steps) if steps else 0.0

    trainings = [i for i in in_cycle if spans[i].name == "classifiers.cnn_train"]
    acc_pass = sum(spans[c].duration for i in trainings for c in children[i]
                   if spans[c].name == "classifiers.argmax_pass")
    n_epochs = epochs * len(trainings)
    evaluate_s = sum(spans[i].duration for i in in_cycle
                     if spans[i].name == "classifiers.evaluate")
    return {
        "nn.step_ms": per_step(step_total),
        "nn.conv1.fwd_ms": per_step(fwd["nn.conv1"]),
        "nn.conv2.fwd_ms": per_step(fwd["nn.conv2"]),
        "nn.pool.fwd_ms": per_step(fwd["nn.pool"]),
        "nn.dense.fwd_ms": per_step(fwd["nn.dense"]),
        "nn.sigmoid.fwd_ms": per_step(fwd["nn.sigmoid"]),
        "nn.backward_ms": per_step(backward),
        "nn.pool.bwd_ms": per_step(pool_bwd),
        "nn.update_ms": per_step(update),
        "classifiers.epoch_s": (sum(spans[i].duration for i in trainings) / n_epochs
                                if n_epochs else 0.0),
        "classifiers.epoch_acc_pass_s": acc_pass / n_epochs if n_epochs else 0.0,
        "classifiers.evaluate_s": evaluate_s / len(trainings) if trainings else 0.0,
        "trace.step_ms_untraced": (1e3 * sum(spans[i].duration for i in untraced) / len(untraced)
                                   if untraced else 0.0),
    }
