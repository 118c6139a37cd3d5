"""End-to-end stream processing: frames -> face box -> preprocessing ->
classification -> alert counters -> (optional) SMTP dispatch.

Each frame's face box is looked up before any pixel work. Frames with no
usable detection do none under smooth_window=1 (for larger windows see
run_stream), and read no pixels when they come from a seekable Y4M stream
(video.Y4mReader): they still advance the frame counter and the alert
cooldown, so alert pacing does not depend on detector dropouts. A box
wholly outside the frame is no usable detection either; the run report
counts those frames. A frame's ROI, of the model's input_side, has one
path: its box's plan (preprocess.roi_plan), the crop of the plan's source
window (Frame.crop), the resize of just the source pixels the ROI reads
(resize_to_width) and the ROI's rescale (extract_roi); this gives the same
ROI as resizing the whole frame, and the stages pass plain arrays.
Everything about a box that depends only on its geometry (the plan, the
gather indices and weights of each resample) is built at the box's first
frame, in roi_plan, and cached, so while a face holds still a frame does
only pixel work. A frame of a seekable stream reads just the band of
source rows the plan's window holds, so the stream must stay open for the
whole run.
Smoothing works on faces, not frames: a boxed frame is classified from the
per-pixel median (temporal_smooth) of the last smooth_window frames' ROIs,
each built once when its frame arrives (run_stream), so a moving face is a
median of aligned copies and a frame's pixel work is bounded whatever the
box does.
With SMTP configured, each alert is mailed before the next frame is read,
one SMTP session per alert. The run's smtp_client.Mailer opens a spare
connection right after each accepted message and reads each QUIT reply
later, so the server's greeting and QUIT reply overlap frame work; the
connect is still paid in the alerting frame. The Mailer is closed when
the run ends, also on an error. SMTP failures are logged and counted,
never fatal: monitoring availability beats delivery guarantees.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import alerts, smtp_client
from .classifiers import EmotionScores, LdaModel, cnn_predict, lda_predict
from .config import PipelineConfig
from .preprocess import (BoundingBox, DetectionSet, extract_roi, resize_to_width, roi_plan,
                         select_primary_face)
from .video import Frame, Y4mReader, temporal_smooth


class PipelineStageError(RuntimeError):
    """A stage failure wrapped with the frame index it happened on."""

    def __init__(self, frame_index: int, cause: Exception):
        super().__init__(f"frame {frame_index}: {cause}")
        self.frame_index = frame_index


@dataclass
class RunReport:
    state: alerts.CounterState
    events: list[alerts.AlertEvent] = field(default_factory=list)
    smtp_failures: int = 0
    emails_sent: int = 0
    boxes_outside_frame: int = 0     # frames whose primary box missed the frame
    dropped_below_min_size: int = 0  # sidecar boxes smaller than its min_size
    smtp_ms: list[float] = field(default_factory=list)   # each delivery, failures included

    def summary_text(self) -> str:
        no_face = self.state.frames_seen - self.state.classified_frames
        smtp_ms = (f"smtp_ms_p50={np.median(self.smtp_ms):.2f} "
                   f"smtp_ms_max={max(self.smtp_ms):.2f}" if self.smtp_ms
                   else "smtp_ms_p50=- smtp_ms_max=-")
        lines = [alerts.render_summary(self.state),
                 f"events={len(self.events)} emails_sent={self.emails_sent} "
                 f"smtp_failures={self.smtp_failures} {smtp_ms}",
                 f"frames_no_face={no_face} boxes_outside_frame={self.boxes_outside_frame} "
                 f"dropped_below_min_size={self.dropped_below_min_size}"]
        return "\n".join(lines)


def _predict(model, roi) -> EmotionScores:
    # not model.predict_proba: perfbench/tracing.py times prediction by patching these two names
    if isinstance(model, LdaModel):
        return lda_predict(model, roi)
    return cnn_predict(model, roi)


def _face_roi(frame: Frame, box: BoundingBox, width: int, side: int) -> np.ndarray | None:
    """The side x side ROI of box in frame, or None when the box misses the
    frame: the crop of the plan's source window, resized at just the working
    pixels the ROI reads, then rescaled. The plan is cached per box, so a
    frame whose box repeats does only pixel work."""
    plan = roi_plan(box, (frame.height, frame.width), width, side)
    if plan is None:
        return None
    window, taps, roi_taps = plan
    return extract_roi(resize_to_width(frame.crop(window), taps), side, roi_taps)


def run_stream(reader: Y4mReader, detections: DetectionSet, model,
               config: PipelineConfig, event_log=None,
               clock=alerts._utc_now, send=None, warn=None) -> RunReport:
    """Process every frame of a Y4M stream; returns the run report.

    The ROI side is model.input_side, read once before the first frame.
    With smooth_window=k, frame i is classified from the per-pixel median of
    the ROIs of frames i-k+1..i, which is centred on frame i-(k-1)/2, each
    built once, under the frame's own box, when it arrives; the first k-1
    frames are classified unsmoothed. Under k > 1 a frame with no usable box
    gives the window its ROI under the last usable box before it, or, before
    any usable box, under the first one, built when that box arrives. Each
    frame's pixels are taken through Frame.crop of its ROI's source window,
    so a frame of a seekable stream reads the rows its ROI needs, once.
    event_log, when given, receives one line per alert (flushed as written).
    With SMTP configured, each alert is delivered by send(smtp_config,
    event), by default through the run's Mailer; a run that never alerts
    opens no socket.
    """
    side = model.input_side
    policy = config.alert_policy()
    state = alerts.CounterState()
    report = RunReport(state=state)
    smtp_cfg = config.smtp_config()
    k = config.smooth_window
    # the ROIs of the last k frames; a box-less frame's counts only when
    # k > 1, and until the first usable box the frame stands for it
    window: deque = deque(maxlen=k)
    last_box = None     # the newest usable box
    mailer = None
    if smtp_cfg is not None and send is None:
        mailer = smtp_client.Mailer(smtp_cfg)   # connects at the first send

        def send(_config, event):
            mailer.send(event)
    try:
        for frame in reader:
            try:
                factor = config.width / frame.width
                boxes = detections.for_frame(frame.index)
                if config.detections_coords == "original" and factor != 1.0:
                    boxes = [b.scaled(factor) for b in boxes]
                box = select_primary_face(boxes)
                roi = None
                if box is not None:
                    roi = _face_roi(frame, box, config.width, side)
                    report.boxes_outside_frame += roi is None
                if roi is not None:
                    if last_box is None:
                        for j in range(len(window)):
                            window[j] = _face_roi(window[j], box, config.width, side)
                    last_box = box
                    window.append(roi)
                elif k > 1:
                    window.append(frame if last_box is None
                                  else _face_roi(frame, last_box, config.width, side))
                if roi is None:
                    alerts.tick(state, policy, frame.index)
                    continue
                if k > 1 and len(window) == k:
                    roi = temporal_smooth(list(window))
                scores = _predict(model, roi)
                event = alerts.ingest(state, policy, frame.index, scores, clock=clock)
            except Exception as exc:
                raise PipelineStageError(frame.index, exc) from exc
            if event is None:
                continue
            report.events.append(event)
            if event_log is not None:
                event_log.write(event.log_line() + "\n")
                event_log.flush()
            if smtp_cfg is not None:
                start = time.monotonic()
                try:
                    send(smtp_cfg, event)
                    report.emails_sent += 1
                except smtp_client.SmtpError as exc:
                    report.smtp_failures += 1
                    if warn is not None:
                        warn(f"smtp delivery failed for frame {event.frame_index}: {exc}")
                finally:
                    report.smtp_ms.append((time.monotonic() - start) * 1e3)
    finally:
        if mailer is not None:
            mailer.close()
    report.dropped_below_min_size = detections.dropped_below_min_size
    return report
