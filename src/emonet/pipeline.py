"""End-to-end stream processing: frames -> face box -> preprocessing ->
classification -> alert counters -> (optional) SMTP dispatch.

Each frame's face box is looked up before any pixel work. Frames with no
usable detection do none: they still advance the frame counter and the
alert cooldown, so alert pacing does not depend on detector dropouts. A box
wholly outside the frame is no usable detection either; the run report
counts those frames. For a frame with a box, only the source pixels that
the box's working-width pixels read are median-smoothed and resized, which
gives the same ROI as smoothing and resizing the whole frame.
SMTP failures are logged and counted, never fatal: monitoring availability
beats delivery guarantees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import alerts, smtp_client
from .classifiers import EmotionScores, LdaModel, cnn_predict, lda_predict
from .config import PipelineConfig
from .preprocess import (BoundingBox, DetectionSet, EmptyIntersection, Roi, clamp_box,
                         extract_roi, resample_taps, resize_to_width, select_primary_face,
                         taps_window, working_height)
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

    def summary_text(self) -> str:
        no_face = self.state.frames_seen - self.state.classified_frames
        lines = [alerts.render_summary(self.state),
                 f"events={len(self.events)} emails_sent={self.emails_sent} "
                 f"smtp_failures={self.smtp_failures}",
                 f"frames_no_face={no_face} boxes_outside_frame={self.boxes_outside_frame}"]
        return "\n".join(lines)


def _predict(model, roi) -> EmotionScores:
    # not model.predict_proba: perfbench/tracing.py times prediction by patching these two names
    if isinstance(model, LdaModel):
        return lda_predict(model, roi.pixels)
    return cnn_predict(model, roi.pixels)


def _face_roi(frames: list[Frame], box: BoundingBox, width: int,
              roi_size: int) -> Roi | None:
    """The ROI of box, in working-width coordinates, in the median of frames,
    or None when the box lies wholly outside the frame.

    Equal to extract_roi(resize_to_width(temporal_smooth(frames), width), box),
    but smooths and resizes only the pixels under the box.
    """
    in_shape = (frames[-1].height, frames[-1].width)
    out_shape = (working_height(in_shape[1], in_shape[0], width), width)
    try:
        region = clamp_box(box, *out_shape)
    except EmptyIntersection:
        return None
    taps = resample_taps(region, in_shape, out_shape)
    smoothed = temporal_smooth(frames, taps_window(taps))
    resized = resize_to_width(smoothed, width, taps)
    return extract_roi(resized, BoundingBox(0, 0, resized.width, resized.height), roi_size)


def run_stream(reader: Y4mReader, detections: DetectionSet, model,
               config: PipelineConfig, event_log=None,
               clock=alerts._utc_now, send=smtp_client.send_alert,
               warn=None) -> RunReport:
    """Process every frame of a Y4M stream; returns the run report.

    With smooth_window=k, frame i is classified from the median of frames
    i-k+1..i, which is centred on frame i-(k-1)/2, cropped by frame i's box;
    the first k-1 frames are classified unsmoothed. event_log, when given,
    receives one line per alert (flushed as written). send is the SMTP
    dispatcher, injectable for tests.
    """
    policy = config.alert_policy()
    state = alerts.CounterState()
    report = RunReport(state=state)
    smtp_cfg = config.smtp_config()
    window: deque = deque(maxlen=config.smooth_window)

    for frame in reader:
        window.append(frame)
        try:
            factor = config.width / frame.width
            boxes = detections.for_frame(frame.index)
            if config.detections_coords == "original" and factor != 1.0:
                boxes = [b.scaled(factor) for b in boxes]
            box = select_primary_face(boxes)
            roi = None
            if box is not None:
                frames = list(window) if len(window) == config.smooth_window else [frame]
                roi = _face_roi(frames, box, config.width, config.roi_size)
                report.boxes_outside_frame += roi is None
            if roi is None:
                alerts.tick(state, policy, frame.index)
                continue
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
            try:
                send(smtp_cfg, event)
                report.emails_sent += 1
            except smtp_client.SmtpError as exc:
                report.smtp_failures += 1
                if warn is not None:
                    warn(f"smtp delivery failed for frame {event.frame_index}: {exc}")
    return report
