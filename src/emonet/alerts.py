"""Per-label counter monitoring with threshold alerts and cooldown.

Every ingested frame increments exactly the argmax label's counter. When a
monitored counter strictly exceeds the threshold and no cooldown is
pending, one alert fires, that counter resets, and a cooldown window
opens. When the cooldown expires, monitored counters start fresh, so a
sustained abnormal state re-alerts at a bounded rate instead of storming.
The run summary counts each label's frames apart from these counters, so
its counts and shares never reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

from .classifiers import LABELS, EmotionScores

DEFAULT_MONITORED = frozenset({"sad", "angry", "surprised", "disgust"})


class NonMonotonicFrameIndex(ValueError):
    pass


@dataclass(frozen=True)
class AlertPolicy:
    thresh: int
    monitored_labels: frozenset[str] = DEFAULT_MONITORED
    cooldown_frames: int = 0

    def __post_init__(self):
        if self.thresh < 1:
            raise ValueError("thresh must be >= 1")
        if not self.monitored_labels:
            raise ValueError("monitored_labels must be nonempty")
        unknown = self.monitored_labels - set(LABELS)
        if unknown:
            raise ValueError(f"unknown labels: {sorted(unknown)}")
        if self.cooldown_frames < 0:
            raise ValueError("cooldown_frames must be >= 0")


@dataclass(frozen=True)
class AlertEvent:
    label: str
    frame_index: int
    counter_value: int
    scores_snapshot: EmotionScores
    wall_time: datetime

    def log_line(self) -> str:
        return (f"{self.frame_index} {self.label} {self.counter_value} "
                f"{self.wall_time.isoformat()}")


@dataclass
class CounterState:
    """Mutable per-stream monitoring state; single-owner."""
    # alert counters: reset at each alert and when a cooldown ends
    counters: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in LABELS})
    # classified frames per argmax label over the whole stream
    totals: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in LABELS})
    frames_seen: int = 0
    classified_frames: int = 0
    cooldown_remaining: int = 0
    _last_frame_index: int = -1


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


def _check_monotonic(state: CounterState, frame_index: int) -> None:
    if frame_index <= state._last_frame_index:
        raise NonMonotonicFrameIndex(
            f"frame index {frame_index} after {state._last_frame_index}")
    state._last_frame_index = frame_index


def _advance_cooldown(state: CounterState, policy: AlertPolicy) -> None:
    if state.cooldown_remaining > 0:
        state.cooldown_remaining -= 1
        if state.cooldown_remaining == 0:
            # cooldown over: monitored counts accumulated during it are stale
            for name in policy.monitored_labels:
                state.counters[name] = 0


def tick(state: CounterState, policy: AlertPolicy, frame_index: int) -> None:
    """Register a frame with no classification (e.g. no face detected).

    Counters are untouched but the frame is counted and cooldown advances.
    """
    _check_monotonic(state, frame_index)
    state.frames_seen += 1
    _advance_cooldown(state, policy)


def ingest(state: CounterState, policy: AlertPolicy, frame_index: int,
           scores: EmotionScores, clock=_utc_now) -> AlertEvent | None:
    """Fold one frame's scores into the state; returns an alert if one fires."""
    _check_monotonic(state, frame_index)
    state.frames_seen += 1
    state.classified_frames += 1
    label = scores.label
    state.totals[label] += 1
    state.counters[label] += 1
    if (label in policy.monitored_labels
            and state.cooldown_remaining == 0
            and state.counters[label] > policy.thresh):
        event = AlertEvent(label=label, frame_index=frame_index,
                           counter_value=state.counters[label],
                           scores_snapshot=scores, wall_time=clock())
        state.counters[label] = 0
        state.cooldown_remaining = policy.cooldown_frames
        return event
    _advance_cooldown(state, policy)
    return None


def summarize(state: CounterState) -> dict[str, object]:
    """Per-label frame totals, their shares of the frames seen (percent, two
    decimals), and the live alert counters."""
    seen = state.frames_seen
    shares = {
        name: f"{(state.totals[name] / seen * 100.0 if seen else 0.0):.2f}"
        for name in LABELS}
    return {
        "frames_seen": seen,
        "classified_frames": state.classified_frames,
        "totals": dict(state.totals),
        "counters": dict(state.counters),
        "shares_pct": shares,
    }


def render_summary(state: CounterState) -> str:
    s = summarize(state)
    lines = [f"frames_seen={s['frames_seen']} classified={s['classified_frames']}"]
    for name in LABELS:
        lines.append(f"{name}: count={s['totals'][name]} share={s['shares_pct'][name]}% "
                     f"counter={s['counters'][name]}")
    return "\n".join(lines)
