"""Alert state machine tests: table-driven traces, invariants, reporting."""

from datetime import datetime, timezone

import numpy as np
import pytest

from emonet import alerts
from emonet.alerts import AlertPolicy, CounterState
from emonet.classifiers import LABELS, EmotionScores


def scores_for(label: str) -> EmotionScores:
    probs = np.full(7, 0.01)
    probs[LABELS.index(label)] = 1.0 - 0.06
    return EmotionScores(probs=probs / probs.sum())


# percentages in LABELS order
REFERENCE_SCORES = EmotionScores(
    probs=np.array([0.82, 0.15, 7.89, 22.18, 8.10, 1.33, 53.85]) / 100.0)

PINNED_CLOCK = lambda: datetime(2022, 6, 29, 12, 0, 0, tzinfo=timezone.utc)


def run_trace(labels, policy, start_index=1):
    state = CounterState()
    events = []
    for offset, label in enumerate(labels):
        ev = alerts.ingest(state, policy, start_index + offset,
                           scores_for(label), clock=PINNED_CLOCK)
        if ev is not None:
            events.append(ev)
    return state, events


class TestPolicyValidation:
    def test_thresh_must_be_positive(self):
        with pytest.raises(ValueError):
            AlertPolicy(thresh=0)

    def test_monitored_labels_nonempty(self):
        with pytest.raises(ValueError):
            AlertPolicy(thresh=5, monitored_labels=frozenset())

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            AlertPolicy(thresh=5, monitored_labels=frozenset({"bored"}))


class TestTraces:
    def test_reference_neutral_scores_no_alert(self):
        policy = AlertPolicy(thresh=1)
        state = CounterState()
        assert REFERENCE_SCORES.label == "neutral"
        ev = alerts.ingest(state, policy, 1, REFERENCE_SCORES, clock=PINNED_CLOCK)
        assert ev is None
        assert state.counters["neutral"] == 1
        assert all(state.counters[m] == 0 for m in policy.monitored_labels)

    def test_six_sad_frames_alert_at_sixth(self):
        policy = AlertPolicy(thresh=5)
        _, events = run_trace(["sad"] * 6, policy)
        assert [e.frame_index for e in events] == [6]
        assert events[0].label == "sad"
        assert events[0].counter_value == 6

    def test_five_sad_frames_no_alert(self):
        policy = AlertPolicy(thresh=5)
        _, events = run_trace(["sad"] * 5, policy)
        assert events == []

    def test_cooldown_trace_alerts_at_6_and_22(self):
        policy = AlertPolicy(thresh=5, cooldown_frames=10)
        _, events = run_trace(["sad"] * 30, policy)
        assert [e.frame_index for e in events] == [6, 22]

    def test_no_cooldown_alert_every_thresh_plus_one(self):
        policy = AlertPolicy(thresh=5)
        _, events = run_trace(["sad"] * 30, policy)
        assert [e.frame_index for e in events] == [6, 12, 18, 24, 30]

    def test_happy_never_alerts(self):
        policy = AlertPolicy(thresh=1)
        _, events = run_trace(["happy"] * 50, policy)
        assert events == []

    def test_counter_resets_after_alert(self):
        policy = AlertPolicy(thresh=2)
        state, events = run_trace(["angry"] * 3, policy)
        assert len(events) == 1
        assert state.counters["angry"] == 0


class TestInvariants:
    def test_floor_rule_for_run_lengths(self):
        for t in (1, 3, 5):
            for n in (0, 1, 7, 20, 33):
                policy = AlertPolicy(thresh=t)
                _, events = run_trace(["disgust"] * n, policy)
                assert len(events) == n // (t + 1), (t, n)

    def test_exactly_one_counter_increments_per_frame(self):
        rng = np.random.default_rng(0)
        policy = AlertPolicy(thresh=3)
        state = CounterState()
        resets_consumed = 0
        for i in range(200):
            label = LABELS[rng.integers(0, 7)]
            ev = alerts.ingest(state, policy, i, scores_for(label),
                               clock=PINNED_CLOCK)
            if ev is not None:
                resets_consumed += ev.counter_value
        assert sum(state.counters.values()) + resets_consumed == state.frames_seen

    def test_no_alert_for_unmonitored_label(self):
        policy = AlertPolicy(thresh=1, monitored_labels=frozenset({"sad"}))
        _, events = run_trace(["angry"] * 20 + ["neutral"] * 20, policy)
        assert events == []

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(1)
        labels = [LABELS[i] for i in rng.integers(0, 7, size=100)]
        policy = AlertPolicy(thresh=2, cooldown_frames=3)
        _, ev1 = run_trace(labels, policy)
        _, ev2 = run_trace(labels, policy)
        assert [e.log_line() for e in ev1] == [e.log_line() for e in ev2]

    def test_non_monotonic_frame_index_rejected(self):
        policy = AlertPolicy(thresh=5)
        state = CounterState()
        alerts.ingest(state, policy, 5, scores_for("sad"), clock=PINNED_CLOCK)
        with pytest.raises(alerts.NonMonotonicFrameIndex):
            alerts.ingest(state, policy, 5, scores_for("sad"), clock=PINNED_CLOCK)


class TestTick:
    def test_tick_advances_cooldown_without_counting(self):
        policy = AlertPolicy(thresh=1, cooldown_frames=2)
        state = CounterState()
        ev = None
        for i in (1, 2):
            ev = alerts.ingest(state, policy, i, scores_for("sad"),
                               clock=PINNED_CLOCK)
        assert ev is not None and state.cooldown_remaining == 2
        alerts.tick(state, policy, 3)
        alerts.tick(state, policy, 4)
        assert state.cooldown_remaining == 0
        assert state.frames_seen == 4
        assert state.classified_frames == 2


class TestSummary:
    def test_zero_frames_all_zero_shares(self):
        s = alerts.summarize(CounterState())
        assert all(v == "0.00" for v in s["shares_pct"].values())

    def test_all_happy(self):
        policy = AlertPolicy(thresh=99)
        state, _ = run_trace(["happy"] * 4, policy)
        s = alerts.summarize(state)
        assert s["shares_pct"]["happy"] == "100.00"

    def test_mixed_trace_matches_hand_count(self):
        policy = AlertPolicy(thresh=99)
        trace = ["happy"] * 3 + ["sad"] * 2 + ["neutral"] * 5
        state, _ = run_trace(trace, policy)
        s = alerts.summarize(state)
        assert s["shares_pct"]["happy"] == "30.00"
        assert s["shares_pct"]["sad"] == "20.00"
        assert s["shares_pct"]["neutral"] == "50.00"

    @pytest.mark.parametrize("trace, policy, alerted_at", [
        (["neutral"] * 14 + ["sad"] * 6, AlertPolicy(thresh=5), [20]),
        (["neutral"] * 14 + ["sad"] * 16, AlertPolicy(thresh=2, cooldown_frames=4), [17, 24]),
    ])
    def test_counts_survive_alert_and_cooldown_resets(self, trace, policy, alerted_at):
        # an alert, and a cooldown's end, reset the live counter, not the count
        state, events = run_trace(trace, policy)
        assert [e.frame_index for e in events] == alerted_at
        s = alerts.summarize(state)
        sad, neutral = trace.count("sad"), trace.count("neutral")
        assert s["totals"]["sad"] == sad and s["totals"]["neutral"] == neutral
        assert s["shares_pct"]["sad"] == f"{sad / len(trace) * 100:.2f}"
        lines = alerts.render_summary(state).splitlines()
        assert (f"sad: count={sad} share={s['shares_pct']['sad']}% "
                f"counter={state.counters['sad']}") in lines
        assert state.counters["sad"] < sad

    def test_event_log_line_format(self):
        policy = AlertPolicy(thresh=1)
        _, events = run_trace(["sad"] * 2, policy)
        line = events[0].log_line()
        assert line == "2 sad 2 2022-06-29T12:00:00+00:00"
