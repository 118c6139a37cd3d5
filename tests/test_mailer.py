"""Mailer: a run's alerts, one SMTP session each, over a spare connection
that is opened ahead of the alert that uses it."""

import select
import socket
import time

import pytest

from emonet import pipeline, smtp_client
from emonet.config import PipelineConfig
from emonet.smtp_client import ConnectFailed, Mailer, SmtpConfig, SmtpTimeout
from emonet.video import Y4mReader
from smtp_server import (SessionServer, greet_then_hang_up, hang_up, idle_timeout_421, play,
                         reset, reset_after_ehlo, silent)
from test_pipeline import PINNED_CLOCK, lda_model, make_video, sidecar  # noqa: F401
from test_smtp import sample_event

SCRIPT = ["220 ready", "250 hi", "250 ok", "250 ok", "354 go", "250 queued", "221 bye"]
COMMANDS = ["EHLO emonet", "MAIL FROM:<m@x>", "RCPT TO:<ops@x>", "DATA", "QUIT"]


def greets_late(conn, reader, session):
    """Plays SCRIPT after 0.2 s of silence, noting any input that arrives
    before its greeting (RFC 5321 4.3.1: the client waits for it)."""
    session.talked_early = bool(select.select([conn], [], [], 0.2)[0])
    play(SCRIPT)(conn, reader, session)


def smtp_config(server, timeout=5.0) -> SmtpConfig:
    return SmtpConfig(host="127.0.0.1", port=server.port, sender="m@x",
                      recipients=("ops@x",), timeout=timeout)


def pipeline_config(server, thresh=1) -> PipelineConfig:
    return PipelineConfig(thresh=thresh, width=100, smtp_host="127.0.0.1",
                          smtp_port=server.port, alert_from="m@x", alert_to=("ops@x",))


def run(labels, config, model, **kwargs):
    return pipeline.run_stream(Y4mReader(make_video(labels)), sidecar(len(labels)), model,
                               config, clock=PINNED_CLOCK, **kwargs)


class TestSessions:
    def test_n_alerts_give_n_sessions_in_order(self, lda_model):
        # thresh=1 on six sad frames alerts at frames 1, 3 and 5; the fourth
        # session is the spare opened after the last message. The spare
        # answers QUIT at once, so close() cannot return before the slower
        # QUIT replies unless it skips them.
        handlers = [play(SCRIPT, quit_delay=0.2) for _ in range(3)] + [play(SCRIPT)]
        with SessionServer(*handlers) as server:
            report = run(["sad"] * 6, pipeline_config(server), lda_model)
            returned_at = time.monotonic()
        assert (report.emails_sent, report.smtp_failures) == (3, 0)
        assert len(report.smtp_ms) == 3
        assert f"smtp_ms_max={max(report.smtp_ms):.2f}" in report.summary_text()
        messages, spare = server.sessions[:3], server.sessions[3]
        assert [s.commands for s in messages] == [COMMANDS] * 3
        assert [s.messages for s in messages] == [1, 1, 1]
        assert [s.frames for s in messages] == [[f"frame: {e.frame_index}"]
                                                for e in report.events]
        assert spare.commands == ["QUIT"] and spare.messages == 0
        # every QUIT was answered, and the client waited for the answers
        assert all(s.quit_answered_at < returned_at for s in server.sessions)

    def test_sessions_quit_when_a_stage_error_ends_the_run(self, lda_model):
        class FailsAtFrame3:
            def for_frame(self, index):
                if index == 3:
                    raise RuntimeError("detector crashed")
                return sidecar(6).for_frame(index)

        dets = FailsAtFrame3()
        handlers = [play(SCRIPT, quit_delay=0.2), play(SCRIPT)]
        with SessionServer(*handlers) as server:
            with pytest.raises(pipeline.PipelineStageError) as exc:
                pipeline.run_stream(Y4mReader(make_video(["sad"] * 6)), dets, lda_model,
                                    pipeline_config(server), clock=PINNED_CLOCK)
            returned_at = time.monotonic()
        assert exc.value.frame_index == 3
        assert [s.commands for s in server.sessions] == [COMMANDS, ["QUIT"]]
        assert all(s.quit_answered_at < returned_at for s in server.sessions)

    def test_run_without_smtp_opens_no_socket(self, lda_model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run without SMTP opened a connection")

        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.setattr(smtp_client, "Mailer", refuse)
        report = run(["sad"] * 4, PipelineConfig(thresh=1, width=100), lda_model)
        assert len(report.events) == 2 and report.smtp_ms == []
        assert "smtp_ms_p50=- smtp_ms_max=-" in report.summary_text()

    def test_run_that_never_alerts_opens_no_socket(self, lda_model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run without alerts opened a connection")

        monkeypatch.setattr(socket, "create_connection", refuse)
        config = PipelineConfig(thresh=1, width=100, smtp_host="127.0.0.1",
                                alert_from="m@x", alert_to=("ops@x",))
        report = run(["happy"] * 4, config, lda_model)
        assert report.events == [] and report.smtp_ms == []

    def test_injected_send_replaces_the_mailer(self, lda_model, monkeypatch):
        monkeypatch.setattr(smtp_client, "Mailer", None)
        sent = []
        config = PipelineConfig(thresh=1, width=100, smtp_host="127.0.0.1",
                                alert_from="m@x", alert_to=("ops@x",))
        report = run(["sad"] * 4, config, lda_model,
                     send=lambda cfg, event: sent.append(event.frame_index))
        assert sent == [1, 3] and report.emails_sent == 2

    def test_latency_recorded_for_failed_deliveries_too(self, lda_model):
        def failing_send(cfg, event):
            time.sleep(0.01)
            raise smtp_client.ConnectFailed("server down")

        config = PipelineConfig(thresh=1, width=100, smtp_host="127.0.0.1",
                                alert_from="m@x", alert_to=("ops@x",))
        report = run(["sad"] * 4, config, lda_model, send=failing_send)
        assert report.smtp_failures == 2 and len(report.smtp_ms) == 2
        assert min(report.smtp_ms) >= 10.0
        assert "smtp_ms_p50=" in report.summary_text()


class TestSpare:
    @pytest.mark.parametrize("stale", [hang_up, reset, greet_then_hang_up, idle_timeout_421])
    def test_spare_closed_while_idle_is_replaced_once(self, stale):
        with SessionServer(play(SCRIPT), stale, play(SCRIPT)) as server:
            mailer = Mailer(smtp_config(server))
            mailer.send(sample_event())    # the spare opened after it is stale
            time.sleep(0.05)               # the server has given up on the spare
            mailer.send(sample_event())
            mailer.close()
        assert server.accepted == 3
        assert server.sessions[2].commands == COMMANDS
        assert server.sessions[2].messages == 1

    def test_silent_spare_fails_the_alert_after_one_timeout(self):
        # the host also leaves the QUIT after the first message unanswered
        with SessionServer(play(SCRIPT, quit_delay=1.0), silent) as server:
            mailer = Mailer(smtp_config(server, timeout=0.5))
            mailer.send(sample_event())
            start = time.monotonic()
            with pytest.raises(SmtpTimeout) as exc:
                mailer.send(sample_event())
            elapsed = time.monotonic() - start
            mailer.close()
        assert exc.value.phase == "greeting"
        assert 0.5 <= elapsed < 0.9
        assert server.accepted == 2

    def test_refused_spare_is_replaced_with_one_connect_retry(self, monkeypatch):
        connects = []
        real_connect = smtp_client._connect

        def counted(config):
            connects.append(config.port)
            return real_connect(config)

        monkeypatch.setattr(smtp_client, "_connect", counted)
        with SessionServer(play(SCRIPT)) as server:
            mailer = Mailer(smtp_config(server))
            mailer.send(sample_event())      # the spare opened after it is refused
            del connects[:]
            with pytest.raises(ConnectFailed):
                mailer.send(sample_event())
            mailer.close()
        assert len(connects) == 2

    def test_close_quits_the_unused_spare_after_its_greeting(self):
        with SessionServer(play(SCRIPT), greets_late) as server:
            mailer = Mailer(smtp_config(server))
            mailer.send(sample_event())
            mailer.close()
        spare = server.sessions[1]
        assert spare.commands == ["QUIT"] and spare.quit_answered_at is not None
        assert not spare.talked_early

    def test_mailer_connects_at_its_first_send(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Mailer that sent nothing opened a connection")

        monkeypatch.setattr(socket, "create_connection", refuse)
        Mailer(SmtpConfig(host="127.0.0.1", sender="m@x", recipients=("ops@x",))).close()

    def test_close_is_bounded_by_the_timeout_and_never_raises(self):
        # the last QUIT goes unanswered and the spare never greets
        with SessionServer(play(SCRIPT, quit_delay=1.0), silent) as server:
            mailer = Mailer(smtp_config(server, timeout=0.3))
            mailer.send(sample_event())
            start = time.monotonic()
            mailer.close()
            mailer.close()
            elapsed = time.monotonic() - start
        assert 0.3 <= elapsed < 0.6


class TestQuitReply:
    @pytest.mark.parametrize("quit_reply", ["bogus", "554 no"])
    def test_bad_quit_reply_never_fails_an_alert(self, quit_reply, lda_model):
        handlers = [play(SCRIPT[:-1] + [quit_reply]) for _ in range(3)]
        with SessionServer(*handlers) as server:
            report = run(["sad"] * 4, pipeline_config(server), lda_model,
                         warn=pytest.fail)
        assert (report.emails_sent, report.smtp_failures) == (2, 0)
        assert [s.messages for s in server.sessions] == [1, 1, 0]

    def test_late_quit_reply_neither_fails_nor_delays_an_alert(self):
        with SessionServer(play(SCRIPT, quit_delay=1.0), play(SCRIPT)) as server:
            mailer = Mailer(smtp_config(server))
            mailer.send(sample_event())
            start = time.monotonic()
            mailer.send(sample_event())
            elapsed = time.monotonic() - start
            mailer.close()
        assert elapsed < 0.2
        assert [s.messages for s in server.sessions] == [1, 1]

    def test_send_returns_at_the_accepting_250(self):
        with SessionServer(play(SCRIPT, quit_delay=1.0), play(SCRIPT)) as server:
            mailer = Mailer(smtp_config(server))
            start = time.monotonic()
            mailer.send(sample_event())
            elapsed = time.monotonic() - start
            quit_answered_at = server.sessions[0].quit_answered_at
            mailer.close()
        assert elapsed < 0.2 and quit_answered_at is None
        assert server.sessions[0].messages == 1


class TestConnectionReset:
    """A reset used to escape as a bare OSError and end the run."""

    def test_send_alert_raises_protocol_error(self):
        with SessionServer(reset_after_ehlo) as server:
            with pytest.raises(smtp_client.ProtocolError) as exc:
                smtp_client.send_alert(smtp_config(server), sample_event())
        assert (exc.value.phase, exc.value.code) == ("ehlo", 0)

    def test_run_counts_a_failure_after_one_replacement(self, lda_model):
        # the second alert's spare is reset, and so is its replacement
        warnings = []
        with SessionServer(play(SCRIPT), reset_after_ehlo, reset_after_ehlo) as server:
            report = run(["sad"] * 4, pipeline_config(server), lda_model,
                         warn=warnings.append)
        assert (report.emails_sent, report.smtp_failures) == (1, 1)
        assert server.accepted == 3 and len(warnings) == 1
