"""SMTP client tests against the tests' scripted SMTP server."""

import re
import socket
import threading
import time
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonet import smtp_client
from emonet.alerts import AlertEvent
from emonet.classifiers import EmotionScores
from emonet.smtp_client import (
    ConnectFailed,
    Mailer,
    ProtocolError,
    SmtpConfig,
    SmtpError,
    dot_stuff,
)
from smtp_server import SessionServer, dot_unstuff, play


def sample_event() -> AlertEvent:
    probs = np.array([0.0082, 0.0015, 0.0789, 0.2218, 0.5385, 0.0133, 0.1378])
    return AlertEvent(
        label="sad",
        frame_index=6,
        counter_value=6,
        scores_snapshot=EmotionScores(probs=probs / probs.sum()),
        wall_time=datetime(2022, 6, 29, 12, 0, 0, tzinfo=timezone.utc),
    )


def config_for(server: SessionServer, recipients=("ops@example.org",)) -> SmtpConfig:
    return SmtpConfig(host="127.0.0.1", port=server.port,
                      sender="monitor@example.org", recipients=recipients,
                      timeout=5.0)


HAPPY_SCRIPT = ["220 stub ready", "250 stub", "250 ok", "250 ok",
                "354 go ahead", "250 queued", "221 bye"]


class TestHappyPath:
    def test_full_dialogue(self):
        with SessionServer(play(HAPPY_SCRIPT, quit_delay=0.3)) as server:
            smtp_client.send_alert(config_for(server), sample_event())
            returned_at = time.monotonic()
        assert server.sessions[0].messages == 1
        assert returned_at >= server.sessions[0].quit_answered_at
        assert server.sessions[0].commands == [
            "EHLO emonet",
            "MAIL FROM:<monitor@example.org>",
            "RCPT TO:<ops@example.org>",
            "DATA",
            "QUIT",
        ]

    def test_message_body_contents(self):
        with SessionServer(play(HAPPY_SCRIPT)) as server:
            smtp_client.send_alert(config_for(server), sample_event())
        body = server.sessions[0].unstuffed_body()
        assert body[0] == "From: monitor@example.org"
        assert body[1] == "To: ops@example.org"
        assert body[2] == "Subject: EMONET ALERT: sad"
        assert len([line for line in body if line.startswith("Message-ID:")]) == 1
        assert any(re.fullmatch(r"Message-ID: <[0-9a-f]{32}@emonet>", line) for line in body)
        assert "" in body  # header/body separator
        assert "label: sad" in body
        assert "frame: 6" in body
        assert "count: 6" in body
        assert any(line.startswith("scores: angry=") for line in body)

    def test_two_recipients_two_rcpt_commands(self):
        script = ["220 ok", "250 ok", "250 ok", "250 ok", "250 ok",
                  "354 go", "250 queued", "221 bye"]
        with SessionServer(play(script)) as server:
            cfg = config_for(server, recipients=("a@x.org", "b@x.org"))
            smtp_client.send_alert(cfg, sample_event())
        rcpts = [c for c in server.sessions[0].commands if c.startswith("RCPT")]
        assert rcpts == ["RCPT TO:<a@x.org>", "RCPT TO:<b@x.org>"]

    def test_crlf_framing_on_the_wire(self):
        with SessionServer(play(HAPPY_SCRIPT)) as server:
            smtp_client.send_alert(config_for(server), sample_event())
        raw = server.sessions[0].raw
        assert raw.endswith(b"QUIT\r\n")
        assert b"\r\n" in raw and b"\n\n" not in raw

    def test_body_and_terminator_sent_in_one_write(self, monkeypatch):
        # Per-line writes stall each alert on the server's delayed ACK.
        writes = []
        client = threading.get_ident()
        real_sendall = socket.socket.sendall

        def counting_sendall(sock, data, *args):
            if threading.get_ident() == client:
                writes.append(bytes(data))
            return real_sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
        with SessionServer(play(HAPPY_SCRIPT)) as server:
            smtp_client.send_alert(config_for(server), sample_event())
        after_354 = writes[writes.index(b"DATA\r\n") + 1:]
        assert after_354 == [after_354[0], b"QUIT\r\n"]
        assert after_354[0].endswith(b"\r\n.\r\n")
        assert b"".join(writes) == server.sessions[0].raw

    def test_helo_fallback_when_ehlo_rejected(self):
        script = ["220 ok", "502 not implemented", "250 hi", "250 ok",
                  "250 ok", "354 go", "250 queued", "221 bye"]
        with SessionServer(play(script)) as server:
            smtp_client.send_alert(config_for(server), sample_event())
        assert server.sessions[0].messages == 1
        assert server.sessions[0].commands[:2] == ["EHLO emonet", "HELO emonet"]

    def test_multiline_ehlo_reply_counts_once(self):
        script = ["220 ok", "250-stub greets you\r\n250 SIZE 1000000",
                  "250 ok", "250 ok", "354 go", "250 queued", "221 bye"]
        with SessionServer(play(script)) as server:
            smtp_client.send_alert(config_for(server), sample_event())
        # counted as two replies, the EHLO reply would answer MAIL and DATA would fail
        assert server.sessions[0].commands == [
            "EHLO emonet", "MAIL FROM:<monitor@example.org>", "RCPT TO:<ops@example.org>",
            "DATA", "QUIT"]
        assert server.sessions[0].messages == 1


class TestRejections:
    def test_rcpt_rejected_raises_with_phase(self):
        script = ["220 ok", "250 ok", "250 ok", "550 no such user", "221 bye"]
        with SessionServer(play(script)) as server:
            with pytest.raises(ProtocolError) as exc:
                smtp_client.send_alert(config_for(server), sample_event())
        assert exc.value.phase == "rcpt"
        assert exc.value.code == 550
        # the client still said goodbye
        assert server.sessions[0].commands[-1] == "QUIT"

    def test_multiline_rejection_text_joins_its_lines(self):
        script = ["220 ok", "250 ok", "250 ok", "550-no such user\r\n550 try another", "221 bye"]
        with SessionServer(play(script)) as server:
            with pytest.raises(ProtocolError) as exc:
                smtp_client.send_alert(config_for(server), sample_event())
        assert (exc.value.phase, exc.value.code) == ("rcpt", 550)
        assert exc.value.text == "no such user\ntry another"

    def test_greeting_not_220(self):
        with SessionServer(play(["554 go away"])) as server:
            with pytest.raises(ProtocolError) as exc:
                smtp_client.send_alert(config_for(server), sample_event())
        assert exc.value.phase == "greeting"

    def test_data_rejected(self):
        script = ["220 ok", "250 ok", "250 ok", "250 ok", "451 try later"]
        with SessionServer(play(script)) as server:
            with pytest.raises(ProtocolError) as exc:
                smtp_client.send_alert(config_for(server), sample_event())
        assert exc.value.phase == "data"

    def test_connect_failure_surfaces_after_retry(self):
        # bind-then-close guarantees nothing is listening on the port
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        cfg = SmtpConfig(host="127.0.0.1", port=port, sender="a@x",
                         recipients=("b@x",), timeout=1.0)
        with pytest.raises(ConnectFailed):
            smtp_client.send_alert(cfg, sample_event())


class TestDotStuffing:
    def test_leading_dot_doubled(self):
        assert dot_stuff([".hidden", "plain", "..twice"]) == \
            ["..hidden", "plain", "...twice"]

    def test_unstuff_inverts(self):
        lines = [".", "..", "ordinary", ".start"]
        assert dot_unstuff(dot_stuff(lines)) == lines

    @given(st.lists(st.text(alphabet=st.characters(min_codepoint=32,
                                                   max_codepoint=126),
                            max_size=20), max_size=10))
    def test_roundtrip_property(self, lines):
        stuffed = dot_stuff(lines)
        assert all(line != "." for line in stuffed)
        assert dot_unstuff(stuffed) == lines

    def test_stuffed_body_unstuffs_at_server(self):
        event = sample_event()
        cfg = SmtpConfig(host="h", sender="a@x", recipients=("b@x",))
        lines = smtp_client.format_alert_message(cfg, event, "mid@emonet")
        assert dot_unstuff(dot_stuff(lines)) == lines


class TestConfig:
    def test_empty_recipients_rejected(self):
        with pytest.raises(ValueError):
            SmtpConfig(host="h", sender="a@x", recipients=())

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            SmtpConfig(host="h", sender="a@x", recipients=("b@x",), timeout=0)

    @pytest.mark.parametrize("sender, recipients", [
        ("a>\r\nRSET", ("b@x",)), ("\u00e9@x", ("b@x",)), ("a@x", ("b@x", "<c@x>")),
        ("a@x", ("b@x\nQUIT",))])
    def test_address_not_sendable_verbatim_rejected(self, sender, recipients):
        # each would go into MAIL FROM:<...> or RCPT TO:<...> as it is: a line
        # break starts a command of its own, and a non-ASCII one cannot be sent
        with pytest.raises(ValueError, match="mail address"):
            SmtpConfig(host="h", sender=sender, recipients=recipients)

    @pytest.mark.parametrize("port", [0, -1, 65536, 65536 + 25])
    def test_port_outside_tcp_range_rejected(self, port):
        # the socket layer takes a port modulo 2**16, so 65561 would reach port 25
        with pytest.raises(ValueError, match="outside 1..65535"):
            SmtpConfig(host="h", sender="a@x", recipients=("b@x",), port=port)


class TestQuitAfterAccept:
    @pytest.mark.parametrize("quit_reply", ["bogus", "554 no"])
    def test_failed_quit_exchange_keeps_the_accepted_message(self, quit_reply):
        with SessionServer(play(HAPPY_SCRIPT[:-1] + [quit_reply])) as server:
            smtp_client.send_alert(config_for(server), sample_event())
        assert server.sessions[0].messages == 1
        assert server.sessions[0].commands[-1] == "QUIT"

    def test_quit_reply_is_waited_for(self):
        with SessionServer(play(HAPPY_SCRIPT, quit_delay=0.3)) as server:
            smtp_client.send_alert(config_for(server), sample_event())
            returned_at = time.monotonic()
        assert returned_at >= server.sessions[0].quit_answered_at


# A reply: a code, a separator and printable ASCII text. The codes mix the
# ones the client expects with refusals, an unknown code and malformed ones;
# the "-" separator starts a continuation that the script never finishes.
REPLY = st.builds(lambda code, sep, text: code + sep + text,
                  st.sampled_from(["220", "221", "250", "251", "354", "421", "450", "500",
                                   "550", "999", "2x0", "25", ""]),
                  st.sampled_from([" ", "x", "-", ""]),
                  st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=12))
# Random scripts rarely get a message accepted, so half of them are
# HAPPY_SCRIPT with up to two of its replies swapped for random ones.
SCRIPTS = st.one_of(
    st.lists(REPLY, min_size=1, max_size=9),
    st.dictionaries(st.integers(0, len(HAPPY_SCRIPT) - 1), REPLY, max_size=2).map(
        lambda swaps: [swaps.get(i, reply) for i, reply in enumerate(HAPPY_SCRIPT)]))


def delivered_or_refused(deliver, script) -> None:
    """deliver(config) against a server playing script either returns, with
    exactly one message accepted, or raises SmtpError."""
    with SessionServer(play(script)) as server:
        cfg = SmtpConfig(host="127.0.0.1", port=server.port, sender="a@x",
                         recipients=("b@x",), timeout=0.2)
        try:
            deliver(cfg)
        except SmtpError:
            return
    assert server.sessions[0].messages == 1


class TestAnyReplies:
    """A guard: these properties held when they were written. A 0.2 s
    client timeout bounds each example that stalls on an open reply."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(SCRIPTS)
    def test_send_alert_delivers_or_raises_smtp_error(self, script):
        delivered_or_refused(lambda cfg: smtp_client.send_alert(cfg, sample_event()), script)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(SCRIPTS)
    def test_mailer_first_send_delivers_or_raises_smtp_error(self, script):
        def first_send(cfg):
            mailer = Mailer(cfg)
            try:
                mailer.send(sample_event())
            finally:
                mailer.close()
        delivered_or_refused(first_send, script)
