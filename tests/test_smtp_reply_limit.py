"""SMTP replies are bounded, in octets per line and in lines per reply: a
server that never ends a line or a reply cannot grow the client's memory
without bound."""

import time

import pytest

from emonet import smtp_client
from emonet.smtp_client import MAX_REPLY_LINE, MAX_REPLY_LINES, ProtocolError, SmtpConfig
from smtp_server import SessionServer, flood
from test_smtp import sample_event


def send_to(server: SessionServer):
    cfg = SmtpConfig(host="127.0.0.1", port=server.port, sender="a@x",
                     recipients=("b@x",), timeout=5.0)
    with pytest.raises(ProtocolError) as exc:
        smtp_client.send_alert(cfg, sample_event())
    return exc.value


def test_endless_reply_line_is_a_protocol_error():
    with SessionServer(flood(b"220 ", filler=b"x" * 4096)) as server:
        err = send_to(server)
    assert (err.phase, err.code) == ("greeting", 0)
    assert str(MAX_REPLY_LINE) in err.text


@pytest.mark.parametrize("octets, phase", [(MAX_REPLY_LINE, "ehlo"),
                                           (MAX_REPLY_LINE + 1, "greeting")])
def test_longest_allowed_reply_line_is_read(octets, phase):
    """A 512-octet greeting is accepted (the client goes on to EHLO and finds
    the connection closed); one octet more is refused."""
    line = b"220 " + b"x" * (octets - 6) + b"\r\n"
    assert len(line) == octets
    with SessionServer(flood(line)) as server:
        err = send_to(server)
    assert (err.phase, err.code) == (phase, 0)


def test_endless_multiline_reply_is_a_protocol_error():
    """200,000 continuation lines (12.8 MB) are refused after MAX_REPLY_LINES."""
    line = b"220-" + b"x" * 58 + b"\r\n"
    with SessionServer(flood(b"", filler=line, limit=200_000 * len(line))) as server:
        start = time.monotonic()
        err = send_to(server)
        elapsed = time.monotonic() - start
    assert (err.phase, err.code) == ("greeting", 0)
    assert str(MAX_REPLY_LINES) in err.text
    assert elapsed < 1.0


@pytest.mark.parametrize("lines, phase", [(MAX_REPLY_LINES, "ehlo"),
                                          (MAX_REPLY_LINES + 1, "greeting")])
def test_longest_allowed_multiline_reply_is_read(lines, phase):
    """A greeting of MAX_REPLY_LINES lines is accepted (the client goes on to
    EHLO and finds the connection closed); one line more is refused."""
    greeting = b"220-x\r\n" * (lines - 1) + b"220 ok\r\n"
    with SessionServer(flood(greeting)) as server:
        err = send_to(server)
    assert (err.phase, err.code) == (phase, 0)
