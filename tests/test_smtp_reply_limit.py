"""SMTP reply lines are bounded: a server that never ends a line cannot grow
the client's memory without bound."""

import socket
import threading

import pytest

from emonet import smtp_client
from emonet.smtp_client import MAX_REPLY_LINE, ProtocolError, SmtpConfig
from test_smtp import sample_event


class RawServer:
    """Accepts one connection, sends `greeting` and then `filler` in a loop
    until the client hangs up or `limit` bytes are out, then closes."""

    def __init__(self, greeting: bytes, filler: bytes = b"", limit: int = 4 << 20):
        self.greeting, self.filler, self.limit = greeting, filler, limit
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._sock.close()
        self._thread.join(timeout=5)
        return False

    def _serve(self):
        self._sock.settimeout(10)
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return
        with conn:
            try:
                conn.sendall(self.greeting)
                sent = len(self.greeting)
                while self.filler and sent < self.limit:
                    conn.sendall(self.filler)
                    sent += len(self.filler)
            except OSError:
                pass


def send_to(server: RawServer):
    cfg = SmtpConfig(host="127.0.0.1", port=server.port, sender="a@x",
                     recipients=("b@x",), timeout=5.0)
    with pytest.raises(ProtocolError) as exc:
        smtp_client.send_alert(cfg, sample_event())
    return exc.value


def test_endless_reply_line_is_a_protocol_error():
    with RawServer(b"220 ", filler=b"x" * 4096) as server:
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
    with RawServer(line) as server:
        err = send_to(server)
    assert (err.phase, err.code) == (phase, 0)
