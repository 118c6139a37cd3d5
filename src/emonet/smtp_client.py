"""Minimal SMTP mail submission for alert delivery, plus a scriptable
in-process stub server for tests.

The client speaks the bare dialogue (EHLO/MAIL/RCPT/DATA/QUIT) over a
plain TCP socket with CRLF framing and dot-stuffing; no TLS, no AUTH.
Deployments that need authentication should relay through a local MTA.
"""

from __future__ import annotations

import socket
import threading
import uuid
from dataclasses import dataclass, field
from email.utils import format_datetime

from .alerts import AlertEvent
from .classifiers import LABELS


class SmtpError(Exception):
    pass


class ConnectFailed(SmtpError):
    pass


class SmtpTimeout(SmtpError):
    def __init__(self, phase: str):
        super().__init__(f"timed out during {phase}")
        self.phase = phase


class ProtocolError(SmtpError):
    def __init__(self, phase: str, code: int, text: str):
        super().__init__(f"unexpected {code} {text!r} during {phase}")
        self.phase = phase
        self.code = code
        self.text = text


@dataclass(frozen=True)
class SmtpConfig:
    host: str
    sender: str
    recipients: tuple[str, ...]
    port: int = 25
    hello_name: str = "emonet"
    timeout: float = 10.0

    def __post_init__(self):
        if not self.recipients:
            raise ValueError("recipient list must be nonempty")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class DeliveryReceipt:
    accepted: bool
    transcript: tuple[tuple[int, str], ...]
    message_id: str


def dot_stuff(lines: list[str]) -> list[str]:
    """Double a leading '.' so the lone '.' terminator stays unambiguous."""
    return ["." + line if line.startswith(".") else line for line in lines]


def dot_unstuff(lines: list[str]) -> list[str]:
    return [line[1:] if line.startswith("..") else line for line in lines]


def format_alert_message(config: SmtpConfig, event: AlertEvent,
                         message_id: str) -> list[str]:
    scores = " ".join(
        f"{name}={p:.4f}" for name, p in zip(LABELS, event.scores_snapshot.probs))
    return [
        f"From: {config.sender}",
        f"To: {', '.join(config.recipients)}",
        f"Subject: EMONET ALERT: {event.label}",
        f"Date: {format_datetime(event.wall_time)}",
        f"Message-ID: <{message_id}>",
        "",
        f"label: {event.label}",
        f"frame: {event.frame_index}",
        f"count: {event.counter_value}",
        f"scores: {scores}",
    ]


# RFC 5321 4.5.3.1.5: a reply line, code and CRLF included, is at most 512 octets
MAX_REPLY_LINE = 512


class _Dialogue:
    """Lock-step command/reply exchange over one buffered socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.transcript: list[tuple[int, str]] = []

    def read_reply(self, phase: str) -> tuple[int, str]:
        """Read one (possibly multi-line 250-.../250 ...) reply."""
        texts = []
        while True:
            try:
                raw = self.reader.readline(MAX_REPLY_LINE + 1)
            except socket.timeout:
                raise SmtpTimeout(phase) from None
            if not raw:
                raise ProtocolError(phase, 0, "connection closed by server")
            if len(raw) > MAX_REPLY_LINE:
                raise ProtocolError(phase, 0, f"reply line over {MAX_REPLY_LINE} octets")
            line = raw.decode("ascii", "replace").rstrip("\r\n")
            if len(line) < 3 or not line[:3].isdigit():
                raise ProtocolError(phase, 0, f"unparseable reply {line!r}")
            code = int(line[:3])
            texts.append(line[4:] if len(line) > 4 else "")
            if len(line) < 4 or line[3] != "-":
                reply = (code, "\n".join(texts))
                self.transcript.append(reply)
                return reply

    def send_line(self, line: str) -> None:
        self.sock.sendall(line.encode("ascii") + b"\r\n")

    def command(self, line: str, phase: str) -> tuple[int, str]:
        self.send_line(line)
        return self.read_reply(phase)

    def expect(self, line: str | None, phase: str, *codes: int) -> None:
        """Send line (None sends nothing), read the reply and raise
        ProtocolError for phase unless its code is one of codes."""
        if line is not None:
            self.send_line(line)
        code, text = self.read_reply(phase)
        if code not in codes:
            raise ProtocolError(phase, code, text)


def _connect(config: SmtpConfig) -> socket.socket:
    try:
        return socket.create_connection((config.host, config.port),
                                        timeout=config.timeout)
    except socket.timeout as exc:
        raise SmtpTimeout("connect") from exc
    except OSError as exc:
        raise ConnectFailed(f"cannot reach {config.host}:{config.port}: {exc}") from exc


def send_alert(config: SmtpConfig, event: AlertEvent) -> DeliveryReceipt:
    """Deliver one alert email; returns the receipt with the server transcript.

    One reconnect is attempted after a failed connect; a server rejection
    (ProtocolError) is never retried. The connection is always quit or
    closed, even on errors.
    """
    try:
        sock = _connect(config)
    except ConnectFailed:
        sock = _connect(config)
    message_id = f"{uuid.uuid4().hex}@{config.hello_name}"
    dialogue = _Dialogue(sock)
    try:
        dialogue.expect(None, "greeting", 220)
        code, text = dialogue.command(f"EHLO {config.hello_name}", "ehlo")
        if 500 <= code < 600:
            code, text = dialogue.command(f"HELO {config.hello_name}", "helo")
        if code != 250:
            raise ProtocolError("hello", code, text)
        dialogue.expect(f"MAIL FROM:<{config.sender}>", "mail", 250)
        for rcpt in config.recipients:
            dialogue.expect(f"RCPT TO:<{rcpt}>", "rcpt", 250, 251)
        dialogue.expect("DATA", "data", 354)
        # The body and its lone '.' terminator go out in one write: a write
        # per line would leave each small segment waiting on the server's
        # delayed ACK (Nagle's algorithm), tens of ms per message.
        body = "".join(line + "\r\n" for line in
                       dot_stuff(format_alert_message(config, event, message_id)))
        dialogue.expect(body + ".", "data-end", 250)
        dialogue.command("QUIT", "quit")
        return DeliveryReceipt(accepted=True,
                               transcript=tuple(dialogue.transcript),
                               message_id=message_id)
    except SmtpError:
        try:
            dialogue.send_line("QUIT")
        except OSError:
            pass
        raise
    finally:
        try:
            sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# stub server (test double)
# ---------------------------------------------------------------------------

@dataclass
class CapturedSession:
    commands: list[str] = field(default_factory=list)
    body_lines: list[str] = field(default_factory=list)   # as received (stuffed)
    raw: bytes = b""

    def unstuffed_body(self) -> list[str]:
        return dot_unstuff(self.body_lines)


class StubSmtpServer:
    """One-session scripted SMTP server bound to an ephemeral local port.

    Replies are played back in order: the first is sent unprompted as the
    greeting, each later one after a client command. While a 354 reply is
    outstanding, client lines are captured as message body until the lone
    '.' terminator.
    """

    def __init__(self, script: list[str]):
        if not script:
            raise ValueError("script must cover at least the greeting")
        self.script = list(script)
        self.session = CapturedSession()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
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
        try:
            self._sock.settimeout(10)
            conn, _ = self._sock.accept()
        except OSError:
            return
        with conn:
            conn.settimeout(10)
            reader = conn.makefile("rb")
            replies = iter(self.script)
            raw = bytearray()
            try:
                conn.sendall((next(replies) + "\r\n").encode("ascii"))
                in_data = False
                while True:
                    line = reader.readline()
                    if not line:
                        break
                    raw += line
                    text = line.decode("ascii", "replace").rstrip("\r\n")
                    if in_data:
                        if text == ".":
                            in_data = False
                            reply = next(replies, None)
                            if reply is None:
                                break
                            conn.sendall((reply + "\r\n").encode("ascii"))
                        else:
                            self.session.body_lines.append(text)
                        continue
                    self.session.commands.append(text)
                    if text.upper() == "QUIT":
                        conn.sendall(
                            (next(replies, "221 bye") + "\r\n").encode("ascii"))
                        break
                    reply = next(replies, None)
                    if reply is None:
                        break
                    conn.sendall((reply + "\r\n").encode("ascii"))
                    if reply.startswith("354"):
                        in_data = True
            except OSError:
                pass
            finally:
                self.session.raw = bytes(raw)
