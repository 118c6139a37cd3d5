"""Minimal SMTP mail submission for alert delivery.

The client speaks the bare dialogue (EHLO/MAIL/RCPT/DATA/QUIT) over a
plain TCP socket with CRLF framing and dot-stuffing; no TLS, no AUTH.
Deployments that need authentication should relay through a local MTA.
send_alert delivers one message over a session of its own. A Mailer
delivers a run's alerts, still one session each, but keeps a spare
connection open so that the server's greeting arrives between alerts.
"""

from __future__ import annotations

import math
import socket
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from email.utils import format_datetime

from .alerts import AlertEvent
from .classifiers import LABELS

HELLO_NAME = "emonet"   # the EHLO/HELO domain and the Message-ID's right-hand side


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


class ServerHungUp(ProtocolError):
    """The server closed or reset the connection; the reply code is 0."""

    def __init__(self, phase: str, text: str):
        super().__init__(phase, 0, text)


def check_port_and_addresses(port: int, addresses) -> None:
    """Raise ValueError unless port is in 1..65535 and every address is ASCII
    without CR, LF, '<' and '>': the addresses go verbatim into MAIL FROM:<...>
    and RCPT TO:<...>, where a line break would start a command of its own."""
    if not 1 <= port <= 65535:
        raise ValueError(f"smtp port {port} outside 1..65535")
    for address in addresses:
        if not address.isascii() or any(ch in address for ch in "\r\n<>"):
            raise ValueError(f"mail address {address!r} is not ASCII without "
                             "CR, LF, '<' and '>'")


@dataclass(frozen=True)
class SmtpConfig:
    host: str
    sender: str
    recipients: tuple[str, ...]
    port: int = 25
    timeout: float = 10.0

    def __post_init__(self):
        # socket.create_connection encodes the host so; a failure there is
        # a UnicodeError, not an SmtpError
        try:
            self.host.encode("idna")
        except UnicodeError as exc:
            raise ValueError(f"smtp host {self.host!r}: {exc}") from None
        if not self.recipients:
            raise ValueError("recipient list must be nonempty")
        check_port_and_addresses(self.port, (self.sender, *self.recipients))
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be positive and finite")


def dot_stuff(lines: list[str]) -> list[str]:
    """Double a leading '.' so the lone '.' terminator stays unambiguous."""
    return ["." + line if line.startswith(".") else line for line in lines]


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
# RFC 5321 sets no limit on the lines of one reply; a real one has a few dozen at most
MAX_REPLY_LINES = 100


class _Dialogue:
    """Lock-step command/reply exchange over one buffered socket.

    Socket errors surface as SmtpError: a timeout as SmtpTimeout, an EOF or
    a reset as ServerHungUp.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def read_reply(self, phase: str) -> tuple[int, str]:
        """Read one (possibly multi-line 250-.../250 ...) reply."""
        texts = []
        while True:
            try:
                raw = self.reader.readline(MAX_REPLY_LINE + 1)
            except socket.timeout:
                raise SmtpTimeout(phase) from None
            except OSError as exc:
                raise ServerHungUp(phase, str(exc)) from exc
            if not raw:
                raise ServerHungUp(phase, "connection closed by server")
            if len(raw) > MAX_REPLY_LINE:
                raise ProtocolError(phase, 0, f"reply line over {MAX_REPLY_LINE} octets")
            line = raw.decode("ascii", "replace").rstrip("\r\n")
            if len(line) < 3 or not line[:3].isdigit():
                raise ProtocolError(phase, 0, f"unparseable reply {line!r}")
            code = int(line[:3])
            texts.append(line[4:] if len(line) > 4 else "")
            if len(line) < 4 or line[3] != "-":
                return code, "\n".join(texts)
            if len(texts) == MAX_REPLY_LINES:
                raise ProtocolError(phase, 0, f"reply over {MAX_REPLY_LINES} lines")

    def send_line(self, line: str, phase: str) -> None:
        try:
            self.sock.sendall(line.encode("ascii") + b"\r\n")
        except socket.timeout:
            raise SmtpTimeout(phase) from None
        except OSError as exc:
            raise ServerHungUp(phase, str(exc)) from exc

    def command(self, line: str, phase: str) -> tuple[int, str]:
        self.send_line(line, phase)
        return self.read_reply(phase)

    def expect(self, line: str | None, phase: str, *codes: int) -> None:
        """Send line (None sends nothing), read the reply and raise
        ProtocolError for phase unless its code is one of codes."""
        if line is not None:
            self.send_line(line, phase)
        code, text = self.read_reply(phase)
        if code not in codes:
            raise ProtocolError(phase, code, text)

    @contextmanager
    def aborting(self):
        """If the block raises, say QUIT without waiting for the reply,
        close the connection and re-raise."""
        try:
            yield
        except BaseException:
            self.quit()
            self.close()
            raise

    def quit(self) -> None:
        """Send QUIT without reading the reply; a failed send is ignored."""
        try:
            self.send_line("QUIT", "quit")
        except SmtpError:
            pass

    def read_by(self, deadline: float, phase: str) -> tuple[int, str]:
        """read_reply, waiting until the time.monotonic() deadline (or for
        1 ms if it has passed)."""
        self.sock.settimeout(max(deadline - time.monotonic(), 1e-3))
        return self.read_reply(phase)

    def finish(self, deadline: float) -> None:
        """Read the QUIT reply until the deadline, then close. A late, bad
        or missing reply is ignored: QUIT is only sent after an accepted
        message, on a failed session or to an unused spare."""
        try:
            self.read_by(deadline, "quit")
        except (SmtpError, OSError):
            pass
        self.close()

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


def _connect(config: SmtpConfig) -> socket.socket:
    try:
        return socket.create_connection((config.host, config.port),
                                        timeout=config.timeout)
    except socket.timeout as exc:
        raise SmtpTimeout("connect") from exc
    except OSError as exc:
        raise ConnectFailed(f"cannot reach {config.host}:{config.port}: {exc}") from exc


def _open(config: SmtpConfig) -> _Dialogue:
    """A new connection; one reconnect is attempted after a failed connect."""
    try:
        return _Dialogue(_connect(config))
    except ConnectFailed:
        return _Dialogue(_connect(config))


def _hello(dialogue: _Dialogue, config: SmtpConfig) -> None:
    """Read the greeting and say EHLO, or HELO if the server refuses EHLO."""
    dialogue.expect(None, "greeting", 220)
    code, text = dialogue.command(f"EHLO {HELLO_NAME}", "ehlo")
    if 500 <= code < 600:
        code, text = dialogue.command(f"HELO {HELLO_NAME}", "helo")
    if code != 250:
        raise ProtocolError("hello", code, text)


def _transaction(dialogue: _Dialogue, config: SmtpConfig, event: AlertEvent) -> None:
    """Send one message, with a fresh <uuid4 hex@emonet> Message-ID, over a
    greeted session; returns once the server has accepted it (the 250 after
    the end of data)."""
    message_id = f"{uuid.uuid4().hex}@{HELLO_NAME}"
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


def send_alert(config: SmtpConfig, event: AlertEvent) -> None:
    """Deliver one alert email over a session of its own; returns once the
    QUIT reply is read (or has timed out), and raises SmtpError if the
    message was not accepted.

    One reconnect is attempted after a failed connect; a server rejection
    (ProtocolError) is never retried. The connection is always quit or
    closed, even on errors. Once the server has accepted the message, a
    failed QUIT exchange is ignored.
    """
    dialogue = _open(config)
    with dialogue.aborting():
        _hello(dialogue, config)
        _transaction(dialogue, config, event)
    dialogue.quit()
    dialogue.finish(time.monotonic() + config.timeout)


class Mailer:
    """Run-scoped alert delivery that keeps one spare connection open.

    Building a Mailer opens nothing: the first send connects as send_alert
    does. Right after each message is accepted, the Mailer opens a spare
    connection for the next one, so the server's greeting arrives while the
    caller does other work; the connect itself is still paid inside that
    send(). Each message gets a session of its own; after its end-of-data
    250 the Mailer sends QUIT and reads the reply later, at the next send or
    in close(). No thread is involved: all I/O happens inside send() and
    close().

    Failure semantics:
    - A spare that could not be opened, or that the server closed while it
      sat idle (EOF, reset or a 421 before the transaction), is replaced
      once by a fresh connection, with send_alert's connect retry.
    - A spare that never greets fails the alert after one timeout; no new
      spare is opened after a failed send.
    - A late, bad or missing QUIT reply never fails or delays an alert.
    - close() waits at most config.timeout in all and never raises.
    """

    def __init__(self, config: SmtpConfig):
        self.config = config
        self._quitting: _Dialogue | None = None   # QUIT sent, reply unread
        self._spare: _Dialogue | None = None      # connected, greeting unread

    def _open_spare(self) -> _Dialogue | None:
        try:
            return _open(self.config)
        except SmtpError:
            return None

    def _greeted(self) -> _Dialogue:
        """The spare after its greeting and EHLO, or a fresh session if the
        spare is missing or the server hung up on it."""
        spare, self._spare = self._spare, None
        if spare is not None:
            try:
                with spare.aborting():
                    _hello(spare, self.config)
                return spare
            except ProtocolError as exc:
                if exc.code != 421 and not isinstance(exc, ServerHungUp):
                    raise     # a refusal, not a server that hung up on the idle spare
        dialogue = _open(self.config)
        with dialogue.aborting():
            _hello(dialogue, self.config)
        return dialogue

    def send(self, event: AlertEvent) -> None:
        """Deliver one alert; returns once the server has accepted it and a
        spare connection for the next one has been tried, and raises
        SmtpError if it was not accepted. The QUIT reply is read later."""
        if self._quitting is not None:
            # its reply is read only if it is already here, so that a late
            # one delays no alert; a server serving one session at a time
            # sends it before the spare's greeting anyway
            self._quitting.finish(time.monotonic())
            self._quitting = None
        dialogue = self._greeted()
        with dialogue.aborting():
            _transaction(dialogue, self.config, event)
        dialogue.quit()
        self._quitting = dialogue
        self._spare = self._open_spare()

    def close(self) -> None:
        """Read the last QUIT reply, then the spare's greeting, and quit the
        spare, waiting at most config.timeout in all; never raises. The
        spare is quit only after its greeting (RFC 5321 4.3.1: a client
        waits for the greeting before it speaks)."""
        deadline = time.monotonic() + self.config.timeout
        pending, self._quitting = self._quitting, None
        spare, self._spare = self._spare, None
        if pending is not None:
            pending.finish(deadline)
        if spare is None:
            return
        try:
            code, _ = spare.read_by(deadline, "greeting")
        except (SmtpError, OSError):
            code = 0
        if code == 220:
            spare.quit()
            spare.finish(deadline)
        else:
            spare.close()
