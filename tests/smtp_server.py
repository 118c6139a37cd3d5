"""The tests' SMTP server: one scripted session per accepted connection.

A handler, handler(conn, reader, session), speaks one session over conn
(reader is its buffered input) and records what the client did in session.
play(script) gives the handler of a well-behaved server; the others are
servers that misbehave in one way each.
"""

import socket
import struct
import threading
import time
from dataclasses import dataclass, field


def dot_unstuff(lines: list[str]) -> list[str]:
    return [line[1:] if line.startswith("..") else line for line in lines]


@dataclass
class Session:
    commands: list[str] = field(default_factory=list)
    body_lines: list[str] = field(default_factory=list)   # as received (stuffed)
    raw: bytes = b""                                      # every line the server read
    messages: int = 0
    quit_answered_at: float | None = None                 # time.monotonic()
    talked_early: bool = False                            # input before the greeting

    @property
    def frames(self) -> list[str]:
        """The "frame: N" body lines."""
        return [line for line in self.body_lines if line.startswith("frame: ")]

    def unstuffed_body(self) -> list[str]:
        return dot_unstuff(self.body_lines)


def play(script, quit_delay=0.0):
    """A session that plays script: the greeting, then one reply per command
    and a body until the lone '.'; it hangs up when the script runs out.
    QUIT always gets the script's last reply, after quit_delay seconds."""
    def serve(conn, reader, session):
        replies = iter(script)
        conn.sendall(next(replies).encode() + b"\r\n")
        in_data = False
        for raw in reader:
            session.raw += raw
            text = raw.decode().rstrip("\r\n")
            if not in_data:
                session.commands.append(text)
                if text == "QUIT":
                    time.sleep(quit_delay)
                    session.quit_answered_at = time.monotonic()
                    conn.sendall(script[-1].encode() + b"\r\n")
                    return
            elif text != ".":
                session.body_lines.append(text)
                continue
            else:
                session.messages += 1
            reply = next(replies, None)
            if reply is None:
                return
            conn.sendall(reply.encode() + b"\r\n")
            in_data = reply.startswith("354")
    return serve


def flood(greeting: bytes, filler: bytes = b"", limit: int = 4 << 20):
    """A session that sends greeting, then filler over and over until the
    client hangs up or limit bytes are out; it reads nothing."""
    def serve(conn, reader, session):
        conn.sendall(greeting)
        sent = len(greeting)
        while filler and sent < limit:
            conn.sendall(filler)
            sent += len(filler)
    return serve


def hang_up(conn, reader, session):
    """The server closed the connection while it sat idle."""


def reset(conn, reader, session):
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def greet_then_hang_up(conn, reader, session):
    conn.sendall(b"220 ready\r\n")


def idle_timeout_421(conn, reader, session):
    conn.sendall(b"421 idle too long, closing\r\n")


def reset_after_ehlo(conn, reader, session):
    conn.sendall(b"220 ready\r\n")
    session.commands.append(reader.readline().decode().rstrip("\r\n"))
    reset(conn, reader, session)


def silent(conn, reader, session):
    """Accepts and never says a word; reads until the client hangs up."""
    for raw in reader:
        session.commands.append(raw.decode().rstrip("\r\n"))


class SessionServer:
    """Serves one scripted session per accepted connection, in accept order,
    each on a thread of its own, and stops listening after the last one, so
    that later connects are refused, not left hanging."""

    def __init__(self, *handlers):
        self.handlers = handlers
        self.sessions = [Session() for _ in handlers]
        self.accepted = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(10)
        self.port = self._sock.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept, daemon=True)]

    def __enter__(self):
        self._threads[0].start()
        return self

    def __exit__(self, *exc):
        self._sock.close()
        for thread in self._threads:
            thread.join(timeout=10)
        return False

    def _accept(self):
        try:
            for handler, session in zip(self.handlers, self.sessions):
                conn, _ = self._sock.accept()
                self.accepted += 1
                thread = threading.Thread(target=self._serve, daemon=True,
                                          args=(conn, handler, session))
                self._threads.append(thread)
                thread.start()
        except OSError:
            pass
        finally:
            self._sock.close()

    @staticmethod
    def _serve(conn, handler, session):
        with conn, conn.makefile("rb") as reader:
            conn.settimeout(10)
            try:
                handler(conn, reader, session)
            except OSError:
                pass
