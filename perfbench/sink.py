"""SMTP sink for the stream-cnn-mail workload, run as its own process.

It stands in for a relay a few milliseconds away: it serves sessions one
after another on 127.0.0.1, answers every command after a fixed delay, and
checks each session's dialogue and message. Its first stdout line is its
port; after that it prints one JSON record per message, stamped with
time.monotonic() when the message's final "." arrived (CLOCK_MONOTONIC, so
the stamps compare with the parent process's). It exits when stdin closes.

    python3 perfbench/sink.py DELAY_SECONDS
"""

from __future__ import annotations

import json
import os
import queue
import selectors
import socket
import subprocess
import sys
import threading
import time

HEADERS = ("From", "To", "Subject", "Date", "Message-ID")


def _session(conn: socket.socket, delay: float, seq: int) -> None:
    """Serve one session, printing its message record (or its problems)."""
    with conn.makefile("rb") as reader:
        _dialogue(conn, reader, delay, seq)


def _dialogue(conn: socket.socket, reader, delay: float, seq: int) -> None:
    def reply(text: str) -> None:
        time.sleep(delay)
        conn.sendall(text.encode("ascii") + b"\r\n")

    problems: list[str] = []
    record = None
    mail_from, rcpts, stage = None, [], "greeting"
    reply("220 sink ready")
    while True:
        raw = reader.readline()
        if not raw:
            problems.append("connection closed before QUIT")
            break
        if not raw.endswith(b"\r\n"):
            problems.append(f"line without CRLF: {raw[:40]!r}")
        line = raw.rstrip(b"\r\n").decode("ascii", "replace")
        verb = line[:4].upper()
        if verb in ("EHLO", "HELO"):
            stage = "hello"
            reply("250 sink")
        elif line.upper().startswith("MAIL FROM:"):
            if stage != "hello":
                problems.append(f"MAIL during {stage}")
            mail_from, stage = line[10:].strip().strip("<>"), "mail"
            reply("250 ok")
        elif line.upper().startswith("RCPT TO:"):
            if stage not in ("mail", "rcpt"):
                problems.append(f"RCPT during {stage}")
            rcpts.append(line[8:].strip().strip("<>"))
            stage = "rcpt"
            reply("250 ok")
        elif verb == "DATA":
            if stage != "rcpt":
                problems.append(f"DATA during {stage}")
            reply("354 end with <CRLF>.<CRLF>")
            lines, t_end = _read_body(reader, problems)
            problems += _check_message(lines)
            record = {"seq": seq, "t_end": t_end, "mail_from": mail_from,
                      "rcpt": rcpts, "lines": lines, "problems": problems}
            # the record is out before the 250, so the client never sees an unrecorded accept
            sys.stdout.write(json.dumps(record) + "\n")
            sys.stdout.flush()
            stage = "sent"
            reply("250 queued")
        elif verb == "QUIT":
            reply("221 bye")
            break
        else:
            problems.append(f"unknown command {line[:40]!r}")
            reply("500 unknown command")
    if record is None and problems:
        sys.stdout.write(json.dumps({"seq": seq, "t_end": time.monotonic(), "lines": [],
                                     "problems": problems}) + "\n")
        sys.stdout.flush()


def _read_body(reader, problems: list[str]) -> tuple[list[str], float]:
    lines = []
    while True:
        raw = reader.readline()
        if not raw:
            problems.append("connection closed inside DATA")
            return lines, time.monotonic()
        line = raw.rstrip(b"\r\n").decode("ascii", "replace")
        if line == ".":
            return lines, time.monotonic()
        if line.startswith("."):
            if not line.startswith(".."):
                problems.append(f"unstuffed leading dot: {line[:40]!r}")
            line = line[1:]
        lines.append(line)


def _check_message(lines: list[str]) -> list[str]:
    """Headers, one blank line, then a non-empty body of printable ASCII."""
    if "" not in lines:
        return ["no blank line after the headers"]
    blank = lines.index("")
    names = [h.split(":", 1)[0] for h in lines[:blank]]
    problems = [f"missing header {h}" for h in HEADERS if h not in names]
    problems += [f"malformed header {h[:40]!r}" for h in lines[:blank] if ": " not in h]
    if blank == len(lines) - 1:
        problems.append("empty body")
    problems += [f"line over 998 chars or non-printable: {line[:40]!r}"
                 for line in lines if len(line) > 998 or not line.isprintable()]
    return problems


def main() -> int:
    delay = float(sys.argv[1])
    listener = socket.create_server(("127.0.0.1", 0), backlog=4)
    print(listener.getsockname()[1], flush=True)
    sel = selectors.DefaultSelector()
    sel.register(listener, selectors.EVENT_READ)
    sel.register(sys.stdin.fileno(), selectors.EVENT_READ)
    seq = 0
    try:
        while True:
            for key, _ in sel.select():
                if key.fileobj is listener:
                    conn, _ = listener.accept()
                    with conn:
                        conn.settimeout(30)
                        try:
                            _session(conn, delay, seq)
                        except OSError as exc:
                            sys.stdout.write(json.dumps(
                                {"seq": seq, "t_end": time.monotonic(), "lines": [],
                                 "problems": [f"socket error: {exc}"]}) + "\n")
                            sys.stdout.flush()
                    seq += 1
                elif not os.read(sys.stdin.fileno(), 4096):
                    return 0
    finally:
        listener.close()


class Sink:
    """Parent-side handle: starts the sink process and collects its records."""

    def __init__(self, delay: float):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(delay)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.port = int(self._proc.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError("SMTP sink did not start") from None
        self._records: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._collect, daemon=True)
        self._thread.start()

    def _collect(self) -> None:
        for raw in self._proc.stdout:
            self._records.put(json.loads(raw))

    def take(self, n: int, timeout: float = 10.0) -> list[dict]:
        """The next n records; fewer if they do not arrive within timeout."""
        out, deadline = [], time.monotonic() + timeout
        while len(out) < n:
            try:
                out.append(self._records.get(timeout=max(0.0, deadline - time.monotonic())))
            except queue.Empty:
                break
        return out

    def drain(self) -> list[dict]:
        """Records that arrived unasked for, e.g. a session with no DATA."""
        out = []
        while not self._records.empty():
            out.append(self._records.get_nowait())
        return out

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if hasattr(self, "_thread"):
            self._thread.join(timeout=10)
        self._proc.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
