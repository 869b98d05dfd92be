"""Scout-to-base streaming over a reliable in-order byte stream (TCP).

The sender writes one CRC frame per observation and blocks until it is
fully written.  The base accepts one connection at a time, reads frames,
verifies integrity, and hands decoded observations to a sink callback in
arrival order; malformed frames are counted and skipped.  Both sides
account bytes through :class:`LinkStats`, which also maintains a one
second sliding-window rate for bandwidth reporting.
"""

from __future__ import annotations

import csv
import logging
import socket
import threading
import time
from collections import deque

from .encoder import CompressedObservation
from .wire import FRAME_OVERHEAD, decode_frame, deserialize, encode_frame, serialize

_log = logging.getLogger(__name__)

RATE_WINDOW_SECONDS = 1.0
_POLL_SECONDS = 0.1


class TransportError(RuntimeError):
    """Connection-level failure; carries how many bytes were written."""

    def __init__(self, message: str, partial_bytes: int = 0):
        super().__init__(message)
        self.partial_bytes = partial_bytes


class LinkStats:
    """Monotone byte/frame counters plus a sliding-window rate.

    Thread-safe: the receiver loop updates while readers poll.  Every
    recorded event is kept as a (timestamp, bytes, rate) row so the
    session can be dumped as CSV on exit.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._window: deque[tuple[float, int]] = deque()
        self.bytes_total = 0
        self.frames = 0
        self.decode_failures = 0
        self.sink_failures = 0
        self.history: list[tuple[float, int, float]] = []

    def record_frame(self, nbytes: int) -> None:
        with self._lock:
            now = self._clock()
            self.bytes_total += nbytes
            self.frames += 1
            self._window.append((now, nbytes))
            self.history.append((now, self.bytes_total, self._rate_at(now)))

    def record_failure(self) -> None:
        with self._lock:
            self.decode_failures += 1

    def record_sink_failure(self) -> None:
        with self._lock:
            self.sink_failures += 1

    def _rate_at(self, now: float) -> float:
        while self._window and self._window[0][0] <= now - RATE_WINDOW_SECONDS:
            self._window.popleft()
        return sum(n for _, n in self._window) / RATE_WINDOW_SECONDS

    def rate(self) -> float:
        """Bytes per second over the trailing one-second window."""
        with self._lock:
            return self._rate_at(self._clock())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "bytes", "rate"])
            for row in self.history:
                writer.writerow([f"{row[0]:.6f}", row[1], f"{row[2]:.1f}"])


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    return host, int(port)


def connect(endpoint: str, timeout: float = 10.0) -> socket.socket:
    """Open a TCP connection to a base endpoint."""
    host, port = parse_endpoint(endpoint)
    try:
        return socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"could not connect to {endpoint}: {exc}") from exc


def send_observation(connection: socket.socket, obs: CompressedObservation,
                     stats: LinkStats | None = None) -> LinkStats:
    """Write one frame, blocking until complete; returns updated stats.

    The frame costs serialized size + 8 bytes of framing.  Stats are only
    incremented once the whole frame is on the wire, so a failed send
    leaves them untouched.
    """
    if stats is None:
        stats = LinkStats()
    frame = encode_frame(serialize(obs))
    sent = 0
    while sent < len(frame):
        try:
            written = connection.send(frame[sent:])
        except OSError as exc:
            raise TransportError(
                f"send failed after {sent} of {len(frame)} bytes: {exc}", sent
            ) from exc
        if written == 0:
            raise TransportError(
                f"connection closed after {sent} of {len(frame)} bytes", sent)
        sent += written
    stats.record_frame(len(frame))
    return stats


def _read_exactly(connection: socket.socket, n: int,
                  shutdown: threading.Event) -> bytes | None:
    """Read n bytes, polling for shutdown; None on clean stream end."""
    chunks, got = [], 0
    while got < n:
        if shutdown.is_set():
            return None
        try:
            chunk = connection.recv(n - got)
        except socket.timeout:
            continue
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def serve_base(endpoint: str, sink, shutdown: threading.Event | None = None,
               stats: LinkStats | None = None) -> LinkStats:
    """Accept one connection at a time and feed decoded frames to sink.

    Runs until the shutdown event is set (or KeyboardInterrupt).  Frames
    failing CRC or deserialization are counted in stats.decode_failures
    and skipped without dropping the connection; an exception raised by
    sink is logged, counted in stats.sink_failures, and serving goes on.
    """
    if shutdown is None:
        shutdown = threading.Event()
    if stats is None:
        stats = LinkStats()
    host, port = parse_endpoint(endpoint)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((host, port))
    except OSError as exc:
        listener.close()
        raise TransportError(f"could not bind {endpoint}: {exc}") from exc
    listener.listen(1)
    listener.settimeout(_POLL_SECONDS)
    try:
        while not shutdown.is_set():
            try:
                connection, _ = listener.accept()
            except socket.timeout:
                continue
            with connection:
                connection.settimeout(_POLL_SECONDS)
                _serve_connection(connection, sink, shutdown, stats)
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return stats


def _serve_connection(connection: socket.socket, sink,
                      shutdown: threading.Event, stats: LinkStats) -> None:
    while not shutdown.is_set():
        head = _read_exactly(connection, 4, shutdown)
        if head is None:
            return
        length = int.from_bytes(head, "little")
        body = _read_exactly(connection, length + 4, shutdown)
        if body is None:
            return
        stats.record_frame(FRAME_OVERHEAD + length)
        try:
            obs = deserialize(decode_frame(head + body))
        except ValueError:  # WireFormatError included
            stats.record_failure()
            continue
        try:
            sink(obs)
        except Exception:
            _log.exception("sink failed on an observation; serving on")
            stats.record_sink_failure()
