"""Transport: framing over TCP loopback, stats accounting, corruption."""

import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest

from sgpcodec.encoder import CompressedObservation
from sgpcodec.geometry import Pose
from sgpcodec.kernel import RQHyperparams
from sgpcodec.transport import (
    LinkStats,
    TransportError,
    connect,
    parse_endpoint,
    send_observation,
    serve_base,
)
from sgpcodec.wire import HEADER_SIZE, encode_frame, message_size, serialize


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_observation(rng, m=8):
    triples = np.column_stack([rng.uniform(-3, 3, m),
                               rng.uniform(0.5, 2.5, m),
                               rng.uniform(0.5, 9.5, m)]).astype(np.float32)
    hp = RQHyperparams.from_array(np.float32(RQHyperparams().as_array()))
    return CompressedObservation(Pose(), 10.0, hp, triples)


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(sink, stats):
    port = free_port()
    endpoint = f"127.0.0.1:{port}"
    shutdown = threading.Event()
    thread = threading.Thread(
        target=serve_base, args=(endpoint, sink, shutdown, stats), daemon=True)
    thread.start()
    return endpoint, shutdown, thread


def connect_with_retry(endpoint, deadline=5.0):
    end = time.monotonic() + deadline
    while True:
        try:
            return connect(endpoint, timeout=1.0)
        except TransportError:
            if time.monotonic() > end:
                raise
            time.sleep(0.02)


def wait_until(predicate, deadline=5.0):
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.01)
    return True


class TestLinkStats:
    def test_counters_accumulate(self):
        stats = LinkStats(clock=FakeClock())
        stats.record_frame(100)
        stats.record_frame(50)
        stats.record_failure()
        assert stats.bytes_total == 150
        assert stats.frames == 2
        assert stats.decode_failures == 1

    def test_paced_sender_rate_matches_nominal(self):
        # 10 frames/s of 608-byte frames -> 6080 B/s in the steady state
        clock = FakeClock()
        stats = LinkStats(clock=clock)
        frame_bytes = message_size(50) + 8
        for tick in range(30):
            clock.now = tick * 0.1
            stats.record_frame(frame_bytes)
        nominal = 10 * frame_bytes
        assert abs(stats.rate() - nominal) <= 0.15 * nominal

    def test_rate_window_expires(self):
        clock = FakeClock()
        stats = LinkStats(clock=clock)
        stats.record_frame(1000)
        clock.now = 0.5
        assert stats.rate() == 1000.0
        clock.now = 1.5
        assert stats.rate() == 0.0

    def test_history_grows_per_frame(self):
        clock = FakeClock()
        stats = LinkStats(clock=clock)
        for i in range(5):
            clock.now = float(i)
            stats.record_frame(10)
        times = [row[0] for row in stats.history]
        totals = [row[1] for row in stats.history]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert totals == [10, 20, 30, 40, 50]

    def test_csv_dump(self, tmp_path):
        clock = FakeClock()
        stats = LinkStats(clock=clock)
        for i in range(3):
            clock.now = i * 0.25
            stats.record_frame(608)
        path = tmp_path / "link.csv"
        stats.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "timestamp,bytes,rate"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "608"


class TestEndpointParsing:
    def test_host_port_split(self):
        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_endpoint("base.local:18500") == ("base.local", 18500)

    def test_last_colon_wins(self):
        assert parse_endpoint("::1:8000") == ("::1", 8000)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_endpoint("9000")
        with pytest.raises(ValueError):
            parse_endpoint(":9000")
        with pytest.raises(ValueError):
            parse_endpoint("host:notaport")


class TestLoopback:
    def test_frames_arrive_in_order(self):
        rng = np.random.default_rng(70)
        sent = [make_observation(rng, m=int(rng.integers(1, 30)))
                for _ in range(20)]
        received, stats_rx = [], LinkStats()
        endpoint, shutdown, thread = start_server(received.append, stats_rx)
        try:
            conn = connect_with_retry(endpoint)
            stats_tx = LinkStats()
            with conn:
                for obs in sent:
                    send_observation(conn, obs, stats_tx)
            assert wait_until(lambda: len(received) == 20)
        finally:
            shutdown.set()
            thread.join(timeout=5.0)
        assert received == sent
        assert stats_tx.frames == 20
        assert stats_rx.frames == 20
        assert stats_tx.bytes_total == stats_rx.bytes_total
        assert stats_tx.bytes_total == sum(
            message_size(o.m) + 8 for o in sent)
        assert stats_rx.decode_failures == 0

    def test_corrupted_frame_counted_and_skipped(self):
        rng = np.random.default_rng(71)
        good = make_observation(rng, m=10)
        received, stats_rx = [], LinkStats()
        endpoint, shutdown, thread = start_server(received.append, stats_rx)
        try:
            conn = connect_with_retry(endpoint)
            with conn:
                send_observation(conn, good)
                tampered = bytearray(encode_frame(serialize(good)))
                tampered[20] ^= 0x04  # single bit inside the payload
                conn.sendall(bytes(tampered))
                send_observation(conn, good)
            assert wait_until(lambda: len(received) == 2)
            assert wait_until(lambda: stats_rx.decode_failures == 1)
        finally:
            shutdown.set()
            thread.join(timeout=5.0)
        assert received == [good, good]
        assert stats_rx.frames == 3  # corrupted frame still moved bytes

    def test_crc_valid_nan_frame_counted_and_skipped(self):
        rng = np.random.default_rng(74)
        good = make_observation(rng, m=6)
        nan_payload = bytearray(serialize(good))
        struct.pack_into("<f", nan_payload, HEADER_SIZE + 8, np.nan)  # an occupancy
        received, stats_rx = [], LinkStats()
        endpoint, shutdown, thread = start_server(received.append, stats_rx)
        try:
            conn = connect_with_retry(endpoint)
            with conn:
                conn.sendall(encode_frame(bytes(nan_payload)))
                send_observation(conn, good)
            assert wait_until(lambda: len(received) == 1)
        finally:
            shutdown.set()
            thread.join(timeout=5.0)
        assert received == [good]
        assert stats_rx.decode_failures == 1
        assert stats_rx.frames == 2

    def test_sink_exception_logged_and_serving_continues(self, caplog):
        rng = np.random.default_rng(75)
        sent = [make_observation(rng) for _ in range(2)]
        received = []

        def failing_once(obs):
            received.append(obs)
            if len(received) == 1:
                raise RuntimeError("sink down")

        stats_rx = LinkStats()
        endpoint, shutdown, thread = start_server(failing_once, stats_rx)
        try:
            with caplog.at_level(logging.ERROR, logger="sgpcodec.transport"):
                conn = connect_with_retry(endpoint)
                with conn:
                    for obs in sent:
                        send_observation(conn, obs)
                assert wait_until(lambda: len(received) == 2)
        finally:
            shutdown.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert received == sent
        assert stats_rx.sink_failures == 1
        assert stats_rx.decode_failures == 0
        assert "sink down" in caplog.text

    def test_sequential_connections_served(self):
        rng = np.random.default_rng(72)
        received, stats_rx = [], LinkStats()
        endpoint, shutdown, thread = start_server(received.append, stats_rx)
        try:
            for _ in range(2):
                conn = connect_with_retry(endpoint)
                with conn:
                    send_observation(conn, make_observation(rng))
            assert wait_until(lambda: len(received) == 2)
        finally:
            shutdown.set()
            thread.join(timeout=5.0)
        assert len(received) == 2

    def test_send_on_closed_socket_raises(self):
        rng = np.random.default_rng(73)
        left, right = socket.socketpair()
        right.close()
        left.close()
        with pytest.raises(TransportError) as excinfo:
            send_observation(left, make_observation(rng))
        assert excinfo.value.partial_bytes == 0

    def test_connect_to_dead_endpoint_raises(self):
        port = free_port()
        with pytest.raises(TransportError):
            connect(f"127.0.0.1:{port}", timeout=0.3)
