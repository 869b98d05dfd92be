"""Wire format: byte layout, framing, CRC, corruption detection."""

import struct
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from sgpcodec.encoder import CompressedObservation
from sgpcodec.geometry import Pose
from sgpcodec.kernel import RQHyperparams
from sgpcodec.wire import (
    FRAME_OVERHEAD,
    HEADER_SIZE,
    WireFormatError,
    WireLengthError,
    decode_frame,
    deserialize,
    encode_frame,
    load_observation,
    message_size,
    serialize,
)


def random_observation(rng, m=None):
    # quantized to float32 up front, exactly as the encoder packages them
    m = int(rng.integers(0, 64)) if m is None else m
    pose = Pose.from_array(np.float32(
        np.concatenate([rng.uniform(-20, 20, 3), rng.uniform(-np.pi, np.pi, 3)])))
    r_oc = float(np.float32(rng.uniform(5.0, 50.0)))
    hp = RQHyperparams.from_array(np.float32(10.0 ** rng.uniform(-3, 2, 5)))
    triples = np.column_stack([
        rng.uniform(-np.pi, np.pi, m),
        rng.uniform(0.0, np.pi, m),
        rng.uniform(1e-3, r_oc, m),
    ]).astype(np.float32)
    # float32 rounding can push occupancy past r_oc; pull those back
    triples[:, 2] = np.minimum(triples[:, 2], np.float32(r_oc))
    wrap = bool(rng.integers(0, 2))
    return CompressedObservation(pose, r_oc, hp, triples, wrap)


class TestMessageLayout:
    def test_sizes(self):
        assert HEADER_SIZE == 60
        assert FRAME_OVERHEAD == 8
        assert message_size(0) == 60
        assert message_size(500) == 6060

    def test_serialized_length_matches(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            obs = random_observation(rng)
            assert len(serialize(obs)) == message_size(obs.m)

    def test_bytes_match_reference_packing(self):
        # independent reconstruction of the layout, field by field
        rng = np.random.default_rng(61)
        obs = random_observation(rng, m=7)
        packed = struct.pack(
            "<4sBBHI6ff5f", b"SGPC", 1, int(obs.wrap_azimuth), 0, 7,
            *np.float32(obs.pose.as_array()),
            np.float32(obs.r_oc),
            *np.float32(obs.hyperparams.as_array()),
        ) + obs.triples.astype("<f4").tobytes()
        assert serialize(obs) == packed

    def test_round_trip_preserves_values(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            obs = random_observation(rng)
            back = deserialize(serialize(obs))
            assert back == obs
            npt.assert_array_equal(back.triples, obs.triples)

    def test_round_trip_is_byte_stable(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            wire = serialize(random_observation(rng))
            assert serialize(deserialize(wire)) == wire

    def test_empty_message(self):
        obs = CompressedObservation(Pose(), 10.0, RQHyperparams(),
                                    np.zeros((0, 3)))
        wire = serialize(obs)
        assert len(wire) == 60
        assert deserialize(wire).m == 0

    def test_wrap_flag_round_trips(self):
        obs = CompressedObservation(Pose(), 10.0, RQHyperparams(),
                                    np.zeros((0, 3)), wrap_azimuth=True)
        wire = serialize(obs)
        assert wire[5] == 0x01
        assert deserialize(wire).wrap_azimuth is True


class TestDeserializeErrors:
    @staticmethod
    def good_wire(m=3):
        rng = np.random.default_rng(64)
        return serialize(random_observation(rng, m=m))

    def test_short_header_rejected(self):
        with pytest.raises(WireLengthError, match="header"):
            deserialize(b"SGPC" + b"\x00" * 10)

    def test_bad_magic_rejected(self):
        wire = bytearray(self.good_wire())
        wire[:4] = b"NOPE"
        with pytest.raises(WireFormatError, match="magic"):
            deserialize(bytes(wire))

    def test_unknown_version_rejected(self):
        wire = bytearray(self.good_wire())
        wire[4] = 9
        with pytest.raises(WireFormatError, match="version"):
            deserialize(bytes(wire))

    def test_truncated_payload_rejected(self):
        wire = self.good_wire()
        with pytest.raises(WireLengthError, match="expected"):
            deserialize(wire[:-5])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireLengthError):
            deserialize(self.good_wire() + b"\x00")

    def test_error_names_expected_and_actual_sizes(self):
        wire = self.good_wire(m=3)
        with pytest.raises(WireLengthError, match="96.*91"):
            deserialize(wire[:-5])

    @pytest.mark.parametrize("offset, value", [
        (HEADER_SIZE + 8, np.nan),  # occupancy of the first triple
        (36, np.nan),               # r_oc
        (36, np.inf),
        (HEADER_SIZE + 12, np.inf),  # azimuth of the second triple
    ])
    def test_non_finite_fields_rejected(self, offset, value):
        wire = bytearray(self.good_wire())
        struct.pack_into("<f", wire, offset, value)
        with pytest.raises(ValueError, match="finite"):
            deserialize(bytes(wire))


class TestFraming:
    def test_frame_adds_eight_bytes(self):
        payload = b"hello occupancy"
        frame = encode_frame(payload)
        assert len(frame) == len(payload) + FRAME_OVERHEAD
        assert decode_frame(frame) == payload

    def test_frame_layout(self):
        payload = b"\x01\x02\x03"
        frame = encode_frame(payload)
        assert frame[:4] == struct.pack("<I", 3)
        assert frame[4:7] == payload
        assert frame[7:] == struct.pack("<I", zlib.crc32(payload))

    def test_single_bit_corruption_detected(self):
        rng = np.random.default_rng(65)
        wire = serialize(random_observation(rng, m=16))
        frame = bytearray(encode_frame(wire))
        for _ in range(50):
            flip = int(rng.integers(4, 4 + len(wire)))  # inside the payload
            bit = 1 << int(rng.integers(8))
            frame[flip] ^= bit
            with pytest.raises(WireFormatError):
                decode_frame(bytes(frame))
            frame[flip] ^= bit
        assert decode_frame(bytes(frame)) == wire

    def test_length_mismatch_detected(self):
        frame = encode_frame(b"abcdef")
        with pytest.raises(WireLengthError):
            decode_frame(frame + b"\x00")
        with pytest.raises(WireLengthError):
            decode_frame(frame[:-1])
        with pytest.raises(WireLengthError):
            decode_frame(b"\x01")

    def test_empty_payload_frames_cleanly(self):
        assert decode_frame(encode_frame(b"")) == b""


class TestObservationFiles:
    def test_save_load_round_trip(self, tmp_path):
        from sgpcodec.wire import save_observation
        rng = np.random.default_rng(66)
        obs = random_observation(rng, m=12)
        path = tmp_path / "scan.sgpc"
        save_observation(path, obs)
        assert path.stat().st_size == message_size(12)
        assert load_observation(path) == obs
