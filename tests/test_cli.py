"""Command-line interface: every verb end to end on small inputs."""

import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from sgpcodec.cli import _decoder_config, _encoder_config, build_parser, main
from sgpcodec.decoder import DecoderConfig
from sgpcodec.encoder import EncoderConfig, encode
from sgpcodec.geometry import Pose, desk_sensor
from sgpcodec.io import load_cloud
from sgpcodec.wire import load_observation, message_size, serialize


def run(args):
    return main(list(args))


def synth_cloud(tmp_path, name="scan.xyz", scene="variant=sphere; radius=5"):
    path = tmp_path / name
    assert run(["synth", scene, "-o", str(path)]) == 0
    return path


class TestSynth:
    def test_inline_scene(self, tmp_path, capsys):
        out = tmp_path / "scan.xyz"
        assert run(["synth", "variant=sphere; radius=5",
                    "-o", str(out)]) == 0
        cloud = load_cloud(out)
        assert cloud.shape == (5760, 3)
        np.testing.assert_allclose(np.linalg.norm(cloud, axis=1), 5.0,
                                   rtol=1e-6)
        assert "5760 returns" in capsys.readouterr().out

    def test_scene_file_and_truth_csv(self, tmp_path):
        scene = tmp_path / "scene.cfg"
        scene.write_text("variant=cylinder\nradius=3\n")
        out = tmp_path / "scan.xyz"
        truth = tmp_path / "truth.csv"
        assert run(["synth", str(scene), "-o", str(out),
                    "--truth", str(truth)]) == 0
        radii = np.loadtxt(truth)
        assert radii.shape == (5760,)
        assert np.isnan(radii).any() and np.isfinite(radii).any()

    def test_unknown_scene_reports_error(self, tmp_path, capsys):
        assert run(["synth", "variant=torus", "-o",
                    str(tmp_path / "x.xyz")]) == 2
        assert "error:" in capsys.readouterr().err


class TestEncodeDecode:
    def test_encode_writes_message(self, tmp_path, capsys):
        cloud = synth_cloud(tmp_path)
        msg = tmp_path / "scan.sgpc"
        assert run(["encode", str(cloud), "-o", str(msg),
                    "--m", "32", "--rounds", "0"]) == 0
        assert msg.stat().st_size == message_size(32)
        obs = load_observation(msg)
        assert obs.m == 32
        assert "M=32" in capsys.readouterr().out

    def test_encode_honors_pose(self, tmp_path):
        cloud = synth_cloud(tmp_path)
        msg = tmp_path / "scan.sgpc"
        assert run(["encode", str(cloud), "-o", str(msg), "--m", "16",
                    "--rounds", "0", "--pose", "1,2,3,0,0,0"]) == 0
        obs = load_observation(msg)
        np.testing.assert_allclose(obs.pose.translation, [1.0, 2.0, 3.0])

    def test_decode_writes_cloud(self, tmp_path):
        cloud = synth_cloud(tmp_path)
        msg = tmp_path / "scan.sgpc"
        out = tmp_path / "restored.xyz"
        assert run(["encode", str(cloud), "-o", str(msg),
                    "--m", "64", "--rounds", "0"]) == 0
        assert run(["decode", str(msg), "-o", str(out)]) == 0
        restored = load_cloud(out)
        assert restored.ndim == 2 and restored.shape[1] == 3
        assert restored.shape[0] > 0

    def test_roundtrip_keeps_message(self, tmp_path, capsys):
        cloud = synth_cloud(tmp_path)
        out = tmp_path / "restored.xyz"
        msg = tmp_path / "kept.sgpc"
        assert run(["roundtrip", str(cloud), "-o", str(out),
                    "--save-message", str(msg), "--m", "48",
                    "--rounds", "0"]) == 0
        assert load_observation(msg).m == 48
        assert load_cloud(out).shape[1] == 3
        assert "ratio" in capsys.readouterr().out

    def test_default_flags_are_the_config_defaults(self):
        args = build_parser().parse_args(["roundtrip", "in.xyz", "-o", "out.xyz"])
        enc = _encoder_config(args)
        sensor = enc.sensor
        assert enc == EncoderConfig(sensor=sensor, r_oc=sensor.r_max, r_min=sensor.r_min)
        dec = _decoder_config(args)
        assert dec == DecoderConfig(dec.sensor)

    def test_encode_without_em_flags_matches_library_defaults(self, tmp_path):
        cloud_path = synth_cloud(tmp_path)
        msg = tmp_path / "scan.sgpc"
        assert run(["encode", str(cloud_path), "-o", str(msg), "--m", "48"]) == 0
        sensor = desk_sensor()
        cfg = EncoderConfig(m=48, sensor=sensor, r_oc=sensor.r_max, r_min=sensor.r_min)
        expected = serialize(encode(load_cloud(cloud_path), Pose(), cfg))
        assert msg.read_bytes() == expected

    def test_missing_input_reports_error(self, tmp_path, capsys):
        assert run(["encode", str(tmp_path / "nope.xyz"),
                    "-o", str(tmp_path / "x.sgpc")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_pose_reports_error(self, tmp_path, capsys):
        cloud = synth_cloud(tmp_path)
        assert run(["encode", str(cloud), "-o", str(tmp_path / "x.sgpc"),
                    "--pose", "1,2"]) == 2
        assert "six" in capsys.readouterr().err


class TestBench:
    @staticmethod
    def write_config(tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text(
            "[bench]\n"
            "m_values = 8 16\n"
            "em_rounds = 0\n"
            "\n"
            "[scene:ball]\n"
            "variant = sphere\n"
            "radius = 5\n"
        )
        return path

    def test_report_to_file(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert run(["bench", str(cfg), "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scene,m,n,")
        assert len(lines) == 3

    def test_report_to_stdout_with_check(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert run(["bench", str(cfg), "--check"]) == 0
        out = capsys.readouterr().out
        assert out.count("ball") == 2

    def test_missing_config_reports_error(self, tmp_path, capsys):
        assert run(["bench", str(tmp_path / "none.ini")]) == 2
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["transcode", "x"])


class TestServeSend:
    @staticmethod
    def free_port():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_stream_between_processes(self, tmp_path):
        cloud_a = synth_cloud(tmp_path, "a.xyz")
        cloud_b = synth_cloud(tmp_path, "b.xyz",
                              scene="variant=cylinder; radius=3")
        port = self.free_port()
        endpoint = f"127.0.0.1:{port}"
        out_dir = tmp_path / "received"
        stats_csv = tmp_path / "link.csv"
        server = subprocess.Popen(
            [sys.executable, "-c",
             "from sgpcodec.cli import main; raise SystemExit(main())",
             "serve", endpoint, "-o", str(out_dir),
             "--stats-csv", str(stats_csv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 20.0
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=0.2).close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        pytest.fail("server did not start listening")
                    time.sleep(0.05)
            assert run(["send", endpoint, str(cloud_a), str(cloud_b),
                        "--m", "16", "--rounds", "0"]) == 0
            deadline = time.monotonic() + 10.0
            expected = [out_dir / "observation_00000.sgpc",
                        out_dir / "observation_00001.sgpc"]
            while not all(p.exists() for p in expected):
                if time.monotonic() > deadline:
                    pytest.fail("server did not write both observations")
                time.sleep(0.05)
        finally:
            server.send_signal(signal.SIGINT)
            stdout, _ = server.communicate(timeout=10.0)
        assert server.returncode == 0
        assert "received 2 frames" in stdout
        for path in expected:
            assert load_observation(path).m == 16
        stats_lines = stats_csv.read_text().strip().splitlines()
        assert stats_lines[0] == "timestamp,bytes,rate"
        assert len(stats_lines) == 3

    def test_send_without_server_reports_error(self, tmp_path, capsys):
        cloud = synth_cloud(tmp_path)
        port = self.free_port()
        assert run(["send", f"127.0.0.1:{port}", str(cloud), "--m", "8"]) == 2
        assert "could not connect" in capsys.readouterr().err
