"""Command-line surface: encode, decode, roundtrip, bench, serve, send, synth."""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from . import io as cloud_io
from .decoder import DecoderConfig, decode
from .encoder import EncoderConfig, encode
from .evaluate import (bench, check_report, compression_ratio, load_bench_config,
                       resolve_sensor)
from .geometry import Pose
from .synth import generate_scan, load_scene, parse_scene
from .transport import (
    LinkStats,
    TransportError,
    connect,
    send_observation,
    serve_base,
)
from .wire import load_observation, save_observation, serialize


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgpcodec",
        description="Sparse-GP codec for single-scan LiDAR pointclouds",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("encode", help="compress a pointcloud into a .sgpc message")
    p.add_argument("cloud", help="input pointcloud (.xyz/.txt/.bin)")
    p.add_argument("-o", "--output", required=True, help="output .sgpc path")
    _encoder_flags(p)
    _sensor_flag(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct a pointcloud from a .sgpc message")
    p.add_argument("message", help="input .sgpc path")
    p.add_argument("-o", "--output", required=True, help="output pointcloud path")
    _decoder_flags(p)
    _sensor_flag(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("roundtrip", help="encode then decode in one step")
    p.add_argument("cloud", help="input pointcloud")
    p.add_argument("-o", "--output", required=True, help="output pointcloud path")
    p.add_argument("--save-message", help="also keep the intermediate .sgpc")
    _encoder_flags(p)
    _decoder_flags(p)
    _sensor_flag(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bench", help="run a sweep from an INI config")
    p.add_argument("config", help="bench INI file")
    p.add_argument("-o", "--output", help="CSV report path (default stdout)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero if trend/consistency checks fail")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="receive observations at host:port")
    p.add_argument("endpoint", help="host:port to bind")
    p.add_argument("-o", "--output-dir", default="received",
                   help="directory for numbered .sgpc files")
    p.add_argument("--stats-csv", help="write link stats CSV on exit")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("send", help="encode clouds and stream them to a base")
    p.add_argument("endpoint", help="host:port of the base")
    p.add_argument("clouds", nargs="+", help="pointcloud files to send")
    _encoder_flags(p)
    _sensor_flag(p)
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("synth", help="generate a synthetic scan with ground truth")
    p.add_argument("scene", help="scene config file, or inline key=value;... text")
    p.add_argument("-o", "--output", required=True, help="output pointcloud path")
    p.add_argument("--truth", help="optional CSV of per-ray true radii")
    p.add_argument("--seed", type=int, default=0)
    _sensor_flag(p)
    p.set_defaults(func=cmd_synth)
    return parser


def _encoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=EncoderConfig.m, help="inducing point budget")
    p.add_argument("--seed", type=int, default=EncoderConfig.rng_seed)
    p.add_argument("--rounds", type=int, default=EncoderConfig.em_rounds, help="EM rounds")
    p.add_argument("--mstep-iterations", type=int, default=EncoderConfig.mstep_iterations)
    p.add_argument("--swaps", type=int, default=EncoderConfig.swap_proposals_per_round,
                   help="swap proposals per round")
    p.add_argument("--pose", default="0,0,0,0,0,0",
                   help="x,y,z,roll,pitch,yaw of the sensor")


def _decoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--km", type=float, default=DecoderConfig.k_m,
                   help="threshold mean weight")
    p.add_argument("--kstd", type=float, default=DecoderConfig.k_std,
                   help="threshold std weight")
    p.add_argument("--upsample", type=int, default=DecoderConfig.upsample,
                   help="grid upsampling factor")


def _sensor_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sensor", default="desk", help="desk | vlp16[:az_deg]")


def _encoder_config(args) -> EncoderConfig:
    sensor = resolve_sensor(args.sensor)
    return EncoderConfig(
        m=args.m,
        em_rounds=args.rounds,
        swap_proposals_per_round=args.swaps,
        mstep_iterations=args.mstep_iterations,
        rng_seed=args.seed,
        r_oc=sensor.r_max,
        r_min=sensor.r_min,
        sensor=sensor,
    )


def _decoder_config(args) -> DecoderConfig:
    return DecoderConfig(
        sensor=resolve_sensor(args.sensor),
        k_m=args.km,
        k_std=args.kstd,
        upsample=args.upsample,
    )


def _parse_pose(text: str) -> Pose:
    values = [float(v) for v in text.split(",")]
    if len(values) != 6:
        raise ValueError("pose needs six comma-separated values")
    return Pose.from_array(values)


def cmd_encode(args) -> int:
    cloud = cloud_io.load_cloud(args.cloud)
    obs = encode(cloud, _parse_pose(args.pose), _encoder_config(args))
    save_observation(args.output, obs)
    print(f"encoded {cloud.shape[0]} points as M={obs.m} "
          f"({len(serialize(obs))} bytes) -> {args.output}")
    return 0


def cmd_decode(args) -> int:
    obs = load_observation(args.message)
    cloud = decode(obs, _decoder_config(args))
    cloud_io.save_cloud(args.output, cloud)
    print(f"decoded M={obs.m} message into {cloud.shape[0]} points -> {args.output}")
    return 0


def cmd_roundtrip(args) -> int:
    cloud = cloud_io.load_cloud(args.cloud)
    obs = encode(cloud, _parse_pose(args.pose), _encoder_config(args))
    if args.save_message:
        save_observation(args.save_message, obs)
    restored = decode(obs, _decoder_config(args))
    cloud_io.save_cloud(args.output, restored)
    ratio = compression_ratio(cloud, len(serialize(obs)))
    print(f"roundtrip: {cloud.shape[0]} -> M={obs.m} -> {restored.shape[0]} points "
          f"(ratio {ratio:.1f}) -> {args.output}")
    return 0


def cmd_bench(args) -> int:
    report = bench(load_bench_config(args.config))
    csv_text = report.to_csv()
    if args.output:
        Path(args.output).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.check:
        problems = check_report(report)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


def cmd_serve(args) -> int:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = LinkStats()
    counter = {"n": 0}

    def sink(obs):
        path = out_dir / f"observation_{counter['n']:05d}.sgpc"
        save_observation(path, obs)
        counter["n"] += 1
        print(f"received M={obs.m} -> {path} (rate {stats.rate():.0f} B/s)")

    shutdown = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: shutdown.set())
    signal.signal(signal.SIGTERM, lambda *_: shutdown.set())
    print(f"listening on {args.endpoint}; interrupt to stop")
    serve_base(args.endpoint, sink, shutdown=shutdown, stats=stats)
    if args.stats_csv:
        stats.write_csv(args.stats_csv)
    print(f"received {stats.frames} frames, {stats.bytes_total} bytes, "
          f"{stats.decode_failures} decode failures, {stats.sink_failures} sink failures")
    return 0


def cmd_send(args) -> int:
    cfg = _encoder_config(args)
    stats = LinkStats()
    with connect(args.endpoint) as connection:
        for path in args.clouds:
            cloud = cloud_io.load_cloud(path)
            obs = encode(cloud, _parse_pose(args.pose), cfg)
            send_observation(connection, obs, stats)
            print(f"sent {path} as M={obs.m} (total {stats.bytes_total} bytes)")
    print(f"sent {stats.frames} frames, {stats.bytes_total} bytes")
    return 0


def cmd_synth(args) -> int:
    scene_arg = Path(args.scene)
    scene = load_scene(scene_arg) if scene_arg.exists() else parse_scene(args.scene)
    sensor = resolve_sensor(args.sensor)
    scan = generate_scan(scene, Pose(), sensor, seed=args.seed)
    cloud_io.save_cloud(args.output, scan.cloud)
    if args.truth:
        np.savetxt(args.truth, scan.true_radii, fmt="%.9g", header="true_radius")
    print(f"synthesized {scan.cloud.shape[0]} returns over "
          f"{scan.true_radii.size} rays -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
