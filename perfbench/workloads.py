"""The three codec workloads: set-up, measured loop, output checks, metrics.

The codec is driven only through its public functions, looked up on their
modules at call time so the traced run sees every call.  Timings exclude the
quality and correctness checks, which run after the measured loop.
"""

from __future__ import annotations

import os
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import PER_LAYER, codec_sites, em_steps, layer_metrics
from tracer import Tracer

SCANS = 3               # seeded scans in one cycle of the encoding loops
DECODE_REPEAT_S = 0.25  # after the loop, decode each scan until this much...
DECODE_REPEAT_MAX = 25  # ...time is spent or this many times, for cheap decodes
CORRUPT_EVERY = 3       # a bit-flipped copy precedes every third valid frame
FRAME_TIMEOUT_S = 60.0  # longest wait for one streamed frame to be decoded
CONNECT_TIMEOUT_S = 10.0
MB = 1024.0             # ru_maxrss is in KiB on Linux

TUNNEL = "variant=cylinder; radius=3.0; noise_std=0.02"
BOX = "variant=box; extents=8,8,4; noise_std=0.02"
SPHERE = "variant=sphere; radius=5.0; center=1.0,-0.5,0.3; noise_std=0.02"


@dataclass(frozen=True)
class Workload:
    name: str
    sensor: str               # "desk" or "vlp16"
    scenes: tuple[str, ...]   # synth.parse_scene texts
    m: int
    em_rounds: int
    swaps: int
    mstep_iterations: int
    upsample: int
    candidate_pool: int = 256
    stream: bool = False
    setup_reps: int = 9       # set-up passes per run; setup_s is their median


WORKLOADS = {w.name: w for w in (
    Workload("tunnel-swap-m200", "desk", (TUNNEL,), m=200, em_rounds=2, swaps=200,
             mstep_iterations=20, upsample=1, candidate_pool=512),
    Workload("vlp16-mstep-m500", "vlp16", (TUNNEL,), m=500, em_rounds=1, swaps=0,
             mstep_iterations=3, upsample=1),
    Workload("base-stream-up4", "desk", (TUNNEL, BOX, SPHERE), m=500, em_rounds=1,
             swaps=0, mstep_iterations=3, upsample=4, stream=True, setup_reps=3),
)}


def scan_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@dataclass
class Op:
    """One measured operation: an encode+decode, or one streamed frame."""

    scan: int
    traced: bool
    obs: object = None
    em_trace: list | None = None
    encode_s: float = 0.0
    decode_s: tuple[float, ...] = ()
    cloud: np.ndarray | None = None
    error: str | None = None
    ended: float = 0.0        # perf_counter when a streamed decode finished


class Run:
    def __init__(self, codec, spec: Workload, seed: int, seconds: float, trace: bool):
        self.codec, self.spec, self.seed, self.seconds = codec, spec, seed, seconds
        self.tracer = Tracer(codec_sites(codec)) if trace else None
        self.problems: list[str] = []
        resolve = codec.evaluate.resolve_sensor
        self.sensor = resolve("vlp16:0.1" if spec.sensor == "vlp16" else "desk")
        self.scenes = [codec.synth.parse_scene(text) for text in spec.scenes]
        self.dcfg = codec.decoder.DecoderConfig(self.sensor, upsample=spec.upsample)
        self.scan_count = len(self.scenes) if spec.stream else SCANS

    @contextmanager
    def traced(self, on: bool, scan_id: str):
        """Context in which codec calls are traced (when on) under scan_id."""
        if self.tracer is None or not on:
            yield
            return
        with self.tracer.installed(), self.tracer.scan(scan_id):
            yield

    def encoder_config(self, k: int):
        spec, sensor = self.spec, self.sensor
        return self.codec.encoder.EncoderConfig(
            m=spec.m, em_rounds=spec.em_rounds, swap_proposals_per_round=spec.swaps,
            candidate_pool_size=spec.candidate_pool,
            mstep_iterations=spec.mstep_iterations, rng_seed=scan_seed(self.seed, k),
            r_oc=sensor.r_max, r_min=sensor.r_min, sensor=sensor)

    # ---- set-up -----------------------------------------------------------

    def setup(self) -> list[float]:
        """Import, synthesize (and for the stream, pre-encode), setup_reps times.

        Each pass imports the codec in a fresh interpreter, so the import is
        paid every pass with the page cache warm from this process's own
        import, then makes the inputs.  Returns the wall seconds of each pass.
        In a traced run the odd passes are traced and the even ones are not,
        which gives both the synth spans and an untraced encode reference.
        """
        pose = self.codec.geometry.Pose()
        durations = []
        for rep in range(self.spec.setup_reps):
            traced = rep % 2 == 1
            start = time.perf_counter()
            _import_in_fresh_interpreter(self.codec)
            with self.traced(traced, f"setup{rep}"):
                scans = [self.codec.synth.generate_scan(
                    self.scenes[k % len(self.scenes)], pose, self.sensor,
                    seed=scan_seed(self.seed, k)) for k in range(self.scan_count)]
                encoded = [self.encode(scans[k], k, traced) for k in range(self.scan_count)
                           ] if self.spec.stream else []
            durations.append(time.perf_counter() - start)
        self.scans, self.encoded = scans, encoded
        return durations

    def encode(self, scan, k: int, traced: bool) -> Op:
        start = time.perf_counter()
        obs, em_trace = self.codec.encoder.encode_with_trace(
            scan.cloud, scan.pose, self.encoder_config(k))
        return Op(k, traced, obs, em_trace, time.perf_counter() - start)

    # ---- measured loops ---------------------------------------------------

    def encode_loop(self) -> tuple[list[Op], float]:
        """Encode and decode the SCANS seeded scans in whole cycles.

        Each cycle encodes and decodes every scan once, and a new cycle starts
        only if the last one would still end within the run's time, so every
        metric is taken over the same scans however fast the codec is.  A
        traced run first encodes scan 0 untraced, as the reference for the
        tracing overhead, and traces its cycles.  Returns the operations and
        the loop's wall seconds.
        """
        ops: list[Op] = []
        traced = self.tracer is not None
        start = time.perf_counter()
        if traced:
            ops.append(self.measure_scan(0, False, "scan0"))
        while True:
            cycle_start = time.perf_counter()
            for k in range(SCANS):
                ops.append(self.measure_scan(k, traced, f"scan{len(ops)}"))
            now = time.perf_counter()
            if now - start + (now - cycle_start) > self.seconds:
                return ops, now - start

    def measure_scan(self, k: int, traced: bool, scan_id: str) -> Op:
        try:
            with self.traced(traced, scan_id):
                op = self.encode(self.scans[k], k, traced)
                start = time.perf_counter()
                op.cloud = self.codec.decoder.decode(op.obs, self.dcfg)
                op.decode_s = (time.perf_counter() - start,)
        except Exception as exc:  # a failed scan is counted, the run goes on
            return Op(k, traced, error=f"{type(exc).__name__}: {exc}")
        return op

    def repeat_decodes(self, ops: list[Op]) -> None:
        """Decode each scan's first untraced message again while decodes are cheap.

        This runs after the loop, so scans_per_s does not count it, and gives
        a 20 ms decode enough samples for a steady median.
        """
        seen = set()
        for op in ops:
            if op.error or op.traced or op.scan in seen:
                continue
            seen.add(op.scan)
            times = list(op.decode_s)
            while sum(times) < DECODE_REPEAT_S and len(times) < DECODE_REPEAT_MAX:
                start = time.perf_counter()
                self.codec.decoder.decode(op.obs, self.dcfg)
                times.append(time.perf_counter() - start)
            op.decode_s = tuple(times)

    def stream(self) -> dict:
        """Closed loop over loopback TCP into serve_base in this process.

        One sender thread sends the next valid frame only once the previous
        one is decoded (a bit-flipped copy goes just before every third), so
        at most two frames are ever in flight: loopback socket buffers alone
        would let it queue hundreds of 6 KB frames ahead of the decoder.  It
        sends whole cycles of the messages, starting a new cycle only if the
        last one would still end in time, so every message is decoded equally
        often however fast the decoder is.
        """
        codec, transport = self.codec, self.codec.transport
        frames = [codec.wire.encode_frame(codec.wire.serialize(op.obs)) for op in self.encoded]
        rng = np.random.default_rng(self.seed)
        shutdown = threading.Event()
        base_stats = transport.LinkStats()
        delivered: list[Op] = []
        ready = threading.Condition()
        link = {"valid": 0, "corrupt": 0, "bytes": 0, "first": 0.0}
        endpoint = f"127.0.0.1:{_free_port()}"

        def sink(obs):
            index = len(delivered)
            op = Op(-1, self.tracer is not None, obs)
            with _scan_span(self.tracer, f"frame{index}", "transport.sink"):
                start = time.perf_counter()
                try:
                    op.cloud = codec.decoder.decode(obs, self.dcfg)
                except Exception as exc:  # a sink failure must not stop serve_base
                    op.error = f"{type(exc).__name__}: {exc}"
                op.ended = time.perf_counter()
                op.decode_s = (op.ended - start,)
            with ready:
                delivered.append(op)
                ready.notify_all()

        def sender():
            try:
                with _connect(transport, endpoint) as conn:
                    link["first"] = start = cycle_start = time.perf_counter()
                    j = 0
                    while True:
                        k = j % len(frames)
                        if j % CORRUPT_EVERY == 0:
                            bad = bytearray(frames[k])  # flip one payload bit
                            byte = 4 + int(rng.integers(len(bad) - 8))
                            bad[byte] ^= 1 << int(rng.integers(8))
                            conn.sendall(bad)
                            link["corrupt"] += 1
                            link["bytes"] += len(bad)
                        with _scan_span(self.tracer, f"frame{j}", None):
                            transport.send_observation(conn, self.encoded[k].obs)
                        link["valid"] += 1
                        link["bytes"] += len(frames[k])
                        with ready:
                            if not ready.wait_for(lambda: len(delivered) > j, FRAME_TIMEOUT_S):
                                self.problems.append(f"frame {j} not decoded in time")
                                return
                        j += 1
                        if j % len(frames) == 0:
                            now = time.perf_counter()
                            if now - start + (now - cycle_start) > self.seconds:
                                return
                            cycle_start = now
            except (OSError, transport.TransportError) as exc:
                self.problems.append(f"sender: {type(exc).__name__}: {exc}")
            finally:
                shutdown.set()

        thread = threading.Thread(target=sender, name="perfbench-sender")
        watchdog = threading.Timer(self.seconds + 2 * FRAME_TIMEOUT_S, shutdown.set)
        with self.traced(True, "stream"):
            thread.start()
            watchdog.start()
            try:
                transport.serve_base(endpoint, sink, shutdown, base_stats)
            finally:
                shutdown.set()
                watchdog.cancel()
                watchdog.join()
                thread.join(FRAME_TIMEOUT_S)
        if thread.is_alive():
            self.problems.append("sender thread did not stop")
        for j, op in enumerate(delivered):
            op.scan = j % len(frames)
        return {"delivered": delivered, "base": base_stats, **link}

    # ---- checks and quality -----------------------------------------------

    def check_message(self, op: Op) -> None:
        wire, obs = self.codec.wire, op.obs
        payload = wire.serialize(obs)
        if obs.m != self.spec.m or len(payload) != 60 + 12 * obs.m:
            self.problems.append(f"scan {op.scan}: {len(payload)} bytes for M={obs.m}, "
                                 f"expected M={self.spec.m}, {60 + 12 * self.spec.m} bytes")
        if wire.deserialize(payload) != obs:
            self.problems.append(f"scan {op.scan}: deserialize(serialize(obs)) != obs")
        bounds = [value for _, value in op.em_trace]
        if any(b < a for a, b in zip(bounds, bounds[1:])):
            self.problems.append(f"scan {op.scan}: EM trace decreases")

    def quality(self, op: Op) -> tuple[float, float, float, int]:
        """rmsd, precision, recall and occupied cells on the truth grid."""
        codec, scan = self.codec, self.scans[op.scan]
        dec, defaults = codec.decoder, codec.decoder.DecoderConfig(self.sensor)
        pred = dec.predict_surface(dec.fit_base_gp(op.obs),
                                   codec.geometry.make_query_grid(self.sensor, 1))
        mask = dec.occupied_mask(pred, dec.variance_threshold(pred, defaults.k_m,
                                                              defaults.k_std))
        rmsd, _ = codec.evaluate.rmsd(scan, pred)
        precision, recall, _ = codec.evaluate.occupancy_confusion(scan, mask)
        return rmsd, precision, recall, int(mask.sum())

    def check_em_counts(self, ops: list[Op], kids) -> None:
        """Accepted steps rebuilt from spans must match each encoder trace."""
        for i, op in enumerate(ops):
            if not op.traced or op.error:
                continue
            counts = em_steps(self.tracer, kids, lambda s, sid=f"scan{i}": s.scan == sid)
            phases = [phase for phase, _ in op.em_trace]
            if (counts["estep_accepted"] != phases.count("estep")
                    or counts["mstep_accepted"] != phases.count("mstep")
                    or counts["estep_accepted"] + counts["mstep_accepted"] != len(phases)):
                self.problems.append(f"scan {i}: spans count {counts} accepted steps, "
                                     f"trace has {len(phases)}")


@contextmanager
def _scan_span(tracer, scan_id: str, name: str | None):
    """Tag this thread's spans with scan_id, inside a span `name` if given."""
    if tracer is None:
        yield
        return
    with tracer.scan(scan_id), (tracer.span(name) if name else nullcontext()):
        yield


def _import_in_fresh_interpreter(codec) -> None:
    src = str(Path(codec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import sgpcodec"], env=env, check=True)


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _connect(transport, endpoint):
    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        try:
            return transport.connect(endpoint, timeout=FRAME_TIMEOUT_S)
        except transport.TransportError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB


# ---- workload drivers -----------------------------------------------------

def run_workload(codec, spec: Workload, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, Run]:
    """Run one workload; returns the result object and the Run for inspection."""
    run = Run(codec, spec, seed, seconds, trace)
    setup_durations = run.setup()
    driver = _run_stream if spec.stream else _run_encoding
    result = driver(run, _median(setup_durations))
    if run.tracer is not None:
        run.problems.extend(run.tracer.nesting_problems())
    result["correct"] = not run.problems
    return result, run


def _run_encoding(run: Run, setup_s: float) -> dict:
    ops, wall = run.encode_loop()
    run.repeat_decodes(ops)
    good = [op for op in ops if op.error is None]
    for op in ops:
        if op.error:
            run.problems.append(f"scan {op.scan} failed: {op.error}")
    quality = {}  # once per scan, from its first encode, whatever the loop reached
    for op in good:
        if op.scan not in quality:
            quality[op.scan] = run.quality(op)
    for op in good:
        run.check_message(op)
        if run.spec.upsample == 1 and op.cloud.shape[0] != quality[op.scan][3]:
            run.problems.append(f"scan {op.scan}: decode gave {op.cloud.shape[0]} points, "
                                f"{quality[op.scan][3]} cells are occupied")
    attempted, failed = len(ops), len(ops) - len(good)
    if run.tracer is not None:
        kids = run.tracer.children()
        run.check_em_counts(ops, kids)
        metrics = _layer_result(run, kids, [op for op in good if op.traced], {
            "trace.encode_overhead": _overhead(good, lambda op: op.encode_s),
            "trace.decode_overhead": _overhead(good, lambda op: _median(op.decode_s)),
        })
    else:
        metrics = _e2e(
            setup_s=setup_s,
            encode_s=_median_per_scan(good, lambda op: [op.encode_s]),
            decode_s=_median_per_scan(good, lambda op: op.decode_s),
            scans_per_s=len(good) / wall,
            wire_bytes=_median([len(run.codec.wire.serialize(op.obs)) for op in good]),
            quality=list(quality.values()),
            ok_share=(attempted - failed) / attempted,
        )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _run_stream(run: Run, setup_s: float) -> dict:
    for op in run.encoded:
        run.check_message(op)
    link = run.stream()
    delivered, base = link["delivered"], link["base"]
    references = {}
    for j, op in enumerate(delivered):
        expected = run.encoded[op.scan].obs
        if op.obs != expected:
            run.problems.append(f"frame {j}: delivered message differs from the one sent")
        if op.error:
            run.problems.append(f"frame {j}: decode failed: {op.error}")
            continue
        if op.scan not in references:
            start = time.perf_counter()
            references[op.scan] = (run.codec.decoder.decode(expected, run.dcfg),
                                   time.perf_counter() - start)
        if not np.array_equal(op.cloud, references[op.scan][0]):
            run.problems.append(f"frame {j}: streamed decode differs from in-process decode")
    if len(delivered) != link["valid"]:
        run.problems.append(f"{link['valid']} valid frames sent, {len(delivered)} delivered")
    if base.decode_failures != link["corrupt"]:
        run.problems.append(f"{link['corrupt']} corrupt frames sent, "
                            f"{base.decode_failures} rejected")
    frames_sent = link["valid"] + link["corrupt"]
    if base.frames != frames_sent or base.bytes_total != link["bytes"]:
        run.problems.append(f"sent {frames_sent} frames / {link['bytes']} B, base counted "
                            f"{base.frames} / {base.bytes_total} B")
    ok = [op for op in delivered if op.error is None and op.cloud is not None]
    attempted = frames_sent
    failed = (link["valid"] - len(ok)) + max(link["corrupt"] - base.decode_failures, 0)
    if run.tracer is not None:
        tracer = run.tracer
        serve = sum(s.seconds for s in tracer.spans if s.name == "transport.serve_base")
        sink = sum(s.seconds for s in tracer.spans if s.name == "transport.sink")
        setup_enc = [op.encode_s for op in run.encoded]  # last set-up pass, untraced
        traced_enc = [s.seconds for s in tracer.spans
                      if s.name == "encoder.encode_with_trace" and s.scan.startswith("setup")]
        per = len(ok) or 1
        metrics = _layer_result(run, tracer.children(), ok, {
            "transport.frames": frames_sent / per,
            "transport.bytes": link["bytes"] / per,
            "transport.frames_rejected": base.decode_failures / per,
            "transport.base_self_s": (serve - sink) / per,
            "trace.encode_overhead": _ratio(_median(traced_enc), _median(setup_enc)),
            "trace.decode_overhead": _ratio(
                _median([op.decode_s[0] for op in ok]),
                _median([seconds for _, seconds in references.values()])),
        }, keep=lambda s: not s.scan.startswith("setup"))
    else:
        span = (max(op.ended for op in ok) - link["first"]) if ok else 0.0
        metrics = _e2e(
            setup_s=setup_s,
            encode_s=_median([op.encode_s for op in run.encoded]),
            decode_s=_median([op.decode_s[0] for op in ok]),
            scans_per_s=len(ok) / span if span > 0 else 0.0,
            wire_bytes=_median([len(run.codec.wire.serialize(op.obs)) for op in run.encoded]),
            quality=[run.quality(op) for op in run.encoded],
            ok_share=(attempted - failed) / attempted if attempted else 0.0,
        )
    return {"attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def _layer_result(run: Run, kids, ops: list[Op], extra: dict, keep=None) -> dict:
    tracer = run.tracer
    if keep is None:
        ids = {s.scan for s in tracer.spans if s.name == "encoder.encode_with_trace"
               and not s.scan.startswith("setup")}
        keep = lambda s: s.scan in ids  # noqa: E731
    summary = tracer.summarize(keep)
    em = em_steps(tracer, kids, keep)
    generate = tracer.summarize(lambda s: s.name == "synth.generate_scan")
    synth = generate.get("synth.generate_scan", {"s": 0.0, "calls": 0})
    limit = run.codec.encoder.LOG_PARAM_LIMIT
    encoded = [op for op in ops if op.em_trace is not None]
    extra = {
        "synth.generate_scan.s": _ratio(synth["s"], synth["calls"]),
        "encoder.params_at_limit": _mean([
            int(np.sum(np.abs(op.obs.hyperparams.to_log_params()) >= limit - 1e-3))
            for op in encoded]),
        "encoder.final_bound_per_n": _final_bound_per_n(tracer, keep, summary),
        **extra,
    }
    values = layer_metrics(summary, em, len(ops), extra)
    units = dict(PER_LAYER)
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _final_bound_per_n(tracer, keep, summary) -> float:
    """Mean over scans of max F_V / N: the last accepted bound per sample."""
    best: dict[str, float] = {}
    for span in tracer.spans:
        if keep(span) and span.name == "encoder.variational_bound" and span.data:
            best[span.scan] = max(best.get(span.scan, -np.inf), span.data["value"])
    kept = summary.get("geometry.project_to_surface", {"data": {}})["data"].get("kept", 0)
    if not best or not kept:
        return 0.0
    return float(np.mean(list(best.values()))) / (kept / len(best))


def _overhead(ops: list[Op], measure) -> float:
    """Traced over untraced median, on the scans measured both ways."""
    plain = [measure(op) for op in ops if not op.traced]
    both = {op.scan for op in ops if not op.traced}
    traced = [measure(op) for op in ops if op.traced and op.scan in both]
    return _ratio(_median(traced), _median(plain))


def _median_per_scan(ops: list[Op], samples) -> float:
    """Median over scans of each scan's median sample, so each scan counts once."""
    per_scan: dict[int, list[float]] = {}
    for op in ops:
        per_scan.setdefault(op.scan, []).extend(samples(op))
    return _median([_median(values) for values in per_scan.values()])


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


E2E_UNITS = {
    "setup_s": "s", "encode_s": "s", "decode_s": "s", "scans_per_s": "1/s",
    "peak_rss_mb": "MB", "wire_bytes": "B", "rmsd_m": "m", "precision": "ratio",
    "recall": "ratio", "ok_share": "ratio",
}


def _e2e(*, setup_s, encode_s, decode_s, scans_per_s, wire_bytes, quality, ok_share) -> dict:
    values = {
        "setup_s": setup_s, "encode_s": encode_s, "decode_s": decode_s,
        "scans_per_s": scans_per_s, "peak_rss_mb": peak_rss_mb(),
        "wire_bytes": wire_bytes,
        "rmsd_m": _median([q[0] for q in quality]),
        "precision": _median([q[1] for q in quality]),
        "recall": _median([q[2] for q in quality]),
        "ok_share": ok_share,
    }
    return {name: {"value": float(value), "unit": E2E_UNITS[name]}
            for name, value in values.items()}
