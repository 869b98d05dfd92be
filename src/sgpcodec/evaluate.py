"""Reconstruction metrics and the benchmark sweep.

RMSD follows the codec's radial error definition: over grid cells where
the ground truth has a return, residuals e_i = r_i - (r_oc - mean_i);
the reported pair is (sqrt(mean(e^2)), population std of |e|).  Cell
classification quality is reported separately as precision/recall/F1.
Bench rows keep wall-clock timings in memory but the canonical CSV
excludes them so identical seeds give byte-identical reports.
"""

from __future__ import annotations

import configparser
import io
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .decoder import (
    DecoderConfig,
    SurfacePrediction,
    fit_base_gp,
    occupied_mask,
    predict_surface,
    variance_threshold,
)
from .encoder import EncoderConfig, encode
from .geometry import Pose, SensorModel, desk_sensor, make_query_grid, vlp16_sensor
from .synth import GroundTruthScan, Scene, generate_scan, parse_scene
from .wire import serialize

BYTES_PER_RAW_POINT = 12  # xyz as float32 triples


def rmsd(truth: GroundTruthScan, pred: SurfacePrediction) -> tuple[float, float]:
    """Radial error over truth-return cells: (root mean square, std of |e|)."""
    grid = make_query_grid(truth.sensor, 1)
    if pred.grid.shape != grid.shape or not np.allclose(pred.grid, grid):
        raise ValueError("prediction grid is not aligned with the truth grid")
    mask = truth.return_mask
    if not np.any(mask):
        raise ValueError("truth scan has no returns to compare against")
    r_hat = pred.r_oc - pred.mean[mask]
    residuals = truth.true_radii[mask] - r_hat
    mean = float(np.sqrt(np.mean(residuals**2)))
    spread = float(np.std(np.abs(residuals)))
    return mean, spread


def occupancy_confusion(truth: GroundTruthScan,
                        occupied) -> tuple[float, float, float]:
    """Precision/recall/F1 of occupied-cell classification on the truth grid."""
    truth_pos = truth.return_mask
    if not np.any(truth_pos):
        raise ValueError("truth scan has no occupied cells; recall undefined")
    occupied = np.asarray(occupied)
    if occupied.dtype != bool:
        mask = np.zeros(truth_pos.size, dtype=bool)
        mask[occupied] = True
        occupied = mask
    if occupied.shape != truth_pos.shape:
        raise ValueError("occupied mask is not aligned with the truth grid")
    tp = float(np.sum(occupied & truth_pos))
    fp = float(np.sum(occupied & ~truth_pos))
    fn = float(np.sum(~occupied & truth_pos))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp > 0 else 0.0
    return precision, recall, f1


def compression_ratio(cloud: np.ndarray, wire_bytes: int) -> float:
    """Raw xyz-f32 size over transmitted size."""
    if wire_bytes <= 0:
        raise ValueError("wire_bytes must be positive")
    return BYTES_PER_RAW_POINT * int(np.asarray(cloud).shape[0]) / wire_bytes


@dataclass(frozen=True)
class BenchRow:
    scene: str
    m: int
    n: int
    rmsd_mean: float
    rmsd_std: float
    precision: float
    recall: float
    encoded_bytes: int
    raw_bytes: int
    ratio: float
    encode_seconds: float
    decode_seconds: float


# timing columns are real but machine-dependent; the canonical CSV drops
# them so reports are byte-identical across runs of the same seed
CSV_COLUMNS = [f.name for f in fields(BenchRow)
               if not f.name.endswith("_seconds")]


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            cells = []
            for name in CSV_COLUMNS:
                value = getattr(row, name)
                cells.append(f"{value:.9g}" if isinstance(value, float) else str(value))
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


@dataclass(frozen=True)
class BenchConfig:
    """One sweep over scenes x m_values; encoder.rng_seed also seeds the scans."""

    scenes: tuple[tuple[str, Scene], ...]
    m_values: tuple[int, ...]
    encoder: EncoderConfig
    decoder: DecoderConfig

    def __post_init__(self):
        if self.encoder.sensor is not self.decoder.sensor:
            raise ValueError("encoder and decoder must share one sensor")


def bench(cfg: BenchConfig) -> BenchReport:
    """Encode/decode every (scene, M) cell and collect metrics."""
    if not cfg.scenes or not cfg.m_values:
        raise ValueError("bench needs at least one scene and one M value")
    rows = []
    for name, scene in cfg.scenes:
        scan = generate_scan(scene, Pose(), cfg.decoder.sensor, seed=cfg.encoder.rng_seed)
        grid = make_query_grid(cfg.decoder.sensor, cfg.decoder.upsample)
        for m in cfg.m_values:
            t0 = time.perf_counter()
            obs = encode(scan.cloud, scan.pose, replace(cfg.encoder, m=m))
            encode_seconds = time.perf_counter() - t0
            wire_bytes = len(serialize(obs))

            t0 = time.perf_counter()
            model = fit_base_gp(obs)
            pred = predict_surface(model, grid)
            v_th = variance_threshold(pred, cfg.decoder.k_m, cfg.decoder.k_std)
            mask = occupied_mask(pred, v_th)
            decode_seconds = time.perf_counter() - t0

            mean, spread = rmsd(scan, pred)
            precision, recall, _ = occupancy_confusion(scan, mask)
            rows.append(BenchRow(
                scene=name,
                m=obs.m,
                n=scan.cloud.shape[0],
                rmsd_mean=mean,
                rmsd_std=spread,
                precision=precision,
                recall=recall,
                encoded_bytes=wire_bytes,
                raw_bytes=BYTES_PER_RAW_POINT * scan.cloud.shape[0],
                ratio=compression_ratio(scan.cloud, wire_bytes),
                encode_seconds=encode_seconds,
                decode_seconds=decode_seconds,
            ))
    return BenchReport(tuple(rows))


def check_report(report: BenchReport) -> list[str]:
    """Criteria checks for `bench --check`: trend and self-consistency.

    Per scene, RMSD must be non-increasing in M (one inversion of at
    most 5% relative is tolerated); every ratio column must equal
    raw_bytes / encoded_bytes.
    """
    problems = []
    by_scene: dict[str, list[BenchRow]] = {}
    for row in report.rows:
        by_scene.setdefault(row.scene, []).append(row)
        expected = row.raw_bytes / row.encoded_bytes
        if not np.isclose(row.ratio, expected, rtol=1e-12):
            problems.append(f"{row.scene} m={row.m}: ratio {row.ratio} != {expected}")
    for name, rows in by_scene.items():
        rows = sorted(rows, key=lambda r: r.m)
        inversions = [
            (prev, cur) for prev, cur in zip(rows, rows[1:])
            if cur.rmsd_mean > prev.rmsd_mean
        ]
        if len(inversions) > 1:
            problems.append(f"{name}: rmsd trend has {len(inversions)} inversions")
        elif inversions:
            prev, cur = inversions[0]
            if cur.rmsd_mean > 1.05 * prev.rmsd_mean:
                problems.append(
                    f"{name}: rmsd rose {prev.rmsd_mean:.4f} -> {cur.rmsd_mean:.4f} "
                    f"from m={prev.m} to m={cur.m}"
                )
    return problems


# [bench] key -> the EncoderConfig / DecoderConfig field it sets
ENCODER_KEYS = {"seed": "rng_seed", "swap_proposals": "swap_proposals_per_round",
                "em_rounds": "em_rounds", "candidate_pool_size": "candidate_pool_size",
                "mstep_iterations": "mstep_iterations",
                "mstep_step_size": "mstep_step_size"}
DECODER_KEYS = {"km": "k_m", "kstd": "k_std"}


def load_bench_config(path) -> BenchConfig:
    """Read a sweep description from an INI file.

    [bench] holds m_values (whitespace-separated), sensor (desk |
    vlp16[:azimuth_deg]) and the ENCODER_KEYS / DECODER_KEYS knobs, and
    nothing else; each [scene:<name>] section holds one scene's fields.
    """
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if "bench" not in parser:
        raise ValueError("bench config needs a [bench] section")
    bench_sec = parser["bench"]
    unknown = set(bench_sec) - {"m_values", "sensor", *ENCODER_KEYS, *DECODER_KEYS}
    if unknown:
        raise ValueError(f"unknown [bench] keys: {sorted(unknown)}")
    scenes = []
    for section in parser.sections():
        if section.startswith("scene:"):
            lines = "\n".join(f"{k}={v}" for k, v in parser[section].items())
            scenes.append((section.split(":", 1)[1], parse_scene(lines)))
    sensor = resolve_sensor(bench_sec.get("sensor", "desk"))

    def knobs(config_class, keys):
        return {field: type(getattr(config_class, field))(bench_sec[key])
                for key, field in keys.items() if key in bench_sec}

    return BenchConfig(
        scenes=tuple(scenes),
        m_values=tuple(int(v) for v in bench_sec.get("m_values", "200 500").split()),
        encoder=EncoderConfig(r_oc=sensor.r_max, r_min=sensor.r_min, sensor=sensor,
                              **knobs(EncoderConfig, ENCODER_KEYS)),
        decoder=DecoderConfig(sensor, **knobs(DecoderConfig, DECODER_KEYS)),
    )


def resolve_sensor(spec: str) -> SensorModel:
    """Sensor factory used by configs and the CLI: desk | vlp16[:az_deg]."""
    name, _, arg = spec.partition(":")
    if name == "desk":
        return desk_sensor()
    if name == "vlp16":
        return vlp16_sensor(float(arg)) if arg else vlp16_sensor()
    raise ValueError(f"unknown sensor {spec!r} (expected desk or vlp16[:az_deg])")
