"""Evaluation: radial error metric, confusion, bench sweep, report checks."""

import numpy as np
import numpy.testing as npt
import pytest

from sgpcodec.decoder import DecoderConfig, SurfacePrediction
from sgpcodec.encoder import EncoderConfig
from sgpcodec.evaluate import (
    BenchConfig,
    BenchReport,
    BenchRow,
    CSV_COLUMNS,
    bench,
    check_report,
    compression_ratio,
    load_bench_config,
    occupancy_confusion,
    resolve_sensor,
    rmsd,
)
from sgpcodec.geometry import (
    Pose,
    desk_sensor,
    make_query_grid,
    spherical_to_cartesian,
)
from sgpcodec.synth import GroundTruthScan, SphereScene


def fake_truth(sensor, radii):
    radii = np.asarray(radii, dtype=float)
    grid = make_query_grid(sensor, 1)
    mask = np.isfinite(radii)
    cloud = spherical_to_cartesian(
        np.column_stack([grid[mask], radii[mask]]))
    return GroundTruthScan(cloud, radii, Pose(), sensor)


def fake_prediction(sensor, mean, variance=None, r_oc=10.0):
    grid = make_query_grid(sensor, 1)
    mean = np.broadcast_to(np.asarray(mean, dtype=float), grid.shape[0]).copy()
    if variance is None:
        variance = np.full(grid.shape[0], 0.1)
    return SurfacePrediction(grid, mean, np.asarray(variance, float), r_oc)


class TestRmsd:
    def test_perfect_prediction_scores_zero(self):
        sensor = desk_sensor()
        truth = fake_truth(sensor, np.full(5760, 5.0))
        pred = fake_prediction(sensor, 5.0)  # occupancy = 10 - 5
        npt.assert_allclose(rmsd(truth, pred), (0.0, 0.0), atol=1e-12)

    def test_constant_offset_reports_offset(self):
        sensor = desk_sensor()
        truth = fake_truth(sensor, np.full(5760, 5.0))
        pred = fake_prediction(sensor, 5.0 + 0.3)  # radius reads 4.7
        mean, spread = rmsd(truth, pred)
        npt.assert_allclose(mean, 0.3, rtol=1e-12)
        npt.assert_allclose(spread, 0.0, atol=1e-12)

    def test_two_level_residuals(self):
        sensor = desk_sensor()
        truth = fake_truth(sensor, np.full(5760, 5.0))
        offsets = np.where(np.arange(5760) % 2 == 0, 0.1, 0.3)
        pred = fake_prediction(sensor, 5.0 + offsets)
        mean, spread = rmsd(truth, pred)
        npt.assert_allclose(mean, np.sqrt(0.05), rtol=1e-12)
        npt.assert_allclose(spread, 0.1, rtol=1e-12)

    def test_only_return_cells_count(self):
        sensor = desk_sensor()
        radii = np.full(5760, 5.0)
        radii[100:] = np.nan
        truth = fake_truth(sensor, radii)
        mean_vals = np.full(5760, 5.0)
        mean_vals[100:] = -77.0  # garbage outside the return set
        pred = fake_prediction(sensor, mean_vals)
        npt.assert_allclose(rmsd(truth, pred), (0.0, 0.0), atol=1e-12)

    def test_misaligned_grid_rejected(self):
        sensor = desk_sensor()
        truth = fake_truth(sensor, np.full(5760, 5.0))
        grid = make_query_grid(sensor, 2)
        pred = SurfacePrediction(grid, np.zeros(grid.shape[0]),
                                 np.full(grid.shape[0], 0.1), 10.0)
        with pytest.raises(ValueError, match="aligned"):
            rmsd(truth, pred)

    def test_no_returns_rejected(self):
        sensor = desk_sensor()
        truth = fake_truth(sensor, np.full(5760, np.nan))
        with pytest.raises(ValueError, match="no returns"):
            rmsd(truth, fake_prediction(sensor, 5.0))


class TestOccupancyConfusion:
    @staticmethod
    def partial_truth(sensor, n_pos=100):
        radii = np.full(5760, np.nan)
        radii[:n_pos] = 5.0
        return fake_truth(sensor, radii)

    def test_exact_mask_is_perfect(self):
        truth = self.partial_truth(desk_sensor())
        npt.assert_allclose(occupancy_confusion(truth, truth.return_mask),
                            (1.0, 1.0, 1.0))

    def test_hand_counted_confusion(self):
        truth = self.partial_truth(desk_sensor(), n_pos=100)
        predicted = np.zeros(5760, dtype=bool)
        predicted[:80] = True     # 80 true positives, 20 misses
        predicted[200:230] = True  # 30 false alarms
        p, r, f1 = occupancy_confusion(truth, predicted)
        npt.assert_allclose(p, 80 / 110, rtol=1e-12)
        npt.assert_allclose(r, 80 / 100, rtol=1e-12)
        npt.assert_allclose(f1, 160 / 210, rtol=1e-12)

    def test_indices_accepted(self):
        truth = self.partial_truth(desk_sensor(), n_pos=10)
        p, r, _ = occupancy_confusion(truth, np.arange(10))
        assert (p, r) == (1.0, 1.0)

    def test_empty_prediction_scores_zero(self):
        truth = self.partial_truth(desk_sensor())
        p, r, f1 = occupancy_confusion(truth, np.zeros(5760, dtype=bool))
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_no_truth_positives_rejected(self):
        sensor = desk_sensor()
        truth = fake_truth(sensor, np.full(5760, np.nan))
        with pytest.raises(ValueError):
            occupancy_confusion(truth, np.zeros(5760, dtype=bool))

    def test_misaligned_mask_rejected(self):
        truth = self.partial_truth(desk_sensor())
        with pytest.raises(ValueError):
            occupancy_confusion(truth, np.zeros(100, dtype=bool))


class TestCompressionRatio:
    def test_reference_value(self):
        cloud = np.zeros((1000, 3))
        assert compression_ratio(cloud, 60) == 200.0

    def test_zero_wire_bytes_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(np.zeros((10, 3)), 0)


class TestBenchReport:
    @staticmethod
    def rows(rmsds, ms=None, scene="tunnel"):
        ms = ms or [100 * (i + 1) for i in range(len(rmsds))]
        return tuple(
            BenchRow(scene=scene, m=m, n=5000, rmsd_mean=v, rmsd_std=v / 2,
                     precision=0.97, recall=0.98,
                     encoded_bytes=60 + 12 * m, raw_bytes=60000,
                     ratio=60000 / (60 + 12 * m),
                     encode_seconds=1.0, decode_seconds=0.5)
            for m, v in zip(ms, rmsds)
        )

    def test_csv_excludes_timing_columns(self):
        assert "encode_seconds" not in CSV_COLUMNS
        assert "decode_seconds" not in CSV_COLUMNS
        report = BenchReport(self.rows([0.1]))
        header = report.to_csv().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert "seconds" not in report.to_csv()

    def test_csv_formatting(self):
        report = BenchReport(self.rows([0.125], ms=[100]))
        lines = report.to_csv().splitlines()
        assert lines[1] == ("tunnel,100,5000,0.125,0.0625,0.97,0.98,"
                            "1260,60000,47.6190476")

    def test_write_csv(self, tmp_path):
        report = BenchReport(self.rows([0.2, 0.1]))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        assert path.read_text() == report.to_csv()

    def test_check_accepts_monotone(self):
        assert check_report(BenchReport(self.rows([0.3, 0.2, 0.15]))) == []

    def test_check_accepts_single_small_inversion(self):
        assert check_report(BenchReport(self.rows([0.3, 0.2, 0.206]))) == []

    def test_check_flags_large_inversion(self):
        problems = check_report(BenchReport(self.rows([0.3, 0.2, 0.3])))
        assert len(problems) == 1 and "rose" in problems[0]

    def test_check_flags_repeated_inversions(self):
        problems = check_report(
            BenchReport(self.rows([0.3, 0.31, 0.3, 0.31])))
        assert any("inversions" in p for p in problems)

    def test_check_flags_ratio_mismatch(self):
        row = BenchRow(scene="t", m=100, n=5000, rmsd_mean=0.1, rmsd_std=0.05,
                       precision=1.0, recall=1.0, encoded_bytes=1260,
                       raw_bytes=60000, ratio=3.0,
                       encode_seconds=0.0, decode_seconds=0.0)
        problems = check_report(BenchReport((row,)))
        assert len(problems) == 1 and "ratio" in problems[0]

    def test_scenes_checked_independently(self):
        rows = self.rows([0.3, 0.2], scene="a") + self.rows([0.5, 0.4],
                                                            scene="b")
        assert check_report(BenchReport(rows)) == []


class TestBenchSweep:
    @staticmethod
    def small_config(seed=0):
        sensor = desk_sensor()
        return BenchConfig(
            scenes=(("ball", SphereScene(5.0)),),
            m_values=(8, 16),
            encoder=EncoderConfig(em_rounds=0, rng_seed=seed, r_oc=sensor.r_max,
                                  r_min=sensor.r_min, sensor=sensor),
            decoder=DecoderConfig(sensor),
        )

    def test_row_per_scene_and_m(self):
        report = bench(self.small_config())
        assert len(report.rows) == 2
        assert [row.m for row in report.rows] == [8, 16]
        assert all(row.scene == "ball" for row in report.rows)
        assert all(row.n == 5760 for row in report.rows)

    def test_sizes_and_ratio_consistent(self):
        report = bench(self.small_config())
        for row in report.rows:
            assert row.encoded_bytes == 60 + 12 * row.m
            assert row.raw_bytes == 12 * row.n
            npt.assert_allclose(row.ratio, row.raw_bytes / row.encoded_bytes,
                                rtol=1e-12)
        assert check_report(report) == []

    def test_fixed_seed_reproduces_csv(self):
        a = bench(self.small_config()).to_csv()
        b = bench(self.small_config()).to_csv()
        assert a == b

    def test_empty_sweep_rejected(self):
        cfg = self.small_config()
        with pytest.raises(ValueError):
            bench(BenchConfig(scenes=(), m_values=cfg.m_values,
                              encoder=cfg.encoder, decoder=cfg.decoder))

    def test_configs_must_share_one_sensor(self):
        cfg = self.small_config()
        with pytest.raises(ValueError, match="sensor"):
            BenchConfig(scenes=cfg.scenes, m_values=cfg.m_values,
                        encoder=cfg.encoder, decoder=DecoderConfig(desk_sensor()))

    def test_upsampled_decoder_rejected(self):
        cfg = self.small_config()
        upsampled = DecoderConfig(cfg.decoder.sensor, upsample=2)
        with pytest.raises(ValueError, match="aligned"):
            bench(BenchConfig(scenes=cfg.scenes, m_values=(8,),
                              encoder=cfg.encoder, decoder=upsampled))


class TestConfigLoading:
    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text(
            "[bench]\n"
            "m_values = 100 200\n"
            "seed = 7\n"
            "sensor = vlp16:0.5\n"
            "em_rounds = 2\n"
            "swap_proposals = 40\n"
            "mstep_iterations = 9\n"
            "km = 0.25\n"
            "kstd = 0.0\n"
            "\n"
            "[scene:tunnel]\n"
            "variant = cylinder\n"
            "radius = 3\n"
            "\n"
            "[scene:room]\n"
            "variant = box\n"
            "extents = 8,8,4\n"
        )
        cfg = load_bench_config(path)
        assert cfg.m_values == (100, 200)
        assert cfg.encoder.rng_seed == 7
        assert cfg.encoder.em_rounds == 2
        assert cfg.encoder.swap_proposals_per_round == 40
        assert cfg.encoder.mstep_iterations == 9
        assert (cfg.decoder.k_m, cfg.decoder.k_std) == (0.25, 0.0)
        assert [name for name, _ in cfg.scenes] == ["tunnel", "room"]
        npt.assert_allclose(cfg.decoder.sensor.azimuth_resolution, np.radians(0.5))
        assert cfg.encoder.sensor is cfg.decoder.sensor
        assert (cfg.encoder.r_oc, cfg.encoder.r_min) == (cfg.decoder.sensor.r_max,
                                                         cfg.decoder.sensor.r_min)

    def test_omitted_keys_take_config_defaults(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text("[bench]\nm_values = 50\n\n[scene:ball]\nvariant = sphere\n")
        cfg = load_bench_config(path)
        defaults = EncoderConfig()
        for name in ("em_rounds", "swap_proposals_per_round", "candidate_pool_size",
                     "mstep_iterations", "mstep_step_size", "rng_seed"):
            assert getattr(cfg.encoder, name) == getattr(defaults, name), name
        assert (cfg.decoder.k_m, cfg.decoder.k_std) == (DecoderConfig.k_m,
                                                        DecoderConfig.k_std)

    def test_unknown_bench_keys_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[bench]\nm_values = 50\nem_round = 0\nswap_proposal = 9\n"
                        "\n[scene:ball]\nvariant = sphere\n")
        with pytest.raises(ValueError, match="em_round.*swap_proposal"):
            load_bench_config(path)

    def test_missing_bench_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scene:x]\nvariant = sphere\n")
        with pytest.raises(ValueError, match="bench"):
            load_bench_config(path)

    def test_resolve_sensor(self):
        assert resolve_sensor("desk").inclination_channels.size == 16
        npt.assert_allclose(resolve_sensor("vlp16").azimuth_resolution,
                            np.radians(0.1))
        npt.assert_allclose(resolve_sensor("vlp16:0.2").azimuth_resolution,
                            np.radians(0.2))
        with pytest.raises(ValueError):
            resolve_sensor("ouster")
