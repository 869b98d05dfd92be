"""Encoder: collapsed bound, gradients, inducing selection, EM loop."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.stats import multivariate_normal

from sgpcodec import encoder
from sgpcodec.encoder import (
    EncoderConfig,
    InducingSet,
    TrainingSet,
    bound_grad_hyperparams,
    default_hyperparams,
    encode,
    encode_with_trace,
    exact_log_marginal,
    init_inducing_even,
    optimize_hyperparams,
    refine_inducing_swap,
    variational_bound,
)
from sgpcodec.geometry import Pose, desk_sensor, project_to_surface
from sgpcodec.kernel import (
    NumericalError,
    RQHyperparams,
    chol_with_jitter,
    kernel_diag,
    kernel_matrix,
    kernel_matrix_grads,
)
from sgpcodec.synth import CylinderScene, generate_scan
from sgpcodec.wire import serialize


def random_training_set(rng, n):
    inputs = np.column_stack([rng.uniform(-np.pi, np.pi, n),
                              rng.uniform(0.2, np.pi - 0.2, n)])
    targets = rng.uniform(0.1, 9.0, n)
    return TrainingSet(inputs, targets)


def random_hyperparams(rng):
    return RQHyperparams(
        signal_variance=10.0 ** rng.uniform(-1, 1),
        lengthscale_azimuth=10.0 ** rng.uniform(-1, 0.5),
        lengthscale_inclination=10.0 ** rng.uniform(-1, 0.5),
        rq_alpha=10.0 ** rng.uniform(-0.5, 0.5),
        noise_variance=10.0 ** rng.uniform(-3, -0.5),
    )


def gp_sample_1d(rng, n, hp, noise_std=0.0, span=3.0):
    """Positive GP draw along an azimuth line, for recovery tests."""
    x = np.column_stack([np.sort(rng.uniform(-span, span, n)), np.zeros(n)])
    k = kernel_matrix(x, x, hp) + 1e-10 * np.eye(n)
    y = np.linalg.cholesky(k) @ rng.standard_normal(n)
    if noise_std > 0:
        y = y + rng.normal(0.0, noise_std, n)
    return TrainingSet(x, y - y.min() + 0.5)


def reference_factors(data, inducing, hp, wrap_azimuth=False):
    """Unblocked Cholesky pipeline: (lm, jitter, kmn, a, b, lb), a = Lm^-1 K_mn / sigma."""
    sigma = np.sqrt(hp.noise_variance)
    kmm = kernel_matrix(inducing.locations, inducing.locations, hp, wrap_azimuth)
    lm, jitter = chol_with_jitter(kmm, hp.signal_variance)
    kmn = kernel_matrix(inducing.locations, data.inputs, hp, wrap_azimuth)
    a = solve_triangular(lm, kmn, lower=True) / sigma
    b = np.eye(inducing.size) + a @ a.T
    try:
        lb = cholesky(b, lower=True)
    except LinAlgError as exc:
        raise NumericalError("inner factor not positive definite") from exc
    return lm, jitter, kmn, a, b, lb


def reference_bound(data, inducing, hp, wrap_azimuth=False):
    """F_V from the full M x N kernel matrix: the blocked pass's oracle."""
    n = data.size
    sn2 = hp.noise_variance
    _, _, _, a, _, lb = reference_factors(data, inducing, hp, wrap_azimuth)
    y = data.targets
    c = solve_triangular(lb, a @ y, lower=True) / np.sqrt(sn2)
    trace_knn = float(np.sum(kernel_diag(n, hp)))
    trace_q = sn2 * float(np.sum(a * a))
    return float(
        -0.5 * n * np.log(2.0 * np.pi)
        - np.sum(np.log(np.diag(lb)))
        - 0.5 * n * np.log(sn2)
        - 0.5 * (y @ y) / sn2
        + 0.5 * (c @ c)
        - 0.5 * (trace_knn - trace_q) / sn2
    )


def reference_grad(data, inducing, hp, wrap_azimuth=False):
    """Gradient of F_V through full N x M dF/dK_nm and dK_nm matrices."""
    n, m = data.size, inducing.size
    sn2 = hp.noise_variance
    sigma = np.sqrt(sn2)
    sf2 = hp.signal_variance
    y = data.targets
    lm, jitter, kmn, a, b, lb = reference_factors(data, inducing, hp, wrap_azimuth)
    eye_m = np.eye(m)

    ay = a @ y
    b_inv = cho_solve((lb, True), eye_m)
    alpha = (y - a.T @ cho_solve((lb, True), ay)) / sn2
    h = cho_solve((lm, True), kmn @ alpha)
    z = (eye_m - b_inv) @ solve_triangular(lm, eye_m, lower=True)
    g_nm = np.outer(alpha, h) + (a.T @ z) / sigma
    core = 2.0 * eye_m - b_inv - b
    s1 = solve_triangular(lm.T, core, lower=False)
    w = solve_triangular(lm.T, s1.T, lower=False)
    g_mm = -0.5 * np.outer(h, h) + 0.5 * w

    grads_nm = kernel_matrix_grads(data.inputs, inducing.locations, hp, wrap_azimuth)
    grads_mm = kernel_matrix_grads(inducing.locations, inducing.locations, hp, wrap_azimuth)
    grads_mm[0] = grads_mm[0] + jitter * eye_m
    grad = np.zeros(5)
    for i in range(4):
        grad[i] = np.sum(g_nm * grads_nm[i]) + np.sum(g_mm * grads_mm[i])
    grad[0] += -0.5 * n * sf2 / sn2
    trace_s_inv = (n - m + float(np.trace(b_inv))) / sn2
    trace_t = n * sf2 - sn2 * float(np.trace(b) - m)
    df_dsn2 = 0.5 * (alpha @ alpha) - 0.5 * trace_s_inv + 0.5 * trace_t / sn2**2
    grad[4] = sn2 * df_dsn2
    return grad


class TestExactMarginal:
    def test_single_point_closed_form(self):
        hp = RQHyperparams(2.0, 0.3, 0.3, 1.0, 0.5)
        data = TrainingSet(np.array([[0.3, 1.2]]), np.array([1.7]))
        total_var = hp.signal_variance + hp.noise_variance
        expected = -0.5 * np.log(2 * np.pi * total_var) - 0.5 * 1.7**2 / total_var
        npt.assert_allclose(exact_log_marginal(data, hp), expected, rtol=1e-12)

    def test_matches_scipy_density(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            data = random_training_set(rng, 30)
            hp = random_hyperparams(rng)
            cov = kernel_matrix(data.inputs, data.inputs, hp)
            cov[np.diag_indices(30)] += hp.noise_variance
            expected = multivariate_normal.logpdf(data.targets,
                                                  mean=np.zeros(30), cov=cov)
            npt.assert_allclose(exact_log_marginal(data, hp), expected, rtol=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(21)
        data = random_training_set(rng, 25)
        hp = random_hyperparams(rng)
        perm = rng.permutation(25)
        shuffled = TrainingSet(data.inputs[perm], data.targets[perm])
        npt.assert_allclose(exact_log_marginal(shuffled, hp),
                            exact_log_marginal(data, hp), rtol=1e-10)

    def test_refuses_large_n(self):
        data = TrainingSet(np.zeros((4097, 2)) + [[0.1, 1.0]], np.ones(4097))
        with pytest.raises(ValueError, match="4096"):
            exact_log_marginal(data, RQHyperparams())


class TestVariationalBound:
    def test_equals_exact_when_all_points_inducing(self):
        rng = np.random.default_rng(22)
        for n in (3, 6, 12):
            data = random_training_set(rng, n)
            hp = random_hyperparams(rng)
            inducing = InducingSet.from_indices(data, np.arange(n))
            f_v = variational_bound(data, inducing, hp)
            npt.assert_allclose(f_v, exact_log_marginal(data, hp), atol=1e-7)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(4, 32))
            m = int(rng.integers(1, n))
            data = random_training_set(rng, n)
            hp = random_hyperparams(rng)
            inducing = InducingSet.from_indices(
                data, rng.choice(n, size=m, replace=False))
            assert (variational_bound(data, inducing, hp)
                    <= exact_log_marginal(data, hp) + 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        data = random_training_set(rng, 50)
        hp = random_hyperparams(rng)
        inducing = init_inducing_even(data, 10)
        assert (variational_bound(data, inducing, hp)
                == variational_bound(data, inducing, hp))

    def test_invariant_to_azimuth_shift(self):
        # stationary kernel: translating all azimuths (no seam wrap in
        # play) must leave the bound unchanged
        rng = np.random.default_rng(25)
        inputs = np.column_stack([rng.uniform(-1.0, 1.0, 40),
                                  rng.uniform(1.0, 2.0, 40)])
        data = TrainingSet(inputs, rng.uniform(0.5, 5.0, 40))
        shifted = TrainingSet(inputs + [0.7, 0.0], data.targets)
        hp = random_hyperparams(rng)
        inducing = np.arange(0, 40, 5)
        f_a = variational_bound(data, InducingSet.from_indices(data, inducing), hp)
        f_b = variational_bound(shifted,
                                InducingSet.from_indices(shifted, inducing), hp)
        npt.assert_allclose(f_a, f_b, rtol=1e-10)

    def test_nested_inducing_sets_improve(self):
        # enlarging the inducing set widens the variational family, so
        # the optimal bound cannot drop
        rng = np.random.default_rng(26)
        data = random_training_set(rng, 60)
        hp = RQHyperparams(1.0, 0.5, 0.5, 1.0, 0.1)
        order = rng.permutation(60)
        previous = -np.inf
        for m in (2, 5, 10, 25, 60):
            f = variational_bound(
                data, InducingSet.from_indices(data, order[:m]), hp)
            assert f >= previous - 1e-6
            previous = f


class TestBoundGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(27)
        eps = 1e-5
        for _ in range(5):
            n = int(rng.integers(20, 64))
            m = int(rng.integers(4, 16))
            data = random_training_set(rng, n)
            hp = random_hyperparams(rng)
            inducing = InducingSet.from_indices(
                data, rng.choice(n, size=m, replace=False))
            grad = bound_grad_hyperparams(data, inducing, hp)
            log_p = hp.to_log_params()
            fd = np.empty(5)
            for i in range(5):
                up = RQHyperparams.from_log_params(log_p + eps * np.eye(5)[i])
                dn = RQHyperparams.from_log_params(log_p - eps * np.eye(5)[i])
                fd[i] = (variational_bound(data, inducing, up)
                         - variational_bound(data, inducing, dn)) / (2 * eps)
            scale = np.maximum(1.0, np.abs(fd))
            npt.assert_allclose(grad, fd, atol=1e-4 * scale.max())

    def test_zero_at_constructed_stationary_point(self):
        # after enough ascent steps the gradient should be small; a
        # coarse smoke check that signs are not flipped anywhere
        rng = np.random.default_rng(28)
        data = gp_sample_1d(rng, 150, RQHyperparams(1.0, 0.5, 0.5, 1.0, 1e-4),
                            noise_std=0.1)
        inducing = init_inducing_even(data, 20)
        var_y = float(np.var(data.targets))
        hp0 = RQHyperparams(var_y, 0.7, 0.7, 1.0, 0.5 * var_y)
        cfg = EncoderConfig(m=20, mstep_iterations=300, mstep_step_size=1e-3)
        hp = optimize_hyperparams(data, inducing, hp0, cfg)
        g0 = np.linalg.norm(bound_grad_hyperparams(data, inducing, hp0))
        g1 = np.linalg.norm(bound_grad_hyperparams(data, inducing, hp))
        assert g1 < 0.05 * g0


class TestBlockedBoundPass:
    def test_matches_reference_over_ragged_blocks(self, monkeypatch):
        # blocks of 2-3 rows that never divide N, so the last one is short
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(16, 401))
            rows = int(rng.integers(2, 4))
            if n % rows == 0:
                n += 1
            m = int(rng.integers(3, min(n, 60) + 1))
            monkeypatch.setattr(encoder, "BLOCK_ENTRIES", rows * m)
            data = random_training_set(rng, n)
            hp = random_hyperparams(rng)
            inducing = InducingSet.from_indices(
                data, rng.choice(n, size=m, replace=False))
            for wrap in (False, True):
                try:
                    f_ref = reference_bound(data, inducing, hp, wrap)
                    g_ref = reference_grad(data, inducing, hp, wrap)
                except NumericalError:  # wrapped K_mm need not factor
                    continue
                npt.assert_allclose(variational_bound(data, inducing, hp, wrap),
                                    f_ref, rtol=1e-10, atol=0)
                grad = bound_grad_hyperparams(data, inducing, hp, wrap)
                assert np.all(np.abs(grad - g_ref)
                              <= 1e-7 * np.maximum(1.0, np.abs(g_ref)))
                checked += 1
        assert checked >= 40

    def test_single_block_bound_equals_reference_on_desk_tunnel(self):
        sensor = desk_sensor()
        scan = generate_scan(CylinderScene(3.0), Pose(), sensor, seed=0)
        data = TrainingSet.from_surface(
            project_to_surface(scan.cloud, sensor.r_max, sensor.r_min))
        inducing = init_inducing_even(data, 500)
        hp = default_hyperparams(data, sensor)
        assert data.size * inducing.size <= encoder.BLOCK_ENTRIES
        assert (variational_bound(data, inducing, hp)
                == reference_bound(data, inducing, hp))


class TestEvenInit:
    def test_even_strides_on_sorted_line(self):
        inputs = np.column_stack([np.linspace(-1, 1, 10), np.ones(10)])
        data = TrainingSet(inputs, np.ones(10))
        picks = init_inducing_even(data, 5).indices
        npt.assert_array_equal(np.sort(picks), [0, 2, 4, 6, 8])

    def test_sorts_by_azimuth_then_inclination(self):
        inputs = np.array([[0.5, 1.0], [-0.5, 2.0], [-0.5, 1.0], [0.5, 2.0]])
        data = TrainingSet(inputs, np.ones(4))
        picks = init_inducing_even(data, 4).indices
        npt.assert_array_equal(picks, [2, 1, 0, 3])

    def test_indices_distinct_and_count(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            m = int(rng.integers(1, n + 1))
            data = random_training_set(rng, n)
            inducing = init_inducing_even(data, m)
            assert inducing.size == m
            assert np.unique(inducing.indices).size == m

    def test_m_above_n_warns_and_caps(self):
        data = random_training_set(np.random.default_rng(30), 5)
        with pytest.warns(UserWarning, match="capped"):
            inducing = init_inducing_even(data, 9)
        assert inducing.size == 5

    def test_m_below_one_rejected(self):
        data = random_training_set(np.random.default_rng(31), 5)
        with pytest.raises(ValueError):
            init_inducing_even(data, 0)

    def test_deterministic_given_seed(self):
        data = random_training_set(np.random.default_rng(32), 100)
        a = init_inducing_even(data, 17, seed=4).indices
        b = init_inducing_even(data, 17, seed=4).indices
        npt.assert_array_equal(a, b)


class TestSwapRefinement:
    def test_zero_proposals_returns_input(self):
        rng = np.random.default_rng(33)
        data = random_training_set(rng, 40)
        inducing = init_inducing_even(data, 8)
        cfg = EncoderConfig(m=8, swap_proposals_per_round=0)
        out = refine_inducing_swap(data, inducing, RQHyperparams(), cfg)
        assert out is inducing

    def test_full_inducing_set_returns_input(self):
        rng = np.random.default_rng(34)
        data = random_training_set(rng, 12)
        inducing = InducingSet.from_indices(data, np.arange(12))
        cfg = EncoderConfig(m=12, swap_proposals_per_round=50)
        out = refine_inducing_swap(data, inducing, RQHyperparams(), cfg)
        assert out is inducing

    def test_bound_never_decreases(self):
        rng = np.random.default_rng(35)
        hp = RQHyperparams(1.0, 0.3, 0.3, 1.0, 0.01)
        for seed in range(8):
            data = random_training_set(np.random.default_rng(seed), 80)
            inducing = init_inducing_even(data, 10)
            before = variational_bound(data, inducing, hp)
            cfg = EncoderConfig(m=10, swap_proposals_per_round=60,
                                candidate_pool_size=40, rng_seed=seed)
            out = refine_inducing_swap(data, inducing, hp, cfg, rng=rng)
            assert variational_bound(data, out, hp) >= before - 1e-12
            assert np.unique(out.indices).size == out.size

    def test_trace_is_strictly_increasing(self):
        data = random_training_set(np.random.default_rng(36), 120)
        hp = RQHyperparams(1.0, 0.3, 0.3, 1.0, 0.01)
        inducing = init_inducing_even(data, 6)
        cfg = EncoderConfig(m=6, swap_proposals_per_round=100,
                            candidate_pool_size=80, rng_seed=1)
        trace = []
        refine_inducing_swap(data, inducing, hp, cfg,
                             rng=np.random.default_rng(1), trace=trace)
        assert trace, "expected at least one accepted swap"
        values = [f for tag, f in trace]
        assert all(tag == "estep" for tag, _ in trace)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestHyperparamOptimization:
    def test_zero_iterations_returns_input(self):
        data = random_training_set(np.random.default_rng(37), 30)
        inducing = init_inducing_even(data, 5)
        hp = RQHyperparams(1.0, 0.4, 0.4, 1.0, 0.1)
        cfg = EncoderConfig(m=5, mstep_iterations=0)
        assert optimize_hyperparams(data, inducing, hp, cfg) == hp

    def test_bound_improves_and_trace_monotone(self):
        rng = np.random.default_rng(38)
        data = gp_sample_1d(rng, 200, RQHyperparams(1.0, 0.4, 0.4, 2.0, 1e-4),
                            noise_std=0.1)
        inducing = init_inducing_even(data, 16)
        var_y = float(np.var(data.targets))
        hp0 = RQHyperparams(var_y, 0.9, 0.9, 1.0, 0.5 * var_y)
        cfg = EncoderConfig(m=16, mstep_iterations=50, mstep_step_size=1e-3)
        trace = []
        hp = optimize_hyperparams(data, inducing, hp0, cfg, trace=trace)
        f0 = variational_bound(data, inducing, hp0)
        f1 = variational_bound(data, inducing, hp)
        assert f1 > f0
        values = [f for tag, f in trace]
        assert all(tag == "mstep" for tag, _ in trace)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values and abs(values[-1] - f1) < 1e-9

    def test_gradient_norm_small_at_convergence(self):
        # long ascent on noisy data drives |grad| below 1e-3 * (1 + |F_V|)
        rng = np.random.default_rng(3)
        data = gp_sample_1d(rng, 400, RQHyperparams(1.0, 0.4, 0.4, 2.0, 1e-4),
                            noise_std=0.1)
        inducing = init_inducing_even(data, 32)
        var_y = float(np.var(data.targets))
        hp0 = RQHyperparams(var_y, 0.9, 0.9, 1.0, 0.5 * var_y)
        cfg = EncoderConfig(m=32, mstep_iterations=2000, mstep_step_size=1e-3)
        hp = optimize_hyperparams(data, inducing, hp0, cfg)
        grad_norm = np.linalg.norm(bound_grad_hyperparams(data, inducing, hp))
        f = variational_bound(data, inducing, hp)
        assert grad_norm <= 1e-3 * (1.0 + abs(f))

    def test_recovers_azimuth_lengthscale_within_factor_two(self):
        rng = np.random.default_rng(7)
        true_hp = RQHyperparams(1.0, 0.3, 0.3, 2.0, 1e-4)
        data = gp_sample_1d(rng, 2000, true_hp)
        inducing = init_inducing_even(data, 100)
        var_y = float(np.var(data.targets))
        hp0 = RQHyperparams(var_y, 0.9, 0.9, 1.0, 0.5 * var_y)
        cfg = EncoderConfig(m=100, mstep_iterations=150, mstep_step_size=3e-4)
        hp = optimize_hyperparams(data, inducing, hp0, cfg)
        ratio = hp.lengthscale_azimuth / true_hp.lengthscale_azimuth
        assert 0.5 <= ratio <= 2.0


class TestDefaultHyperparams:
    def test_sensor_scaled_lengthscales(self):
        data = random_training_set(np.random.default_rng(39), 50)
        hp = default_hyperparams(data, desk_sensor())
        npt.assert_allclose(hp.lengthscale_azimuth, 50 * np.radians(1.0))
        npt.assert_allclose(hp.lengthscale_inclination, 2 * np.radians(2.0))
        npt.assert_allclose(hp.signal_variance, np.var(data.targets))
        assert hp.rq_alpha == 1.0 and hp.noise_variance == 1e-2

    def test_fallback_without_sensor(self):
        data = random_training_set(np.random.default_rng(40), 50)
        hp = default_hyperparams(data)
        assert hp.lengthscale_azimuth == 0.2
        assert hp.lengthscale_inclination == 0.1

    def test_constant_targets_keep_variance_positive(self):
        data = TrainingSet(np.random.default_rng(41).uniform(0, 1, (20, 2)),
                           np.full(20, 3.0))
        assert default_hyperparams(data).signal_variance == 1e-6


class TestEncode:
    @staticmethod
    def small_cloud(rng, n=300):
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs * rng.uniform(2.0, 8.0, n)[:, None]

    def test_byte_identical_across_runs(self):
        cloud = self.small_cloud(np.random.default_rng(42))
        cfg = EncoderConfig(m=24, em_rounds=2, swap_proposals_per_round=30,
                            candidate_pool_size=64, mstep_iterations=5,
                            rng_seed=0)
        a = encode(cloud, Pose(1.0, 2.0, 0.5, 0.1, 0.0, 0.3), cfg)
        b = encode(cloud, Pose(1.0, 2.0, 0.5, 0.1, 0.0, 0.3), cfg)
        assert serialize(a) == serialize(b)

    def test_seed_changes_selection(self):
        cloud = self.small_cloud(np.random.default_rng(43))
        base = dict(m=24, em_rounds=1, swap_proposals_per_round=60,
                    candidate_pool_size=64, mstep_iterations=0)
        a = encode(cloud, Pose(), EncoderConfig(rng_seed=0, **base))
        b = encode(cloud, Pose(), EncoderConfig(rng_seed=9, **base))
        assert serialize(a) != serialize(b)

    def test_out_of_range_scan_yields_empty_message(self):
        cloud = np.array([[12.0, 0.0, 0.0], [0.0, 15.0, 0.0]])
        obs = encode(cloud, Pose(), EncoderConfig(m=10, em_rounds=0))
        assert obs.m == 0
        assert obs.float_count == 12

    def test_m_capped_at_available_points(self):
        cloud = self.small_cloud(np.random.default_rng(44), n=20)
        obs = encode(cloud, Pose(), EncoderConfig(m=64, em_rounds=0))
        assert obs.m == 20

    def test_payload_is_float32(self):
        cloud = self.small_cloud(np.random.default_rng(45))
        obs = encode(cloud, Pose(0.1, 0.2, 0.3, 0.01, 0.02, 0.03),
                     EncoderConfig(m=16, em_rounds=0))
        assert obs.triples.dtype == np.float32
        pose_arr = obs.pose.as_array()
        npt.assert_array_equal(pose_arr, pose_arr.astype(np.float32))
        hp_arr = obs.hyperparams.as_array()
        npt.assert_array_equal(hp_arr, hp_arr.astype(np.float32))

    def test_float_count_at_reference_size(self):
        rng = np.random.default_rng(46)
        triples = np.column_stack([rng.uniform(-3, 3, 500),
                                   rng.uniform(0, np.pi, 500),
                                   rng.uniform(0.1, 9.9, 500)])
        from sgpcodec.encoder import CompressedObservation
        obs = CompressedObservation(Pose(), 10.0, RQHyperparams(), triples)
        assert obs.float_count == 1512

    def test_trace_spans_phases(self):
        cloud = self.small_cloud(np.random.default_rng(47), n=400)
        cfg = EncoderConfig(m=16, em_rounds=2, swap_proposals_per_round=40,
                            candidate_pool_size=64, mstep_iterations=8,
                            rng_seed=0)
        _, trace = encode_with_trace(cloud, Pose(), cfg)
        tags = {tag for tag, _ in trace}
        assert "mstep" in tags


class TestValidation:
    def test_training_set_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((5, 3)), np.ones(5))
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((5, 2)), np.ones(4))
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((0, 2)), np.ones(0))

    def test_training_set_rejects_nonpositive_targets(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_inducing_set_rejects_duplicates(self):
        data = TrainingSet(np.zeros((4, 2)) + [[0.1, 1.0]], np.ones(4))
        with pytest.raises(ValueError):
            InducingSet.from_indices(data, [0, 1, 1])

    def test_encoder_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EncoderConfig(m=0)
        with pytest.raises(ValueError):
            EncoderConfig(mstep_step_size=0.0)
        with pytest.raises(ValueError):
            EncoderConfig(r_oc=0.3, r_min=0.4)
        with pytest.raises(ValueError, match="candidate_pool_size"):
            EncoderConfig(m=16, em_rounds=1, swap_proposals_per_round=5,
                          candidate_pool_size=0)

    def test_observation_rejects_out_of_band_occupancy(self):
        from sgpcodec.encoder import CompressedObservation
        bad = np.array([[0.0, 1.0, 11.0]])
        with pytest.raises(ValueError):
            CompressedObservation(Pose(), 10.0, RQHyperparams(), bad)
