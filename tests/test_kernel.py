"""Kernel: rational-quadratic ARD values, gradients, and factorizations."""

import numpy as np
import numpy.testing as npt
import pytest

from sgpcodec.kernel import (
    JITTER_LADDER,
    NumericalError,
    RQHyperparams,
    chol_with_jitter,
    kernel_diag,
    kernel_matrix,
    kernel_matrix_grads,
    rq_kernel,
)


def random_inputs(rng, n):
    az = rng.uniform(-np.pi, np.pi, n)
    inc = rng.uniform(0.2, np.pi - 0.2, n)
    return np.column_stack([az, inc])


def random_hyperparams(rng):
    return RQHyperparams(
        signal_variance=10.0 ** rng.uniform(-2, 2),
        lengthscale_azimuth=10.0 ** rng.uniform(-2, 1),
        lengthscale_inclination=10.0 ** rng.uniform(-2, 1),
        rq_alpha=10.0 ** rng.uniform(-1, 1),
        noise_variance=10.0 ** rng.uniform(-6, 0),
    )


class TestKernelValues:
    def test_unit_hyperparams_example(self):
        # azimuth gap sqrt(2) with unit lengthscales and alpha = 1:
        # u = 1 + 2 / 2 = 2, so k = sigma_f^2 / u = 1/2 exactly
        hp = RQHyperparams(1.0, 1.0, 1.0, 1.0, 0.1)
        k = rq_kernel([0.0, 1.0], [np.sqrt(2.0), 1.0], hp)
        npt.assert_allclose(k, 0.5, atol=1e-15)

    def test_zero_distance_gives_signal_variance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            hp = random_hyperparams(rng)
            x = random_inputs(rng, 5)
            npt.assert_allclose(np.diag(kernel_matrix(x, x, hp)),
                                hp.signal_variance, rtol=1e-12)

    def test_diag_helper_matches(self):
        hp = RQHyperparams(2.5, 0.3, 0.2, 1.5, 0.01)
        npt.assert_array_equal(kernel_diag(7, hp), np.full(7, 2.5))

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        x = random_inputs(rng, 40)
        k = kernel_matrix(x, x, random_hyperparams(rng))
        npt.assert_allclose(k, k.T, atol=1e-14)

    def test_bounded_by_signal_variance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            hp = random_hyperparams(rng)
            k = kernel_matrix(random_inputs(rng, 30), random_inputs(rng, 30), hp)
            assert np.all(k > 0)
            assert np.all(k <= hp.signal_variance + 1e-12)

    def test_monotone_decay_with_distance(self):
        hp = RQHyperparams(1.0, 0.2, 0.2, 1.0, 0.1)
        base = np.array([[0.0, np.pi / 2]])
        offsets = np.linspace(0.0, 2.0, 50)
        probes = np.column_stack([offsets, np.full(50, np.pi / 2)])
        values = kernel_matrix(base, probes, hp).ravel()
        assert np.all(np.diff(values) < 0)

    def test_large_alpha_approaches_squared_exponential(self):
        hp = RQHyperparams(1.0, 0.3, 0.4, 1e6, 0.1)
        sq = (0.3 / 0.3) ** 2 + (0.3 / 0.4) ** 2
        expected = np.exp(-0.5 * sq)
        npt.assert_allclose(rq_kernel([0.1, 1.4], [0.4, 1.1], hp),
                            expected, rtol=1e-5)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = random_inputs(rng, 60)
            k = kernel_matrix(x, x, random_hyperparams(rng))
            eigs = np.linalg.eigvalsh(k)
            assert eigs.min() >= -1e-8 * eigs.max()

    def test_wrap_azimuth_identifies_seam(self):
        hp = RQHyperparams(1.0, 0.1, 0.1, 1.0, 0.1)
        a = [np.pi - 0.01, np.pi / 2]
        b = [-np.pi + 0.01, np.pi / 2]
        plain = rq_kernel(a, b, hp)
        wrapped = rq_kernel(a, b, hp, wrap_azimuth=True)
        assert plain < 0.01
        near = rq_kernel(a, [np.pi - 0.03, np.pi / 2], hp)
        npt.assert_allclose(wrapped, near, rtol=1e-12)


class TestKernelGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        eps = 1e-6
        for _ in range(15):
            hp = random_hyperparams(rng)
            a = random_inputs(rng, 8)
            b = random_inputs(rng, 6)
            grads = kernel_matrix_grads(a, b, hp)
            assert len(grads) == 4  # noise has no direct kernel contribution
            log_p = hp.to_log_params()
            for i in range(4):
                up = RQHyperparams.from_log_params(log_p + eps * np.eye(5)[i])
                dn = RQHyperparams.from_log_params(log_p - eps * np.eye(5)[i])
                fd = (kernel_matrix(a, b, up)
                      - kernel_matrix(a, b, dn)) / (2 * eps)
                scale = max(1.0, np.max(np.abs(fd)))
                npt.assert_allclose(grads[i], fd, atol=1e-5 * scale)

    def test_signal_gradient_equals_kernel(self):
        # d k / d log(sigma_f^2) = k exactly for this family
        rng = np.random.default_rng(16)
        hp = random_hyperparams(rng)
        a = random_inputs(rng, 10)
        grads = kernel_matrix_grads(a, a, hp)
        npt.assert_allclose(grads[0], kernel_matrix(a, a, hp), rtol=1e-12)


class TestHyperparams:
    def test_log_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            hp = random_hyperparams(rng)
            back = RQHyperparams.from_log_params(hp.to_log_params())
            npt.assert_allclose(back.as_array(), hp.as_array(), rtol=1e-12)

    def test_array_round_trip(self):
        hp = RQHyperparams(2.0, 0.3, 0.4, 1.5, 0.01)
        assert RQHyperparams.from_array(hp.as_array()) == hp

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RQHyperparams(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            RQHyperparams(1.0, -0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            RQHyperparams(1.0, 1.0, 1.0, 1.0, np.inf)


class TestJitterLadder:
    def test_clean_matrix_uses_no_jitter(self):
        rng = np.random.default_rng(18)
        x = random_inputs(rng, 30)
        hp = RQHyperparams(1.0, 0.5, 0.5, 1.0, 0.1)
        k = kernel_matrix(x, x, hp) + 0.1 * np.eye(30)
        chol, jitter = chol_with_jitter(k, scale=1.0)
        assert jitter == 0.0
        npt.assert_allclose(chol @ chol.T, k, atol=1e-10)

    def test_escalates_on_near_singular(self):
        # duplicated rows make the Gram matrix exactly singular
        x = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 1.5]])
        k = kernel_matrix(x, x, RQHyperparams(1.0, 0.5, 0.5, 1.0, 0.1))
        chol, jitter = chol_with_jitter(k, scale=1.0)
        assert jitter in JITTER_LADDER and jitter > 0.0
        npt.assert_allclose(chol @ chol.T, k + jitter * np.eye(3), atol=1e-8)

    def test_scale_multiplies_ladder(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        hp = RQHyperparams(4.0, 0.5, 0.5, 1.0, 0.1)
        k = kernel_matrix(x, x, hp)
        _, jitter = chol_with_jitter(k, scale=hp.signal_variance)
        ratio = jitter / hp.signal_variance
        assert any(np.isclose(ratio, rung) for rung in JITTER_LADDER[1:])

    def test_hopeless_matrix_raises(self):
        bad = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(NumericalError):
            chol_with_jitter(bad, scale=1.0)
