"""Rational-quadratic covariance over (azimuth, inclination) inputs.

The kernel is the ARD form

    k(a, b) = sf2 * (1 + d_theta^2 / (2 rq l_th^2)
                       + d_alpha^2 / (2 rq l_al^2)) ** (-rq)

a scale mixture of squared-exponential kernels; rq controls the relative
weighting of large and small scale variations.  Gradients are taken with
respect to the natural logs of the five hyperparameters, in the fixed
order (sf2, l_theta, l_alpha, rq_alpha, sn2), so optimizers can work in
unconstrained coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

PARAM_NAMES = (
    "signal_variance",
    "lengthscale_azimuth",
    "lengthscale_inclination",
    "rq_alpha",
    "noise_variance",
)

# escalating relative jitter tried before declaring a matrix non-PD
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)


class NumericalError(RuntimeError):
    """Cholesky factorization failed even at the largest jitter."""


@dataclass(frozen=True)
class RQHyperparams:
    """Rational-quadratic hyperparameters; all strictly positive."""

    signal_variance: float = 1.0
    lengthscale_azimuth: float = 0.1
    lengthscale_inclination: float = 0.1
    rq_alpha: float = 1.0
    noise_variance: float = 1e-2

    def __post_init__(self):
        values = self.as_array()
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("hyperparameters must be positive and finite")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in PARAM_NAMES])

    @classmethod
    def from_array(cls, values) -> "RQHyperparams":
        return cls(**{name: float(v) for name, v in zip(PARAM_NAMES, values, strict=True)})

    def to_log_params(self) -> np.ndarray:
        return np.log(self.as_array())

    @classmethod
    def from_log_params(cls, log_params) -> "RQHyperparams":
        values = np.exp(np.asarray(log_params, dtype=float))
        if not np.all(np.isfinite(values)):
            raise ValueError("exp(log_params) must be finite")
        return cls.from_array(values)


def _as_inputs(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (N, 2) azimuth/inclination inputs, got {arr.shape}")
    return arr


def _scaled_sq_dists(a: np.ndarray, b: np.ndarray, hp: RQHyperparams,
                     wrap_azimuth: bool) -> tuple[np.ndarray, np.ndarray]:
    d_theta = a[:, None, 0] - b[None, :, 0]
    if wrap_azimuth:
        # minimal signed angle; experimental, PSD not guaranteed
        d_theta = (d_theta + np.pi) % (2.0 * np.pi) - np.pi
    d_alpha = a[:, None, 1] - b[None, :, 1]
    return (
        d_theta * d_theta / hp.lengthscale_azimuth**2,
        d_alpha * d_alpha / hp.lengthscale_inclination**2,
    )


def rq_kernel(a, b, hp: RQHyperparams, wrap_azimuth: bool = False) -> float:
    """Covariance between two (azimuth, inclination) inputs."""
    k = kernel_matrix(_as_inputs(a), _as_inputs(b), hp, wrap_azimuth)
    return float(k[0, 0])


def kernel_matrix(a, b, hp: RQHyperparams, wrap_azimuth: bool = False) -> np.ndarray:
    """Dense |a| x |b| covariance matrix."""
    a, b = _as_inputs(a), _as_inputs(b)
    s_th, s_al = _scaled_sq_dists(a, b, hp, wrap_azimuth)
    u = 1.0 + (s_th + s_al) / (2.0 * hp.rq_alpha)
    return hp.signal_variance * u ** (-hp.rq_alpha)


def kernel_diag(n: int, hp: RQHyperparams) -> np.ndarray:
    """diag of K(X, X): constant sf2 for a stationary kernel."""
    return np.full(n, hp.signal_variance)


def kernel_matrix_grads(a, b, hp: RQHyperparams,
                        wrap_azimuth: bool = False) -> list[np.ndarray]:
    """Partials of the covariance matrix w.r.t. each log hyperparameter.

    Returns four |a| x |b| matrices, for the first four PARAM_NAMES; the
    noise variance enters the model outside K and has no partial here.
    """
    a, b = _as_inputs(a), _as_inputs(b)
    s_th, s_al = _scaled_sq_dists(a, b, hp, wrap_azimuth)
    rq = hp.rq_alpha
    u = 1.0 + (s_th + s_al) / (2.0 * rq)
    k = hp.signal_variance * u ** (-rq)
    k_over_u = k / u
    return [
        k,                      # d/dlog sf2: k linear in sf2
        k_over_u * s_th,        # d/dlog l_theta
        k_over_u * s_al,        # d/dlog l_alpha
        k * rq * ((u - 1.0) / u - np.log(u)),  # d/dlog rq_alpha
    ]


def chol_with_jitter(mat: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of mat + jitter*I, escalating jitter as needed.

    `scale` sets the jitter magnitude (typically the signal variance).
    Returns (L, jitter_used); raises NumericalError when even the largest
    rung fails.
    """
    mat = np.asarray(mat, dtype=float)
    for rel in JITTER_LADDER:
        jitter = rel * scale
        try:
            lower = scipy.linalg.cholesky(
                mat + jitter * np.eye(mat.shape[0]), lower=True
            )
            return lower, jitter
        except scipy.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"matrix of size {mat.shape[0]} not positive definite at jitter "
        f"{JITTER_LADDER[-1] * scale:g}"
    )
