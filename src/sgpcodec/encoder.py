"""Scout-side compression of an occupancy surface into M inducing triples.

The encoder fits a sparse variational GP to the occupied samples of a
scan.  Training alternates a discrete E-step (swap-based inducing-set
refinement) with a continuous M-step (gradient ascent on the log
hyperparameters), both monotone in the variational bound

    F_V = log N(y | 0, sn2 I + Q_nn) - Tr(K_nn - Q_nn) / (2 sn2)

with Q_nn = K_nm K_mm^-1 K_mn.  One pass computes the bound and its
gradient in O(N M^2) time and O(N M) memory: it keeps one M x N matrix,
Lm^-1 K_mn / sigma, and streams the N training rows in blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

from .geometry import Pose, SensorModel, project_to_surface
from .kernel import (
    NumericalError,
    RQHyperparams,
    chol_with_jitter,
    kernel_diag,
    kernel_matrix,
    kernel_matrix_grads,
)

MAX_EXACT_N = 4096
# kernel entries per row block of the bound pass; desk scans (N M <= 2.9e6) fit in one
BLOCK_ENTRIES = 3 * 2**20
# box for log hyperparameters during ascent; exp(25) is still float32-safe
LOG_PARAM_LIMIT = 25.0


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Occupied surface samples: inputs (N, 2) and occupancy targets (N,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float).ravel()
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if inputs.ndim != 2 or inputs.shape[1] != 2:
            raise ValueError(f"inputs must be (N, 2), got {inputs.shape}")
        if inputs.shape[0] != targets.shape[0] or targets.shape[0] < 1:
            raise ValueError("need matching inputs/targets with N >= 1")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("training data must be finite")
        if np.any(targets <= 0):
            raise ValueError("occupancy targets must be positive")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def from_surface(cls, surface: np.ndarray) -> "TrainingSet":
        surface = np.asarray(surface, dtype=float)
        return cls(surface[:, :2], surface[:, 2])


@dataclass(frozen=True, eq=False)
class InducingSet:
    """M distinct training indices with their copied locations and values."""

    indices: np.ndarray
    locations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).ravel())
        if indices.ndim != 1 or indices.size < 1:
            raise ValueError("need at least one inducing index")
        if np.unique(indices).size != indices.size:
            raise ValueError("inducing indices must be distinct")
        if self.locations.shape != (indices.size, 2) or self.values.size != indices.size:
            raise ValueError("locations/values inconsistent with indices")

    @property
    def size(self) -> int:
        return self.indices.size

    @classmethod
    def from_indices(cls, data: TrainingSet, indices) -> "InducingSet":
        indices = np.asarray(indices, dtype=int)
        return cls(indices, data.inputs[indices], data.targets[indices])


@dataclass(frozen=True)
class EncoderConfig:
    """Knobs of the EM loop; these defaults are the CLI's and the bench INI's too."""

    m: int = 500
    em_rounds: int = 1
    swap_proposals_per_round: int = 0  # E-step off: a swap costs a full O(N M^2) bound
    candidate_pool_size: int = 256
    mstep_iterations: int = 25
    mstep_step_size: float = 1e-4
    rng_seed: int = 0
    r_oc: float = 10.0
    r_min: float = 0.4
    sensor: SensorModel | None = None
    init_hyperparams: RQHyperparams | None = None
    wrap_azimuth: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if min(self.em_rounds, self.swap_proposals_per_round, self.mstep_iterations) < 0:
            raise ValueError("counts must be >= 0")
        if self.candidate_pool_size < 1:
            raise ValueError("candidate_pool_size must be >= 1")
        if self.mstep_step_size <= 0:
            raise ValueError("mstep_step_size must be positive")
        if not 0 < self.r_min < self.r_oc:
            raise ValueError("need 0 < r_min < r_oc")


@dataclass(frozen=True, eq=False)
class CompressedObservation:
    """The transmitted message: pose, r_oc, hyperparameters, M triples.

    Triples are float32 (azimuth, inclination, occupancy) rows; pose and
    scalar fields are quantized to float32 too, so an observation is
    bit-stable through serialization.
    """

    pose: Pose
    r_oc: float
    hyperparams: RQHyperparams
    triples: np.ndarray
    wrap_azimuth: bool = False

    def __post_init__(self):
        triples = np.ascontiguousarray(self.triples, dtype=np.float32)
        if triples.ndim != 2 or triples.shape[1] != 3:
            triples = triples.reshape(-1, 3)
        object.__setattr__(self, "triples", triples)
        if not 0 < self.r_oc < np.inf:
            raise ValueError(f"r_oc must be finite and positive, got {self.r_oc}")
        if not (np.all(np.isfinite(triples)) and np.all(triples[:, 2] > 0)
                and np.all(triples[:, 2] <= self.r_oc)):
            raise ValueError("inducing triples must be finite, occupancies in (0, r_oc]")

    @property
    def m(self) -> int:
        return self.triples.shape[0]

    @property
    def float_count(self) -> int:
        return 3 * self.m + 12

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompressedObservation):
            return NotImplemented
        return (
            self.pose == other.pose
            and self.r_oc == other.r_oc
            and self.hyperparams == other.hyperparams
            and self.wrap_azimuth == other.wrap_azimuth
            and self.triples.shape == other.triples.shape
            and np.array_equal(self.triples, other.triples)
        )


def exact_log_marginal(data: TrainingSet, hp: RQHyperparams,
                       wrap_azimuth: bool = False) -> float:
    """Dense O(N^3) log marginal likelihood log N(y | 0, K_nn + sn2 I).

    Test oracle for the variational bound; refuses N > 4096.
    """
    n = data.size
    if n > MAX_EXACT_N:
        raise ValueError(f"exact marginal limited to N <= {MAX_EXACT_N}, got {n}")
    knn = kernel_matrix(data.inputs, data.inputs, hp, wrap_azimuth)
    knn[np.diag_indices(n)] += hp.noise_variance
    lower, _ = chol_with_jitter(knn, hp.signal_variance)
    alpha = solve_triangular(lower, data.targets, lower=True)
    return float(
        -0.5 * n * np.log(2.0 * np.pi)
        - np.sum(np.log(np.diag(lower)))
        - 0.5 * alpha @ alpha
    )


def variational_bound(data: TrainingSet, inducing: InducingSet, hp: RQHyperparams,
                      wrap_azimuth: bool = False) -> float:
    """Variational lower bound F_V on the exact log marginal likelihood."""
    return _bound_pass(data, inducing, hp, wrap_azimuth, want_grad=False)[0]


def bound_grad_hyperparams(data: TrainingSet, inducing: InducingSet,
                           hp: RQHyperparams, wrap_azimuth: bool = False) -> np.ndarray:
    """Analytic gradient of F_V w.r.t. the five log hyperparameters.

    Derived by writing dF_V as trace inner products against dK_nm,
    dK_mm, and diag(dK_nn), then collapsing every term through the
    M x M factors; matches central finite differences to ~1e-6 relative.
    """
    return _bound_pass(data, inducing, hp, wrap_azimuth, want_grad=True)[1]


def _bound_pass(data: TrainingSet, inducing: InducingSet, hp: RQHyperparams,
                wrap_azimuth: bool, want_grad: bool):
    """(F_V, its gradient if want_grad else None), over (rows, M) kernel blocks."""
    n, m = data.size, inducing.size
    sn2, sf2 = hp.noise_variance, hp.signal_variance
    sigma = np.sqrt(sn2)
    x, z_loc, y = data.inputs, inducing.locations, data.targets
    rows = BLOCK_ENTRIES // m
    blocks = [slice(start, start + rows) for start in range(0, n, rows)]
    lm, jitter = chol_with_jitter(kernel_matrix(z_loc, z_loc, hp, wrap_azimuth), sf2)
    a = np.empty((m, n), order="F")  # Lm^-1 K_mn / sigma; F order fixes A A^T rounding
    for blk in blocks:  # a transposed (rows, M) block is F-ordered: solved in place
        a[:, blk] = solve_triangular(lm, kernel_matrix(x[blk], z_loc, hp, wrap_azimuth).T,
                                     lower=True, overwrite_b=True)
    a /= sigma
    trace_q = sum(float(np.sum(a[:, blk] * a[:, blk])) for blk in blocks)
    b = np.eye(m) + a @ a.T
    try:
        lb = cholesky(b, lower=True)
    except LinAlgError as exc:  # b = I + a a^T is PD barring overflow
        raise NumericalError("inner factor not positive definite") from exc
    ay = a @ y
    c = solve_triangular(lb, ay, lower=True) / sigma
    trace_knn = float(np.sum(kernel_diag(n, hp)))
    bound = float(
        -0.5 * n * np.log(2.0 * np.pi)
        - np.sum(np.log(np.diag(lb)))
        - 0.5 * n * np.log(sn2)
        - 0.5 * (y @ y) / sn2
        + 0.5 * (c @ c)
        - 0.5 * (trace_knn - sn2 * trace_q) / sn2
    )
    if not want_grad:
        return bound, None

    eye_m = np.eye(m)
    b_inv = cho_solve((lb, True), eye_m)
    alpha = (y - a.T @ cho_solve((lb, True), ay)) / sn2  # (sn2 I + Q)^-1 y

    # dF/dK_nm = outer(alpha, h) + A^T zm; per block v_i = dK_i^T alpha, t_i = <A^T zm, dK_i>
    zm = (eye_m - b_inv) @ solve_triangular(lm, eye_m, lower=True) / sigma
    v, t = np.zeros((4, m)), np.zeros(4)
    for blk in blocks:
        p_blk = a[:, blk].T @ zm
        for i, dk in enumerate(kernel_matrix_grads(x[blk], z_loc, hp, wrap_azimuth)):
            v[i] += alpha[blk] @ dk
            t[i] += np.sum(p_blk * dk)
    h = cho_solve((lm, True), v[0])  # K_mm^-1 K_mn alpha, as dK/dlog sf2 = K

    # dF/dK_mm aggregated: -1/2 h h^T + 1/2 Lm^-T (2I - B^-1 - B) Lm^-1
    core = 2.0 * eye_m - b_inv - b
    s1 = solve_triangular(lm.T, core, lower=False)
    w = solve_triangular(lm.T, s1.T, lower=False)
    g_mm = -0.5 * np.outer(h, h) + 0.5 * w
    grads_mm = kernel_matrix_grads(z_loc, z_loc, hp, wrap_azimuth)
    grads_mm[0] = grads_mm[0] + jitter * eye_m  # relative jitter scales with sf2

    grad = np.zeros(5)
    grad[:4] = v @ h + t + [np.sum(g_mm * dk) for dk in grads_mm]
    grad[0] += -0.5 * n * sf2 / sn2  # diag(K_nn) term of the trace penalty

    # noise: dF/dsn2 via trace identities, then chain to log sn2
    trace_s_inv = (n - m + float(np.trace(b_inv))) / sn2
    trace_t = n * sf2 - sn2 * float(np.trace(b) - m)
    df_dsn2 = 0.5 * (alpha @ alpha) - 0.5 * trace_s_inv + 0.5 * trace_t / sn2**2
    grad[4] = sn2 * df_dsn2
    return bound, grad


def init_inducing_even(data: TrainingSet, m: int, seed: int = 0) -> InducingSet:
    """Evenly spread M samples over the (azimuth, inclination)-sorted scan.

    Sorts lexicographically by azimuth then inclination (exact duplicates
    shuffled by the seed) and picks the floor(i N / M)-th entries.
    """
    n = data.size
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        warnings.warn(f"m={m} exceeds N={n}; capped at N", stacklevel=2)
        m = n
    rng = np.random.default_rng(seed)
    tie_break = rng.permutation(n)
    order = np.lexsort((tie_break, data.inputs[:, 1], data.inputs[:, 0]))
    picks = order[(np.arange(m) * n) // m]
    return InducingSet.from_indices(data, picks)


def refine_inducing_swap(data: TrainingSet, inducing: InducingSet,
                         hp: RQHyperparams, cfg: EncoderConfig,
                         rng: np.random.Generator | None = None,
                         trace: list | None = None) -> InducingSet:
    """E-step: propose single-index swaps, keep those that raise F_V.

    Candidates come from a pool of cfg.candidate_pool_size uniformly
    sampled data indices; each proposal pairs a uniform inducing slot
    with a uniform pool member and is accepted iff the bound strictly
    increases.  The returned set never has a lower bound than the input.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    n = data.size
    if cfg.swap_proposals_per_round == 0 or inducing.size >= n:
        return inducing
    pool = rng.choice(n, size=min(cfg.candidate_pool_size, n), replace=False)
    current = np.array(inducing.indices)
    taken = set(current.tolist())
    f_cur = variational_bound(data, inducing, hp, cfg.wrap_azimuth)
    for _ in range(cfg.swap_proposals_per_round):
        slot = int(rng.integers(current.size))
        candidate = int(pool[rng.integers(pool.size)])
        if candidate in taken:
            continue
        proposal = current.copy()
        proposal[slot] = candidate
        trial = InducingSet.from_indices(data, proposal)
        try:
            f_new = variational_bound(data, trial, hp, cfg.wrap_azimuth)
        except NumericalError:
            continue
        if f_new > f_cur:
            taken.discard(int(current[slot]))
            taken.add(candidate)
            current = proposal
            f_cur = f_new
            if trace is not None:
                trace.append(("estep", f_new))
    return InducingSet.from_indices(data, current)


def optimize_hyperparams(data: TrainingSet, inducing: InducingSet,
                         hp: RQHyperparams, cfg: EncoderConfig,
                         trace: list | None = None) -> RQHyperparams:
    """M-step: fixed-step gradient ascent on log params with backtracking.

    Each iteration tries the full step, halving up to 10 times while the
    bound decreases; an iteration with no acceptable step ends the loop.
    Numerical failures return the best hyperparameters found so far.
    """
    log_p = hp.to_log_params()
    try:
        f_cur = variational_bound(data, inducing, hp, cfg.wrap_azimuth)
    except NumericalError:
        warnings.warn("bound undefined at initial hyperparameters", stacklevel=2)
        return hp
    for _ in range(cfg.mstep_iterations):
        try:
            grad = bound_grad_hyperparams(data, inducing, hp, cfg.wrap_azimuth)
        except NumericalError:
            warnings.warn("gradient failed; returning best hyperparameters so far",
                          stacklevel=2)
            break
        step = cfg.mstep_step_size
        accepted = False
        for _ in range(11):  # initial step plus up to 10 halvings
            candidate = np.clip(log_p + step * grad,
                                -LOG_PARAM_LIMIT, LOG_PARAM_LIMIT)
            try:
                hp_new = RQHyperparams.from_log_params(candidate)
                f_new = variational_bound(data, inducing, hp_new, cfg.wrap_azimuth)
            except (ValueError, NumericalError):
                f_new = -np.inf
            if f_new > f_cur:
                log_p, hp, f_cur = candidate, hp_new, f_new
                accepted = True
                if trace is not None:
                    trace.append(("mstep", f_new))
                break
            step *= 0.5
        if not accepted:
            break
    return hp


def default_hyperparams(data: TrainingSet,
                        sensor: SensorModel | None = None) -> RQHyperparams:
    """Resolution-aware starting point for the M-step.

    With a sensor: l_theta = 50x azimuth resolution, l_alpha = 2x channel
    spacing.  Without one, fall back to fixed angular scales.  Signal
    variance starts at the target variance, noise at 1e-2 m^2.
    """
    if sensor is not None:
        l_theta = 50.0 * sensor.azimuth_resolution
        channels = sensor.inclination_channels
        spacing = float(np.min(np.diff(channels))) if channels.size > 1 else 0.05
        l_alpha = 2.0 * spacing
    else:
        l_theta, l_alpha = 0.2, 0.1
    sf2 = max(float(np.var(data.targets)), 1e-6)
    return RQHyperparams(sf2, l_theta, l_alpha, 1.0, 1e-2)


def encode(cloud: np.ndarray, pose: Pose, cfg: EncoderConfig) -> CompressedObservation:
    """Compress one scan: project, pick inducing points, run EM, package."""
    obs, _ = encode_with_trace(cloud, pose, cfg)
    return obs


def encode_with_trace(cloud: np.ndarray, pose: Pose,
                      cfg: EncoderConfig) -> tuple[CompressedObservation, list]:
    """Like :func:`encode` but also returns the accepted-step F_V trace.

    Trace entries are ("estep" | "mstep", F_V) tuples in acceptance
    order; the F_V values are non-decreasing within each phase.
    """
    surface = project_to_surface(cloud, cfg.r_oc, cfg.r_min)
    pose_q = Pose.from_array(np.asarray(pose.as_array(), dtype=np.float32))
    if surface.shape[0] == 0:
        hp = cfg.init_hyperparams or RQHyperparams()
        return _package(pose_q, cfg, hp, np.zeros((0, 3))), []

    data = TrainingSet.from_surface(surface)
    hp = cfg.init_hyperparams or default_hyperparams(data, cfg.sensor)
    inducing = init_inducing_even(data, min(cfg.m, data.size), seed=cfg.rng_seed)
    rng = np.random.default_rng(cfg.rng_seed)
    trace: list = []
    for _ in range(cfg.em_rounds):
        inducing = refine_inducing_swap(data, inducing, hp, cfg, rng=rng, trace=trace)
        hp = optimize_hyperparams(data, inducing, hp, cfg, trace=trace)
    triples = np.column_stack([inducing.locations, inducing.values])
    return _package(pose_q, cfg, hp, triples), trace


def _package(pose: Pose, cfg: EncoderConfig, hp: RQHyperparams,
             triples: np.ndarray) -> CompressedObservation:
    hp_q = RQHyperparams.from_array(np.asarray(hp.as_array(), dtype=np.float32))
    return CompressedObservation(
        pose=pose,
        r_oc=float(np.float32(cfg.r_oc)),
        hyperparams=hp_q,
        triples=np.asarray(triples, dtype=np.float32),
        wrap_azimuth=cfg.wrap_azimuth,
    )
