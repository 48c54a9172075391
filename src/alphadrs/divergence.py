"""Monte-Carlo and quadrature estimators of Renyi alpha-divergences.

Every estimator works in the log domain via log-sum-exp; raw density
ratios are never exponentiated before the reduction (at alpha around 20
they would overflow otherwise).  Standard errors come from the delta
method on the log of the sample mean.  All functions are pure over
immutable batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    TargetDensity,
    ValidationError,
    VariationalDist,
    eval_log_unnorm,
    log_q,
    sample_reparam,
)

__all__ = [
    "WeightedBatch",
    "RefinementConfig",
    "DivergenceEstimate",
    "DegenerateBatchError",
    "GridTooCoarseError",
    "draw_batch",
    "batch_from_points",
    "estimate_renyi",
    "estimate_renyi_refined",
    "quadrature_renyi_1d",
    "estimate_log_M",
]


class DegenerateBatchError(ValueError):
    """All importance weights vanished; the batch carries no information."""


class GridTooCoarseError(ValueError):
    """Quadrature grid refinement moved the normalizer by more than tolerance."""


@dataclass(frozen=True)
class WeightedBatch:
    """L = log q - log p~ per proposal sample, the one number the estimators read.

    Small L means the proposal underweights a high-target-density point;
    L = +inf where p~ = 0.  Read-only, 1-D and non-empty.
    """

    L_vals: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L_vals, dtype=float)
        if L.ndim != 1 or L.shape[0] < 1:
            raise ValidationError(f"L_vals must be 1-D and non-empty, got shape {L.shape}")
        L.setflags(write=False)
        object.__setattr__(self, "L_vals", L)

    @property
    def size(self) -> int:
        return self.L_vals.shape[0]


def batch_from_points(
    q: VariationalDist, target: TargetDensity, points: np.ndarray
) -> WeightedBatch:
    """The batch of L = log q - log p~ at an (n, dim) array of proposal points."""
    return WeightedBatch(log_q(q, points) - eval_log_unnorm(target, points))


def draw_batch(
    q: VariationalDist, target: TargetDensity, rng: np.random.Generator, S: int
) -> WeightedBatch:
    """Sample S points from q and build the weighted batch."""
    points, _ = sample_reparam(q, rng, S)
    return batch_from_points(q, target, points)


@dataclass(frozen=True)
class RefinementConfig:
    """Stage-2 settings: threshold T (= -log M) and the acceptance law.

    ``log_accept`` is the law a(x|T) = (1 + exp(t (L - T)))^(-1/t).
    ``softmin_t`` may be ``math.inf`` for the exact-rejection-sampling limit
    min[1, p~/(e^-T q)]; ``T = +inf`` accepts every proposal where p~ > 0.
    ``hard_cutoff`` switches to indicator acceptance (accept iff L <= T),
    the variant whose empirical acceptance rate tracks the quantile level
    gamma.  ``alpha`` is read by nothing and is kept only for callers that
    still pass it.
    """

    T: float
    softmin_t: float = 1.0
    hard_cutoff: bool = False
    alpha: float | None = None

    def __post_init__(self):
        if math.isnan(self.T):
            raise ValidationError("T must be a number or +-inf, got nan")
        if not self.softmin_t > 0:
            raise ValidationError(f"softmin_t must be positive, got {self.softmin_t}")

    def log_accept(self, L):
        """log a(x|T) for L = log q - log p~; vectorized over arrays.

        Computed through a numerically safe softplus so it saturates
        smoothly: log a = -softplus(t (L - T)) / t, with
        softplus(y) = max(y, 0) + log1p(exp(-|y|)), ``np.logaddexp(0, y)``'s
        own formula.  It runs in place on one (n,) buffer beside the
        max(y, 0) array, through numpy's ``exp`` and ``log1p`` loops, so its
        last bit follows numpy's SIMD dispatch (within a few ulp of
        ``logaddexp``).  A scalar L gives a scalar.
        """
        if self.T == math.inf:
            # L - T at L = +inf (p~ = 0) is inf - inf: that sample is rejected
            # under every law, the others have z = -inf
            z = np.where(L == math.inf, math.inf, -math.inf)
        else:
            z = np.asarray(L - self.T, dtype=float)
        if self.hard_cutoff:
            return np.where(z <= 0.0, 0.0, -np.inf)
        if math.isinf(self.softmin_t):
            return -np.maximum(z, 0.0)
        t = self.softmin_t
        # t z may leave the float range; every step below is exact at +-inf
        with np.errstate(over="ignore"):
            np.multiply(z, t, out=z)
        m = np.maximum(z, 0.0)
        np.abs(z, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.log1p(z, out=z)
        z += m
        z /= -t
        return z[()]


@dataclass(frozen=True)
class DivergenceEstimate:
    """A Monte-Carlo divergence value in nats with its standard error."""

    alpha: float
    value: float
    std_error: float
    sample_count: int
    flags: tuple = field(default_factory=tuple)


def _log_mean_exp_with_se(a: np.ndarray):
    """log(mean(exp(a))) and the delta-method stderr of that log-mean.

    Returns (log_mean, relative_se) where relative_se = sd(exp a)/(sqrt(S) mean(exp a)),
    computed with the max factored out so nothing overflows.
    """
    S = a.shape[0]
    m = np.max(a)
    if not np.isfinite(m):
        raise DegenerateBatchError(
            "all log weights are -inf; the proposal saw no target mass"
        )
    t = a - m
    np.exp(t, out=t)
    mean_t = t.mean()
    log_mean = m + math.log(mean_t)
    if S == 1:
        return log_mean, math.inf
    # t.std(ddof=1)'s own steps, in place on t: np.std would allocate another (S,)
    t -= mean_t
    np.multiply(t, t, out=t)
    sd = np.sqrt(np.add.reduce(t) / (S - 1))
    return log_mean, float(sd / (math.sqrt(S) * mean_t))


def _check_order(alpha: float) -> None:
    """ValidationError unless ``alpha`` is a finite Renyi order other than 1."""
    if not 0 < alpha < math.inf:
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    if alpha == 1.0:
        raise ValidationError("alpha = 1 is singular here")


def estimate_renyi(alpha: float, batch: WeightedBatch) -> DivergenceEstimate:
    """Renyi divergence D_alpha(p || q) from proposal samples.

    value = [logsumexp(alpha * (log p~ - log q)) - log S] / (alpha - 1)

    p~ must be normalized (log Z_p = 0): scaling it by e^c moves the value
    by alpha c / (alpha - 1).
    """
    _check_order(alpha)
    log_mean, rel_se = _log_mean_exp_with_se(-alpha * batch.L_vals)
    value = log_mean / (alpha - 1)
    se = rel_se / abs(alpha - 1)
    return DivergenceEstimate(alpha, float(value), se, batch.size)


def estimate_renyi_refined(
    alpha: float, batch: WeightedBatch, config: RefinementConfig
) -> DivergenceEstimate:
    """D_alpha(p || r) for the refined distribution r = q * a / Z_R.

    ``config`` fixes the acceptance law.  Uses only proposal samples: with
    log acceptance la_s,
        value = log Z_R_hat
                + [logsumexp(alpha*(log p~ - log q) + (1-alpha)*la) - log S]/(alpha-1),
        log Z_R_hat = logsumexp(la) - log S.
    p~ must be normalized, as for ``estimate_renyi``.  A sample where p~ = 0
    adds nothing to either sum.  The two Monte-Carlo terms' delta-method
    errors combine in quadrature.
    """
    _check_order(alpha)
    la = config.log_accept(batch.L_vals)
    # where p~ = 0, L = +inf and la = -inf under every law
    p_zero = np.isposinf(batch.L_vals)
    if alpha > 1.0 and np.any(np.isneginf(la) & ~p_zero):
        # r vanishes on part of p's support (hard cutoff): the divergence is
        # infinite for alpha > 1
        return DivergenceEstimate(alpha, math.inf, math.inf, batch.size, ("degenerate",))
    log_Z_R, se_z = _log_mean_exp_with_se(la)
    # la becomes the log terms in place, so one (n,) log array is held
    with np.errstate(invalid="ignore"):  # -inf + inf at the p~ = 0 samples
        np.multiply(1.0 - alpha, la, out=la)
        la -= alpha * batch.L_vals
    la[p_zero] = -np.inf
    log_mean, rel_se = _log_mean_exp_with_se(la)
    value = log_Z_R + log_mean / (alpha - 1)
    se = math.hypot(rel_se / abs(alpha - 1), se_z)
    return DivergenceEstimate(alpha, float(value), se, batch.size)


def estimate_log_M(batch: WeightedBatch) -> float:
    """Sample lower bound on log M = sup_x log(p~/q): max log weight seen."""
    return -float(np.min(batch.L_vals))


def _log_trapezoid(log_f: np.ndarray, x: np.ndarray) -> float:
    """log integral of exp(log_f) by the trapezoid rule, max factored out."""
    m = np.max(log_f)
    if not np.isfinite(m):
        return -math.inf
    return m + math.log(np.trapezoid(np.exp(log_f - m), x))


def quadrature_renyi_1d(log_p, log_r_unnorm, alpha: float, grid) -> float:
    """Trapezoid-rule oracle for D_alpha between two 1-D densities.

    ``log_p`` and ``log_r_unnorm`` are vectorized callables over a 1-D grid
    array and may be unnormalized; both are normalized on the grid before
    the divergence integral.  ``grid`` is ``(lo, hi, n)``.  The integral is
    evaluated on a midpoint-refined grid; if refinement moves either log
    normalizer by more than 1e-4 the grid is rejected as too coarse.
    Densities must be strictly positive on the grid interior.
    """
    _check_order(alpha)
    lo, hi, n = grid
    if not (hi > lo and n >= 3):
        raise ValidationError(f"bad grid {grid}")
    coarse = np.linspace(lo, hi, int(n))
    fine = np.linspace(lo, hi, 2 * int(n) - 1)
    normalized = []
    for f in (log_p, log_r_unnorm):
        vals_c = np.asarray(f(coarse), dtype=float)
        vals_f = np.asarray(f(fine), dtype=float)
        z_c = _log_trapezoid(vals_c, coarse)
        z_f = _log_trapezoid(vals_f, fine)
        if abs(z_f - z_c) > 1e-4:
            raise GridTooCoarseError(
                f"normalizer moved by {abs(z_f - z_c):.3g} under grid refinement"
            )
        normalized.append(vals_f - z_f)
    lp, lr = normalized
    integrand = alpha * lp + (1.0 - alpha) * lr
    # where p vanishes the integrand is zero for any alpha > 0
    integrand = np.where(np.isneginf(lp), -np.inf, integrand)
    return float(_log_trapezoid(integrand, fine) / (alpha - 1.0))
