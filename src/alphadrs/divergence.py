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
    "estimate_kl_limit",
    "estimate_renyi_refined",
    "quadrature_renyi_1d",
    "estimate_log_M",
    "REPORT_HEADER",
    "report_line",
]


class DegenerateBatchError(ValueError):
    """All importance weights vanished; the batch carries no information."""


class GridTooCoarseError(ValueError):
    """Quadrature grid refinement moved the normalizer by more than tolerance."""


@dataclass(frozen=True)
class WeightedBatch:
    """Proposal samples with cached log densities and log ratios.

    ``L_vals`` = log q - log p~ per sample is derived at construction; small
    L means the proposal underweights a high-target-density point.
    """

    points: np.ndarray
    log_q_vals: np.ndarray
    log_p_tilde_vals: np.ndarray
    L_vals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        lq = np.asarray(self.log_q_vals, dtype=float)
        lp = np.asarray(self.log_p_tilde_vals, dtype=float)
        S = pts.shape[0]
        if S < 1:
            raise ValidationError("batch must contain at least one sample")
        if not (lq.shape == lp.shape == (S,)):
            raise ValidationError("log value arrays must all have shape (S,)")
        for name, arr in (
            ("points", pts),
            ("log_q_vals", lq),
            ("log_p_tilde_vals", lp),
            ("L_vals", lq - lp),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def log_weights(self) -> np.ndarray:
        """log p~ - log q per sample."""
        return -self.L_vals


def batch_from_points(
    q: VariationalDist, target: TargetDensity, points: np.ndarray
) -> WeightedBatch:
    """Cache log q, log p~ and L at the given proposal points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lq = np.asarray(log_q(q, points), dtype=float)
    return WeightedBatch(points, lq, eval_log_unnorm(target, points))


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
        smoothly: log a = -softplus(t (L - T)) / t.
        """
        z = L - self.T
        if self.hard_cutoff:
            return np.where(z <= 0.0, 0.0, -np.inf)
        if math.isinf(self.softmin_t):
            return -np.maximum(z, 0.0)
        return -np.logaddexp(0.0, self.softmin_t * z) / self.softmin_t


@dataclass(frozen=True)
class DivergenceEstimate:
    """A Monte-Carlo divergence value in nats with its standard error."""

    alpha: float
    value: float
    std_error: float
    sample_count: int
    flags: tuple = field(default_factory=tuple)


REPORT_HEADER = "alpha,value,std_error,samples"


def report_line(est: DivergenceEstimate) -> str:
    """One line of the line-oriented estimate report consumed by the CLI."""
    return f"{est.alpha:.10g},{est.value:.10g},{est.std_error:.10g},{est.sample_count}"


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
    t = np.exp(a - m)
    mean_t = t.mean()
    log_mean = m + math.log(mean_t)
    rel_se = float(t.std(ddof=1) / (math.sqrt(S) * mean_t)) if S > 1 else math.inf
    return log_mean, rel_se


def estimate_renyi(
    alpha: float, batch: WeightedBatch, log_Z_p: float = 0.0
) -> DivergenceEstimate:
    """Renyi divergence D_alpha(p || q) from proposal samples.

    value = [logsumexp(alpha * (log p~ - log q)) - log S] / (alpha - 1)
            - alpha/(alpha-1) * log_Z_p
    """
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    if alpha == 1.0:
        raise ValidationError("alpha = 1 is singular here; use estimate_kl_limit")
    w = batch.log_weights
    log_mean, rel_se = _log_mean_exp_with_se(alpha * w)
    value = log_mean / (alpha - 1) - alpha / (alpha - 1) * log_Z_p
    se = rel_se / abs(alpha - 1)
    return DivergenceEstimate(alpha, float(value), se, batch.size)


def estimate_kl_limit(
    batch: WeightedBatch, log_Z_p: float | None = None, direction: str = "inclusive"
) -> DivergenceEstimate:
    """Self-normalized importance-sampling KL estimate (the alpha -> 1 limit).

    ``direction="inclusive"`` estimates KL(p || q) with softmax weights over
    log p~ - log q; ``"exclusive"`` estimates KL(q || p).  When ``log_Z_p``
    is None the normalizer is estimated from the same batch (self-normalized);
    passing the known value replaces that estimate.  Flags ``low-ess`` when
    the effective sample size of the weights drops below 10.
    """
    if direction not in ("inclusive", "exclusive"):
        raise ValidationError(f"unknown direction {direction!r}")
    S = batch.size
    ell = batch.log_weights
    m = np.max(ell)
    if not np.isfinite(m):
        raise DegenerateBatchError("all log weights are -inf")
    g = np.exp(ell - m)
    mean_g = g.mean()
    t = g / mean_g  # normalized weights * S
    log_Z_hat = m + math.log(mean_g)
    ess = float(g.sum() ** 2 / np.sum(g**2))
    flags = ("low-ess",) if ess < 10 else ()

    if direction == "inclusive":
        # a sample where p~ = 0 has weight t = 0: it adds 0, not 0 * -inf
        ell = np.where(np.isneginf(ell), 0.0, ell)
        ratio = float(np.mean(t * ell))  # self-normalized E_p[log p~ - log q]
        if log_Z_p is None:
            value = ratio - log_Z_hat
            per_sample = t * (ell - ratio - 1.0)
        else:
            value = ratio - log_Z_p
            per_sample = t * (ell - ratio)
    else:
        mean_L = float(np.mean(batch.L_vals))
        if log_Z_p is None:
            value = mean_L + log_Z_hat
            per_sample = batch.L_vals + t
        else:
            value = mean_L + log_Z_p
            per_sample = batch.L_vals
    if S > 1 and math.isfinite(value):
        se = float(np.std(per_sample, ddof=1) / math.sqrt(S))
    else:
        # an infinite value (q has mass where p~ = 0) has no finite se
        se = math.inf
    return DivergenceEstimate(1.0, float(value), se, S, flags)


def estimate_renyi_refined(
    alpha: float, batch: WeightedBatch, config: RefinementConfig, log_Z_p: float = 0.0
) -> DivergenceEstimate:
    """D_alpha(p || r) for the refined distribution r = q * a / Z_R.

    ``config`` fixes the acceptance law.  Uses only proposal samples: with
    log acceptance la_s,
        value = log Z_R_hat
                + [logsumexp(alpha*(log p~ - log q) + (1-alpha)*la) - log S]/(alpha-1)
                - alpha/(alpha-1) * log_Z_p,
        log Z_R_hat = logsumexp(la) - log S.
    A sample where p~ = 0 adds nothing to either sum.  The two Monte-Carlo
    terms' delta-method errors combine in quadrature.
    """
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    if alpha == 1.0:
        raise ValidationError("alpha = 1 is singular here")
    la = config.log_accept(batch.L_vals)
    w = batch.log_weights
    # where p~ = 0, L = +inf and la = -inf under every law
    p_zero = np.isneginf(batch.log_p_tilde_vals)
    if alpha > 1.0 and np.any(np.isneginf(la) & ~p_zero):
        # r vanishes on part of p's support (hard cutoff): the divergence is
        # infinite for alpha > 1
        return DivergenceEstimate(alpha, math.inf, math.inf, batch.size, ("degenerate",))
    with np.errstate(invalid="ignore"):  # -inf + inf at the p~ = 0 samples
        log_terms = np.where(p_zero, -np.inf, alpha * w + (1.0 - alpha) * la)
    log_mean, rel_se = _log_mean_exp_with_se(log_terms)
    a_vals = np.exp(la)
    mean_a = a_vals.mean()
    if mean_a == 0.0:
        raise DegenerateBatchError("acceptance probability vanished on every sample")
    log_Z_R = math.log(mean_a)
    se_main = rel_se / abs(alpha - 1)
    se_z = (
        float(a_vals.std(ddof=1) / (math.sqrt(batch.size) * mean_a))
        if batch.size > 1
        else math.inf
    )
    value = log_Z_R + log_mean / (alpha - 1) - alpha / (alpha - 1) * log_Z_p
    return DivergenceEstimate(alpha, float(value), math.hypot(se_main, se_z), batch.size)


def estimate_log_M(batch: WeightedBatch) -> float:
    """Sample lower bound on log M = sup_x log(p~/q): max log weight seen."""
    return float(np.max(batch.log_weights))


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
    if alpha <= 0 or alpha == 1.0:
        raise ValidationError(f"alpha must be positive and != 1, got {alpha}")
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
