"""Stage 2: threshold selection and the smoothed rejection sampler.

The sampler draws x ~ q and accepts with probability
a(x|T) = (1 + exp(t (L - T)))^(-1/t) where L = log q - log p~.  At t = 1
this is the differentiable acceptance 1/(1 + q e^-T / p~); as t -> inf it
approaches exact rejection sampling's min[1, p~/(e^-T q)].  A separate
hard-cutoff mode (accept iff L <= T) is kept for quantile-calibrated
refinement, where the acceptance rate must track gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TargetDensity,
    ValidationError,
    VariationalDist,
    eval_log_unnorm,
    log_q,
    logsumexp,
    sample_reparam,
)
from .divergence import DivergenceEstimate

__all__ = [
    "RefinementConfig",
    "RefinedSampleSet",
    "RefinementError",
    "Histogram",
    "select_T_low_dim",
    "select_T_quantile",
    "pilot_threshold",
    "acceptance_prob",
    "log_acceptance_prob",
    "refine",
    "empirical_pdf",
    "write_sample_set_csv",
]

_CHUNK = 4096


class RefinementError(RuntimeError):
    """The sampler exhausted its proposal budget without accepting anything."""

    def __init__(self, message, T=None, min_L=None, mean_L=None, proposals_used=0):
        super().__init__(message)
        self.T = T
        self.min_L = min_L
        self.mean_L = mean_L
        self.proposals_used = proposals_used


@dataclass(frozen=True)
class RefinementConfig:
    """Stage-2 settings: threshold T (= -log M), softmin temperature, T rule.

    ``softmin_t`` may be ``math.inf`` for the exact-rejection-sampling limit
    min[1, p~/(e^-T q)].  ``hard_cutoff`` switches to indicator acceptance
    (accept iff L <= T), the variant whose empirical acceptance rate tracks
    the quantile level gamma.
    """

    alpha: float
    T: float
    softmin_t: float = 1.0
    gamma: float | None = None
    t_rule: str = "low-dim"
    hard_cutoff: bool = False

    def __post_init__(self):
        if not self.softmin_t > 0:
            raise ValidationError(f"softmin_t must be positive, got {self.softmin_t}")
        if self.t_rule not in ("low-dim", "quantile"):
            raise ValidationError(f"unknown t_rule {self.t_rule!r}")
        if self.t_rule == "quantile":
            if self.gamma is None or not 0.0 <= self.gamma <= 1.0:
                raise ValidationError(
                    f"gamma must be in [0, 1] for the quantile rule, got {self.gamma}"
                )


@dataclass(frozen=True)
class RefinedSampleSet:
    """Accepted samples plus exact acceptance accounting."""

    accepted: np.ndarray
    proposals_used: int
    acceptance_rate: float
    log_Z_R_hat: float

    def __post_init__(self):
        acc = np.atleast_2d(np.asarray(self.accepted, dtype=float))
        n = acc.shape[0]
        if n > self.proposals_used:
            raise ValidationError("cannot accept more samples than proposals used")
        if self.proposals_used > 0 and abs(
            self.acceptance_rate - n / self.proposals_used
        ) > 1e-12:
            raise ValidationError("acceptance_rate must equal N / proposals_used")
        acc.setflags(write=False)
        object.__setattr__(self, "accepted", acc)

    @property
    def n_accepted(self) -> int:
        return self.accepted.shape[0]


def select_T_low_dim(div: DivergenceEstimate) -> float:
    """Low-dimension rule: T = -D_alpha(p || q)."""
    if not np.isfinite(div.value):
        raise ValidationError(f"divergence estimate is not finite: {div.value}")
    return -float(div.value)


def select_T_quantile(L_vals, gamma: float) -> float:
    """Empirical gamma-quantile of L by the nearest-rank rule.

    Sort ascending and take the element of 1-based rank ceil(gamma * S),
    clamped to [1, S].  Deterministic and well defined for small S.
    """
    L = np.asarray(L_vals, dtype=float).ravel()
    if L.size == 0:
        raise ValidationError("cannot take a quantile of an empty sample")
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must be in [0, 1], got {gamma}")
    rank = min(max(math.ceil(gamma * L.size), 1), L.size)
    return float(np.sort(L)[rank - 1])


def pilot_threshold(
    q: VariationalDist,
    target: TargetDensity,
    gamma: float,
    S: int,
    rng: np.random.Generator,
):
    """Draw a pilot batch from q and return (T, pilot L values)."""
    points, _ = sample_reparam(q, rng, S)
    L = np.asarray(log_q(q, points)) - eval_log_unnorm(target, points)
    return select_T_quantile(L, gamma), L


def _log_accept_from_gap(z, softmin_t, hard_cutoff):
    """log a as a function of the gap z = L - T."""
    if hard_cutoff:
        return np.where(z <= 0.0, 0.0, -np.inf)
    if not softmin_t > 0:
        raise ValidationError(f"softmin_t must be positive, got {softmin_t}")
    if math.isinf(softmin_t):
        return -np.maximum(z, 0.0)
    return -np.logaddexp(0.0, softmin_t * z) / softmin_t


def log_acceptance_prob(log_p_tilde, log_q_val, T, softmin_t, hard_cutoff=False):
    """log a(x|T); vectorized over arrays.

    Computed through a numerically safe softplus so it saturates smoothly:
    log a = -softplus(t (L - T)) / t with L = log q - log p~.
    """
    z = (np.asarray(log_q_val, dtype=float) - np.asarray(log_p_tilde, dtype=float)) - T
    return _log_accept_from_gap(z, softmin_t, hard_cutoff)


def acceptance_prob(log_p_tilde, log_q_val, T, softmin_t, hard_cutoff=False):
    """Acceptance probability in (0, 1]; see log_acceptance_prob."""
    out = np.exp(log_acceptance_prob(log_p_tilde, log_q_val, T, softmin_t, hard_cutoff))
    return float(out) if np.ndim(out) == 0 else out


def refine(
    q: VariationalDist,
    target: TargetDensity,
    config: RefinementConfig,
    rng: np.random.Generator,
    n_accept_goal: int,
    max_proposals: int | None = None,
) -> RefinedSampleSet:
    """Run the approximate rejection sampler until the acceptance goal.

    Repeatedly draws x ~ q and u ~ U[0,1) and accepts when u < a(x|T)
    (u = a rejects).  Stops at ``n_accept_goal`` accepted samples or when
    ``max_proposals`` (default 200 * goal) proposals are consumed.
    log Z_R is estimated as the log of the mean acceptance probability over
    every proposal consumed.
    """
    if n_accept_goal < 1:
        raise ValidationError(f"n_accept_goal must be >= 1, got {n_accept_goal}")
    if max_proposals is None:
        max_proposals = 200 * n_accept_goal
    accepted = []
    log_a_chunks = []
    used = 0
    n_acc = 0
    min_L, sum_L = math.inf, 0.0
    while n_acc < n_accept_goal and used < max_proposals:
        n = min(_CHUNK, max_proposals - used)
        points, _ = sample_reparam(q, rng, n)
        L = np.asarray(log_q(q, points)) - eval_log_unnorm(target, points)
        la = _log_accept_from_gap(L - config.T, config.softmin_t, config.hard_cutoff)
        u = rng.random(n)
        take = u < np.exp(la)
        need = n_accept_goal - n_acc
        hits = np.nonzero(take)[0]
        if hits.size >= need:
            # consume only up to the proposal that meets the goal
            cut = hits[need - 1] + 1
            points, L, la, take = points[:cut], L[:cut], la[:cut], take[:cut]
            n = cut
        accepted.append(points[take])
        log_a_chunks.append(la)
        min_L = min(min_L, float(L.min()))
        sum_L += float(L.sum())
        n_acc += int(take.sum())
        used += n
    if n_acc == 0:
        raise RefinementError(
            f"no acceptances after {used} proposals "
            f"(T={config.T:.6g}, min L={min_L:.6g}, mean L={sum_L / max(used, 1):.6g}); "
            "the threshold sits far below the bulk of L",
            T=config.T,
            min_L=min_L,
            mean_L=sum_L / max(used, 1),
            proposals_used=used,
        )
    all_la = np.concatenate(log_a_chunks)
    log_Z_R_hat = float(logsumexp(all_la) - math.log(used))
    return RefinedSampleSet(
        accepted=np.concatenate(accepted, axis=0),
        proposals_used=used,
        acceptance_rate=n_acc / used,
        log_Z_R_hat=log_Z_R_hat,
    )


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram (area 1) over uniform bins."""

    edges: np.ndarray
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def empirical_pdf(samples, bins: int, range_) -> Histogram:
    """Area-normalized histogram of 1-D samples over uniform bins."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 2:
        if x.shape[1] != 1:
            raise ValidationError(f"empirical_pdf needs 1-D samples, got dim {x.shape[1]}")
        x = x[:, 0]
    if x.size == 0:
        raise ValidationError("cannot build a histogram from an empty sample set")
    density, edges = np.histogram(x, bins=bins, range=range_, density=True)
    return Histogram(edges=edges, density=density)


def write_sample_set_csv(sset: RefinedSampleSet, config: RefinementConfig, path):
    """Comma-separated sample rows preceded by a one-line summary."""
    lines = [
        f"# acceptance_rate={sset.acceptance_rate:.10g},log_Z_R_hat={sset.log_Z_R_hat:.10g},"
        f"T={config.T:.10g},alpha={config.alpha:.10g}"
    ]
    for row in sset.accepted:
        lines.append(",".join(f"{v:.10g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
