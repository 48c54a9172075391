"""Stage 2: threshold selection and the smoothed rejection sampler.

The sampler draws x ~ q and accepts with probability a(x|T), the law in
``RefinementConfig.log_accept``: (1 + exp(t (L - T)))^(-1/t) where
L = log q - log p~.  At t = 1 this is the differentiable acceptance
1/(1 + q e^-T / p~); as t -> inf it approaches exact rejection sampling's
min[1, p~/(e^-T q)].  A separate hard-cutoff mode (accept iff L <= T) is
kept for quantile-calibrated refinement, where the acceptance rate must
track gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TargetDensity,
    ValidationError,
    VariationalDist,
    _check_integer,
    sample_reparam,
)
from .divergence import (
    DivergenceEstimate,
    RefinementConfig,
    batch_from_points,
    draw_batch,
)

__all__ = [
    "RefinementConfig",
    "RefinedSampleSet",
    "RefinementError",
    "select_T_low_dim",
    "select_T_quantile",
    "pilot_threshold",
    "refine",
]


class RefinementError(RuntimeError):
    """The sampler exhausted its proposal budget without accepting anything."""

    def __init__(self, message, T=None, min_L=None, mean_L=None, proposals_used=0):
        super().__init__(message)
        self.T = T
        self.min_L = min_L
        self.mean_L = mean_L
        self.proposals_used = proposals_used


@dataclass(frozen=True)
class RefinedSampleSet:
    """Accepted samples plus exact acceptance accounting."""

    accepted: np.ndarray
    proposals_used: int
    log_Z_R_hat: float

    def __post_init__(self):
        acc = np.atleast_2d(np.asarray(self.accepted, dtype=float))
        if self.proposals_used < 1:
            raise ValidationError(f"proposals_used must be >= 1, got {self.proposals_used}")
        if acc.shape[0] > self.proposals_used:
            raise ValidationError("cannot accept more samples than proposals used")
        acc.setflags(write=False)
        object.__setattr__(self, "accepted", acc)

    @property
    def n_accepted(self) -> int:
        return self.accepted.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.proposals_used


def select_T_low_dim(div: DivergenceEstimate) -> float:
    """Low-dimension rule: T = -D_alpha(p || q)."""
    if not np.isfinite(div.value):
        raise ValidationError(f"divergence estimate is not finite: {div.value}")
    return -float(div.value)


def select_T_quantile(L_vals, gamma: float) -> float:
    """Empirical gamma-quantile of L by the nearest-rank rule.

    The element of 1-based rank ceil(gamma * S), clamped to [1, S], in
    ascending order: numpy's ``inverted_cdf`` (Hyndman-Fan type 1).
    Deterministic and well defined for small S.
    """
    L = np.asarray(L_vals, dtype=float).ravel()
    if L.size == 0:
        raise ValidationError("cannot take a quantile of an empty sample")
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must be in [0, 1], got {gamma}")
    return float(np.quantile(L, gamma, method="inverted_cdf"))


def pilot_threshold(
    q: VariationalDist,
    target: TargetDensity,
    gamma: float,
    S: int,
    rng: np.random.Generator,
):
    """Draw a pilot batch from q and return (T, pilot L values)."""
    L = draw_batch(q, target, rng, S).L_vals
    return select_T_quantile(L, gamma), L


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
    Proposals are drawn in chunks of ``target.max_batch``, each evaluated by
    one target call and consumed up to the proposal that meets the goal.
    log Z_R is estimated as the log of the mean acceptance probability over
    every proposal consumed, summed chunk by chunk so no proposal's
    acceptance is kept.
    """
    _check_integer("n_accept_goal", n_accept_goal, 1)
    if max_proposals is None:
        max_proposals = 200 * n_accept_goal
    _check_integer("max_proposals", max_proposals, 1)
    accepted = []
    sum_a = 0.0
    used = 0
    n_acc = 0
    min_L, sum_L = math.inf, 0.0
    while n_acc < n_accept_goal and used < max_proposals:
        n = min(target.max_batch, max_proposals - used)
        points = sample_reparam(q, rng, n)
        u = rng.random(n)
        L = batch_from_points(q, target, points).L_vals
        a = config.log_accept(L)
        np.exp(a, out=a)
        take = u < a
        hits = int(np.count_nonzero(take))
        need = n_accept_goal - n_acc
        if hits >= need:
            # consume only up to the proposal that meets the goal
            n = int(np.flatnonzero(take)[need - 1]) + 1
            hits = need
        accepted.append(points[:n][take[:n]])
        sum_a += float(a[:n].sum())
        min_L = min(min_L, float(L[:n].min()))
        sum_L += float(L[:n].sum())
        n_acc += hits
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
    return RefinedSampleSet(
        accepted=np.concatenate(accepted, axis=0),
        proposals_used=used,
        log_Z_R_hat=math.log(sum_a / used),
    )
