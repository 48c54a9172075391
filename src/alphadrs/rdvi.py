"""Stage 1: fit the variational distribution by stochastic gradient descent.

The objective is the log of the Monte-Carlo exponentiated divergence,
log[(1/S) sum_s exp(alpha (log p~ - log q))]; its raw form overflows for
alpha around 10 and up, the log form is a monotone transform for
alpha > 1.  Below 1 it is divided by alpha - 1, and alpha = 1 takes one of
the two KL limits.  Gradients are pathwise through x_s = mu + sigma * eps_s
with the base noise held fixed; ``_loss_and_step`` computes every loss and
step, for ``fit`` and for the public replay functions alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TargetDensity,
    ValidationError,
    VariationalDist,
    eval_grad_log_unnorm,
    eval_log_unnorm,
    log_q,
    logsumexp,
    points_from_noise,
    sample_reparam,
)

__all__ = [
    "OptimizerConfig",
    "FitTrace",
    "FitDivergenceError",
    "GradientError",
    "replay_objective",
    "gradient_from_noise",
    "fit",
]


class FitDivergenceError(RuntimeError):
    """The objective blew up; carries the partial trace for postmortems."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class GradientError(RuntimeError):
    """A gradient component came out non-finite."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings plus the divergence order and per-step sample budget.

    ``kl_direction`` selects the alpha = 1 training objective: "exclusive"
    maximizes the evidence lower bound (minimizes KL(q || p)), "inclusive"
    minimizes the self-normalized KL(p || q) estimate.
    """

    step_size: float = 1e-2
    iterations: int = 5000
    samples_per_step: int = 100
    alpha: float = 2.0
    seed: int = 0
    kl_direction: str = "exclusive"

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValidationError(f"step_size must be positive, got {self.step_size}")
        if self.samples_per_step < 2:
            raise ValidationError(f"need samples_per_step >= 2, got {self.samples_per_step}")
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        if self.iterations < 0:
            raise ValidationError(f"iterations must be >= 0, got {self.iterations}")
        if self.kl_direction not in ("inclusive", "exclusive"):
            raise ValidationError(f"unknown kl_direction {self.kl_direction!r}")


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration objective values plus parameter snapshots."""

    objective: np.ndarray
    checkpoints: tuple
    final: VariationalDist

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        obj.setflags(write=False)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints))


def _log_softmax_norm(a: np.ndarray):
    """(logsumexp(a), softmax(a)): the one place the objective's weights come from."""
    lse = logsumexp(a)
    if lse == -np.inf:  # all -inf: exp(a - lse)'s NaN weights, without its warning
        return lse, np.full_like(a, np.nan)
    return lse, np.exp(a - lse)


def _loss_and_sample_weights(alpha: float, h: np.ndarray, kl_direction: str):
    """Training loss and per-sample weights c with grad(loss) = sum_s c_s grad h_s.

    alpha > 1: loss is the log objective, c = alpha * softmax(alpha h).
    alpha < 1: the divergence estimate objective/(alpha-1) is minimized
    directly (the 1/(alpha-1) sign flip), c = alpha/(alpha-1) * softmax(alpha h).
    alpha = 1: exclusive KL gives the negated average of h; inclusive KL is
    the self-normalized estimate whose pathwise gradient is the weighted
    covariance of h with grad h.
    """
    S = h.shape[0]
    if alpha == 1.0:
        if kl_direction == "exclusive":
            return -float(np.mean(h)), np.full(S, -1.0 / S)
        lse, w = _log_softmax_norm(h)
        h_bar = float(np.sum(w * h))
        loss = h_bar - float(lse - math.log(S))
        return loss, w * (h - h_bar)
    lse, m = _log_softmax_norm(alpha * h)
    obj = float(lse - math.log(S))
    if alpha > 1.0:
        return obj, alpha * m
    return obj / (alpha - 1.0), alpha / (alpha - 1.0) * m


def _loss_and_step(q, target, config, points, base_noise):
    """The training loss at points = mu + sigma * base_noise and its stacked
    (d_mu, d_log_var) step sum_s c_s grad h_s, with h = log p~ - log q.

    With x = mu + sigma * eps at fixed eps, z = (x - mu)/sigma = eps stays
    constant, so the log q term contributes 0 to d/dmu and +1/2 per
    dimension to d/dlog_var (both families are location-scale).  The step is
    None when the loss is not finite; if the step is not finite, raises
    GradientError naming the first sample whose contribution is (the
    per-sample search runs only on failure).
    """
    h = eval_log_unnorm(target, points) - log_q(q, points)
    loss, c = _loss_and_sample_weights(config.alpha, h, config.kl_direction)
    if not math.isfinite(loss):
        return loss, None
    g = eval_grad_log_unnorm(target, points)
    dh_dlv = g * (0.5 * q.sigma * base_noise) + 0.5
    step = np.concatenate([c @ g, c @ dh_dlv])
    if np.isfinite(step).all():
        return loss, step
    contrib = np.concatenate([c[:, None] * g, c[:, None] * dh_dlv], axis=1)
    bad = np.nonzero(~np.isfinite(contrib).all(axis=1))[0]
    where = f"sample {bad[0]} at x={points[bad[0]]!r}" if bad.size else "the sum over samples"
    raise GradientError(f"non-finite gradient contribution from {where}")


def replay_objective(
    q: VariationalDist, target: TargetDensity, config: OptimizerConfig, base_noise: np.ndarray
) -> float:
    """The loss ``fit`` records, evaluated at q with a fixed base-noise draw replayed.

    For alpha > 1 this is the log objective; for alpha < 1 the divergence
    estimate objective/(alpha-1); at alpha = 1 the KL estimate of
    ``config.kl_direction``.  A deterministic function of (mu, log_var) for
    fixed noise, so finite differences over the parameters are well defined.
    """
    return _loss_and_step(q, target, config, points_from_noise(q, base_noise), base_noise)[0]


def gradient_from_noise(
    q: VariationalDist, target: TargetDensity, config: OptimizerConfig, base_noise: np.ndarray
):
    """(d_mu, d_log_var): the pathwise gradient of ``replay_objective``, the
    step ``fit`` takes on this noise.  Raises GradientError if the loss is
    not finite."""
    loss, step = _loss_and_step(q, target, config, points_from_noise(q, base_noise), base_noise)
    if step is None:
        raise GradientError(f"objective is {loss}; no gradient")
    return step[: q.dim], step[q.dim :]


class _Adam:
    """Plain Adam with bias correction.

    ``update`` returns a new array and never writes ``param`` in place, so
    callers may hand out views of the parameters it returned.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shape, step_size):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.step_size = step_size

    def update(self, param, grad):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad**2
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return param - self.step_size * m_hat / (np.sqrt(v_hat) + self.eps)


def fit(target: TargetDensity, init_q: VariationalDist, config: OptimizerConfig) -> FitTrace:
    """Minimize the divergence objective with Adam; returns the trace.

    Raises FitDivergenceError (carrying the partial trace) if the objective
    is non-finite for 10 consecutive steps, and GradientError naming the
    sample if a step comes out non-finite.
    """
    rng = np.random.default_rng(config.seed)
    d = init_q.dim
    # one Adam over the stacked (mu, log_var): its update is elementwise, so
    # this is the two-optimizer update; q holds slices of the returned array
    theta = np.concatenate([init_q.mu, init_q.log_var])
    adam = _Adam(theta.shape, config.step_size)
    every = max(1, config.iterations // 10)
    trace = np.empty(config.iterations)
    checkpoints = []
    bad_streak = 0
    q = init_q
    for it in range(config.iterations):
        points, eps = sample_reparam(q, rng, config.samples_per_step)
        trace[it], step = _loss_and_step(q, target, config, points, eps)
        if step is None:
            bad_streak += 1
            if bad_streak >= 10:
                raise FitDivergenceError(
                    f"objective non-finite for {bad_streak} consecutive steps "
                    f"(iteration {it})",
                    trace=FitTrace(trace[: it + 1], tuple(checkpoints), q),
                )
        else:
            bad_streak = 0
            theta = adam.update(theta, step)
            q = q.replace(mu=theta[:d], log_var=theta[d:])
        # a skipped step leaves q as it was; its checkpoint is still recorded
        if (it + 1) % every == 0 or it + 1 == config.iterations:
            checkpoints.append((it + 1, q))
    return FitTrace(objective=trace, checkpoints=tuple(checkpoints), final=q)
