"""Stage 1: fit the variational distribution by stochastic gradient descent.

The objective is the log of the Monte-Carlo exponentiated divergence,
log[(1/S) sum_s exp(alpha (log p~ - log q))]; its raw form overflows for
alpha around 10 and up, the log form is a monotone transform for
alpha > 1.  Below 1 it is divided by alpha - 1, and alpha = 1 takes one of
the two KL limits.  Gradients are pathwise through x_s = mu + sigma * eps_s
with the base noise held fixed, the one draw whose noise is kept:
``_loss_and_step`` builds the points from it and computes every loss and
step, for ``fit`` and the public replay functions alike; ``bnn.fit_bnn``
takes its steps from ``_pathwise_step`` and the score-function ``_score_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TargetDensity,
    ValidationError,
    VariationalDist,
    _base_noise,
    _check_integer,
    eval_grad_log_unnorm,
    log_q,
    logsumexp,
    points_from_noise,
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
    """Iteration count, divergence order, per-step sample budget and seed;
    Adam's step size is the constant ``_STEP_SIZE``.

    ``kl_direction`` selects the alpha = 1 training objective: "exclusive"
    maximizes the evidence lower bound (minimizes KL(q || p)), "inclusive"
    minimizes the self-normalized KL(p || q) estimate.
    """

    iterations: int = 5000
    samples_per_step: int = 100
    alpha: float = 2.0
    seed: int = 0
    kl_direction: str = "exclusive"

    def __post_init__(self):
        for name, low in (("iterations", 0), ("samples_per_step", 2), ("seed", 0)):
            _check_integer(name, getattr(self, name), low)
        if not 0 < self.alpha < math.inf:
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
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


def _pathwise_step(c, g, sigma, eps, points, scratch):
    """The stacked (d_mu, d_log_var) step sum_s c_s grad h_s at points =
    mu + sigma * eps, eps fixed, with g = grad log p~: z = eps is constant, so
    log q adds 0 to d/dmu and 1/2 per dimension to d/dlog_var (both families
    are location-scale).  ``scratch``, shaped like g, is overwritten.  A
    non-finite step raises GradientError naming the first sample at fault."""
    # g * (0.5 * sigma * eps) + 0.5, in that order
    np.multiply(0.5 * sigma, eps, out=scratch)
    np.multiply(g, scratch, out=scratch)
    dh_dlv = np.add(scratch, 0.5, out=scratch)
    step = np.concatenate([c @ g, c @ dh_dlv])
    if np.isfinite(step).all():
        return step
    contrib = np.concatenate([c[:, None] * g, c[:, None] * dh_dlv], axis=1)
    bad = np.nonzero(~np.isfinite(contrib).all(axis=1))[0]
    where = "the sum over samples"
    if bad.size:
        where = f"sample {bad[0]} at x={np.array2string(points[bad[0]], threshold=8)}"
    raise GradientError(f"non-finite gradient contribution from {where}")


def _score_step(alpha, c, eps, sigma, scratch):
    """Score-function step (1 - alpha)/alpha * sum_s c_s grad log q(x_s) of a
    diagonal Gaussian q at fixed x = mu + sigma * eps, c the weights of
    ``_loss_and_sample_weights``: (1 - alpha)/alpha c is (1 - alpha) m above 1
    and -m below, m = softmax(alpha h).  ``scratch``, shaped like eps, is
    overwritten; returns the stacked (d_mu, d_log_var)."""
    fac = (1.0 - alpha) / alpha
    d_mean = fac * (c @ np.divide(eps, sigma, out=scratch))  # d log q / d mu
    np.square(eps, out=scratch)
    np.multiply(0.5, scratch, out=scratch)
    d_lv = fac * (c @ np.subtract(scratch, 0.5, out=scratch))  # (eps^2 - 1) / 2
    return np.concatenate([d_mean, d_lv])


def _loss_and_step(q, target, config, base_noise):
    """The training loss at points = mu + sigma * base_noise and its
    ``_pathwise_step`` (None when the loss is not finite), h = log p~ - log q,
    log p~ and its gradient from one ``eval_grad_log_unnorm`` call."""
    points = points_from_noise(q, base_noise)
    h = np.empty(points.shape[0])
    g = eval_grad_log_unnorm(target, points, log_p_out=h)
    h -= log_q(q, points)
    loss, c = _loss_and_sample_weights(config.alpha, h, config.kl_direction)
    if not math.isfinite(loss):
        return loss, None
    return loss, _pathwise_step(c, g, q.sigma, base_noise, points, np.empty_like(g))


def replay_objective(
    q: VariationalDist, target: TargetDensity, config: OptimizerConfig, base_noise: np.ndarray
) -> float:
    """The loss ``fit`` records, evaluated at q with a fixed base-noise draw replayed.

    For alpha > 1 this is the log objective; for alpha < 1 the divergence
    estimate objective/(alpha-1); at alpha = 1 the KL estimate of
    ``config.kl_direction``.  A deterministic function of (mu, log_var) for
    fixed noise, so finite differences over the parameters are well defined.
    """
    return _loss_and_step(q, target, config, base_noise)[0]


def gradient_from_noise(
    q: VariationalDist, target: TargetDensity, config: OptimizerConfig, base_noise: np.ndarray
):
    """(d_mu, d_log_var): the pathwise gradient of ``replay_objective``, the
    step ``fit`` takes on this noise.  Raises GradientError if the loss is
    not finite."""
    loss, step = _loss_and_step(q, target, config, base_noise)
    if step is None:
        raise GradientError(f"objective is {loss}; no gradient")
    return step[: q.dim], step[q.dim :]


_STEP_SIZE = 1e-2  # Adam's step size in every fit; fit_bnn scales it by phase


class _Adam:
    """Plain Adam with bias correction.

    ``update`` returns a new array and never writes ``param`` in place, so
    callers may hand out views of the parameters it returned.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, param, grad, step_size):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad**2
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return param - step_size * m_hat / (np.sqrt(v_hat) + self.eps)


def _count_bad_step(bad_streak, objective, it, checkpoints, q) -> int:
    """``bad_streak + 1`` after a step with a non-finite objective; at 10 in a
    row, raises FitDivergenceError carrying the trace up to iteration ``it``."""
    bad_streak += 1
    if bad_streak >= 10:
        raise FitDivergenceError(
            f"objective non-finite for {bad_streak} consecutive steps (iteration {it})",
            trace=FitTrace(objective[: it + 1], checkpoints, q),
        )
    return bad_streak


def fit(target: TargetDensity, init_q: VariationalDist, config: OptimizerConfig) -> FitTrace:
    """Minimize the divergence objective with Adam; returns the trace.

    Raises FitDivergenceError (carrying the partial trace) if the objective
    is non-finite for 10 consecutive steps, GradientError naming the sample
    if a step comes out non-finite, and ValidationError if the target has
    no ``log_unnorm_and_grad``: each step reads log p~ and its gradient at
    its samples from one call of it, and never calls ``log_unnorm``.
    """
    rng = np.random.default_rng(config.seed)
    # one Adam over the stacked (mu, log_var): its update is elementwise, so
    # this is the two-optimizer update; q holds slices of the returned array
    theta = np.concatenate([init_q.mu, init_q.log_var])
    adam = _Adam(theta.shape)
    every = max(1, config.iterations // 10)
    trace = np.empty(config.iterations)
    checkpoints = []
    bad_streak = 0
    q = init_q
    for it in range(config.iterations):
        eps = _base_noise(q, rng, config.samples_per_step)
        trace[it], step = _loss_and_step(q, target, config, eps)
        if step is None:
            bad_streak = _count_bad_step(bad_streak, trace, it, checkpoints, q)
        else:
            bad_streak = 0
            theta = adam.update(theta, step, _STEP_SIZE)
            q = q._stepped(theta)
        # a skipped step leaves q as it was; its checkpoint is still recorded
        if (it + 1) % every == 0 or it + 1 == config.iterations:
            checkpoints.append((it + 1, q))
    return FitTrace(objective=trace, checkpoints=tuple(checkpoints), final=q)
