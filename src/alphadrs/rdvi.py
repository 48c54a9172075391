"""Stage 1: fit the variational distribution by stochastic gradient descent.

The training objective is the log of the Monte-Carlo exponentiated
divergence, log[(1/S) sum_s exp(alpha (log p~ - log q))]; its raw form
overflows for alpha around 10 and up, the log form is a monotone
transform for alpha > 1.  Gradients are pathwise through
x_s = mu + sigma * eps_s with the base noise held fixed; the log-sum-exp
objective weights per-sample gradients by a softmax.
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
from .divergence import WeightedBatch, batch_from_points

__all__ = [
    "OptimizerConfig",
    "FitTrace",
    "FitDivergenceError",
    "GradientError",
    "objective",
    "replay_objective",
    "gradient_from_noise",
    "fit",
    "write_trace_csv",
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
    adam_betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    checkpoint_every: int = 0  # 0 means iterations // 10
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
    return lse, np.exp(a - lse)


def objective(alpha: float, batch: WeightedBatch) -> float:
    """log[(1/S) sum_s exp(alpha (log p~ - log q)_s)] over the batch."""
    if batch.size == 0:
        raise ValidationError("objective needs a nonempty batch")
    lse, _ = _log_softmax_norm(alpha * batch.log_weights)
    return float(lse - math.log(batch.size))


def replay_objective(
    q: VariationalDist, target: TargetDensity, alpha: float, base_noise: np.ndarray
) -> float:
    """Objective evaluated at q with a fixed base-noise draw replayed.

    A deterministic function of (mu, log_var) for fixed noise, so finite
    differences over the parameters are well defined.
    """
    points = points_from_noise(q, base_noise)
    return objective(alpha, batch_from_points(q, target, points))


def _path_partials(q, target, points, base_noise):
    """h_s = (log p~ - log q)(x_s) and its pathwise partials w.r.t. (mu, log_var).

    With x = mu + sigma * eps at fixed eps, z = (x - mu)/sigma = eps stays
    constant, so the log q term contributes 0 to d/dmu and +1/2 per
    dimension to d/dlog_var (both families are location-scale).
    """
    h = eval_log_unnorm(target, points) - np.asarray(log_q(q, points))
    g = eval_grad_log_unnorm(target, points)
    dh_dmu = g
    dh_dlv = g * (0.5 * q.sigma * base_noise) + 0.5
    return h, dh_dmu, dh_dlv


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


def _step(c, dh_dmu, dh_dlv, points):
    """The stacked (d_mu, d_log_var) step sum_s c_s grad h_s.  If it is not
    finite, raises GradientError naming the first sample whose contribution
    is; the per-sample search runs only on failure."""
    step = np.concatenate([c @ dh_dmu, c @ dh_dlv])
    if np.isfinite(step).all():
        return step
    contrib = np.concatenate([c[:, None] * dh_dmu, c[:, None] * dh_dlv], axis=1)
    bad = np.nonzero(~np.isfinite(contrib).all(axis=1))[0]
    where = f"sample {bad[0]} at x={points[bad[0]]!r}" if bad.size else "the sum over samples"
    raise GradientError(f"non-finite gradient contribution from {where}")


def gradient_from_noise(
    q: VariationalDist, target: TargetDensity, alpha: float, base_noise: np.ndarray
):
    """Pathwise gradient of the objective under a fixed base-noise draw."""
    points = points_from_noise(q, base_noise)
    h, dh_dmu, dh_dlv = _path_partials(q, target, points, base_noise)
    _, m = _log_softmax_norm(alpha * h)
    c = alpha * m
    step = _step(c, dh_dmu, dh_dlv, points)
    return step[: q.dim], step[q.dim :]


class _Adam:
    """Plain Adam with bias correction.

    ``update`` returns a new array and never writes ``param`` in place, so
    callers may hand out views of the parameters it returned.
    """

    def __init__(self, shape, step_size, betas, eps):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.step_size = step_size
        self.b1, self.b2 = betas
        self.eps = eps

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
    adam = _Adam(theta.shape, config.step_size, config.adam_betas, config.adam_eps)
    every = config.checkpoint_every or max(1, config.iterations // 10)
    trace = np.empty(config.iterations)
    checkpoints = []
    bad_streak = 0
    q = init_q
    for it in range(config.iterations):
        points, eps = sample_reparam(q, rng, config.samples_per_step)
        h, dh_dmu, dh_dlv = _path_partials(q, target, points, eps)
        loss, c = _loss_and_sample_weights(config.alpha, h, config.kl_direction)
        trace[it] = loss
        if not math.isfinite(loss):
            bad_streak += 1
            if bad_streak >= 10:
                raise FitDivergenceError(
                    f"objective non-finite for {bad_streak} consecutive steps "
                    f"(iteration {it})",
                    trace=FitTrace(trace[: it + 1], tuple(checkpoints), q),
                )
            continue
        bad_streak = 0
        theta = adam.update(theta, _step(c, dh_dmu, dh_dlv, points))
        q = q.replace(mu=theta[:d], log_var=theta[d:])
        if (it + 1) % every == 0 or it + 1 == config.iterations:
            checkpoints.append((it + 1, q))
    return FitTrace(objective=trace, checkpoints=tuple(checkpoints), final=q)


def write_trace_csv(trace: FitTrace, path):
    """Comma-separated checkpoint rows: iteration, objective, mu..., log_var..."""
    dim = trace.final.dim
    header = (
        "iteration,objective,"
        + ",".join(f"mu_{j}" for j in range(dim))
        + ","
        + ",".join(f"log_var_{j}" for j in range(dim))
    )
    lines = [header]
    for it, q in trace.checkpoints:
        vals = [f"{it}", f"{trace.objective[it - 1]:.10g}"]
        vals += [f"{v:.10g}" for v in q.mu] + [f"{v:.10g}" for v in q.log_var]
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
