"""Stage 1: fit the variational distribution by stochastic gradient descent.

The objective is the log of the Monte-Carlo exponentiated divergence,
log[(1/S) sum_s exp(alpha (log p~ - log q))]; its raw form overflows for
alpha around 10 and up, the log form is a monotone transform for
alpha > 1.  Below 1 it is divided by alpha - 1, and alpha = 1 takes one of
the two KL limits.  Gradients are pathwise through x_s = mu + sigma * eps_s
with the base noise held fixed, the one draw whose noise is kept:
``_loss_and_step`` builds the points from it and computes every loss and
step, for ``fit`` and the public replay functions alike.  It steps K configs
at once, their rows stacked, which is how ``fit`` runs several in lockstep;
the replay functions run it at K = 1.  ``bnn.fit_bnn`` takes its steps from
``_pathwise_step`` and the score-function ``_score_step``.
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
    _log_density,
    _noise_for,
    eval_grad_log_unnorm,
    logsumexp,
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
    """Per-iteration objective values plus parameter snapshots: of one config,
    or, from a lockstep ``fit``, an (iterations, K) objective and one
    VariationalDist per config in each checkpoint and in ``final``."""

    objective: np.ndarray
    checkpoints: tuple
    final: VariationalDist

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        obj.setflags(write=False)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints))

    def split(self) -> tuple:
        """One single-config FitTrace per config of a lockstep fit's trace, in
        order; a single-config trace is its own one part."""
        if self.objective.ndim == 1:
            return (self,)
        return tuple(
            FitTrace(
                objective=self.objective[:, k],
                checkpoints=tuple((it, qs[k]) for it, qs in self.checkpoints),
                final=self.final[k],
            )
            for k in range(self.objective.shape[1])
        )


class _Objectives:
    """K (alpha, kl_direction) training objectives: the per-row constants of
    ``_losses_and_weights``, built once per fit."""

    def __init__(self, pairs):
        alphas = [alpha for alpha, _ in pairs]
        self.scale = np.array([[a] for a in alphas])  # of h; h itself at alpha = 1
        self.factor = np.array([[a if a > 1.0 else a / (a - 1.0) if a < 1.0 else 1.0]
                                for a in alphas])
        # alpha <= 1: the 1/(alpha-1) sign flip or a KL limit, row by row
        self.low_rows = [(k, a, kl) for k, (a, kl) in enumerate(pairs) if a <= 1.0]


def _losses_and_weights(objectives: _Objectives, h: np.ndarray):
    """Training losses (K,) and per-sample weights c (K, S) of K objectives,
    each on its row of h (K, S), with grad(loss_k) = sum_s c[k, s] grad h[k, s];
    one logsumexp serves every row.

    alpha > 1: loss is the log objective, c = alpha * softmax(alpha h).
    alpha < 1: the divergence estimate objective/(alpha-1) is minimized
    directly (the 1/(alpha-1) sign flip), c = alpha/(alpha-1) * softmax(alpha h).
    alpha = 1: exclusive KL gives the negated average of h; inclusive KL is
    the self-normalized estimate whose pathwise gradient is the weighted
    covariance of h with grad h.
    """
    S = h.shape[1]
    a = objectives.scale * h
    lse = logsumexp(a, axis=1, keepdims=True)
    shift = lse
    if not all(map(math.isfinite, lse.ravel().tolist())):
        # a row of all -inf (or one of +inf): NaN weights, without a warning
        shift = np.where(np.isfinite(lse), lse, np.nan)
    c = np.exp(a - shift)
    losses = lse[:, 0] - math.log(S)
    c *= objectives.factor
    for k, alpha, kl_direction in objectives.low_rows:
        if alpha < 1.0:
            losses[k] /= alpha - 1.0
        elif kl_direction == "exclusive":
            losses[k] = -np.mean(h[k])
            c[k] = -1.0 / S
        else:
            h_bar = np.sum(c[k] * h[k])
            losses[k] = h_bar - losses[k]
            c[k] *= h[k] - h_bar
    return losses, c


def _loss_and_sample_weights(alpha: float, h: np.ndarray, kl_direction: str):
    """``_losses_and_weights`` of one objective: (loss, c) for its (S,) h."""
    losses, c = _losses_and_weights(_Objectives([(alpha, kl_direction)]), h[None])
    return float(losses[0]), c[0]


def _pathwise_step(c, g, sigma, eps, points, scratch, names=None):
    """The (d_mu, d_log_var) steps of K configs, row k the sum_s c[k, s]
    grad h[k, s] at points[k] = mu_k + sigma_k * eps[k], eps fixed, with
    g = grad log p~: z = eps is constant, so log q adds 0 to d/dmu and 1/2 per
    dimension to d/dlog_var (both families are location-scale).  c is (K, S);
    g, eps, points and ``scratch``, which is overwritten, are (K, S, dim), and
    sigma broadcasts against them.  Returns (K, 2 dim).  A non-finite step
    raises GradientError naming the first sample at fault among its config's
    S, and the config by ``names[k]`` when names are given."""
    # g * (0.5 * sigma * eps) + 0.5, in that order
    np.multiply(0.5 * sigma, eps, out=scratch)
    np.multiply(g, scratch, out=scratch)
    dh_dlv = np.add(scratch, 0.5, out=scratch)
    K, dim = c.shape[0], g.shape[-1]
    step = np.empty((K, 2 * dim))
    for k in range(K):  # one matvec per config: einsum's sum order would move bits
        np.matmul(c[k], g[k], out=step[k, :dim])
        np.matmul(c[k], dh_dlv[k], out=step[k, dim:])
    if np.isfinite(step).all():
        return step
    k = int(np.nonzero(~np.isfinite(step).all(axis=1))[0][0])
    contrib = np.concatenate([c[k, :, None] * g[k], c[k, :, None] * dh_dlv[k]], axis=1)
    bad = np.nonzero(~np.isfinite(contrib).all(axis=1))[0]
    where = "the sum over samples"
    if bad.size:
        where = f"sample {bad[0]} at x={np.array2string(points[k, bad[0]], threshold=8)}"
    if names:
        where = f"{names[k]}, {where}"
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


class _Stack:
    """The K distributions of a lockstep fit: q's family at the rows of theta,
    (K, 2 dim), each the stacked (mu, log_var) of one config.  mu, log_var and
    sigma are (K, 1, dim), so each broadcasts over its config's (S, dim) block."""

    def __init__(self, q: VariationalDist, theta: np.ndarray):
        self.family, self.nu = q.family, q.nu
        self.mu = theta[:, None, : q.dim]
        self.log_var = theta[:, None, q.dim :]
        self.sigma = np.exp(0.5 * self.log_var)


def _loss_and_step(q: _Stack, target, objectives: _Objectives, base_noise, names=None):
    """The training losses of K objectives at points
    mu_k + sigma_k * base_noise[k], base_noise (K, S, dim), and their
    ``_pathwise_step``s: (K,) losses and (K, 2 dim) steps, a zero step where
    the loss is not finite.  h = log p~ - log q, log p~ and its gradient at
    all K S points from one ``eval_grad_log_unnorm`` call; ``names``, one per
    objective or None, name the config in an error."""
    K, S, dim = base_noise.shape
    # mu + (sigma * noise), the sum taken in place
    points = np.multiply(q.sigma, base_noise)
    np.add(q.mu, points, out=points)
    h = np.empty((K, S))
    g = eval_grad_log_unnorm(target, points.reshape(K * S, dim), h.reshape(K * S), names)
    g = g.reshape(K, S, dim)
    h -= _log_density(q, points)
    losses, c = _losses_and_weights(objectives, h)
    if not all(map(math.isfinite, losses.tolist())):
        skipped = ~np.isfinite(losses)
        # zero weights and gradient: a skipped config's step is 0, and no sample of it is named
        c[skipped] = 0.0
        g = np.where(skipped[:, None, None], 0.0, g)
    return losses, _pathwise_step(c, g, q.sigma, base_noise, points, np.empty_like(g), names)


def _replay(q: VariationalDist, target, config, base_noise):
    """``_loss_and_step`` of one config at q, K = 1: (loss, step)."""
    eps = _noise_for(q, base_noise)[None]
    stack = _Stack(q, np.concatenate([q.mu, q.log_var])[None])
    objectives = _Objectives([(config.alpha, config.kl_direction)])
    losses, steps = _loss_and_step(stack, target, objectives, eps)
    return float(losses[0]), steps[0]


def replay_objective(
    q: VariationalDist, target: TargetDensity, config: OptimizerConfig, base_noise: np.ndarray
) -> float:
    """The loss ``fit`` records, evaluated at q with a fixed base-noise draw replayed.

    For alpha > 1 this is the log objective; for alpha < 1 the divergence
    estimate objective/(alpha-1); at alpha = 1 the KL estimate of
    ``config.kl_direction``.  A deterministic function of (mu, log_var) for
    fixed noise, so finite differences over the parameters are well defined.
    """
    return _replay(q, target, config, base_noise)[0]


def gradient_from_noise(
    q: VariationalDist, target: TargetDensity, config: OptimizerConfig, base_noise: np.ndarray
):
    """(d_mu, d_log_var): the pathwise gradient of ``replay_objective``, the
    step ``fit`` takes on this noise.  Raises GradientError if the loss is
    not finite."""
    loss, step = _replay(q, target, config, base_noise)
    if not math.isfinite(loss):
        raise GradientError(f"objective is {loss}; no gradient")
    return step[: q.dim], step[q.dim :]


_STEP_SIZE = 1e-2  # Adam's step size in every fit; fit_bnn scales it by phase


class _Adam:
    """Plain Adam with bias correction, elementwise over a 1-D parameter array
    or over the rows of a 2-D one, each row with its own step count.

    ``update`` returns a new array and never writes ``param`` in place, so
    callers may hand out views of the parameters it returned.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = [0] * (shape[0] if len(shape) == 2 else 1)  # steps taken, per row

    def update(self, param, grad, step_size, live=None):
        """``param`` after one step on ``grad``.  Where ``live``, one bool per
        row, is False, the row's parameters, moments and step count stay as
        they were."""
        m = self.b1 * self.m + (1 - self.b1) * grad
        v = self.b2 * self.v + (1 - self.b2) * grad**2
        t = [n + 1 for n in self.t]
        # the bias corrections in Python floats: one pair, or a column per row
        # once the rows' step counts differ
        if min(t) == max(t):
            c1, c2 = 1 - self.b1 ** t[0], 1 - self.b2 ** t[0]
        else:
            c1 = np.array([[1 - self.b1**n] for n in t])
            c2 = np.array([[1 - self.b2**n] for n in t])
        m_hat = m / c1
        v_hat = v / c2
        new = param - step_size * m_hat / (np.sqrt(v_hat) + self.eps)
        if live is not None:
            keep = ~np.asarray(live)[:, None]
            m, v, new = (np.where(keep, a, b) for a, b in
                         ((self.m, m), (self.v, v), (param, new)))
            t = [n + ok for n, ok in zip(self.t, live)]
        self.t, self.m, self.v = t, m, v
        return new


def _count_bad_step(bad_streak, objective, it, checkpoints, q, name=None) -> int:
    """``bad_streak + 1`` after a step with a non-finite objective; at 10 in a
    row, raises FitDivergenceError carrying the trace up to iteration ``it``
    and naming the config by ``name`` when given."""
    bad_streak += 1
    if bad_streak >= 10:
        where = f"iteration {it}" if name is None else f"{name}, iteration {it}"
        raise FitDivergenceError(
            f"objective non-finite for {bad_streak} consecutive steps ({where})",
            trace=FitTrace(objective[: it + 1], checkpoints, q),
        )
    return bad_streak


def fit(target: TargetDensity, init_q: VariationalDist, config) -> FitTrace:
    """Minimize the divergence objective with Adam; returns the trace.

    ``config`` is one OptimizerConfig, or a tuple of K that share
    ``iterations`` and ``samples_per_step`` (ValidationError otherwise): they
    are fitted from ``init_q`` in lockstep, each step drawing every config's
    noise from its own seed and evaluating the target once on all K S points.
    Each config's numbers are those of its own fit, bit for bit.  A tuple
    returns one FitTrace whose objective is (iterations, K) and whose
    checkpoints and final hold one VariationalDist per config, in order;
    ``FitTrace.split`` parts it.

    Raises FitDivergenceError (carrying the config's own partial trace) if a
    config's objective is non-finite for 10 consecutive steps, GradientError
    naming the sample if a step comes out non-finite, and ValidationError if
    the target has no ``log_unnorm_and_grad``: each step reads log p~ and its
    gradient at its samples from one call of it, and never calls
    ``log_unnorm``.  With K > 1 an error names the config and its alpha, and
    a sample by its place among its config's samples.
    """
    configs = (config,) if isinstance(config, OptimizerConfig) else tuple(config)
    if not configs:
        raise ValidationError("fit needs at least one OptimizerConfig")
    iterations, S = configs[0].iterations, configs[0].samples_per_step
    for c in configs:
        if (c.iterations, c.samples_per_step) != (iterations, S):
            raise ValidationError(
                "configs fitted in lockstep must share iterations and samples_per_step, got "
                f"{[(c.iterations, c.samples_per_step) for c in configs]}"
            )
    K = len(configs)
    objectives = _Objectives([(c.alpha, c.kl_direction) for c in configs])
    names = [f"config {k}, alpha {c.alpha:g}" for k, c in enumerate(configs)] if K > 1 else None
    rngs = [np.random.default_rng(c.seed) for c in configs]
    # one Adam over the stacked (mu, log_var) rows, one per config: its update
    # is elementwise, so this is each config's two-optimizer update
    theta = np.tile(np.concatenate([init_q.mu, init_q.log_var]), (K, 1))
    adam = _Adam(theta.shape)
    every = max(1, iterations // 10)
    trace = np.empty((iterations, K))
    checkpoints = []
    bad_streaks = [0] * K
    eps = np.empty((K, S, init_q.dim))
    for it in range(iterations):
        for k, rng in enumerate(rngs):
            eps[k] = _base_noise(init_q, rng, S)
        trace[it], step = _loss_and_step(_Stack(init_q, theta), target, objectives, eps, names)
        live = [math.isfinite(x) for x in trace[it].tolist()]
        for k in range(K):
            bad_streaks[k] = 0 if live[k] else _count_bad_step(
                bad_streaks[k], trace[:, k], it, [(i, qs[k]) for i, qs in checkpoints],
                init_q._stepped(theta[k]), names and names[k],
            )
        # a skipped step leaves its config's row as it was
        theta = adam.update(theta, step, _STEP_SIZE, None if all(live) else live)
        if not np.isfinite(theta).all():
            raise ValidationError("mu and log_var entries must be finite")
        if (it + 1) % every == 0 or it + 1 == iterations:
            checkpoints.append((it + 1, tuple(init_q._stepped(row) for row in theta)))
    final = checkpoints[-1][1] if checkpoints else (init_q,) * K
    result = FitTrace(objective=trace, checkpoints=tuple(checkpoints), final=final)
    return result.split()[0] if isinstance(config, OptimizerConfig) else result
