"""Desk-scale Bayesian neural-network regression in weight space.

A single hidden layer of 50 ReLU units with a standard normal prior per
weight; the posterior over all weights is a fully factorized Gaussian fit
by stage 1, then refined in weight space by stage 2.  Observation noise
is a single learned point parameter (log variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .distributions import (
    LOG_2PI,
    TargetDensity,
    ValidationError,
    VariationalDist,
    logsumexp,
    sample_reparam,
)
from .drs import RefinementConfig, pilot_threshold, refine
from .rdvi import (
    _STEP_SIZE,
    FitDivergenceError,
    FitTrace,
    OptimizerConfig,
    _Adam,
    _log_softmax_norm,
    _loss_and_sample_weights,
)

__all__ = [
    "DatasetError",
    "RegressionDataset",
    "BnnModel",
    "BnnFitResult",
    "load_dataset",
    "bundled_dataset_path",
    "train_test_split",
    "log_p_tilde_weights",
    "fit_bnn",
    "refine_bnn",
    "evaluate",
    "run_experiment",
]


class DatasetError(ValueError):
    """The dataset file is missing or malformed."""


@dataclass(frozen=True)
class RegressionDataset:
    """Numeric regression data, optionally standardized with train-split stats.

    ``y_mean``/``y_std`` record the target standardization applied; they are
    None for raw data.  Test splits carry the train split's stats so
    predictions can be mapped back to original units.  Immutable after
    construction.
    """

    features: np.ndarray
    targets: np.ndarray
    y_mean: float | None = None
    y_std: float | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValidationError(
                f"features ({X.shape[0]} rows) and targets ({y.shape[0]}) disagree"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValidationError("dataset contains non-finite values")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def destandardize_targets(self, y_standardized):
        """Map standardized target values back to original units."""
        if self.y_mean is None:
            return np.asarray(y_standardized)
        return np.asarray(y_standardized) * self.y_std + self.y_mean


def load_dataset(path) -> RegressionDataset:
    """Parse a comma- or whitespace-separated numeric table.

    The last column is the target (as in the boston and yacht files); the
    columns before it, at least one, are features.  Raises DatasetError
    naming the offending row and column on any non-numeric cell.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"dataset file not found: {path}")
    rows = []
    width = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t for t in line.replace(",", " ").split() if t]
        vals = []
        for col, tok in enumerate(tokens, start=1):
            try:
                vals.append(float(tok))
            except ValueError:
                raise DatasetError(
                    f"non-numeric value {tok!r} at row {lineno}, column {col} of {path}"
                ) from None
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DatasetError(
                f"row {lineno} of {path} has {len(vals)} columns, expected {width}"
            )
        rows.append(vals)
    if not rows:
        raise DatasetError(f"dataset file {path} contains no data rows")
    table = np.asarray(rows, dtype=float)
    if table.shape[1] < 2:
        raise DatasetError(f"dataset file {path} has no feature column besides the target")
    return RegressionDataset(features=table[:, :-1], targets=table[:, -1])


def bundled_dataset_path(name: str) -> Path:
    """Path of a dataset file shipped with the package (e.g. 'boston', 'yacht')."""
    filenames = {
        "boston": "boston_housing.csv",
        "yacht": "yacht_hydrodynamics.data",
    }
    if name not in filenames:
        raise DatasetError(f"no bundled dataset named {name!r}; have {sorted(filenames)}")
    return Path(resources.files("alphadrs").joinpath("data", filenames[name]))


def train_test_split(dataset: RegressionDataset, rng: np.random.Generator):
    """Random 90/10 train/test split; both sides standardized with the train
    split's stats.  Fewer than 2 rows leave no train row: DatasetError."""
    if dataset.n < 2:
        raise DatasetError(f"a train/test split needs at least 2 rows, dataset has {dataset.n}")
    perm = rng.permutation(dataset.n)
    n_test = max(1, round(dataset.n * 0.1))
    te, tr = perm[:n_test], perm[n_test:]
    X, y = dataset.features, dataset.targets
    x_mean = X[tr].mean(axis=0)
    x_std = X[tr].std(axis=0)
    x_std = np.where(x_std == 0, 1.0, x_std)
    y_mean = float(y[tr].mean())
    y_std = float(y[tr].std()) or 1.0
    return tuple(
        RegressionDataset(
            (X[i] - x_mean) / x_std, (y[i] - y_mean) / y_std, y_mean=y_mean, y_std=y_std
        )
        for i in (tr, te)
    )


@dataclass(frozen=True)
class BnnModel:
    """One-hidden-layer ReLU regression net with a learned noise variance.

    Weights are handled as one flat vector delta of length
    input_dim*hidden + hidden + hidden + 1; the observation noise
    parameter log_noise_var is point-estimated, not part of delta.
    """

    input_dim: int
    hidden: int = 50
    log_noise_var: float = 0.0

    @property
    def param_count(self) -> int:
        d, h = self.input_dim, self.hidden
        return d * h + h + h + 1

    def unpack(self, delta: np.ndarray):
        """Split (K, P) flat weights into (W1, b1, w2, b2)."""
        d, h = self.input_dim, self.hidden
        delta = np.atleast_2d(np.asarray(delta, dtype=float))
        k = delta.shape[0]
        if delta.shape[1] != self.param_count:
            raise ValidationError(
                f"delta has {delta.shape[1]} parameters, model needs {self.param_count}"
            )
        i = 0
        W1 = delta[:, i : i + d * h].reshape(k, d, h)
        i += d * h
        b1 = delta[:, i : i + h]
        i += h
        w2 = delta[:, i : i + h]
        i += h
        b2 = delta[:, i]
        return W1, b1, w2, b2

    def forward(self, delta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Predictions of shape (K, N) for K weight samples on N inputs."""
        return _layers(self.unpack(delta), X)[2]


def _layers(weights, X, out=None):
    """(z1, h1, yhat): pre-activations, ReLU activations and predictions of
    the unpacked ``weights`` on inputs X.  ``out``, when given, is a pair of
    (K, n, h) buffers that receive z1 and h1."""
    W1, b1, w2, b2 = weights
    z1_out, h1_out = (None, None) if out is None else out
    # batched matmul runs the (K, n, h) contractions through BLAS; np.einsum does not
    z1 = np.matmul(X, W1, out=z1_out)
    np.add(z1, b1[:, None, :], out=z1)
    h1 = np.maximum(z1, 0.0, out=h1_out)
    return z1, h1, (h1 @ w2[:, :, None])[:, :, 0] + b2[:, None]


class _GradWorkspace:
    """Buffers ``_log_p_tilde_grad`` writes into instead of allocating: z1, h1,
    the ReLU mask and dz1 of shape (K, n, h), and the (K, P) gradient.  They are
    reallocated only when the shape changes, and each call overwrites them, so
    a returned gradient is valid until the next call with the same workspace."""

    def __init__(self):
        self.shape = None

    def buffers(self, K, n, h, P):
        if self.shape != (K, n, h, P):
            self.shape = (K, n, h, P)
            self.z1, self.h1, self.dz1 = (np.empty((K, n, h)) for _ in range(3))
            self.mask = np.empty((K, n, h), dtype=bool)
            self.grad = np.empty((K, P))
        return self


def log_p_tilde_weights(
    model: BnnModel, delta: np.ndarray, dataset: RegressionDataset, *, workspace=None
):
    """Unnormalized log posterior of the weights over the whole of ``dataset``:
    Gaussian log-likelihood + prior.

    Takes a (K, P) stack of weights and returns (K,) values.  ``fit_bnn``'s
    minibatches go through ``_log_p_tilde_grad``.  ``workspace``, a private
    ``_GradWorkspace``, lets repeated calls by one caller share their
    (K, n, hidden) buffers; the values do not depend on it.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2:
        raise ValidationError(f"delta must be a (K, P) stack, got shape {delta.shape}")
    return _log_p_tilde_grad(model, delta, dataset, want_grad=False, workspace=workspace)[0]


def _log_p_tilde_grad(model, delta, dataset, minibatch=None, want_grad=True, workspace=None):
    """(log p~, d/d delta, d/d log_noise_var) for a (K, P) stack of weights.

    The Gaussian log-likelihood over the (mini)batch is rescaled by
    N/|batch| when ``minibatch`` (an index array) is given.  With
    ``want_grad=False`` the weight gradient is skipped and returned as None.
    The (K, n, h) intermediates and the gradient are written into the buffers
    of ``workspace``, a ``_GradWorkspace`` (a fresh one when None is given).
    """
    X, Y = dataset.features, dataset.targets
    if minibatch is not None:
        X, Y = X[minibatch], Y[minibatch]
    scale = dataset.n / X.shape[0]
    n_b = X.shape[0]
    lnv = model.log_noise_var
    v = math.exp(lnv)
    K, P = delta.shape
    h = model.hidden
    ws = (workspace or _GradWorkspace()).buffers(K, n_b, h, P)

    weights = model.unpack(delta)
    w2 = weights[2]
    z1, h1, yhat = _layers(weights, X, (ws.z1, ws.h1))
    res = Y[None, :] - yhat
    sse = np.sum(res**2, axis=1)
    loglik = -0.5 * (n_b * (LOG_2PI + lnv) + sse / v) * scale
    # the gradient buffer doubles as delta**2's scratch; the gradient overwrites it
    logprior = -0.5 * (P * LOG_2PI + np.sum(np.square(delta, out=ws.grad), axis=1))
    vals = loglik + logprior
    dlnv = (-0.5 * n_b + 0.5 * sse / v) * scale
    if not want_grad:
        return vals, None, dlnv

    dy = (res / v) * scale
    dw2 = (dy[:, None, :] @ h1)[:, 0, :]
    db2 = dy.sum(axis=1)
    dz1 = np.multiply(dy[:, :, None], w2[:, None, :], out=ws.dz1)
    np.multiply(dz1, np.greater(z1, 0.0, out=ws.mask), out=dz1)
    grad = ws.grad
    d = model.input_dim
    np.matmul(X.T, dz1, out=grad[:, : d * h].reshape(K, d, h, copy=False))
    np.sum(dz1, axis=1, out=grad[:, d * h : d * h + h])
    grad[:, d * h + h : d * h + 2 * h] = dw2
    grad[:, -1] = db2
    np.subtract(grad, delta, out=grad)
    return vals, grad, dlnv


@dataclass(frozen=True)
class BnnFitResult:
    posterior: VariationalDist  # diagonal Gaussian over the flat weights
    model: BnnModel  # carries the fitted log_noise_var
    trace: np.ndarray


_GRAD_CLIP = 10.0  # global norm; the alpha-weighted gradient has heavy tails


def fit_bnn(
    dataset: RegressionDataset,
    config: OptimizerConfig,
    hidden: int = 50,
    minibatch_size: int = 32,
) -> BnnFitResult:
    """Stage 1 in weight space: mean-field posterior + point noise variance.

    Fits at ``config.alpha``.  Per step draws ``config.samples_per_step``
    weight samples and a fresh minibatch.  Two weight-space specifics, both
    forced by the scale of the problem (the log ratio h spreads over
    thousands of nats across weight samples, so softmax weights degenerate
    to an argmax):

    * alpha > 1 runs warm-start with the alpha = 1 objective for the first
      half of the iterations, then switch to the score-function form of the
      alpha objective's gradient, (1-alpha) * sum_s m_s d/dtheta log q, at
      0.3x the step size.  The pathwise form is unusable here: with argmax
      weights its location-derivative term walks the posterior mean off the
      data instead of pulling density toward high-ratio samples.
    * the noise variance always follows the sample-averaged log-likelihood
      gradient (an EM-style point update); routed through the
      alpha-weighted objective, the best-of-S sample drags it to zero.

    The step size drops to 0.3x after 60% of the iterations; the noise
    variance and the fit quality keep improving well past the initial
    plateau, and the tail polish is worth roughly half an RMSE unit on the
    harder regression splits.
    """
    rng = np.random.default_rng(config.seed)
    alpha = config.alpha
    d = dataset.dim
    model = BnnModel(input_dim=d, hidden=hidden, log_noise_var=-1.0)
    P = model.param_count
    h = hidden
    mean = np.zeros(P)
    mean[: d * h] = rng.normal(0.0, 1.0 / math.sqrt(d), d * h)
    mean[d * h + h : d * h + 2 * h] = rng.normal(0.0, 1.0 / math.sqrt(h), h)
    # one Adam over the stacked (mean, log_var, log_noise_var): its update is
    # elementwise and the three blocks always share a step size
    theta = np.concatenate([mean, np.full(P, -6.0), [model.log_noise_var]])
    adam = _Adam(theta.shape, _STEP_SIZE)
    q = VariationalDist(mu=theta[:P], log_var=theta[P:-1])

    warm_until = config.iterations // 2 if alpha != 1.0 else 0
    trace = np.empty(config.iterations)
    bad_streak = 0
    S = config.samples_per_step
    # every (S, P) array of a step lives in one of these; sample_reparam's
    # draw, mu + sigma * eps, is written into delta in place
    eps, delta, scratch = (np.empty((S, P)) for _ in range(3))
    workspace = _GradWorkspace()
    for it in range(config.iterations):
        idx = rng.choice(dataset.n, size=min(minibatch_size, dataset.n), replace=False)
        rng.standard_normal(out=eps)
        np.add(q.mu, np.multiply(q.sigma, eps, out=delta), out=delta)
        model = BnnModel(d, hidden, float(theta[-1]))
        effective_alpha = 1.0 if it < warm_until else alpha
        # the score-function phase needs no weight gradient, only dlnv
        lp, g, dlnv = _log_p_tilde_grad(
            model, delta, dataset, idx, want_grad=effective_alpha == 1.0, workspace=workspace
        )
        lq = -0.5 * (P * LOG_2PI + q.log_var.sum() + np.sum(np.square(eps, out=scratch), axis=1))
        hvals = lp - lq
        loss, c = _loss_and_sample_weights(effective_alpha, hvals, config.kl_direction)
        trace[it] = loss
        if not math.isfinite(loss):
            bad_streak += 1
            if bad_streak >= 10:
                raise FitDivergenceError(
                    f"objective non-finite for {bad_streak} consecutive steps "
                    f"(iteration {it})",
                    trace=FitTrace(trace[: it + 1], (), q),
                )
            continue
        bad_streak = 0
        if effective_alpha == 1.0:
            d_mean = c @ g
            # g * (0.5 * sigma * eps) + 0.5, in that order
            np.multiply(0.5 * q.sigma, eps, out=scratch)
            np.multiply(g, scratch, out=scratch)
            d_lv = c @ np.add(scratch, 0.5, out=scratch)
        else:
            _, m = _log_softmax_norm(alpha * hvals)
            fac = (1.0 - alpha) if alpha > 1.0 else (1.0 - alpha) / (alpha - 1.0)
            d_mean, d_lv = _score_step(fac, m, eps, q.sigma, scratch)
        grads = (d_mean, d_lv, np.array([-float(dlnv.mean())]))
        norm = math.sqrt(sum(float(np.sum(gg**2)) for gg in grads))
        step = np.concatenate(grads)
        if norm > _GRAD_CLIP:
            step = step * (_GRAD_CLIP / norm)
        step_scale = 1.0 if effective_alpha == 1.0 else 0.3
        if it >= 0.6 * config.iterations:
            step_scale *= 0.3
        adam.step_size = _STEP_SIZE * step_scale
        theta = adam.update(theta, step)
        q = q._stepped(theta[:-1])
    model = BnnModel(d, hidden, float(theta[-1]))
    return BnnFitResult(q, model, trace)


def _score_step(fac, m, eps, sigma, scratch):
    """Score-function step of ``fac * sum_s m_s log q(delta_s)`` for a diagonal
    Gaussian q with delta = mu + sigma * eps held fixed: d log q / d mean =
    eps / sigma and d log q / d log_var = (eps^2 - 1) / 2.  ``scratch``, an
    array shaped like eps, is overwritten."""
    d_mean = fac * (m @ np.divide(eps, sigma, out=scratch))
    np.square(eps, out=scratch)
    np.multiply(0.5, scratch, out=scratch)
    d_lv = fac * (m @ np.subtract(scratch, 0.5, out=scratch))
    return d_mean, d_lv


# bytes one full-data evaluation may spend on a single (K, n, hidden) float64
# activation tensor; sets the target's max_batch, so refinement memory does
# not grow with the proposal chunk
_ACTIVATION_BYTES = 16 * 10**6


def _full_data_target(
    model: BnnModel, dataset: RegressionDataset, workspace=None
) -> TargetDensity:
    """Weight-space target over the full training split (no minibatching).

    A ``workspace`` makes the target stateful: its evaluations write into the
    same buffers, so it must not be called from two threads at once.
    """
    return TargetDensity(
        dim=model.param_count,
        log_unnorm=lambda delta: log_p_tilde_weights(model, delta, dataset, workspace=workspace),
        max_batch=max(1, _ACTIVATION_BYTES // (8 * dataset.n * model.hidden)),
    )


def refine_bnn(
    model: BnnModel,
    posterior: VariationalDist,
    dataset: RegressionDataset,
    rng: np.random.Generator,
    gamma: float = 0.1,
    n_accept_goal: int = 100,
    pilot_size: int = 1000,
):
    """Stage 2 in weight space: quantile threshold from a pilot batch, then refine.

    L(delta) is computed on the full training split and accepted under the
    softmin law at t = 1.  Returns the refined sample set and the threshold T.
    Each call evaluates its target slices in a workspace of its own, so calls
    in different threads share no buffers.
    """
    target = _full_data_target(model, dataset, _GradWorkspace())
    T, _ = pilot_threshold(posterior, target, gamma, pilot_size, rng)
    sset = refine(posterior, target, RefinementConfig(T=T), rng, n_accept_goal)
    return sset, T


def evaluate(
    model: BnnModel,
    weight_samples: np.ndarray,
    test: RegressionDataset,
):
    """Test RMSE of the predictive mean and average per-point log-likelihood.

    Predictions are de-standardized to original target units; the
    log-likelihood averages Gaussian predictive densities over weight
    samples through a log-mean-exp.
    """
    weight_samples = np.atleast_2d(np.asarray(weight_samples, dtype=float))
    K = weight_samples.shape[0]
    if K < 2:
        raise ValidationError(f"need at least 2 weight samples to evaluate, got {K}")
    preds = model.forward(weight_samples, test.features)
    y_std = test.y_std if test.y_std is not None else 1.0
    preds_orig = test.destandardize_targets(preds)
    y_orig = test.destandardize_targets(test.targets)
    rmse = float(np.sqrt(np.mean((preds_orig.mean(axis=0) - y_orig) ** 2)))
    v_orig = math.exp(model.log_noise_var) * y_std**2
    log_dens = -0.5 * (LOG_2PI + math.log(v_orig)) - (y_orig[None, :] - preds_orig) ** 2 / (
        2 * v_orig
    )
    avg_ll = float(np.mean(logsumexp(log_dens, axis=0) - math.log(K)))
    return rmse, avg_ll


_N_EVAL_SAMPLES = 100  # weight samples behind each method's predictive


def run_experiment(
    raw: RegressionDataset,
    alpha: float,
    seed: int,
    gamma: float = 0.1,
    config: OptimizerConfig | None = None,
):
    """Fit, refine and evaluate one (dataset, alpha, seed) cell.

    Returns one result row per method: rdvi (posterior predictive) and
    alpha-drs (accepted weight samples).  ``config`` (default: 6000
    iterations, otherwise OptimizerConfig's defaults) sets the fit; its
    ``alpha`` and ``seed`` always come from the arguments.  Seeds are split
    into named substreams so evaluation sampling never perturbs training.
    """
    ss = np.random.SeedSequence(seed)
    split_ss, fit_ss, refine_ss, eval_ss = ss.spawn(4)
    train, test = train_test_split(raw, np.random.default_rng(split_ss))
    fit_seed = int(np.random.default_rng(fit_ss).integers(2**31))
    result = fit_bnn(
        train, replace(config or OptimizerConfig(iterations=6000), alpha=alpha, seed=fit_seed)
    )
    eval_rng = np.random.default_rng(eval_ss)
    post_samples = sample_reparam(result.posterior, eval_rng, _N_EVAL_SAMPLES)[0]
    sset, T = refine_bnn(
        result.model,
        result.posterior,
        train,
        np.random.default_rng(refine_ss),
        gamma=gamma,
        n_accept_goal=_N_EVAL_SAMPLES,
    )
    rows = []
    for method, samples, acceptance_rate, threshold in (
        ("rdvi", post_samples, math.nan, math.nan),
        ("alpha-drs", sset.accepted, sset.acceptance_rate, T),
    ):
        rmse, test_ll = evaluate(result.model, samples, test)
        rows.append(dict(method=method, alpha=alpha, seed=seed, rmse=rmse, test_ll=test_ll,
                         acceptance_rate=acceptance_rate, T=threshold))
    return rows
