"""Desk-scale Bayesian neural-network regression in weight space.

A single hidden layer of 50 ReLU units with a standard normal prior per
weight; the posterior over all weights is a fully factorized Gaussian fit
by stage 1, then refined in weight space by stage 2.  Observation noise
is a single learned point parameter (log variance).
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
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
    OptimizerConfig,
    _Adam,
    _count_bad_step,
    _loss_and_sample_weights,
    _pathwise_step,
    _score_step,
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

    ``y_mean``/``y_std`` record the target standardization applied: both None
    for raw data, else both finite with ``y_std > 0``.  Test splits carry the
    train split's stats so predictions can be mapped back to original units.
    Immutable after construction.
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
        stats = (self.y_mean, self.y_std)
        if stats != (None, None) and (
            None in stats or not (math.isfinite(self.y_mean) and 0 < self.y_std < math.inf)
        ):
            raise ValidationError(f"y_mean, y_std: both None, or finite and y_std > 0: {stats}")
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
    naming the offending row and column on any non-numeric or non-finite cell.
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
                if not math.isfinite(vals[-1]):
                    raise ValueError
            except ValueError:
                raise DatasetError(
                    f"{tok!r} is not a finite number, at row {lineno}, column {col} of {path}"
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
        """Split (K, P) flat weights into views (W1b, w2, b2).  W1b is the
        (K, d+1, h) stack of W1 over b1, the first layer as one affine map."""
        d, h = self.input_dim, self.hidden
        delta = np.atleast_2d(np.asarray(delta, dtype=float))
        k = delta.shape[0]
        if delta.shape[1] != self.param_count:
            raise ValidationError(
                f"delta has {delta.shape[1]} parameters, model needs {self.param_count}"
            )
        i = (d + 1) * h
        return delta[:, :i].reshape(k, d + 1, h), delta[:, i : i + h], delta[:, i + h]

    def forward(self, delta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Predictions of shape (K, N) for K weight samples on N inputs."""
        return _layers(self.unpack(delta), np.column_stack((X, np.ones(len(X)))))[1]


def _layers(weights, Xa, out=None):
    """(h1, yhat): ReLU activations and predictions of the unpacked
    ``weights`` on inputs ``Xa = [X, 1]``, whose ones column takes the first
    layer's bias into its matmul.  ``out``, when given, is a (K, n, h) buffer
    that receives h1; the ReLU is taken in place over the first layer's output."""
    W1b, w2, b2 = weights
    # batched matmul runs the (K, n, h) contractions through BLAS; np.einsum does not
    h1 = np.matmul(Xa, W1b, out=out)
    np.maximum(h1, 0.0, out=h1)
    return h1, (h1 @ w2[:, :, None])[:, :, 0] + b2[:, None]


class _GradWorkspace:
    """Buffers ``_log_p_tilde_grad`` writes into instead of allocating: one
    (K, n, h) array for h1 and then dz1, and the (K, P) gradient, plus the
    ReLU mask once a call wants the gradient.  Each call overwrites them
    (reallocated only on a change of shape), so a returned gradient is valid
    until the next call with the same workspace."""

    def __init__(self):
        self.shape = None

    def buffers(self, K, n, h, P):
        if self.shape != (K, n, h, P):
            self.shape = (K, n, h, P)
            self.act = np.empty((K, n, h))
            self.mask = None
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
    if 8 * dataset.n * model.hidden <= _ACTIVATION_BYTES:
        return _log_p_tilde_grad(model, delta, dataset, want_grad=False, workspace=workspace)[0]
    # one weight row's activation over every row is past the budget: predict
    # in row chunks into one (K, n) residual array, whose row predictions and
    # sum of squares are the bits of one pass over every row
    X, Y = dataset.features, dataset.targets
    weights = model.unpack(delta)
    res = np.empty((len(delta), dataset.n))
    for i, j in _row_chunks(dataset.n, len(delta), model.hidden):
        yhat = _layers(weights, np.column_stack((X[i:j], np.ones(j - i))))[1]
        np.subtract(Y[i:j], yhat, out=res[:, i:j])
    sse = np.sum(np.square(res, out=res), axis=1)
    return _log_posterior(model, delta, sse, dataset.n, 1.0, np.empty_like(delta))


def _log_posterior(model, delta, sse, n_b, scale, scratch):
    """log p~ of the (K, P) weights from the (K,) sum of squared residuals
    ``sse`` over n_b rows, the log-likelihood rescaled by ``scale``.
    ``scratch``, shaped like delta, is overwritten."""
    lnv = model.log_noise_var
    loglik = -0.5 * (n_b * (LOG_2PI + lnv) + sse / math.exp(lnv)) * scale
    logprior = -0.5 * (delta.shape[1] * LOG_2PI + np.sum(np.square(delta, out=scratch), axis=1))
    return loglik + logprior


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
    v = math.exp(model.log_noise_var)
    K, P = delta.shape
    h = model.hidden
    ws = (workspace or _GradWorkspace()).buffers(K, n_b, h, P)

    Xa = np.column_stack((X, np.ones(n_b)))
    weights = model.unpack(delta)
    w2 = weights[1]
    h1, yhat = _layers(weights, Xa, ws.act)
    res = Y[None, :] - yhat
    sse = np.sum(res**2, axis=1)
    # the gradient buffer doubles as delta**2's scratch; the gradient overwrites it
    vals = _log_posterior(model, delta, sse, n_b, scale, ws.grad)
    dlnv = (-0.5 * n_b + 0.5 * sse / v) * scale
    if not want_grad:
        return vals, None, dlnv

    dy = (res / v) * scale
    dw2 = (dy[:, None, :] @ h1)[:, 0, :]
    db2 = dy.sum(axis=1)
    # the first call that wants a gradient allocates the mask; later ones reuse it
    ws.mask = np.greater(h1, 0.0, out=ws.mask)
    # dz1 overwrites h1, whose last readers are dw2 and the mask above
    dz1 = np.multiply(dy[:, :, None], w2[:, None, :], out=h1)
    np.multiply(dz1, ws.mask, out=dz1)
    gW1b, gw2, gb2 = model.unpack(ws.grad)
    np.matmul(Xa.T, dz1, out=gW1b)
    gw2[...] = dw2
    gb2[...] = db2
    np.subtract(ws.grad, delta, out=ws.grad)
    return vals, ws.grad, dlnv


@dataclass(frozen=True)
class BnnFitResult:
    posterior: VariationalDist  # diagonal Gaussian over the flat weights
    model: BnnModel  # carries the fitted log_noise_var
    trace: np.ndarray


_GRAD_CLIP = 10.0  # global norm; the alpha-weighted gradient has heavy tails


def _this_cpu():
    """The CPU the calling thread runs on (the C library's sched_getcpu), else None."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    cpu = getcpu()
    return cpu if cpu >= 0 else None


def _leave_cpu(cpu):
    """Move the calling thread off ``cpu``, then give it back its whole
    affinity mask.  Does nothing where ``cpu`` is None, is the only usable
    CPU, or the mask cannot be set."""
    if cpu is None:
        return
    try:
        usable = os.sched_getaffinity(0)  # on Linux, this thread's mask
        if cpu in usable and len(usable) > 1:
            os.sched_setaffinity(0, usable - {cpu})
            os.sched_setaffinity(0, usable)
    except OSError:
        pass


class _StepDraws:
    """``fit_bnn``'s random draws, made one step ahead on a drawer thread.

    Each step takes ``rng.choice(n, batch, replace=False)`` and then
    ``rng.standard_normal(out=eps)`` and nothing else from ``rng``; the fit's
    state never feeds them.  So a drawer thread makes the same two calls, in
    the same order, for exactly ``steps`` steps, into a ring of two slots:
    the fit reads the same numbers in the same order, and ``rng`` ends where
    a sequential loop leaves it.  ``standard_normal(out=)`` releases the GIL
    while it fills a slot, so the draw runs beside the step on another core.

    ``next()`` returns the next step's (indices, (S, P) noise); the noise is
    the slot itself, valid until the following ``next()`` hands the slot back
    to the drawer.  An exception raised in the drawer is re-raised by
    ``next()``.  Leaving the ``with`` block stops the drawer, blocked on a
    full ring or not, and joins it; zero steps start no thread.

    The drawer starts on a usable CPU other than the caller's, then takes
    back the caller's whole affinity mask.  Linux tends to start it on the
    caller's CPU and, as the two threads wake each other, to keep it there
    with the other core idle; started elsewhere, it stays elsewhere while
    that core is idle.
    """

    def __init__(self, rng, steps, n, batch, shape):
        self._args = (rng, steps, n, batch)
        self._caller_cpu = _this_cpu()
        self._idx = [None, None]
        self._eps = [np.empty(shape), np.empty(shape)]
        self._free = threading.Semaphore(2)
        self._full = threading.Semaphore(0)
        self._taken = 0
        self._stop = False
        self._error = None
        self._thread = None
        if steps > 0:
            self._thread = threading.Thread(target=self._draw, daemon=True)
            self._thread.start()

    def _draw(self):
        rng, steps, n, batch = self._args
        _leave_cpu(self._caller_cpu)
        try:
            for it in range(steps):
                self._free.acquire()
                if self._stop:
                    return
                self._idx[it % 2] = rng.choice(n, size=batch, replace=False)
                rng.standard_normal(out=self._eps[it % 2])
                self._full.release()
        except Exception as exc:  # noqa: BLE001 - re-raised by next()
            self._error = exc
            self._full.release()

    def next(self):
        if self._taken:
            self._free.release()  # the previous step is done with its slot
        self._full.acquire()
        if self._error is not None:
            raise self._error
        slot = self._taken % 2
        self._taken += 1
        return self._idx[slot], self._eps[slot]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._thread is not None:
            self._stop = True
            self._free.release()  # wakes a drawer blocked on a full ring
            self._thread.join()


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

    * alpha != 1 warm-starts with the alpha = 1 objective for the first
      half of the iterations, then takes ``rdvi._score_step``, the
      score-function form of the alpha objective's gradient, at 0.3x the
      step size.  The pathwise form is unusable here: with argmax
      weights its location-derivative term walks the posterior mean off the
      data instead of pulling density toward high-ratio samples.
    * the noise variance always follows the sample-averaged log-likelihood
      gradient (an EM-style point update); routed through the
      alpha-weighted objective, the best-of-S sample drags it to zero.

    The step size drops to 0.3x after 60% of the iterations; the noise
    variance and the fit quality keep improving well past the initial
    plateau, and the tail polish is worth roughly half an RMSE unit on the
    harder regression splits.  A non-finite pathwise step raises
    GradientError naming the sample.
    """
    rng = np.random.default_rng(config.seed)
    alpha = config.alpha
    d = dataset.dim
    model = BnnModel(input_dim=d, hidden=hidden, log_noise_var=-1.0)
    P = model.param_count
    mean = np.zeros(P)
    W1b, w2, _ = model.unpack(mean)  # (1, ...) views into mean
    W1b[0, :d] = rng.normal(0.0, 1.0 / math.sqrt(d), (d, hidden))
    w2[0] = rng.normal(0.0, 1.0 / math.sqrt(hidden), hidden)
    # one Adam over the stacked (mean, log_var, log_noise_var): its update is
    # elementwise and the three blocks always share a step size
    theta = np.concatenate([mean, np.full(P, -6.0), [model.log_noise_var]])
    adam = _Adam(theta.shape)
    q = VariationalDist(mu=theta[:P], log_var=theta[P:-1])

    warm_until = config.iterations // 2 if alpha != 1.0 else 0
    trace = np.empty(config.iterations)
    bad_streak = 0
    S = config.samples_per_step
    # the step's points, mu + sigma * eps, are written into delta in place;
    # eps is the drawer's slot, read in place until the next draws.next()
    delta, scratch = np.empty((S, P)), np.empty((S, P))
    workspace = _GradWorkspace()
    batch = min(minibatch_size, dataset.n)
    with _StepDraws(rng, config.iterations, dataset.n, batch, (S, P)) as draws:
        for it in range(config.iterations):
            idx, eps = draws.next()
            np.add(q.mu, np.multiply(q.sigma, eps, out=delta), out=delta)
            model = BnnModel(d, hidden, float(theta[-1]))
            effective_alpha = 1.0 if it < warm_until else alpha
            # the score-function phase needs no weight gradient, only dlnv
            lp, g, dlnv = _log_p_tilde_grad(
                model, delta, dataset, idx, want_grad=effective_alpha == 1.0, workspace=workspace
            )
            eps_sq = np.sum(np.square(eps, out=scratch), axis=1)
            lq = -0.5 * (P * LOG_2PI + q.log_var.sum() + eps_sq)
            hvals = lp - lq
            loss, c = _loss_and_sample_weights(effective_alpha, hvals, config.kl_direction)
            trace[it] = loss
            if not math.isfinite(loss):
                bad_streak = _count_bad_step(bad_streak, trace, it, (), q)
                continue
            bad_streak = 0
            if effective_alpha == 1.0:
                step = _pathwise_step(c[None], g[None], q.sigma, eps[None], delta[None],
                                      scratch[None])[0]
            else:
                step = _score_step(alpha, c, eps, q.sigma, scratch)
            grads = (step[:P], step[P:], np.array([-float(dlnv.mean())]))
            norm = math.sqrt(sum(float(np.sum(gg**2)) for gg in grads))
            step = np.concatenate(grads)
            if norm > _GRAD_CLIP:
                step = step * (_GRAD_CLIP / norm)
            step_scale = 1.0 if effective_alpha == 1.0 else 0.3
            if it >= 0.6 * config.iterations:
                step_scale *= 0.3
            theta = adam.update(theta, step, _STEP_SIZE * step_scale)
            q = q._stepped(theta[:-1])
    model = BnnModel(d, hidden, float(theta[-1]))
    return BnnFitResult(q, model, trace)


# bytes one full-data evaluation may spend on its (K, n, hidden) float64
# activation buffer, the only float64 array of that shape it holds; sets
# evaluate's test-row chunk and the target's max_batch (TargetDensity caps
# it), and so refine's proposal chunk
_ACTIVATION_BYTES = 16 * 10**6


def _row_chunks(n, K, hidden):
    """(start, stop) pairs covering n data rows in chunks whose (K, rows,
    hidden) float64 activation fits ``_ACTIVATION_BYTES``.  Chunks start where
    BLAS's row blocks start in one call on all rows, at multiples of 8, and a
    one-row tail, which numpy would take through other kernels, joins the
    chunk before it: each row's predictions are the bits of one call."""
    step = 8 * max(1, _ACTIVATION_BYTES // (64 * K * hidden))
    starts = [i for i in range(0, n, step) if i == 0 or i < n - 1]
    return list(zip(starts, starts[1:] + [n]))


def _full_data_target(model: BnnModel, dataset: RegressionDataset) -> TargetDensity:
    """Weight-space target over the full training split (no minibatching).  Its
    evaluations share one workspace: it must not be called from two threads at once."""
    workspace = _GradWorkspace()
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
    target = _full_data_target(model, dataset)
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
    samples through a log-mean-exp.  Test rows are predicted in chunks whose
    (K, rows, hidden) activation fits ``_ACTIVATION_BYTES``, to one call's bits.
    """
    weight_samples = np.atleast_2d(np.asarray(weight_samples, dtype=float))
    K = weight_samples.shape[0]
    if K < 2:
        raise ValidationError(f"need at least 2 weight samples to evaluate, got {K}")
    y_std = test.y_std if test.y_std is not None else 1.0
    y_orig = test.destandardize_targets(test.targets)
    v_orig = math.exp(model.log_noise_var) * y_std**2
    n = test.n
    mean_pred, log_pred = np.empty(n), np.empty(n)
    for i, j in _row_chunks(n, K, model.hidden):
        preds = test.destandardize_targets(model.forward(weight_samples, test.features[i:j]))
        mean_pred[i:j] = preds.mean(axis=0)
        log_dens = -0.5 * (LOG_2PI + math.log(v_orig)) - (y_orig[i:j] - preds) ** 2 / (2 * v_orig)
        log_pred[i:j] = logsumexp(log_dens, axis=0)
    rmse = float(np.sqrt(np.mean((mean_pred - y_orig) ** 2)))
    avg_ll = float(np.mean(log_pred - math.log(K)))
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
    post_samples = sample_reparam(result.posterior, eval_rng, _N_EVAL_SAMPLES)
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
