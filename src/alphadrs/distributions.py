"""Target densities and variational families with reparameterized sampling.

Everything is computed and stored in log space; densities are never
exponentiated before a reduction.  All types are immutable after
construction and safe to share across threads; each sampling call owns
its random stream.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ValidationError",
    "TargetDensity",
    "VariationalDist",
    "GmmSpec",
    "GAUSSIAN",
    "STUDENT_T",
    "make_gmm_target",
    "four_mode_gmm_spec",
    "gmm_spec_from_file",
    "log_q",
    "sample_reparam",
    "points_from_noise",
    "eval_log_unnorm",
    "eval_grad_log_unnorm",
]

LOG_2PI = math.log(2.0 * math.pi)
_MAX_BATCH = 4096  # every target's max_batch: its default and its cap

GAUSSIAN = "diag-gaussian"
STUDENT_T = "student-t"


class ValidationError(ValueError):
    """A domain object violates one of its declared invariants."""


def _check_integer(name: str, value, low: int) -> None:
    """ValidationError naming ``name`` unless ``value`` is an integer >= ``low``.

    A bool or a non-``Integral`` value (2.5, '3') is rejected; numpy integers
    are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) along ``axis``, as log(sum(exp(a - max))) + max.

    Where the max is not finite (all -inf, +inf or NaN) the shift is 0, so
    the result is -inf, +inf or NaN without a warning.  It agrees with
    scipy.special.logsumexp to a few ulp, not bit for bit.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    # the ufunc reductions directly: np.max / np.sum wrap each in Python calls
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axes, keepdims=True)
        a_max[~np.isfinite(a_max)] = 0.0
        e = a - a_max
        np.exp(e, out=e)
        out = np.log(np.add.reduce(e, axis=axes, keepdims=True)) + a_max
    if not keepdims:
        out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class TargetDensity:
    """Unnormalized target density log p~(x).

    ``log_unnorm`` must accept an ``(n, dim)`` array and return ``(n,)``
    values.  ``log_unnorm_and_grad``, when provided, returns ``(log p~,
    grad)``, the ``(n,)`` values and their ``(n, dim)`` gradient with respect
    to x, in one pass; only the stage-1 step reads it, through
    ``eval_grad_log_unnorm``, which raises ValidationError when it is absent.
    The two callables must agree, and ``dataclasses.replace`` of one leaves
    the other as it was.  ``max_batch`` is the largest row count
    ``log_unnorm`` is handed at once, and the number of proposals ``refine``
    draws per chunk.  It defaults to ``_MAX_BATCH`` rows and is capped there;
    a target whose per-row working memory is large declares fewer.  It bounds
    ``eval_log_unnorm`` only; the fused callable serves the stage-1 step,
    whose S rows it gets unsliced.
    """

    dim: int
    log_unnorm: Callable[[np.ndarray], np.ndarray]
    log_unnorm_and_grad: Optional[Callable[[np.ndarray], tuple]] = None
    max_batch: int = _MAX_BATCH

    def __post_init__(self):
        _check_integer("dim", self.dim, 1)
        _check_integer("max_batch", self.max_batch, 1)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "max_batch", min(int(self.max_batch), _MAX_BATCH))


def _points_for(target: TargetDensity, points) -> np.ndarray:
    """``points`` as an (n, target.dim) float array; ValidationError otherwise."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != target.dim:
        raise ValidationError(
            f"points have dimension {points.shape[1]}, target expects {target.dim}"
        )
    return points


def _checked_log_p(name: str, vals, points: np.ndarray, start: int) -> np.ndarray:
    """``vals``, a log p~ callable's output for ``points``, the rows from
    ``start`` of a batch, as an (n,) float array.  Raises ValidationError on
    another shape, or naming the first row whose value is NaN or +inf."""
    vals = np.asarray(vals, dtype=float)
    n = points.shape[0]
    if vals.shape != (n,):
        raise ValidationError(
            f"{name} returned shape {vals.shape} for rows {start}:{start + n}, expected ({n},)"
        )
    if not np.isfinite(vals).all():
        # -inf is a legal zero density; NaN and +inf mean a broken target
        bad = np.nonzero(np.isnan(vals) | (vals == np.inf))[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"{name} returned {vals[i]} at row {start + i}, point {points[i].tolist()}; "
                "log p~ must be finite or -inf"
            )
    return vals


def _log_unnorm_rows(target: TargetDensity, points: np.ndarray, start: int) -> np.ndarray:
    """log_unnorm on one slice of a batch, checked; ``start`` locates it."""
    return _checked_log_p("log_unnorm", target.log_unnorm(points), points, start)


def eval_log_unnorm(target: TargetDensity, points: np.ndarray) -> np.ndarray:
    """Evaluate log p~ at an (n, dim) array of points, returning (n,).

    Calls ``log_unnorm`` on slices of at most ``target.max_batch`` rows.
    Raises ValidationError naming the first row of ``points`` whose value is
    NaN or +inf.
    """
    points = _points_for(target, points)
    step = target.max_batch
    # at least one slice, so zero rows still reach log_unnorm
    starts = range(0, max(points.shape[0], 1), step)
    return np.concatenate([_log_unnorm_rows(target, points[i : i + step], i) for i in starts])


def eval_grad_log_unnorm(
    target: TargetDensity, points: np.ndarray, log_p_out: np.ndarray
) -> np.ndarray:
    """d/dx log p~ at an (n, dim) array of points, returning (n, dim), from
    one ``log_unnorm_and_grad`` call; log p~ goes to ``log_p_out``, an (n,)
    array, checked as ``eval_log_unnorm`` does."""
    if target.log_unnorm_and_grad is None:
        raise ValidationError("target has no log_unnorm_and_grad; the stage-1 fit needs it")
    points = _points_for(target, points)
    vals, g = target.log_unnorm_and_grad(points)
    log_p_out[...] = _checked_log_p("log_unnorm_and_grad", vals, points, 0)
    g = np.asarray(g, dtype=float)
    if g.shape != points.shape:
        raise ValidationError(
            f"log_unnorm_and_grad returned shape {g.shape}, expected {points.shape}"
        )
    return g


@dataclass(frozen=True)
class VariationalDist:
    """Location-scale variational family: diagonal Gaussian or Student-t.

    Parameters are ``mu`` and ``log_var`` per dimension.  The Student-t
    family has fixed degrees of freedom ``nu`` (not learned); each
    dimension is an independent location-scale t(nu).  ``sigma`` =
    exp(log_var / 2) is derived once at construction.
    """

    mu: np.ndarray
    log_var: np.ndarray
    family: str = GAUSSIAN
    nu: float = 10.0
    sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        log_var = np.atleast_1d(np.asarray(self.log_var, dtype=float))
        if mu.ndim != 1 or log_var.shape != mu.shape:
            raise ValidationError(
                f"mu and log_var must be 1-D with equal length, got {mu.shape} and {log_var.shape}"
            )
        if not (np.isfinite(mu).all() and np.isfinite(log_var).all()):
            raise ValidationError("mu and log_var entries must be finite")
        if self.family not in (GAUSSIAN, STUDENT_T):
            raise ValidationError(f"unknown family {self.family!r}")
        if self.family == STUDENT_T and not 0 < self.nu < math.inf:
            raise ValidationError(f"nu must be positive and finite, got {self.nu}")
        self._set_params(mu, log_var)
        object.__setattr__(self, "nu", float(self.nu))

    def _set_params(self, mu: np.ndarray, log_var: np.ndarray) -> None:
        sigma = np.exp(0.5 * log_var)
        for name, arr in (("mu", mu), ("log_var", log_var), ("sigma", sigma)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _stepped(self, theta: np.ndarray) -> "VariationalDist":
        """q at ``theta``, the stacked (mu, log_var) of a stage-1 step, its other
        fields carried over.  ``theta`` is a fresh 1-D float array never
        written again, so only finiteness is checked."""
        if not np.isfinite(theta).all():
            raise ValidationError("mu and log_var entries must be finite")
        q = object.__new__(VariationalDist)
        vars(q).update(vars(self))
        q._set_params(theta[: self.dim], theta[self.dim :])
        return q

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@functools.lru_cache(maxsize=8)
def _t_log_norm(nu: float):
    """log of the standard Student-t(nu) density's normalizing constant.

    ln Gamma comes from ``math.lgamma``; the value differs from
    scipy.special.gammaln's by a few ulp (8 at nu = 10) and only shifts
    log q by a constant.
    """
    return math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)


def log_q(q: VariationalDist, x: np.ndarray) -> np.ndarray:
    """Exact log density of q at an (n, dim) array of points, returning (n,)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != q.dim:
        raise ValidationError(f"x must have shape (n, {q.dim}), got {x.shape}")
    # each term is formed in place in the one (n, dim) buffer z, in the order of
    # (z**2 + log_var) + LOG_2PI and (c - 0.5 log_var) - (nu+1)/2 log1p(z**2/nu)
    z = np.subtract(x, q.mu)
    z /= q.sigma
    np.square(z, out=z)
    if q.family == GAUSSIAN:
        z += q.log_var
        z += LOG_2PI
        return -0.5 * np.sum(z, axis=1)
    nu = q.nu
    z /= nu
    np.log1p(z, out=z)
    z *= (nu + 1) / 2
    np.subtract(_t_log_norm(nu) - 0.5 * q.log_var, z, out=z)
    return np.sum(z, axis=1)


def sample_reparam(q: VariationalDist, rng: np.random.Generator, S: int) -> np.ndarray:
    """Draw S reparameterized samples from q: one (S, dim) array.

    The points are mu + sigma * eps elementwise, eps the standard normal or
    standard t(nu) draw of ``_base_noise``, built in place over eps in
    ``points_from_noise``'s order, so eps is not kept: only the stage-1 step,
    which replays it, draws eps alone.
    """
    points = _base_noise(q, rng, S)
    np.multiply(q.sigma, points, out=points)
    return np.add(q.mu, points, out=points)


def _base_noise(q: VariationalDist, rng: np.random.Generator, S: int) -> np.ndarray:
    """The (S, dim) base-noise draw of ``sample_reparam``: normals, then for the
    Student-t family chi-squares, combined as z / sqrt(w / nu) in place."""
    _check_integer("S", S, 1)
    z = rng.standard_normal((S, q.dim))
    if q.family == GAUSSIAN:
        return z
    w = rng.chisquare(q.nu, (S, q.dim))
    np.divide(w, q.nu, out=w)
    np.sqrt(w, out=w)
    return np.divide(z, w, out=z)


def points_from_noise(q: VariationalDist, base_noise: np.ndarray) -> np.ndarray:
    """Deterministic half of the reparameterization: mu + sigma * noise."""
    base_noise = np.asarray(base_noise, dtype=float)
    if base_noise.ndim != 2 or base_noise.shape[1] != q.dim:
        raise ValidationError(f"base_noise must have shape (n, {q.dim}), got {base_noise.shape}")
    # mu + (sigma * noise), the sum taken in place: one (n, dim) array is allocated
    points = np.multiply(q.sigma, base_noise)
    return np.add(q.mu, points, out=points)


@dataclass(frozen=True)
class GmmSpec:
    """One-dimensional Gaussian mixture specification."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_1d(np.asarray(self.means, dtype=float))
        v = np.atleast_1d(np.asarray(self.variances, dtype=float))
        if not (w.shape == m.shape == v.shape) or w.ndim != 1 or w.size == 0:
            raise ValidationError("weights, means, variances must be 1-D of equal length")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        if not np.all(v > 0):
            raise ValidationError("variances must be positive")
        if not np.all(np.isfinite(m)) or not np.all(np.isfinite(v)):
            raise ValidationError("means and variances must be finite")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def four_mode_gmm_spec() -> GmmSpec:
    """Equal-weight four-component benchmark mixture on the real line."""
    return GmmSpec(
        weights=np.full(4, 0.25),
        means=np.array([-12.0, -6.0, 0.0, 6.0]),
        variances=np.full(4, 0.64),
    )


def make_gmm_target(spec: GmmSpec) -> TargetDensity:
    """Normalized 1-D mixture target (log Z = 0) with analytic gradient; its
    ``log_unnorm_and_grad`` shares one component pass between the two.

    Components are stored as a (K, n) array, one row per component, so each
    reduction over them is K - 1 elementwise operations on whole rows.  numpy
    sums fewer than 8 entries sequentially on either axis, so the values match
    the (n, K) layout bit for bit; from K = 8 on they may move by a few ulp.
    Each point reduces over its own components, so slices change no value.
    """
    with np.errstate(divide="ignore"):  # a zero weight is a -inf log weight
        log_w = np.log(spec.weights)[:, None]
    means = spec.means[:, None]
    variances = spec.variances[:, None]
    log_variances = np.log(variances)

    def _log_components(d):
        # d = x - means, (K, n) -> (K, n)
        return log_w - 0.5 * (d**2 / variances + log_variances + LOG_2PI)

    def log_unnorm(points):
        return logsumexp(_log_components(points[:, 0] - means), axis=0)

    def log_unnorm_and_grad(points):
        d = points[:, 0] - means
        comp = _log_components(d)
        lse = logsumexp(comp, axis=0, keepdims=True)
        g = np.sum(np.exp(comp - lse) * (-d / variances), axis=0)
        return lse[0], g[:, None]

    return TargetDensity(1, log_unnorm, log_unnorm_and_grad)


def gmm_spec_from_file(path) -> GmmSpec:
    """Read a GmmSpec from a plain-text key-value config file.

    Expected keys: ``weights``, ``means``, ``variances``, each a
    comma-separated list on one line, given once.  Blank lines and ``#``
    comments are ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    fields: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = v1, v2, ...'")
        key, _, rest = line.partition("=")
        key = key.strip().lower()
        if key not in ("weights", "means", "variances"):
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in fields:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values = np.array([float(tok) for tok in rest.split(",") if tok.strip()])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric value ({exc})") from None
        fields[key] = values
    missing = {"weights", "means", "variances"} - fields.keys()
    if missing:
        raise ValidationError(f"{path}: missing keys {sorted(missing)}")
    return GmmSpec(fields["weights"], fields["means"], fields["variances"])
