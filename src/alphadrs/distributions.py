"""Target densities and variational families with reparameterized sampling.

Everything is computed and stored in log space; densities are never
exponentiated before a reduction.  All types are immutable after
construction and safe to share across threads; each sampling call owns
its random stream.
"""

from __future__ import annotations

import functools
import math
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

GAUSSIAN = "diag-gaussian"
STUDENT_T = "student-t"


class ValidationError(ValueError):
    """A domain object violates one of its declared invariants."""


def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) along ``axis``, bit-identical to scipy.special.logsumexp.

    Same arithmetic as scipy 1.17 for float64 input without its array-API
    dispatch: the entries tied at the max (m of them) are taken out of the
    shifted sum s, the result is log1p(s / m) + log(m) + max, and where that
    is non-finite (all -inf, +inf or NaN) it falls back to log(sum(exp(a))).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    # the ufunc reductions directly: np.max / np.sum wrap each in Python calls
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axes, keepdims=True)
        at_max = a == a_max
        m = np.add.reduce(at_max, axis=axes, keepdims=True, dtype=float)
        # zeroing the max lanes after exp, not feeding exp -inf there, keeps
        # numpy's vectorised exp off its slow path for non-finite input
        e = a - a_max
        np.exp(e, out=e)
        np.copyto(e, 0.0, where=at_max)
        s = np.add.reduce(e, axis=axes, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            naive = np.log(np.add.reduce(np.exp(a), axis=axes, keepdims=True))
            out = np.where(finite, out, naive)
    if not keepdims:
        out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class TargetDensity:
    """Unnormalized target density log p~(x).

    ``log_unnorm`` must accept an ``(n, dim)`` array and return ``(n,)``
    values.  ``grad_log_unnorm``, when provided, returns the ``(n, dim)``
    gradient of log p~ with respect to x; only the stage-1 step reads it,
    through ``eval_grad_log_unnorm``, which falls back to central finite
    differences when it is absent.  ``max_batch``, when set, is the
    largest row count ``log_unnorm`` is handed at once: a target whose
    per-row working memory is large declares it so batches are evaluated
    in slices of bounded size.
    """

    dim: int
    log_unnorm: Callable[[np.ndarray], np.ndarray]
    grad_log_unnorm: Optional[Callable[[np.ndarray], np.ndarray]] = None
    max_batch: Optional[int] = None

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValidationError(f"dim must be a positive integer, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        mb = self.max_batch
        if mb is not None and (isinstance(mb, bool) or not isinstance(mb, int) or mb < 1):
            raise ValidationError(f"max_batch must be None or a positive int, got {mb!r}")


def _log_unnorm_rows(target: TargetDensity, points: np.ndarray, start: int) -> np.ndarray:
    """log_unnorm on one slice of a batch, shape-checked; ``start`` locates it."""
    vals = np.asarray(target.log_unnorm(points), dtype=float)
    if vals.shape != (points.shape[0],):
        raise ValidationError(
            f"log_unnorm returned shape {vals.shape} for rows {start}:{start + points.shape[0]}, "
            f"expected ({points.shape[0]},)"
        )
    return vals


def eval_log_unnorm(target: TargetDensity, points: np.ndarray) -> np.ndarray:
    """Evaluate log p~ at an (n, dim) array of points, returning (n,).

    Calls ``log_unnorm`` on slices of at most ``target.max_batch`` rows (all
    rows at once when it is None).  Raises ValidationError naming the first
    row of ``points`` whose value is NaN or +inf.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != target.dim:
        raise ValidationError(
            f"points have dimension {points.shape[1]}, target expects {target.dim}"
        )
    n = points.shape[0]
    step = target.max_batch or n
    if n <= step:
        vals = _log_unnorm_rows(target, points, 0)
    else:
        vals = np.concatenate(
            [_log_unnorm_rows(target, points[i : i + step], i) for i in range(0, n, step)]
        )
    if not np.isfinite(vals).all():
        # -inf is a legal zero density; NaN and +inf mean a broken target
        bad = np.nonzero(np.isnan(vals) | (vals == np.inf))[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"log_unnorm returned {vals[i]} at row {i}, point {points[i].tolist()}; "
                "log p~ must be finite or -inf"
            )
    return vals


def eval_grad_log_unnorm(target: TargetDensity, points: np.ndarray) -> np.ndarray:
    """d/dx log p~ at each point; central differences if no analytic gradient."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if target.grad_log_unnorm is not None:
        g = np.asarray(target.grad_log_unnorm(points), dtype=float)
        if g.shape != points.shape:
            raise ValidationError(
                f"grad_log_unnorm returned shape {g.shape}, expected {points.shape}"
            )
        return g
    # step ~ cbrt(eps) balances truncation and cancellation for central differences
    step = 6e-6 * (1.0 + np.abs(points))
    grad = np.empty_like(points)
    for j in range(points.shape[1]):
        hi = points.copy()
        lo = points.copy()
        hi[:, j] += step[:, j]
        lo[:, j] -= step[:, j]
        grad[:, j] = (eval_log_unnorm(target, hi) - eval_log_unnorm(target, lo)) / (
            hi[:, j] - lo[:, j]
        )
    return grad


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
        sigma = np.exp(0.5 * log_var)
        for name, arr in (("mu", mu), ("log_var", log_var), ("sigma", sigma)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "nu", float(self.nu))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def replace(self, mu=None, log_var=None) -> "VariationalDist":
        return VariationalDist(
            mu=self.mu if mu is None else mu,
            log_var=self.log_var if log_var is None else log_var,
            family=self.family,
            nu=self.nu,
        )


# cephes lgam: Stirling-series coefficients (A) and the rational fit of
# ln Gamma on [2, 3) (numerator B, denominator C with its leading 1)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LGAM_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LGAM_MAX = 2.556348e305  # ln Gamma overflows above this


def _polevl(x, coefs):
    """Horner's rule, highest power first, as cephes ``polevl`` rounds it."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _lgamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0, bit-identical to scipy.special.gammaln.

    A port of the cephes ``lgam`` recursion that gammaln runs for positive
    arguments, operation for operation, so every rounding matches: below 13
    the argument is shifted into [2, 3) and a rational fit is applied; from 13
    on the Stirling series, with fewer terms from 1000 and none above 1e8.
    ``math.lgamma`` rounds differently at most points.
    """
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LGAM_LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    return q + _polevl(p, _LGAM_A) / x


@functools.lru_cache(maxsize=8)
def _t_log_norm(nu: float):
    """log of the standard Student-t(nu) density's normalizing constant.

    ln Gamma comes from ``_lgamma``, a port of the cephes ``lgam`` that
    scipy.special.gammaln runs, so the value is gammaln's to the bit without
    importing scipy.special, which would dominate every process's start-up.
    """
    return _lgamma((nu + 1) / 2) - _lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)


def log_q(q: VariationalDist, x: np.ndarray) -> np.ndarray:
    """Exact log density of q at an (n, dim) array of points, returning (n,)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != q.dim:
        raise ValidationError(f"x must have shape (n, {q.dim}), got {x.shape}")
    z = (x - q.mu) / q.sigma
    if q.family == GAUSSIAN:
        return -0.5 * np.sum(z**2 + q.log_var + LOG_2PI, axis=1)
    nu = q.nu
    return np.sum(
        _t_log_norm(nu) - 0.5 * q.log_var - (nu + 1) / 2 * np.log1p(z**2 / nu), axis=1
    )


def sample_reparam(q: VariationalDist, rng: np.random.Generator, S: int):
    """Draw S reparameterized samples from q.

    Returns ``(points, base_noise)`` where ``points = mu + sigma * base_noise``
    elementwise.  Base noise is standard normal for the Gaussian family and
    standard t(nu), generated as normal / sqrt(chi2(nu)/nu) per element, for
    the Student-t family.  Returning the noise lets the same draw be replayed
    under perturbed parameters.
    """
    if S < 1:
        raise ValidationError(f"S must be >= 1, got {S}")
    eps = _base_noise(q, rng, S)
    return points_from_noise(q, eps), eps


def _base_noise(q: VariationalDist, rng: np.random.Generator, S: int) -> np.ndarray:
    """The (S, dim) base-noise draw of ``sample_reparam``: normals, then for the
    Student-t family chi-squares, combined as z / sqrt(w / nu) in place."""
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
    return q.mu + q.sigma * base_noise


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
    """Normalized 1-D mixture target (log Z = 0) with analytic gradient.

    Components are stored as a (K, n) array, one row per component, so each
    reduction over them is K - 1 elementwise operations on whole rows.  numpy
    sums fewer than 8 entries sequentially on either axis, so the values match
    the (n, K) layout bit for bit; from K = 8 on they may move by a few ulp.
    """
    log_w = np.log(spec.weights)[:, None]
    means = spec.means[:, None]
    variances = spec.variances[:, None]
    log_variances = np.log(variances)

    def _log_components(x):
        # x (n, 1) -> (K, n)
        d = x[:, 0] - means
        return log_w - 0.5 * (d**2 / variances + log_variances + LOG_2PI)

    def log_unnorm(points):
        return logsumexp(_log_components(points), axis=0)

    def grad_log_unnorm(points):
        comp = _log_components(points)
        resp = np.exp(comp - logsumexp(comp, axis=0, keepdims=True))
        g = np.sum(resp * (-(points[:, 0] - means) / variances), axis=0)
        return g[:, None]

    return TargetDensity(dim=1, log_unnorm=log_unnorm, grad_log_unnorm=grad_log_unnorm)


def gmm_spec_from_file(path) -> GmmSpec:
    """Read a GmmSpec from a plain-text key-value config file.

    Expected keys: ``weights``, ``means``, ``variances``, each a
    comma-separated list.  Blank lines and ``#`` comments are ignored.
    """
    path = Path(path)
    if not path.exists():
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
        try:
            values = np.array([float(tok) for tok in rest.split(",") if tok.strip()])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric value ({exc})") from None
        fields[key] = values
    missing = {"weights", "means", "variances"} - fields.keys()
    if missing:
        raise ValidationError(f"{path}: missing keys {sorted(missing)}")
    return GmmSpec(fields["weights"], fields["means"], fields["variances"])
