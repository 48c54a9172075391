"""Independent oracles: closed forms, quadrature pairs, finite differences.

These back the divergence-check command and the verification suite.  The
quadrature oracle never touches the Monte-Carlo code path it checks, and
the finite-difference cases replay the exact base noise used by the
pathwise gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    GAUSSIAN,
    STUDENT_T,
    TargetDensity,
    VariationalDist,
    _base_noise,
    four_mode_gmm_spec,
    log_q,
    logsumexp,
    make_gmm_target,
    points_from_noise,
    sample_reparam,
)
from .divergence import DivergenceEstimate, batch_from_points, estimate_renyi, quadrature_renyi_1d
from .rdvi import (
    OptimizerConfig,
    _loss_and_sample_weights,
    _score_step,
    gradient_from_noise,
    replay_objective,
)

__all__ = [
    "gaussian_renyi",
    "normal_target",
    "dist_target",
    "QuadratureCase",
    "GradientCase",
    "mc_vs_quadrature_cases",
    "gradient_fd_cases",
]


def gaussian_renyi(alpha: float, mu1: float, var1: float, mu2: float, var2: float) -> float:
    """Closed-form Renyi divergence between two 1-D Gaussians.

    Valid while var_alpha = alpha*var2 + (1-alpha)*var1 > 0.
    """
    var_a = alpha * var2 + (1.0 - alpha) * var1
    if var_a <= 0:
        raise ValueError(f"order {alpha} divergence undefined: mixed variance {var_a} <= 0")
    dmu = mu1 - mu2
    return float(
        alpha * dmu**2 / (2.0 * var_a)
        + 0.5
        / (1.0 - alpha)
        * (math.log(var_a) - (1.0 - alpha) * math.log(var1) - alpha * math.log(var2))
    )


def normal_target(mu: float, var: float) -> TargetDensity:
    """Normalized 1-D Gaussian as a TargetDensity (log Z = 0)."""
    def log_unnorm(points):
        return -0.5 * ((points[:, 0] - mu) ** 2 / var + math.log(var) + math.log(2 * math.pi))

    def log_unnorm_and_grad(points):
        return log_unnorm(points), -(points - mu) / var

    return TargetDensity(dim=1, log_unnorm=log_unnorm, log_unnorm_and_grad=log_unnorm_and_grad)


def dist_target(q: VariationalDist) -> TargetDensity:
    """Use a variational family member as a normalized target density."""
    return TargetDensity(dim=q.dim, log_unnorm=lambda pts: log_q(q, pts))


@dataclass(frozen=True)
class QuadratureCase:
    name: str
    mc: DivergenceEstimate
    quadrature: float
    closed_form: float | None


def _pairs():
    t = lambda mu, scale: VariationalDist(
        mu=[mu], log_var=[2 * math.log(scale)], family=STUDENT_T, nu=10.0
    )
    g = lambda mu, scale: VariationalDist(mu=[mu], log_var=[2 * math.log(scale)])
    return [
        # name, target, proposal, alpha, grid, closed form
        ("N(0,1)||N(1,1) a=2", normal_target(0, 1), g(1, 1), 2.0, (-14, 15, 120001),
         gaussian_renyi(2.0, 0, 1, 1, 1)),
        ("N(0,1)||N(0,4) a=0.5", normal_target(0, 1), g(0, 2), 0.5, (-30, 30, 120001),
         gaussian_renyi(0.5, 0, 1, 0, 4)),
        ("N(0,1)||N(0,4) a=2", normal_target(0, 1), g(0, 2), 2.0, (-30, 30, 120001),
         gaussian_renyi(2.0, 0, 1, 0, 4)),
        ("t10(0,1.2)||t10(0.3,1.5) a=2", dist_target(t(0, 1.2)), t(0.3, 1.5), 2.0,
         (-80, 80, 400001), None),
        ("N(-1,4)||t10(0,6.25) a=5", normal_target(-1, 4), t(0, 2.5), 5.0,
         (-60, 60, 300001), None),
        ("N(0,1)||t10(0,1) a=11", normal_target(0, 1), t(0, 1), 11.0,
         (-40, 40, 200001), None),
    ]


def mc_vs_quadrature_cases(seed: int = 0):
    """Monte-Carlo estimates from 10^5 draws next to the trapezoid oracle for
    six density pairs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1A]))
    cases = []
    for name, target, proposal, alpha, grid, closed in _pairs():
        batch = batch_from_points(proposal, target, sample_reparam(proposal, rng, 100_000))
        mc = estimate_renyi(alpha, batch)
        quad = quadrature_renyi_1d(
            lambda x: target.log_unnorm(x[:, None]),
            lambda x: log_q(proposal, x[:, None]),
            alpha,
            grid,
        )
        cases.append(QuadratureCase(name, mc, quad, closed))
    return cases


@dataclass(frozen=True)
class GradientCase:
    name: str
    rel_error: float


_FD_STEP = 1e-5


def _fd_case(name, q, grad, loss):
    """``grad`` (d/dmu then d/dlog_var) vs central differences of ``loss(q')``."""
    fd = np.empty_like(grad)
    for j in range(q.dim):
        for k, attr in enumerate(("mu", "log_var")):
            base = getattr(q, attr)
            hi, lo = base.copy(), base.copy()
            hi[j] += _FD_STEP
            lo[j] -= _FD_STEP
            f_hi = loss(replace(q, **{attr: hi}))
            f_lo = loss(replace(q, **{attr: lo}))
            fd[k * q.dim + j] = (f_hi - f_lo) / (2 * _FD_STEP)
    scale = max(float(np.max(np.abs(grad))), 1e-8)
    rel = float(np.max(np.abs(fd - grad)) / scale)
    return GradientCase(name, rel)


def _random_case(rng, i, gmm):
    """Case i's target and q: the mixture or a random normal, alternating families."""
    family = GAUSSIAN if i % 2 == 0 else STUDENT_T
    target = gmm if i % 3 != 2 else normal_target(float(rng.uniform(-2, 2)), 2.0)
    q = VariationalDist(
        mu=[float(rng.uniform(-4, 2))],
        log_var=[float(rng.uniform(0.0, 3.5))],
        family=family,
        nu=10.0,
    )
    return target, q


def gradient_fd_cases(seed: int = 0):
    """``gradient_from_noise`` (the step ``rdvi.fit`` takes) vs central
    differences of ``replay_objective`` (the loss it records), with the base
    noise replayed.

    Cycles through every objective ``fit`` can run: alpha = 0.5
    (sign-flipped), alpha = 1 in both KL directions, alpha = 1.5, 2, 5 and 11;
    with seven objectives and alternating families, 14 cases run each
    objective on both families.  Three more cases check the score-function
    step ``bnn.fit_bnn`` takes, at alpha = 2, 11 and 0.5 (see
    ``_score_step_case``).
    """
    objectives = [(0.5, "exclusive"), (1.0, "exclusive"), (1.0, "inclusive"),
                  (1.5, "exclusive"), (2.0, "exclusive"), (5.0, "exclusive"),
                  (11.0, "exclusive")]
    gmm = make_gmm_target(four_mode_gmm_spec())
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF00D]))
    cases = []
    for i in range(14):
        alpha, kl = objectives[i % len(objectives)]
        config = OptimizerConfig(alpha=alpha, kl_direction=kl)
        target, q = _random_case(rng, i, gmm)
        eps = _base_noise(q, rng, 64)
        grad = np.concatenate(gradient_from_noise(q, target, config, eps))
        name = f"case {i}: {q.family} alpha={alpha:g}" + (f" {kl}" if alpha == 1.0 else "")
        cases.append(
            _fd_case(name, q, grad, lambda qq: replay_objective(qq, target, config, eps))
        )
    for i, alpha in enumerate((2.0, 11.0, 0.5)):
        cases.append(_score_step_case(rng, i, alpha, gmm))
    return cases


def _score_step_case(rng, i, alpha, target):
    """``rdvi._score_step`` on the weights of ``rdvi._loss_and_sample_weights``,
    the composition ``bnn.fit_bnn`` runs, vs central differences of
    theta -> fac * sum_s m_s log q_theta(delta_s), with the samples delta and
    the softmax weights m = softmax(alpha * h), h = -L, held fixed, on a
    Gaussian q; fac is 1 - alpha above 1 and -1 below."""
    q = VariationalDist(mu=[float(rng.uniform(-4, 2))], log_var=[float(rng.uniform(0.0, 3.5))])
    eps = _base_noise(q, rng, 64)
    points = points_from_noise(q, eps)
    h = -batch_from_points(q, target, points).L_vals
    c = _loss_and_sample_weights(alpha, h, "exclusive")[1]
    grad = _score_step(alpha, c, eps, q.sigma, np.empty_like(eps))
    m = np.exp(alpha * h - logsumexp(alpha * h))
    fac = (1.0 - alpha) if alpha > 1.0 else -1.0

    def loss(qq):
        return fac * float(m @ log_q(qq, points))

    return _fd_case(f"score-function step {i}: {q.family} alpha={alpha:g}", q, grad, loss)
