import math
from dataclasses import replace

import numpy as np
import pytest

from alphadrs import (
    GAUSSIAN,
    STUDENT_T,
    OptimizerConfig,
    ValidationError,
    VariationalDist,
    draw_batch,
    fit,
    gradient_from_noise,
    quadrature_renyi_1d,
    replay_objective,
)
from alphadrs.distributions import (
    TargetDensity,
    _base_noise,
    eval_grad_log_unnorm,
    eval_log_unnorm,
    log_q,
)
from alphadrs.oracles import dist_target, gradient_fd_cases, normal_target
from alphadrs.cli import _trace_lines
from alphadrs.rdvi import _STEP_SIZE, GradientError, _Adam, _loss_and_sample_weights


def gauss(mu, scale):
    return VariationalDist(mu=[mu], log_var=[2 * math.log(scale)])


def differentiable(dim, log_unnorm, grad):
    """A target that the stage-1 fit accepts, built from log p~ and its gradient."""
    return TargetDensity(
        dim=dim, log_unnorm=log_unnorm, log_unnorm_and_grad=lambda pts: (log_unnorm(pts), grad(pts))
    )


def scaled_by_ten(target):
    """``target`` with p~ multiplied by 10: the same gradient, log p~ up by log 10."""
    return differentiable(
        target.dim,
        lambda pts: target.log_unnorm(pts) + math.log(10.0),
        lambda pts: target.log_unnorm_and_grad(pts)[1],
    )


def _reference_fit(target, init_q, config):
    """fit's step written out plainly: one Adam per parameter block, the points
    rebuilt from the noise and sigma recomputed from log_var.  Returns the
    losses and q after every step; finite losses only."""
    rng = np.random.default_rng(config.seed)
    mu, lv = init_q.mu.copy(), init_q.log_var.copy()
    adam_mu, adam_lv = (_Adam(x.shape) for x in (mu, lv))
    q, losses, states = init_q, [], []
    for _ in range(config.iterations):
        eps = _base_noise(q, rng, config.samples_per_step)
        sigma = np.exp(0.5 * q.log_var)
        points = q.mu + sigma * eps
        h = eval_log_unnorm(target, points) - log_q(q, points)
        g = eval_grad_log_unnorm(target, points, np.empty(len(points)))
        loss, c = _loss_and_sample_weights(config.alpha, h, config.kl_direction)
        losses.append(loss)
        mu = adam_mu.update(mu, c @ g, _STEP_SIZE)
        lv = adam_lv.update(lv, c @ (g * (0.5 * sigma * eps) + 0.5), _STEP_SIZE)
        q = replace(q, mu=mu, log_var=lv)
        states.append(q)
    return np.array(losses), states


def objective(alpha, batch):
    """The loss ``fit`` records for this batch's log weights."""
    return _loss_and_sample_weights(alpha, -batch.L_vals, "exclusive")[0]


class TestObjective:
    def test_exact_match_gives_zero(self, rng):
        q = gauss(0.4, 1.3)
        b = draw_batch(q, dist_target(q), rng, 500)
        for alpha in (0.5, 2.0, 7.0):
            assert objective(alpha, b) == pytest.approx(0.0, abs=1e-10)

    def test_constant_ratio(self, rng):
        # p~ = c q makes the objective alpha log c regardless of the draw
        q = gauss(-1.0, 0.8)
        c = 2.5
        target = TargetDensity(
            dim=1,
            log_unnorm=lambda pts: np.asarray(
                dist_target(q).log_unnorm(pts) + math.log(c)
            ),
        )
        b = draw_batch(q, target, rng, 200)
        assert objective(3.0, b) == pytest.approx(3.0 * math.log(c), abs=1e-9)

    def test_matches_quadrature_log_moment(self, rng):
        # log E_q (p/q)^alpha = (alpha-1) D_alpha for normalized densities
        target = normal_target(0.0, 1.0)
        q = gauss(1.0, 1.0)
        b = draw_batch(q, target, rng, 100_000)
        quad = quadrature_renyi_1d(
            lambda x: -0.5 * (x**2 + math.log(2 * math.pi)),
            lambda x: -0.5 * ((x - 1.0) ** 2 + math.log(2 * math.pi)),
            2.0,
            (-14, 15, 120_001),
        )
        assert objective(2.0, b) == pytest.approx((2.0 - 1.0) * quad, abs=0.05)


class TestGradient:
    def test_stationary_at_symmetric_optimum(self):
        target = normal_target(0.0, 1.0)
        q = gauss(0.0, 1.0)
        eps = _base_noise(q, np.random.default_rng(0), 100_000)
        d_mu, d_lv = gradient_from_noise(q, target, OptimizerConfig(alpha=2.0), eps)
        # at the exact optimum the pathwise gradient is O(1/sqrt(S)) noise
        assert abs(d_mu[0]) < 0.02
        assert abs(d_lv[0]) < 0.02

    def test_matches_finite_differences(self):
        for case in gradient_fd_cases(seed=3):
            assert case.rel_error < 1e-4, case.name

    def test_fit_step_matches_finite_differences(self):
        cases = gradient_fd_cases(seed=4)
        # every objective fit runs, on both families, plus the three score-function steps
        pathwise = [c.name.split(": ")[1] for c in cases if c.name.startswith("case")]
        assert sorted(pathwise) == sorted(
            f"{family} alpha={a}"
            for family in (GAUSSIAN, STUDENT_T)
            for a in ("0.5", "1 exclusive", "1 inclusive", "1.5", "2", "5", "11")
        )
        assert len(cases) == len(pathwise) + 3
        for case in cases:
            assert case.rel_error < 1e-4, case.name

    def test_target_without_gradient_rejected(self, rng):
        # a target with no log_unnorm_and_grad cannot be fitted; the error names it
        q = gauss(0.0, 1.0)
        target = dist_target(q)
        eps = _base_noise(q, rng, 16)
        with pytest.raises(ValidationError, match="log_unnorm_and_grad"):
            gradient_from_noise(q, target, OptimizerConfig(), eps)
        with pytest.raises(ValidationError, match="log_unnorm_and_grad"):
            fit(target, q, OptimizerConfig(iterations=5))

    def test_noise_of_the_wrong_shape_rejected(self, gmm_target):
        # (n, 1) noise against a 2-dim q used to broadcast into a "gradient"
        q = VariationalDist(mu=[0.0, 1.0], log_var=[0.0, 0.5])
        plane = differentiable(2, lambda pts: -0.5 * np.sum(pts**2, axis=1), lambda pts: -pts)
        eps = np.random.default_rng(0).standard_normal((16, 1))
        for replay in (gradient_from_noise, replay_objective):
            with pytest.raises(ValidationError, match=r"base_noise must have shape \(n, 2\)"):
                replay(q, plane, OptimizerConfig(), eps)

    def test_scaling_target_leaves_gradient_unchanged(self, gmm_target, rng):
        q = VariationalDist(mu=[-2.0], log_var=[2.0], family=STUDENT_T)
        eps = _base_noise(q, rng, 256)
        config = OptimizerConfig(alpha=2.0)
        g1 = gradient_from_noise(q, gmm_target, config, eps)
        g2 = gradient_from_noise(q, scaled_by_ten(gmm_target), config, eps)
        np.testing.assert_allclose(g1[0], g2[0], rtol=1e-12)
        np.testing.assert_allclose(g1[1], g2[1], rtol=1e-12)

    @pytest.mark.parametrize(
        "alpha,kl", [(0.5, "exclusive"), (1.0, "exclusive"), (1.0, "inclusive"),
                     (2.0, "exclusive"), (11.0, "exclusive")]
    )
    def test_is_the_step_fit_takes(self, gmm_target, alpha, kl):
        # one fit iteration records replay_objective and steps Adam by
        # gradient_from_noise, on the noise fit drew
        init = VariationalDist(mu=[-1.0], log_var=[math.log(20.0)], family=STUDENT_T)
        config = OptimizerConfig(iterations=1, alpha=alpha, seed=4, kl_direction=kl)
        trace = fit(gmm_target, init, config)
        eps = _base_noise(init, np.random.default_rng(config.seed), config.samples_per_step)
        assert trace.objective[0] == replay_objective(init, gmm_target, config, eps)
        adam = _Adam((2,))
        theta = adam.update(
            np.concatenate([init.mu, init.log_var]),
            np.concatenate(gradient_from_noise(init, gmm_target, config, eps)),
            _STEP_SIZE,
        )
        assert np.array_equal(trace.final.mu, theta[:1])
        assert np.array_equal(trace.final.log_var, theta[1:])

    def test_nonfinite_gradient_names_sample(self, rng):
        bad = differentiable(
            1, lambda pts: np.zeros(pts.shape[0]), lambda pts: np.where(pts > 0.8, np.nan, 0.0)
        )
        q = gauss(0.0, 1.0)
        eps = _base_noise(q, rng, 64)
        with pytest.raises(GradientError, match="sample"):
            gradient_from_noise(q, bad, OptimizerConfig(alpha=2.0), eps)

    def test_fit_names_the_sample_of_a_nonfinite_gradient(self):
        bad = differentiable(
            1, lambda pts: np.zeros(pts.shape[0]), lambda pts: np.where(pts > 0.8, np.nan, 0.0)
        )
        config = OptimizerConfig(iterations=5, alpha=2.0, seed=0)
        with pytest.raises(GradientError, match=r"sample \d+ at x="):
            fit(bad, gauss(0.0, 1.0), config)

    def test_pooled_unbiasedness(self, gmm_target):
        # average of per-seed gradients vs the gradient of the pooled batch
        q = VariationalDist(mu=[-3.0], log_var=[math.log(30.0)], family=STUDENT_T)
        config = OptimizerConfig(alpha=2.0)
        grads, noises = [], []
        for seed in range(50):
            eps = _base_noise(q, np.random.default_rng(seed), 100)
            noises.append(eps)
            d_mu, d_lv = gradient_from_noise(q, gmm_target, config, eps)
            grads.append(np.concatenate([d_mu, d_lv]))
        grads = np.array(grads)
        pooled_mu, pooled_lv = gradient_from_noise(q, gmm_target, config, np.vstack(noises))
        pooled = np.concatenate([pooled_mu, pooled_lv])
        se = grads.std(axis=0, ddof=1) / math.sqrt(len(grads))
        np.testing.assert_array_less(np.abs(grads.mean(axis=0) - pooled), 3 * se + 1e-12)


class TestLossBranches:
    def test_alpha_one_exclusive_is_mean(self):
        h = np.array([0.5, -1.0, 2.0])
        loss, c = _loss_and_sample_weights(1.0, h, "exclusive")
        assert loss == pytest.approx(-h.mean())
        np.testing.assert_allclose(c, -np.ones(3) / 3)

    def test_alpha_one_inclusive_is_weighted_covariance(self):
        h = np.array([0.5, -1.0, 2.0, 0.1])
        loss, c = _loss_and_sample_weights(1.0, h, "inclusive")
        w = np.exp(h) / np.exp(h).sum()
        expected_loss = float(np.sum(w * h) - (np.log(np.mean(np.exp(h)))))
        assert loss == pytest.approx(expected_loss)
        np.testing.assert_allclose(c, w * (h - np.sum(w * h)), rtol=1e-12)

    def test_alpha_below_one_sign_flip(self):
        h = np.array([0.2, -0.4, 1.0])
        loss, c = _loss_and_sample_weights(0.5, h, "exclusive")
        assert loss < 0 or loss == pytest.approx(
            (np.log(np.mean(np.exp(0.5 * h)))) / (0.5 - 1.0)
        )
        assert np.all(c <= 0)  # descent direction flipped for alpha < 1


class TestFit:
    def test_zero_iterations_returns_init(self, gmm_target):
        init = VariationalDist(mu=[1.0], log_var=[0.5])
        config = OptimizerConfig(iterations=0, alpha=2.0, seed=0)
        trace = fit(gmm_target, init, config)
        assert trace.final is init
        assert trace.objective.size == 0

    def test_recovers_gaussian_target(self):
        target = normal_target(3.0, 4.0)
        init = VariationalDist(mu=[0.0], log_var=[math.log(9.0)])
        config = OptimizerConfig(iterations=2500, alpha=2.0, seed=2)
        q = fit(target, init, config).final
        assert q.mu[0] == pytest.approx(3.0, abs=0.1)
        assert math.exp(0.5 * q.log_var[0]) == pytest.approx(2.0, abs=0.15)
        fitted_div = quadrature_renyi_1d(
            lambda x: -0.5 * ((x - 3.0) ** 2 / 4 + math.log(8 * math.pi)),
            lambda x: np.asarray(
                -0.5
                * ((x - q.mu[0]) ** 2 / math.exp(q.log_var[0]) + q.log_var[0]
                   + math.log(2 * math.pi))
            ),
            2.0,
            (-30, 36, 120_001),
        )
        assert fitted_div < 0.01

    def test_alpha_below_one_also_converges(self):
        target = normal_target(1.0, 1.0)
        init = VariationalDist(mu=[-1.0], log_var=[1.0])
        config = OptimizerConfig(iterations=1500, alpha=0.5, seed=4)
        q = fit(target, init, config).final
        assert q.mu[0] == pytest.approx(1.0, abs=0.15)

    def test_trace_length_and_checkpoints(self, gmm_target):
        # each step reads the target through one fused call on its samples
        calls = []

        def counted(points):
            calls.append(points.shape[0])
            return gmm_target.log_unnorm_and_grad(points)

        def unused(points):
            raise AssertionError("the fit reads log p~ only from log_unnorm_and_grad")

        target = replace(gmm_target, log_unnorm=unused, log_unnorm_and_grad=counted)
        init = VariationalDist(mu=[0.0], log_var=[math.log(25.0)], family=STUDENT_T)
        config = OptimizerConfig(iterations=125, alpha=2.0, seed=0)
        trace = fit(target, init, config)
        assert calls == [config.samples_per_step] * config.iterations
        assert trace.objective.shape == (125,)
        # every iterations // 10 steps, and the last step
        assert [it for it, _ in trace.checkpoints] == [*range(12, 121, 12), 125]

    def test_skipped_step_keeps_its_checkpoint(self):
        # log p~ is -inf everywhere on the 20th call only: the last step is
        # skipped, and its checkpoint still holds the unchanged q
        base = normal_target(1.0, 2.0)

        def target_failing_on_call_20():
            calls = []

            def log_unnorm(pts):
                calls.append(None)
                vals = base.log_unnorm(pts)
                return np.full_like(vals, -np.inf) if len(calls) == 20 else vals

            return differentiable(1, log_unnorm, lambda pts: base.log_unnorm_and_grad(pts)[1])

        init = gauss(0.0, 1.5)
        config = OptimizerConfig(iterations=20, alpha=2.0, seed=0)
        trace = fit(target_failing_on_call_20(), init, config)
        assert trace.objective[19] == -np.inf
        assert [it for it, _ in trace.checkpoints] == list(range(2, 21, 2))
        q19 = fit(target_failing_on_call_20(), init, replace(config, iterations=19)).final
        last = trace.checkpoints[-1][1]
        assert last is trace.final
        assert np.array_equal(last.mu, q19.mu) and np.array_equal(last.log_var, q19.log_var)
        assert _trace_lines(trace)[-1].startswith("20,-inf,")

    def test_gmm_objective_decreases_smoothed(self, gmm_target, fitted_gmm_q):
        init = VariationalDist(mu=[0.0], log_var=[math.log(25.0)], family=STUDENT_T)
        config = OptimizerConfig(iterations=2000, alpha=2.0, seed=7)
        trace = fit(gmm_target, init, config)
        kernel = np.full(100, 1 / 100)
        ma = np.convolve(trace.objective, kernel, mode="valid")
        half = ma[: len(ma) // 2]
        spread = half.max() - half.min()
        # compare at window-spaced points: SGD wiggles inside a window width
        coarse = half[::100]
        assert np.all(np.diff(coarse) <= 0.1 * spread + 1e-9)
        assert half[-1] < half[0] - 0.5 * spread

    def test_normalization_invariance_of_parameter_path(self, gmm_target):
        scaled = scaled_by_ten(gmm_target)
        init = VariationalDist(mu=[0.0], log_var=[math.log(25.0)], family=STUDENT_T)
        config = OptimizerConfig(iterations=300, alpha=2.0, seed=5)
        q1 = fit(gmm_target, init, config).final
        q2 = fit(scaled, init, config).final
        # the argmin path is invariant to the normalizer; float rounding of
        # the folded-in constant perturbs the softmax at the last ulp
        np.testing.assert_allclose(q1.mu, q2.mu, rtol=0, atol=1e-9)
        np.testing.assert_allclose(q1.log_var, q2.log_var, rtol=0, atol=1e-9)

    def test_objective_offset_under_scaling(self, gmm_target, rng):
        # objective shifts by exactly alpha log c under p~ -> c p~
        q = VariationalDist(mu=[-3.0], log_var=[math.log(40.0)], family=STUDENT_T)
        eps = _base_noise(q, rng, 500)
        scaled = scaled_by_ten(gmm_target)
        config = OptimizerConfig(alpha=2.0)
        f1 = replay_objective(q, gmm_target, config, eps)
        f2 = replay_objective(q, scaled, config, eps)
        assert f2 - f1 == pytest.approx(2.0 * math.log(10.0), abs=1e-9)

    @pytest.mark.parametrize(
        "alpha,kl", [(0.5, "exclusive"), (1.0, "exclusive"), (1.0, "inclusive"),
                     (2.0, "exclusive"), (11.0, "exclusive")]
    )
    def test_bit_identical_to_reference_loop(self, gmm_target, alpha, kl):
        m, v = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        plane = differentiable(
            2, lambda pts: -0.5 * np.sum((pts - m) ** 2 / v, axis=1), lambda pts: -(pts - m) / v
        )
        cases = [
            (gmm_target, VariationalDist(mu=[0.0], log_var=[math.log(25.0)], family=STUDENT_T)),
            (plane, VariationalDist(mu=[0.0, 0.5], log_var=[0.3, -0.2])),
        ]
        for target, init in cases:
            config = OptimizerConfig(iterations=150, alpha=alpha, seed=9, kl_direction=kl)
            trace = fit(target, init, config)
            ref_objective, ref_states = _reference_fit(target, init, config)
            assert np.array_equal(trace.objective, ref_objective)
            assert len(trace.checkpoints) == 10
            for it, q in [*trace.checkpoints, (150, trace.final)]:
                assert np.array_equal(q.mu, ref_states[it - 1].mu)
                assert np.array_equal(q.log_var, ref_states[it - 1].log_var)

    def test_invalid_configs(self):
        for field, value in [
            ("samples_per_step", 1), ("samples_per_step", 10.5), ("samples_per_step", True),
            ("iterations", -1), ("iterations", 2.5), ("iterations", True),
            ("seed", -1), ("seed", 1.5), ("alpha", -2.0),
        ]:
            with pytest.raises(ValidationError, match=field):
                OptimizerConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = OptimizerConfig(iterations=np.int64(3), samples_per_step=np.int32(4),
                                 seed=np.uint64(5))
        assert fit(normal_target(0.0, 1.0), gauss(0.0, 1.0), config).objective.shape == (3,)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be positive and finite"):
            OptimizerConfig(alpha=alpha)

    @pytest.mark.parametrize("family", [GAUSSIAN, STUDENT_T])
    def test_every_recorded_q_is_read_only_with_its_sigma(self, gmm_target, family):
        init = VariationalDist(mu=[-1.0], log_var=[math.log(20.0)], family=family, nu=7.0)
        trace = fit(gmm_target, init, OptimizerConfig(iterations=50, alpha=2.0, seed=3))
        for q in [q for _, q in trace.checkpoints] + [trace.final]:
            assert (q.family, q.nu) == (family, 7.0)
            assert np.array_equal(q.sigma, np.exp(0.5 * q.log_var))
            for arr in (q.mu, q.log_var, q.sigma):
                assert arr.shape == (1,) and not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_trace_csv_schema(self, gmm_target):
        init = VariationalDist(mu=[0.0], log_var=[0.0])
        config = OptimizerConfig(iterations=20, alpha=2.0, seed=0)
        trace = fit(gmm_target, init, config)
        lines = _trace_lines(trace)
        assert lines[0] == "iteration,objective,mu_0,log_var_0"
        assert len(lines) == 11
