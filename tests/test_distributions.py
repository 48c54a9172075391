import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import norm

from alphadrs import (
    GAUSSIAN,
    STUDENT_T,
    GmmSpec,
    ValidationError,
    VariationalDist,
    four_mode_gmm_spec,
    gmm_spec_from_file,
    log_q,
    make_gmm_target,
    sample_reparam,
)
from alphadrs.distributions import TargetDensity, eval_log_unnorm, points_from_noise


def grid_integral(log_density_1d, lo=-20.0, hi=20.0, n=100_001):
    """Trapezoid quadrature of exp(log f) on a uniform grid."""
    x = np.linspace(lo, hi, n)
    return np.trapezoid(np.exp(log_density_1d(x[:, None])), x)


class TestGmmTarget:
    def test_benchmark_density_at_zero(self, gmm_target):
        # at x=0 the component at 0 dominates; the others are ~1e-12 relative
        val = np.exp(gmm_target.log_unnorm(np.array([[0.0]])))[0]
        assert val == pytest.approx(0.25 * norm.pdf(0.0, 0.0, math.sqrt(0.64)), rel=1e-9)

    def test_single_component_standard_normal(self):
        target = make_gmm_target(GmmSpec(weights=[1.0], means=[0.0], variances=[1.0]))
        assert target.log_unnorm(np.array([[0.0]]))[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_normalized_by_quadrature(self, gmm_target):
        assert grid_integral(gmm_target.log_unnorm) == pytest.approx(1.0, abs=1e-6)

    def test_log_Z_zero(self, gmm_target):
        assert gmm_target.log_Z == 0.0

    def test_means_are_local_maxima(self, gmm_target):
        spec = four_mode_gmm_spec()
        h = 1e-3
        for m in spec.means:
            triple = gmm_target.log_unnorm(np.array([[m - h], [m], [m + h]]))
            assert triple[1] > triple[0] and triple[1] > triple[2]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValidationError):
            GmmSpec(weights=[0.5, 0.6], means=[0.0, 1.0], variances=[1.0, 1.0])
        with pytest.raises(ValidationError):
            GmmSpec(weights=[0.5, 0.5], means=[0.0, 1.0], variances=[1.0, -1.0])
        with pytest.raises(ValidationError):
            GmmSpec(weights=[1.0], means=[np.inf], variances=[1.0])

    def test_analytic_gradient_matches_fd(self, gmm_target):
        x = np.array([[-11.3], [-3.0], [0.4], [5.9], [9.0]])
        h = 1e-6
        fd = (gmm_target.log_unnorm(x + h) - gmm_target.log_unnorm(x - h)) / (2 * h)
        np.testing.assert_allclose(
            gmm_target.grad_log_unnorm(x)[:, 0], fd, rtol=1e-6, atol=1e-8
        )


class TestLogQ:
    def test_gaussian_at_mode(self):
        q = VariationalDist(mu=[0.0, 0.0], log_var=[0.0, 0.0])
        assert log_q(q, np.zeros(2)) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_student_t_standard_at_zero(self):
        q = VariationalDist(mu=[0.0], log_var=[0.0], family=STUDENT_T, nu=10.0)
        expected = gammaln(5.5) - gammaln(5.0) - 0.5 * math.log(10 * math.pi)
        assert log_q(q, np.zeros(1)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("family", [GAUSSIAN, STUDENT_T])
    def test_shift_invariance(self, family):
        c, d = 3.7, -1.2
        q0 = VariationalDist(mu=[0.0], log_var=[0.3], family=family)
        qc = VariationalDist(mu=[c], log_var=[0.3], family=family)
        assert log_q(qc, np.array([c + d])) == pytest.approx(
            log_q(q0, np.array([d])), rel=1e-12
        )

    @pytest.mark.parametrize("family", [GAUSSIAN, STUDENT_T])
    def test_density_normalized(self, family):
        q = VariationalDist(mu=[0.5], log_var=[0.4], family=family)
        assert grid_integral(lambda pts: log_q(q, pts), -40, 41, 200_001) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_dimension_mismatch(self):
        q = VariationalDist(mu=[0.0, 1.0], log_var=[0.0, 0.0])
        with pytest.raises(ValidationError):
            log_q(q, np.zeros(3))

    def test_batch_evaluation_matches_single(self, rng):
        q = VariationalDist(mu=[1.0, -2.0], log_var=[0.1, 0.7], family=STUDENT_T)
        pts = rng.normal(size=(5, 2))
        batch = log_q(q, pts)
        singles = [log_q(q, p) for p in pts]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)


class TestSampleReparam:
    def test_degenerate_scale_collapses_to_mu(self, rng):
        q = VariationalDist(mu=[2.5], log_var=[-50.0])
        points, _ = sample_reparam(q, rng, 100)
        np.testing.assert_allclose(points, 2.5, atol=1e-9)

    @pytest.mark.parametrize("family", [GAUSSIAN, STUDENT_T])
    def test_fixed_seed_is_deterministic(self, family):
        q = VariationalDist(mu=[0.0], log_var=[0.0], family=family)
        p1, n1 = sample_reparam(q, np.random.default_rng(7), 3)
        p2, n2 = sample_reparam(q, np.random.default_rng(7), 3)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(n1, n2)

    def test_sample_mean_concentrates(self):
        # CLT: 3 sigma/sqrt(S) ~ 0.0095, tolerance doubled
        q = VariationalDist(mu=[2.0], log_var=[0.0])
        points, _ = sample_reparam(q, np.random.default_rng(11), 100_000)
        assert abs(points.mean() - 2.0) < 0.02

    def test_invalid_count(self, rng):
        q = VariationalDist(mu=[0.0], log_var=[0.0])
        with pytest.raises(ValidationError):
            sample_reparam(q, rng, 0)

    def test_mu_shift_replays_exactly(self, rng):
        # from mu=0 the shifted draw is bitwise mu + the base draw
        delta = 0.37
        q0 = VariationalDist(mu=[0.0], log_var=[0.52], family=STUDENT_T)
        _, eps = sample_reparam(q0, rng, 200)
        base = points_from_noise(q0, eps)
        shifted = points_from_noise(q0.replace(mu=np.array([delta])), eps)
        np.testing.assert_array_equal(shifted, base + delta)

    @given(
        mu=st.floats(-5, 5),
        delta=st.floats(-3, 3),
        log_var=st.floats(-2, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_mu_shift_property(self, mu, delta, log_var, seed):
        q = VariationalDist(mu=[mu], log_var=[log_var])
        _, eps = sample_reparam(q, np.random.default_rng(seed), 8)
        moved = points_from_noise(q.replace(mu=np.array([mu + delta])), eps)
        np.testing.assert_allclose(
            moved, points_from_noise(q, eps) + delta, rtol=0, atol=1e-12
        )

    def test_smooth_in_scale(self):
        q = VariationalDist(mu=[0.0], log_var=[0.0])
        _, eps = sample_reparam(q, np.random.default_rng(3), 50)
        lv = np.array([1e-7])
        bumped = points_from_noise(q.replace(log_var=lv), eps)
        np.testing.assert_allclose(bumped, points_from_noise(q, eps), atol=1e-6)


class TestSpecFile:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text(
            "# benchmark mixture\n"
            "weights = 0.25, 0.25, 0.25, 0.25\n"
            "means = -12, -6, 0, 6\n"
            "variances = 0.64, 0.64, 0.64, 0.64\n"
        )
        spec = gmm_spec_from_file(cfg)
        ref = four_mode_gmm_spec()
        np.testing.assert_array_equal(spec.weights, ref.weights)
        np.testing.assert_array_equal(spec.means, ref.means)
        np.testing.assert_array_equal(spec.variances, ref.variances)

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text("weights = 1.0\nmeans = 0\n")
        with pytest.raises(ValidationError, match="missing"):
            gmm_spec_from_file(cfg)

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text("weights = 1.0\nmeans = zero\nvariances = 1\n")
        with pytest.raises(ValidationError, match="non-numeric"):
            gmm_spec_from_file(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            gmm_spec_from_file(tmp_path / "absent.cfg")


class TestVariationalDistInvariants:
    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValidationError):
            VariationalDist(mu=[np.nan], log_var=[0.0])
        with pytest.raises(ValidationError):
            VariationalDist(mu=[0.0], log_var=[np.inf])

    def test_bad_family_and_nu(self):
        with pytest.raises(ValidationError):
            VariationalDist(mu=[0.0], log_var=[0.0], family="cauchy")
        with pytest.raises(ValidationError):
            VariationalDist(mu=[0.0], log_var=[0.0], family=STUDENT_T, nu=0.0)

    def test_sampled_log_q_finite(self, rng):
        for family in (GAUSSIAN, STUDENT_T):
            q = VariationalDist(mu=[0.0, 3.0], log_var=[-1.0, 2.0], family=family)
            points, _ = sample_reparam(q, rng, 64)
            assert np.all(np.isfinite(log_q(q, points)))


class TestEvalLogUnnorm:
    @staticmethod
    def _target(bad_value):
        def log_unnorm(points):
            vals = -0.5 * np.sum(points**2, axis=1)
            vals[points[:, 0] > 1.0] = bad_value
            return vals

        return TargetDensity(dim=2, log_unnorm=log_unnorm)

    POINTS = np.array([[0.0, 0.5], [0.5, 1.0], [1.5, -2.0], [3.0, 0.0]])

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_nan_and_pos_inf_rejected_with_row_and_point(self, bad_value):
        with pytest.raises(ValidationError, match=r"row 2, point \[1\.5, -2\.0\]"):
            eval_log_unnorm(self._target(bad_value), self.POINTS)

    def test_neg_inf_is_a_legal_zero_density(self):
        vals = eval_log_unnorm(self._target(-np.inf), self.POINTS)
        np.testing.assert_array_equal(vals, [-0.125, -0.625, -np.inf, -np.inf])
