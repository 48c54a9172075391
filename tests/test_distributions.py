import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import norm

import alphadrs
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
from alphadrs.distributions import (
    _MAX_BATCH,
    LOG_2PI,
    TargetDensity,
    _t_log_norm,
    eval_grad_log_unnorm,
    eval_log_unnorm,
    logsumexp,
    points_from_noise,
)
from alphadrs.oracles import normal_target
from conftest import peak_traced_bytes


def _row_major_gmm(spec):
    """(log p~, grad log p~) of the mixture in the point-major (n, K) layout:
    one row per point, reduced along its K-wide last axis."""
    log_w, means, variances = np.log(spec.weights), spec.means, spec.variances
    log_variances = np.log(variances)

    def log_components(x):
        d = x - means
        return log_w - 0.5 * (d**2 / variances + log_variances + LOG_2PI)

    def log_unnorm(x):
        return logsumexp(log_components(x), axis=1)

    def grad_log(x, terms=lambda t: t):
        comp = log_components(x)
        resp = np.exp(comp - logsumexp(comp, axis=1, keepdims=True))
        return np.sum(terms(resp * (-(x - means) / variances)), axis=1)[:, None]

    return log_unnorm, grad_log


def _random_spec_and_points(K, n, seed):
    """A random K-component mixture and n points: its means, two far tails at
    |x| ~ 1e3 (rotated by seed so n = 1, 2 see them too), then uniform draws."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(K))
    spec = GmmSpec(weights=w / w.sum(), means=rng.uniform(-20.0, 20.0, K),
                   variances=np.exp(rng.uniform(math.log(0.05), math.log(20.0), K)))
    special = np.roll(np.concatenate([spec.means, rng.uniform(1e3, 2e3, 2) * [-1, 1]]), seed)
    x = rng.uniform(-40.0, 40.0, n)
    m = min(n, special.size)
    x[:m] = special[:m]
    return spec, x[:, None]


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

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_component_is_absent(self):
        # a weight of 0 is a -inf log weight, taken without a divide warning
        means, variances = [-2.0, 1.0, 4.0], [0.5, 1.5, 2.0]
        three = make_gmm_target(GmmSpec([0.3, 0.7, 0.0], means, variances))
        two = make_gmm_target(GmmSpec([0.3, 0.7], means[:2], variances[:2]))
        x = np.linspace(-6.0, 8.0, 29)[:, None]
        np.testing.assert_array_equal(three.log_unnorm(x), two.log_unnorm(x))
        for got, want in zip(three.log_unnorm_and_grad(x), two.log_unnorm_and_grad(x)):
            np.testing.assert_array_equal(got, want)

    def test_normalized_by_quadrature(self, gmm_target):
        assert grid_integral(gmm_target.log_unnorm) == pytest.approx(1.0, abs=1e-6)

    def test_log_Z_zero(self, gmm_target):
        # log p~ is the normalized mixture's log density point by point
        spec = four_mode_gmm_spec()
        x = np.linspace(-16.0, 10.0, 27)
        pdf = sum(w * norm.pdf(x, m, math.sqrt(v))
                  for w, m, v in zip(spec.weights, spec.means, spec.variances))
        np.testing.assert_allclose(gmm_target.log_unnorm(x[:, None]), np.log(pdf), rtol=1e-12)

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
        for target in (gmm_target, normal_target(1.5, 2.0)):
            fd = (target.log_unnorm(x + h) - target.log_unnorm(x - h)) / (2 * h)
            np.testing.assert_allclose(
                target.log_unnorm_and_grad(x)[1][:, 0], fd, rtol=1e-6, atol=1e-8
            )


class TestComponentMajorKernel:
    """make_gmm_target against the point-major (n, K) reference."""

    @pytest.mark.parametrize("n", [1, 2, 100, 4096])
    @pytest.mark.parametrize("K", range(1, 8))
    def test_bit_identical_below_eight_components(self, K, n):
        for seed in range(10):
            spec, x = _random_spec_and_points(K, n, seed)
            target = make_gmm_target(spec)
            for ours, ref in zip((target.log_unnorm, lambda x: target.log_unnorm_and_grad(x)[1]),
                                 _row_major_gmm(spec)):
                got, want = ours(x), ref(x)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (K, n, seed)

    @pytest.mark.parametrize("K", [8, 9, 16])
    def test_pairwise_sums_move_values_by_ulps(self, K):
        for seed in range(10):
            spec, x = _random_spec_and_points(K, 4096, seed)
            target = make_gmm_target(spec)
            log_unnorm, grad_log = _row_major_gmm(spec)
            np.testing.assert_allclose(target.log_unnorm(x), log_unnorm(x), rtol=1e-13)
            # the gradient sums terms of both signs: its rounding is relative
            # to the sum of their magnitudes, not to the (cancelled) result
            err = np.abs(target.log_unnorm_and_grad(x)[1] - grad_log(x))
            assert np.all(err <= 1e-13 * grad_log(x, np.abs)), (K, seed)


class TestLogQ:
    def test_gaussian_at_mode(self):
        q = VariationalDist(mu=[0.0, 0.0], log_var=[0.0, 0.0])
        assert log_q(q, np.zeros((1, 2)))[0] == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_student_t_standard_at_zero(self):
        q = VariationalDist(mu=[0.0], log_var=[0.0], family=STUDENT_T, nu=10.0)
        expected = gammaln(5.5) - gammaln(5.0) - 0.5 * math.log(10 * math.pi)
        assert log_q(q, np.zeros((1, 1)))[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("family", [GAUSSIAN, STUDENT_T])
    def test_shift_invariance(self, family):
        c, d = 3.7, -1.2
        q0 = VariationalDist(mu=[0.0], log_var=[0.3], family=family)
        qc = VariationalDist(mu=[c], log_var=[0.3], family=family)
        assert log_q(qc, np.array([[c + d]]))[0] == pytest.approx(
            log_q(q0, np.array([[d]]))[0], rel=1e-12
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
            log_q(q, np.zeros((1, 3)))

    def test_batch_evaluation_matches_single(self, rng):
        q = VariationalDist(mu=[1.0, -2.0], log_var=[0.1, 0.7], family=STUDENT_T)
        pts = rng.normal(size=(5, 2))
        batch = log_q(q, pts)
        singles = [log_q(q, p[None, :])[0] for p in pts]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)
        # one shape in: a lone (dim,) point is not a batch
        with pytest.raises(ValidationError, match="shape"):
            log_q(q, pts[0])

    @pytest.mark.parametrize("family,nu", [(GAUSSIAN, 10.0), (STUDENT_T, 10.0), (STUDENT_T, 2.5)])
    def test_bytes_of_the_expression(self, family, nu):
        # the in-place reduction keeps the expression's evaluation order
        rng = np.random.default_rng(11)
        q = VariationalDist(
            mu=rng.normal(size=9), log_var=rng.normal(size=9), family=family, nu=nu
        )
        x = 4.0 * rng.standard_t(3, size=(5000, 9))
        z = (x - q.mu) / q.sigma
        if family == GAUSSIAN:
            want = -0.5 * np.sum(z**2 + q.log_var + LOG_2PI, axis=1)
        else:
            want = np.sum(
                _t_log_norm(nu) - 0.5 * q.log_var - (nu + 1) / 2 * np.log1p(z**2 / nu), axis=1
            )
        assert log_q(q, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", [GAUSSIAN, STUDENT_T])
    def test_peak_memory_one_points_array(self, family):
        # a 4096-row chunk of P = 751 points is 24.6 MB; the terms are formed in
        # one buffer of that size (73.9 MB with the expression's temporaries)
        q = VariationalDist(mu=np.zeros(751), log_var=np.zeros(751), family=family)
        x = np.random.default_rng(12).normal(size=(4096, 751))
        vals, peak, _ = peak_traced_bytes(log_q, q, x)
        assert vals.shape == (4096,)
        assert peak <= x.nbytes + 4 * 8 * 4096


class TestLgamma:
    """The Student-t log normaliser, built from ``math.lgamma``."""

    @pytest.mark.parametrize(
        "nu, expected",
        [
            (1.0, -math.log(math.pi)),
            (2.0, -1.5 * math.log(2.0)),
            (3.0, math.log(2.0 / (math.pi * math.sqrt(3.0)))),
        ],
    )
    def test_closed_forms(self, nu, expected):
        # Gamma(1) / Gamma(1/2) = 1 / sqrt(pi), Gamma(3/2) = sqrt(pi) / 2, Gamma(2) = 1
        assert abs(_t_log_norm(nu) - expected) <= 4 * math.ulp(expected)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 3.0, 5.0, 10.0, 30.0, 1000.0])
    def test_t_log_norm_matches_gammaln(self, nu):
        # a difference of two ln Gamma values: a few ulp of the larger one
        expected = gammaln((nu + 1) / 2) - gammaln(nu / 2) - 0.5 * math.log(nu * math.pi)
        tol = 4 * np.finfo(float).eps * max(1.0, abs(gammaln((nu + 1) / 2)))
        assert abs(_t_log_norm(nu) - expected) <= tol

    def test_import_loads_no_scipy(self):
        src = str(Path(alphadrs.__file__).resolve().parents[1])
        # scipy is a test-only dependency: neither the import nor a divergence-check run loads it
        code = "\n".join([
            f"import sys; sys.path.insert(0, {src!r})",
            "import contextlib, io",
            "import alphadrs, alphadrs.cli, alphadrs.bnn",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert alphadrs.cli.main(['divergence-check']) == 0",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        assert out.stdout.strip() == "[]"


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
        for S in (0, -3, 2.5, True, "3"):
            with pytest.raises(ValidationError, match="S must be an integer >= 1"):
                sample_reparam(q, rng, S)
        assert sample_reparam(q, rng, np.int64(3))[0].shape == (3, 1)

    def test_mu_shift_replays_exactly(self, rng):
        # from mu=0 the shifted draw is bitwise mu + the base draw
        delta = 0.37
        q0 = VariationalDist(mu=[0.0], log_var=[0.52], family=STUDENT_T)
        _, eps = sample_reparam(q0, rng, 200)
        base = points_from_noise(q0, eps)
        shifted = points_from_noise(dataclasses.replace(q0, mu=np.array([delta])), eps)
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
        moved = points_from_noise(dataclasses.replace(q, mu=np.array([mu + delta])), eps)
        np.testing.assert_allclose(
            moved, points_from_noise(q, eps) + delta, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("shape", [(8, 1), (8,), (8, 3), (2, 8, 2)])
    def test_noise_of_the_wrong_shape_rejected(self, shape):
        # (8, 1) noise would broadcast against a 2-dim q without complaint
        q = VariationalDist(mu=[0.0, 1.0], log_var=[0.0, 0.5])
        with pytest.raises(ValidationError, match=r"base_noise must have shape \(n, 2\)"):
            points_from_noise(q, np.zeros(shape))

    def test_one_array_with_the_expression_bytes(self):
        # mu + (sigma * noise) with the sum in place: 6.0 MB for 1000 x 751
        # points, 12.0 MB when the product was a temporary
        q = VariationalDist(mu=np.linspace(-1.0, 1.0, 751), log_var=np.linspace(-2.0, 2.0, 751))
        eps = np.random.default_rng(13).standard_t(10, size=(1000, 751))
        points, peak, _ = peak_traced_bytes(points_from_noise, q, eps)
        assert points.tobytes() == (q.mu + q.sigma * eps).tobytes()
        assert peak <= eps.nbytes + 64 * 1024

    def test_smooth_in_scale(self):
        q = VariationalDist(mu=[0.0], log_var=[0.0])
        _, eps = sample_reparam(q, np.random.default_rng(3), 50)
        lv = np.array([1e-7])
        bumped = points_from_noise(dataclasses.replace(q, log_var=lv), eps)
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

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text("weights = 1.0\nmeans = 0\nvariances = 1\nmeans = 5\n")
        with pytest.raises(ValidationError, match=r"mix\.cfg:4: duplicate key 'means'"):
            gmm_spec_from_file(cfg)

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

    def test_directory_is_not_a_config(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            gmm_spec_from_file(tmp_path)


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

    @pytest.mark.parametrize("nu", [np.inf, np.nan])
    def test_nonfinite_nu_rejected(self, nu):
        with pytest.raises(ValidationError, match=f"nu must be positive and finite, got {nu}"):
            VariationalDist(mu=[0.0], log_var=[0.0], family=STUDENT_T, nu=nu)

    def test_sigma_is_read_only_and_follows_replace(self):
        q = VariationalDist(mu=[0.0, 3.0], log_var=[-1.0, 2.0], family=STUDENT_T)
        for q2, log_var in (
            (q, np.array([-1.0, 2.0])),
            (dataclasses.replace(q, log_var=[0.7, -2.5]), np.array([0.7, -2.5])),
            (dataclasses.replace(q, mu=[1.0, 1.0]), np.array([-1.0, 2.0])),
        ):
            assert np.array_equal(q2.sigma, np.exp(0.5 * log_var))
            assert not q2.sigma.flags.writeable
            with pytest.raises(ValueError):
                q2.sigma[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.sigma = np.ones(2)

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

    def test_sliced_nan_names_row_in_full_batch(self):
        points = np.zeros((50, 2))
        points[37] = [2.5, -1.0]
        target = dataclasses.replace(self._target(np.nan), max_batch=16)
        with pytest.raises(ValidationError, match=r"row 37, point \[2\.5, -1\.0\]"):
            eval_log_unnorm(target, points)

    def test_slice_of_wrong_shape_rejected(self):
        def log_unnorm(points):
            vals = -0.5 * np.sum(points**2, axis=1)
            return vals[:-1] if points.shape[0] < 16 else vals

        target = TargetDensity(dim=2, log_unnorm=log_unnorm, max_batch=16)
        with pytest.raises(ValidationError, match=r"rows 32:40"):
            eval_log_unnorm(target, np.zeros((40, 2)))

    @pytest.mark.parametrize("max_batch", [1, 3, 16, 49, 50, 1000, None])  # None: the default
    def test_slices_bounded_and_values_unchanged(self, rng, max_batch):
        sizes = []

        def log_unnorm(points):
            sizes.append(points.shape[0])
            return -0.5 * np.sum(points**2, axis=1)

        points = rng.standard_normal((49, 2))
        declared = {} if max_batch is None else {"max_batch": max_batch}
        target = TargetDensity(dim=2, log_unnorm=log_unnorm, **declared)
        vals = eval_log_unnorm(target, points)
        np.testing.assert_array_equal(vals, -0.5 * np.sum(points**2, axis=1))
        assert sum(sizes) == 49
        assert max(sizes) == min(49, target.max_batch)

    def test_max_batch_defaults_to_4096(self):
        assert TargetDensity(dim=1, log_unnorm=lambda p: p[:, 0]).max_batch == 4096

    def test_max_batch_capped_at_4096(self):
        target = TargetDensity(dim=1, log_unnorm=lambda p: p[:, 0], max_batch=10**6)
        assert target.max_batch == 4096
        assert dataclasses.replace(target, max_batch=10**6).max_batch == 4096

    def test_default_target_sliced_at_4096_rows(self, rng):
        sizes = []

        def log_unnorm(points):
            sizes.append(points.shape[0])
            return -0.5 * np.sum(points**2, axis=1)

        points = rng.standard_normal((10**4, 2))
        vals = eval_log_unnorm(TargetDensity(dim=2, log_unnorm=log_unnorm), points)
        assert sizes == [4096, 4096, 1808]
        assert vals.tobytes() == log_unnorm(points).tobytes()

    @pytest.mark.parametrize("max_batch", [0, -4, 2.5, True, "8", None])
    def test_invalid_max_batch_rejected(self, max_batch):
        with pytest.raises(ValidationError, match="max_batch"):
            TargetDensity(dim=1, log_unnorm=lambda p: p[:, 0], max_batch=max_batch)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True, "3", np.float64(2.0)])
    def test_invalid_dim_rejected(self, dim):
        # 2.5 used to build a 2-dim target, '3' a 3-dim one and True a 1-dim one
        with pytest.raises(ValidationError, match="dim must be an integer >= 1"):
            TargetDensity(dim=dim, log_unnorm=lambda p: p[:, 0])

    def test_numpy_integers_accepted(self):
        target = TargetDensity(dim=np.int64(2), log_unnorm=lambda p: p[:, 0],
                               max_batch=np.int32(4))
        vals = eval_log_unnorm(target, np.arange(20.0).reshape(10, 2))
        np.testing.assert_array_equal(vals, np.arange(0.0, 20.0, 2.0))

    def test_mixture_slices_give_the_unsliced_bytes(self, gmm_target):
        # each point reduces over its own components, so 245 slices of 4096
        # rows give the values of one whole-batch call
        assert gmm_target.max_batch == _MAX_BATCH  # refine sees one slice per chunk
        q = VariationalDist(mu=[-2.7], log_var=[4.14], family=STUDENT_T, nu=10.0)
        points, _ = sample_reparam(q, np.random.default_rng(5), 10**6)
        sliced = eval_log_unnorm(gmm_target, points)
        whole = gmm_target.log_unnorm(points)
        assert sliced.tobytes() == whole.tobytes()

    def test_max_batch_leaves_the_fused_callable_unsliced(self, gmm_target):
        # max_batch bounds log_unnorm only; the stage-1 step's rows go to the
        # fused callable in one call
        rows = []

        def fused(points):
            rows.append(points.shape[0])
            return gmm_target.log_unnorm_and_grad(points)

        target = dataclasses.replace(gmm_target, log_unnorm_and_grad=fused, max_batch=8)
        points = np.linspace(-15.0, 9.0, 100)[:, None]
        log_p = np.empty(100)
        g = eval_grad_log_unnorm(target, points, log_p)
        assert rows == [100]
        expected_log_p, expected_g = gmm_target.log_unnorm_and_grad(points)
        assert np.array_equal(log_p, expected_log_p) and np.array_equal(g, expected_g)


class TestFusedLogUnnormAndGrad:
    POINTS = TestEvalLogUnnorm.POINTS

    @staticmethod
    def _target(fused):
        def unused(points):
            raise AssertionError("the fused path calls only log_unnorm_and_grad")

        return TargetDensity(dim=2, log_unnorm=unused, log_unnorm_and_grad=fused)

    @staticmethod
    def _values_and_grad(points):
        return -0.5 * np.sum(points**2, axis=1), -points

    def test_fills_log_p_out_and_returns_the_gradient(self):
        target = self._target(self._values_and_grad)
        log_p = np.empty(4)
        g = eval_grad_log_unnorm(target, self.POINTS, log_p_out=log_p)
        np.testing.assert_array_equal(log_p, [-0.125, -0.625, -3.125, -4.5])
        np.testing.assert_array_equal(g, -self.POINTS)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_nan_and_pos_inf_rejected_with_row_and_point(self, bad_value):
        def fused(points):
            vals, g = self._values_and_grad(points)
            vals[points[:, 0] > 1.0] = bad_value
            return vals, g

        with pytest.raises(ValidationError, match=r"row 2, point \[1\.5, -2\.0\]"):
            eval_grad_log_unnorm(self._target(fused), self.POINTS, log_p_out=np.empty(4))

    def test_neg_inf_is_a_legal_zero_density(self):
        def fused(points):
            vals, g = self._values_and_grad(points)
            vals[points[:, 0] > 1.0] = -np.inf
            return vals, g

        log_p = np.empty(4)
        eval_grad_log_unnorm(self._target(fused), self.POINTS, log_p_out=log_p)
        np.testing.assert_array_equal(log_p, [-0.125, -0.625, -np.inf, -np.inf])

    def test_wrong_value_shape_rejected(self):
        def fused(points):
            vals, g = self._values_and_grad(points)
            return vals[:, None], g

        with pytest.raises(ValidationError, match=r"shape \(4, 1\) for rows 0:4, expected \(4,\)"):
            eval_grad_log_unnorm(self._target(fused), self.POINTS, log_p_out=np.empty(4))

    def test_wrong_gradient_shape_rejected(self):
        def fused(points):
            vals, g = self._values_and_grad(points)
            return vals, g[:, :1]

        with pytest.raises(ValidationError, match=r"shape \(4, 1\), expected \(4, 2\)"):
            eval_grad_log_unnorm(self._target(fused), self.POINTS, log_p_out=np.empty(4))

    def test_wrong_dimension_rejected(self):
        target = self._target(self._values_and_grad)
        with pytest.raises(ValidationError, match="dimension 3, target expects 2"):
            eval_grad_log_unnorm(target, np.zeros((4, 3)), log_p_out=np.empty(4))

    def test_mixture_agrees_with_its_separate_callables(self, rng):
        # the fit reads log p~ from the fused callable, refinement from log_unnorm
        target = make_gmm_target(four_mode_gmm_spec())
        points = rng.uniform(-20.0, 15.0, (300, 1))
        log_p, g = target.log_unnorm_and_grad(points)
        assert np.array_equal(log_p, target.log_unnorm(points))
        assert g.shape == points.shape
