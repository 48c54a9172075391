import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from alphadrs import OptimizerConfig, ValidationError, VariationalDist, sample_reparam
from alphadrs import bnn as bnn_module
from alphadrs.bnn import (
    BnnModel,
    DatasetError,
    RegressionDataset,
    bundled_dataset_path,
    evaluate,
    fit_bnn,
    load_dataset,
    log_p_tilde_weights,
    refine_bnn,
    train_test_split,
    _ACTIVATION_BYTES,
    _GradWorkspace,
    _full_data_target,
    _log_p_tilde_grad,
)
from alphadrs.distributions import LOG_2PI, TargetDensity, logsumexp
from alphadrs.drs import RefinementConfig, pilot_threshold, refine
from alphadrs.rdvi import (
    _STEP_SIZE,
    FitDivergenceError,
    FitTrace,
    _Adam,
    _loss_and_sample_weights,
)


def make_linear_data(n=200, slope=2.0, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = slope * x + noise * rng.standard_normal(n)
    return RegressionDataset(features=x[:, None], targets=y)


def _split_rows(raw, rng):
    """(test rows, train rows) of raw that train_test_split draws from ``rng``."""
    perm = rng.permutation(raw.n)
    n_test = max(1, round(raw.n * 0.1))
    return perm[:n_test], perm[n_test:]


class TestLoadDataset:
    def test_small_file_roundtrip(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
        ds = load_dataset(f)
        np.testing.assert_array_equal(ds.features, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(ds.targets, [3, 6, 9])

    def test_whitespace_separated(self, tmp_path):
        f = tmp_path / "toy.dat"
        f.write_text("1 2 3\n4  5\t6\n")
        ds = load_dataset(f)
        np.testing.assert_array_equal(ds.targets, [3, 6])
        np.testing.assert_array_equal(ds.features, [[1, 2], [4, 5]])

    def test_non_numeric_cell_reported(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3,x\n")
        with pytest.raises(DatasetError, match=r"row 2, column 2"):
            load_dataset(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.csv")

    def test_directory_is_not_a_dataset(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path)

    def test_target_without_features_rejected(self, tmp_path):
        f = tmp_path / "one_column.csv"
        f.write_text("1\n2\n3\n")
        with pytest.raises(DatasetError, match="one_column.csv has no feature column"):
            load_dataset(f)

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1,2,3\n4,5\n")
        with pytest.raises(DatasetError, match="columns"):
            load_dataset(f)

    def test_boston_shape(self):
        ds = load_dataset(bundled_dataset_path("boston"))
        assert (ds.n, ds.dim) == (506, 13)

    def test_yacht_shape(self):
        # the yacht hydrodynamics table: 308 experiments, 6 hull descriptors
        ds = load_dataset(bundled_dataset_path("yacht"))
        assert (ds.n, ds.dim) == (308, 6)


class TestSplit:
    def test_standardization_roundtrip(self):
        raw = make_linear_data(seed=5)
        train, test = train_test_split(raw, np.random.default_rng(0))
        recovered = np.sort(
            np.concatenate(
                [train.destandardize_targets(train.targets),
                 test.destandardize_targets(test.targets)]
            )
        )
        np.testing.assert_allclose(recovered, np.sort(raw.targets), rtol=1e-12)

    def test_test_split_uses_train_stats(self):
        raw = make_linear_data(seed=6)
        train, test = train_test_split(raw, np.random.default_rng(1))
        assert train.y_mean == test.y_mean and train.y_std == test.y_std
        # the test features are standardized with the train rows' column stats
        te, tr = _split_rows(raw, np.random.default_rng(1))
        x_tr = raw.features[tr]
        np.testing.assert_array_equal(
            test.features, (raw.features[te] - x_tr.mean(axis=0)) / x_tr.std(axis=0)
        )
        # train side is exactly standardized; test side only approximately
        assert train.targets.mean() == pytest.approx(0.0, abs=1e-12)
        assert train.features.mean(axis=0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_rejected(self, n):
        # one row leaves the train split empty: no statistic is computed
        raw = RegressionDataset(features=np.ones((n, 2)), targets=np.zeros(n))
        with pytest.raises(DatasetError, match=f"at least 2 rows, dataset has {n}$"):
            train_test_split(raw, np.random.default_rng(0))

    def test_split_sizes(self):
        raw = make_linear_data(n=100)
        train, test = train_test_split(raw, np.random.default_rng(2))
        assert test.n == 10 and train.n == 90


class TestLogPTilde:
    def test_zero_everything(self):
        n, d, h = 7, 3, 4
        ds = RegressionDataset(features=np.ones((n, d)), targets=np.zeros(n))
        model = BnnModel(input_dim=d, hidden=h, log_noise_var=0.0)
        P = model.param_count
        val = log_p_tilde_weights(model, np.zeros((1, P)), ds)[0]
        assert val == pytest.approx(-(n / 2) * LOG_2PI - (P / 2) * LOG_2PI, rel=1e-12)

    def test_minibatch_rescaling(self):
        ds = make_linear_data(n=64, seed=3)
        model = BnnModel(input_dim=1, hidden=5, log_noise_var=0.3)
        rng = np.random.default_rng(0)
        delta = rng.standard_normal((1, model.param_count))
        full = log_p_tilde_weights(model, delta, ds)[0]
        halves = [
            _log_p_tilde_grad(model, delta, ds, np.arange(0, 64, 2), want_grad=False)[0][0],
            _log_p_tilde_grad(model, delta, ds, np.arange(1, 64, 2), want_grad=False)[0][0],
        ]
        # each half-batch estimate is unbiased for the full value; their
        # average shares the prior term and averages the likelihood halves
        assert np.mean(halves) == pytest.approx(full, rel=1e-12)

    def test_target_translation_invariance(self):
        ds = make_linear_data(n=32, seed=4)
        c = 2.5
        shifted = RegressionDataset(features=ds.features, targets=ds.targets + c)
        model = BnnModel(input_dim=1, hidden=6, log_noise_var=-0.2)
        rng = np.random.default_rng(1)
        delta = rng.standard_normal(model.param_count)
        delta_shift = delta.copy()
        delta_shift[-1] += c  # output bias is the last parameter
        def loglik(dd, data):
            prior = -0.5 * (model.param_count * LOG_2PI + np.sum(dd**2))
            return log_p_tilde_weights(model, dd[None, :], data)[0] - prior
        assert loglik(delta_shift, shifted) == pytest.approx(loglik(delta, ds), rel=1e-12)

    def test_hand_computed_forward(self):
        model = BnnModel(input_dim=2, hidden=2, log_noise_var=0.0)
        W1 = np.array([[1.0, -1.0], [2.0, 0.0]])
        b1 = np.array([0.5, -0.25])
        w2 = np.array([1.0, 2.0])
        b2 = 0.3
        delta = np.concatenate([W1.ravel(), b1, w2, [b2]])
        X = np.array([[1.0, -1.0], [0.5, 0.25]])
        # by hand: relu([-1,-1]+b1) = [0,0] -> 0.3; relu([1,-0.5]+b1) = [1.5,0] -> 1.8
        preds = model.forward(delta, X)
        np.testing.assert_allclose(preds[0], [0.3, 1.8], rtol=1e-12)

    def test_independent_loop_reimplementation(self):
        model = BnnModel(input_dim=3, hidden=4, log_noise_var=-0.7)
        rng = np.random.default_rng(9)
        delta = rng.standard_normal(model.param_count)
        X = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        ds = RegressionDataset(features=X, targets=y)
        # oracle: naive loops over the same parameter layout
        d, h = 3, 4
        W1 = delta[: d * h].reshape(d, h)
        b1 = delta[d * h : d * h + h]
        w2 = delta[d * h + h : d * h + 2 * h]
        b2 = delta[-1]
        v = math.exp(model.log_noise_var)
        loglik = 0.0
        for i in range(6):
            hidden = [max(0.0, sum(X[i, k] * W1[k, j] for k in range(d)) + b1[j])
                      for j in range(h)]
            pred = sum(hidden[j] * w2[j] for j in range(h)) + b2
            loglik += -0.5 * (LOG_2PI + model.log_noise_var) - (y[i] - pred) ** 2 / (2 * v)
        expected = loglik - 0.5 * (model.param_count * LOG_2PI + np.sum(delta**2))
        assert log_p_tilde_weights(model, delta[None, :], ds)[0] == pytest.approx(
            expected, rel=1e-12
        )
        # one shape in: a lone (P,) weight vector is not a stack
        with pytest.raises(ValidationError, match="stack"):
            log_p_tilde_weights(model, delta, ds)


class TestBostonGradient:
    """Central-difference oracle for _log_p_tilde_grad on the bundled data."""

    @pytest.fixture(scope="class")
    def setup(self):
        raw = load_dataset(bundled_dataset_path("boston"))
        train, _ = train_test_split(raw, np.random.default_rng(0))
        model = BnnModel(input_dim=train.dim, hidden=50, log_noise_var=-1.0)
        d, h = train.dim, model.hidden
        scale = np.full(model.param_count, 0.3)
        scale[: d * h] = 1.0 / math.sqrt(d)
        delta = np.random.default_rng(7).standard_normal((3, model.param_count)) * scale
        return model, train, delta

    @pytest.mark.parametrize("minibatch", [None, 32])
    def test_weight_and_noise_gradients_match_fd(self, setup, minibatch):
        model, train, delta = setup
        rng = np.random.default_rng(11)
        idx = None if minibatch is None else rng.choice(train.n, minibatch, replace=False)
        _, grad, dlnv = _log_p_tilde_grad(model, delta, train, idx)
        step = 1e-6

        def vals(m, dd):
            return _log_p_tilde_grad(m, dd, train, idx, want_grad=False)[0]

        # 13 coordinates from each of W1, b1, w2, plus b2: 40 in all
        d, h = model.input_dim, model.hidden
        starts = (0, d * h, d * h + h, d * h + 2 * h)
        coords = np.concatenate(
            [rng.choice(np.arange(lo, hi), 13, replace=False) for lo, hi in zip(starts, starts[1:])]
            + [[model.param_count - 1]]
        )
        fd = np.empty((delta.shape[0], coords.size))
        for c, j in enumerate(coords):
            hi, lo = delta.copy(), delta.copy()
            hi[:, j] += step
            lo[:, j] -= step
            fd[:, c] = (vals(model, hi) - vals(model, lo)) / (2 * step)
        g = grad[:, coords]
        assert np.max(np.abs(fd - g) / np.maximum(1.0, np.abs(g))) < 1e-5

        lnv = model.log_noise_var
        fd_lnv = (
            vals(BnnModel(model.input_dim, model.hidden, lnv + step), delta)
            - vals(BnnModel(model.input_dim, model.hidden, lnv - step), delta)
        ) / (2 * step)
        assert np.max(np.abs(fd_lnv - dlnv) / np.maximum(1.0, np.abs(dlnv))) < 1e-5

    @pytest.mark.parametrize("minibatch", [None, 32])
    def test_without_weight_gradient_values_and_noise_gradient_match(self, setup, minibatch):
        model, train, delta = setup
        rng = np.random.default_rng(11)
        idx = None if minibatch is None else rng.choice(train.n, minibatch, replace=False)
        vals, grad, dlnv = _log_p_tilde_grad(model, delta, train, idx)
        vals_ng, grad_ng, dlnv_ng = _log_p_tilde_grad(model, delta, train, idx, want_grad=False)
        assert grad.shape == delta.shape and grad_ng is None
        assert np.array_equal(vals_ng, vals)
        assert np.array_equal(dlnv_ng, dlnv)

    @staticmethod
    def _assert_workspace_bits(model, train, delta, idx, workspace):
        for want_grad in (True, False):
            plain = _log_p_tilde_grad(model, delta, train, idx, want_grad)
            reused = _log_p_tilde_grad(model, delta, train, idx, want_grad, workspace)
            assert np.array_equal(reused[0], plain[0])
            assert np.array_equal(reused[2], plain[2])
            if want_grad:
                assert np.array_equal(reused[1], plain[1])
            else:
                assert reused[1] is None

    @staticmethod
    def _weights(model, rng, K):
        d, h = model.input_dim, model.hidden
        scale = np.full(model.param_count, 0.3)
        scale[: d * h] = 1.0 / math.sqrt(d)
        return rng.standard_normal((K, model.param_count)) * scale

    def test_workspace_gives_identical_bits(self, setup):
        model, train, _ = setup
        rng = np.random.default_rng(12)
        delta = self._weights(model, rng, 100)
        idx = rng.choice(train.n, 32, replace=False)
        self._assert_workspace_bits(model, train, delta, idx, _GradWorkspace())

    def test_reused_workspace_holds_no_stale_values(self, setup):
        model, train, _ = setup
        rng = np.random.default_rng(13)
        workspace = _GradWorkspace()
        for _ in range(2):  # two minibatches and weight stacks through one workspace
            delta = self._weights(model, rng, 100)
            idx = rng.choice(train.n, 32, replace=False)
            self._assert_workspace_bits(model, train, delta, idx, workspace)

    def test_workspace_follows_a_change_of_K(self, setup):
        model, train, _ = setup
        rng = np.random.default_rng(14)
        workspace = _GradWorkspace()
        for K, minibatch in ((100, 32), (37, 32), (100, None)):
            idx = None if minibatch is None else rng.choice(train.n, minibatch, replace=False)
            self._assert_workspace_bits(model, train, self._weights(model, rng, K), idx, workspace)

    def test_forward_matches_einsum_reference(self, setup):
        model, train, delta = setup
        W1, b1, w2, b2 = model.unpack(delta)
        h1 = np.maximum(np.einsum("nd,kdh->knh", train.features, W1) + b1[:, None, :], 0.0)
        expected = np.einsum("knh,kh->kn", h1, w2) + b2[:, None]
        np.testing.assert_allclose(model.forward(delta, train.features), expected, rtol=1e-12)


def _reference_fit_bnn(dataset, config, hidden):
    """fit_bnn's loop written out plainly: one Adam per parameter block, the
    weights rebuilt as mean + exp(0.5 * log_var) * eps and the global-norm
    clip spelled out.  Returns (mean, log_var, log_noise_var, trace); finite
    losses only."""
    rng = np.random.default_rng(config.seed)
    alpha = config.alpha
    d, h = dataset.dim, hidden
    P = d * h + 2 * h + 1
    mean = np.zeros(P)
    mean[: d * h] = rng.normal(0.0, 1.0 / math.sqrt(d), d * h)
    mean[d * h + h : d * h + 2 * h] = rng.normal(0.0, 1.0 / math.sqrt(h), h)
    log_var = np.full(P, -6.0)
    lnv = np.array([-1.0])
    adams = [_Adam(x.shape, _STEP_SIZE) for x in (mean, log_var, lnv)]
    warm_until = config.iterations // 2 if alpha != 1.0 else 0
    trace = []
    for it in range(config.iterations):
        idx = rng.choice(dataset.n, size=min(32, dataset.n), replace=False)
        eps = rng.standard_normal((config.samples_per_step, P))
        sigma = np.exp(0.5 * log_var)
        delta = mean + sigma * eps
        model = BnnModel(d, h, float(lnv[0]))
        lp, g, dlnv = _log_p_tilde_grad(model, delta, dataset, idx)
        lq = -0.5 * (P * LOG_2PI + log_var.sum() + np.sum(eps**2, axis=1))
        hv = lp - lq
        a = 1.0 if it < warm_until else alpha
        loss, c = _loss_and_sample_weights(a, hv, config.kl_direction)
        trace.append(loss)
        if a == 1.0:
            grads = [c @ g, c @ (g * (0.5 * sigma * eps) + 0.5)]
        else:
            # score-function phase, alpha > 1: (1 - alpha) * softmax(alpha h) @ d log q
            m = np.exp(alpha * hv - logsumexp(alpha * hv))
            grads = [
                (1.0 - alpha) * (m @ (eps / sigma)),
                (1.0 - alpha) * (m @ (0.5 * eps**2 - 0.5)),
            ]
        grads.append(np.array([-float(dlnv.mean())]))
        norm = math.sqrt(sum(float(np.sum(x**2)) for x in grads))
        if norm > 10.0:
            grads = [x * (10.0 / norm) for x in grads]
        scale = 1.0 if a == 1.0 else 0.3
        if it >= 0.6 * config.iterations:
            scale *= 0.3
        for adam in adams:
            adam.step_size = _STEP_SIZE * scale
        mean, log_var, lnv = (
            adam.update(x, gx) for adam, x, gx in zip(adams, (mean, log_var, lnv), grads)
        )
    return mean, log_var, float(lnv[0]), np.array(trace)


class TestFitBnn:
    def test_recovers_linear_slope(self):
        raw = make_linear_data(n=200, slope=2.0, noise=0.1, seed=7)
        train, test = train_test_split(raw, np.random.default_rng(3))
        config = OptimizerConfig(iterations=1200, samples_per_step=50, alpha=1.0, seed=0)
        result = fit_bnn(train, config)
        grid_std = np.linspace(-1.5, 1.5, 41)
        samples, _ = sample_reparam(result.posterior, np.random.default_rng(4), 100)
        preds_std = result.model.forward(samples, grid_std[:, None]).mean(axis=0)
        _, tr = _split_rows(raw, np.random.default_rng(3))
        x_tr = raw.features[tr, 0]
        x_orig = grid_std * x_tr.std() + x_tr.mean()
        y_orig = preds_std * train.y_std + train.y_mean
        slope_fit = np.polyfit(x_orig, y_orig, 1)[0]
        slope_ols = np.polyfit(raw.features[:, 0], raw.targets, 1)[0]
        assert slope_fit == pytest.approx(slope_ols, abs=0.2)

    def test_zero_iterations_returns_init(self):
        raw = make_linear_data(n=50, seed=8)
        train, _ = train_test_split(raw, np.random.default_rng(5))
        config = OptimizerConfig(iterations=0, alpha=2.0, seed=0)
        result = fit_bnn(train, config)
        assert result.trace.size == 0
        assert np.all(result.posterior.log_var == -6.0)
        assert result.model.log_noise_var == -1.0

    def test_score_function_phase_skips_the_weight_gradient(self, monkeypatch):
        raw = make_linear_data(n=120, seed=9)
        train, _ = train_test_split(raw, np.random.default_rng(6))
        config = OptimizerConfig(iterations=60, samples_per_step=20, alpha=2.0, seed=1)
        lean = fit_bnn(train, config)

        real = bnn_module._log_p_tilde_grad
        wanted = []

        def always_grad(model, delta, dataset, minibatch=None, want_grad=True, workspace=None):
            wanted.append(want_grad)
            return real(model, delta, dataset, minibatch, want_grad=True, workspace=workspace)

        monkeypatch.setattr(bnn_module, "_log_p_tilde_grad", always_grad)
        full = fit_bnn(train, config)
        # warm start (alpha = 1, pathwise) for 30 steps, then score-function steps
        assert wanted == [True] * 30 + [False] * 30
        assert np.all(np.isfinite(full.trace))
        assert np.array_equal(lean.posterior.mu, full.posterior.mu)
        assert np.array_equal(lean.posterior.log_var, full.posterior.log_var)
        assert np.array_equal(lean.trace, full.trace)
        assert lean.model.log_noise_var == full.model.log_noise_var

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_bit_identical_to_reference_loop(self, alpha):
        raw = make_linear_data(n=120, seed=9)
        train, _ = train_test_split(raw, np.random.default_rng(6))
        config = OptimizerConfig(iterations=60, samples_per_step=20, alpha=alpha, seed=1)
        result = fit_bnn(train, config, hidden=8)
        mean, log_var, lnv, trace = _reference_fit_bnn(train, config, hidden=8)
        assert np.array_equal(result.posterior.mu, mean)
        assert np.array_equal(result.posterior.log_var, log_var)
        assert result.model.log_noise_var == lnv
        assert np.array_equal(result.trace, trace)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_bit_identical_to_reference_loop_at_boston_scale(self, alpha):
        # the buffers' strided writes at the shapes criterion 7 runs
        raw = load_dataset(bundled_dataset_path("boston"))
        train, _ = train_test_split(raw, np.random.default_rng(0))
        config = OptimizerConfig(iterations=40, samples_per_step=100, alpha=alpha, seed=2)
        result = fit_bnn(train, config, hidden=50)
        mean, log_var, lnv, trace = _reference_fit_bnn(train, config, hidden=50)
        assert np.array_equal(result.posterior.mu, mean)
        assert np.array_equal(result.posterior.log_var, log_var)
        assert result.model.log_noise_var == lnv
        assert np.array_equal(result.trace, trace)

    def test_nonfinite_objective_raises_with_fit_trace(self, monkeypatch):
        raw = make_linear_data(n=60, seed=9)
        train, _ = train_test_split(raw, np.random.default_rng(6))
        real = bnn_module._log_p_tilde_grad

        def nan_target(model, delta, dataset, minibatch=None, want_grad=True, workspace=None):
            vals, grad, dlnv = real(model, delta, dataset, minibatch, want_grad, workspace)
            return np.full_like(vals, np.nan), grad, dlnv

        monkeypatch.setattr(bnn_module, "_log_p_tilde_grad", nan_target)
        config = OptimizerConfig(iterations=50, samples_per_step=10, alpha=2.0, seed=0)
        with pytest.raises(FitDivergenceError) as info:
            fit_bnn(train, config, hidden=4)
        trace = info.value.trace
        assert isinstance(trace, FitTrace)
        assert trace.objective.shape == (10,) and np.all(np.isnan(trace.objective))
        assert trace.final.dim == BnnModel(input_dim=1, hidden=4).param_count

    def test_alpha_two_objective_finite_on_synthetic(self):
        raw = make_linear_data(n=120, seed=9)
        train, _ = train_test_split(raw, np.random.default_rng(6))
        config = OptimizerConfig(iterations=400, samples_per_step=50, alpha=2.0, seed=1)
        result = fit_bnn(train, config)
        assert np.all(np.isfinite(result.trace))


@pytest.fixture(scope="module")
def fitted():
    raw = make_linear_data(n=150, noise=0.3, seed=10)
    train, test = train_test_split(raw, np.random.default_rng(7))
    config = OptimizerConfig(iterations=800, samples_per_step=50, alpha=1.0, seed=2)
    return train, test, fit_bnn(train, config)


class TestRefineBnn:

    def test_gamma_one_keeps_everything(self, fitted):
        train, test, result = fitted
        sset, T = refine_bnn(
            result.model, result.posterior, train,
            np.random.default_rng(8), gamma=1.0, n_accept_goal=100,
        )
        assert sset.acceptance_rate > 0.95
        rmse_r, ll_r = evaluate(result.model, sset.accepted, test)
        post, _ = sample_reparam(result.posterior, np.random.default_rng(9), 100)
        rmse_q, ll_q = evaluate(result.model, post, test)
        assert rmse_r == pytest.approx(rmse_q, abs=0.15 * (1 + rmse_q))
        assert ll_r == pytest.approx(ll_q, abs=0.2)

    def test_gamma_point_one_acceptance_band(self, fitted):
        train, _, result = fitted
        sset, _ = refine_bnn(
            result.model, result.posterior, train,
            np.random.default_rng(10), gamma=0.1, n_accept_goal=150,
        )
        assert 0.05 <= sset.acceptance_rate <= 0.20

    def test_accepted_are_proposal_shaped(self, fitted):
        train, _, result = fitted
        sset, _ = refine_bnn(
            result.model, result.posterior, train,
            np.random.default_rng(11), gamma=0.5, n_accept_goal=50,
        )
        assert sset.accepted.shape[1] == result.model.param_count
        assert sset.n_accepted <= sset.proposals_used


def _synthetic_regression(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, 13))
    y = 0.3 * X @ rng.standard_normal(13) + 0.1 * rng.standard_normal(n_rows)
    return RegressionDataset(features=X, targets=y)


def _unfitted_posterior(model, seed=0):
    """A narrow Gaussian around random weights: a posterior set directly, no fit."""
    rng = np.random.default_rng(seed)
    P = model.param_count
    return VariationalDist(mu=rng.normal(0.0, 0.3, P), log_var=np.full(P, -6.0))


class TestSlicedRefinement:
    """The full-data target is evaluated in bounded slices without changing results."""

    MODEL = BnnModel(input_dim=13, hidden=50, log_noise_var=-1.0)

    def test_row_slices_concatenate_to_the_stack(self):
        train, _ = train_test_split(
            load_dataset(bundled_dataset_path("boston")), np.random.default_rng(0)
        )
        delta = np.random.default_rng(1).normal(0.0, 0.3, (40, self.MODEL.param_count))
        whole = log_p_tilde_weights(self.MODEL, delta, train)
        for size in (1, 7, 13):
            parts = [
                log_p_tilde_weights(self.MODEL, delta[i : i + size], train)
                for i in range(0, 40, size)
            ]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_max_batch_follows_activation_budget(self):
        train = _synthetic_regression(455)
        target = _full_data_target(self.MODEL, train)
        act_bytes = 8 * train.n * self.MODEL.hidden
        assert target.max_batch * act_bytes <= _ACTIVATION_BYTES
        assert (target.max_batch + 1) * act_bytes > _ACTIVATION_BYTES

    def test_tiny_and_huge_budgets_give_identical_samples(self, monkeypatch):
        train, _ = train_test_split(
            load_dataset(bundled_dataset_path("boston")), np.random.default_rng(0)
        )
        post = _unfitted_posterior(self.MODEL)
        runs = []
        for budget in (1, 10**12):  # one row per call vs whole chunks
            monkeypatch.setattr(bnn_module, "_ACTIVATION_BYTES", budget)
            runs.append(
                refine_bnn(self.MODEL, post, train, np.random.default_rng(2),
                           pilot_size=200, n_accept_goal=20)
            )
        (tiny, T_tiny), (huge, T_huge) = runs
        assert T_tiny == T_huge
        assert np.array_equal(tiny.accepted, huge.accepted)
        assert tiny.proposals_used == huge.proposals_used
        assert tiny.log_Z_R_hat == huge.log_Z_R_hat

    def test_peak_memory_does_not_grow_with_rows(self):
        # 10x the boston training rows; evaluating whole 4096-proposal chunks
        # would need a (4096, 4550, 50) float64 activation, ~7.5 GB
        peaks = {}
        for n_rows in (455, 4550):
            train = _synthetic_regression(n_rows)
            post = _unfitted_posterior(self.MODEL)
            tracemalloc.start()
            try:
                sset, _ = refine_bnn(self.MODEL, post, train, np.random.default_rng(3),
                                     pilot_size=200, n_accept_goal=20)
                peaks[n_rows] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
            assert sset.n_accepted == 20
        assert peaks[4550] <= 256.0
        assert abs(peaks[4550] - peaks[455]) <= 32.0

    @staticmethod
    def _boston_train():
        return train_test_split(
            load_dataset(bundled_dataset_path("boston")), np.random.default_rng(0)
        )[0]

    def test_workspace_gives_identical_samples(self):
        train = self._boston_train()
        post = _unfitted_posterior(self.MODEL)
        sset, T = refine_bnn(self.MODEL, post, train, np.random.default_rng(4),
                             pilot_size=200, n_accept_goal=20)
        # refine_bnn's steps with a target that allocates afresh for every slice
        rng = np.random.default_rng(4)
        fresh = _full_data_target(self.MODEL, train)
        T_ref, _ = pilot_threshold(post, fresh, 0.1, 200, rng)
        ref = refine(post, fresh, RefinementConfig(T=T_ref), rng, 20)
        assert T == T_ref
        assert sset.proposals_used == ref.proposals_used
        assert (hashlib.sha256(sset.accepted.tobytes()).hexdigest()
                == hashlib.sha256(ref.accepted.tobytes()).hexdigest())

    def test_calls_in_two_threads_equal_sequential_calls(self):
        train = self._boston_train()
        post = _unfitted_posterior(self.MODEL)

        def run(seed):
            return refine_bnn(self.MODEL, post, train, np.random.default_rng(seed),
                              pilot_size=200, n_accept_goal=20)

        seeds = (5, 6)
        sequential = [run(seed) for seed in seeds]
        threaded = [None, None]

        def worker(i):
            threaded[i] = run(seeds[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (sset, T), (ref, T_ref) in zip(threaded, sequential):
            assert T == T_ref
            assert np.array_equal(sset.accepted, ref.accepted)
            assert sset.proposals_used == ref.proposals_used


class TestConjugatePilotOracle:
    def test_pilot_L_quantiles_match_noncentral_chisquare(self):
        # linear-Gaussian model, proposal = prior: L(w) = -loglik(w), a
        # quadratic in w, so its law under the prior is affine noncentral chi2
        rng = np.random.default_rng(12)
        n, v = 30, 0.25
        x = rng.uniform(1.0, 2.0, n)
        w_true = 1.3
        y = w_true * x + math.sqrt(v) * rng.standard_normal(n)
        sxx, sxy = np.sum(x * x), np.sum(x * y)
        w_hat = sxy / sxx
        B = sxx / (2 * v)
        A = -n / 2 * math.log(2 * math.pi * v) - np.sum((y - w_hat * x) ** 2) / (2 * v)

        prior = VariationalDist(mu=[0.0], log_var=[0.0])

        def log_unnorm(pts):
            w = pts[:, 0]
            loglik = (
                -n / 2 * math.log(2 * math.pi * v)
                - np.sum((y[None, :] - w[:, None] * x[None, :]) ** 2, axis=1) / (2 * v)
            )
            return loglik - 0.5 * (LOG_2PI + w**2)

        target = TargetDensity(dim=1, log_unnorm=log_unnorm)
        for gamma in (0.1, 0.5, 0.9):
            T, _ = pilot_threshold(prior, target, gamma, 50_000, np.random.default_rng(13))
            achieved = stats.ncx2.cdf((T + A) / B, df=1, nc=w_hat**2)
            assert achieved == pytest.approx(gamma, abs=0.01)


class TestEvaluate:
    def test_perfect_predictor(self):
        ds = RegressionDataset(features=np.zeros((8, 2)), targets=np.full(8, 0.7))
        v = 0.09
        model = BnnModel(input_dim=2, hidden=3, log_noise_var=math.log(v))
        delta = np.zeros((5, model.param_count))
        delta[:, -1] = 0.7  # output bias nails the constant target
        rmse, ll = evaluate(model, delta, ds)
        assert rmse == 0.0
        assert ll == pytest.approx(-0.5 * math.log(2 * math.pi * v), rel=1e-12)

    def test_log_mean_exp_degenerate_duplicates(self):
        # two identical weight samples: log-mean-exp equals the single density
        ds = RegressionDataset(features=np.zeros((4, 1)), targets=np.full(4, 1.0))
        model = BnnModel(input_dim=1, hidden=2, log_noise_var=0.0)
        delta = np.zeros((2, model.param_count))
        _, ll = evaluate(model, delta, ds)
        assert ll == pytest.approx(-0.5 * LOG_2PI - 0.5, rel=1e-12)

    def test_single_sample_rejected(self):
        ds = RegressionDataset(features=np.zeros((4, 1)), targets=np.zeros(4))
        model = BnnModel(input_dim=1, hidden=2)
        with pytest.raises(ValidationError, match="2 weight samples"):
            evaluate(model, np.zeros((1, model.param_count)), ds)

    def test_destandardized_units(self):
        # same geometry, scaled targets: rmse scales by y_std
        y_std, y_mean = 3.0, 10.0
        ds = RegressionDataset(
            features=np.zeros((6, 1)),
            targets=np.linspace(-1, 1, 6),
            y_mean=y_mean,
            y_std=y_std,
        )
        model = BnnModel(input_dim=1, hidden=2, log_noise_var=0.0)
        delta = np.zeros((3, model.param_count))  # predicts the standardized mean 0
        rmse, _ = evaluate(model, delta, ds)
        expected = math.sqrt(np.mean((ds.targets * y_std) ** 2))
        assert rmse == pytest.approx(expected, rel=1e-12)


class TestPosterior:
    def test_dimension_check(self):
        raw = make_linear_data(n=40, seed=8)
        config = OptimizerConfig(iterations=3, samples_per_step=5, alpha=1.0, seed=0)
        result = fit_bnn(raw, config, hidden=4)
        assert isinstance(result.posterior, VariationalDist)
        assert result.posterior.dim == result.model.param_count
        with pytest.raises(ValidationError):
            VariationalDist(mu=np.zeros(3), log_var=np.zeros(4))

    def test_param_count(self):
        model = BnnModel(input_dim=13, hidden=50)
        assert model.param_count == 13 * 50 + 50 + 50 + 1
