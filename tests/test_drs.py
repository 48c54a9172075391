import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from alphadrs import (
    DivergenceEstimate,
    RefinedSampleSet,
    RefinementConfig,
    RefinementError,
    TargetDensity,
    ValidationError,
    VariationalDist,
    draw_batch,
    estimate_renyi,
    estimate_renyi_refined,
    log_q,
    pilot_threshold,
    refine,
    sample_reparam,
    select_T_low_dim,
    select_T_quantile,
)
from alphadrs import distributions as distributions_module
from alphadrs.cli import _sample_lines
from alphadrs.distributions import _MAX_BATCH, four_mode_gmm_spec, make_gmm_target
from alphadrs.oracles import dist_target, normal_target
from conftest import gmm_cdf as mixture_cdf, peak_traced_bytes


def gmm_cdf(x):
    return mixture_cdf(four_mode_gmm_spec(), x)


def t10_cdf_factory(q):
    scale = math.exp(0.5 * q.log_var[0])
    return lambda x: stats.t.cdf(x, df=q.nu, loc=q.mu[0], scale=scale)


class TestSelectT:
    def test_low_dim_negates_divergence(self):
        assert select_T_low_dim(DivergenceEstimate(2.0, 0.98, 0.01, 3000)) == -0.98
        assert select_T_low_dim(DivergenceEstimate(2.0, 0.0, 0.01, 3000)) == 0.0
        assert select_T_low_dim(DivergenceEstimate(21.0, 1.46, 0.01, 3000)) == -1.46

    def test_low_dim_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            select_T_low_dim(DivergenceEstimate(2.0, math.nan, 0.01, 10))

    def test_nearest_rank_small_case(self):
        assert select_T_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_boundary_clamps(self):
        L = [3.0, -1.0, 7.0, 2.0]
        assert select_T_quantile(L, 1.0) == 7.0
        assert select_T_quantile(L, 0.0) == -1.0

    def test_normal_quantile_convergence(self):
        L = np.random.default_rng(19).standard_normal(100_000)
        assert select_T_quantile(L, 0.1) == pytest.approx(-1.2816, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            select_T_quantile([], 0.5)

    @given(
        vals=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
        gamma=st.floats(0, 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_nearest_rank_matches_bruteforce(self, vals, gamma):
        # brute force: smallest value v with #(L <= v) >= max(1, ceil(gamma S))
        got = select_T_quantile(vals, gamma)
        want_rank = min(max(math.ceil(gamma * len(vals)), 1), len(vals))
        assert got == sorted(vals)[want_rank - 1]


class TestAcceptanceProb:
    def test_sigmoid_at_threshold(self):
        # L = T: (1 + e^0)^-1 = 1/2
        a = np.exp(RefinementConfig(T=0.0, softmin_t=1.0).log_accept(0.0))
        assert a == pytest.approx(0.5, abs=1e-15)

    def test_quarter_gap(self):
        # L - T = -ln 3 gives 1/(1 + 1/3) = 3/4
        a = np.exp(RefinementConfig(T=0.0, softmin_t=1.0).log_accept(-math.log(3.0)))
        assert a == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_huge_T_saturates_to_one(self):
        assert np.exp(RefinementConfig(T=1e9, softmin_t=1.0).log_accept(0.0)) == 1.0
        # t (L - T) = 3 * (0 -+ 1e308) leaves the float range, without a warning
        L = np.array([0.0])
        assert RefinementConfig(T=1e308, softmin_t=3.0).log_accept(L)[0] == 0.0
        assert RefinementConfig(T=-1e308, softmin_t=3.0).log_accept(L)[0] == -np.inf

    def test_hard_limit_is_clipped_ratio(self):
        # softmin_t = inf: a = min(1, p~ e^T / q)
        for lp, lq, T in [(0.0, 1.0, 0.3), (2.0, -1.0, -0.5), (0.0, 0.0, 0.0)]:
            expected = min(1.0, math.exp(lp - lq + T))
            a = np.exp(RefinementConfig(T=T, softmin_t=math.inf).log_accept(lq - lp))
            assert a == pytest.approx(expected, rel=1e-12)

    def test_softmin_family_approaches_hard_limit(self):
        z = np.linspace(-4, 4, 33)
        hard = np.exp(-np.maximum(z, 0.0))
        smooth = np.exp(RefinementConfig(T=0.0, softmin_t=64.0).log_accept(z))
        np.testing.assert_allclose(smooth, hard, atol=0.02)

    def test_hard_cutoff_indicator(self):
        # L = log q - log p~ = [0.5, 1.0]; threshold 0.6 keeps only the first
        config = RefinementConfig(T=0.6, softmin_t=1.0, hard_cutoff=True)
        a = np.exp(config.log_accept(np.array([0.5, 1.0])))
        np.testing.assert_array_equal(a, [1.0, 0.0])

    def test_monotone_in_log_ratio(self):
        w = np.linspace(-20, 20, 401)  # log p~ - log q
        for t in (1.0, 3.0, math.inf):
            a = np.exp(RefinementConfig(T=0.0, softmin_t=t).log_accept(-w))
            assert np.all(np.diff(a) >= 0)
            # strictness holds wherever doubles can still resolve the gap
            interior = a < 1.0 - 1e-9
            assert np.all(np.diff(a[interior]) > 0)

    def test_monotone_in_T(self):
        T = np.linspace(-20, 20, 401)
        a = np.array([np.exp(RefinementConfig(T=t, softmin_t=1.0).log_accept(0.0)) for t in T])
        assert np.all(np.diff(a) > 0)

    @given(
        gap=st.floats(-200, 200),
        t=st.one_of(st.floats(0.1, 100), st.just(math.inf)),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, gap, t):
        a = np.exp(RefinementConfig(T=0.0, softmin_t=t).log_accept(gap))
        assert 0.0 < a <= 1.0

    @staticmethod
    def _logaddexp_form(L, T, t):
        """-logaddexp(0, t (L - T)) / t, the libm form the SIMD one replaced."""
        z = np.where(L == math.inf, math.inf, -math.inf) if T == math.inf else L - T
        with np.errstate(over="ignore"):
            return -np.logaddexp(0.0, t * z) / t

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_within_4_ulp_of_logaddexp(self, t):
        # numpy's SIMD exp and log1p round differently from libm's: 2 ulp at
        # most measured over 5e6 points, on about 2% of them
        L = np.linspace(-750.0, 750.0, 1_000_001)
        got = RefinementConfig(T=0.0, softmin_t=t).log_accept(L)
        want = self._logaddexp_form(L, 0.0, t)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("T", [0.0, 2.5, math.inf])
    def test_exact_at_zero_infinities_and_overflow(self, t, T):
        z = np.array([0.0, math.inf, -math.inf, 1e308 * t, -1e308 * t, 1e308, -1e308])
        L = z if T == math.inf else z + T
        got = RefinementConfig(T=T, softmin_t=t).log_accept(L)
        want = self._logaddexp_form(L, T, t)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 where a = 1

    @pytest.mark.parametrize("T", [0.3, math.inf])
    @pytest.mark.parametrize("t", [1.0, 3.0, math.inf])
    def test_scalar_and_shape_kept(self, T, t):
        config = RefinementConfig(T=T, softmin_t=t)
        scalar = config.log_accept(0.25)
        assert isinstance(scalar, float) and np.ndim(scalar) == 0
        for shape in [(0,), (5,), (3, 2)]:
            assert config.log_accept(np.full(shape, 0.25)).shape == shape

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4096, 16384),
        loc=st.floats(-50, 50),
        scale=st.floats(1e-3, 300),
        t=st.sampled_from([0.5, 1.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_in_L(self, seed, n, loc, scale, t):
        # a few thousand sorted entries, so numpy's SIMD loops do the work.  At
        # one-ulp spacing neither this form nor logaddexp is monotone where
        # 0 < t z < 1; sampled points are many ulps apart
        L = np.sort(np.random.default_rng(seed).normal(loc, scale, n))
        la = RefinementConfig(T=0.0, softmin_t=t).log_accept(L)
        assert np.all(np.diff(la) <= 0.0)

    def test_peak_memory_two_arrays(self):
        # the softplus runs in place beside the max(t z, 0) array: 16.0 MB at
        # 10^6 rows, 24.0 MB with logaddexp and its temporaries
        n = 10**6
        L = np.random.default_rng(5).normal(0.0, 3.0, n)
        la, peak, _ = peak_traced_bytes(RefinementConfig(T=0.5).log_accept, L)
        assert la.shape == (n,)
        assert peak <= 2 * 8 * n + 64 * 1024


class TestRefine:
    def test_gmm_acceptance_near_reported(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(2.0)
        batch = draw_batch(q, gmm_target, rng, 3000)
        T = select_T_low_dim(estimate_renyi(2.0, batch))
        config = RefinementConfig(T=T, softmin_t=1.0)
        sset = refine(q, gmm_target, config, rng, n_accept_goal=3000)
        assert 0.10 <= sset.acceptance_rate <= 0.30

    def test_alpha21_acceptance_band(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(21.0)
        batch = draw_batch(q, gmm_target, rng, 3000)
        T = select_T_low_dim(estimate_renyi(21.0, batch))
        config = RefinementConfig(T=T, softmin_t=1.0)
        sset = refine(q, gmm_target, config, rng, n_accept_goal=3000)
        assert 0.09 <= sset.acceptance_rate <= 0.19

    def test_huge_T_accepts_everything_and_matches_q(self):
        target = normal_target(0.0, 1.0)
        q = VariationalDist(mu=[0.5], log_var=[2 * math.log(1.5)])
        config = RefinementConfig(T=50.0, softmin_t=1.0)
        sset = refine(q, target, config, np.random.default_rng(3), n_accept_goal=10_000)
        assert sset.acceptance_rate == 1.0
        ks = stats.kstest(
            sset.accepted[:, 0], lambda x: stats.norm.cdf(x, 0.5, 1.5)
        ).statistic
        assert ks < 0.02

    def test_very_negative_T_hard_recovers_exact_sampling(self, gmm_target, fitted_gmm_q):
        # -T far above log M: min(1, e^T p~/q) never clips, accepted ~ p
        q = fitted_gmm_q(2.0)
        config = RefinementConfig(T=-4.0, softmin_t=math.inf)
        sset = refine(
            q,
            gmm_target,
            config,
            np.random.default_rng(4),
            n_accept_goal=10_000,
            max_proposals=2_000_000,
        )
        ks = stats.kstest(sset.accepted[:, 0], gmm_cdf).statistic
        assert ks < 0.03

    def test_accepted_match_refined_density(self, gmm_target, fitted_gmm_q, rng):
        # accepted samples follow q a / Z_R, checked against a quadrature CDF
        q = fitted_gmm_q(2.0)
        batch = draw_batch(q, gmm_target, rng, 3000)
        T = select_T_low_dim(estimate_renyi(2.0, batch))
        config = RefinementConfig(T=T, softmin_t=1.0)
        sset = refine(q, gmm_target, config, np.random.default_rng(9), n_accept_goal=10_000)
        grid = np.linspace(-60.0, 60.0, 200_001)
        la = config.log_accept(
            log_q(q, grid[:, None]) - gmm_target.log_unnorm(grid[:, None])
        )
        dens = np.exp(log_q(q, grid[:, None]) + la)
        cdf_vals = cumulative_trapezoid(dens, grid, initial=0.0)
        cdf_vals /= cdf_vals[-1]
        ks = stats.kstest(
            sset.accepted[:, 0], lambda x: np.interp(x, grid, cdf_vals)
        ).statistic
        assert ks < 0.03

    def test_quantile_calibration_hard_cutoff(self, gmm_target, fitted_gmm_q):
        q = fitted_gmm_q(2.0)
        for gamma in (0.1, 0.3, 0.5):
            T, _ = pilot_threshold(
                q, gmm_target, gamma, 1000, np.random.default_rng(100)
            )
            config = RefinementConfig(T=T, hard_cutoff=True)
            sset = refine(
                q,
                gmm_target,
                config,
                np.random.default_rng(200),
                n_accept_goal=5000,
                max_proposals=40_000,
            )
            assert gamma - 0.05 <= sset.acceptance_rate <= gamma + 0.10
            # the smoothed variants are reported, not asserted: their rate
            # may exceed gamma (partial acceptance above the threshold)
            smooth = refine(
                q,
                gmm_target,
                RefinementConfig(T=T, softmin_t=1.0),
                np.random.default_rng(201),
                n_accept_goal=5000,
                max_proposals=40_000,
            )
            print(
                f"gamma={gamma}: hard-cutoff rate={sset.acceptance_rate:.3f} "
                f"softmin_t=1 rate={smooth.acceptance_rate:.3f}"
            )

    def test_zero_acceptance_diagnostics(self, rng):
        target = normal_target(0.0, 1.0)
        q = VariationalDist(mu=[0.0], log_var=[0.5])
        config = RefinementConfig(T=-200.0, softmin_t=math.inf)
        with pytest.raises(RefinementError) as err:
            refine(q, target, config, rng, n_accept_goal=10, max_proposals=2000)
        assert err.value.proposals_used == 2000
        assert err.value.min_L > -200.0
        assert math.isfinite(err.value.mean_L)

    def test_budget_and_accounting(self, rng):
        target = normal_target(0.0, 1.0)
        q = VariationalDist(mu=[0.0], log_var=[0.0])
        config = RefinementConfig(T=50.0, softmin_t=1.0)
        sset = refine(q, target, config, rng, n_accept_goal=100)
        assert sset.n_accepted == 100
        assert sset.proposals_used == 100  # everything accepted, stops exactly at goal
        assert sset.acceptance_rate == 1.0
        # a stop mid-chunk yields plain Python numbers, not numpy scalars
        assert type(sset.proposals_used) is int
        assert type(sset.acceptance_rate) is float
        assert sset.log_Z_R_hat == pytest.approx(0.0, abs=1e-6)

    def test_sample_set_invariants(self):
        with pytest.raises(ValidationError):
            RefinedSampleSet(
                accepted=np.zeros((5, 1)),
                proposals_used=4,
                log_Z_R_hat=0.0,
            )

    def test_sample_set_needs_a_proposal_and_derives_its_rate(self):
        with pytest.raises(ValidationError, match="proposals_used"):
            RefinedSampleSet(accepted=np.zeros((0, 1)), proposals_used=0, log_Z_R_hat=0.0)
        sset = RefinedSampleSet(accepted=np.zeros((3, 1)), proposals_used=4, log_Z_R_hat=0.0)
        assert sset.acceptance_rate == 0.75

    def test_csv_export(self, rng):
        target = normal_target(0.0, 1.0)
        q = VariationalDist(mu=[0.0], log_var=[0.0])
        config = RefinementConfig(T=50.0, softmin_t=1.0)
        sset = refine(q, target, config, rng, n_accept_goal=5)
        lines = _sample_lines(sset, config.T, 2.0)
        assert lines[0].startswith("# acceptance_rate=1,")
        assert "T=50" in lines[0] and "alpha=2" in lines[0]
        assert len(lines) == 6

    def test_peak_memory_does_not_grow_with_proposals(self):
        # a = sigmoid(T) ~ 1/1000 on every proposal, so the goal sets the
        # proposal count; nothing beyond the accepted samples may scale with it
        q = VariationalDist(mu=[0.0], log_var=[0.0])
        config = RefinementConfig(T=-math.log(1000.0))
        peaks, used = {}, {}
        for goal in (1, 20, 200):  # the first call only warms up
            sset, peak, _ = peak_traced_bytes(
                lambda: refine(q, dist_target(q), config, np.random.default_rng(6), goal,
                               max_proposals=10**6)
            )
            peaks[goal] = peak - sset.accepted.nbytes
            used[goal] = sset.proposals_used
        assert used[200] > 5 * used[20] > 10 * _MAX_BATCH
        assert peaks[200] - peaks[20] < 0.5e6


def _with_max_batch(target, max_batch, counts=None):
    """The same density declaring ``max_batch``; ``counts`` collects rows per
    ``log_unnorm`` call."""
    if counts is None:
        return dataclasses.replace(target, max_batch=max_batch)

    def log_unnorm(points):
        counts.append(points.shape[0])
        return target.log_unnorm(points)

    return dataclasses.replace(target, log_unnorm=log_unnorm, max_batch=max_batch)


class TestRefineDraw:
    @pytest.mark.parametrize("family", ["diag-gaussian", "student-t"])
    def test_points_are_sample_reparams_stream(self, family):
        # T so high that every proposal is accepted: the accepted samples are
        # the first rows of the chunk's draw, in sample_reparam's draw order
        q = VariationalDist(mu=[0.5, -1.0, 2.0], log_var=[0.3, -0.4, 1.1], family=family)
        config = RefinementConfig(T=1e6)
        sset = refine(q, dist_target(q), config, np.random.default_rng(8), n_accept_goal=100)
        points, _ = sample_reparam(q, np.random.default_rng(8), _MAX_BATCH)
        assert sset.proposals_used == 100
        assert np.array_equal(sset.accepted, points[:100])


_CONFIGS = pytest.mark.parametrize(
    "config",
    [
        RefinementConfig(T=-1.0),
        RefinementConfig(T=-1.0, softmin_t=math.inf),
        RefinementConfig(T=-1.0, hard_cutoff=True),
    ],
    ids=["t=1", "t=inf", "hard"],
)


class TestRefineSlicing:
    """A refine chunk is one target call of max_batch rows."""

    Q = VariationalDist(mu=[-2.7], log_var=[4.14], family="student-t", nu=10.0)

    @staticmethod
    def _run(q, target, config, goal, seed):
        """refine's result and the stream's next draw after it."""
        rng = np.random.default_rng(seed)
        return refine(q, target, config, rng, goal), rng.random()

    @_CONFIGS
    def test_max_batch_gives_identical_results(self, gmm_target, config):
        # 4096 and 10^5 are capped at the default, which the mixture takes, so
        # the chunks, and so the draws, are the default's
        targets = [_with_max_batch(gmm_target, m) for m in (4096, 10**5)] + [gmm_target]
        results = [self._run(self.Q, target, config, 1500, 21) for target in targets]
        base, base_next = results[-1]
        assert base.proposals_used > _MAX_BATCH  # the goal spans more than one chunk
        for sset, next_draw in results:
            assert np.array_equal(sset.accepted, base.accepted)
            assert sset.proposals_used == base.proposals_used
            assert sset.log_Z_R_hat == base.log_Z_R_hat
            assert next_draw == base_next  # the stream is left where it was

    @_CONFIGS
    @pytest.mark.parametrize("m", [1, 7])
    def test_small_max_batch_is_the_chunk(self, gmm_target, config, m, monkeypatch):
        sset, next_draw = self._run(self.Q, _with_max_batch(gmm_target, m), config, 300, 21)
        # the cap reads the module constant, so a default target built under
        # it draws m-proposal chunks
        monkeypatch.setattr(distributions_module, "_MAX_BATCH", m)
        default = make_gmm_target(four_mode_gmm_spec())
        assert default.max_batch == m
        ref, ref_next = self._run(self.Q, default, config, 300, 21)
        assert np.array_equal(sset.accepted, ref.accepted)
        assert sset.proposals_used == ref.proposals_used
        assert sset.log_Z_R_hat == ref.log_Z_R_hat
        assert next_draw == ref_next

    def test_refinement_error_diagnostics_unchanged(self, monkeypatch):
        # max_batch = 7 reports what a default target capped at 7 rows reports
        q = VariationalDist(mu=[0.0], log_var=[0.5])
        config = RefinementConfig(T=-200.0, softmin_t=math.inf)

        def error(target):
            with pytest.raises(RefinementError) as err:
                refine(q, target, config, np.random.default_rng(5), 10, max_proposals=5000)
            return err.value

        small = error(_with_max_batch(normal_target(0.0, 1.0), 7))
        monkeypatch.setattr(distributions_module, "_MAX_BATCH", 7)
        ref = error(normal_target(0.0, 1.0))
        assert small.proposals_used == ref.proposals_used == 5000
        assert small.min_L == ref.min_L
        assert small.mean_L == ref.mean_L

    @pytest.mark.parametrize("goal", [100, 2000])
    def test_evaluates_only_what_is_consumed(self, gmm_target, goal):
        max_batch = 64
        counts = []
        target = _with_max_batch(gmm_target, max_batch, counts)
        config = RefinementConfig(T=-1.0)
        sset = refine(self.Q, target, config, np.random.default_rng(3), goal)
        assert counts == [max_batch] * len(counts)  # one call per chunk
        assert 0 <= sum(counts) - sset.proposals_used < max_batch
        if goal == 100:
            assert sum(counts) < _MAX_BATCH // 4  # whole-chunk evaluation would take 4096

    def test_peak_memory_follows_max_batch(self):
        # P = 751, the boston weight space: one 4096-row chunk of points is 24.6 MB
        q = VariationalDist(mu=np.zeros(751), log_var=np.zeros(751))
        target = _with_max_batch(dist_target(q), 87)
        config = RefinementConfig(T=0.0)  # L = 0, so a = 1/2 everywhere
        sset, peak, _ = peak_traced_bytes(
            lambda: refine(q, target, config, np.random.default_rng(7), 100)
        )
        assert sset.proposals_used > 87  # more than one chunk
        assert peak < 8 * _MAX_BATCH * 751 / 4  # about 2.5 MB; a 4096-row chunk peaks near 49

    def test_pilot_respects_max_batch(self, gmm_target):
        counts = []
        target = _with_max_batch(gmm_target, 50, counts)
        T, L = pilot_threshold(self.Q, target, 0.1, 1000, np.random.default_rng(4))
        T_whole, L_whole = pilot_threshold(
            self.Q, gmm_target, 0.1, 1000, np.random.default_rng(4)
        )
        assert counts == [50] * 20
        assert T == T_whole and np.array_equal(L, L_whole)


class TestEmpiricalPdf:
    def test_refined_gmm_has_four_modes(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(2.0)
        batch = draw_batch(q, gmm_target, rng, 3000)
        T = select_T_low_dim(estimate_renyi(2.0, batch))
        config = RefinementConfig(T=T, softmin_t=1.0)
        sset = refine(q, gmm_target, config, np.random.default_rng(2), n_accept_goal=10_000)
        density, edges = np.histogram(
            sset.accepted[:, 0], bins=130, range=(-16.0, 10.0), density=True
        )
        centers = 0.5 * (edges[:-1] + edges[1:])
        for mode in (-12.0, -6.0, 0.0, 6.0):
            idx = int(np.argmin(np.abs(centers - mode)))
            assert density[idx] > density[idx - 5]
            assert density[idx] > density[idx + 5]


class TestConfigInvariants:
    def test_quantile_rule_needs_gamma(self):
        for gamma in (1.5, -0.1):
            with pytest.raises(ValidationError, match="gamma"):
                select_T_quantile([1.0, 2.0, 3.0], gamma)

    def test_invalid_counts_rejected(self, rng):
        target = normal_target(0.0, 1.0)
        q = VariationalDist(mu=[0.0], log_var=[0.0])
        config = RefinementConfig(T=0.0)
        for kwargs, name in (
            ({"n_accept_goal": 0}, "n_accept_goal"),
            ({"n_accept_goal": 2.5}, "n_accept_goal"),
            ({"n_accept_goal": True}, "n_accept_goal"),
            ({"n_accept_goal": 5, "max_proposals": 0}, "max_proposals"),
            ({"n_accept_goal": 5, "max_proposals": 2.5}, "max_proposals"),
        ):
            with pytest.raises(ValidationError, match=f"{name} must be an integer >= 1"):
                refine(q, target, config, rng, **kwargs)
        with pytest.raises(ValidationError, match="S must be an integer >= 1"):
            pilot_threshold(q, target, 0.1, 2.5, rng)
        sset = refine(q, target, RefinementConfig(T=math.inf), rng, np.int64(5),
                      max_proposals=np.int64(50))
        assert sset.n_accepted == 5

    def test_softmin_positive(self):
        with pytest.raises(ValidationError):
            RefinementConfig(T=0.0, softmin_t=0.0)

    def test_nan_T_rejected_infinite_T_accepts_everything(self, rng):
        for kw in ({}, {"softmin_t": math.inf}, {"hard_cutoff": True}):
            with pytest.raises(ValidationError, match="T must"):
                RefinementConfig(T=math.nan, **kw)
        target = normal_target(0.0, 1.0)
        q = VariationalDist(mu=[0.5], log_var=[0.0])
        config = RefinementConfig(T=math.inf)
        sset = refine(q, target, config, rng, n_accept_goal=50)
        assert sset.proposals_used == 50 and sset.log_Z_R_hat == 0.0
        batch = draw_batch(q, target, rng, 1000)
        refined = estimate_renyi_refined(2.0, batch, config)
        assert refined.value == pytest.approx(estimate_renyi(2.0, batch).value, abs=1e-12)

    def test_infinite_T_rejects_where_target_is_zero(self):
        # uniform p on [-1, 1]: L = +inf outside, where log a must be -inf under
        # every law, not the NaN of inf - inf; elsewhere T = inf accepts all
        target = TargetDensity(
            dim=1,
            log_unnorm=lambda pts: np.where(np.abs(pts[:, 0]) <= 1.0, -math.log(2.0), -np.inf),
        )
        q = VariationalDist(mu=[0.0], log_var=[2 * math.log(0.6)])
        batch = draw_batch(q, target, np.random.default_rng(1), 2000)
        p_zero = np.isposinf(batch.L_vals)
        assert p_zero.any()
        for kw in ({}, {"softmin_t": 3.0}, {"softmin_t": math.inf}, {"hard_cutoff": True}):
            la = RefinementConfig(T=math.inf, **kw).log_accept(batch.L_vals)
            assert np.array_equal(np.isneginf(la), p_zero) and (la[~p_zero] == 0.0).all()
        est = estimate_renyi_refined(2.0, batch, RefinementConfig(T=math.inf))
        near = estimate_renyi_refined(2.0, batch, RefinementConfig(T=1e308))
        assert (est.value, est.std_error) == (near.value, near.std_error)
        assert math.isfinite(est.value)
        sset = refine(q, target, RefinementConfig(T=math.inf), np.random.default_rng(0), 100)
        assert sset.n_accepted == 100 and sset.proposals_used > 100
        # refine sums log a in the log domain: log(n) - log(used), not log(n / used)
        assert sset.log_Z_R_hat == pytest.approx(
            math.log(sset.n_accepted / sset.proposals_used), rel=1e-12
        )

    def test_pilot_threshold_targets_gamma_mass(self, gmm_target, fitted_gmm_q):
        q = fitted_gmm_q(2.0)
        T, L = pilot_threshold(q, gmm_target, 0.3, 2000, np.random.default_rng(6))
        assert (L <= T).mean() == pytest.approx(0.3, abs=0.001)
