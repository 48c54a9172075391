import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from alphadrs import (
    DegenerateBatchError,
    DivergenceEstimate,
    RefinementConfig,
    TargetDensity,
    ValidationError,
    VariationalDist,
    WeightedBatch,
    batch_from_points,
    draw_batch,
    estimate_kl_limit,
    estimate_log_M,
    estimate_renyi,
    estimate_renyi_refined,
    quadrature_renyi_1d,
    log_q,
    sample_reparam,
)
from alphadrs.cli import _estimate_lines
from alphadrs.divergence import GridTooCoarseError
from alphadrs.oracles import dist_target, gaussian_kl, gaussian_renyi, normal_target


def gauss(mu, scale):
    return VariationalDist(mu=[mu], log_var=[2 * math.log(scale)])


class TestWeightedBatch:
    def test_L_identity_enforced(self):
        # the batch is L alone: it keeps no points, and L cannot be edited
        with pytest.raises(TypeError):
            WeightedBatch(points=np.zeros((2, 1)), L_vals=np.array([0.1, 0.0]))
        b = WeightedBatch(np.array([0.5, np.inf]))
        np.testing.assert_array_equal(b.L_vals, [0.5, np.inf])
        with pytest.raises(ValueError):
            b.L_vals[0] = 0.1
        for bad in (np.zeros(0), np.zeros((2, 1)), 0.5):
            with pytest.raises(ValidationError):
                WeightedBatch(bad)

    def test_from_points_consistent(self, rng):
        q = gauss(0.0, 1.0)
        target = normal_target(1.0, 1.0)
        pts, _ = sample_reparam(q, rng, 16)
        b = batch_from_points(q, target, pts)
        np.testing.assert_array_equal(b.L_vals, log_q(q, pts) - target.log_unnorm(pts))
        assert b.size == 16

    def test_keeps_one_array(self):
        # a drawn batch retains its (S,) float64 L and nothing else
        S = 100_000
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            b = draw_batch(gauss(0.0, 1.0), normal_target(1.0, 1.0), rng, S)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b.size == S
        assert retained <= 8 * S + 64 * 1024

    def test_report_line_schema(self):
        est = DivergenceEstimate(2.0, 1.25, 0.01, 1000)
        lines = _estimate_lines([est])
        assert lines[0].split(",") == ["alpha", "value", "std_error", "samples"]
        assert lines[1:] == ["2,1.25,0.01,1000"]


class TestEstimateRenyi:
    def test_identical_distributions_near_zero(self, rng):
        q = gauss(0.3, 1.2)
        b = draw_batch(q, dist_target(q), rng, 100_000)
        for alpha in (0.5, 2.0, 5.0):
            est = estimate_renyi(alpha, b)
            assert abs(est.value) < 3 * est.std_error + 1e-12

    def test_unit_gaussians_shifted_mean(self, rng):
        # closed form: alpha * dmu^2 / (2 sigma^2) = 1.0 nat at alpha=2
        b = draw_batch(gauss(1.0, 1.0), normal_target(0.0, 1.0), rng, 100_000)
        est = estimate_renyi(2.0, b)
        assert est.value == pytest.approx(1.0, abs=3 * est.std_error)

    def test_alpha_one_rejected(self, rng):
        b = draw_batch(gauss(0, 1), normal_target(0, 1), rng, 10)
        with pytest.raises(ValidationError, match="kl_limit"):
            estimate_renyi(1.0, b)

    def test_degenerate_batch(self):
        b = WeightedBatch(np.full(3, np.inf))
        with pytest.raises(DegenerateBatchError):
            estimate_renyi(2.0, b)

    def test_log_Z_offset(self, rng):
        # scaling p~ by e^c changes nothing once the known normalizer is supplied
        q = gauss(1.0, 1.0)
        pts, _ = sample_reparam(q, rng, 5000)
        b = batch_from_points(q, normal_target(0.0, 1.0), pts)
        c = math.log(10.0)
        est_plain = estimate_renyi(2.0, b, log_Z_p=0.0)
        shifted = WeightedBatch(b.L_vals - c)
        est_scaled = estimate_renyi(2.0, shifted, log_Z_p=c)
        assert est_scaled.value == pytest.approx(est_plain.value, rel=1e-10)

    def test_monotone_in_alpha_on_gmm_fit(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(2.0)
        b = draw_batch(q, gmm_target, rng, 20_000)
        values = [estimate_renyi(a, b).value for a in (1.5, 2.0, 5.0, 11.0)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)

    def test_log_M_dominates_renyi(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(2.0)
        b = draw_batch(q, gmm_target, rng, 20_000)
        log_m = estimate_log_M(b)
        for alpha in (1.5, 2.0, 5.0, 11.0, 21.0):
            est = estimate_renyi(alpha, b)
            assert est.value <= log_m + est.std_error


class TestKlLimit:
    def test_identical_distributions(self, rng):
        q = gauss(-0.7, 0.9)
        b = draw_batch(q, dist_target(q), rng, 100_000)
        est = estimate_kl_limit(b)
        assert est.alpha == 1.0
        assert abs(est.value) < 3 * est.std_error + 1e-12

    def test_shifted_unit_gaussians(self, rng):
        b = draw_batch(gauss(1.0, 1.0), normal_target(0.0, 1.0), rng, 100_000)
        est = estimate_kl_limit(b)
        assert gaussian_kl(0, 1, 1, 1) == 0.5
        assert est.value == pytest.approx(0.5, abs=3 * est.std_error)

    def test_scale_mismatch(self, rng):
        b = draw_batch(gauss(0.0, 2.0), normal_target(0.0, 1.0), rng, 100_000)
        expected = gaussian_kl(0, 1, 0, 4)
        assert expected == pytest.approx(0.3181, abs=5e-5)
        est = estimate_kl_limit(b)
        assert est.value == pytest.approx(expected, abs=3 * est.std_error)

    def test_exclusive_direction(self, rng):
        b = draw_batch(gauss(0.0, 2.0), normal_target(0.0, 1.0), rng, 100_000)
        est = estimate_kl_limit(b, direction="exclusive")
        expected = gaussian_kl(0, 4, 0, 1)
        assert est.value == pytest.approx(expected, abs=3 * est.std_error)

    def test_known_normalizer_branch(self, rng):
        b = draw_batch(gauss(1.0, 1.0), normal_target(0.0, 1.0), rng, 100_000)
        est = estimate_kl_limit(b, log_Z_p=0.0)
        assert est.value == pytest.approx(0.5, abs=3 * est.std_error)

    def test_low_ess_flagged(self, rng):
        # narrow target far in the proposal tail: one weight dominates
        b = draw_batch(gauss(0.0, 1.0), normal_target(4.0, 0.01), rng, 2000)
        est = estimate_kl_limit(b)
        assert "low-ess" in est.flags

    def test_zero_target_density(self):
        # uniform p on [-1, 1]: a sample outside has log p~ = -inf and weight 0.
        # Inclusively it adds nothing; exclusively q has mass where p = 0, so
        # KL(q || p) is infinite, with an infinite se
        target = TargetDensity(
            dim=1,
            log_unnorm=lambda pts: np.where(np.abs(pts[:, 0]) <= 1.0, -math.log(2.0), -np.inf),
        )
        b = draw_batch(gauss(0.0, 0.6), target, np.random.default_rng(21), 20_000)
        assert np.isposinf(b.L_vals).any()
        expected = -math.log(2.0) + 0.5 * math.log(2 * math.pi * 0.36) + 1.0 / (3 * 0.72)
        assert expected == pytest.approx(0.17793, abs=5e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for log_Z_p in (None, 0.0):
                est = estimate_kl_limit(b, log_Z_p=log_Z_p)
                assert math.isfinite(est.std_error) and est.std_error > 0
                assert est.value == pytest.approx(expected, abs=3 * est.std_error)
            for log_Z_p in (None, 0.0):
                est = estimate_kl_limit(b, log_Z_p=log_Z_p, direction="exclusive")
                assert (est.value, est.std_error) == (math.inf, math.inf)


class TestRefinedEstimator:
    def test_huge_T_recovers_plain_estimate(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(2.0)
        b = draw_batch(q, gmm_target, rng, 3000)
        plain = estimate_renyi(2.0, b)
        config = RefinementConfig(T=1e6, softmin_t=1.0)
        refined = estimate_renyi_refined(2.0, b, config)
        assert refined.value == pytest.approx(plain.value, abs=1e-9)

    def test_matches_quadrature_of_refined_density(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(2.0)
        b = draw_batch(q, gmm_target, rng, 100_000)
        est = estimate_renyi(2.0, b)
        T = -est.value
        config = RefinementConfig(T=T, softmin_t=1.0)
        refined = estimate_renyi_refined(2.0, b, config)

        def log_r(x):
            pts = x[:, None]
            lp = gmm_target.log_unnorm(pts)
            lq = log_q(q, pts)
            return lq + config.log_accept(lq - lp)

        quad = quadrature_renyi_1d(
            lambda x: gmm_target.log_unnorm(x[:, None]), log_r, 2.0, (-60, 60, 200_001)
        )
        assert refined.value == pytest.approx(quad, abs=3 * refined.std_error)

    def test_zero_target_density_is_no_hard_cutoff(self):
        # uniform p on [-1, 1]: log p~ = -inf outside, so L = +inf and la = -inf
        # there under every law; those samples add nothing, they do not make
        # the divergence infinite
        target = TargetDensity(
            dim=1,
            log_unnorm=lambda pts: np.where(np.abs(pts[:, 0]) <= 1.0, -math.log(2.0), -np.inf),
        )
        q = gauss(0.0, 0.6)
        b = draw_batch(q, target, np.random.default_rng(21), 20_000)
        assert estimate_renyi(2.0, b).value == pytest.approx(0.269, abs=0.02)
        log_p = lambda x: np.full_like(x, -math.log(2.0))
        for T in (-0.269, 0.5, 5.0):
            config = RefinementConfig(T=T)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = estimate_renyi_refined(2.0, b, config)
            assert est.flags == ()

            def log_r(x):
                lq = log_q(q, x[:, None])
                return lq + config.log_accept(lq - log_p(x))

            quad = quadrature_renyi_1d(log_p, log_r, 2.0, (-1.0, 1.0, 20_001))
            assert est.value == pytest.approx(quad, abs=3 * est.std_error)
        # a hard cutoff that rejects points where p~ > 0 is still infinite
        hard = estimate_renyi_refined(2.0, b, RefinementConfig(T=0.0, hard_cutoff=True))
        assert hard.value == math.inf and hard.flags == ("degenerate",)

    def test_refinement_improves_across_T_grid(self, gmm_target, fitted_gmm_q, rng):
        for alpha in (2.0, 11.0, 16.0, 21.0):
            q = fitted_gmm_q(alpha)
            b = draw_batch(q, gmm_target, rng, 3000)
            plain = estimate_renyi(alpha, b)
            for dT in np.linspace(-5.0, 5.0, 9):
                config = RefinementConfig(T=-plain.value + dT)
                refined = estimate_renyi_refined(alpha, b, config)
                budget = 3 * math.hypot(plain.std_error, refined.std_error)
                assert refined.value <= plain.value + budget


class TestQuadratureOracle:
    def test_identical_densities_zero(self):
        f = lambda x: -0.5 * (x**2 + math.log(2 * math.pi))
        assert abs(quadrature_renyi_1d(f, f, 2.0, (-12, 12, 40_001))) < 1e-10

    def test_closed_form_shifted_gaussians(self):
        p = lambda x: -0.5 * (x**2 + math.log(2 * math.pi))
        r = lambda x: -0.5 * ((x - 1.0) ** 2 + math.log(2 * math.pi))
        val = quadrature_renyi_1d(p, r, 2.0, (-14, 15, 120_001))
        assert val == pytest.approx(gaussian_renyi(2.0, 0, 1, 1, 1), abs=1e-6)
        assert gaussian_renyi(2.0, 0, 1, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_scale_pair_alpha_half(self):
        p = lambda x: -0.5 * (x**2 + math.log(2 * math.pi))
        r = lambda x: -0.5 * (x**2 / 4 + math.log(2 * math.pi * 4))
        val = quadrature_renyi_1d(p, r, 0.5, (-30, 30, 120_001))
        expected = gaussian_renyi(0.5, 0, 1, 0, 4)
        # sigma_alpha^2 = 0.5*4 + 0.5*1 = 2.5 => D = 2 ln(sqrt(2.5)/2^0.5) = ln(1.25)
        assert expected == pytest.approx(math.log(1.25), abs=1e-12)
        assert val == pytest.approx(expected, abs=1e-6)

    def test_unnormalized_input_allowed(self):
        p = lambda x: -0.5 * (x**2 + math.log(2 * math.pi))
        r = lambda x: -0.5 * ((x - 1.0) ** 2 + math.log(2 * math.pi)) + 3.3
        val = quadrature_renyi_1d(p, r, 2.0, (-14, 15, 120_001))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_coarse_grid_rejected(self):
        p = lambda x: -0.5 * (x**2 + math.log(2 * math.pi))
        with pytest.raises(GridTooCoarseError):
            quadrature_renyi_1d(p, p, 2.0, (-12, 12, 7))


class TestLogM:
    def test_identical_near_zero_from_below(self, rng):
        q = gauss(0.0, 1.0)
        b = draw_batch(q, dist_target(q), rng, 50_000)
        val = estimate_log_M(b)
        assert -1e-9 <= -val  # ratio <= 1 everywhere, so max log ratio <= 0
        assert val == pytest.approx(0.0, abs=1e-3)

    def test_monotone_in_batch_size(self, rng):
        q = gauss(0.0, 2.0)
        target = normal_target(0.0, 1.0)
        pts, _ = sample_reparam(q, rng, 10_000)
        sub = batch_from_points(q, target, pts[:1000])
        full = batch_from_points(q, target, pts)
        assert estimate_log_M(full) >= estimate_log_M(sub)

    def test_converges_to_log_scale_ratio(self):
        # sup p/q is at x=0 and equals sigma_q/sigma_p = 2
        q = gauss(0.0, 2.0)
        target = normal_target(0.0, 1.0)
        vals = []
        for S in (1000, 100_000):
            b = draw_batch(q, target, np.random.default_rng(5), S)
            vals.append(estimate_log_M(b))
        assert vals[-1] <= math.log(2.0) + 1e-12
        assert vals[-1] == pytest.approx(math.log(2.0), abs=1e-3)
        assert vals[-1] >= vals[0] - 1e-12


class TestPackageStructure:
    def test_no_intra_package_import_cycle(self):
        # every relative import, function-level ones included, as module -> module
        src = Path(__file__).resolve().parents[1] / "src" / "alphadrs"
        graph = {}
        for path in sorted(src.glob("*.py")):
            deps = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    if node.module:
                        deps.add(node.module.split(".")[0])
                    else:
                        deps.update(alias.name for alias in node.names)
            graph[path.stem] = deps
        assert "divergence" in graph and "drs" in graph["bnn"]
        done, on_path = set(), []

        def visit(mod):
            assert mod not in on_path, f"import cycle: {' -> '.join(on_path + [mod])}"
            if mod in done or mod not in graph:
                return
            on_path.append(mod)
            for dep in sorted(graph[mod]):
                visit(dep)
            on_path.pop()
            done.add(mod)

        for mod in graph:
            visit(mod)

    def test_no_unused_imports(self):
        # every name a module imports is used in it or re-exported in __all__;
        # the package __init__ re-exports by design and __future__ is no name
        src = Path(__file__).resolve().parents[1] / "src" / "alphadrs"
        unused = []
        for path in sorted(src.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported, exported = {}, set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    exported = set(ast.literal_eval(node.value))
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unused += [
                f"{path.name}:{line} {name}"
                for name, line in sorted(imported.items())
                if name not in used and name not in exported
            ]
        assert not unused, f"imported but never used: {unused}"

    def test_only_cli_opens_files(self):
        # the report formats live in cli; the library layers write no file
        src = Path(__file__).resolve().parents[1] / "src" / "alphadrs"
        opened = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            if path.name != "cli.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "open"
                 or getattr(node.func, "attr", None) == "open")
        ]
        assert not opened, f"open() outside cli: {opened}"
