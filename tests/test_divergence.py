import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from alphadrs import (
    STUDENT_T,
    DegenerateBatchError,
    DivergenceEstimate,
    RefinementConfig,
    TargetDensity,
    ValidationError,
    VariationalDist,
    WeightedBatch,
    batch_from_points,
    draw_batch,
    estimate_log_M,
    estimate_renyi,
    estimate_renyi_refined,
    quadrature_renyi_1d,
    log_q,
    sample_reparam,
)
from alphadrs.cli import _estimate_lines
from alphadrs.divergence import GridTooCoarseError, _log_mean_exp_with_se
from alphadrs.oracles import dist_target, gaussian_renyi, normal_target
from conftest import peak_traced_bytes


def gauss(mu, scale):
    return VariationalDist(mu=[mu], log_var=[2 * math.log(scale)])


# a t(10) proposal near the alpha = 2 fit of the four-mode mixture
T10_Q = VariationalDist(mu=[-2.7], log_var=[4.14], family=STUDENT_T, nu=10.0)


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
        b, _, retained = peak_traced_bytes(
            draw_batch, gauss(0.0, 1.0), normal_target(1.0, 1.0), rng, S
        )
        assert b.size == S
        assert retained <= 8 * S + 64 * 1024

    def test_mixture_batch_peak_memory(self, gmm_target):
        # the mixture is evaluated in 4096-row slices: 24 MB measured at 10^6
        # rows, 104 MB when one call held its (4, n) component arrays
        n = 10**6
        points, _ = sample_reparam(T10_Q, np.random.default_rng(2), n)
        _, peak, _ = peak_traced_bytes(batch_from_points, T10_Q, gmm_target, points)
        assert peak <= 4 * 8 * n

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
        with pytest.raises(ValidationError, match="alpha = 1 is singular"):
            estimate_renyi(1.0, b)

    @pytest.mark.parametrize(
        "alpha,message",
        [(math.inf, "positive and finite"), (math.nan, "positive and finite"),
         (0.0, "positive and finite"), (1.0, "alpha = 1 is singular")],
    )
    def test_bad_order_rejected_by_every_estimator(self, rng, alpha, message):
        # an infinite order used to reach the batch as "all log weights are -inf",
        # and quadrature returned nan for a nan order
        b = draw_batch(gauss(0, 1), normal_target(0, 1), rng, 10)
        f = lambda x: -0.5 * x**2
        for estimate in (
            lambda: estimate_renyi(alpha, b),
            lambda: estimate_renyi_refined(alpha, b, RefinementConfig(T=0.0)),
            lambda: quadrature_renyi_1d(f, f, alpha, (-12, 12, 4001)),
        ):
            with pytest.raises(ValidationError, match=message):
                estimate()

    def test_degenerate_batch(self):
        b = WeightedBatch(np.full(3, np.inf))
        with pytest.raises(DegenerateBatchError):
            estimate_renyi(2.0, b)

    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 4097, 100_003, 10**6])
    def test_stderr_has_np_std_bits(self, n):
        # the stderr repeats np.std(ddof=1)'s steps in place, so it keeps its bits
        rng = np.random.default_rng(n)
        heavy = 3.0 * rng.standard_t(2, n)
        heavy[1::7] = -np.inf  # exp gives exact zeros
        for a in (rng.normal(0.0, 1.0, n), heavy, -rng.exponential(30.0, n)):
            before = a.copy()
            t = np.exp(a - a.max())
            want = float(t.std(ddof=1) / (math.sqrt(n) * t.mean()))
            assert _log_mean_exp_with_se(a)[1] == want
            assert np.array_equal(a, before)  # the caller's array is not touched
        assert _log_mean_exp_with_se(np.array([0.3]))[1] == math.inf

    def test_log_Z_offset(self, rng):
        # p~ must be normalized: scaling it by e^c moves the estimate by alpha c / (alpha - 1)
        q = gauss(1.0, 1.0)
        pts, _ = sample_reparam(q, rng, 5000)
        b = batch_from_points(q, normal_target(0.0, 1.0), pts)
        c = math.log(10.0)
        est_plain = estimate_renyi(2.0, b)
        est_scaled = estimate_renyi(2.0, WeightedBatch(b.L_vals - c))
        assert est_scaled.value == pytest.approx(est_plain.value + 2.0 * c, rel=1e-10)

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


class TestRefinedEstimator:
    def test_huge_T_recovers_plain_estimate(self, gmm_target, fitted_gmm_q, rng):
        q = fitted_gmm_q(2.0)
        b = draw_batch(q, gmm_target, rng, 3000)
        plain = estimate_renyi(2.0, b)
        config = RefinementConfig(T=1e6, softmin_t=1.0)
        refined = estimate_renyi_refined(2.0, b, config)
        assert refined.value == pytest.approx(plain.value, abs=1e-9)

    @pytest.mark.parametrize("alpha", [2.0, 0.5])
    @pytest.mark.parametrize("softmin_t", [1.0, math.inf])
    def test_acceptance_below_the_float_range(self, alpha, softmin_t):
        # p = q, so L = 0 and D(p || r) = 0 for every T; at T = -800 every
        # acceptance e^-800 underflows, and log Z_R must still come out -800
        b = draw_batch(gauss(0.0, 1.0), normal_target(0.0, 1.0), np.random.default_rng(4), 2000)
        est = estimate_renyi_refined(alpha, b, RefinementConfig(T=-800.0, softmin_t=softmin_t))
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert math.isfinite(est.std_error)

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

    def test_peak_memory_holds_one_log_array(self, gmm_target):
        # the log terms overwrite the log acceptance, and log_accept and the
        # log-mean-exp each work in one buffer beside it: two (n,) float arrays
        # and the (n,) p~ = 0 mask, 17.0 MB measured at 10^6 rows (25.0 MB when
        # the stderr came from np.std and log_accept held its temporaries)
        n = 10**6
        b = draw_batch(T10_Q, gmm_target, np.random.default_rng(3), n)
        config = RefinementConfig(T=-estimate_renyi(2.0, b).value)
        _, peak, _ = peak_traced_bytes(estimate_renyi_refined, 2.0, b, config)
        assert peak <= (2 * 8 + 1) * n + 256 * 1024

    @staticmethod
    def _where_form(alpha, batch, config):
        """(value, se) from the log terms as one np.where over two (n,) arrays,
        each log-mean-exp with an out-of-place exp: the form the in-place one
        replaced, kept to pin its bits."""
        def log_mean_exp_with_se(a):
            m = np.max(a)
            t = np.exp(a - m)
            mean_t = t.mean()
            return m + math.log(mean_t), float(t.std(ddof=1) / (math.sqrt(a.size) * mean_t))

        la = config.log_accept(batch.L_vals)
        p_zero = np.isposinf(batch.L_vals)
        with np.errstate(invalid="ignore"):
            log_terms = np.where(p_zero, -np.inf, (1.0 - alpha) * la - alpha * batch.L_vals)
        log_mean, rel_se = log_mean_exp_with_se(log_terms)
        log_Z_R, se_z = log_mean_exp_with_se(la)
        return log_Z_R + log_mean / (alpha - 1), math.hypot(rel_se / abs(alpha - 1), se_z)

    @pytest.mark.parametrize("law", ["t=1", "t=4", "t=inf", "hard", "T=inf"])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 11.0])
    def test_bits_match_the_where_form(self, gmm_target, alpha, law):
        L = draw_batch(T10_Q, gmm_target, np.random.default_rng(9), 20_000).L_vals.copy()
        L[::50] = np.inf  # p~ = 0 at every 50th sample
        b = WeightedBatch(L)
        T = -estimate_renyi(2.0, WeightedBatch(L[np.isfinite(L)])).value
        if law == "hard" and alpha > 1:
            T = float(np.max(L[np.isfinite(L)]))  # a lower cutoff is infinite
        config = {
            "t=1": RefinementConfig(T=T),
            "t=4": RefinementConfig(T=T, softmin_t=4.0),
            "t=inf": RefinementConfig(T=T, softmin_t=math.inf),
            "hard": RefinementConfig(T=T, hard_cutoff=True),
            "T=inf": RefinementConfig(T=math.inf),
        }[law]
        est = estimate_renyi_refined(alpha, b, config)
        value, se = self._where_form(alpha, b, config)
        assert (est.value.hex(), est.std_error.hex()) == (value.hex(), se.hex())
        assert est.flags == ()


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
        # bnn is the top application layer: only cli builds on it
        assert sorted(mod for mod, deps in graph.items() if "bnn" in deps) == ["cli"]
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

    def test_every_public_function_is_reached(self):
        # each function a layer exports is referenced somewhere in src outside its
        # own def; re-exports in __init__ do not count, and oracles (helpers
        # for divergence-check and the tests) is not audited
        src = Path(__file__).resolve().parents[1] / "src" / "alphadrs"
        trees = {
            path.stem: ast.parse(path.read_text())
            for path in sorted(src.glob("*.py"))
            if path.name != "__init__.py"
        }
        uses = []  # (module, enclosing top-level def or None, referenced name)
        for mod, tree in trees.items():
            for top in tree.body:
                owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        uses.append((mod, owner, node.id))
                    elif isinstance(node, ast.Attribute):
                        uses.append((mod, owner, node.attr))
                    elif isinstance(node, ast.alias):
                        uses.append((mod, owner, node.name))
        unreached = []
        for mod in ("distributions", "divergence", "drs", "rdvi", "bnn"):
            tree = trees[mod]
            exported = next(
                ast.literal_eval(node.value)
                for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            )
            functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            for name in sorted(functions & set(exported)):
                if not any(
                    used == name and not (m == mod and owner == name) for m, owner, used in uses
                ):
                    unreached.append(f"{mod}.{name}")
        assert not unreached, f"exported but reached by nothing in src: {unreached}"

    # options that no call in src sets, each kept for a caller outside it
    KEPT_OPTIONS = {
        "drs.refine.max_proposals": "criteria 5 and 6 fix their proposal budgets with it",
        "bnn.refine_bnn.pilot_size": "the memory and slicing tests run a 200-row pilot",
        "bnn.refine_bnn.n_accept_goal": "the bnn tests refine to goals of 20 to 150 samples",
        "bnn.fit_bnn.hidden": "perfbench/tracer.py::_fit_bnn_counts binds it by name",
        "bnn.fit_bnn.minibatch_size": "perfbench/tracer.py::_fit_bnn_counts binds it by name",
        "distributions.VariationalDist.nu": "perfbench/workloads.py passes it by name",
        "divergence.RefinementConfig.alpha": "perfbench/workloads.py passes it by name",
        "divergence.RefinementConfig.hard_cutoff": "criterion 6 and the drs tests set it",
    }

    def test_every_option_is_set_by_a_caller(self):
        # each parameter with a default, on each function a layer exports, and each
        # defaulted init field of each dataclass it exports, is passed by position
        # or keyword in some call in src outside the function's or class's own body
        # (a dataclasses.replace call whose first argument names the class sets
        # fields by keyword); a value equal to the default sets nothing, and a
        # module-level constant counts as its value
        src = Path(__file__).resolve().parents[1] / "src" / "alphadrs"
        trees = {
            path.stem: ast.parse(path.read_text())
            for path in sorted(src.glob("*.py"))
            if path.name != "__init__.py"
        }
        constants = {}  # (module, name) -> literal value
        for mod, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    try:
                        constants[mod, node.targets[0].id] = ast.literal_eval(node.value)
                    except (AttributeError, ValueError):  # no name, or no literal
                        pass
        for mod, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.level and node.module:
                    for alias in node.names:
                        if (node.module, alias.name) in constants:
                            constants[mod, alias.asname or alias.name] = constants[
                                node.module, alias.name
                            ]
        calls = []  # (module, enclosing top-level def or None, call)
        for mod, tree in trees.items():
            for top in tree.body:
                owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                calls += [(mod, owner, n) for n in ast.walk(top) if isinstance(n, ast.Call)]

        def literal(mod, node):
            if isinstance(node, ast.Name) and (mod, node.id) in constants:
                return constants[mod, node.id]
            return ast.literal_eval(node)

        def sets(mod, call, position, name, default):
            # default: the default's value, or None when it is no literal
            if position is not None and position < len(call.args):
                value = call.args[position]
            else:
                value = next((k.value for k in call.keywords if k.arg == name), None)
            if value is None:
                return False
            try:
                return default is None or literal(mod, value) != default[0]
            except ValueError:  # a passed value that is no literal
                return True

        def called(call, name):
            return name in (getattr(call.func, a, None) for a in ("id", "attr"))

        def replaced(call, cls):
            # a dataclasses.replace call whose first argument names the class
            return called(call, "replace") and bool(call.args) and any(
                getattr(n, "id", None) == cls for n in ast.walk(call.args[0])
            )

        def is_dataclass(node):
            return any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            )

        def field_call(value):
            return isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"

        def field_default(value):
            # field(default=...)'s value; a default_factory leaves the call, no literal
            if field_call(value):
                return next((k.value for k in value.keywords if k.arg == "default"), value)
            return value

        unset = set()
        for mod in ("distributions", "divergence", "drs", "rdvi", "bnn"):
            tree = trees[mod]
            exported = next(
                ast.literal_eval(node.value)
                for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            )
            for top in tree.body:
                if isinstance(top, ast.FunctionDef) and top.name in exported:
                    positional = top.args.posonlyargs + top.args.args
                    first = len(positional) - len(top.args.defaults)  # first with a default
                    options = [
                        (i, positional[i].arg, d) for i, d in enumerate(top.args.defaults, first)
                    ] + [
                        (None, a.arg, d)
                        for a, d in zip(top.args.kwonlyargs, top.args.kw_defaults)
                        if d is not None
                    ]
                elif isinstance(top, ast.ClassDef) and top.name in exported and is_dataclass(top):
                    fields = [
                        f for f in top.body
                        if isinstance(f, ast.AnnAssign)
                        and not (field_call(f.value) and any(
                            k.arg == "init" and not ast.literal_eval(k.value)
                            for k in f.value.keywords
                        ))
                    ]
                    options = [
                        (i, f.target.id, field_default(f.value))
                        for i, f in enumerate(fields)
                        if f.value is not None
                    ]
                else:
                    continue
                for position, name, default_node in options:
                    try:
                        default = (literal(mod, default_node),)
                    except ValueError:
                        default = None
                    if not any(
                        not (m == mod and owner == top.name)
                        and (
                            (called(call, top.name) and sets(m, call, position, name, default))
                            or (isinstance(top, ast.ClassDef) and replaced(call, top.name)
                                and sets(m, call, None, name, default))
                        )
                        for m, owner, call in calls
                    ):
                        unset.add(f"{mod}.{top.name}.{name}")
        kept = set(self.KEPT_OPTIONS)
        assert not unset - kept, f"options no call in src sets: {sorted(unset - kept)}"
        assert not kept - unset, f"kept options a caller now sets: {sorted(kept - unset)}"
