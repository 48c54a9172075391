import filecmp
import multiprocessing
import os

import numpy as np
import pytest

from alphadrs import VariationalDist, bnn, cli, drs, rdvi
from alphadrs.oracles import gradient_fd_cases


def run(argv):
    return cli.main(argv)


GMM_FAST = ["--iters", "400", "--samples", "800", "--seed", "3"]


class TestGmmDemo:
    def test_smoke_and_schema(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["gmm-demo", "--alpha", "2", *GMM_FAST, "--out", str(out)]) == 0
        table = (out / "gmm_table.csv").read_text().strip().splitlines()
        assert table[0] == (
            "alpha,div_pq,div_pq_se,div_pr,div_pr_se,acceptance_pct,T,log_M_hat,samples"
        )
        row = table[1].split(",")
        assert float(row[0]) == 2.0
        assert np.isfinite([float(v) for v in row[:-1]]).all()
        # one estimate line each for D(p||q) and D(p||r)
        estimates = (out / "gmm_estimates.csv").read_text().splitlines()
        assert estimates[0] == "alpha,value,std_error,samples"
        assert [line.split(",")[::3] for line in estimates[1:]] == [["2", "800"]] * 2
        samples = (out / "gmm_samples_alpha2.csv").read_text().splitlines()
        assert samples[0].startswith("# acceptance_rate=")
        assert f",T={row[6]},alpha=2" in samples[0]
        assert len(samples) == 1 + 800
        trace = (out / "gmm_fit_trace_alpha2.csv").read_text().splitlines()
        assert trace[0] == "iteration,objective,mu_0,log_var_0"
        assert len(trace) == 11
        assert trace[-1].startswith("400,")
        hist = np.loadtxt(out / "gmm_hist_alpha2.csv", delimiter=",", skiprows=1)
        assert hist.shape == (130, 3)
        assert np.sum((hist[:, 1] - hist[:, 0]) * hist[:, 2]) == pytest.approx(1.0)

    def test_multiple_alphas_refinement_improves(self, tmp_path):
        out = tmp_path / "multi"
        assert (
            run(["gmm-demo", "--alpha", "2", "11", *GMM_FAST, "--out", str(out)]) == 0
        )
        rows = (out / "gmm_table.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            vals = row.split(",")
            assert float(vals[3]) < float(vals[1])  # div_pr < div_pq

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gmm-demo", "--alpha", "2", *GMM_FAST]
        assert run([*args, "--out", str(a)]) == 0
        assert run([*args, "--out", str(b)]) == 0
        for name in ("gmm_table.csv", "gmm_estimates.csv", "gmm_hist_alpha2.csv",
                     "gmm_fit_trace_alpha2.csv", "gmm_samples_alpha2.csv"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_custom_spec_file(self, tmp_path):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text("weights=1.0\nmeans=0.0\nvariances=1.0\n")
        out = tmp_path / "custom"
        assert (
            run(
                ["gmm-demo", "--alpha", "2", "--gmm-config", str(cfg),
                 "--iters", "200", "--samples", "400", "--out", str(out)]
            )
            == 0
        )

    def test_invalid_spec_file_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("weights=0.5,0.9\nmeans=0,1\nvariances=1,1\n")
        out = tmp_path / "bad"
        assert run(["gmm-demo", "--gmm-config", str(cfg), "--out", str(out)]) == 1

    def test_directory_spec_exits_one(self, tmp_path, capsys):
        out = tmp_path / "dir"
        assert run(["gmm-demo", "--gmm-config", str(tmp_path), "--out", str(out)]) == 1
        assert "config file not found" in capsys.readouterr().err


class TestBnnCommand:
    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        code = run(["bnn", "--dataset", str(tmp_path / "ghost.csv"),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ghost.csv" in capsys.readouterr().err

    def test_directory_dataset_exits_one(self, tmp_path, capsys):
        assert run(["bnn", "--dataset", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert "neither a readable file nor a bundled name" in capsys.readouterr().err

    def test_featureless_dataset_exits_one(self, tmp_path, capsys):
        f = tmp_path / "targets_only.csv"
        f.write_text("1\n2\n3\n4\n")
        assert run(["bnn", "--dataset", str(f), "--out", str(tmp_path / "o")]) == 1
        assert "targets_only.csv has no feature column" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_one_row_dataset_exits_one_without_warnings(self, tmp_path, capsys):
        f = tmp_path / "one.csv"
        f.write_text("0.5,1.5,2.0\n")
        assert run(["bnn", "--dataset", str(f), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error: a train/test split needs at least 2 rows, dataset has 1" in err
        assert "Warning" not in err

    def test_directory_does_not_shadow_bundled_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "boston").mkdir()
        out = tmp_path / "o"
        code = run(["bnn", "--dataset", "boston", "--iters", "5", "--samples", "10",
                    "--out", str(out)])
        assert code == 0
        assert len((out / "bnn_results.csv").read_text().splitlines()) == 3

    def test_boston_smoke_single_seed(self, tmp_path):
        out = tmp_path / "bnn"
        code = run(
            ["bnn", "--dataset", "boston", "--alpha", "2.0", "--seed", "0",
             "--iters", "200", "--samples", "50", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "bnn_results.csv").read_text().strip().splitlines()
        assert lines[0] == "dataset,method,alpha,seed,rmse,test_ll,acceptance_pct,T"
        assert len(lines) == 3
        for row in lines[1:]:
            cells = row.split(",")
            assert np.isfinite(float(cells[4])) and np.isfinite(float(cells[5]))

    def test_seed_aggregation_rows(self, tmp_path):
        out = tmp_path / "agg"
        code = run(
            ["bnn", "--dataset", "boston", "--alpha", "1.0", "--seed", "0", "1", "2",
             "--iters", "150", "--samples", "40", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "bnn_results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6 + 2  # header, 2 rows x 3 seeds, 2 aggregates
        assert lines[-2].split(",")[1] == "rdvi-mean"
        assert lines[-1].split(",")[1] == "alpha-drs-mean"
        assert "+-" in lines[-1].split(",")[4]

    def test_bnn_lines_schema(self):
        def row(method, seed, rmse, ll, acc=float("nan"), T=float("nan")):
            return dict(method=method, alpha=2.0, seed=seed, rmse=rmse, test_ll=ll,
                        acceptance_rate=acc, T=T)

        one = [row("rdvi", 3, 4.0, -2.5), row("alpha-drs", 3, 3.0, -2.0, 0.25, 1.5)]
        assert cli._bnn_lines("toy", one) == [
            "dataset,method,alpha,seed,rmse,test_ll,acceptance_pct,T",
            "toy,rdvi,2,3,4,-2.5,,",
            "toy,alpha-drs,2,3,3,-2,25,1.5",
        ]
        # a repeated seed is a second cell, so the mean lines appear with n=2
        lines = cli._bnn_lines(
            "toy",
            [*one, row("rdvi", 3, 6.0, -3.5), row("alpha-drs", 3, 5.0, -1.0, 0.5, 2.5)],
        )
        assert lines[5:] == [
            "toy,rdvi-mean,2,n=2,5+-1,-3+-0.5,,",
            "toy,alpha-drs-mean,2,n=2,4+-1,-1.5+-0.5,,",
        ]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["bnn", "--dataset", "boston", "--iters", "100", "--samples", "20",
                "--seed", "0", "1"]
        assert run([*args, "--out", str(a)]) == 0
        assert run([*args, "--out", str(b)]) == 0
        assert filecmp.cmp(a / "bnn_results.csv", b / "bnn_results.csv", shallow=False)


    def test_samples_reach_the_fit_without_iters(self, tmp_path, monkeypatch):
        seen = []

        def fake_fit(train, config, hidden=50, minibatch_size=32):
            seen.append(config)
            model = bnn.BnnModel(input_dim=train.dim, hidden=hidden, log_noise_var=-1.0)
            P = model.param_count
            posterior = VariationalDist(mu=np.zeros(P), log_var=np.full(P, -6.0))
            return bnn.BnnFitResult(posterior, model, np.zeros(0))

        monkeypatch.setattr(bnn, "fit_bnn", fake_fit)
        code = run(["bnn", "--dataset", "boston", "--samples", "7",
                    "--out", str(tmp_path / "o")])
        assert code == 0
        (config,) = seen
        assert config.samples_per_step == 7
        assert config.iterations == 6000


class TestFlagValidation:
    def test_bad_flags_rejected_before_the_fit(self, tmp_path, monkeypatch, capsys):
        reached = []

        def fit_must_not_run(*args, **kwargs):
            reached.append(args)
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli.rdvi, "fit", fit_must_not_run)
        monkeypatch.setattr(bnn, "fit_bnn", fit_must_not_run)
        monkeypatch.setattr(bnn, "load_dataset", fit_must_not_run)
        out = str(tmp_path / "o")
        for argv in (
            ["gmm-demo", "--alpha", "1"],
            ["gmm-demo", "--alpha", "2", "1"],
            ["gmm-demo", "--gamma", "1.5"],
            ["gmm-demo", "--samples", "0"],
            ["gmm-demo", "--samples", "-5"],
            ["gmm-demo", "--seed", "-1"],
            ["gmm-demo", "--alpha", "inf"],
            ["gmm-demo", "--alpha", "2", "2.0"],
            ["gmm-demo", "--iters", "-1"],
            ["bnn", "--dataset", "boston", "--gamma", "1.5"],
            ["bnn", "--dataset", "boston", "--gamma", "-0.1"],
            ["bnn", "--dataset", "boston", "--seed", "0", "-2"],
            ["bnn", "--dataset", "boston", "--alpha", "0"],
            ["bnn", "--dataset", "boston", "--alpha", "-1"],
            ["bnn", "--dataset", "boston", "--alpha", "inf"],
            ["bnn", "--dataset", "boston", "--samples", "1"],
            ["bnn", "--dataset", "boston", "--iters", "-1"],
        ):
            assert run([*argv, "--out", out]) == 1, argv
        assert reached == []
        err = capsys.readouterr().err
        assert "alpha = 1" in err
        assert "argument --alpha: 2 is given twice" in err
        # alpha = 1 is the KL fit in weight space, a legal bnn setting
        args = cli.build_parser().parse_args(["bnn", "--dataset", "boston", "--alpha", "1",
                                              "--out", out])
        assert args.alpha == 1.0


def _inline(monkeypatch):
    """Make cli see one usable core, so _map_cells runs every cell in this process.

    A test that records calls through a monkeypatch across several cells must
    do this: a forked worker's side effects never reach the parent.
    """
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})


def _cores():
    return len(os.sched_getaffinity(0))


class TestMapCells:
    def test_results_in_input_order_on_every_usable_core(self):
        def cell(i):
            return i, os.getpid()

        results = list(cli._map_cells(cell, [(i,) for i in range(5)]))
        assert [i for i, _ in results] == list(range(5))
        pids = {pid for _, pid in results}
        assert len(pids) == min(5, _cores()) and os.getpid() in pids
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [1, 2])
    def test_exception_raised_at_its_place_with_its_attributes(self, bad):
        # with two cores cell 1 runs in a worker and cell 2 in this process
        trace = rdvi.FitTrace(objective=[1.0, np.nan], checkpoints=(), final=None)

        def cell(i):
            if i == bad:
                raise rdvi.FitDivergenceError(f"cell {i} diverged", trace=trace)
            return i

        seen = []
        with pytest.raises(rdvi.FitDivergenceError, match=f"cell {bad} diverged") as info:
            for value in cli._map_cells(cell, [(i,) for i in range(5)]):
                seen.append(value)
        assert seen == list(range(bad))
        assert np.array_equal(info.value.trace.objective, trace.objective, equal_nan=True)
        assert multiprocessing.active_children() == []

    def test_refinement_error_keeps_its_diagnostics(self):
        def cell(i):
            if i == 1:
                raise drs.RefinementError("nothing accepted", T=2.5, min_L=0.5,
                                          proposals_used=4096)
            return i

        with pytest.raises(drs.RefinementError, match="nothing accepted") as info:
            list(cli._map_cells(cell, [(0,), (1,)]))
        assert (info.value.T, info.value.min_L, info.value.proposals_used) == (2.5, 0.5, 4096)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_without_replying(self):
        if _cores() < 2:
            pytest.skip("one usable core: every cell runs in this process")
        parent = os.getpid()

        def cell(i):
            if os.getpid() != parent:
                os._exit(3)
            return i

        with pytest.raises(RuntimeError, match="exited with code 3 before replying"):
            list(cli._map_cells(cell, [(0,), (1,), (2,)]))
        assert multiprocessing.active_children() == []

    def test_abandoned_iteration_stops_the_workers(self):
        cells = cli._map_cells(lambda i: i, [(i,) for i in range(4)])
        assert next(cells) == 0
        cells.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_gmm_demo_identical_with_workers_and_inline(self, tmp_path, monkeypatch, capsys,
                                                        seed):
        args = ["gmm-demo", "--alpha", "2", "11", "16", "21", "--iters", "300",
                "--samples", "500", "--seed", seed]
        outs = {}
        for name in ("workers", "inline"):
            if name == "inline":
                _inline(monkeypatch)
            assert run([*args, "--out", str(tmp_path / name)]) == 0
            outs[name] = capsys.readouterr().out.replace(str(tmp_path / name), "<out>")
        assert outs["workers"] == outs["inline"]
        names = sorted(p.name for p in (tmp_path / "workers").iterdir())
        assert len(names) == 2 + 3 * 4
        assert names == sorted(p.name for p in (tmp_path / "inline").iterdir())
        _, mismatch, errors = filecmp.cmpfiles(tmp_path / "workers", tmp_path / "inline",
                                               names, shallow=False)
        assert mismatch == [] and errors == []

    def test_bnn_identical_with_workers_and_inline(self, tmp_path, monkeypatch, capsys):
        args = ["bnn", "--dataset", "boston", "--seed", "5", "8", "10", "--iters", "100"]
        outs = {}
        for name in ("workers", "inline"):
            if name == "inline":
                _inline(monkeypatch)
            assert run([*args, "--out", str(tmp_path / name)]) == 0
            outs[name] = capsys.readouterr().out.replace(str(tmp_path / name), "<out>")
        assert outs["workers"] == outs["inline"]
        assert filecmp.cmp(tmp_path / "workers" / "bnn_results.csv",
                           tmp_path / "inline" / "bnn_results.csv", shallow=False)


class TestDivergenceCheck:
    def test_negative_seed_rejected_at_parse(self, capsys):
        assert run(["divergence-check", "--seed", "-1"]) == 1
        assert "non-negative integer" in capsys.readouterr().err

    def test_default_suite_passes(self, capsys):
        assert run(["divergence-check", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out
        # the closed-form Gaussian pair is reported explicitly
        assert "N(0,1)||N(1,1) a=2" in out
        # one gradient line per oracle case, the alpha <= 1 and score-function cases included
        names = [c.name for c in gradient_fd_cases(seed=0)]
        lines = [ln for ln in out.splitlines() if "gradient-vs-fd" in ln]
        assert len(lines) == len(names)
        for name in names:
            assert any(ln.startswith(f"PASS: gradient-vs-fd {name} (") for ln in lines), name
        for part in ("alpha=0.5", "alpha=1 exclusive", "alpha=1 inclusive", "score-function"):
            assert any(part in name for name in names), part

    def test_runtime_failure_exits_two(self, monkeypatch, tmp_path):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli.rdvi, "fit", boom)
        assert run(["gmm-demo", "--alpha", "2", "--out", str(tmp_path / "x")]) == 2
