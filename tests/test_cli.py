import filecmp

import numpy as np
import pytest

from alphadrs import VariationalDist, bnn, cli
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


class TestBnnCommand:
    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        code = run(["bnn", "--dataset", str(tmp_path / "ghost.csv"),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ghost.csv" in capsys.readouterr().err

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
        assert config.iterations == 6000 and config.step_size == 1e-2


class TestFlagValidation:
    def test_bad_flags_rejected_before_the_fit(self, tmp_path, monkeypatch, capsys):
        reached = []

        def fit_must_not_run(*args, **kwargs):
            reached.append(args)
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli.rdvi, "fit", fit_must_not_run)
        monkeypatch.setattr(bnn, "fit_bnn", fit_must_not_run)
        out = str(tmp_path / "o")
        for argv in (
            ["gmm-demo", "--alpha", "1"],
            ["gmm-demo", "--alpha", "2", "1"],
            ["gmm-demo", "--gamma", "1.5"],
            ["gmm-demo", "--samples", "0"],
            ["gmm-demo", "--samples", "-5"],
            ["bnn", "--dataset", "boston", "--gamma", "1.5"],
            ["bnn", "--dataset", "boston", "--gamma", "-0.1"],
        ):
            assert run([*argv, "--out", out]) == 1, argv
        assert reached == []
        assert "alpha = 1" in capsys.readouterr().err
        # alpha = 1 is the KL fit in weight space, a legal bnn setting
        args = cli.build_parser().parse_args(["bnn", "--dataset", "boston", "--alpha", "1",
                                              "--out", out])
        assert args.alpha == 1.0


class TestDivergenceCheck:
    def test_negative_tolerance_rejected_at_parse(self, capsys):
        assert run(["divergence-check", "--tolerance", "-3"]) == 1

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
