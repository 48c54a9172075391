"""Command-line entry point for the experiment harness.

Every run is a pure function of its flags: seeds are split into named
substreams (fit / refine / eval) and all report files are written with
fixed float formatting, so identical configs produce byte-identical
outputs.  Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import bnn, divergence, drs, rdvi
from .distributions import (
    STUDENT_T,
    ValidationError,
    VariationalDist,
    four_mode_gmm_spec,
    gmm_spec_from_file,
    make_gmm_target,
)

_FMT = "{:.10g}"


def _fmt(x) -> str:
    return _FMT.format(float(x))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _positive_float(text):
    val = float(text)
    if not val > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alphadrs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gmm = sub.add_parser("gmm-demo", help="fit, refine and report on the 1-D mixture benchmark")
    gmm.add_argument("--alpha", type=float, nargs="+", default=[2.0])
    gmm.add_argument("--seed", type=int, default=0)
    gmm.add_argument("--samples", type=int, default=3000, help="divergence estimate sample count")
    gmm.add_argument("--iters", type=int, default=5000)
    gmm.add_argument("--gamma", type=float, default=0.1)
    gmm.add_argument("--t-rule", choices=["low-dim", "quantile"], default="low-dim")
    gmm.add_argument("--softmin-t", type=_positive_float, default=1.0)
    gmm.add_argument("--gmm-config", type=Path, default=None, help="key-value mixture spec file")
    gmm.add_argument("--out", type=Path, required=True)

    bnn_p = sub.add_parser("bnn", help="train/refine/evaluate the weight-space regression model")
    bnn_p.add_argument("--dataset", required=True, help="bundled name (boston, yacht) or file path")
    bnn_p.add_argument("--alpha", type=float, default=1.0)
    bnn_p.add_argument("--seed", type=int, nargs="+", default=[0])
    bnn_p.add_argument("--gamma", type=float, default=0.1)
    bnn_p.add_argument("--iters", type=int, default=6000)
    bnn_p.add_argument("--samples", type=int, default=100, help="weight samples per gradient step")
    bnn_p.add_argument("--out", type=Path, required=True)

    chk = sub.add_parser("divergence-check", help="run the estimator and gradient oracle suites")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--tolerance", type=_positive_float, default=3.0,
                     help="stderr multiplier for MC agreement checks")
    return parser


def _write(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_gmm_demo(args) -> int:
    spec = gmm_spec_from_file(args.gmm_config) if args.gmm_config else four_mode_gmm_spec()
    target = make_gmm_target(spec)
    table = ["alpha,div_pq,div_pq_se,div_pr,div_pr_se,acceptance_pct,T,log_M_hat,samples"]
    estimate_lines = [divergence.REPORT_HEADER]
    root = np.random.SeedSequence(args.seed)
    per_alpha = root.spawn(len(args.alpha))
    for alpha, ss in zip(args.alpha, per_alpha):
        fit_ss, refine_ss, eval_ss = ss.spawn(3)
        config = rdvi.OptimizerConfig(
            iterations=args.iters,
            alpha=alpha,
            seed=int(np.random.default_rng(fit_ss).integers(2**31)),
        )
        init = VariationalDist(
            mu=np.zeros(1), log_var=np.full(1, math.log(25.0)), family=STUDENT_T, nu=10.0
        )
        trace = rdvi.fit(target, init, config)
        q = trace.final
        eval_rng = np.random.default_rng(eval_ss)
        batch = divergence.draw_batch(q, target, eval_rng, args.samples)
        div_pq = divergence.estimate_renyi(alpha, batch, log_Z_p=0.0)
        if args.t_rule == "low-dim":
            T = drs.select_T_low_dim(div_pq)
        else:
            T = drs.select_T_quantile(batch.L_vals, args.gamma)
        ref_cfg = divergence.RefinementConfig(T=T, softmin_t=args.softmin_t)
        div_pr = divergence.estimate_renyi_refined(alpha, batch, ref_cfg, log_Z_p=0.0)
        sset = drs.refine(
            q, target, ref_cfg, np.random.default_rng(refine_ss), n_accept_goal=args.samples
        )
        log_m = divergence.estimate_log_M(batch)
        table.append(
            ",".join(
                [
                    _fmt(alpha),
                    _fmt(div_pq.value),
                    _fmt(div_pq.std_error),
                    _fmt(div_pr.value),
                    _fmt(div_pr.std_error),
                    _fmt(100.0 * sset.acceptance_rate),
                    _fmt(T),
                    _fmt(log_m),
                    str(args.samples),
                ]
            )
        )
        estimate_lines.append(divergence.report_line(div_pq))
        estimate_lines.append(divergence.report_line(div_pr))
        hist = drs.empirical_pdf(sset.accepted, bins=130, range_=(-16.0, 10.0))
        hist_lines = ["bin_left,bin_right,density"]
        for lo, hi, dens in zip(hist.edges[:-1], hist.edges[1:], hist.density):
            hist_lines.append(f"{_fmt(lo)},{_fmt(hi)},{_fmt(dens)}")
        tag = _fmt(alpha)
        _write(args.out / f"gmm_hist_alpha{tag}.csv", hist_lines)
        rdvi.write_trace_csv(trace, args.out / f"gmm_fit_trace_alpha{tag}.csv")
        args.out.mkdir(parents=True, exist_ok=True)
        drs.write_sample_set_csv(sset, ref_cfg, alpha, args.out / f"gmm_samples_alpha{tag}.csv")
        print(
            f"alpha={tag}: D(p||q)={div_pq.value:.3f}  D(p||r)={div_pr.value:.3f}  "
            f"acceptance={100 * sset.acceptance_rate:.1f}%  T={T:.3f}"
        )
    _write(args.out / "gmm_table.csv", table)
    _write(args.out / "gmm_estimates.csv", estimate_lines)
    print(f"wrote {args.out / 'gmm_table.csv'}")
    return 0


def _resolve_dataset(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    try:
        bundled = bnn.bundled_dataset_path(name)
    except bnn.DatasetError:
        raise bnn.DatasetError(
            f"dataset {name!r} is neither a readable file nor a bundled name"
        ) from None
    if not bundled.exists():
        raise bnn.DatasetError(
            f"bundled dataset {name!r} expected at {bundled}, but the file is absent"
        )
    return bundled


def cmd_bnn(args) -> int:
    path = _resolve_dataset(args.dataset)
    raw = bnn.load_dataset(path)
    print(f"loaded {path}: {raw.n} rows, {raw.dim} features")
    header = "dataset,method,alpha,seed,rmse,test_ll,acceptance_pct,T"
    lines = [header]
    rows = []
    config = rdvi.OptimizerConfig(
        iterations=args.iters, samples_per_step=args.samples, alpha=args.alpha, seed=0
    )
    for seed in args.seed:
        for row in bnn.run_experiment(raw, args.alpha, seed, gamma=args.gamma, config=config):
            rows.append(row)
            lines.append(
                ",".join(
                    [
                        args.dataset,
                        row["method"],
                        _fmt(row["alpha"]),
                        str(row["seed"]),
                        _fmt(row["rmse"]),
                        _fmt(row["test_ll"]),
                        _fmt(100.0 * row["acceptance_rate"])
                        if math.isfinite(row["acceptance_rate"])
                        else "",
                        _fmt(row["T"]) if math.isfinite(row["T"]) else "",
                    ]
                )
            )
            acc = (
                f"  acc={100 * row['acceptance_rate']:.1f}%"
                if math.isfinite(row["acceptance_rate"])
                else ""
            )
            print(
                f"{row['method']:>9} alpha={row['alpha']:g} seed={row['seed']}: "
                f"rmse={row['rmse']:.3f} ll={row['test_ll']:.3f}{acc}"
            )
    if len(args.seed) > 1:
        for method in ("rdvi", "alpha-drs"):
            sel = [r for r in rows if r["method"] == method]
            rmse = np.array([r["rmse"] for r in sel])
            ll = np.array([r["test_ll"] for r in sel])
            n = len(sel)
            lines.append(
                ",".join(
                    [
                        args.dataset,
                        f"{method}-mean",
                        _fmt(args.alpha),
                        f"n={n}",
                        f"{_fmt(rmse.mean())}+-{_fmt(rmse.std(ddof=1) / math.sqrt(n))}",
                        f"{_fmt(ll.mean())}+-{_fmt(ll.std(ddof=1) / math.sqrt(n))}",
                        "",
                        "",
                    ]
                )
            )
    _write(args.out / "bnn_results.csv", lines)
    print(f"wrote {args.out / 'bnn_results.csv'}")
    return 0


def _check(name, ok, detail, failures):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name} ({detail})")
    if not ok:
        failures.append(name)


def cmd_divergence_check(args) -> int:
    from .oracles import gradient_fd_cases, mc_vs_quadrature_cases

    k = args.tolerance
    failures: list[str] = []

    for case in mc_vs_quadrature_cases(seed=args.seed):
        gap = abs(case.mc.value - case.quadrature)
        _check(
            f"mc-vs-quadrature {case.name}",
            gap <= k * case.mc.std_error,
            f"|{case.mc.value:.6f} - {case.quadrature:.6f}| = {gap:.2e} "
            f"vs {k:g}*se = {k * case.mc.std_error:.2e}",
            failures,
        )
        if case.closed_form is not None:
            qgap = abs(case.quadrature - case.closed_form)
            _check(
                f"quadrature-vs-closed-form {case.name}",
                qgap <= 1e-6,
                f"|{case.quadrature:.8f} - {case.closed_form:.8f}| = {qgap:.2e}",
                failures,
            )

    for case in gradient_fd_cases(seed=args.seed):
        _check(
            f"gradient-vs-fd {case.name}",
            case.rel_error < 1e-4,
            f"relative error {case.rel_error:.2e}",
            failures,
        )

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 2
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gmm-demo":
            return cmd_gmm_demo(args)
        if args.command == "bnn":
            return cmd_bnn(args)
        return cmd_divergence_check(args)
    except (ValidationError, bnn.DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
