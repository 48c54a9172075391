"""Command-line entry point for the experiment harness.

Every run is a pure function of its flags: seeds are split into named
substreams (fit / refine / eval) and all report files are written here,
with fixed float formatting, so identical configs produce byte-identical
outputs.  Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
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
_MC_TOLERANCE_SE = 3.0  # divergence-check: |MC - quadrature| may be this many std errors


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


def _seed(text):
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return val


def _positive_int(text):
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return val


def _finite_positive_float(text):
    val = _positive_float(text)
    if val == math.inf:
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return val


def _renyi_order(text):
    val = _finite_positive_float(text)
    if val == 1.0:
        raise argparse.ArgumentTypeError("alpha = 1 is singular for the Renyi estimates")
    return val


def _unit_interval(text):
    val = float(text)
    if not 0.0 <= val <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return val


class _DistinctTags(argparse.Action):
    """Stores the values; two that format alike would write one set of report files."""

    def __call__(self, parser, namespace, values, option_string=None):
        tags = [_fmt(v) for v in values]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                parser.error(f"argument {option_string}: {tag} is given twice; "
                             f"its report files would overwrite each other")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alphadrs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gmm = sub.add_parser("gmm-demo", help="fit, refine and report on the 1-D mixture benchmark")
    gmm.add_argument("--alpha", type=_renyi_order, nargs="+", default=[2.0],
                     action=_DistinctTags)
    gmm.add_argument("--seed", type=_seed, default=0)
    gmm.add_argument("--samples", type=_positive_int, default=3000,
                     help="divergence estimate sample count")
    gmm.add_argument("--iters", type=int, default=5000)
    gmm.add_argument("--gamma", type=_unit_interval, default=0.1)
    gmm.add_argument("--t-rule", choices=["low-dim", "quantile"], default="low-dim")
    gmm.add_argument("--softmin-t", type=_positive_float, default=1.0)
    gmm.add_argument("--gmm-config", type=Path, default=None, help="key-value mixture spec file")
    gmm.add_argument("--out", type=Path, required=True)

    bnn_p = sub.add_parser("bnn", help="train/refine/evaluate the weight-space regression model")
    bnn_p.add_argument("--dataset", required=True, help="bundled name (boston, yacht) or file path")
    bnn_p.add_argument("--alpha", type=_finite_positive_float, default=1.0)
    bnn_p.add_argument("--seed", type=_seed, nargs="+", default=[0])
    bnn_p.add_argument("--gamma", type=_unit_interval, default=0.1)
    bnn_p.add_argument("--iters", type=int, default=6000)
    bnn_p.add_argument("--samples", type=int, default=100, help="weight samples per gradient step")
    bnn_p.add_argument("--out", type=Path, required=True)

    chk = sub.add_parser("divergence-check", help="run the estimator and gradient oracle suites")
    chk.add_argument("--seed", type=_seed, default=0)
    return parser


def _write(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _row(*values) -> str:
    return ",".join(map(_fmt, values))


def _estimate_lines(estimates) -> list[str]:
    """One row per divergence estimate: alpha, value, std_error, samples."""
    rows = (_row(e.alpha, e.value, e.std_error, e.sample_count) for e in estimates)
    return ["alpha,value,std_error,samples", *rows]


def _sample_lines(sset: drs.RefinedSampleSet, T: float, alpha: float) -> list[str]:
    """Accepted samples, one per row, after a summary line naming T and the fit's alpha."""
    return [
        f"# acceptance_rate={_fmt(sset.acceptance_rate)},"
        f"log_Z_R_hat={_fmt(sset.log_Z_R_hat)},T={_fmt(T)},alpha={_fmt(alpha)}",
        *(_row(*row) for row in sset.accepted),
    ]


def _trace_lines(trace: rdvi.FitTrace) -> list[str]:
    """Checkpoint rows: iteration, objective, mu..., log_var..."""
    dim = trace.final.dim
    mu_cols = [f"mu_{j}" for j in range(dim)]
    log_var_cols = [f"log_var_{j}" for j in range(dim)]
    lines = [",".join(["iteration", "objective", *mu_cols, *log_var_cols])]
    for it, q in trace.checkpoints:
        lines.append(_row(it, trace.objective[it - 1], *q.mu, *q.log_var))
    return lines


def _bnn_lines(dataset: str, rows) -> list[str]:
    """One line per result row; when the rows span more than one cell, a mean+-se line
    per method."""

    def cell(x):
        return _fmt(x) if math.isfinite(x) else ""

    lines = ["dataset,method,alpha,seed,rmse,test_ll,acceptance_pct,T"]
    for r in rows:
        lines.append(",".join([dataset, r["method"], _fmt(r["alpha"]), str(r["seed"]),
                               _fmt(r["rmse"]), _fmt(r["test_ll"]),
                               cell(100.0 * r["acceptance_rate"]), cell(r["T"])]))
    if len(rows) > 2:
        for method in dict.fromkeys(r["method"] for r in rows):
            sel = [r for r in rows if r["method"] == method]
            n = len(sel)
            stats = []
            for key in ("rmse", "test_ll"):
                v = np.array([r[key] for r in sel])
                stats.append(f"{_fmt(v.mean())}+-{_fmt(v.std(ddof=1) / math.sqrt(n))}")
            lines.append(",".join([dataset, f"{method}-mean", _fmt(sel[0]["alpha"]), f"n={n}",
                                   *stats, "", ""]))
    return lines


def _run_share(fn, cells, conn) -> None:
    """A worker's loop: send (True, result) per cell, or (False, exception) and stop."""
    for cell in cells:
        try:
            reply = (True, fn(*cell))
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            reply = (False, exc)
        conn.send(reply)
        if not reply[0]:
            return


def _map_cells(fn, cells):
    """Yield ``fn(*cell)`` for each cell, in input order, on every usable core.

    The cells must be independent, each drawing from its own seed, so no
    result depends on where its cell ran.  With ``share`` = min(cells, usable
    cores), this process runs cells 0, share, 2 share, ... and each of
    ``share - 1`` forked workers runs cells k, k + share, ..., sending each
    result back through a one-way pipe.  A cell's exception, with its
    attributes, is raised at that cell's place in input order, after the
    earlier results were yielded, as in a sequential loop; the other workers
    are then terminated.

    Workers are forked, not spawned: ``fn`` and the cells (closures included)
    reach them unpickled, nothing re-imports the caller's ``__main__``, and no
    helper process outlives the call.  numpy's OpenBLAS stops its threads
    across a fork.  A worker's side effects (monkeypatched recorders, module
    state) never reach this process.  ``multiprocessing`` is imported only
    when a worker is needed, so a one-cell run's start-up does not pay for it.
    """
    cells = list(cells)
    share = min(len(cells), len(os.sched_getaffinity(0)))
    workers = []
    try:
        for k in range(1, share):
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_share, args=(fn, cells[k::share], send), daemon=True)
            proc.start()
            send.close()
            workers.append((proc, recv))
        for i, cell in enumerate(cells):
            if i % share == 0:
                yield fn(*cell)
                continue
            proc, recv = workers[i % share - 1]
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"cell worker exited with code {proc.exitcode} before replying"
                ) from None
            if not ok:
                raise value
            yield value
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, recv in workers:
            proc.join()
            recv.close()


def _gmm_cell(target, alpha, ss, args):
    """One alpha of gmm-demo: the fit, both estimates, T, the refined samples and
    log M hat.  It draws only from ``ss``, so it may run in any process."""
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
    div_pq = divergence.estimate_renyi(alpha, batch)
    if args.t_rule == "low-dim":
        T = drs.select_T_low_dim(div_pq)
    else:
        T = drs.select_T_quantile(batch.L_vals, args.gamma)
    ref_cfg = divergence.RefinementConfig(T=T, softmin_t=args.softmin_t)
    div_pr = divergence.estimate_renyi_refined(alpha, batch, ref_cfg)
    sset = drs.refine(
        q, target, ref_cfg, np.random.default_rng(refine_ss), n_accept_goal=args.samples
    )
    return trace, div_pq, div_pr, T, sset, divergence.estimate_log_M(batch)


def cmd_gmm_demo(args) -> int:
    spec = gmm_spec_from_file(args.gmm_config) if args.gmm_config else four_mode_gmm_spec()
    target = make_gmm_target(spec)
    sd = np.sqrt(spec.variances)
    window = (float(np.min(spec.means - 5.0 * sd)), float(np.max(spec.means + 5.0 * sd)))
    table = ["alpha,div_pq,div_pq_se,div_pr,div_pr_se,acceptance_pct,T,log_M_hat,samples"]
    estimates = []
    per_alpha = np.random.SeedSequence(args.seed).spawn(len(args.alpha))
    cells = [(target, alpha, ss, args) for alpha, ss in zip(args.alpha, per_alpha)]
    for alpha, (trace, div_pq, div_pr, T, sset, log_m) in zip(
        args.alpha, _map_cells(_gmm_cell, cells)
    ):
        table.append(
            _row(
                alpha,
                div_pq.value,
                div_pq.std_error,
                div_pr.value,
                div_pr.std_error,
                100.0 * sset.acceptance_rate,
                T,
                log_m,
                args.samples,
            )
        )
        estimates += (div_pq, div_pr)
        counts, edges = np.histogram(sset.accepted[:, 0], bins=130, range=window)
        # numpy's density=True arithmetic, with zeros where the window is empty
        density = counts / np.diff(edges) / max(counts.sum(), 1)
        hist_lines = [
            "bin_left,bin_right,density",
            *(_row(*row) for row in zip(edges[:-1], edges[1:], density)),
        ]
        tag = _fmt(alpha)
        _write(args.out / f"gmm_hist_alpha{tag}.csv", hist_lines)
        _write(args.out / f"gmm_fit_trace_alpha{tag}.csv", _trace_lines(trace))
        _write(args.out / f"gmm_samples_alpha{tag}.csv", _sample_lines(sset, T, alpha))
        print(
            f"alpha={tag}: D(p||q)={div_pq.value:.3f}  D(p||r)={div_pr.value:.3f}  "
            f"acceptance={100 * sset.acceptance_rate:.1f}%  T={T:.3f}"
        )
    _write(args.out / "gmm_table.csv", table)
    _write(args.out / "gmm_estimates.csv", _estimate_lines(estimates))
    print(f"wrote {args.out / 'gmm_table.csv'}")
    return 0


def _resolve_dataset(name: str) -> Path:
    path = Path(name)
    if path.is_file():
        return path
    try:
        return bnn.bundled_dataset_path(name)
    except bnn.DatasetError:
        raise bnn.DatasetError(
            f"dataset {name!r} is neither a readable file nor a bundled name"
        ) from None


def cmd_bnn(args) -> int:
    config = rdvi.OptimizerConfig(iterations=args.iters, samples_per_step=args.samples)
    path = _resolve_dataset(args.dataset)
    raw = bnn.load_dataset(path)
    print(f"loaded {path}: {raw.n} rows, {raw.dim} features")
    rows = []
    for cell_rows in _map_cells(
        lambda seed: bnn.run_experiment(raw, args.alpha, seed, gamma=args.gamma, config=config),
        [(seed,) for seed in args.seed],
    ):
        for row in cell_rows:
            rows.append(row)
            acc = (
                f"  acc={100 * row['acceptance_rate']:.1f}%"
                if math.isfinite(row["acceptance_rate"])
                else ""
            )
            print(
                f"{row['method']:>9} alpha={row['alpha']:g} seed={row['seed']}: "
                f"rmse={row['rmse']:.3f} ll={row['test_ll']:.3f}{acc}"
            )
    _write(args.out / "bnn_results.csv", _bnn_lines(args.dataset, rows))
    print(f"wrote {args.out / 'bnn_results.csv'}")
    return 0


def _check(name, ok, detail, failures):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name} ({detail})")
    if not ok:
        failures.append(name)


def cmd_divergence_check(args) -> int:
    from .oracles import gradient_fd_cases, mc_vs_quadrature_cases

    k = _MC_TOLERANCE_SE
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
