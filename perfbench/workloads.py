"""One repetition of one benchmark workload, in its own process.

``perfbench/run.py`` starts this script once per repetition, so peak RSS and
set-up time belong to that repetition alone:

    python3 perfbench/workloads.py --workload gmm-sample --seed 0 [--trace] [--setup-only] [--tiny]

It builds the inputs from the seed, runs the workload, checks the outputs
against the library's own oracles and prints one JSON object as the last
line of standard output.  ``--tiny`` shrinks every workload for the smoke
test; ``--setup-only`` stops once the inputs are ready.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
if str(CHECKOUT / "src") not in sys.path:
    sys.path.insert(0, str(CHECKOUT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import alphadrs  # noqa: E402
from alphadrs import bnn, cli, distributions, divergence, drs, rdvi  # noqa: E402

if not Path(alphadrs.__file__).resolve().is_relative_to(CHECKOUT / "src"):
    raise SystemExit(f"alphadrs was imported from {alphadrs.__file__}, not from {CHECKOUT / 'src'}")

from tracer import Tracer, layer_metrics, span_cost_s  # noqa: E402

BNN_ITERATIONS = 600
# gmm-sample: a t(10) proposal close to the alpha=2 stage-1 fit of the mixture
SAMPLE_MU, SAMPLE_LOG_VAR = -2.7, 4.14
T_OFFSETS = np.linspace(-2.0, 2.0, 9)
QUAD_GRID = (-120.0, 100.0, 20001)


def _check(checks, name, value, ok, bound):
    checks.append({"name": name, "value": value, "bound": bound, "ok": bool(ok)})


def reference_s():
    """Time of a fixed numpy computation outside alphadrs: the machine's speed now.

    Half small-array dispatch, like a stage-1 step; half per-element work on
    a 10^5 array, like a refine chunk, small enough to leave peak RSS alone.
    """
    rng = np.random.default_rng(0)
    x, big = rng.standard_normal(100), rng.standard_normal(10**5)
    t0 = time.perf_counter()
    for _ in range(1500):
        np.log(np.sum(np.exp(x - x.max())))
    for _ in range(40):
        np.logaddexp(0.0, big).sum()
    return time.perf_counter() - t0


class StageClock:
    """Times the top-level stage calls, the only wrappers an untraced run has.

    Each name is patched where the workloads look it up: ``cli`` calls
    ``rdvi.fit`` and ``drs.refine`` through the modules, and
    ``bnn.run_experiment`` calls ``fit_bnn`` and ``refine_bnn`` (which runs
    the pilot and ``refine`` itself) through ``bnn``'s globals.  Each call
    adds its rate, items per second, to ``rates``; the last result of each
    stage is kept for the checks.
    """

    _STAGES = (
        (rdvi, "fit", "fit", lambda r: len(r.objective)),
        (bnn, "fit_bnn", "fit", lambda r: len(r.trace)),
        (drs, "refine", "refine", lambda r: r.n_accepted),
        (bnn, "refine_bnn", "refine", lambda r: r[0].n_accepted),
    )

    def __init__(self):
        self.rates = {"fit": [], "refine": []}
        self.last = {}
        for mod, attr, stage, count in self._STAGES:
            setattr(mod, attr, self._wrap(getattr(mod, attr), attr, stage, count))

    def _wrap(self, fn, attr, stage, count):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.rates[stage].append(count(result) / (time.perf_counter() - t0))
            self.last[attr] = result
            return result

        return timed


# -- gmm-sweep: the paper's mixture-table rows through the CLI ----------------

def setup_gmm_sweep(seed, tiny):
    out = CHECKOUT / "perfbench" / "_work" / f"gmm-sweep-{os.getpid()}"
    alphas = ["2"] if tiny else ["2", "11", "16", "21"]
    samples = 1000 if tiny else 3000
    argv = ["gmm-demo", "--alpha", *alphas, "--seed", str(seed), "--out", str(out),
            "--samples", str(samples)]
    if tiny:
        argv += ["--iters", "2500"]
    return {"argv": argv, "workdir": out, "alphas": [float(a) for a in alphas],
            "samples": samples}


def run_gmm_sweep(inp, clock):
    return {"exit_code": cli.main(inp["argv"])}


def read_gmm_sweep(inp):
    """Parse the report files into (table rows, accepted-sample counts)."""
    with open(inp["workdir"] / "gmm_table.csv") as fh:
        table = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    counts = {}
    for row in table:
        path = inp["workdir"] / f"gmm_samples_alpha{row['alpha']:.10g}.csv"
        with open(path) as fh:
            counts[row["alpha"]] = sum(1 for line in fh if not line.startswith("#"))
    return table, counts


def check_gmm_sweep(inp, out):
    checks = []
    _check(checks, "gmm-demo exit code", out["exit_code"], out["exit_code"] == 0, "== 0")
    if out["exit_code"] != 0:
        return checks
    table, counts = read_gmm_sweep(inp)
    _check(checks, "table alphas", [r["alpha"] for r in table],
           [r["alpha"] for r in table] == inp["alphas"], inp["alphas"])
    for r in table:
        tag = f"alpha={r['alpha']:g}"
        _check(checks, f"{tag} row finite", all(map(math.isfinite, r.values())),
               all(map(math.isfinite, r.values())), "all finite")
        _check(checks, f"{tag} samples accepted", counts[r["alpha"]],
               counts[r["alpha"]] == inp["samples"], f"== {inp['samples']}")
        slack = 3 * math.hypot(r["div_pq_se"], r["div_pr_se"])
        _check(checks, f"{tag} D(p||r) <= D(p||q) + 3 se", r["div_pr"],
               r["div_pr"] <= r["div_pq"] + slack, f"<= {r['div_pq'] + slack:.4f}")
    row = next((r for r in table if r["alpha"] == 2.0), None)
    if row is None:
        return checks
    # criterion-1 bands; the true D(p||r) sits near 0, so its lower edge
    # allows the estimator's own 3 se
    lo = -3 * row["div_pr_se"]
    _check(checks, "alpha=2 D(p||q) band", row["div_pq"],
           0.6 <= row["div_pq"] <= 1.4, "[0.6, 1.4]")
    _check(checks, "alpha=2 D(p||r) band", row["div_pr"],
           lo <= row["div_pr"] <= 0.3, f"[-3 se = {lo:.4f}, 0.3]")
    _check(checks, "alpha=2 acceptance %", row["acceptance_pct"],
           10.0 <= row["acceptance_pct"] <= 30.0, "[10, 30]")
    return checks


# -- gmm-sample: stage 2 and the estimators at 10^6 points, no fit ------------

def setup_gmm_sample(seed, tiny):
    draw_ss, refine_ss = np.random.SeedSequence(seed).spawn(2)
    n = 10**4 if tiny else 10**6
    return {
        "target": distributions.make_gmm_target(distributions.four_mode_gmm_spec()),
        "q": distributions.VariationalDist(
            mu=[SAMPLE_MU], log_var=[SAMPLE_LOG_VAR], family=distributions.STUDENT_T, nu=10.0
        ),
        "draw_rng": np.random.default_rng(draw_ss),
        "refine_rng": np.random.default_rng(refine_ss),
        "n_draw": n,
        "n_refine": n,
    }


def run_gmm_sample(inp, clock):
    q, target = inp["q"], inp["target"]
    batch = divergence.draw_batch(q, target, inp["draw_rng"], inp["n_draw"])
    plain = divergence.estimate_renyi(2.0, batch)
    T = drs.select_T_low_dim(plain)
    grid = []
    for dT in T_OFFSETS:
        cfg = drs.RefinementConfig(alpha=2.0, T=T + dT)
        est = divergence.estimate_renyi_refined(2.0, batch, cfg)
        grid.append((T + dT, est.value, est.std_error))
    sset = drs.refine(q, target, drs.RefinementConfig(alpha=2.0, T=T), inp["refine_rng"],
                      inp["n_refine"])
    return {
        "plain": (plain.value, plain.std_error),
        "grid": grid,
        "n_accepted": sset.n_accepted,
        "proposals_used": sset.proposals_used,
        "acceptance_rate": sset.acceptance_rate,
        "log_Z_R_hat": sset.log_Z_R_hat,
    }


def check_gmm_sample(inp, out):
    checks = []
    q, target = inp["q"], inp["target"]
    quad = divergence.quadrature_renyi_1d(
        lambda x: target.log_unnorm(x[:, None]),
        lambda x: distributions.log_q(q, x[:, None]),
        2.0,
        QUAD_GRID,
    )
    d, se = out["plain"]
    _check(checks, "D_2(p||q) vs quadrature", d, abs(d - quad) <= 3 * se,
           f"{quad:.5f} +- 3 se ({3 * se:.5f})")
    for T, value, rse in out["grid"]:
        limit = d + 3 * math.hypot(se, rse)
        _check(checks, f"D_2(p||r) at T={T:.3f} <= D_2(p||q) + 3 se", value,
               math.isfinite(value) and value <= limit, f"<= {limit:.5f}")
    _check(checks, "refined samples accepted", out["n_accepted"],
           out["n_accepted"] == inp["n_refine"], f"== {inp['n_refine']}")
    p, n = out["acceptance_rate"], out["proposals_used"]
    z_r = math.exp(out["log_Z_R_hat"])
    tol = 4 * math.sqrt(z_r * (1 - z_r) / n)
    _check(checks, "acceptance rate vs exp(log Z_R)", p, abs(p - z_r) <= tol,
           f"{z_r:.6f} +- 4 binomial se ({tol:.6f})")
    return checks


# -- bnn-boston: one weight-space cell, fit then refine ------------------------

def setup_bnn_boston(seed, tiny):
    return {
        "raw": bnn.load_dataset(bnn.bundled_dataset_path("boston")),
        "seed": seed,
        "config": rdvi.OptimizerConfig(iterations=300 if tiny else BNN_ITERATIONS),
    }


def run_bnn_boston(inp, clock):
    rows = bnn.run_experiment(inp["raw"], 2.0, inp["seed"], config=inp["config"])
    sset, _ = clock.last["refine_bnn"]
    return {"rows": rows, "n_accepted": sset.n_accepted}


def check_bnn_boston(inp, out):
    checks = []
    _check(checks, "refined weight samples", out["n_accepted"], out["n_accepted"] == 100,
           "== 100")
    acc = next(r for r in out["rows"] if r["method"] == "alpha-drs")["acceptance_rate"]
    _check(checks, "alpha-drs acceptance rate", acc, 0.0 < acc < 1.0, "(0, 1)")
    # the predict-the-mean baseline: run_experiment's split comes from the
    # first of four child seeds of the cell seed
    split_ss = np.random.SeedSequence(inp["seed"]).spawn(4)[0]
    _, test = bnn.train_test_split(inp["raw"], np.random.default_rng(split_ss))
    sd = float(np.std(test.destandardize_targets(test.targets)))
    for r in out["rows"]:
        finite = math.isfinite(r["rmse"]) and math.isfinite(r["test_ll"])
        _check(checks, f"{r['method']} RMSE and test LL finite", (r["rmse"], r["test_ll"]),
               finite, "finite")
        _check(checks, f"{r['method']} RMSE below test-target sd", r["rmse"],
               finite and r["rmse"] < sd, f"< {sd:.4f}")
    return checks


WORKLOADS = {
    "gmm-sweep": (setup_gmm_sweep, run_gmm_sweep, check_gmm_sweep),
    "gmm-sample": (setup_gmm_sample, run_gmm_sample, check_gmm_sample),
    "bnn-boston": (setup_bnn_boston, run_bnn_boston, check_bnn_boston),
}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    setup, run, check = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inp = setup(args.seed, args.tiny)
    reply = {"ready": time.monotonic(), "env": environment()}
    if args.setup_only:
        print(json.dumps(reply))
        return 0

    clock = StageClock()
    checks = []
    ref_before = reference_s()
    try:
        root = tracer.root() if tracer else None
        t0 = time.perf_counter()
        try:
            out = run(inp, clock)
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.end_root(root)
        reply.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            reference_s=(ref_before + reference_s()) / 2,
            rates=clock.rates,
        )
        if tracer:
            reply["layers"] = layer_metrics(tracer.spans, root, span_cost_s())
        checks = check(inp, out)
        _check(checks, "workload raised no exception", None, True, "no exception")
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        traceback.print_exc()
        _check(checks, "workload raised no exception", repr(exc), False, "no exception")
    finally:
        if "workdir" in inp:
            shutil.rmtree(inp["workdir"], ignore_errors=True)
    reply["checks"] = checks
    print(json.dumps(reply, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
