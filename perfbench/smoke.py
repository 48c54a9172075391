"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and asserts that
every metric ``BENCHMARK.json`` declares is emitted with no failed check.
Then it feeds deliberately wrong results to the checkers and asserts that
each is counted as a failure.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that must be nonzero on the workload that exercises them
BUSY = {
    "gmm-sweep": ["fit_iters_per_s", "refined_per_s", "rdvi.fit.self_s", "rdvi.step_us",
                  "distributions.target_grad.points", "drs.refine.eval_yield",
                  "cli.gmm_demo.self_s"],
    "gmm-sample": ["refined_per_s", "divergence.draw_batch.points",
                   "divergence.estimate.calls", "drs.refine.points_evaluated",
                   "drs.refine.accept_rate"],
    "bnn-boston": ["fit_iters_per_s", "refined_per_s", "bnn.fit_bnn.gflops",
                   "bnn.fit_bnn.step_ms", "drs.pilot_threshold.points",
                   "bnn.refine_bnn.act_mb_computed", "bnn.refine_bnn.rss_growth_mb",
                   "bnn.load_dataset.s", "bnn.train_test_split.s", "bnn.evaluate.s"],
}


def check_metrics(spec):
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            m = run.measure(name, seed=0, seconds=0, trace=trace, tiny=True, probes=1)
            result = run.report(name, 0, 0, trace, spec, m)
            assert set(result["metrics"]) == {d["name"] for d in spec[key]}, name
            assert result["correct"] and result["failed"] == 0, (name, trace)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace:
                zero = [k for k in BUSY[name] if not values[k] > 0]
                assert not zero, (name, zero)
                assert values["trace.spans"] > 0 and values["trace.overhead_est_s"] > 0
            else:
                assert all(v > 0 for v in values.values()), (name, values)
    return m


def check_wrong_results_fail(spec, m):
    inp = workloads.setup_gmm_sample(0, tiny=True)
    out = workloads.run_gmm_sample(inp, None)
    assert all(c["ok"] for c in workloads.check_gmm_sample(inp, out))
    d, se = out["plain"]
    bad = workloads.check_gmm_sample(inp, dict(out, plain=(d + 10 * se, se)))
    assert [c["name"] for c in bad if not c["ok"]] == ["D_2(p||q) vs quadrature"], bad

    inp = workloads.setup_bnn_boston(0, tiny=True)
    rows = [{"method": meth, "rmse": 1e3, "test_ll": -3.0, "acceptance_rate": 0.1}
            for meth in ("rdvi", "alpha-drs")]
    wrong_rmse = workloads.check_bnn_boston(inp, {"rows": rows, "n_accepted": 100})
    assert sum(not c["ok"] for c in wrong_rmse) == 2, wrong_rmse

    # a failed check reaches the result line as a failure
    result = run.report("bnn-boston", 0, 0, 1, spec, dict(m, checks=m["checks"] + bad))
    assert not result["correct"] and result["failed"] == 1, result


def main():
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["gmm-sweep", "gmm-sample", "bnn-boston"]
    m = check_metrics(spec)
    check_wrong_results_fail(spec, m)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
