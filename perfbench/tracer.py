"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each alphadrs layer module from
outside the package.  Modules import functions by name (``from
.distributions import log_q``), so a wrapper is installed under every name
in every loaded alphadrs module that is bound to the original function, not
only in the module that defines it.

Each call records one span ``[name, start, end, parent, counts]``.  Spans
stay in a list until the workload ends; ``layer_metrics`` then reduces them
to the per-layer metrics named in ``BENCHMARK.json``.  A span's self time
is its duration minus the durations of its direct children; the code is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

LAYERS = ("distributions", "rdvi", "divergence", "drs", "bnn", "cli")

_MB = 1e6


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / _MB


def _estimate_points(args, kwargs, result):
    batch = next(
        (a for a in (*args, *kwargs.values()) if hasattr(a, "L_vals")), None
    )
    return {"points": batch.size if batch is not None else 0}


def _fit_bnn_counts(signature, args, kwargs, result):
    # the einsum contractions of one step: forward X.W1 and output layer,
    # backward dW1 and dw2, at 2 flop per multiply-add
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    dataset, hidden = a["dataset"], a["hidden"]
    K = a["config"].samples_per_step
    n = min(a["minibatch_size"], dataset.n)
    iters = len(result.trace)
    flop = 4.0 * K * n * hidden * (dataset.dim + 1) * iters
    return {"iterations": iters, "gflop": flop / 1e9}


def _log_p_tilde_counts(args, kwargs, result):
    model, delta, dataset = (_arg(args, kwargs, i, n) for i, n in
                             enumerate(("model", "delta", "dataset")))
    k = _rows(delta)
    return {"points": k, "act_mb": k * dataset.n * model.hidden * 8 / _MB}


# count functions by span name: (args, kwargs, result) -> {counter: value}
_COUNTS = {
    "distributions.sample_reparam": lambda a, k, r: {"points": _arg(a, k, 2, "S")},
    "distributions.log_q": lambda a, k, r: {"points": _rows(_arg(a, k, 1, "x"))},
    "distributions.eval_log_unnorm": lambda a, k, r: {"points": len(r)},
    "distributions.eval_grad_log_unnorm": lambda a, k, r: {"points": len(r)},
    "divergence.draw_batch": lambda a, k, r: {"points": r.size},
    "divergence.estimate_renyi": _estimate_points,
    "divergence.estimate_renyi_refined": _estimate_points,
    "divergence.estimate_kl_limit": _estimate_points,
    "divergence.estimate_log_M": _estimate_points,
    "drs.pilot_threshold": lambda a, k, r: {"points": _arg(a, k, 3, "S")},
    "drs.refine": lambda a, k, r: {"proposals": r.proposals_used, "accepted": r.n_accepted},
    "rdvi.fit": lambda a, k, r: {"iterations": len(r.objective)},
    "bnn.fit_bnn": _fit_bnn_counts,
    "bnn.log_p_tilde_weights": _log_p_tilde_counts,
}


class Tracer:
    """Records spans around wrapped calls while ``active`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counts = _COUNTS.get(name)
        if counts is _fit_bnn_counts:
            counts = functools.partial(counts, inspect.signature(fn))
        track_rss = name == "bnn.refine_bnn"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _max_rss_mb() if track_rss else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            elif track_rss:
                span[4] = {"rss_growth_mb": _max_rss_mb() - rss0}
            return result

        return traced

    def install(self):
        """Wrap every public layer function under each name it is bound to."""
        import alphadrs.cli  # noqa: F401  - loads every layer module

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"alphadrs.{layer}"]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[fn] = self.wrap(f"{layer}.{n}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "alphadrs" or modname.startswith("alphadrs."):
                for n, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in originals:
                        setattr(mod, n, originals[value])

    def root(self, name="bench.workload"):
        """Open a root span; returns its index.  Close it with ``end_root``."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1, None])
        self._stack.append(idx)
        return idx

    def end_root(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self.active = False


def span_cost_s(calls=20000):
    """Measured extra cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()

    def plain(x):
        return x

    traced = tracer.wrap("calibration", plain)
    clock = time.perf_counter
    t0 = clock()
    for i in range(calls):
        plain(i)
    t1 = clock()
    for i in range(calls):
        traced(i)
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


# span name -> metric prefix where the two differ
_ALIASES = {
    "distributions.eval_log_unnorm": "distributions.target_log_p",
    "distributions.eval_grad_log_unnorm": "distributions.target_grad",
    "cli.cmd_gmm_demo": "cli.gmm_demo",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, root_idx, span_cost):
    """Reduce recorded spans to the per-layer metrics (zero for idle layers).

    Spans before ``root_idx`` belong to set-up (the dataset load); they
    count toward their function's metrics but not toward the layer self
    times, which cover the root span only.  ``span_cost`` is the measured
    cost of one traced call, which prices the tracer's own overhead.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    total, selfs, calls, counts = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        if name.startswith("divergence.estimate_"):
            name = "divergence.estimate"
        name = _ALIASES.get(name, name)
        total[name] = total.get(name, 0.0) + dur[i]
        selfs[name] = selfs.get(name, 0.0) + self_t[i]
        calls[name] = calls.get(name, 0) + 1
        for key, v in (s[4] or {}).items():
            c = counts.setdefault(name, {})
            if key in ("act_mb", "rss_growth_mb"):
                c[key] = max(c.get(key, 0.0), v)
            else:
                c[key] = c.get(key, 0) + v

    # target rows evaluated with a drs.refine span among the ancestors
    points_in_refine = 0
    for s in spans:
        if s[0] == "distributions.eval_log_unnorm" and s[4]:
            p = s[3]
            while p >= 0 and spans[p][0] != "drs.refine":
                p = spans[p][3]
            if p >= 0:
                points_in_refine += s[4]["points"]

    def cnt(name, key):
        return counts.get(name, {}).get(key, 0)

    m = {}
    for prefix in ("distributions.sample_reparam", "distributions.log_q",
                   "distributions.target_log_p", "distributions.target_grad",
                   "divergence.draw_batch", "drs.pilot_threshold",
                   "bnn.log_p_tilde_weights"):
        m[f"{prefix}.s"] = total.get(prefix, 0.0)
        m[f"{prefix}.points"] = cnt(prefix, "points")
    fit_s, iters = total.get("rdvi.fit", 0.0), cnt("rdvi.fit", "iterations")
    m.update({
        "rdvi.fit.s": fit_s,
        "rdvi.fit.self_s": selfs.get("rdvi.fit", 0.0),
        "rdvi.fit.iterations": iters,
        "rdvi.step_us": 1e6 * _ratio(fit_s, iters),
        "divergence.estimate.s": total.get("divergence.estimate", 0.0),
        "divergence.estimate.calls": calls.get("divergence.estimate", 0),
        "divergence.estimate.points": cnt("divergence.estimate", "points"),
    })
    proposals, accepted = cnt("drs.refine", "proposals"), cnt("drs.refine", "accepted")
    m.update({
        "drs.refine.s": total.get("drs.refine", 0.0),
        "drs.refine.self_s": selfs.get("drs.refine", 0.0),
        "drs.refine.proposals_used": proposals,
        "drs.refine.points_evaluated": points_in_refine,
        "drs.refine.eval_yield": _ratio(proposals, points_in_refine),
        "drs.refine.accept_rate": _ratio(accepted, proposals),
    })
    bfit_s = total.get("bnn.fit_bnn", 0.0)
    gflop = cnt("bnn.fit_bnn", "gflop")
    m.update({
        "bnn.fit_bnn.s": bfit_s,
        "bnn.fit_bnn.step_ms": 1e3 * _ratio(bfit_s, cnt("bnn.fit_bnn", "iterations")),
        "bnn.fit_bnn.gflop_computed": gflop,
        "bnn.fit_bnn.gflops": _ratio(gflop, bfit_s),
        "bnn.refine_bnn.s": total.get("bnn.refine_bnn", 0.0),
        "bnn.refine_bnn.rss_growth_mb": cnt("bnn.refine_bnn", "rss_growth_mb"),
        "bnn.refine_bnn.act_mb_computed": cnt("bnn.log_p_tilde_weights", "act_mb"),
        "bnn.load_dataset.s": total.get("bnn.load_dataset", 0.0),
        "bnn.train_test_split.s": total.get("bnn.train_test_split", 0.0),
        "bnn.evaluate.s": total.get("bnn.evaluate", 0.0),
        "cli.gmm_demo.self_s": selfs.get("cli.gmm_demo", 0.0),
    })
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in range(root_idx + 1, n):
        layer_self[spans[i][0].split(".", 1)[0]] += self_t[i]
    for layer, v in layer_self.items():
        m[f"{layer}.self_s"] = v
    m["trace.unaccounted_s"] = self_t[root_idx]
    m["trace.spans"] = n - root_idx - 1
    m["trace.overhead_est_s"] = m["trace.spans"] * span_cost
    return m
