"""Seeded benchmark of the alphadrs fit -> refine pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload gmm-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; why each
workload exists is in ``perfbench/NOTES.md``.  Every repetition runs in a
fresh interpreter (``perfbench/workloads.py``) with the BLAS thread count
capped at the usable core count, as one closed-loop caller.  The run
first starts a few set-up-only processes, then repeats the workload while
another repetition still fits in ``--seconds``, and reports medians.  The
gated time, ``wall_ref``, divides each repetition's wall time by a fixed
reference computation timed in the same process, which cancels much of a
shared machine's speed drift.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
every check passed, 1 that a check failed or a repetition raised, and 2
that the checkout lacks the package sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workloads.py"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s
ACCOUNTING_FLOOR_S = 1e-3  # clock resolution allowed by the self-time accounting check


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _spawn(workload, seed, flags, timeout):
    """Run one worker process; returns (reply or None, set-up seconds, error)."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
               MKL_NUM_THREADS=nproc, PYTHONPATH=str(CHECKOUT / "src"))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, None, f"worker timed out after {timeout:.0f} s"
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        reply = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, None, f"worker exited with code {proc.returncode} and no result"
    if proc.returncode != 0:
        return None, None, f"worker exited with code {proc.returncode}"
    return reply, reply["ready"] - t_spawn, None


def measure(workload, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """Run one workload for ``seconds``; returns the per-repetition records."""
    start = time.monotonic()
    extra = ["--tiny"] if tiny else []
    setups, untraced, traced, checks = [], [], [], []
    env = {}

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    def record(reply, setup_s, error, into):
        if error:
            checks.append({"name": "worker completed", "value": error, "bound": "no error",
                           "ok": False})
            return
        env.update(reply["env"])
        checks.extend(reply.get("checks", []))
        if into is untraced:
            setups.append(setup_s)
        if "wall_s" in reply:
            into.append(reply)

    for _ in range(probes):
        record(*_spawn(workload, seed, ["--setup-only", *extra], remaining()), untraced)
    modes = [False, True] if trace else [False]
    while True:
        t_cycle = time.monotonic()
        for is_traced in modes:
            flags = [*extra, "--trace"] if is_traced else extra
            record(*_spawn(workload, seed, flags, remaining()),
                   traced if is_traced else untraced)
        cycle = time.monotonic() - t_cycle
        if time.monotonic() + cycle > start + seconds or cycle > remaining():
            break
    return {"setups": setups, "untraced": untraced, "traced": traced, "checks": checks,
            "env": env}


def end_to_end(m):
    """Medians of the untraced repetitions; stage rates are medians over calls."""
    reps = m["untraced"]

    def rate(stage):
        return _median([x for r in reps for x in r["rates"][stage]])

    return {
        "wall_ref": _median([r["wall_s"] / r["reference_s"] for r in reps]),
        "wall_s": _median([r["wall_s"] for r in reps]),
        "reference_s": _median([r["reference_s"] for r in reps]),
        "setup_s": _median(m["setups"]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "fit_iters_per_s": rate("fit"),
        "refined_per_s": rate("refine"),
    }


def per_layer(m):
    """Medians of the traced repetitions' layer metrics, the untraced stage
    rates, and the tracing overhead."""
    reps = m["traced"]
    names = reps[0]["layers"] if reps else {}
    out = {k: _median([r["layers"][k] for r in reps]) for k in names}
    e2e = end_to_end(m)
    out.update({k: e2e[k] for k in ("wall_s", "reference_s", "fit_iters_per_s",
                                    "refined_per_s")})
    wall, base = _median([r["wall_s"] for r in reps]), e2e["wall_s"]
    out.update({
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base,
        "trace.overhead_frac": (wall - base) / base if base else 0.0,
    })
    return out


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "alphadrs").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(CHECKOUT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (CHECKOUT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, text=True,
                                    capture_output=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unavailable ({exc})"
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def _spread(xs):
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)}, q1 {q1:.6g}, q3 {q3:.6g}"


def report(workload, seed, seconds, trace, spec, m):
    """Print the human-readable record; return the result object."""
    env = {**m["env"], **environment(seed)}
    print(f"== {workload}: seed {seed}, {seconds} s, trace {trace}, "
          f"{len(m['untraced'])} untraced + {len(m['traced'])} traced repetitions, "
          f"{len(m['setups'])} set-ups")
    print("env: " + json.dumps(env, sort_keys=True))
    checks = list(m["checks"])
    if trace:
        values = per_layer(m)
        # the layers' self times must cover the traced wall time up to the
        # tracer's own cost; the measured traced-minus-untraced difference
        # is printed too, but on a shared machine it is mostly noise
        gap = values.get("trace.unaccounted_s", 0.0)
        tol = max(values.get("trace.overhead_est_s", 0.0), ACCOUNTING_FLOOR_S)
        checks.append({"name": "layer self times account for traced wall_s", "value": gap,
                       "bound": f"<= tracing overhead {tol:.6f} s",
                       "ok": bool(m["traced"]) and abs(gap) <= tol})
        declared = spec["per_layer"]
    else:
        values = end_to_end(m)
        declared = spec["end_to_end"]
    seen = set()
    for c in checks:
        if not c["ok"] or c["name"] not in seen:
            print(f"check {'PASS' if c['ok'] else 'FAIL'}: {c['name']}: value {c['value']} "
                  f"bound {c['bound']}")
            seen.add(c["name"])
    failed = sum(not c["ok"] for c in checks)
    attempted = max(len(checks), 1)
    # a repetition that failed leaves its metrics out; the result is then
    # incorrect and reports zero for them
    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]}
               for d in declared}
    for name, v in metrics.items():
        print(f"metric {name} = {v['value']:.6g} {v['unit']}")
    if not trace:
        for name in ("wall_s", "reference_s", "peak_rss_mb"):
            print(f"spread {name}: {_spread([r[name] for r in m['untraced']])}")
        print(f"spread setup_s: {_spread(m['setups'])}")
        print(f"info wall_s = {values['wall_s']:.6g} s, reference_s = "
              f"{values['reference_s']:.6g} s")
        for name in ("fit_iters_per_s", "refined_per_s"):
            print(f"info {name} = {values[name]:.6g} 1/s (0 where the stage is absent)")
    else:
        for layer in ("distributions", "rdvi", "divergence", "drs", "bnn", "cli"):
            print(f"self time {layer}: {values.get(f'{layer}.self_s', 0.0):.4f} s")
    print(f"info failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    spec_path = CHECKOUT / "BENCHMARK.json"
    if not (CHECKOUT / "src" / "alphadrs" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {CHECKOUT} holds no src/alphadrs package or BENCHMARK.json; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for workload in names if args.workload == "all" else [args.workload]:
        m = measure(workload, args.seed, args.seconds, args.trace)
        results[workload] = report(workload, args.seed, args.seconds, args.trace, spec, m)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
