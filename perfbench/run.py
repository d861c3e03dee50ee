"""evokernel benchmark: one workload, closed loop, fresh processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is imported from ``src/``; a
directory without it makes the benchmark exit with code 2 before any run.

The run is split over ``PROCESSES`` fresh worker processes, one after the
other; each sets up from cold, runs one warm-up op and then measures for
its share of ``--seconds``.  Set-up time and peak memory are the medians
over the processes; step times are pooled.  BLAS threads are pinned to the
CPUs this process may use before any worker imports numpy.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
The line before it is the full record (environment, parameters, sample
counts, output fingerprints, errors), also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# heat_uq_classical runs on request but is not in BENCHMARK.json: its step
# time swings by more than the bounds from run to run (see README.md)
WORKLOAD_NAMES = ("heat_uq_learned", "heat_uq_classical", "nls_learned", "train")
END_TO_END = [
    ("setup_s", "s"),
    ("sample_steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]
PROCESSES = 3
WINDOWS = 4                      # step windows per process for step_ms_p90
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0


def _pinned_env():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env, nproc


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _windowed_p90(results):
    """Median of the p90s of consecutive step windows, WINDOWS per process.

    A burst of host load that slows a tenth of the steps moves a pooled p90
    by the burst's whole size; here it moves only the windows it falls in.
    """
    p90s = []
    for r in results:
        steps = r["untraced"]["steps_ms"]
        k = max(1, min(WINDOWS, len(steps) // 2))
        bounds = [round(i * len(steps) / k) for i in range(k + 1)]
        p90s += [_p90(steps[a:b]) for a, b in zip(bounds, bounds[1:])]
    return statistics.median(p90s), len(p90s)


def _median_dict(dicts):
    keys = set().union(*dicts) if dicts else set()
    return {k: statistics.median([d.get(k, 0.0) for d in dicts]) for k in keys}


def _run_workers(args, env, deadline):
    """Run the worker processes one after the other; None on any failure."""
    processes = 1 if args.smoke else PROCESSES
    results = []
    for k in range(processes):
        cmd = [sys.executable, WORKER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / processes),
               "--trace", str(args.trace), "--size", "smoke" if args.smoke else "paper",
               "--outdir", OUT]
        if args.trace:
            cmd += ["--spans", os.path.join(
                OUT, f"spans_{args.workload}_seed{args.seed}_proc{k}.jsonl")]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"worker {k} exceeded the {DEADLINE_S:.0f} s budget", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"worker {k} failed with code {proc.returncode}", file=sys.stderr)
            sys.stderr.write(proc.stderr[-4000:])
            return None
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def _end_to_end(results):
    steps = [ms for r in results for ms in r["untraced"]["steps_ms"]]
    rates = [x for r in results for x in r["untraced"]["rates"]]
    p90, windows = _windowed_p90(results)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "sample_steps_per_s": statistics.median(rates),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    samples = {
        "setup_s": len(results),
        "sample_steps_per_s": len(rates),
        "step_ms_p50": len(steps),
        "step_ms_p90": windows,
        "peak_rss_mb": len(results),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, samples


def _per_layer(results):
    """One cold set-up (median over processes) plus one steady op (median over ops)."""
    from tracing import PER_LAYER, per_layer_metrics

    setup = _median_dict([r["layers_setup"] for r in results])
    op = _median_dict([d for r in results for d in r["layers_ops"]])
    raw = {k: setup.get(k, 0.0) + op.get(k, 0.0) for k in set(setup) | set(op)}
    untraced = statistics.median(ms for r in results for ms in r["untraced"]["steps_ms"])
    traced = statistics.median(ms for r in results for ms in r["traced"]["steps_ms"])
    values = per_layer_metrics(raw, traced / untraced - 1.0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    samples = {"setup_windows": len(results),
               "op_windows": sum(len(r["layers_ops"]) for r in results),
               "untraced_steps": sum(len(r["untraced"]["steps_ms"]) for r in results),
               "traced_steps": sum(len(r["traced"]["steps_ms"]) for r in results),
               # the two halves of the window, for steady per-op figures
               "setup_window": setup, "op_window": op}
    return metrics, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, one process; for checking the harness")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "evokernel", "__init__.py")):
        print(f"evokernel sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    env, nproc = _pinned_env()
    os.makedirs(OUT, exist_ok=True)
    results = _run_workers(args, env, deadline)
    if results is None:
        return 1
    populations = ("untraced", "traced") if args.trace else ("untraced",)
    if not all(r[p]["steps_ms"] for r in results for p in populations):
        print("no op succeeded in a process; nothing to report", file=sys.stderr)
        for r in results:
            sys.stderr.write("\n".join(r["errors"]) + "\n")
        return 1

    outputs = {json.dumps(r["outputs"], sort_keys=True) for r in results}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    if len(outputs) > 1:
        # same seed and threads in every process, so outputs must agree
        errors.append(f"outputs differ across processes: {sorted(outputs)}")
        failed = attempted
    if args.trace:
        metrics, samples = _per_layer(results)
    else:
        metrics, samples = _end_to_end(results)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "paper",
        "processes": len(results),
        "params": results[0]["params"],
        "env": {**results[0]["env"], "nproc": nproc, "commit": _git_commit(),
                "threads": {var: env[var] for var in THREAD_VARS}},
        "outputs": results[0]["outputs"],
        "fail_frac": failed / attempted,
        "errors": errors[:20],
        "missing_patches": results[0].get("missing_patches", []),
        "samples": samples,
        "setup_s_all": [r["setup_s"] for r in results],
        "metrics": metrics,
    }
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
