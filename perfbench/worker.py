"""One benchmark process: set-up, warm-up op, then a closed loop of ops.

Started by run.py with the BLAS thread variables already in its
environment, so they are fixed before numpy loads.  Prints one JSON object
as the last line of its standard output.

Set-up is timed from after the imports (and after the untimed fixtures:
random checkpoints written to disk) until the first op has returned, which
covers checkpoint load, kernel and potential assembly, operator caches, FD
factorisation and, for ``train``, datagen.

With ``--trace 1`` the set-up is traced, and the measured ops alternate
between untraced and traced, so both step-time populations share the same
conditions; the traced spans give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, install_patches, window_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas():
    """BLAS/LAPACK build as numpy reports it (name, version, configuration)."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy older than 1.26 prints only
        return None
    keep = ("name", "version", "openblas configuration")
    return {lib: {k: v for k, v in deps[lib].items() if k in keep}
            for lib in ("blas", "lapack") if lib in deps}


def _describe(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _run_op(wl, errors):
    """Run one op; any exception or failed output check marks it failed."""
    try:
        rec = wl.op()
    except Exception as exc:  # the loop must go on and count the failure
        errors.append(_describe(exc))
        return None
    if rec.problems:
        errors.extend(rec.problems)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("paper", "smoke"), default="paper")
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--spans", default=None, help="write traced spans here (JSON lines)")
    args = ap.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        install_patches(tracer)
    errors = []
    os.makedirs(args.outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.outdir) as workdir:
        wl = WORKLOADS[args.workload](args.size, args.seed, tracer, workdir)
        wl.fixtures()

        if args.trace:
            tracer.enable()
        t0 = time.perf_counter()
        wl.setup()
        first = _run_op(wl, errors)
        setup_s = time.perf_counter() - t0
        tracer.disable()

        fingerprint = first.fingerprint if first and not first.problems else None
        ops = [first]
        measured = {0: [], 1: []}      # traced flag -> OpRecords
        deadline = time.perf_counter() + args.seconds
        min_ops = 2 if args.trace else 1
        while time.perf_counter() < deadline or len(ops) <= min_ops:
            traced = bool(args.trace) and len(ops) % 2 == 0
            if traced:
                tracer.next_op()
                tracer.enable()
            rec = _run_op(wl, errors)
            tracer.disable()
            ops.append(rec)
            if rec is not None:
                if fingerprint is not None and rec.fingerprint != fingerprint:
                    errors.append(f"op {len(ops) - 1} fingerprint {rec.fingerprint} "
                                  f"!= first op {fingerprint}")
                    rec.problems.append("fingerprint")
                measured[int(traced)].append(rec)
        if ops[-1] is not None:
            # checked against the last op's outputs, so a failure fails that op
            try:
                problems = wl.final_check()
            except Exception as exc:  # a crash in the check is a failed check
                problems = [_describe(exc)]
            errors.extend(problems)
            ops[-1].problems.extend(problems)

    failed = sum(1 for r in ops if r is None or r.problems)
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:20],
        "outputs": dict(zip(wl.outputs, fingerprint)) if fingerprint is not None else None,
        "untraced": _summary(measured[0]),
        "traced": _summary(measured[1]),
        "params": wl.params(),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
        },
    }
    if args.trace:
        result["missing_patches"] = tracer.missing
        result["layers_setup"] = window_counts([s for s in tracer.spans if s.op == 0])
        result["layers_ops"] = [window_counts([s for s in tracer.spans if s.op == k])
                                for k in range(1, tracer.op + 1)]
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def _summary(recs):
    return {
        "ops": len(recs),
        "rates": [r.work / r.seconds for r in recs],
        "steps_ms": [ms for r in recs for ms in r.steps_ms],
    }


if __name__ == "__main__":
    sys.exit(main())
