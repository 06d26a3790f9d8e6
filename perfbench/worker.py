"""One workload in one fresh process: set-up, timed repetitions, checks.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints ``ready`` once set-up is done (the parent times set-up from
process start to that line), then a single JSON result line.  With
``--setup-only`` it exits after ``ready``.  With ``--pause`` it stops after
each repetition until the parent, which times set-up samples meanwhile,
tells it to go on.

Repetitions repeat one seed, so their CSV bytes (or result arrays) must be
identical; a mismatch, a failed correctness check or an exception counts
the repetition as failed.  With ``--trace 1`` repetitions alternate between
untraced and traced, starting untraced, and the traced ones must repeat
the work counts exactly.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import EXACT_COUNTS, Tracer, install, layer_metrics, rep_metrics

MIN_REPS = 3          # the median then ignores one slow repetition
MIN_TRACED_REPS = 4   # untraced warm-up, traced, untraced, traced


def _mode_plan(trace: bool):
    """All untraced, or untraced and traced alternating from untraced."""
    k = 0
    while True:
        yield "traced" if trace and k % 2 else "untraced"
        k += 1


def _environment() -> dict:
    """Python, numpy, scipy and BLAS versions, and BLAS threads in use."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--config", required=True, type=Path, action="append",
                    dest="configs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", type=Path, default=None)
    ap.add_argument("--pause", action="store_true",
                    help="after each repetition print 'pause' and wait for "
                    "a line on stdin; the wait is not part of the budget")
    args = ap.parse_args(argv)
    name = args.workload
    config_paths = args.configs

    import sdid  # set-up includes the package import
    import sdid.cli  # noqa: F401

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(sdid.__file__).resolve().parent.parent != src:
        raise SystemExit(f"sdid was imported from {sdid.__file__}, "
                         f"not from {src}")

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
        with tracer.root("setup", rep="setup"):
            cfgs = workloads.setup(name, config_paths)
    else:
        cfgs = workloads.setup(name, config_paths)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reps = []
    digest0 = None
    counts0 = None
    start = time.perf_counter()
    paused = 0.0
    min_reps = MIN_TRACED_REPS if args.trace else MIN_REPS
    for k, mode in enumerate(_mode_plan(bool(args.trace))):
        # Stop before a repetition that would end past the time budget.
        elapsed = time.perf_counter() - start - paused
        if k >= min_reps and elapsed * (k + 1) / k > args.seconds:
            break
        rep = {"mode": mode, "ok": False, "notes": []}
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            if mode == "traced":
                with tracer.root("repetition", rep=str(k)) as idx:
                    result = workloads.run_once(name, cfgs)
                t = tracer.spans[idx].duration
            else:
                t0 = time.perf_counter()
                result = workloads.run_once(name, cfgs)
                t = time.perf_counter() - t0
            rep["run_s"] = t
            rep["page_faults"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_minflt - faults0
            outcome = workloads.check(name, cfgs, result)
            rep["checks"] = {c: [ok, d] for c, (ok, d) in
                             outcome.checks.items()}
            rep["info"] = outcome.info
            rep["work"] = outcome.work
            ok = outcome.passed
            if digest0 is None:
                digest0 = outcome.digest
            elif outcome.digest != digest0:
                ok = False
                rep["notes"].append("output bytes differ from repetition 0")
            if mode == "traced":
                stats = rep_metrics(tracer.spans, str(k))
                rep["trace"] = stats
                counts = {c: stats["counts"].get(c, 0)
                          for c in EXACT_COUNTS}
                if counts0 is None:
                    counts0 = counts
                elif counts != counts0:
                    ok = False
                    rep["notes"].append(f"work counts differ: {counts} "
                                        f"vs {counts0}")
            rep["ok"] = ok
        except Exception:  # a raising repetition is a failed one
            rep["notes"].append(traceback.format_exc())
            traceback.print_exc(file=sys.stderr)
        reps.append(rep)
        if args.pause:
            p0 = time.perf_counter()
            print("pause", flush=True)
            sys.stdin.readline()
            paused += time.perf_counter() - p0

    out = {"reps": reps, "env": _environment(),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        setup_stats = rep_metrics(tracer.spans, "setup")
        traced = [r["trace"] for r in reps if "trace" in r]
        # Repetition 0 is a warm-up: the first calls in a fresh process
        # are slower (allocator growth), so it is left out of the overhead.
        untraced = [r["run_s"] for r in reps[1:]
                    if r["mode"] == "untraced" and "run_s" in r]
        if traced and untraced:
            metrics = layer_metrics(traced, setup_stats,
                                    sum(untraced) / len(untraced))
            out["layers"] = {k: [v, u] for k, (v, u) in metrics.items()}
        if args.trace_out is not None:
            tracer.dump(args.trace_out)
    print(json.dumps(out, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
