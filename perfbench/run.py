"""sdid benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload ramsey_dense --seed 0 --seconds 40 \
        --trace 0

Runs the package from the checkout's ``src`` (nothing is installed).  Set-up
time is measured over several fresh processes; the workload itself runs in
one more process that repeats the experiment for ``--seconds`` and checks
every repetition.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The
lines before it print the same metrics with units, the correctness checks,
informational cross-checks and the environment.

``SDID_THREADS`` is removed from the environment, so the package's default
of 1 applies.  BLAS threads are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9          # fresh processes timed to their first call
SETUP_PER_PAUSE = 2        # of them, taken before and after each repetition
TIME_LIMIT_S = 170.0       # the whole invocation must end within this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Throughput per workload: (metric name, numerator key in Outcome.work).
# The last one is reported to BENCHMARK.json as work_per_s.
THROUGHPUT = {
    "ramsey_dense": (("points_per_s", "points"),),
    "cpmg_pulsed": (("points_per_s", "points"), ("shots_per_s", "shots")),
    "rb_clifford": (("gate_steps_per_s", "gate_steps"),),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env(nproc: int) -> tuple[dict, dict]:
    env = dict(os.environ)
    src = ROOT / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    record = {"sdid_threads_env_set": "SDID_THREADS" in os.environ}
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    record["blas_threads_env"] = int(env[BLAS_VARS[0]])
    env.pop("SDID_THREADS", None)
    return env, record


def _spawn(args: list[str], env: dict, deadline: float, on_pause=None):
    """Run a worker; return (seconds to its 'ready' line, its last line).

    Each time the worker prints ``pause`` it waits; ``on_pause()`` runs and
    the worker is then told to go on.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py")]
                            + args, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
                            text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(max(deadline - t0, 1.0), kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            last = line.rstrip("\n")
            if last == "ready" and ready is None:
                ready = time.perf_counter() - t0
            elif last == "pause" and on_pause is not None:
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if timed_out.is_set():
        raise BenchError("worker exceeded the time limit")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    if ready is None:
        raise BenchError("worker never reported ready")
    return ready, last


def _high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]


def _end_to_end(name: str, setup: list[float], result: dict,
                reps: list[dict]) -> tuple[dict, list[str], dict]:
    run_times = [r["run_s"] for r in reps if "run_s" in r]
    run_s = statistics.median(run_times)
    done = [r for r in reps if r.get("work")]
    if not done:
        raise BenchError("no repetition produced a result")
    # Throughput is work done over the time spent doing it, all repetitions
    # included: unlike the median run_s it counts the slow first one.
    busy_s = sum(r["run_s"] for r in done)

    def rate(key: str) -> float:
        return sum(r["work"][key] for r in done) / busy_s

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "work_per_s": (rate(THROUGHPUT[name][-1][1]), "1/s"),
    }
    high = _high_percentile(run_times)
    notes = [
        f"setup_s: median of {len(setup)} fresh processes: "
        + ", ".join(f"{t:.3f}" for t in setup),
        f"run_s: median of n={len(run_times)} repetitions: "
        + ", ".join(f"{t:.3f}" for t in run_times)
        + (f"; p{high[0]} = {high[1]:.4f} s" if high else
           "; no percentile has 10 samples above it (needs n >= 11)"),
    ]
    failed = sum(not r["ok"] for r in reps)
    summary = {k: metrics[k] for k in ("setup_s", "run_s", "peak_rss_mb")}
    summary["error_rate"] = (failed / len(reps), "ratio")
    notes.append(f"error_rate = {failed / len(reps):.4g} ratio "
                 f"({failed}/{len(reps)})")
    for metric, key in THROUGHPUT[name]:
        summary[metric] = (rate(key), "1/s")
        notes.append(f"{metric} = {rate(key):.6g} 1/s ({done[0]['work'][key]} "
                     f"per repetition, {len(done)} repetitions)")
    notes.append(f"work_per_s reports {THROUGHPUT[name][-1][1]} per second")
    return metrics, notes, summary


def _layer_notes(layers: dict) -> list[str]:
    from tracing import LAYERS

    self_total = sum(layers[f"{layer}.self_s"][0] for layer in LAYERS)
    run_s = layers["trace.run_s"][0]
    ranked = sorted(LAYERS, key=lambda layer: -layers[f"{layer}.self_s"][0])
    shares = ", ".join(f"{layer} {layers[f'{layer}.self_s'][0] / run_s:.1%}"
                       for layer in ranked)
    return [f"self times sum to {self_total:.4f} s; traced run_s "
            f"{run_s:.4f} s",
            f"self-time shares: {shares}"]


def run_workload(name: str, seed: int, seconds: float,
                 trace: int) -> tuple[list[str], dict, dict]:
    """Run one workload; returns printable lines, summary and result."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env, record = _child_env(nproc)
    work_dir = OUT_DIR / f"{name}-{os.getpid()}"
    trace_out = OUT_DIR / f"trace-{name}-seed{seed}.json"
    try:
        # Configs are passed by name: the CSV sidecars that a repetition
        # writes into the same directory are JSON files too.
        base = ["--workload", name]
        for path in sorted(workloads.write_inputs(name, seed, work_dir)):
            base += ["--config", str(path)]

        # Only the untraced run reports set-up time.  Its samples are taken
        # before the workload process and in its pauses between
        # repetitions, so they span the whole run: the host's speed drifts
        # over tens of seconds, and samples bunched at one end follow it.
        wanted = 0 if trace else SETUP_SAMPLES - 1
        setup: list[float] = []

        def sample(n: int) -> None:
            for _ in range(min(n, wanted - len(setup))):
                setup.append(_spawn(base + ["--setup-only"], env,
                                    deadline)[0])

        sample(SETUP_PER_PAUSE)
        ready_s, last = _spawn(
            base + ["--seconds", str(seconds), "--trace", str(trace)]
            + (["--trace-out", str(trace_out)] if trace else ["--pause"]),
            env, deadline, on_pause=lambda: sample(SETUP_PER_PAUSE))
        sample(wanted)
        setup.append(ready_s)
        result = json.loads(last)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = result["reps"]
    lines = [f"perfbench workload={name} seed={seed} trace={trace} "
             f"seconds={seconds}",
             "env " + json.dumps({"nproc": nproc, **result["env"], **record},
                                 sort_keys=True)]
    if trace:
        if "layers" not in result:
            raise BenchError("traced run produced no layer metrics")
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        notes = _layer_notes(metrics) + [f"spans written to {trace_out}"]
        summary = {}
    else:
        metrics, notes, summary = _end_to_end(name, setup, result, reps)
    lines += [f"metric {key} = {value:.6g} {unit}"
              for key, (value, unit) in metrics.items()]
    lines += [f"note {note}" for note in notes]
    for i, rep in enumerate(reps):
        checks = "; ".join(f"{c} {'PASS' if ok else 'FAIL'}: {d}"
                           for c, (ok, d) in rep.get("checks", {}).items())
        lines.append(
            f"rep {i} {rep['mode']} {'ok' if rep['ok'] else 'FAILED'} "
            f"{rep.get('run_s', float('nan')):.4f} s "
            f"{rep.get('page_faults', 0)} page faults | {checks}"
            + "".join(f" | {n.strip().splitlines()[-1]}"
                      for n in rep["notes"]))
    info = next((r["info"] for r in reps if r.get("info")), {})
    lines.append("info " + json.dumps(info, sort_keys=True, default=float))
    failed = sum(not r["ok"] for r in reps)
    return lines, summary, {
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}


def _table(summaries: dict) -> list[str]:
    lines = ["summary (error_rate = failed / attempted repetitions)"]
    for name, summary in summaries.items():
        lines.append(f"{name:<13} " + " | ".join(
            f"{k} {value:.4g} {unit}" for k, (value, unit) in
            summary.items()))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdid" / "__init__.py").is_file():
        print(f"perfbench: no sdid sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results, summaries = {}, {}
    for name in names:
        seed = workloads.DEFAULT_SEEDS[name] if args.seed is None \
            else args.seed
        try:
            lines, summaries[name], results[name] = run_workload(
                name, seed, args.seconds, args.trace)
        except (BenchError, OSError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 3
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    if not args.trace:
        print("\n".join(_table(summaries)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
