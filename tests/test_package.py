"""The package surface: what `from sdid import *` exports, and what the
benchmark under `perfbench/` reads of it."""

import subprocess
import sys
from pathlib import Path

import sdid

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_unique_and_resolves():
    assert len(sdid.__all__) == len(set(sdid.__all__))
    missing = [name for name in sdid.__all__ if not hasattr(sdid, name)]
    assert missing == []


# In a fresh interpreter, importing `src` and `perfbench` from this
# checkout: every workload writes and loads its configs, the tracer finds
# each function and `from ... import` copy that it wraps, and one traced
# repetition of each workload at its default seed passes the workload's own
# checks, so a call that the benchmark makes and tier-1 does not still runs.
BENCHMARK_RUN = """
import sys
from pathlib import Path
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import tracing
import workloads
tracer = tracing.Tracer()
tracing.install(tracer)
for name, seed in workloads.DEFAULT_SEEDS.items():
    cfgs = workloads.setup(name, workloads.write_inputs(name, seed, out / name))
    with tracer.root(name, rep=name):
        result = workloads.run_once(name, cfgs)
    outcome = workloads.check(name, cfgs, result)
    if not outcome.passed:
        sys.exit(f"{name}: {outcome.checks}")
"""


def test_the_benchmark_sets_up_on_this_source(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", BENCHMARK_RUN, str(ROOT), str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
