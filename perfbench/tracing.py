"""Span tracer installed around the public functions of each sdid layer.

Only the traced run uses it.  Spans live in memory (name, layer, start, end,
parent, repetition id, counts) and are written to a JSON file at the end;
per-layer self times and work counts are derived from them afterwards.
Counts are computed from the arguments and results of each call, so the
program itself is never edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import dataclass, field

from workloads import rb_gate_steps

# Layer order for reports; "bench" is the benchmark's own code between calls.
LAYERS = ("operators", "model", "analytic", "trajectory", "rb", "fitting",
          "config", "cli", "bench")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    rep: str
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans while a root span is open.

    Calls made outside a root span (the benchmark's correctness checks) pass
    through unrecorded.  The stack assumes one thread, which holds with
    SDID_THREADS at its default of 1.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def open(self, name: str, layer: str, rep: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if rep is None:
            rep = self.spans[parent].rep
        self.spans.append(Span(name, layer, time.perf_counter(), parent, rep))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped})")

    @contextlib.contextmanager
    def root(self, name: str, rep: str):
        """Open a top-level span; yields its index."""
        idx = self.open(name, "bench", rep=rep)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, layer: str, fn, counter=None):
        """Return `fn` wrapped in a span; `counter(args, result)` adds counts."""
        sig = inspect.signature(fn)
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx].counts.update(
                    counter(bound.arguments, result))
            return result

        traced.__wrapped_original__ = fn
        return traced

    def patch(self, owner, attr: str, layer: str, counter=None) -> None:
        original = getattr(owner, attr)
        if hasattr(original, "__wrapped_original__"):
            raise RuntimeError(f"{owner.__name__}.{attr} is already traced")
        setattr(owner, attr, self.wrap(layer, original, counter))

    def patch_alias(self, owner, attr: str, source, source_attr: str) -> None:
        """Point a `from x import y` copy at the already-traced original."""
        if getattr(owner, attr) is not _original(getattr(source, source_attr)):
            raise RuntimeError(f"{owner.__name__}.{attr} is not an alias of "
                               f"{source.__name__}.{source_attr}")
        setattr(owner, attr, getattr(source, source_attr))

    def dump(self, path) -> None:
        payload = [{"name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "rep": s.rep,
                    "counts": s.counts} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": payload}, fh)


def _original(fn):
    return getattr(fn, "__wrapped_original__", fn)


# -- counters: work done per call, from arguments and results --------------

def _count_expm(args, result):
    dim = int(result.shape[0])
    return {"work": dim ** 3}


def _count_propagate(args, result):
    # Same event merge as the propagator: a step is a positive time gap
    # between consecutive grid or pulse times.
    events = sorted(list(args["times"]) + list(args["pulse_times"] or []))
    steps, t_now = 0, 0.0
    for t in events:
        if t - t_now > 0:
            steps += 1
            t_now = t
    return {"steps": steps}


def _count_ensemble_trace(args, result):
    points = sum(1 for t in args["times"] if t > 0)
    order = args["cpmg_order"]
    pulses = 0 if order is None else points * (order + 1)
    return {"points": points, "shots": points * args["ens"].n_traj,
            "pulses": pulses}


def _count_rb(args, result):
    n_seq = int(args["n_seq"])
    return {"sequences": len(args["lengths"]) * n_seq,
            "gate_steps": rb_gate_steps(args["device"].n_spectators,
                                        args["init"], args["lengths"], n_seq)}


def _count_fit(args, result):
    return {"converged": int(bool(result.converged))}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each measured layer.

    `sdid.derivations` is left out on purpose: no workload calls it.
    """
    import sdid.analytic
    import sdid.cli
    import sdid.config
    import sdid.fitting
    import sdid.model
    import sdid.operators
    import sdid.rb
    import sdid.trajectory

    tracer.patch(sdid.operators, "expm", "operators", _count_expm)
    model = sdid.model
    tracer.patch(model, "build_liouvillian", "model")
    tracer.patch(model, "propagate", "model", _count_propagate)
    for attr in ("ramsey_initial_state", "control_coherence",
                 "parse_spectator_init"):
        tracer.patch(model, attr, "model")
    for attr in ("ramsey_trace", "cpmg_effective", "heuristic_rate"):
        tracer.patch(sdid.analytic, attr, "analytic")
    tracer.patch(sdid.trajectory, "ensemble_trace", "trajectory",
                 _count_ensemble_trace)
    tracer.patch(sdid.trajectory, "build_cpmg", "trajectory")
    tracer.patch(sdid.rb, "simulate_rb", "rb", _count_rb)
    tracer.patch(sdid.rb, "clifford_group", "rb")
    for attr in ("fit_exponential", "fit_rb"):
        tracer.patch(sdid.fitting, attr, "fitting", _count_fit)
    tracer.patch(sdid.config, "load_config", "config")
    tracer.patch(sdid.cli, "run", "cli")
    # sdid.cli imported these names with `from ... import`; its copies must
    # point at the traced functions too.
    for attr in ("build_liouvillian", "control_coherence",
                 "parse_spectator_init", "propagate", "ramsey_initial_state"):
        tracer.patch_alias(sdid.cli, attr, model, attr)
    for attr in ("fit_exponential", "fit_rb"):
        tracer.patch_alias(sdid.cli, attr, sdid.fitting, attr)
    tracer.patch_alias(sdid.cli, "simulate_rb", sdid.rb, "simulate_rb")
    tracer.patch_alias(sdid.cli, "load_config", sdid.config, "load_config")


# -- derived per-layer metrics ----------------------------------------------

def _outermost(spans: list[Span], idx: int, layer: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].layer == layer:
            return False
        parent = spans[parent].parent
    return True


def rep_metrics(spans: list[Span], rep: str) -> dict:
    """Per-layer self times, busy times and counts for one repetition."""
    ids = [i for i, s in enumerate(spans) if s.rep == rep]
    child_time = {i: 0.0 for i in ids}
    for i in ids:
        if spans[i].parent is not None:
            child_time[spans[i].parent] += spans[i].duration
    self_s = {layer: 0.0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    counts: dict[str, float] = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    for i in ids:
        s = spans[i]
        self_s[s.layer] += s.duration - child_time[i]
        if _outermost(spans, i, s.layer):
            busy[s.layer] += s.duration
            calls[s.layer] += 1
        for key, value in s.counts.items():
            add(f"{s.name}.{key}", value)
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.s", s.duration)
        if s.name == "model.propagate":
            add("model.propagate_self_s", s.duration - child_time[i])
        if s.name == "operators.expm" and s.parent is not None \
                and spans[s.parent].name == "model.propagate":
            add("model.propagate_expm_calls", 1)
    root = [spans[i] for i in ids if spans[i].parent is None]
    return {"self_s": self_s, "busy_s": busy, "calls": calls,
            "counts": counts, "run_s": sum(s.duration for s in root),
            "spans": len(ids)}


def layer_metrics(rep_stats: list[dict], setup_stats: dict,
                  untraced_run_s: float) -> dict:
    """Per-layer metrics: mean over traced repetitions, so self times add up."""
    n = len(rep_stats)

    def mean(get):
        return sum(get(r) for r in rep_stats) / n

    def count(key):
        return mean(lambda r: r["counts"].get(key, 0))

    steps = count("model.propagate.steps")
    expm_in_prop = count("model.propagate_expm_calls")
    fit_calls = count("fitting.fit_exponential.calls") \
        + count("fitting.fit_rb.calls")
    fit_conv = count("fitting.fit_exponential.converged") \
        + count("fitting.fit_rb.converged")
    traced_run_s = mean(lambda r: r["run_s"])
    out = {
        "operators.expm_calls": (count("operators.expm.calls"), "count"),
        "operators.expm_s": (count("operators.expm.s"), "s"),
        "operators.expm_work": (count("operators.expm.work"), "dim3"),
        "model.build_calls": (count("model.build_liouvillian.calls"),
                              "count"),
        "model.build_s": (count("model.build_liouvillian.s"), "s"),
        "model.propagate_calls": (count("model.propagate.calls"), "count"),
        "model.propagate_self_s": (count("model.propagate_self_s"), "s"),
        "model.steps": (steps, "count"),
        "model.step_cache_hit_ratio": (
            1.0 - expm_in_prop / steps if steps else 0.0, "ratio"),
        "trajectory.points": (count("trajectory.ensemble_trace.points"),
                              "count"),
        "trajectory.shots": (count("trajectory.ensemble_trace.shots"),
                             "count"),
        "trajectory.pulses": (count("trajectory.ensemble_trace.pulses"),
                              "count"),
        "trajectory.busy_s": (mean(lambda r: r["busy_s"]["trajectory"]),
                              "s"),
        "rb.sequences": (count("rb.simulate_rb.sequences"), "count"),
        "rb.gate_steps": (count("rb.simulate_rb.gate_steps"), "count"),
        "rb.busy_s": (mean(lambda r: r["busy_s"]["rb"]), "s"),
        "rb.clifford_group_s": (
            setup_stats["counts"].get("rb.clifford_group.s", 0.0), "s"),
        "analytic.calls": (mean(lambda r: r["calls"]["analytic"]), "count"),
        "analytic.busy_s": (mean(lambda r: r["busy_s"]["analytic"]), "s"),
        "fitting.calls": (fit_calls, "count"),
        "fitting.busy_s": (mean(lambda r: r["busy_s"]["fitting"]), "s"),
        "fitting.converged_ratio": (
            fit_conv / fit_calls if fit_calls else 0.0, "ratio"),
        "config.load_s": (
            setup_stats["counts"].get("config.load_config.s", 0.0), "s"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead_s": (traced_run_s - untraced_run_s, "s"),
        "trace.spans": (mean(lambda r: r["spans"]), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (mean(lambda r: r["self_s"][layer]), "s")
    return out


# Counts that must repeat exactly between two traced repetitions.
EXACT_COUNTS = ("operators.expm.calls", "operators.expm.work",
                "model.propagate.steps", "trajectory.ensemble_trace.shots",
                "trajectory.ensemble_trace.pulses",
                "rb.simulate_rb.gate_steps", "fitting.fit_exponential.calls",
                "fitting.fit_rb.calls")
