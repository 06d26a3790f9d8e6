"""The three benchmark workloads: generated inputs, one repetition, checks.

Each workload writes its JSON configs from the seed, loads them through
`sdid.config` during set-up, then repeats one full experiment.  A repetition
returns the bytes that must repeat exactly (CSV files, or the result arrays
for the CPMG sweep) and the values the correctness checks read.

Why these workloads:

* ``ramsey_dense``: four spectators make the dense Liouvillian 1024 x 1024,
  and the CLI's default grid has ten distinct steps, so most of the time is
  spent in ``operators.expm`` and ``model.propagate`` on a cache-friendly
  uniform grid.  The trajectory engine also runs, small and without pulses.
* ``cpmg_pulsed``: the first pass of the frozen ``cpmg_scan`` protocol with
  explicit pulse trains, so the trajectory engine does most of the work and
  its cost grows with the pulse count.  A pulsed dense-Lindblad oracle at
  order 4 splits every segment at a pulse, so almost every step is an
  ``expm`` cache miss.
* ``rb_clifford``: criterion 7 scaled from 80 to 10 sequences, through the
  CLI.  Nearly all the time is the interpreter loop of ``simulate_rb``; no
  ``expm`` or trajectory runs, so changes to those layers should not show.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Device B of the test suite: control T1/T2 = 141/241 us and three
# spectators.
DEVICE_B = {
    "control": {"t1_us": 141.0, "t2_us": 241.0, "label": "control"},
    "spectators": [
        {"t1_us": 150.0, "t2_us": 258.0, "zz_4nu_khz": 47.0, "label": "s1"},
        {"t1_us": 218.0, "t2_us": 400.0, "zz_4nu_khz": 48.0, "label": "s2"},
        {"t1_us": 122.0, "t2_us": 175.0, "zz_4nu_khz": 41.0, "label": "s3"},
    ],
}
FOURTH_SPECTATOR = {"t1_us": 180.0, "t2_us": 300.0, "zz_4nu_khz": 44.0,
                    "label": "s4"}

CPMG_ORDERS = (0, 1, 4, 16, 64, 160)
CPMG_POINTS = 60
CPMG_SHOTS = 100_000
ORACLE_ORDER = 4
ORACLE_TIMES_US = (20.0, 56.0, 92.0, 128.0, 164.0, 200.0)
RB_INITS = ("zero", "one", "plus")
RB_LENGTHS = (1, 50, 100, 200, 400, 800, 1600)
RB_NSEQ = 10

DEFAULT_SEEDS = {"ramsey_dense": 0, "cpmg_pulsed": 21, "rb_clifford": 11}
NAMES = tuple(DEFAULT_SEEDS)


@dataclass
class Outcome:
    """What one repetition produced: bytes to compare and values to check."""

    digest: str
    checks: dict = field(default_factory=dict)   # name -> (passed, detail)
    info: dict = field(default_factory=dict)     # informational, not gated
    work: dict = field(default_factory=dict)     # throughput numerators

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())


def rb_gate_steps(n_spectators: int, init: str, lengths, n_seq: int) -> int:
    """Clifford gate applications: sum over lengths of n_seq (m+1) branches."""
    branches = 2 ** n_spectators if init in ("+", "plus") else 1
    return sum(n_seq * (int(m) + 1) * branches for m in lengths)


def _device(n_spectators: int) -> dict:
    device = json.loads(json.dumps(DEVICE_B))
    if n_spectators == 4:
        device["spectators"].append(dict(FOURTH_SPECTATOR))
    return device


def write_inputs(name: str, seed: int, work_dir: Path) -> list[Path]:
    """Write the workload's config files; the same seed gives the same bytes."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if name == "ramsey_dense":
        configs = {"ramsey": {
            "version": "v1", "device": _device(4), "experiment": "ramsey",
            "spectator_init": "1111", "points": 101, "tmax_us": 500.0,
            "engines": ["analytic", "lindblad", "trajectory"],
            "n_traj": 20_000, "seed": seed,
            "out": str(work_dir / "ramsey.csv")}}
    elif name == "cpmg_pulsed":
        configs = {"cpmg": {
            "version": "v1", "device": _device(3), "experiment": "cpmg",
            "spectator_init": "111", "points": CPMG_POINTS,
            "orders": list(CPMG_ORDERS), "n_traj": CPMG_SHOTS,
            "seed": seed}}
    elif name == "rb_clifford":
        configs = {f"rb_{init}": {
            "version": "v1", "device": _device(3), "experiment": "rb",
            "spectator_init": init, "lengths": list(RB_LENGTHS),
            "n_seq": RB_NSEQ, "tgate_ns": 20.0, "frame": "experimental",
            "seed": seed, "out": str(work_dir / f"rb_{init}.csv")}
            for init in RB_INITS}
    else:
        raise ValueError(f"unknown workload {name!r}")
    paths = []
    for stem, data in configs.items():
        path = work_dir / f"{stem}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def setup(name: str, config_paths: list[Path]):
    """Parse the configs and fill first-use caches; returns run state."""
    import sdid.config
    import sdid.rb

    cfgs = [sdid.config.load_config(p) for p in config_paths]
    if name == "rb_clifford":
        sdid.rb.clifford_group()
    return cfgs


def run_once(name: str, cfgs) -> dict:
    """One timed repetition; returns the raw results for `check`."""
    import sdid.cli

    if name in ("ramsey_dense", "rb_clifford"):
        for cfg in cfgs:
            sdid.cli.run(cfg)
        return {}
    return _cpmg_pulsed(cfgs[0])


def _cpmg_pulsed(cfg) -> dict:
    from sdid import analytic, fitting, model, trajectory

    device, s = cfg.device, cfg.spectator_init
    ens = trajectory.EnsembleSpec(n_traj=cfg.n_traj, seed=cfg.seed)
    rate0 = analytic.heuristic_rate(device, s)
    tmax = 5.0 / rate0
    times = np.linspace(tmax / cfg.points, tmax, cfg.points)
    orders = {}
    for n in cfg.orders:
        tr = trajectory.ensemble_trace(device, s, times, ens, cpmg_order=n)
        fit = fitting.fit_exponential(times, np.abs(tr.values))
        eff = analytic.ramsey_trace(analytic.cpmg_effective(device, n), s,
                                    times).values
        orders[n] = {"values": tr.values, "stderr": tr.stderr,
                     "t2": fit.params["t2"], "effective": eff}

    oracle_times = np.array(ORACLE_TIMES_US) * 1e-6
    bundle = model.build_liouvillian(device)
    rho0 = model.ramsey_initial_state(device, s)
    oracle = np.empty(oracle_times.size, dtype=complex)
    for k, T in enumerate(oracle_times):
        pulses = trajectory.build_cpmg(T, ORACLE_ORDER).pulse_times
        rho = model.propagate(bundle, rho0, [T], pulse_times=list(pulses))[0]
        oracle[k] = 2.0 * model.control_coherence(rho)
    traj = trajectory.ensemble_trace(device, s, oracle_times, ens,
                                     cpmg_order=ORACLE_ORDER)
    return {"times": times, "orders": orders, "oracle": oracle,
            "oracle_traj": traj.values, "oracle_stderr": traj.stderr}


def check(name: str, cfgs, result: dict) -> Outcome:
    """Correctness checks on one repetition's outputs."""
    if name == "ramsey_dense":
        return _check_ramsey(cfgs[0])
    if name == "cpmg_pulsed":
        return _check_cpmg(cfgs[0], result)
    return _check_rb(cfgs)


def _check_ramsey(cfg) -> Outcome:
    raw = Path(cfg.out).read_bytes()
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    by = {}
    for r in rows:
        by.setdefault(r["engine"], []).append(r)
    coh = {e: np.array([complex(float(r["coh_re"]), float(r["coh_im"]))
                        for r in rs]) for e, rs in by.items()}
    se = np.array([float(r["stderr_abs"]) for r in by["trajectory"]])
    lind = float(np.max(np.abs(coh["lindblad"] - coh["analytic"])))
    dmag = np.abs(np.abs(coh["trajectory"]) - np.abs(coh["analytic"]))
    # The t = 0 point is exact (stderr 0); compare it with a rounding floor.
    z = dmag / np.maximum(se, 1e-300)
    z[se == 0] = np.where(dmag[se == 0] <= 1e-12, 0.0, np.inf)
    n_points = len(by["analytic"])
    return Outcome(
        digest=hashlib.sha256(raw).hexdigest(),
        checks={
            "lindblad_vs_analytic": (lind <= 1e-8,
                                     f"max |delta| = {lind:.2e} (<= 1e-8)"),
            "trajectory_vs_analytic": (bool(np.all(z <= 4.0)),
                                       f"worst {z.max():.2f} SE (<= 4)"),
        },
        info={"lindblad_max_abs_diff": lind, "trajectory_worst_se": z.max()},
        work={"points": n_points * len(by)})


def _check_cpmg(cfg, res: dict) -> Outcome:
    orders = res["orders"]
    t2_0 = orders[0]["t2"] * 1e6
    t2_160 = orders[160]["t2"] * 1e6
    dmag = np.abs(np.abs(res["oracle"]) - np.abs(res["oracle_traj"]))
    z = float(np.max(dmag / res["oracle_stderr"]))
    eff = max(float(np.max(np.abs(np.abs(o["effective"])
                                  - np.abs(o["values"]))))
              for o in orders.values())
    h = hashlib.sha256()
    for n in sorted(orders):
        h.update(np.ascontiguousarray(orders[n]["values"]).tobytes())
        h.update(np.ascontiguousarray(orders[n]["stderr"]).tobytes())
    for key in ("oracle", "oracle_traj", "oracle_stderr"):
        h.update(np.ascontiguousarray(res[key]).tobytes())
    n_traj_points = len(orders) * res["times"].size + res["oracle"].size
    return Outcome(
        digest=h.hexdigest(),
        checks={
            "t2_unprotected_5d": (25.0 <= t2_0 <= 45.0,
                                  f"T2(n=0) = {t2_0:.1f} us (25-45)"),
            "t2_revival_5c": (abs(t2_160 - 241.0) <= 24.1,
                              f"T2(n=160) = {t2_160:.1f} us "
                              "(241 +- 10%)"),
            "oracle_vs_trajectory": (z <= 4.0,
                                     f"worst {z:.2f} SE (<= 4)"),
        },
        info={
            "t2_us": {str(n): o["t2"] * 1e6 for n, o in orders.items()},
            "effective_model_max_abs_diff_5a": eff,
            "oracle_vs_trajectory_complex_max_abs_diff": float(
                np.max(np.abs(res["oracle"] - res["oracle_traj"]))),
            "oracle_vs_trajectory_magnitude_worst_se": z,
        },
        work={"points": len(orders) * res["times"].size,
              "shots": n_traj_points * cfg.n_traj})


def _check_rb(cfgs) -> Outcome:
    from sdid.fitting import fit_rb

    h = hashlib.sha256()
    epc, survival = {}, {}
    gate_steps = 0
    for cfg in cfgs:
        raw = Path(cfg.out).read_bytes()
        h.update(raw)
        rows = list(csv.DictReader(io.StringIO(raw.decode())))
        lengths = np.array([int(r["length"]) for r in rows])
        surv = np.array([float(r["survival"]) for r in rows])
        survival[cfg.spectator_init] = surv
        epc[cfg.spectator_init] = fit_rb(lengths, surv,
                                         offset=0.5).params["epc"]
        gate_steps += rb_gate_steps(cfg.device.n_spectators,
                                    cfg.spectator_init, lengths, cfg.n_seq)
    zero_dev = float(np.max(np.abs(survival["zero"] - 1.0)))
    spread = max(epc.values()) - min(epc.values())
    return Outcome(
        digest=h.hexdigest(),
        checks={
            "zero_survival": (zero_dev <= 1e-12,
                              f"max |survival - 1| = {zero_dev:.1e}"),
            "epc_spread": (spread <= 1e-4,
                           f"EPC spread {spread:.2e} (<= 1e-4)"),
        },
        info={"epc": epc, "epc_spread": spread},
        work={"gate_steps": gate_steps})
