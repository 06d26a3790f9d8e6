"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line and enforces the stated tolerance.
Criterion 5a is a known-red comparison: the effective-coupling model is an
envelope description and does not match the explicit-pulse engines
pointwise (the trajectory engine itself is validated against exact pulsed
propagation in tests/test_trajectory.py).

Measured cause of the 5a failure (device B, spectators 111, seed 21):

- max |delta| between the `nu/(n+1)` model and the explicit-pulse
  trajectories is 0.142, 0.214, 0.286, 0.190, 0.032 and 0.006 for orders 0,
  1, 4, 16, 64 and 160, against a trajectory standard error of at most
  0.0025, so the gap is not sampling noise;
- the rescaled coupling reproduces the bound on the random phase
  (`phase_bounds`) but not how the phase is distributed over the decay
  time, so the envelope shape differs until the order is large;
- at order 0 the model is the undecoupled device, while the explicit-pulse
  trace uses `build_cpmg(T, 0)`, a one-pulse Hahn echo;
- PAPER.md gives neither the model's accuracy nor a tolerance, so whether
  a pointwise 1e-2 match is promised is not settled there.  The 1e-2 bound
  stays.  The exact pulse-aware model now exists
  (`ramsey_trace(..., cpmg_order=n)`, checked against the trajectories in
  tests/test_analytic.py), and 5a still tests `cpmg_effective`.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sdid
from sdid import (DeviceModel, EnsembleSpec, QubitParams, bohr_spectrum,
                  build_bmpsa, build_cetcg, build_liouvillian,
                  choi_matrix, cluster_bohr, conditional_channel,
                  cpmg_effective, ensemble_trace, fit_exponential, fit_rb,
                  heuristic_rate, lambda_analytic, lindblad_trace,
                  ramsey_trace, simulate_rb, transition_probability,
                  two_qubit_cetcg_reference, two_qubit_coupling,
                  two_qubit_hamiltonian)
from sdid import operators as ops
from sdid.derivations import RateMatrix
from sdid.rb import ForbiddenTransitionError, rb_decay_constant

CPMG_ORDERS = (0, 1, 4, 16, 64, 160)


def _report(num: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_engine_agreement(device_a):
    start = time.perf_counter()
    times = np.linspace(0.0, 500e-6, 101)
    analytic = ramsey_trace(device_a, "1", times).values
    dense = lindblad_trace(device_a, "1", times).values
    diff = float(np.max(np.abs(analytic - dense)))
    elapsed = time.perf_counter() - start
    _report("1", diff <= 1e-8 and elapsed < 1.0,
            f"max |delta| = {diff:.2e}, runtime {elapsed:.2f} s")


def test_criterion_02_trajectory_oracle(device_a):
    start = time.perf_counter()
    times = np.linspace(0.0, 500e-6, 101)
    analytic = np.abs(ramsey_trace(device_a, "1", times).values)
    trace = ensemble_trace(device_a, "1", times,
                           EnsembleSpec(n_traj=100_000, seed=0))
    diffs = np.abs(np.abs(trace.values) - analytic)
    max_diff = float(diffs.max())
    within_3se = bool(np.all(diffs <= 3.0 * trace.stderr + 1e-12))
    elapsed = time.perf_counter() - start
    _report("2", within_3se and max_diff <= 0.01 and elapsed < 10.0,
            f"max |delta| = {max_diff:.2e}, all within 3 SE = {within_3se}, "
            f"runtime {elapsed:.1f} s")


def test_criterion_03_multi_spectator_additivity(device_b):
    times = np.linspace(0.0, 500e-6, 101)
    max_diff = 0.0
    t2s = []
    for s in ("000", "100", "110", "111"):
        analytic = ramsey_trace(device_b, s, times).values
        dense = lindblad_trace(device_b, s, times).values
        max_diff = max(max_diff, float(np.max(np.abs(analytic - dense))))
        fit = fit_exponential(times[1:], np.abs(analytic[1:]), offset=0.0)
        t2s.append(fit.params["t2"])
    decreasing = all(a > b for a, b in zip(t2s, t2s[1:]))
    _report("3", max_diff <= 1e-8 and decreasing,
            f"max |delta| = {max_diff:.2e}, fitted T2 (us) = "
            + ", ".join(f"{x * 1e6:.1f}" for x in t2s))


def test_criterion_04_heuristic_rate_and_oscillations(device_a):
    gamma1 = 1.0 / 107e-6
    nu = 100.0 * gamma1
    fast = DeviceModel(control=QubitParams.from_times(t2=127e-6),
                       spectators=((QubitParams(gamma=gamma1), nu),))
    rate = heuristic_rate(fast, "1")
    times = np.linspace(1e-7, 5.0 / rate, 400)
    fit = fit_exponential(times, np.abs(ramsey_trace(fast, "1", times).values),
                          offset=0.0)
    rel_err = abs(fit.params["rate"] - rate) / rate

    slow_times = np.linspace(0.0, 500e-6, 501)
    mags = np.abs(ramsey_trace(device_a, "1", slow_times).values)
    d = np.diff(mags)
    oscillates = bool(np.any(d[:-1] * d[1:] < 0))
    _report("4", rel_err <= 0.02 and oscillates,
            f"fitted-rate error {100 * rel_err:.2f}%, "
            f"slow-coupling magnitude oscillates = {oscillates}")


@pytest.fixture(scope="module")
def cpmg_scan(device_b):
    """Explicit-pulse trajectory traces and T2 fits for each CPMG order.

    Frozen protocol: seed 21, 1e5 trajectories, 60-point grid, up to three
    adaptive passes with tmax = clip(5 * fitted T2, 5 / heuristic rate,
    2.5 ms).  Each order maps to (times, |coherence|, fitted T2, standard
    error of the coherence).
    """
    rate0 = heuristic_rate(device_b, "111")
    ens = EnsembleSpec(n_traj=100_000, seed=21)
    out = {}
    for n in CPMG_ORDERS:
        tmax = 5.0 / rate0
        for _ in range(3):
            times = np.linspace(tmax / 60.0, tmax, 60)
            trace = ensemble_trace(device_b, "111", times, ens, cpmg_order=n)
            fit = fit_exponential(times, np.abs(trace.values))
            t2 = fit.params["t2"]
            new_tmax = min(max(5.0 * t2, 5.0 / rate0), 2.5e-3)
            if abs(new_tmax - tmax) <= 0.05 * tmax:
                break
            tmax = new_tmax
        out[n] = (times, np.abs(trace.values), t2, trace.stderr)
    return out


def test_criterion_05a_effective_model_vs_explicit_pulses(device_b,
                                                          cpmg_scan):
    worst = 0.0
    per_order = {}
    worst_point = ""
    for n, (times, traj_mags, _, traj_se) in cpmg_scan.items():
        eff = cpmg_effective(device_b, n)
        model = np.abs(ramsey_trace(eff, "111", times).values)
        diffs = np.abs(model - traj_mags)
        k = int(np.argmax(diffs))
        per_order[n] = float(diffs[k])
        if per_order[n] > worst:
            worst = per_order[n]
            worst_point = (f"worst at n = {n}, T = {times[k] * 1e6:.1f} us, "
                           f"trajectory SE {traj_se[k]:.4f}")
    _report("5a", worst <= 0.01,
            "max |delta| by order: "
            + ", ".join(f"{n}: {d:.3f}" for n, d in per_order.items())
            + f"; {worst_point}")


def test_criterion_05b_t2_monotone_in_order(cpmg_scan):
    t2s = [cpmg_scan[n][2] for n in CPMG_ORDERS]
    monotone = all(b >= a for a, b in zip(t2s, t2s[1:]))
    _report("5b", monotone,
            "fitted T2 (us) = "
            + ", ".join(f"{x * 1e6:.1f}" for x in t2s))


def test_criterion_05c_full_revival(cpmg_scan):
    t2 = cpmg_scan[160][2]
    rel = abs(t2 - 241e-6) / 241e-6
    _report("5c", rel <= 0.10,
            f"T2 at n = 160 is {t2 * 1e6:.1f} us ({100 * rel:.1f}% from "
            "241 us)")


def test_criterion_05d_unprotected_band(cpmg_scan):
    t2 = cpmg_scan[0][2]
    _report("5d", 25e-6 <= t2 <= 45e-6,
            f"T2 at n = 0 is {t2 * 1e6:.1f} us (band 25-45 us)")


def test_criterion_06_rb_channel_theory():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        nu = float(rng.uniform(1e4, 3e5))
        gamma1 = float(rng.uniform(1e3, 3e4))
        t = float(rng.uniform(1e-8, 1e-6))
        chans = {}
        for (i, j) in ((0, 0), (1, 1), (1, 0)):
            chan = conditional_channel(i, j, nu, gamma1, t)
            chans[(i, j)] = chan
            lam = lambda_analytic(i, j, nu, gamma1, t)
            worst = max(worst, abs(chan.lam - lam))
        p00 = (1.0 + 2.0 * lambda_analytic(0, 0, nu, gamma1, t).real) / 3.0
        p11 = (1.0 + 2.0 * lambda_analytic(1, 1, nu, gamma1, t).real) / 3.0
        assert p00 == p11  # closed forms share cos(2 nu t) exactly
        assert abs(rb_decay_constant(chans[(0, 0)])
                   - rb_decay_constant(chans[(1, 1)])) <= 1e-10
        n_sum = (transition_probability(1, 0, gamma1, t)
                 + transition_probability(1, 1, gamma1, t))
        assert abs(n_sum - 1.0) <= 1e-10
        with pytest.raises(ForbiddenTransitionError):
            conditional_channel(0, 1, nu, gamma1, t)
    _report("6", worst <= 1e-10,
            f"20 random draws, max |lambda| mismatch = {worst:.2e}")


def test_criterion_07_rb_insensitivity(device_b):
    start = time.perf_counter()
    lengths = [1, 50, 100, 200, 400, 800, 1600]
    epc = {}
    for init in ("zero", "one", "plus"):
        curve = simulate_rb(device_b, init, lengths, n_seq=80, t_gate=20e-9,
                            frame="experimental", seed=11)
        fit = fit_rb(curve.lengths, curve.survival, offset=0.5)
        epc[init] = fit.params["epc"]
    spread = max(epc.values()) - min(epc.values())
    elapsed = time.perf_counter() - start
    _report("7", spread <= 1e-4 and elapsed < 60.0,
            "EPC = " + ", ".join(f"{k}: {v:.2e}" for k, v in epc.items())
            + f"; spread {spread:.2e}, runtime {elapsed:.0f} s")


def test_criterion_08_master_equation_limits(rng):
    omega0, omega1, nu = 500.0, 700.0, 1.0
    h_s = two_qubit_hamiltonian(omega0, omega1, nu)
    terms = bohr_spectrum(h_s, two_qubit_coupling(a=0.0))
    clusters = cluster_bohr(terms, delta_omega=3.0 * nu)

    worst_ref = 0.0
    for x in (0.1, 1.0, 10.0):
        built = build_cetcg(clusters, 1.0, tau_c=x / nu)
        ref = two_qubit_cetcg_reference(nu, x / nu, 1.0)
        worst_ref = max(worst_ref,
                        float(np.max(np.abs(built.superop - ref))))

    psa = build_bmpsa(clusters, 1.0)
    rel_psa = (np.linalg.norm(build_cetcg(clusters, 1.0, 1e-6 / nu).superop
                              - psa.superop) / np.linalg.norm(psa.superop))
    # The fully secular generator: zero-width clusters.
    rwa = build_bmpsa(cluster_bohr(terms, delta_omega=0.0), 1.0)
    rel_rwa = (np.linalg.norm(build_cetcg(clusters, 1.0, 1e6 / nu).superop
                              - rwa.superop) / np.linalg.norm(rwa.superop))

    psd_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        freqs = rng.uniform(-100.0, 100.0, size=k)
        rm = RateMatrix.build(freqs, float(rng.uniform(1e-3, 100.0)),
                              float(rng.uniform(0.1, 10.0)))
        psd_ok &= rm.min_eigenvalue() >= -1e-10 * np.trace(rm.matrix).real

    freqs8 = sorted(t.frequency for t in
                    bohr_spectrum(h_s, two_qubit_coupling(a=0.3)))
    expected8 = sorted(s * (w + p * 2.0 * nu) for s in (1, -1)
                       for w in (omega0, omega1) for p in (1, -1))
    eight_ok = len(freqs8) == 8 and np.allclose(freqs8, expected8)

    ok = (worst_ref <= 1e-10 and rel_psa <= 1e-6 and rel_rwa <= 1e-6
          and psd_ok and eight_ok)
    _report("8", ok,
            f"reference diff {worst_ref:.2e}, limit residuals "
            f"{rel_psa:.2e}/{rel_rwa:.2e}, 100 PSD checks = {psd_ok}, "
            f"eight Bohr frequencies = {eight_ok}")


def test_criterion_09_physicality_suite(device_a, device_b):
    omega0, omega1, nu = 500.0, 700.0, 1.0
    h_s = two_qubit_hamiltonian(omega0, omega1, nu)
    terms = bohr_spectrum(h_s, two_qubit_coupling(a=0.0))
    clusters = cluster_bohr(terms, delta_omega=3.0 * nu)
    bundles = [build_liouvillian(device_a), build_liouvillian(device_b),
               build_bmpsa(cluster_bohr(terms, delta_omega=0.0), 1.0),
               build_bmpsa(clusters, 1.0),
               build_cetcg(clusters, 1.0, tau_c=1.0),
               build_cetcg(clusters, 1.0, tau_c=100.0)]
    superops = ([b.superop for b in bundles]
                + [two_qubit_cetcg_reference(nu, 1.0, 1.0)])
    worst_trace = 0.0
    worst_eig = 0.0
    for superop in superops:
        row = ops.trace_row(math.isqrt(superop.shape[0])) @ superop
        worst_trace = max(worst_trace, float(np.max(np.abs(row))))
        dt = 1e-3 / max(1.0, float(np.max(np.abs(superop))))
        chan = ops.expm(superop * dt)
        evals = np.linalg.eigvalsh(choi_matrix(chan))
        worst_eig = min(worst_eig, float(evals.min()))

    # spectator pure dephasing never moves the control coherence
    nu_s = 2 * np.pi * 12000.0
    base = DeviceModel(control=QubitParams.from_times(t1=141e-6, t2=241e-6),
                       spectators=((QubitParams(gamma=1.0 / 150e-6), nu_s),))
    noisy = DeviceModel(control=base.control,
                        spectators=((QubitParams(gamma=1.0 / 150e-6,
                                                 gamma_phi=5e4), nu_s),))
    times = np.linspace(0.0, 300e-6, 13)
    invariance = 0.0
    for s in ("0", "1"):
        a = lindblad_trace(base, s, times).values
        b = lindblad_trace(noisy, s, times).values
        invariance = max(invariance, float(np.max(np.abs(a - b))))

    ok = (worst_trace <= 1e-12 and worst_eig >= -1e-9
          and invariance <= 1e-10)
    _report("9", ok,
            f"{len(superops)} generators: trace defect {worst_trace:.2e}, "
            f"min Choi eigenvalue {worst_eig:.2e}, dephasing invariance "
            f"{invariance:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "version": "v1",
        "device": {"control": {"t2_us": 127.0},
                   "spectators": [{"t1_us": 107.0, "zz_4nu_khz": 45.0}]},
        "seed": 17,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    # The CLI processes import the same package as this test, installed or
    # not.
    src = str(Path(sdid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / f"{name}.csv"
        rb_out = tmp_path / f"{name}_rb.csv"
        for args in (
            ["ramsey", "--config", str(cfg), "--tmax-us", "300",
             "--points", "21", "--engines", "analytic,trajectory",
             "--ntraj", "5000", "--out", str(out)],
            ["rb", "--config", str(cfg), "--init", "one",
             "--lengths", "1,20,60", "--out", str(rb_out)],
        ):
            proc = subprocess.run([sys.executable, "-m", "sdid.cli"] + args,
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes() + rb_out.read_bytes())
    _report("10", blobs[0] == blobs[1],
            "two identical CLI runs produced byte-identical CSV = "
            f"{blobs[0] == blobs[1]}")
