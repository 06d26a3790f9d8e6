"""Monte-Carlo phase-kick engine: sequences, phases, and ensemble traces."""

import numpy as np
import pytest

from sdid import (DeviceModel, EnsembleSpec, PulseSequence, QubitParams,
                  accumulated_phase, build_cpmg, build_liouvillian,
                  control_coherence, ensemble_coherence, ensemble_trace,
                  phase_bounds, propagate, ramsey_initial_state, ramsey_trace,
                  sample_decays)


def _one_spec_device(nu=2 * np.pi * 11250.0, gamma=1.0 / 107e-6,
                     control_t2=127e-6):
    return DeviceModel(control=QubitParams.from_times(t2=control_t2),
                       spectators=((QubitParams(gamma=gamma), nu),))


def test_cpmg_pulse_placement():
    seq = build_cpmg(4.0, 1)
    assert seq.pulse_times == (1.0, 3.0)
    assert build_cpmg(4.0, 0).pulse_times == (2.0,)
    seq3 = build_cpmg(8.0, 3)
    assert np.allclose(seq3.pulse_times, (1.0, 3.0, 5.0, 7.0))
    with pytest.raises(ValueError):
        build_cpmg(4.0, -1)


def test_pulse_sequence_validation():
    with pytest.raises(ValueError):
        PulseSequence(total_time=0.0)
    with pytest.raises(ValueError):
        PulseSequence(total_time=1.0, pulse_times=(0.5, 0.4))
    with pytest.raises(ValueError):
        PulseSequence(total_time=1.0, pulse_times=(1.0,))
    assert PulseSequence.hahn(2.0).pulse_times == (1.0,)
    assert PulseSequence.ramsey(2.0).pulse_times == ()


def test_hahn_cancels_phase_of_frozen_spectator():
    device = _one_spec_device(gamma=0.0)
    seq = PulseSequence.hahn(80e-6)
    phi = accumulated_phase(seq, [np.inf], device, "1")
    assert abs(phi) <= 1e-18
    phi0 = accumulated_phase(seq, [np.inf], device, "0")
    assert abs(phi0) <= 1e-18


def test_decay_at_echo_midpoint_gives_maximal_phase():
    device = _one_spec_device()
    nu = device.nus[0]
    T = 80e-6
    seq = PulseSequence.hahn(T)
    phi = accumulated_phase(seq, [T / 2], device, "1")
    assert np.isclose(abs(phi), 2 * nu * T, rtol=1e-12)


def _phase_oracle(seq, t_d, nu, excited):
    """Piecewise-exact re-derivation of the accumulated phase for one shot."""
    edges = [0.0] + list(seq.pulse_times) + [seq.total_time]
    if excited:
        t_d = min(t_d, seq.total_time)
    phi = 0.0
    for k in range(len(edges) - 1):
        parity = (-1.0) ** k
        a, b = edges[k], edges[k + 1]
        if not excited:
            phi += 2.0 * nu * parity * (b - a)
            continue
        # spectator sign is -1 before the decay, +1 after
        before = max(0.0, min(b, t_d) - a)
        after = (b - a) - before
        phi += 2.0 * nu * parity * (after - before)
    return phi


def test_accumulated_phase_matches_piecewise_oracle(rng):
    device = _one_spec_device()
    nu = device.nus[0]
    T = 100e-6
    for seq in (PulseSequence.ramsey(T), PulseSequence.hahn(T),
                build_cpmg(T, 3), build_cpmg(T, 8)):
        for _ in range(20):
            t_d = float(rng.uniform(0.0, 1.5 * T))
            got = accumulated_phase(seq, [t_d], device, "1")
            want = _phase_oracle(seq, t_d, nu, excited=True)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        got0 = accumulated_phase(seq, [np.inf], device, "0")
        assert abs(got0 - _phase_oracle(seq, np.inf, nu, False)) <= 1e-12


def test_sampled_decay_times_have_correct_mean():
    device = _one_spec_device()
    ens = EnsembleSpec(n_traj=1, seed=5)
    rng = ens.rng()
    draws = sample_decays(device, "1", rng, 200_000)[:, 0]
    assert abs(draws.mean() - 107e-6) / 107e-6 <= 0.005
    # The batch draw follows the stream one shot at a time.
    loop = ens.rng()
    scale = 1.0 / device.spectators[0][0].gamma
    assert np.array_equal(draws[:1000],
                          [loop.exponential(scale) for _ in range(1000)])
    frozen = sample_decays(device, "0", rng, 1)
    assert np.isinf(frozen[0, 0])


def test_sampled_phases_respect_cpmg_bounds(rng):
    device = _one_spec_device()
    nu = device.nus[0]
    T = 120e-6
    for n in (0, 1, 4):
        seq = build_cpmg(T, n)
        _, hi = phase_bounds(T, n, nu)
        for _ in range(200):
            t_d = float(rng.uniform(0.0, 2.0 * T))
            phi = accumulated_phase(seq, [t_d], device, "1")
            assert abs(phi) <= hi + 1e-9


def test_ensemble_matches_analytic_ramsey(device_a):
    times = np.linspace(0.0, 500e-6, 21)
    trace = ensemble_trace(device_a, "1", times,
                           EnsembleSpec(n_traj=20_000, seed=3))
    ref = ramsey_trace(device_a, "1", times).values
    diffs = np.abs(np.abs(trace.values) - np.abs(ref))
    assert np.max(diffs) <= 0.02
    assert np.all(diffs <= 4.0 * trace.stderr + 1e-12)


def test_explicit_pulses_match_pulsed_dense_propagation():
    # Independent oracle for echo dynamics: the trajectory engine with an
    # explicit CPMG train against exact propagation with the same pulses.
    device = _one_spec_device(control_t2=241e-6, gamma=1.0 / 150e-6)
    T = 60e-6
    n = 2
    seq = build_cpmg(T, n)
    val, err = ensemble_coherence(device, "1", seq,
                                  EnsembleSpec(n_traj=60_000, seed=7))
    bundle = build_liouvillian(device)
    rho0 = ramsey_initial_state(device, "1")
    rho = propagate(bundle, rho0, [T], pulse_times=list(seq.pulse_times))[0]
    dense = 2.0 * control_coherence(rho)
    assert abs(abs(val) - abs(dense)) <= max(4.0 * err, 0.01)


def test_ground_state_experimental_frame_is_static():
    device = _one_spec_device()
    T = 80e-6
    val, _ = ensemble_coherence(device, "0", PulseSequence.ramsey(T),
                                EnsembleSpec(n_traj=100, seed=0),
                                frame="experimental")
    expected = np.exp(-device.control.gamma_tilde * T)
    assert np.isclose(val, expected, atol=1e-12)
    with pytest.raises(ValueError):
        ensemble_coherence(device, "0", PulseSequence.ramsey(T),
                           EnsembleSpec(n_traj=100, seed=0), frame="lab")


def test_same_seed_is_bit_identical(device_a):
    times = np.linspace(0.0, 300e-6, 7)
    a = ensemble_trace(device_a, "1", times, EnsembleSpec(n_traj=5000, seed=9))
    b = ensemble_trace(device_a, "1", times, EnsembleSpec(n_traj=5000, seed=9))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)
    c = ensemble_trace(device_a, "1", times,
                       EnsembleSpec(n_traj=5000, seed=10))
    assert not np.array_equal(a.values, c.values)


def test_stderr_scales_as_inverse_sqrt_n(device_a):
    seq = PulseSequence.ramsey(150e-6)
    _, e_small = ensemble_coherence(device_a, "1", seq,
                                    EnsembleSpec(n_traj=2000, seed=4))
    _, e_big = ensemble_coherence(device_a, "1", seq,
                                  EnsembleSpec(n_traj=200_000, seed=4))
    ratio = e_small / e_big
    assert abs(ratio - 10.0) / 10.0 <= 0.2


def test_invalid_trajectory_count(device_a):
    with pytest.raises(ValueError):
        ensemble_coherence(device_a, "1", PulseSequence.ramsey(1e-5),
                           EnsembleSpec(n_traj=0, seed=0))
