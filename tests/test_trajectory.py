"""Monte-Carlo phase-kick engine: sequences, phases, and ensemble traces."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sdid import (DeviceModel, EnsembleSpec, PulseSequence, QubitParams,
                  build_cpmg, coherence, ensemble_coherence, ensemble_trace,
                  lindblad_trace, phase_bounds, ramsey_trace, simulate_rb,
                  trajectory)


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
    for bad in ((np.nan, ()), (np.inf, ()), (1.0, (np.nan,))):
        with pytest.raises(ValueError):
            PulseSequence(*bad)
    assert build_cpmg(2.0, 0).pulse_times == (1.0,)
    assert PulseSequence.ramsey(2.0).pulse_times == ()


# Reference implementation: the binary-search phase that the bucket kernel
# replaces, with one `exponential` draw per spectator column.  The kernel
# must reproduce it to the last bit (see the bitwise tests below), so the
# physics of a single shot's phase is checked on the reference.

def _reference_parity(seq, t):
    t = np.asarray(t, dtype=float)
    edges = np.array((0.0,) + seq.pulse_times)
    seg_lengths = np.diff(np.append(edges, np.inf))[:-1]
    signs = (-1.0) ** np.arange(edges.size)
    p_at_edges = np.concatenate(([0.0], np.cumsum(signs[:-1] * seg_lengths)))
    idx = np.searchsorted(edges, t, side="right") - 1
    return p_at_edges[idx] + signs[idx] * (t - edges[idx])


def _reference_phases(seq, decays, device, s):
    T = seq.total_time
    p_total = float(_reference_parity(seq, T))
    phi = np.zeros(decays.shape[0])
    for j, (bit, nu) in enumerate(zip(s, device.nus)):
        if bit:
            t_d = np.minimum(decays[:, j], T)
            phi += 2.0 * nu * (p_total - 2.0 * _reference_parity(seq, t_d))
        else:
            phi += 2.0 * nu * p_total
    return phi


def _reference_coherence(device, s, seq, ens, stream=0):
    """Toggling-frame mean and standard error, drawn column by column."""
    rng = ens.rng(stream)
    cols = [rng.exponential(1.0 / q.gamma, size=ens.n_traj)
            if bit and q.gamma > 0 else np.full(ens.n_traj, np.inf)
            for bit, (q, _) in zip(s, device.spectators)]
    shots = np.exp(-1j * _reference_phases(seq, np.stack(cols, axis=1),
                                           device, s))
    envelope = np.exp(-device.control.gamma_tilde * seq.total_time)
    mean = envelope * complex(shots.mean())
    var = 0.0
    if ens.n_traj > 1:
        var = (shots.real.var(ddof=1) + shots.imag.var(ddof=1)) / ens.n_traj
    return mean, envelope * float(np.sqrt(var))


def _lab_frame(value, seq):
    return np.conj(value) if len(seq.pulse_times) % 2 else value


def _one_shot_phase(seq, t_d, device, bit):
    """Reference phase of one shot whose one spectator decays at t_d."""
    return float(_reference_phases(seq, np.array([[t_d]]), device,
                                   (bit,))[0])


def test_hahn_cancels_phase_of_frozen_spectator():
    device = _one_spec_device(gamma=0.0)
    seq = build_cpmg(80e-6, 0)
    phi = _one_shot_phase(seq, np.inf, device, 1)
    assert abs(phi) <= 1e-18
    phi0 = _one_shot_phase(seq, np.inf, device, 0)
    assert abs(phi0) <= 1e-18


def test_decay_at_echo_midpoint_gives_maximal_phase():
    device = _one_spec_device()
    nu = device.nus[0]
    T = 80e-6
    seq = build_cpmg(T, 0)
    phi = _one_shot_phase(seq, T / 2, device, 1)
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
    for seq in (PulseSequence.ramsey(T), build_cpmg(T, 0),
                build_cpmg(T, 3), build_cpmg(T, 8)):
        for _ in range(20):
            t_d = float(rng.uniform(0.0, 1.5 * T))
            got = _one_shot_phase(seq, t_d, device, 1)
            want = _phase_oracle(seq, t_d, nu, excited=True)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        got0 = _one_shot_phase(seq, np.inf, device, 0)
        assert abs(got0 - _phase_oracle(seq, np.inf, nu, False)) <= 1e-12


def test_sampled_phases_respect_cpmg_bounds(rng):
    device = _one_spec_device()
    nu = device.nus[0]
    T = 120e-6
    for n in (0, 1, 4):
        seq = build_cpmg(T, n)
        _, hi = phase_bounds(T, n, nu)
        t_d = rng.uniform(0.0, 2.0 * T, (200, 1))
        phi = _reference_phases(seq, t_d, device, (1,))
        assert np.all(np.abs(phi) <= hi + 1e-9)


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
    dense = lindblad_trace(device, "1", [T], cpmg_order=n).values[0]
    assert abs(abs(val) - abs(dense)) <= max(4.0 * err, 0.01)


def test_ground_state_experimental_frame_is_static():
    # The experimental (ground-state calibration) frame divides out the
    # static ZZ phase 2 nu T of a ground-state spectator; in it the
    # all-ground Ramsey value is the real intrinsic envelope.  The engine
    # reports only the lab-frame value: that frame lives in `simulate_rb`,
    # which rejects any other frame name.
    device = _one_spec_device()
    T = 80e-6
    ens = EnsembleSpec(n_traj=100, seed=0)
    val, _ = ensemble_coherence(device, "0", PulseSequence.ramsey(T), ens)
    static = np.exp(-2j * device.nus[0] * T)
    expected = np.exp(-device.control.gamma_tilde * T)
    assert np.isclose(val / static, expected, atol=1e-12)
    with pytest.raises(TypeError):
        ensemble_coherence(device, "0", PulseSequence.ramsey(T), ens,
                           frame="experimental")
    with pytest.raises(ValueError):
        simulate_rb(device, "0", [1], n_seq=1, t_gate=50e-9, frame="lab")


@pytest.mark.parametrize("n", [None, 0, 1, "odd"])
def test_all_ground_experimental_frame_is_static_with_pulses(device_a,
                                                             device_b, n):
    # Nothing decays, so every shot has the same static phase: the mean is
    # the exact coherence, phase and lab-frame conjugation included, and
    # the standard error vanishes, for any pulse count.  Dividing out that
    # all-ground phase of the same train (the experimental frame) leaves
    # the real intrinsic envelope.
    T = 80e-6
    if n is None:
        seq = PulseSequence.ramsey(T)
    elif n == "odd":
        seq = PulseSequence(T, (0.3 * T,))    # P(T) = -0.4 T
    else:
        seq = build_cpmg(T, n)
    for device, s in ((device_a, "0"), (device_b, "000")):
        val, err = ensemble_coherence(device, s, seq,
                                      EnsembleSpec(n_traj=100, seed=0))
        expected = coherence(device, s, seq)
        assert abs(val - expected) <= 1e-12, (s, seq, val, expected)
        assert err <= 1e-12
        envelope = np.exp(-device.control.gamma_tilde * T)
        static = expected / abs(expected)
        assert abs(val / static - envelope) <= 1e-12, (s, seq, val)


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
    with pytest.raises(ValueError):
        ensemble_trace(device_a, "1", [1e-5], EnsembleSpec(n_traj=-3, seed=0))


def _mixed_device(device_b):
    """Device B with its second spectator made stable (gamma = 0)."""
    specs = list(device_b.spectators)
    specs[1] = (QubitParams(gamma=0.0), specs[1][1])
    return DeviceModel(control=device_b.control, spectators=tuple(specs))


def _adversarial_sequences():
    T = 100e-6
    p = 40e-6
    ulps = (p, np.nextafter(p, 1.0), np.nextafter(np.nextafter(p, 1.0), 1.0),
            70e-6)
    yield PulseSequence.ramsey(T)
    for n in (0, 1, 2, 3, 4, 16, 64, 160):
        yield build_cpmg(T, n)
    yield PulseSequence(T, ulps)
    yield PulseSequence(T, (5e-324, 1e-300, T / 2, np.nextafter(T, 0.0)))
    yield PulseSequence(1.0, tuple(0.3 + np.cumsum(np.full(30, 1e-16))))


def _times_for(seq, rng):
    """Times in [0, T]: 0, T, every edge and its neighbours, and random."""
    T = seq.total_time
    edges = np.array((0.0,) + seq.pulse_times)
    t = np.concatenate(([0.0, T, np.nextafter(T, 0.0)], edges,
                        np.nextafter(edges, np.inf),
                        np.nextafter(edges[1:], -np.inf),
                        rng.uniform(0.0, T, 3000)))
    return np.clip(t, 0.0, T)


def test_parity_kernel_matches_searchsorted_reference():
    rng = np.random.default_rng(11)
    seqs = list(_adversarial_sequences())
    for _ in range(20):
        T = float(rng.uniform(1e-6, 1e-3))
        pulses = np.unique(rng.uniform(0.0, T, int(rng.integers(1, 200))))
        seqs.append(PulseSequence(T, tuple(p for p in pulses if 0 < p < T)))
    for seq in seqs:
        t = _times_for(seq, rng)
        edges = np.array((0.0,) + seq.pulse_times)
        parity = trajectory._Parity(seq)
        ws = trajectory._Workspace(0, t.size)
        assert parity.last_bucket + 1 <= 4 * edges.size
        seg = parity.segments(t, ws, t.size)
        assert np.array_equal(seg, np.searchsorted(edges, t, "right") - 1)
        assert np.array_equal(parity(t, ws, t.size),
                              _reference_parity(seq, t))
        assert seq.p_total == float(_reference_parity(seq, seq.total_time))
    # Uniform trains need one correction step at most: O(1) per lookup.
    for n in range(0, 161):
        for T in (1e-6, 37.3e-6, 2.5e-3):
            assert trajectory._Parity(build_cpmg(T, n)).steps == 1
    assert trajectory._Parity(PulseSequence.ramsey(1e-4)).steps == 0


@pytest.mark.parametrize("n_traj", [1, 7, 8192, 8193, 20_000])
def test_ensemble_coherence_matches_reference(device_b, n_traj):
    device = _mixed_device(device_b)
    ens = EnsembleSpec(n_traj=n_traj, seed=31)
    for seq in _adversarial_sequences():
        for s in ("111", "011", "000"):
            bits = tuple(int(c) for c in s)
            val, err = ensemble_coherence(device, s, seq, ens, stream=5)
            ref, ref_err = _reference_coherence(device, bits, seq, ens,
                                                stream=5)
            assert val == _lab_frame(ref, seq)
            assert err == ref_err


def test_ensemble_trace_matches_per_point_reference(device_b):
    times = np.array([0.0, 4e-6, 33.3e-6, 120e-6, 0.7e-3])
    ens = EnsembleSpec(n_traj=9000, seed=2)
    for order in (None, 0, 1, 4, 17):
        trace = ensemble_trace(device_b, "111", times, ens, cpmg_order=order)
        want = np.empty(times.size, dtype=complex)
        want_err = np.empty(times.size)
        want[0], want_err[0] = 1.0, 0.0
        for k, T in enumerate(times[1:], start=1):
            seq = (PulseSequence.ramsey(T) if order is None
                   else build_cpmg(T, order))
            ref, want_err[k] = _reference_coherence(device_b, (1, 1, 1), seq,
                                                    ens, stream=k)
            want[k] = _lab_frame(ref, seq)
        assert np.array_equal(trace.values, want)
        assert np.array_equal(trace.stderr, want_err)


def test_pulsed_coherence_matches_dense_engine_as_complex_number():
    # Lab-frame convention: the trajectory mean is the Lindblad engine's
    # coherence, phase included, for even and odd pulse counts alike.
    device = _one_spec_device(control_t2=241e-6, gamma=1.0 / 150e-6)
    T = 60e-6
    for n in range(5):
        seq = build_cpmg(T, n)
        val, err = ensemble_coherence(device, "1", seq,
                                      EnsembleSpec(n_traj=200_000, seed=7))
        dense = lindblad_trace(device, "1", [T], cpmg_order=n).values[0]
        assert abs(val - dense) <= 4.0 * err, (n, val, dense, err)


def test_ensemble_trace_is_bitwise_the_same_for_any_worker_count(
        device_b, monkeypatch):
    times = np.array([0.0, 5e-6, 40e-6, 90e-6, 150e-6, 310e-6, 0.6e-3])
    ens = EnsembleSpec(n_traj=trajectory._BLOCK + 5, seed=14)
    traces = []
    # More workers than cores, switching often: a lost or misplaced write
    # would change the output.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(trajectory, "_cpus", lambda w=workers: w)
            traces.append([ensemble_trace(device_b, "101", times, ens,
                                          cpmg_order=order)
                           for order in (None, 3)])
    finally:
        sys.setswitchinterval(interval)
    for other in traces[1:]:
        for a, b in zip(traces[0], other):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.stderr, b.stderr)


def test_workers_call_no_public_function(device_b, monkeypatch):
    # Tracing wraps the public functions with one span stack per process, so
    # the sequences are built in the calling thread; the points run on both
    # workers.
    monkeypatch.setattr(trajectory, "_cpus", lambda: 2)
    built, computed = [], []
    build, coherence = trajectory.build_cpmg, trajectory._coherence

    def recording_build(*args):
        built.append(threading.get_ident())
        return build(*args)

    def recording_coherence(*args):
        computed.append(threading.get_ident())
        return coherence(*args)

    monkeypatch.setattr(trajectory, "build_cpmg", recording_build)
    monkeypatch.setattr(trajectory, "_coherence", recording_coherence)
    times = np.linspace(10e-6, 200e-6, 6)
    ensemble_trace(device_b, "111", times, EnsembleSpec(n_traj=2000, seed=1),
                   cpmg_order=2)
    assert built == [threading.get_ident()] * times.size
    assert len(computed) == times.size
    assert len(set(computed)) == 2


def test_worker_exception_propagates(device_b, monkeypatch):
    monkeypatch.setattr(trajectory, "_cpus", lambda: 2)
    coherence = trajectory._coherence

    def failing(device, seq, *args):
        if seq.total_time > 100e-6:
            raise RuntimeError("worker failed")
        return coherence(device, seq, *args)

    monkeypatch.setattr(trajectory, "_coherence", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        ensemble_trace(device_b, "111", np.linspace(10e-6, 200e-6, 6),
                       EnsembleSpec(n_traj=100, seed=1))


def test_workspace_does_not_grow_with_excited_spectators(device_b,
                                                         monkeypatch):
    # One worker: the peak of two workers depends on whether their
    # temporaries happen to overlap in time.
    monkeypatch.setattr(trajectory, "_cpus", lambda: 1)
    times = np.array([20e-6, 60e-6])
    ens = EnsembleSpec(n_traj=100_000, seed=3)
    peaks = {}
    for s in ("100", "111"):
        tracemalloc.start()
        try:
            ensemble_trace(device_b, s, times, ens, cpmg_order=4)
            peaks[s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["111"] <= 1.1 * peaks["100"], peaks
