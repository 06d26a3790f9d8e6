"""Closed-form coherence for Ramsey and pulse trains, and the helpers of the
effective-coupling model."""

import numpy as np
import pytest

from sdid import (DeviceModel, EnsembleSpec, PulseSequence, QubitParams,
                  build_cpmg, build_liouvillian, coherence, control_coherence,
                  cpmg_effective, ensemble_trace, fit_exponential,
                  heuristic_rate, lindblad_trace, phase_bounds, propagate,
                  ramsey_initial_state, ramsey_trace)


def _one_spectator(gamma=1.0 / 107e-6, nu=2 * np.pi * 11250.0):
    return DeviceModel(control=QubitParams.from_times(t2=127e-6),
                       spectators=((QubitParams(gamma=gamma), nu),))


def test_ground_spectator_is_pure_phase():
    t = np.linspace(0.0, 1e-4, 11)
    device = _one_spectator(gamma=9000.0)
    nu, envelope = device.nus[0], np.exp(-device.control.gamma_tilde * t)
    values = ramsey_trace(device, "0", t).values
    assert np.allclose(values, envelope * np.exp(-2j * nu * t), atol=1e-14)
    assert np.allclose(np.abs(values), envelope, atol=1e-14)


def test_excited_spectator_limits():
    t = np.linspace(0.0, 1e-4, 11)
    device = _one_spectator(gamma=9345.8)
    nu, envelope = device.nus[0], np.exp(-device.control.gamma_tilde * t)
    # At t = 0 every factor is 1.
    assert ramsey_trace(device, "1", [0.0]).values[0] == 1.0
    # No decay: the excited spectator imprints the opposite static phase.
    frozen = ramsey_trace(_one_spectator(gamma=0.0), "1", t).values
    assert np.allclose(frozen, envelope * np.exp(2j * nu * t), atol=1e-12)
    # No coupling: the spectator leaves no trace on the control.
    uncoupled = ramsey_trace(_one_spectator(nu=0.0), "1", t).values
    assert np.allclose(uncoupled, envelope, atol=1e-12)
    with pytest.raises(ValueError):
        ramsey_trace(device, "2", t)


def test_single_and_multi_spectator_forms_agree(device_a, device_b):
    # The pulse-free segment sum is the textbook Ramsey factor, and N
    # spectators multiply their one-spectator factors.
    t = np.linspace(0.0, 500e-6, 101)
    (q, nu), = device_a.spectators
    g, c = q.gamma, 4j * nu - q.gamma
    textbook = np.exp(-device_a.control.gamma_tilde * t) * (
        4j * nu * np.exp((2j * nu - g) * t) - g * np.exp(-2j * nu * t)) / c
    assert np.max(np.abs(ramsey_trace(device_a, "1", t).values
                         - textbook)) <= 2e-15
    bare = np.exp(-device_b.control.gamma_tilde * t)
    for s in ("111", "010"):
        product = bare.astype(complex)
        for bit, spectator in zip(s, device_b.spectators):
            alone = DeviceModel(control=device_b.control,
                                spectators=(spectator,))
            product *= ramsey_trace(alone, bit, t).values / bare
        assert np.max(np.abs(ramsey_trace(device_b, s, t).values
                             - product)) <= 1e-14


def test_matches_dense_propagation(device_a):
    times = np.linspace(0.0, 500e-6, 101)
    analytic = ramsey_trace(device_a, "1", times).values
    dense = lindblad_trace(device_a, "1", times).values
    assert np.max(np.abs(analytic - dense)) <= 1e-8


def test_heuristic_rate_adds_excited_t1_rates(device_a, device_b):
    assert np.isclose(heuristic_rate(device_a, "1"),
                      1.0 / 127e-6 + 1.0 / 107e-6)
    assert np.isclose(heuristic_rate(device_a, "0"), 1.0 / 127e-6)
    expected = 1.0 / 241e-6 + 1.0 / 150e-6 + 1.0 / 122e-6
    assert np.isclose(heuristic_rate(device_b, "101"), expected)


def test_fast_coupling_limit_reaches_heuristic_rate():
    gamma1 = 1.0 / 107e-6
    nu = 100.0 * gamma1
    device = DeviceModel(control=QubitParams.from_times(t2=127e-6),
                         spectators=((QubitParams(gamma=gamma1), nu),))
    rate = heuristic_rate(device, "1")
    times = np.linspace(1e-7, 5.0 / rate, 400)
    mags = np.abs(ramsey_trace(device, "1", times).values)
    fit = fit_exponential(times, mags, offset=0.0)
    assert abs(fit.params["rate"] - rate) / rate <= 0.02


def test_slow_coupling_magnitude_oscillates(device_a):
    # nu ~ gamma1: the magnitude is non-monotone (at least one local
    # extremum), unlike a plain exponential.
    times = np.linspace(0.0, 500e-6, 501)
    mags = np.abs(ramsey_trace(device_a, "1", times).values)
    d = np.diff(mags)
    assert np.any(d[:-1] * d[1:] < 0)


def test_magnitude_bounded_by_intrinsic_envelope(device_a):
    times = np.linspace(0.0, 500e-6, 101)
    mags = np.abs(ramsey_trace(device_a, "1", times).values)
    envelope = np.exp(-device_a.control.gamma_tilde * times)
    assert np.all(mags <= envelope + 1e-12)


def test_cpmg_effective_divides_couplings(device_b):
    eff = cpmg_effective(device_b, 4)
    assert np.allclose(eff.nus, device_b.nus / 5.0)
    assert eff.control == device_b.control
    assert all(q1 == q2 for (q1, _), (q2, _) in
               zip(eff.spectators, device_b.spectators))
    assert np.allclose(cpmg_effective(device_b, 0).nus, device_b.nus)
    for n in (0, 1, 4, 16, 64, 160):
        eff = cpmg_effective(device_b, n)
        assert np.array_equal(eff.nus, device_b.nus / (n + 1))
        assert np.array_equal(eff.spectator_gammas,
                              device_b.spectator_gammas)
    with pytest.raises(ValueError):
        cpmg_effective(device_b, -1)


def test_phase_bounds_shrink_with_order():
    nu = 2 * np.pi * 11250.0
    T = 100e-6
    lo, hi = phase_bounds(T, 0, nu)
    assert lo == 0.0
    assert np.isclose(hi, 2 * nu * T)
    _, hi4 = phase_bounds(T, 4, nu)
    assert np.isclose(hi4, 2 * nu * T / 5.0)
    with pytest.raises(ValueError):
        phase_bounds(T, -1, nu)


def _pulse_trains(T):
    for n in range(5):
        yield build_cpmg(T, n)
    yield PulseSequence(T, (0.3 * T,))


def test_exact_pulse_trains_match_pulsed_propagation(device_a, device_b):
    # Lab frame as a complex number, for even and odd pulse counts alike.
    for device, inits in ((device_a, ("1",)), (device_b, ("111", "010"))):
        bundle = build_liouvillian(device)
        for s in inits:
            rho0 = ramsey_initial_state(device, s)
            for T in (23e-6, 90e-6):
                for seq in _pulse_trains(T):
                    rho = propagate(bundle, rho0, [T],
                                    pulse_times=list(seq.pulse_times))[0]
                    dense = 2.0 * control_coherence(rho)
                    exact = coherence(device, s, seq)
                    assert abs(exact - dense) <= 1e-10, (s, seq, exact, dense)


def test_cpmg_trace_is_the_coherence_of_each_train(device_b):
    times = np.array([0.0, 7e-6, 61e-6, 240e-6])
    for order in (None, 0, 3, 16):
        trace = ramsey_trace(device_b, "101", times, cpmg_order=order).values
        assert trace[0] == 1.0
        for T, value in zip(times[1:], trace[1:]):
            seq = build_cpmg(T, order)
            assert abs(value - coherence(device_b, "101", seq)) <= 1e-13
    with pytest.raises(ValueError):
        ramsey_trace(device_b, "101", times, cpmg_order=-1)


def test_three_engines_agree_as_complex_numbers(device_b):
    # Order 0 is a one-pulse train, so its lab-frame value is conjugated.
    times = np.linspace(0.0, 240e-6, 9)
    ens = EnsembleSpec(n_traj=20_000, seed=29)
    for s in ("111", "010"):
        for order in (None, 0, 1, 4):
            exact = ramsey_trace(device_b, s, times, cpmg_order=order).values
            dense = lindblad_trace(device_b, s, times, cpmg_order=order)
            traj = ensemble_trace(device_b, s, times, ens, cpmg_order=order)
            assert np.max(np.abs(dense.values - exact)) <= 1e-10, (s, order)
            assert dense.values[0] == traj.values[0] == exact[0] == 1.0
            assert traj.stderr[0] == 0.0
            z = np.abs(traj.values[1:] - exact[1:]) / traj.stderr[1:]
            assert np.all(z <= 4.0), (s, order, z.max())


@pytest.mark.parametrize("engine", ["analytic", "lindblad", "trajectory"])
@pytest.mark.parametrize("order", [None, 2])
@pytest.mark.parametrize("times", [
    [-20e-6, 0.0], [0.0, np.nan], [0.0, np.inf], [0.0, 20e-6, 10e-6], [],
    [[0.0, 10e-6]]], ids=["negative", "nan", "inf", "unsorted", "empty",
                          "2d"])
def test_every_engine_rejects_a_bad_grid(device_a, engine, order, times):
    trace = {"analytic": ramsey_trace, "lindblad": lindblad_trace,
             "trajectory": lambda *args, **kw: ensemble_trace(
                 *args, EnsembleSpec(n_traj=10), **kw)}[engine]
    with pytest.raises(ValueError, match="sorted, non-negative grid"):
        trace(device_a, "1", times, cpmg_order=order)


def test_exact_cpmg_matches_trajectories(device_b):
    times = np.linspace(10e-6, 300e-6, 8)
    ens = EnsembleSpec(n_traj=20_000, seed=17)
    for order in (None, 0, 1, 4, 16, 64, 160):
        exact = ramsey_trace(device_b, "111", times, cpmg_order=order).values
        traj = ensemble_trace(device_b, "111", times, ens, cpmg_order=order)
        z = np.abs(exact - traj.values) / traj.stderr
        assert np.all(z <= 4.0), (order, z.max())
