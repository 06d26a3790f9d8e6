"""Device model, Liouvillian assembly, and exact propagation."""

import tracemalloc

import numpy as np
import pytest

from sdid import (BathSpectrum, DeviceModel, EnsembleSpec, PhysicalityError,
                  QubitParams, bohr_spectrum, build_bmpsa, build_bmrwa,
                  build_cetcg, build_cpmg, build_hamiltonian,
                  build_liouvillian, cluster_bohr, control_coherence,
                  ensemble_coherence, lindblad_trace, parse_spectator_init,
                  propagate, ramsey_initial_state, ramsey_trace,
                  two_qubit_coupling, two_qubit_hamiltonian)
from sdid import model
from sdid import operators as ops
from sdid.model import validate_density_matrix


def _apply(superop, rho):
    return ops.unvectorize(superop @ ops.vectorize(rho))


# Reference: the dense d^2 x d^2 builder that the sector builder replaced.

def _superop_from_terms(h: np.ndarray, jumps) -> np.ndarray:
    # Each dissipator is complete before it is scaled and added, so
    # rate * D[x] keeps its trace cancellation exact instead of mixing the
    # rates of different jumps.
    d = h.shape[0]
    total = np.zeros((d * d, d * d), dtype=complex)
    total += ops.left_mult(-1j * h)
    total += ops.right_mult(1j * h)
    for rate, op in jumps:
        term = dissipator_superop(op)
        term *= rate
        total += term
    return total


def dissipator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator of ``D[x] rho = x rho x^dag - {x^dag x, rho}/2``."""
    op = np.asarray(op, dtype=complex)
    half_xdx = 0.5 * (op.conj().T @ op)
    term = ops.sandwich(op, op.conj().T)
    term += ops.left_mult(-half_xdx)
    term += ops.right_mult(-half_xdx)
    return term


def _pulse_superop(n_qubits: int) -> np.ndarray:
    """Dense superoperator of an X pi rotation on the control."""
    u_full = ops.embed(-1j * ops.X, 0, n_qubits)
    return ops.sandwich(u_full, u_full.conj().T)


def test_qubit_params_validation():
    with pytest.raises(PhysicalityError):
        QubitParams(gamma=-1.0)
    with pytest.raises(PhysicalityError):
        QubitParams(gamma_phi=-1.0)
    q = QubitParams.from_times(t1=100e-6, t2=150e-6)
    assert np.isclose(q.gamma, 1e4)
    assert np.isclose(q.gamma_tilde, 1.0 / 150e-6)
    assert np.isclose(q.t2, 150e-6)


def test_t2_boundary_accepted_and_violation_rejected():
    q = QubitParams.from_times(t1=100e-6, t2=200e-6)
    assert q.gamma_phi == 0.0
    with pytest.raises(PhysicalityError, match="T2 exceeds 2\\*T1"):
        QubitParams.from_times(t1=100e-6, t2=210e-6)


def test_hamiltonian_single_spectator_is_diagonal_zz():
    nu = 2.0
    device = DeviceModel(control=QubitParams(),
                         spectators=((QubitParams(), nu),))
    h = build_hamiltonian(device)
    assert np.allclose(h, np.diag([nu, -nu, -nu, nu]))


def test_hamiltonian_three_spectators_eigenvalues():
    nus = (1.0, 2.5, 4.0)
    device = DeviceModel(control=QubitParams(),
                         spectators=tuple((QubitParams(), nu) for nu in nus))
    evals = np.sort(np.linalg.eigvalsh(build_hamiltonian(device)))
    expected = np.sort([s1 * nus[0] + s2 * nus[1] + s3 * nus[2]
                        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
                        for _ in (0,)] * 2)
    # each sign pattern appears twice (two control states give the same
    # magnitude pattern under the global ZZ product structure)
    assert np.allclose(evals, expected)


def test_dissipator_closed_forms(rng):
    rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out_z = _apply(dissipator_superop(ops.Z), rho)
    assert np.allclose(out_z, ops.Z @ rho @ ops.Z - rho, atol=1e-12)
    sm = ops.SIGMA_MINUS
    out_m = _apply(dissipator_superop(sm), rho)
    n_op = sm.conj().T @ sm
    expected = sm @ rho @ sm.conj().T - 0.5 * (n_op @ rho + rho @ n_op)
    assert np.allclose(out_m, expected, atol=1e-12)


def test_liouvillian_trace_preserving(device_a, device_b):
    for device in (device_a, device_b):
        bundle = build_liouvillian(device)
        row = ops.trace_row(bundle.dim) @ bundle.superop
        assert np.max(np.abs(row)) <= 1e-12


def test_liouvillian_reassembles(device_a, device_b, device_b4):
    # The blocks hold the reference's sums, entry for entry.  When every
    # qubit relaxes there are 3^(N+1) sectors, of widths 1 to 2^(N+1).
    for device in (device_a, device_b, device_b4):
        bundle = build_liouvillian(device)
        dense = _superop_from_terms(bundle.hamiltonian, bundle.jump_terms)
        assert np.array_equal(bundle.superop, dense)
    for device in (device_b, device_b4):
        sectors = build_liouvillian(device).sectors
        n = device.n_qubits
        assert sum(idx.shape[0] for idx, _ in sectors) == 3 ** n
        assert [idx.shape[1] for idx, _ in sectors] == [2 ** k
                                                        for k in range(n + 1)]


def test_master_equation_bundles_match_dense_reference():
    h_s = two_qubit_hamiltonian(500.0, 700.0, 1.0)
    terms = bohr_spectrum(h_s, two_qubit_coupling(a=0.3))
    bath = BathSpectrum.flat(1.0)
    clusters = cluster_bohr(terms, delta_omega=3.0)
    bundles = [build_bmrwa(terms, bath),
               build_bmpsa(clusters, bath),
               build_cetcg(clusters, bath, 0.7)]
    for bundle in bundles:
        dense = _superop_from_terms(bundle.hamiltonian, bundle.jump_terms)
        assert np.max(np.abs(bundle.superop - dense)) <= 1e-15


def test_pulse_permutation_matches_dense_pulse_superop():
    for n_qubits in (1, 2, 3):
        d2 = 4 ** n_qubits
        perm, sign = model._pulse_permutation(n_qubits)
        dense = np.zeros((d2, d2), dtype=complex)
        dense[np.arange(d2), perm] = sign
        assert np.array_equal(dense, _pulse_superop(n_qubits))


def test_dephasing_rate_convention():
    # A qubit with only pure dephasing gamma_phi must lose coherence as
    # e^{-gamma_phi t}, i.e. 1/T2 = gamma_phi when gamma = 0.
    gp = 3000.0
    device = DeviceModel(control=QubitParams(gamma_phi=gp))
    bundle = build_liouvillian(device)
    rho0 = np.outer(ops.KET_PLUS, ops.KET_PLUS.conj())
    t = 70e-6
    rho = propagate(bundle, rho0, [t])[0]
    assert np.isclose(rho[0, 1], 0.5 * np.exp(-gp * t), atol=1e-12)


def test_propagate_free_decay_matches_exponential():
    g = 1.0 / 107e-6
    device = DeviceModel(control=QubitParams(gamma=g))
    bundle = build_liouvillian(device)
    rho0 = np.outer(ops.KET_1, ops.KET_1.conj())
    times = np.linspace(0.0, 300e-6, 7)
    states = propagate(bundle, rho0, times)
    for t, rho in zip(times, states):
        assert np.isclose(rho[1, 1].real, np.exp(-g * t), atol=1e-12)
        assert np.isclose(rho[0, 0].real, 1.0 - np.exp(-g * t), atol=1e-12)


def test_propagate_zero_generator_is_constant():
    device = DeviceModel(control=QubitParams())
    bundle = build_liouvillian(device)
    rho0 = np.outer(ops.KET_PLUS, ops.KET_PLUS.conj())
    for rho in propagate(bundle, rho0, [0.0, 1e-5, 2e-4]):
        assert np.allclose(rho, rho0, atol=1e-13)


def test_hahn_echo_refocuses_static_spectator():
    # Frozen spectator (no decay): a mid-sequence pi pulse cancels the ZZ
    # phase exactly, so the coherence magnitude returns to 1/2.
    nu = 2 * np.pi * 11250.0
    device = DeviceModel(control=QubitParams(),
                         spectators=((QubitParams(), nu),))
    bundle = build_liouvillian(device)
    rho0 = ramsey_initial_state(device, "1")
    T = 60e-6
    rho = propagate(bundle, rho0, [T], pulse_times=[T / 2])[0]
    assert np.isclose(abs(control_coherence(rho)), 0.5, atol=1e-12)


def test_propagate_validates_pulses_and_grid():
    device = DeviceModel(control=QubitParams())
    bundle = build_liouvillian(device)
    rho0 = np.outer(ops.KET_0, ops.KET_0.conj())
    with pytest.raises(ValueError):
        propagate(bundle, rho0, [1e-6, 0.5e-6])
    with pytest.raises(ValueError, match="sorted, non-negative grid"):
        propagate(bundle, rho0, [])
    with pytest.raises(ValueError):
        propagate(bundle, rho0, [1e-6], pulse_times=[2e-6])
    with pytest.raises(ValueError):
        propagate(bundle, rho0, [1e-6], pulse_times=[0.6e-6, 0.4e-6])


def test_propagate_takes_pulse_times_as_an_array(device_b):
    bundle = build_liouvillian(device_b)
    rho0 = ramsey_initial_state(device_b, "101")
    times = [20e-6, 70e-6, 90e-6]
    pulses = build_cpmg(90e-6, 3).pulse_times
    want = propagate(bundle, rho0, times, pulse_times=pulses)
    got = propagate(bundle, rho0, times, pulse_times=np.array(pulses))
    assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


def _count_step_propagators(monkeypatch):
    """Count step propagators built, and record each exponential's width."""
    calls, widths = [], []
    original_step, original_expm = model._step_propagator, ops.expm

    def counting_step(bundle, dt):
        calls.append(dt)
        return original_step(bundle, dt)

    def recording_expm(m):
        widths.append(m.shape[-1])
        return original_expm(m)

    monkeypatch.setattr(model, "_step_propagator", counting_step)
    monkeypatch.setattr(ops, "expm", recording_expm)
    return calls, widths


def test_uniform_grid_costs_one_step_exponential(device_a, monkeypatch):
    # linspace gives ten distinct float spacings; they round to one step.
    calls, widths = _count_step_propagators(monkeypatch)
    rho0 = ramsey_initial_state(device_a, "1")
    propagate(build_liouvillian(device_a), rho0, np.linspace(0, 500e-6, 101))
    assert len(calls) == 1
    assert max(widths) <= 2 ** device_a.n_qubits


def test_cpmg_train_costs_two_step_exponentials(device_a, monkeypatch):
    # Order 4 at T: tau/2, four spacings tau, tau/2; tau = T/5.
    calls, widths = _count_step_propagators(monkeypatch)
    rho0 = ramsey_initial_state(device_a, "1")
    T = 150e-6
    pulses = build_cpmg(T, 4).pulse_times
    propagate(build_liouvillian(device_a), rho0, [T], pulse_times=pulses)
    assert len(calls) == 2
    assert max(widths) <= 2 ** device_a.n_qubits


def test_five_spectators_without_the_dense_superoperator(device_b5):
    # The dense 4096 x 4096 superoperator alone would take 268 MB.
    s = "11111"
    times = np.linspace(0.0, 500e-6, 101)
    tracemalloc.start()
    try:
        lindblad = lindblad_trace(device_b5, s, times).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak
    analytic = ramsey_trace(device_b5, s, times).values
    assert np.max(np.abs(lindblad - analytic)) <= 1e-12

    # One pulsed point: CPMG_0 (a Hahn echo) against the trajectories, as
    # a complex number.
    T = 60e-6
    dense = lindblad_trace(device_b5, s, [T], cpmg_order=0).values[0]
    val, err = ensemble_coherence(device_b5, s, build_cpmg(T, 0),
                                  EnsembleSpec(n_traj=200_000, seed=3))
    assert abs(val - dense) <= 4.0 * err, (val, dense, err)


def test_control_coherence_block_sum(rng):
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.isclose(control_coherence(rho), rho[0, 2] + rho[1, 3])


def test_propagation_preserves_physicality(device_b):
    bundle = build_liouvillian(device_b)
    rho0 = ramsey_initial_state(device_b, "110")
    for rho in propagate(bundle, rho0, [0.0, 50e-6, 200e-6]):
        assert ops.hermiticity_defect(rho) <= 1e-12
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_spectator_pure_dephasing_does_not_move_control_coherence():
    nu = 2 * np.pi * 12000.0
    base = DeviceModel(
        control=QubitParams.from_times(t1=141e-6, t2=241e-6),
        spectators=((QubitParams(gamma=1.0 / 150e-6), nu),))
    noisy = DeviceModel(
        control=base.control,
        spectators=((QubitParams(gamma=1.0 / 150e-6, gamma_phi=5e4), nu),))
    times = np.linspace(0.0, 200e-6, 9)
    for s in ("0", "1"):
        a = lindblad_trace(base, s, times).values
        b = lindblad_trace(noisy, s, times).values
        assert np.max(np.abs(a - b)) <= 1e-10


def test_validate_density_matrix_rejects_unphysical_states():
    with pytest.raises(PhysicalityError, match="Hermitian"):
        validate_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PhysicalityError, match="trace"):
        validate_density_matrix(np.eye(2))
    with pytest.raises(PhysicalityError, match="positive"):
        validate_density_matrix(np.diag([1.5, -0.5]))


def test_parse_spectator_init():
    assert parse_spectator_init("011", 3) == (0, 1, 1)
    assert parse_spectator_init((1, 0), 2) == (1, 0)
    with pytest.raises(ValueError):
        parse_spectator_init("01", 3)
    with pytest.raises(ValueError):
        parse_spectator_init("02", 2)


def test_ramsey_initial_state_structure(device_a):
    rho0 = ramsey_initial_state(device_a, "1")
    validate_density_matrix(rho0)
    plus = np.outer(ops.KET_PLUS, ops.KET_PLUS.conj())
    one = np.outer(ops.KET_1, ops.KET_1.conj())
    assert np.allclose(rho0, ops.kron(plus, one))
