"""Device model, Liouvillian assembly, and exact propagation."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from conftest import _with_spectators
from sdid import (DeviceModel, EnsembleSpec, LiouvillianBundle,
                  PhysicalityError, QubitParams, bohr_spectrum, build_bmpsa,
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


def _dense_terms(bundle):
    """A device bundle's H and jumps as dense d x d matrices."""
    n = bundle.device.n_qubits
    return np.diag(bundle.hamiltonian), [
        (rate, ops.embed(x, site, n)) for rate, site, x in bundle.jump_terms]


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
    assert np.allclose(h, [nu, -nu, -nu, nu])


def test_hamiltonian_is_the_dense_product_sum_bit_for_bit():
    # The diagonal holds the bits of sum_j nu_j embed(Z, 0) @ embed(Z, j),
    # whose other entries are all zero.
    for n in range(1, 6):
        nus = [2.0 * np.pi * 1e4 * (1.0 + 0.137 * j) for j in range(n)]
        device = DeviceModel(control=QubitParams(), spectators=tuple(
            (QubitParams(), nu) for nu in nus))
        dense = np.zeros((2 ** (n + 1),) * 2, dtype=complex)
        z0 = ops.embed(ops.Z, 0, n + 1)
        for j, nu in enumerate(nus, start=1):
            dense = dense + nu * (z0 @ ops.embed(ops.Z, j, n + 1))
        h = build_hamiltonian(device)
        assert h.tobytes() == np.diag(dense).real.tobytes(), n
        assert np.array_equal(np.diag(h), dense), n


def test_hamiltonian_three_spectators_eigenvalues():
    nus = (1.0, 2.5, 4.0)
    device = DeviceModel(control=QubitParams(),
                         spectators=tuple((QubitParams(), nu) for nu in nus))
    evals = np.sort(build_hamiltonian(device))
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
        dense = _superop_from_terms(*_dense_terms(bundle))
        assert np.array_equal(bundle.superop, dense)
    # The constructor finds the sectors; no caller can hand it others.
    with pytest.raises(TypeError):
        LiouvillianBundle(device, sectors=bundle.sectors)
    for device in (device_b, device_b4):
        sectors = build_liouvillian(device).sectors
        n = device.n_qubits
        assert sum(idx.shape[0] for idx, _ in sectors) == 3 ** n
        assert [idx.shape[1] for idx, _ in sectors] == [2 ** k
                                                        for k in range(n + 1)]


def test_sectors_are_the_components_of_the_dense_liouvillian():
    # The closed-form sectors, labelled by their smallest member, are the
    # connected components of the off-diagonal pattern of the dense
    # Liouvillian summed from the jumps, for N = 0 to 4 with each qubit's
    # gamma and gamma_phi independently zero or not.  Every on/off pattern
    # is tried up to N = 2, and six at random beyond.  A bundle seeded with
    # three random indices keeps the full bundle's sectors of those seeds.
    rng, seed_rng = np.random.default_rng(26), np.random.default_rng(28)
    for n_spectators in range(5):
        n = n_spectators + 1
        patterns = (np.array(np.unravel_index(np.arange(4 ** n), (4,) * n)).T
                    if n <= 3 else rng.integers(0, 4, size=(6, n)))
        for pattern in patterns:
            qubits = [QubitParams(gamma=1e4 * (1 + k) * (on & 1),
                                  gamma_phi=3e3 * (1 + k) * (on >> 1))
                      for k, on in enumerate(pattern)]
            device = DeviceModel(control=qubits[0], spectators=tuple(
                (q, 2e5 * (1 + k)) for k, q in enumerate(qubits[1:])))
            bundle = build_liouvillian(device)
            _assert_keeps_the_seeded_sectors(
                device, bundle, seed_rng.choice(bundle.dim ** 2, 3))
            labels = np.empty(bundle.dim ** 2, dtype=int)
            for idx, _ in bundle.sectors:
                labels[idx] = idx[:, :1]
            dense = _superop_from_terms(*_dense_terms(bundle))
            np.fill_diagonal(dense, 0)
            _, comp = scipy.sparse.csgraph.connected_components(
                scipy.sparse.csr_matrix(dense != 0), directed=False)
            smallest = np.full(comp.max() + 1, labels.size)
            np.minimum.at(smallest, comp, np.arange(labels.size))
            assert np.array_equal(labels, smallest[comp]), pattern


def _coherence_seeds(d):
    # The entries rho[k, d/2 + k] that control_coherence sums, as vec(rho)
    # indices, and the indices that a control pi pulse maps them to.
    read = np.zeros((d, d))
    read[:d // 2, d // 2:] = np.eye(d // 2)
    idx = np.flatnonzero(ops.vectorize(read))
    return np.concatenate([idx, idx ^ (d + 1) * (d // 2)])


def test_seeded_bundle_keeps_the_sectors_that_hold_a_seed(device_a, device_b,
                                                          device_b4):
    rng = np.random.default_rng(5)
    for device in (device_a, device_b, device_b4):
        full = build_liouvillian(device)
        d2 = full.dim ** 2
        coherence = _coherence_seeds(full.dim)
        # The coherence and its pulse image: two sectors 2^N wide.
        assert [idx.shape for idx, _ in
                build_liouvillian(device, coherence).sectors] == [
                    (2, 2 ** device.n_spectators)]
        assert [idx.shape for idx, _ in build_liouvillian(
            device, coherence[:full.dim // 2]).sectors] == [
                (1, 2 ** device.n_spectators)]
        for seeds in (coherence, rng.choice(d2, 5, replace=False), [0],
                      np.arange(d2), []):
            _assert_keeps_the_seeded_sectors(device, full, seeds)
        # Seeds are vec(rho) indices, integers in [0, d^2).
        for seeds in ([-1], [d2], [3.5]):
            with pytest.raises(ValueError, match="seeds"):
                build_liouvillian(device, seeds)
    # Empty seeds keep no sector, and the state goes to 0.
    empty = build_liouvillian(device_a, [])
    assert empty.sectors == ()
    rho, = propagate(empty, ramsey_initial_state(device_a, "1"), [1e-6])
    assert not rho.any()


def _assert_keeps_the_seeded_sectors(device, full, seeds):
    # The seeded bundle holds the full bundle's sectors that hold a seed,
    # in its order, with its blocks.
    want = []
    for idx, blocks in full.sectors:
        hit = np.isin(idx, seeds).any(axis=1)
        if hit.any():
            want.append((idx[hit], blocks[hit]))
    got = build_liouvillian(device, seeds).sectors
    assert len(got) == len(want)
    for (idx, blocks), (want_idx, want_blocks) in zip(got, want):
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(blocks, want_blocks)


@pytest.mark.parametrize("name",
                         ["device_a", "device_b", "device_b4", "device_b5"])
def test_lindblad_trace_is_the_full_bundle_coherence(name, request):
    # Bit for bit: the seeded bundle steps only the sectors it reads.  The
    # trace writes vec(rho0) itself, so a mixed preparation is checked too.
    device = request.getfixturevalue(name)
    n = device.n_spectators
    full = build_liouvillian(device)
    times = np.array([0.0, 40e-6, 130e-6])
    for s in (("01" * n)[:n], "1" * n):
        rho0 = ramsey_initial_state(device, s)
        want = [2.0 * control_coherence(rho)
                for rho in propagate(full, rho0, times)]
        assert np.array_equal(lindblad_trace(device, s, times).values, want)
        for order in (0, 3):
            want = [2.0 * control_coherence(propagate(
                full, rho0, [T],
                pulse_times=build_cpmg(T, order).pulse_times)[0])
                for T in times[1:]]
            got = lindblad_trace(device, s, times[1:],
                                 cpmg_order=order).values
            assert np.array_equal(got, want)
    # One pulse off the centre of the window, all spectators excited.
    seeded = build_liouvillian(device, _coherence_seeds(full.dim))
    T = times[-1]
    got, want = (control_coherence(propagate(bundle, rho0, [T],
                                             pulse_times=[T / 3])[0])
                 for bundle in (seeded, full))
    assert got == want


def test_master_equation_bundles_match_dense_reference():
    h_s = two_qubit_hamiltonian(500.0, 700.0, 1.0)
    terms = bohr_spectrum(h_s, two_qubit_coupling(a=0.3))
    clusters = cluster_bohr(terms, delta_omega=3.0)
    bundles = [build_bmpsa(cluster_bohr(terms, delta_omega=0.0), 1.0),
               build_bmpsa(clusters, 1.0),
               build_cetcg(clusters, 1.0, 0.7)]
    for bundle in bundles:
        dense = _superop_from_terms(np.zeros((4, 4)), bundle.jump_terms)
        assert np.array_equal(bundle.superop, dense)


def test_pulse_permutation_matches_dense_pulse_superop():
    # The pulse's phases cancel in U rho U^dag: a permutation, with ones and
    # no sign, is the dense superoperator.  Its columns are the pulse applied
    # to each basis vector of vec(rho).
    for n_qubits in (1, 2, 3, 4):
        d = 2 ** n_qubits
        basis = np.eye(d * d, dtype=complex)
        dense = np.column_stack([model._pulse(e, d) for e in basis])
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


def test_grid_time_at_a_pulse_reads_the_state_before_it(device_a):
    # A Hahn echo sampled at T/2 and T: the T/2 point is the free evolution
    # to T/2, and the T point the whole echo.
    bundle = build_liouvillian(device_a)
    rho0 = ramsey_initial_state(device_a, "1")
    T = 60e-6
    before, echo = propagate(bundle, rho0, [T / 2, T], pulse_times=[T / 2])
    assert np.array_equal(before, propagate(bundle, rho0, [T / 2])[0])
    assert np.array_equal(echo, propagate(bundle, rho0, [T],
                                          pulse_times=[T / 2])[0])
    assert not np.allclose(echo, propagate(bundle, rho0, [T])[0])


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
    # NaN fails every comparison, so it must be rejected, not skipped.
    with pytest.raises(ValueError, match="sorted, non-negative grid"):
        propagate(bundle, rho0, [np.nan])
    with pytest.raises(ValueError):
        propagate(bundle, rho0, [1e-6], pulse_times=[np.nan])


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
    # The dense 4096 x 4096 superoperator alone would take 268 MB, and a
    # 64 x 64 state per grid point 6.6 MB over 101 points.  The trace holds
    # neither: it reads the coherence from the vector at each point, so
    # its peak is a few vec(rho)-wide vectors and the seeded sectors, under
    # 2 MB.
    s = "11111"
    times = np.linspace(0.0, 500e-6, 101)
    for order in (None, 4):
        tracemalloc.start()
        try:
            lindblad = lindblad_trace(device_b5, s, times, order).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, (order, peak)
        analytic = ramsey_trace(device_b5, s, times, order).values
        assert np.max(np.abs(lindblad - analytic)) <= 1e-12, order

    # One pulsed point: CPMG_0 (a Hahn echo) against the trajectories, as
    # a complex number.
    T = 60e-6
    dense = lindblad_trace(device_b5, s, [T], cpmg_order=0).values[0]
    val, err = ensemble_coherence(device_b5, s, build_cpmg(T, 0),
                                  EnsembleSpec(n_traj=200_000, seed=3))
    assert abs(val - dense) <= 4.0 * err, (val, dense, err)


def test_eight_spectators_without_any_d_by_d_operator(device_b5):
    # At N = 8 a dense operator on the state is 512 x 512 (4 MB), and H,
    # 18 jumps and their x^dag x / 2 would take 155 MB.  The bundle forms
    # none: Ramsey steps one 256-wide sector, CPMG_4 (at six window
    # lengths) two.
    device = _with_spectators(device_b5, [(160e-6, 280e-6, 43.0),
                                          (190e-6, 310e-6, 45.0),
                                          (210e-6, 350e-6, 42.0)])
    s = "1" * 8
    for times, order in ((np.linspace(0.0, 500e-6, 101), None),
                         (np.array([20.0, 56.0, 92.0, 128.0, 164.0, 200.0])
                          * 1e-6, 4)):
        tracemalloc.start()
        try:
            lindblad = lindblad_trace(device, s, times, order).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, (order, peak)
        analytic = ramsey_trace(device, s, times, order).values
        assert np.max(np.abs(lindblad - analytic)) <= 1e-12, order
    # A seeded build costs what it keeps: it enumerates its sectors from
    # their labels and labels no other vec(rho) index.
    coherence = _coherence_seeds(2 ** device.n_qubits)
    for seeds in (coherence[:coherence.size // 2], coherence):
        tracemalloc.start()
        try:
            bundle = build_liouvillian(device, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(blocks.nbytes for _, blocks in bundle.sectors)
        assert peak <= 1.5 * kept, (seeds.size, peak, kept)


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
