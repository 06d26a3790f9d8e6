"""Conditional channels, Clifford group, and the two RB engines."""

from functools import partial

import numpy as np
import pytest

from sdid import (DeviceModel, ForbiddenTransitionError, QubitParams,
                  average_survival, clifford_group, conditional_channel,
                  fit_rb, lambda_analytic, rb_decay_constant,
                  simulate_rb, transition_probability)
from sdid import operators as ops
from sdid.rb import _gate_table


def test_channel_diagonals_match_closed_forms(rng):
    for _ in range(8):
        nu = float(rng.uniform(1e4, 2e5))
        gamma1 = float(rng.uniform(1e3, 2e4))
        t = float(rng.uniform(1e-8, 5e-7))
        for (i, j) in ((0, 0), (1, 1), (1, 0)):
            chan = conditional_channel(i, j, nu, gamma1, t)
            lam = lambda_analytic(i, j, nu, gamma1, t)
            assert abs(chan.lam - lam) <= 1e-10
            # diag(1, lam, lam*, 1) with no off-diagonal leakage
            diag = np.diag(chan.superop)
            assert np.allclose(diag, [1.0, lam, np.conj(lam), 1.0],
                               atol=1e-10)
            off = chan.superop - np.diag(diag)
            assert np.max(np.abs(off)) <= 1e-10


def test_survival_channel_reduces_to_phase():
    nu, t = 5e4, 2e-7
    lam = lambda_analytic(1, 1, nu, 1e4, t)
    assert np.isclose(lam, np.exp(-2j * nu * t), atol=1e-14)
    assert np.isclose(lambda_analytic(0, 0, nu, 1e4, t),
                      np.exp(2j * nu * t), atol=1e-14)


def test_decay_channel_limits():
    # Vanishing coupling: a decay during the gate leaves no phase imprint.
    assert np.isclose(lambda_analytic(1, 0, 0.0, 1e4, 3e-7), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        lambda_analytic(1, 0, 5e4, 0.0, 3e-7)


@pytest.mark.parametrize("gamma1", [1e3, 10.0, 0.1, 1e-3])
def test_decay_eigenvalue_keeps_precision_for_slow_decays(gamma1):
    # A long-lived spectator at a short gate: gamma1 t down to 2e-11,
    # where 1 - e^{-gamma1 t} would lose all but a few digits.
    nu, t = 2 * np.pi * 12e3, 20e-9
    lam = lambda_analytic(1, 0, nu, gamma1, t)
    assert abs(lam - conditional_channel(1, 0, nu, gamma1, t).lam) <= 1e-14


def test_excitation_is_forbidden():
    with pytest.raises(ForbiddenTransitionError):
        conditional_channel(0, 1, 5e4, 1e4, 1e-7)
    with pytest.raises(ForbiddenTransitionError):
        lambda_analytic(0, 1, 5e4, 1e4, 1e-7)
    # Without relaxation a 1 -> 0 decay is impossible as well.
    with pytest.raises(ForbiddenTransitionError, match="zero probability"):
        conditional_channel(1, 0, 5e4, 0.0, 1e-7)


def test_transition_probabilities_sum_to_one():
    for gamma1 in (1e3, 1e4, 5e4):
        for t in (1e-8, 1e-7, 1e-6):
            n11 = transition_probability(1, 1, gamma1, t)
            n10 = transition_probability(1, 0, gamma1, t)
            assert abs(n11 + n10 - 1.0) <= 1e-10
            assert transition_probability(0, 0, gamma1, t) == 1.0
            assert transition_probability(0, 1, gamma1, t) == 0.0


def test_channel_norm_equals_transition_probability():
    nu, gamma1, t = 7e4, 9e3, 2e-7
    for (i, j) in ((0, 0), (1, 1), (1, 0)):
        chan = conditional_channel(i, j, nu, gamma1, t)
        assert abs(chan.norm - transition_probability(i, j, gamma1, t)) <= 1e-10


def test_decay_constant_from_trace():
    nu, gamma1, t = 7e4, 9e3, 2e-7
    for (i, j) in ((0, 0), (1, 1), (1, 0)):
        chan = conditional_channel(i, j, nu, gamma1, t)
        lam = lambda_analytic(i, j, nu, gamma1, t)
        expected = (1.0 + 2.0 * lam.real) / 3.0
        assert abs(rb_decay_constant(chan) - expected) <= 1e-10
    # Conjugate-pair invariance: the two survival branches share one p.
    p00 = rb_decay_constant(conditional_channel(0, 0, nu, gamma1, t))
    p11 = rb_decay_constant(conditional_channel(1, 1, nu, gamma1, t))
    assert p00 == pytest.approx(p11, abs=1e-12)


def _p_experimental(i: int, nu: float, t: float) -> float:
    """RB decay constants in the experimental (ground-state) frame."""
    if i == 0:
        return 1.0
    if i == 1:
        return (1.0 + 2.0 * np.cos(4.0 * nu * t)) / 3.0
    raise ValueError("spectator bit must be 0 or 1")


def test_experimental_frame_decay_constants():
    nu, t = 7e4, 2e-7
    assert _p_experimental(0, nu, t) == 1.0
    assert np.isclose(_p_experimental(1, nu, t),
                      (1.0 + 2.0 * np.cos(4.0 * nu * t)) / 3.0)
    with pytest.raises(ValueError):
        _p_experimental(2, nu, t)


def test_clifford_group_structure():
    group = clifford_group()
    assert len(group) == 24
    eye = np.eye(2)
    paulis = [ops.X, ops.Y, ops.Z]
    for a, u in enumerate(group.unitaries):
        # unitarity and a valid inverse entry
        assert np.allclose(u @ u.conj().T, eye, atol=1e-12)
        v = group.unitaries[group.inverse[a]]
        prod = u @ v
        phase = prod[np.unravel_index(np.argmax(np.abs(prod)), (2, 2))]
        assert np.allclose(prod / phase, eye, atol=1e-9)
        # Clifford property: conjugation permutes the Pauli axes (up to sign)
        for p in paulis:
            out = u @ p @ u.conj().T
            overlaps = [abs(np.trace(out @ q)) / 2.0 for q in paulis]
            assert np.isclose(max(overlaps), 1.0, atol=1e-9)
    # composition table closure against direct multiplication
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.integers(0, 24, size=2)
        prod = group.unitaries[a] @ group.unitaries[b]
        w = group.unitaries[group.compose[a, b]]
        ratio = prod @ w.conj().T
        phase = ratio[np.unravel_index(np.argmax(np.abs(ratio)), (2, 2))]
        assert np.allclose(ratio / phase, eye, atol=1e-9)


def _rb_device(nu=2 * np.pi * 12000.0, gamma=1.0 / 150e-6):
    return DeviceModel(control=QubitParams(),
                       spectators=((QubitParams(gamma=gamma), nu),))


def test_error_free_rb_survival_is_one():
    device = DeviceModel(control=QubitParams(),
                         spectators=((QubitParams(), 0.0),))
    curve = simulate_rb(device, "0", [1, 5, 20, 80], n_seq=4, t_gate=50e-9,
                        seed=2)
    assert np.allclose(curve.survival, 1.0, atol=1e-12)


def test_frozen_excited_spectator_bare_frame_decay():
    # gamma = 0, spectator |1>: every gate applies the pure phase
    # lambda_11 = e^{-2 i nu t}, so p = (1 + 2 cos(2 nu t)) / 3.
    nu = 2 * np.pi * 275000.0
    t_gate = 50e-9
    device = _rb_device(nu=nu, gamma=0.0)
    lengths = [1, 10, 25, 50, 100, 200, 400]
    curve = simulate_rb(device, "1", lengths, n_seq=40, t_gate=t_gate,
                        frame="bare", seed=0)
    fit = fit_rb(curve.lengths, curve.survival, offset=0.5)
    expected_p = (1.0 + 2.0 * np.cos(2.0 * nu * t_gate)) / 3.0
    assert abs(fit.params["p"] - expected_p) <= 0.1 * (1.0 - expected_p)


def test_relaxation_barely_shifts_decay_constant():
    # Spectator relaxation converts the excited branch to the ground one;
    # in the experimental frame the fitted p stays near 1 either way.
    device = _rb_device()
    lengths = [1, 100, 400, 1000]
    p_fit = {}
    for init in ("0", "1"):
        curve = simulate_rb(device, init, lengths, n_seq=20, t_gate=50e-9,
                            frame="experimental", seed=4)
        p_fit[init] = fit_rb(curve.lengths, curve.survival,
                             offset=0.5).params["p"]
    assert abs(p_fit["1"] - p_fit["0"]) <= 0.01


def test_rb_input_validation(device_b):
    for engine in (partial(simulate_rb, n_seq=2), average_survival):
        with pytest.raises(ValueError):
            engine(device_b, "111", [0, 5], t_gate=50e-9)
        with pytest.raises(ValueError):
            engine(device_b, "111", [1, 5], t_gate=50e-9, frame="lab")
        with pytest.raises(ValueError):
            engine(device_b, "2", [1, 5], t_gate=50e-9)
    for args, message in (((2, 0, 5e4, 1e4, 1e-7), "bits must be 0 or 1"),
                          ((1, 0, 5e4, 1e4, 0.0), "t_gate must be positive")):
        with pytest.raises(ValueError, match=message):
            conditional_channel(*args)


def test_gate_table_matches_the_dense_channels(device_b):
    # Rows lambda_00, lambda_11, lambda_10 of each spectator against the
    # projected two-qubit propagator, in the bare frame; the experimental
    # frame multiplies the bare table by the ground-state phase once.
    for t_gate in (20e-9, 2e-6):
        bare = _gate_table(device_b, t_gate, "bare")
        assert bare.shape == (3, device_b.n_spectators)
        for k, (nu, gamma) in enumerate(zip(device_b.nus,
                                            device_b.spectator_gammas)):
            for row, (i, j) in enumerate(((0, 0), (1, 1), (1, 0))):
                dense = conditional_channel(i, j, nu, gamma, t_gate).lam
                assert abs(bare[row, k] - dense) <= 1e-10, (t_gate, k, row)
        assert np.array_equal(_gate_table(device_b, t_gate, "experimental"),
                              bare * np.exp(-2j * device_b.nus * t_gate))
    # A spectator that never decays has no lambda_10: row 2 repeats row 1.
    frozen = DeviceModel(control=device_b.control,
                         spectators=device_b.spectators[:1]
                         + ((QubitParams(), device_b.nus[1]),))
    for frame in ("bare", "experimental"):
        table = _gate_table(frozen, 20e-9, frame)
        assert table[2, 1] == table[1, 1]
        assert table[2, 0] != table[1, 0]


def test_exact_average_zero_preparation_survives(device_b):
    # All-ground spectators: the experimental frame removes the only error.
    curve = average_survival(device_b, "zero", [1, 50, 400, 1600],
                             t_gate=20e-9)
    assert np.max(np.abs(curve.survival - 1.0)) <= 1e-12
    assert curve.stderr is None


def test_exact_average_of_frozen_excited_spectator():
    # The closed form of `test_frozen_excited_spectator_bare_frame_decay`:
    # every gate twirls lambda_11 = e^{-2 i nu t} to p = (1 + 2 cos(2 nu t))/3.
    nu, t_gate = 2 * np.pi * 275000.0, 50e-9
    lengths = [400, 1, 25, 10, 25]
    curve = average_survival(_rb_device(nu=nu, gamma=0.0), "1", lengths,
                             t_gate=t_gate, frame="bare")
    p = (1.0 + 2.0 * np.cos(2.0 * nu * t_gate)) / 3.0
    expected = 0.5 + 0.5 * p ** np.array(lengths)
    assert np.allclose(curve.survival, expected, rtol=0.0, atol=1e-12)
    assert list(curve.lengths) == lengths


def test_exact_average_sums_the_spectator_histories():
    # One spectator in |1>, two gates: it survives both (p11 p11), decays
    # in the second (p11 p10) or decays in the first (p10 p00).
    nu, gamma, t_gate = 2 * np.pi * 40000.0, 1.0 / 20e-6, 3e-6
    device = _rb_device(nu=nu, gamma=gamma)
    q = np.exp(-gamma * t_gate)
    frame = np.exp(-2j * nu * t_gate)
    p = {key: (1.0 + 2.0 * (lambda_analytic(*key, nu, gamma, t_gate)
                            * frame).real) / 3.0
         for key in ((0, 0), (1, 1), (1, 0))}
    decaying = {1: q * p[1, 1] + (1 - q) * p[1, 0],
                2: (q * q * p[1, 1] ** 2 + q * (1 - q) * p[1, 1] * p[1, 0]
                    + (1 - q) * p[1, 0] * p[0, 0])}
    curve = average_survival(device, "one", [2, 1], t_gate=t_gate)
    assert np.allclose(curve.survival, [0.5 + 0.5 * decaying[2],
                                        0.5 + 0.5 * decaying[1]],
                       rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("frame", ["experimental", "bare"])
@pytest.mark.parametrize("init", ["one", "plus"])
def test_simulation_matches_exact_average_when_decays_matter(device_b, init,
                                                             frame):
    # At 2 us per gate a spectator often decays within a sequence, so every
    # transition of the exact chain carries weight.
    lengths = [1, 5, 20, 60]
    exact = average_survival(device_b, init, lengths, t_gate=2e-6,
                             frame=frame)
    sim = simulate_rb(device_b, init, lengths, n_seq=2000, t_gate=2e-6,
                      frame=frame, seed=9)
    assert np.all(np.abs(sim.survival - exact.survival) <= 4.0 * sim.stderr)


def test_rb_reproducible_per_seed(device_b):
    kwargs = dict(n_seq=3, t_gate=50e-9, seed=6)
    a = simulate_rb(device_b, "plus", [1, 10, 40], **kwargs)
    b = simulate_rb(device_b, "plus", [1, 10, 40], **kwargs)
    assert np.array_equal(a.survival, b.survival)


def _reference_rb(device, init, lengths, n_seq, t_gate, seed):
    """Plain per-sequence, per-gate, per-spectator RB loop (experimental frame).

    `init` is "plus" or "one".  Draws the random numbers in the order `simulate_rb` documents: per
    sequence, the gate indices, then one decay time per excited
    (branch, spectator) pair.
    """
    group = clifford_group()
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_spec = device.n_spectators
    if init == "plus":
        branches = [tuple((b >> (n_spec - 1 - j)) & 1 for j in range(n_spec))
                    for b in range(2 ** n_spec)]
    else:
        branches = [(1,) * n_spec]
    weight = 1.0 / len(branches)
    lams = []
    for nu, gamma in zip(device.nus, device.spectator_gammas):
        frame = np.exp(-2j * nu * t_gate)
        lams.append({key: lambda_analytic(*key, nu, gamma, t_gate) * frame
                     for key in ((0, 0), (1, 1), (1, 0))})
    survival, stderr = [], []
    for m in lengths:
        per_seq = []
        for _ in range(n_seq):
            gates = list(rng.integers(0, 24, size=m))
            net = 0
            for g in gates:
                net = group.compose[g, net]
            gates.append(group.inverse[net])
            decay = {}
            for bi, bits in enumerate(branches):
                for j in range(n_spec):
                    if bits[j]:
                        t_d = rng.exponential(1.0 / device.spectator_gammas[j])
                        decay[bi, j] = int(t_d // t_gate) + 1
            p0 = 0.0
            for bi, bits in enumerate(branches):
                rho = np.array([[1, 0], [0, 0]], dtype=complex)
                state = list(bits)
                for pos, g in enumerate(gates, start=1):
                    u = group.unitaries[g]
                    rho = u @ rho @ u.conj().T
                    lam = 1.0
                    for j in range(n_spec):
                        if state[j] and decay.get((bi, j)) == pos:
                            lam *= lams[j][1, 0]
                            state[j] = 0
                        elif state[j]:
                            lam *= lams[j][1, 1]
                        else:
                            lam *= lams[j][0, 0]
                    rho[1, 0] *= lam
                    rho[0, 1] *= np.conj(lam)
                p0 += weight * rho[0, 0].real
            per_seq.append(p0)
        survival.append(np.mean(per_seq))
        stderr.append(np.std(per_seq, ddof=1) / np.sqrt(n_seq))
    return np.array(survival), np.array(stderr)


@pytest.mark.parametrize("init", ["plus", "one"])
def test_batched_rb_matches_reference_loop(device_b, init):
    # A 2 us gate makes spectator decays within a sequence common, so the
    # lambda_10 branch and the later lambda_00 gates are exercised.
    lengths = [1, 7, 30]
    curve = simulate_rb(device_b, init, lengths, n_seq=4, t_gate=2e-6,
                        frame="experimental", seed=5)
    survival, stderr = _reference_rb(device_b, init, lengths, n_seq=4,
                                     t_gate=2e-6, seed=5)
    assert np.allclose(curve.survival, survival, rtol=0.0, atol=1e-12)
    assert np.allclose(curve.stderr, stderr, rtol=0.0, atol=1e-12)
