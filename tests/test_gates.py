import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hinv import circuit, compiler, gates, qmat
from hinv.gates import INVERSE, STANDARD, Gate, NoiseModel

from conftest import (CNOT4, HADAMARD, I2, SX, SY, SZ, expi, kron_chain, phase_overlap,
                      rotation, virtual_z_unitary, xx_unitary)


def realize_product(seq, nm=gates.IDEAL):
    U = np.eye(4, dtype=complex)
    for g in seq:
        U = qmat.embed(gates.realize(g, nm), g.qubits, 2) @ U
    return U


# --- single-qubit rotations -------------------------------------------------

def rot1q(theta, phi):
    return gates.realize(gates.rot1q(0, theta, phi))


def test_rot1q_zero_angle():
    assert np.abs(rot1q(0.0, 1.3) - np.eye(2)).max() == 0


def test_rot1q_standard_x_half():
    want = np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2)
    assert np.abs(rot1q(np.pi / 2, 0.0) - want).max() < 1e-15


def test_rot1q_y_half_generator_oracle():
    got = rot1q(np.pi / 2, np.pi / 2)
    want = expi(SY, np.pi / 4)  # exp(-i pi/4 Y), independent Pade route
    assert np.abs(got - want).max() < 1e-13
    assert np.abs(got - np.array([[1, -1], [1, 1]]) / np.sqrt(2)).max() < 1e-15


def test_rot1q_pi_is_x_up_to_phase():
    assert phase_overlap(rot1q(np.pi, 0.0), SX) > 1 - 1e-12


# --- XX interaction ----------------------------------------------------------

def test_xx_quarter():
    want = (np.eye(4) - 1j * kron_chain(SX, SX)) / np.sqrt(2)
    assert np.abs(xx_unitary(np.pi / 4) - want).max() < 1e-15


def test_xx_zero_angle_any_axis():
    assert np.abs(xx_unitary(0.0, 0.3, 0.3) - np.eye(4)).max() == 0


def test_xx_misaligned_axis_oracle():
    phi = np.deg2rad(3.5)
    ax = np.cos(phi) * SX + np.sin(phi) * SY
    want = expi(np.kron(ax, ax), np.pi / 4)
    assert np.abs(xx_unitary(np.pi / 4, phi, phi) - want).max() < 1e-13


def test_xx_per_ion_phases():
    got = xx_unitary(0.7, phase_a=0.4, phase_b=-0.2)
    axa = np.cos(0.4) * SX + np.sin(0.4) * SY
    axb = np.cos(-0.2) * SX + np.sin(-0.2) * SY
    assert np.abs(got - expi(np.kron(axa, axb), 0.7)).max() < 1e-13


# --- CNOT composite ----------------------------------------------------------

def test_cnot_sequence_is_cnot():
    for orientation in (STANDARD, INVERSE):
        prod = realize_product(gates.native_sequence(gates.cnot(0, 1, orientation)))
        assert abs(np.trace(CNOT4.conj().T @ prod)) / 4 > 1 - 1e-12


def test_cnot_then_inverse_is_identity():
    prod = realize_product(gates.native_sequence(gates.cnot(0, 1, STANDARD))
                           + gates.native_sequence(gates.cnot(0, 1, INVERSE)))
    assert phase_overlap(np.eye(4), prod) > 1 - 1e-12


def test_inverse_sequence_negates_and_reverses():
    std = gates.native_sequence(gates.cnot(0, 1, STANDARD))
    inv = gates.native_sequence(gates.cnot(0, 1, INVERSE))
    assert [g.kind for g in inv] == [g.kind for g in reversed(std)]
    assert all(gi.params[0] == -gs.params[0]
               for gi, gs in zip(inv, reversed(std)))


# --- realize -----------------------------------------------------------------

def test_realize_zero_noise_exact():
    nm = gates.IDEAL
    for theta, phi in [(0.3, 0.0), (-1.2, 2.0), (np.pi, np.pi / 2)]:
        g = gates.rot1q(0, theta, phi)
        assert np.abs(gates.realize(g, nm) - rotation(theta, phi)).max() < 1e-13
    g = gates.xx(0, 1, np.pi / 4)
    assert np.abs(gates.realize(g, nm) - xx_unitary(np.pi / 4)).max() < 1e-13


def test_realize_overrotated_xx():
    # two-qubit overrotation scales the interaction angle multiplicatively
    nm = NoiseModel(eps_2q=0.0225)
    got = gates.realize(gates.xx(0, 1, np.pi / 4), nm)
    assert np.abs(got - xx_unitary(1.0225 * np.pi / 4)).max() < 1e-13


def test_realize_overrotated_rot1q():
    nm = NoiseModel(eps_1q=0.002)
    got = gates.realize(gates.rot1q(0, np.pi / 2, 0.0), nm)
    assert np.abs(got - rotation(1.002 * np.pi / 2, 0.0)).max() < 1e-13


def test_virtual_z_immune_to_noise():
    nm = NoiseModel(eps_1q=0.5, eps_2q=0.5, phi_diff=1.0, delta_detune=0.3)
    got = gates.realize(gates.virtual_z(0, 0.7), nm)
    assert np.abs(got - virtual_z_unitary(0.7)).max() == 0


def test_hadamard_realization():
    H = gates.realize(gates.hadamard(0))
    assert phase_overlap(H, HADAMARD) > 1 - 1e-12
    # noise applies to the driven part only
    nm = NoiseModel(eps_1q=0.01)
    noisy = gates.realize(gates.hadamard(0), nm)
    want = rotation(1.01 * np.pi / 2, np.pi / 2) @ virtual_z_unitary(np.pi)
    assert np.abs(noisy - want).max() < 1e-13


def test_inversion_cancels_angle_inverting_errors():
    # the algebraic core of hidden-inverse cancellation
    nm = NoiseModel(eps_2q=0.027, eps_1q=0.013, phi_diff=0.06)
    A = gates.realize(gates.cnot(0, 1, STANDARD), nm)
    B = gates.realize(gates.cnot(0, 1, INVERSE), nm)
    assert abs(np.trace(A @ B)) / 4 > 1 - 1e-10
    assert np.abs(B - A.conj().T * np.vdot(A.conj().T, B) / 4).max() < 1e-10


def test_detuning_breaks_inversion():
    nm = NoiseModel(delta_detune=0.01)
    A = gates.realize(gates.cnot(0, 1, STANDARD), nm)
    B = gates.realize(gates.cnot(0, 1, INVERSE), nm)
    assert abs(1 - abs(np.trace(A @ B)) / 4) > 1e-6


@pytest.mark.parametrize("d", [0.0, 0.03])
@pytest.mark.parametrize("theta", [0.7, -0.7])
def test_detuning_drift_term_matches_its_oracle(theta, d):
    # the drift is scaled by the pulse duration |theta|, so it does not flip with theta
    nm = NoiseModel(eps_2q=0.02, eps_1q=0.01, phi_diff=0.05, delta_detune=d)

    def axis(phi):
        return math.cos(phi) * SX + math.sin(phi) * SY

    drift = kron_chain(SZ, I2) + kron_chain(I2, SZ)
    want = expi(theta * 1.02 * np.kron(axis(0.35), axis(-0.35)) + d * abs(theta) / 2 * drift)
    got = gates.realize(gates.xx(0, 1, theta, 0.3, -0.4), nm)
    assert np.abs(got - want).max() < 1e-14
    want = expi(theta * 1.01 * axis(0.3) + d * abs(theta) * SZ, 0.5)
    assert np.abs(gates.realize(gates.rot1q(0, theta, 0.3), nm) - want).max() < 1e-14


def test_pauli_frame_gates_exact():
    nm = NoiseModel(eps_1q=0.1, delta_detune=0.1)
    (g,) = gates.pauli(0, "X")
    assert np.array_equal(gates.realize(g, nm), SX)
    assert gates.pauli(0, "I") == []


@pytest.mark.parametrize("label", ["XY", "", "W"])
def test_pauli_rejects_bad_labels(label):
    with pytest.raises(ValueError, match="bad Pauli label"):
        gates.pauli(0, label)


def test_realized_arrays_are_read_only():
    # realize is memoized, so every caller shares the returned array; the
    # frame Paulis are the qmat constants that also build the Pauli basis
    nm = NoiseModel(eps_2q=0.02)
    for g in (Gate("pauli_x", (0,)), gates.cnot(0, 1), gates.xx(0, 1, 0.3)):
        U = gates.realize(g, nm)
        with pytest.raises(ValueError):
            U *= 2.0
        with pytest.raises(ValueError):
            U[0, 0] = 0.0
    assert np.array_equal(qmat.X, SX)
    assert np.array_equal(qmat.pauli_basis(1)[1], SX)


def test_realize_memo_runs_one_eigh_per_distinct_driven_pulse(monkeypatch):
    calls = []
    herm_exp = qmat.herm_exp

    def counting_herm_exp(H, s):
        calls.append(1)
        return herm_exp(H, s)

    monkeypatch.setattr(qmat, "herm_exp", counting_herm_exp)
    gates._realized.cache_clear()
    nm = NoiseModel(eps_2q=0.02, eps_1q=0.002)
    base = circuit.parity_controlled_z(2, 0.4)
    for seed in range(100):
        circuit.unitary_of(compiler.randomized_compile(base, seed), nm)
    # the memo keys on (kind, params, orientation, nm), not the qubits, so the
    # two R(-pi/2, 0) pulses on the control and the target are one pulse
    assert len(calls) == len(driven_pulses(STANDARD)) == 4
    assert gates._realized.cache_info().hits > 0
    # a mixed-orientation ladder on 5 (control, target) pairs: 6 pulses, one eigh each
    calls.clear()
    gates._realized.cache_clear()
    orientations = [STANDARD, INVERSE] * 5
    circuit.unitary_of(circuit.parity_controlled_z(6, 0.4, orientations), nm)
    assert len(calls) == len(driven_pulses(STANDARD, INVERSE)) == 6


def driven_pulses(*orientations):
    """The distinct (kind, params) of the driven gates of CNOTs in ``orientations``."""
    return {(h.kind, h.params) for o in orientations
            for h in gates.native_sequence(gates.cnot(0, 1, o)) if h.kind in ("rot1q", "xx")}


def test_realize_shares_one_result_across_qubits_and_the_default_noise_model():
    gates._realized.cache_clear()
    U = gates.realize(gates.xx(0, 1, 0.3))
    assert U is gates.realize(gates.xx(0, 1, 0.3), gates.IDEAL)
    assert U is gates.realize(gates.xx(4, 2, 0.3), nm=gates.IDEAL)
    assert gates._realized.cache_info().misses == 1
    nm = NoiseModel(eps_2q=0.02, phi_diff=0.05)
    assert gates.realize(gates.cnot(0, 3), nm) is gates.realize(gates.cnot(2, 3), nm)
    assert gates.realize(gates.cnot(0, 3), nm) is not gates.realize(gates.cnot(0, 3, INVERSE), nm)


def test_amplitude_to_angle_mapping():
    assert gates.amplitude_to_angle_overrotation(0.0) == 0.0
    assert abs(gates.amplitude_to_angle_overrotation(0.0225) - 0.04550625) < 1e-15


# --- angle canonicalization --------------------------------------------------

@pytest.mark.parametrize("theta,want", [
    (2 * np.pi, 2 * np.pi),          # full loops survive
    (-2 * np.pi, 2 * np.pi),         # left endpoint excluded
    (5 * np.pi, np.pi),
    (0.3, 0.3),
    (4 * np.pi + 0.2, 0.2),
])
def test_wrap_two_pi(theta, want):
    assert abs(gates.wrap_two_pi(theta) - want) < 1e-12


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_wrap_two_pi_rejects_non_finite_angles(theta):
    with pytest.raises(ValueError, match="angle must be finite"):
        gates.wrap_two_pi(theta)


@pytest.mark.parametrize("make, args", [
    (gates.rot1q, (0, 1.0, math.nan)),
    (gates.xx, (0, 1, 0.5, math.nan)),
    (gates.xx, (0, 1, 0.5, 0.0, math.inf)),
    (Gate, ("rot1q", (0,), (math.inf, 0.0))),
], ids=["rot1q_phi_nan", "xx_phase_a_nan", "xx_phase_b_inf", "raw_gate_inf"])
def test_gate_rejects_non_finite_parameters(make, args):
    with pytest.raises(ValueError, match="angle must be finite"):
        make(*args)


@pytest.mark.parametrize("knob", ["eps_2q", "eps_1q", "phi_diff", "delta_detune"])
def test_noise_model_refuses_a_non_finite_knob(knob):
    with pytest.raises(ValueError, match=f"{knob} must be finite"):
        NoiseModel(**{knob: math.nan})


@pytest.mark.parametrize("args, message", [
    (("foo", (0,)), "unknown gate kind 'foo'"),
    (("cnot", (0,)), "cnot takes 2 qubit(s) and 0 angle(s), got 1 and 0"),
    (("xx", (0, 1), (0.5,)), "xx takes 2 qubit(s) and 3 angle(s), got 2 and 1"),
    (("rot1q", (0,), (1.0,)), "rot1q takes 1 qubit(s) and 2 angle(s), got 1 and 1"),
    (("rot1q", (0,), (1.0, 0.0), INVERSE), "bad orientation 'inverse' for rot1q"),
    (("cnot", (0, 1), (), "sideways"), "bad orientation 'sideways' for cnot"),
], ids=["unknown_kind", "cnot_one_qubit", "xx_one_angle", "rot1q_one_angle",
        "rot1q_inverse", "cnot_sideways"])
def test_gate_rejects_what_it_cannot_realize_or_print(args, message):
    # each was accepted once, then failed in to_text, from_text or realize
    with pytest.raises(ValueError, match=re.escape(message)):
        Gate(*args)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(math.nextafter(2 * math.pi, 7.0))      # just past the right endpoint
@example(math.nextafter(-2 * math.pi, 0.0))     # just inside the left endpoint
def test_wrap_two_pi_lands_in_range_and_is_idempotent(theta):
    t = gates.wrap_two_pi(theta)
    assert -2 * math.pi < t <= 2 * math.pi
    assert gates.wrap_two_pi(t) == t
    if -2 * math.pi < theta <= 2 * math.pi:
        assert t == theta


@pytest.mark.parametrize("theta,want", [(3 * np.pi, np.pi), (-3.5 * np.pi, np.pi / 2),
                                        (0.4, 0.4), (1.5 * np.pi, -np.pi / 2)])
def test_wrap_pi(theta, want):
    assert abs(gates.wrap_pi(theta) - want) < 1e-12
