import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hinv import analytics, channels, circuit, compiler, gates, qmat
from hinv.analytics import MINUS, PLUS
from hinv.circuit import HIDDEN_INVERSE
from hinv.gates import INVERSE, STANDARD, Gate, NoiseModel

from conftest import (CNOT4, SX, SZ, dense_twirled_superop, embed_on, expi, kron_chain,
                      noisy_circuits, parity_target, phase_overlap, random_unitary)


def both_orientation_lists(n):
    std = [STANDARD] * (2 * (n - 1))
    hid = [STANDARD] * (n - 1) + [INVERSE] * (n - 1)
    return std, hid


# --- parity_controlled_z -----------------------------------------------------

def test_pcz_zero_angle_is_identity():
    c = circuit.parity_controlled_z(2, 0.0)
    assert phase_overlap(np.eye(4), circuit.unitary_of(c)) > 1 - 1e-10


@pytest.mark.parametrize("theta", [0.3, -1.2, np.pi / 2])
def test_pcz_orientation_independent(theta):
    std, hid = both_orientation_lists(2)
    U1 = circuit.unitary_of(circuit.parity_controlled_z(2, theta, std))
    U2 = circuit.unitary_of(circuit.parity_controlled_z(2, theta, hid))
    want = expi(kron_chain(SZ, SZ), theta / 2)
    assert phase_overlap(U1, want) > 1 - 1e-10
    assert phase_overlap(U2, want) > 1 - 1e-10


def test_pcz_orientation_independent_mixed(rng):
    want = expi(kron_chain(SZ, SZ, SZ), 0.55 / 2)
    for _ in range(8):
        orientations = [rng.choice([STANDARD, INVERSE]) for _ in range(4)]
        U = circuit.unitary_of(circuit.parity_controlled_z(3, 0.55, orientations))
        assert phase_overlap(U, want) > 1 - 1e-10


def test_pcz_four_qubits_matches_exponential_oracle():
    theta = np.pi / 3
    c = circuit.parity_controlled_z(4, theta)
    want = expi(kron_chain(SZ, SZ, SZ, SZ), theta / 2)
    assert phase_overlap(circuit.unitary_of(c), want) > 1 - 1e-10


def test_pcz_bad_orientation_count():
    # ladder_overlap takes the same arguments and refuses the same way
    for n, orientations in [(1, None), (3, [STANDARD] * 3),
                            (3, [STANDARD, "sideways", STANDARD, STANDARD])]:
        with pytest.raises(ValueError) as want:
            circuit.parity_controlled_z(n, 0.1, orientations)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            circuit.ladder_overlap(n, 0.1, orientations)


def test_ideal_parity_unitary_agrees_with_expm():
    for n in (2, 3, 4):
        want = expi(kron_chain(*([SZ] * n)), 0.35)
        assert np.abs(parity_target(n, 0.7) - want).max() < 1e-13


# --- repeated_block_circuit ---------------------------------------------------

def test_repeated_block_identity_at_zero():
    c = circuit.repeated_block_circuit(2, 0.0, 5, HIDDEN_INVERSE)
    probs = circuit.run_density(c)
    assert abs(probs[0] - 1.0) < 1e-10


@pytest.mark.parametrize("theta", [0.2, 0.9, -1.4])
def test_repeated_block_population_oracle(theta):
    # state-vector oracle: H(x)H exp(-i 5 theta/2 ZZ) H(x)H |00>
    reps = 5
    H = (SX + SZ) / np.sqrt(2)
    HH = kron_chain(H, H)
    psi = HH @ expi(kron_chain(SZ, SZ), reps * theta / 2) @ HH @ np.eye(4)[:, 0]
    want = np.abs(psi) ** 2
    c = circuit.repeated_block_circuit(2, theta, reps, STANDARD)
    got = circuit.run_density(c)
    assert np.abs(got - want).max() < 1e-10
    assert abs(got[0] - np.cos(reps * theta / 2) ** 2) < 1e-10


def test_repeated_block_week4_support():
    # weight-4 parity rotation on |+...+> maps to the {0000, 1111} pair
    c = circuit.repeated_block_circuit(4, 0.8, 1, HIDDEN_INVERSE)
    probs = circuit.run_density(c)
    assert abs(probs[0] + probs[-1] - 1.0) < 1e-10
    assert abs(probs[0] - np.cos(0.4) ** 2) < 1e-10


# --- unitary_of ----------------------------------------------------------------

def test_unitary_of_zero_noise_parity():
    c = circuit.parity_controlled_z(2, 0.6)
    want = expi(kron_chain(SZ, SZ), 0.3)
    assert phase_overlap(circuit.unitary_of(c), want) > 1 - 1e-10


def test_unitary_of_hidden_inverse_cancellation():
    _, hid = both_orientation_lists(2)
    c = circuit.parity_controlled_z(2, 0.0, hid)
    U = circuit.unitary_of(c, NoiseModel(eps_2q=0.02))
    fe = abs(np.trace(U)) ** 2 / 16
    assert abs(fe - 1.0) < 1e-10


def test_unitary_of_refuses_a_register_past_the_dense_limit():
    for n in (11, 10 ** 9):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{n} qubits exceed the dense limit of 10 qubits$"):
            circuit.unitary_of(circuit.Circuit(n))
        assert time.perf_counter() - t0 < 1.0   # checked before 2**n is built


@pytest.mark.parametrize("simulate, width, limit", [(circuit.run_density, 10, "dense"),
                                                     (circuit.run_ptm, 5, "Pauli-vector")])
def test_run_density_and_run_ptm_refuse_a_register_past_their_limit(simulate, width, limit):
    for n in (width + 1, 10 ** 9):
        t0 = time.perf_counter()
        message = f"^{n} qubits exceed the {limit} limit of {width} qubits$"
        with pytest.raises(ValueError, match=message):
            simulate(circuit.Circuit(n))
        assert time.perf_counter() - t0 < 1.0   # checked before 2**n or 4**n is built


def test_unitary_of_matches_manual_product(rng):
    gs = [gates.rot1q(0, 0.7, 0.2), gates.xx(0, 2, 0.5), gates.virtual_z(1, -0.9)]
    c = circuit.Circuit(3, gs)
    nm = NoiseModel(eps_1q=0.01, eps_2q=0.02, phi_diff=0.05)
    want = np.eye(8, dtype=complex)
    for g in gs:
        want = embed_on(gates.realize(g, nm), g.qubits, 3) @ want
    assert np.abs(circuit.unitary_of(c, nm) - want).max() < 1e-12


def test_unitary_of_dimension_guard():
    with pytest.raises(ValueError):
        circuit.unitary_of(circuit.Circuit(11, []))


# --- ladder_overlap ---------------------------------------------------------------

@st.composite
def noisy_ladders(draw, max_n=8):
    """A parity ladder of width 2..max_n with random orientations, its angle,
    and a noise model with all four knobs set."""
    n = draw(st.integers(2, max_n))
    theta = draw(st.floats(-np.pi, np.pi, allow_nan=False))
    orientations = draw(st.lists(st.sampled_from([STANDARD, INVERSE]),
                                 min_size=2 * (n - 1), max_size=2 * (n - 1)))
    knob = st.floats(-0.1, 0.1, allow_nan=False)
    nm = NoiseModel(eps_2q=draw(knob), eps_1q=draw(knob), phi_diff=draw(knob),
                    delta_detune=draw(knob))
    return n, theta, orientations, nm


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(noisy_ladders())
def test_ladder_overlap_matches_dense_oracle(case):
    n, theta, orientations, nm = case
    c = circuit.parity_controlled_z(n, theta, orientations)
    want = analytics.entanglement_fidelity(parity_target(n, theta),
                                           circuit.unitary_of(c, nm))
    got = abs(circuit.ladder_overlap(n, theta, orientations, nm)) ** 2
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n", [12, 30, 60])
def test_ladder_overlap_past_the_dense_cap(n, rng):
    # widths no dense operator reaches.  Under pure overrotation a control
    # whose two CNOTs differ in orientation is a hidden-inverse pair, and
    # one whose two agree is a standard pair, so beside the two uniform
    # lists, a random mix of pairs per control checks that each forward
    # gate meets its own return gate.
    std, hid = both_orientation_lists(n)
    pairs = {PLUS: [(STANDARD, INVERSE), (INVERSE, STANDARD)],
             MINUS: [(STANDARD, STANDARD), (INVERSE, INVERSE)]}
    cases = [(hid, PLUS), (std, MINUS)]
    for sign in (PLUS, MINUS):
        per_control = [pairs[sign][k] for k in rng.integers(0, 2, n - 1)]
        cases.append(([a for a, _ in per_control] + [b for _, b in reversed(per_control)],
                      sign))
    for eps in (0.02, 0.1):
        nm = NoiseModel(eps_2q=eps)
        for theta in (-np.pi, -2.1, 0.0, 0.7, np.pi / 2):
            for orientations, sign in cases:
                got = abs(circuit.ladder_overlap(n, theta, orientations, nm)) ** 2
                assert abs(got - analytics.exact_ladder_fe(theta, eps, n, sign)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(noisy_ladders(max_n=4))
def test_twirled_ladder_fidelity_matches_dense_oracle(case):
    # the same transfer chain on qubit-and-copy sites of dimension 4
    n, theta, orientations, nm = case
    U = parity_target(n, theta)
    D = dense_twirled_superop(circuit.parity_controlled_z(n, theta, orientations), nm)
    want = np.real(np.vdot(np.kron(U, U.conj()), D)) / 4**n
    got = compiler.twirled_ladder_fidelity(n, theta, orientations, nm)
    assert abs(got - want) <= 1e-12


# --- run_density / run_ptm ------------------------------------------------------

def test_run_density_empty_circuit():
    probs = circuit.run_density(circuit.Circuit(3, []))
    assert probs[0] == 1.0 and probs.sum() == 1.0


def test_run_density_matches_statevector(rng):
    gs = [gates.hadamard(0), gates.cnot(0, 1), gates.rot1q(1, 0.4, 0.1)]
    c = circuit.Circuit(2, gs)
    nm = NoiseModel(eps_2q=0.03)
    psi = circuit.unitary_of(c, nm)[:, 0]
    assert np.abs(circuit.run_density(c, nm) - np.abs(psi) ** 2).max() < 1e-12


def test_run_density_rejects_bad_channel():
    c = circuit.Circuit(2, [gates.cnot(0, 1)])
    bad = channels.PTM(2, np.eye(16) * 1.5)
    with pytest.raises(ValueError):
        circuit.run_density(c, channel_map={0: bad})


@pytest.mark.parametrize("channel_map, message", [
    ({1: channels.PTM(2, np.eye(16))}, "channel index 1 out of range"),
    ({0: channels.PTM(1, np.eye(4))}, "channel on 1 qubits attached to 2-qubit circuit"),
], ids=["index_past_the_end", "one_qubit_channel"])
def test_channel_map_must_fit_the_circuit(channel_map, message):
    c = circuit.Circuit(2, [gates.cnot(0, 1)])
    for run in (circuit.run_density, circuit.run_ptm):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(c, channel_map=channel_map)


@pytest.mark.parametrize("build, message", [
    (lambda: circuit.Circuit(0), "circuit needs at least one qubit"),
    (lambda: circuit.repeated_block_circuit(2, 0.3, 0), "reps must be >= 1"),
    (lambda: circuit.repeated_block_circuit(2, 0.3, 1, "mixed"), "bad config 'mixed'"),
], ids=["no_qubits", "zero_reps", "mixed_config"])
def test_circuit_builders_refuse_bad_shapes(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_four_qubit_depolarized_contrast():
    # fitted four-qubit model: global depolarizing p=0.87 after each of the
    # six two-qubit gates; hidden-inverse contrast of |0000> near 0.47
    c = circuit.repeated_block_circuit(4, 1e-6, 1, HIDDEN_INVERSE)
    depol = channels.depolarizing_ptm(4, 0.87)
    probs = circuit.run_density(c, channel_map=circuit.channels_after_two_qubit(c, depol))
    assert abs(probs[0] - 0.47) < 0.01


def test_probability_normalization_with_channels(rng):
    c = circuit.repeated_block_circuit(3, 0.7, 2, HIDDEN_INVERSE)
    cm = circuit.channels_after_two_qubit(c, channels.depolarizing_ptm(3, 0.9))
    probs = circuit.run_density(c, NoiseModel(eps_2q=0.02), cm)
    assert abs(probs.sum() - 1.0) < 1e-10
    assert probs.min() > -1e-12


def test_ptm_pipeline_equals_density_pipeline(rng):
    for trial in range(5):
        gs = [gates.hadamard(rng.integers(2)), gates.cnot(0, 1),
              gates.rot1q(int(rng.integers(2)), float(rng.uniform(-np.pi, np.pi)), 0.3)]
        c = circuit.Circuit(2, gs)
        cm = {1: channels.depolarizing_ptm(2, float(rng.uniform(0.7, 1.0)))}
        nm = NoiseModel(eps_2q=0.02, phi_diff=0.01)
        a = circuit.run_density(c, nm, cm)
        b = circuit.run_ptm(c, nm, cm)
        assert np.abs(a - b).max() < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(noisy_circuits())
def test_ptm_and_density_pipelines_agree_on_random_circuits(case):
    c, nm, cm = case
    for channel_map in (None, cm):
        a = circuit.run_density(c, nm, channel_map)
        b = circuit.run_ptm(c, nm, channel_map)
        assert np.abs(a - b).max() < 1e-10
    psi = circuit.unitary_of(c, nm)[:, 0]
    assert np.abs(circuit.run_density(c, nm) - np.abs(psi) ** 2).max() < 1e-10


def test_cptp_check_runs_once_per_shared_ptm(monkeypatch):
    calls = []
    real = channels.choi_min_eigenvalue

    def counted(R):
        calls.append(R)
        return real(R)

    monkeypatch.setattr(channels, "choi_min_eigenvalue", counted)
    c = circuit.parity_controlled_z(4, 0.3)
    channel_map = circuit.channels_after_two_qubit(c, channels.depolarizing_ptm(4, 0.9))
    assert len(channel_map) == 6
    circuit.run_density(c, NoiseModel(eps_2q=0.02), channel_map)
    assert len(calls) == 1
    # the margin is cached on the PTM, so it outlives one simulator call
    channel_map[max(channel_map)] = channels.depolarizing_ptm(4, 0.8)
    circuit.run_density(c, NoiseModel(eps_2q=0.02), channel_map)
    circuit.run_ptm(c, NoiseModel(eps_2q=0.02), channel_map)
    assert len(calls) == 2 and calls[1] is channel_map[max(channel_map)]


def test_memoized_gate_ptm_is_read_only_and_the_realized_gates_ptm():
    nm = NoiseModel(eps_2q=0.02, eps_1q=0.01, phi_diff=0.05, delta_detune=0.01)
    for g in (gates.cnot(0, 1, INVERSE), gates.xx(1, 0, 0.7), gates.rot1q(0, 0.4, 0.2),
              gates.hadamard(1), *gates.pauli(0, "Y")):
        R = circuit._gate_ptm(g, nm)
        assert R is circuit._gate_ptm(g, nm)
        # memoized on what the gate is, not the qubits it sits on
        moved = Gate(g.kind, tuple(q + 2 for q in g.qubits), g.params, g.orientation)
        assert R is circuit._gate_ptm(moved, nm)
        assert not R.flags.writeable
        with pytest.raises(ValueError):
            R[0, 0] = 2.0
        assert np.array_equal(R, channels.ptm_of_unitary(gates.realize(g, nm)).mat)
    assert circuit._gate_ptm(gates.cnot(0, 3), nm) is circuit._gate_ptm(gates.cnot(2, 3), nm)


def test_memoized_gate_superop_is_read_only_and_the_realized_gates_u_kron_conj_u():
    nm = NoiseModel(eps_2q=0.02, eps_1q=0.01, phi_diff=0.05, delta_detune=0.01)
    for g in (gates.cnot(0, 1, INVERSE), gates.xx(1, 0, 0.7), gates.rot1q(0, 0.4, 0.2),
              gates.hadamard(1), gates.virtual_z(1, -0.3), *gates.pauli(0, "Y")):
        D = circuit._gate_superop(g, nm)
        moved = Gate(g.kind, tuple(q + 2 for q in g.qubits), g.params, g.orientation)
        assert D is circuit._gate_superop(g, nm) is circuit._gate_superop(moved, nm)
        assert not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = 2.0
        U = gates.realize(g, nm)
        K = np.kron(U, U.conj())
        assert D.dtype == K.dtype and np.array_equal(D, K)   # bitwise


def test_run_density_applies_one_operator_per_gate(monkeypatch):
    calls = []
    real = qmat.apply

    def counted(op, qubits, M, n):
        calls.append((op.shape, tuple(qubits), n))
        return real(op, qubits, M, n)

    monkeypatch.setattr(qmat, "apply", counted)
    c = circuit.repeated_block_circuit(3, 0.4, 2, HIDDEN_INVERSE)
    channel_map = circuit.channels_after_two_qubit(c, channels.depolarizing_ptm(3, 0.9))
    nm = NoiseModel(eps_2q=0.02, eps_1q=0.01)
    circuit.run_density(c, nm, channel_map)   # building each gate's unitary applies too
    calls.clear()
    circuit.run_density(c, nm, channel_map)
    assert channel_map and len(calls) == len(c.gates)
    # a gate's U (x) conj(U) on its row bits, then its column bits (n = 3)
    assert all(call == ((4 ** len(g.qubits),) * 2, g.qubits + tuple(3 + q for q in g.qubits), 6)
               for call, g in zip(calls, c.gates))


def test_each_attached_ptm_is_checked_once_and_every_index_is_range_checked(monkeypatch):
    calls = []
    real = channels.is_cptp

    def counted(R):
        calls.append(R)
        return real(R)

    monkeypatch.setattr(channels, "is_cptp", counted)
    c = circuit.parity_controlled_z(4, 0.3)
    shared, other = channels.depolarizing_ptm(4, 0.9), channels.depolarizing_ptm(4, 0.9)
    channel_map = circuit.channels_after_two_qubit(c, shared)
    channel_map[max(channel_map)] = other
    for run in (circuit.run_density, circuit.run_ptm):
        calls.clear()
        run(c, NoiseModel(eps_2q=0.02), channel_map)
        assert len(calls) == 2 and calls[0] is shared and calls[1] is other
    two = circuit.Circuit(2, [gates.cnot(0, 1), gates.hadamard(0)])
    good = channels.depolarizing_ptm(2, 0.9)
    for run in (circuit.run_density, circuit.run_ptm):
        with pytest.raises(ValueError, match="channel index 7 out of range"):
            run(two, gates.IDEAL, {0: good, 7: good})


def test_non_cptp_channel_reports_its_gate_index():
    c = circuit.parity_controlled_z(3, 0.3)  # CNOTs at gates 0, 1, 3, 4
    good = channels.depolarizing_ptm(3, 0.9)
    bad = channels.PTM(3, np.diag([1.0] + [1.5] * 63))  # trace preserving, not CP
    for run in (circuit.run_density, circuit.run_ptm):
        with pytest.raises(ValueError, match="channel at gate 3 is not CPTP"):
            run(c, gates.IDEAL, {0: good, 1: good, 3: bad, 4: bad})


# --- amplification property ------------------------------------------------------

def test_amplification_monotone_standard_flat_hidden():
    nm = NoiseModel(eps_2q=0.02)
    inf_std = []
    for reps in (1, 2, 3, 4, 5):
        cs = circuit.repeated_block_circuit(2, 0.0, reps, STANDARD)
        ch = circuit.repeated_block_circuit(2, 0.0, reps, HIDDEN_INVERSE)
        ideal_s = circuit.unitary_of(cs)
        fe = abs(np.trace(ideal_s.conj().T @ circuit.unitary_of(cs, nm))) ** 2 / 16
        inf_std.append(1 - fe)
        ideal_h = circuit.unitary_of(ch)
        fe_h = abs(np.trace(ideal_h.conj().T @ circuit.unitary_of(ch, nm))) ** 2 / 16
        assert 1 - fe_h < 1e-8
    assert all(a < b for a, b in zip(inf_std, inf_std[1:]))


# --- phase-misalignment ordering ----------------------------------------------

def misalignment_margins(n, phi_deg):
    nm = NoiseModel(phi_diff=np.deg2rad(phi_deg))
    grid = np.linspace(-np.pi, np.pi, 41)
    std, hid = both_orientation_lists(n)
    margins = []
    for theta in grid:
        ideal = parity_target(n, theta)
        fh = abs(np.trace(ideal.conj().T @ circuit.unitary_of(
            circuit.parity_controlled_z(n, theta, hid), nm))) ** 2 / 4**n
        fs = abs(np.trace(ideal.conj().T @ circuit.unitary_of(
            circuit.parity_controlled_z(n, theta, std), nm))) ** 2 / 4**n
        margins.append(fh - fs)
    return grid, np.array(margins)


@pytest.mark.parametrize("n", [2, 4])
def test_misalignment_ordering_holds_on_interior(n):
    # hidden >= standard everywhere except the theta=+/-pi endpoints, where
    # the ordering reverses at fourth order in the misalignment
    grid, margins = misalignment_margins(n, 3.5)
    interior = np.abs(np.abs(grid) - np.pi) > 1e-9
    assert np.all(margins[interior] >= -1e-9)
    phi = np.deg2rad(3.5)
    endpoint = margins[np.abs(np.abs(grid) - np.pi) <= 1e-9]
    assert np.all(endpoint < 0)
    assert np.all(np.abs(endpoint) < (n - 1) * 2 * phi**4)


def test_misalignment_endpoint_reversal_scales_as_fourth_power():
    vals = []
    for phi_deg in (1.0, 2.0, 4.0):
        grid, margins = misalignment_margins(2, phi_deg)
        vals.append(-margins[0])  # theta = -pi
    # quartic scaling: doubling phi multiplies the reversal by ~16
    assert 14 < vals[1] / vals[0] < 18
    assert 14 < vals[2] / vals[1] < 18


# --- serialization -----------------------------------------------------------------

def test_text_round_trip(tmp_path, rng):
    c = circuit.Circuit(3, [
        gates.hadamard(0),
        gates.cnot(0, 2, INVERSE),
        gates.virtual_z(2, 0.30000000000000004),
        gates.xx(1, 2, -np.pi / 4, 0.1, -0.2),
        gates.rot1q(1, 1e-17, 2.0),
    ] + gates.pauli(0, "Y"))
    assert circuit.from_text(circuit.to_text(c)) == c
    path = tmp_path / "c.circ"
    circuit.write_file(c, path)
    assert circuit.read_file(path) == c


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(noisy_circuits())
@example((circuit.Circuit(1, [gates.rot1q(0, np.nextafter(-2 * np.pi, 0.0), 0.5)]),
          gates.IDEAL, {}))
def test_text_round_trip_on_random_circuits(case):
    c = case[0]
    assert circuit.from_text(circuit.to_text(c)) == c


PARSED = [
    ("rot1q 1 0.5 -0.25", gates.rot1q(1, 0.5, -0.25)),
    ("rot1q 0 7.0 1", gates.rot1q(0, 7.0, 1.0)),   # wrapped into (-2 pi, 2 pi]
    ("virtual_z 1 -0.3", gates.virtual_z(1, -0.3)),
    ("xx 0 1 0.5", gates.xx(0, 1, 0.5)),
    ("xx 1 0 -0.5 0.1 0.2", gates.xx(1, 0, -0.5, 0.1, 0.2)),
    ("hadamard 1", gates.hadamard(1)),
    ("cnot 0 1", gates.cnot(0, 1)),
    ("cnot 1 0 inverse", gates.cnot(1, 0, INVERSE)),
    *((f"pauli_{p} 1", *gates.pauli(1, p)) for p in "xyz"),
]


@pytest.mark.parametrize("line, gate", PARSED, ids=[line for line, _ in PARSED])
def test_parser_builds_each_kind_through_its_builder(line, gate):
    assert circuit.from_text(f"qubits 2\n{line}\n").gates == (gate,)


def test_parser_cases_cover_every_kind():
    assert {g.kind for _, g in PARSED} == set(gates.BUILDERS) == set(circuit._ARITY) - {"qubits"}


@pytest.mark.parametrize("text, message", [
    ("qubits 2\nvirtual_z 1 inf\n", "line 2: angle must be finite"),
    ("qubits 2\nvirtual_z 1 nan\n", "line 2: angle must be finite"),
    ("qubits 2\nrot1q 0 0.5 -inf\n", "line 2: angle must be finite"),
    ("qubits 2\nxx 0 1 0.5 nan 0.0\n", "line 2: angle must be finite"),
    ("qubits 2\nhadamard 0 1\n", "line 2: hadamard takes 1 argument(s), got 2"),
    ("qubits 2\nvirtual_z 0 0.1 0.2\n", "line 2: virtual_z takes 2 argument(s), got 3"),
    ("qubits 2\nxx 0 1 0.5 0.0\n", "line 2: xx takes 3 or 5 argument(s), got 4"),
    ("qubits 2\ncnot 0 1 inverse 7\n", "line 2: cnot takes 2 or 3 argument(s), got 4"),
    ("qubits 2\n# comment\nqubits 3\n", "line 3: second 'qubits' header"),
    ("qubits 2\nfoo 0\n", "line 2: unknown gate kind 'foo'"),
    ("qubits 2\ncnot 1 1\n", "line 2: duplicate qubit indices in (1, 1)"),
])
def test_parser_rejects_malformed_lines(text, message):
    with pytest.raises(circuit.CircuitParseError) as ei:
        circuit.from_text(text)
    assert str(ei.value) == message


def test_parse_error_reports_line():
    with pytest.raises(circuit.CircuitParseError) as ei:
        circuit.from_text("qubits 2\ncnot 0\n")
    assert "line 2" in str(ei.value)
    with pytest.raises(circuit.CircuitParseError):
        circuit.from_text("cnot 0 1\n")  # missing header
