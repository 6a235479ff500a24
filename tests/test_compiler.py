import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hinv import analytics, channels, circuit, compiler, gates
from hinv.analytics import MINUS, PLUS
from hinv.compiler import OrientationRule
from hinv.gates import INVERSE, STANDARD, NoiseModel

from conftest import noisy_circuits, parity_target, phase_overlap, rotation, xx_unitary


# --- site detection -----------------------------------------------------------

def test_single_conjugation_site():
    c = circuit.parity_controlled_z(2, 0.3)
    sites = compiler.find_hidden_inverse_sites(c)
    assert len(sites) == 1
    assert (sites[0].left_index, sites[0].right_index) == (0, 2)
    assert abs(sites[0].enclosed_angle - 0.3) < 1e-12


def test_nested_ladder_sites():
    theta = 0.7
    c = circuit.parity_controlled_z(4, theta)
    sites = compiler.find_hidden_inverse_sites(c)
    assert len(sites) == 3
    # structural oracle: gates are [C0 C1 C2 Z C2' C1' C0']; pairs nest
    assert {(s.left_index, s.right_index) for s in sites} == {(0, 6), (1, 5), (2, 4)}
    assert all(abs(s.enclosed_angle - theta) < 1e-12 for s in sites)
    # no gate participates in two sites
    used = [i for s in sites for i in (s.left_index, s.right_index)]
    assert len(used) == len(set(used))


def test_lone_cnot_yields_no_site():
    c = circuit.Circuit(2, [gates.cnot(0, 1), gates.virtual_z(1, 0.4)])
    assert compiler.find_hidden_inverse_sites(c) == []


def test_adjacent_cnot_pair_without_witness_is_not_a_site():
    c = circuit.Circuit(2, [gates.cnot(0, 1), gates.cnot(0, 1)])
    assert compiler.find_hidden_inverse_sites(c) == []


def test_repetition_boundaries_pair_greedily():
    c = circuit.repeated_block_circuit(2, 0.3, 3, STANDARD)
    sites = compiler.find_hidden_inverse_sites(c)
    assert len(sites) == 3
    # each site sits inside one repetition, never across the boundary
    for s in sites:
        assert s.right_index - s.left_index == 2
        assert abs(s.enclosed_angle - 0.3) < 1e-12


# --- orientation rule -----------------------------------------------------------

def test_rule_small_angle_inverts():
    c, _ = compiler.apply_orientation_rule(circuit.parity_controlled_z(2, 0.3))
    assert [g.orientation for g in c.gates if g.kind == "cnot"] == [STANDARD, INVERSE]


def test_rule_large_angle_keeps_standard():
    c, _ = compiler.apply_orientation_rule(circuit.parity_controlled_z(2, 2.0))
    assert [g.orientation for g in c.gates if g.kind == "cnot"] == [STANDARD, STANDARD]


def test_rule_boundary_is_inclusive():
    c, _ = compiler.apply_orientation_rule(circuit.parity_controlled_z(2, np.pi / 2))
    assert [g.orientation for g in c.gates if g.kind == "cnot"] == [STANDARD, INVERSE]


def test_rule_threshold_validation():
    with pytest.raises(ValueError):
        OrientationRule(0.0)
    with pytest.raises(ValueError):
        OrientationRule(3.5)


def test_rule_preserves_noiseless_unitary():
    for theta in (0.3, 2.0, -1.1):
        c = circuit.parity_controlled_z(3, theta)
        cc, sites = compiler.apply_orientation_rule(c)
        assert sites == compiler.find_hidden_inverse_sites(c)
        assert phase_overlap(circuit.unitary_of(c), circuit.unitary_of(cc)) > 1 - 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rule_optimality_on_closed_form(n):
    # the selected orientation achieves max(F_plus, F_minus) at every theta
    eps = 0.02
    rule = OrientationRule()
    for theta in np.linspace(-np.pi, np.pi, 41):
        fp = analytics.closed_form_fe(theta, eps, n, PLUS)
        fm = analytics.closed_form_fe(theta, eps, n, MINUS)
        chosen = fp if rule.pick_inverse(theta) else fm
        assert chosen >= max(fp, fm) - 1e-12


# --- randomized compiling ---------------------------------------------------------

def test_rc_preserves_unitary_and_is_deterministic():
    c = circuit.parity_controlled_z(2, 0.7)
    U = circuit.unitary_of(c)
    for seed in range(20):
        t = compiler.randomized_compile(c, seed)
        assert phase_overlap(U, circuit.unitary_of(t)) > 1 - 1e-10
    assert compiler.randomized_compile(c, 7) == compiler.randomized_compile(c, 7)
    assert compiler.randomized_compile(c, 7) != compiler.randomized_compile(c, 8)


def test_rc_frame_correction_table():
    # CNOT conjugation: X on control spreads to target, Z on target to control
    assert compiler._cnot_frame("X", "I") == ("X", "X")
    assert compiler._cnot_frame("I", "Z") == ("Z", "Z")
    assert compiler._cnot_frame("I", "X") == ("I", "X")
    assert compiler._cnot_frame("Z", "I") == ("Z", "I")
    assert compiler._cnot_frame("Y", "Y") == ("X", "Z")


def test_rc_twirls_toward_pauli_channel():
    # ensemble-averaged PTM is far closer to diagonal than the bare channel
    nm = NoiseModel(delta_detune=0.01)
    c = circuit.parity_controlled_z(2, 0.6)
    ideal = circuit.unitary_of(c)
    Rn = channels.ptm_of_unitary(circuit.unitary_of(c, nm)).mat
    Ri = channels.ptm_of_unitary(ideal).mat
    bare_err = Ri.T @ Rn           # error channel of the bare circuit
    acc = np.zeros_like(Rn)
    for seed in range(100):
        t = compiler.randomized_compile(c, 3000 + seed)
        Rt = channels.ptm_of_unitary(circuit.unitary_of(t, nm)).mat
        Rti = channels.ptm_of_unitary(circuit.unitary_of(t)).mat
        acc += Rti.T @ Rt
    twirled_err = acc / 100
    offdiag = lambda M: np.abs(M - np.diag(np.diag(M))).sum()
    assert offdiag(bare_err) / offdiag(twirled_err) >= 10.0


@pytest.mark.parametrize("nm", [NoiseModel(eps_2q=0.02, eps_1q=0.002),
                                NoiseModel(delta_detune=0.01)], ids=["overrotation", "detuning"])
@pytest.mark.parametrize("n", [2, 3])
def test_rc_seeded_mean_is_the_exact_twirl_mean(n, nm):
    # every twirled circuit keeps the unitary even if the twirl is biased or
    # incomplete; only the distribution of the twirls moves this mean.  At
    # this angle and seed count a twirl over I and Z only misses by > 4 standard
    # errors in all four cases (a subtler bias can stay inside the bound)
    theta, seeds = 1.5, 1000
    base = circuit.parity_controlled_z(n, theta)
    target = parity_target(n, theta)
    fe = np.array([analytics.entanglement_fidelity(
        target, circuit.unitary_of(compiler.randomized_compile(base, s), nm))
        for s in range(seeds)])
    stderr = fe.std(ddof=1) / np.sqrt(seeds)
    exact = compiler.twirled_ladder_fidelity(n, theta, nm=nm)
    assert stderr > 0 and abs(fe.mean() - exact) <= 4 * stderr


# --- SK1 ---------------------------------------------------------------------------

def test_sk1_single_qubit_identity():
    g = gates.rot1q(0, np.pi / 2, 0.0)
    seq = compiler.sk1_expand(g)
    assert len(seq) == 3
    prod = np.eye(2, dtype=complex)
    for h in seq:
        prod = gates.realize(h) @ prod
    assert phase_overlap(prod, rotation(np.pi / 2, 0.0)) > 1 - 1e-10


def test_sk1_two_qubit_identity_and_duration():
    g = gates.xx(0, 1, np.pi / 4)
    seq = compiler.sk1_expand(g)
    assert len(seq) == 3
    prod = np.eye(4, dtype=complex)
    for h in seq:
        prod = gates.realize(h) @ prod
    assert phase_overlap(prod, xx_unitary(np.pi / 4)) > 1 - 1e-10
    # two additional pi-generator MS pulses
    assert [abs(h.params[0]) for h in seq[1:]] == [np.pi, np.pi]


def test_sk1_two_qubit_loops_shift_the_first_phase():
    g = gates.xx(1, 0, 0.3, 0.4, -0.7)
    phi1 = gates.sk1_phase(0.6)   # spin angle 2 theta
    seq = compiler.sk1_expand(g)
    assert seq == [g, gates.xx(1, 0, np.pi, 0.4 + phi1, -0.7),
                   gates.xx(1, 0, np.pi, 0.4 - phi1, -0.7)]
    assert phase_overlap(gates.product(seq, 2, gates.IDEAL),
                         gates.product([g], 2, gates.IDEAL)) > 1 - 1e-10


def fit_slope(eps_grid, infidelities):
    return np.polyfit(np.log(eps_grid), np.log(infidelities), 1)[0]


def infidelity_under_overrotation(target_gate, seq, eps):
    nm = NoiseModel(eps_1q=eps, eps_2q=eps)
    dim = 2 ** len(target_gate.qubits)
    ideal = gates.realize(target_gate)
    prod = np.eye(dim, dtype=complex)
    for h in seq:
        prod = gates.realize(h, nm) @ prod
    return 1 - analytics.entanglement_fidelity(ideal, prod)


@pytest.mark.parametrize("target", [gates.rot1q(0, np.pi / 2, 0.0),
                                    gates.xx(0, 1, np.pi / 4)])
def test_sk1_suppression_slopes(target):
    eps_grid = np.logspace(-3, np.log10(3e-2), 9)
    sk1 = compiler.sk1_expand(target)
    inf_sk1 = [infidelity_under_overrotation(target, sk1, e) for e in eps_grid]
    inf_raw = [infidelity_under_overrotation(target, [target], e) for e in eps_grid]
    assert abs(fit_slope(eps_grid, inf_sk1) - 4.0) < 0.5
    assert abs(fit_slope(eps_grid, inf_raw) - 2.0) < 0.2


def test_sk1_rejects_oversized_angle():
    # canonicalized constructors cannot exceed the limit; a raw gate can
    raw = gates.Gate("xx", (0, 1), (2.5 * np.pi, 0.0, 0.0))
    with pytest.raises(ValueError):
        compiler.sk1_expand(raw)  # spin angle 5 pi > 4 pi
    with pytest.raises(ValueError):
        compiler.sk1_expand(gates.cnot(0, 1))


# --- circuit-level passes ------------------------------------------------------------

def test_flatten_composites_preserves_unitary():
    c = circuit.repeated_block_circuit(2, 0.4, 2, circuit.HIDDEN_INVERSE)
    flat = compiler.flatten_composites(c)
    assert all(g.kind not in ("cnot", "hadamard") for g in flat.gates)
    assert phase_overlap(circuit.unitary_of(c), circuit.unitary_of(flat)) > 1 - 1e-10


def test_sk1_compile_preserves_unitary():
    c = circuit.parity_controlled_z(2, 0.9)
    out = compiler.sk1_compile(c)
    assert phase_overlap(circuit.unitary_of(c), circuit.unitary_of(out)) > 1 - 1e-10
    # every driven rotation became three
    n_driven = sum(1 for g in compiler.flatten_composites(c).gates
                   if g.kind in ("rot1q", "xx"))
    assert sum(1 for g in out.gates if g.kind in ("rot1q", "xx")) == 3 * n_driven


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(noisy_circuits(), st.integers(0, 2**32 - 1))
@example((circuit.repeated_block_circuit(3, 0.7, 2, STANDARD), gates.IDEAL, {}), 5)
def test_every_pass_keeps_the_noiseless_unitary(case, seed):
    c = case[0]
    U = circuit.unitary_of(c)
    for out in (compiler.apply_orientation_rule(c)[0], compiler.randomized_compile(c, seed),
                compiler.sk1_compile(c)):
        assert phase_overlap(U, circuit.unitary_of(out)) > 1 - 1e-10
