import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv

from hinv import channels, gates, lindblad, qmat
from hinv.lindblad import LindbladSpec, ModeSpec, Segment

from conftest import (I2, SX, dense_evolve, dense_gate_channel, evolve, frame_evolve,
                      kron_chain, xx_unitary)


DELTA = 2 * np.pi * 20e3
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_calibrated_gate_is_xx_quarter():
    spec = lindblad.xx_gate_spec(delta=DELTA)
    R = lindblad.ms_gate_channel(spec)
    ideal = channels.ptm_of_unitary(xx_unitary(np.pi / 4))
    assert channels.avg_fidelity_from_ptm(R, ideal) > 1 - 1e-6
    assert np.abs(R.mat - ideal.mat).max() < 1e-4


def test_spin_phase_convention():
    # spin phases (pi/2, 0) rotate the first ion's axis to Y
    spec = lindblad.xx_gate_spec(delta=DELTA, spin_phases=(np.pi / 2, 0.0))
    R = lindblad.ms_gate_channel(spec)
    ideal = channels.ptm_of_unitary(xx_unitary(np.pi / 4, phase_a=np.pi / 2))
    assert channels.avg_fidelity_from_ptm(R, ideal) > 1 - 1e-6


@pytest.mark.parametrize("noise", [dict(gamma_heat=600.0, tau_m=2e-3, tau_l=5e-3),
                                   dict(mode_nbar=0.3)], ids=["dissipators", "thermal"])
def test_both_sk1_loops_are_the_zero_phase_loop_in_z_rotated_frames(noise):
    kw = dict(delta=DELTA, n_fock=4, amp_scale=1.01, **noise)
    phi1 = gates.sk1_phase(np.pi / 2)
    loop = lindblad.ms_gate_channel(lindblad.sk1_pulse_specs(np.pi / 4, **kw)[1])
    for phase in (phi1, -phi1):
        direct = lindblad.ms_gate_channel(
            lindblad.xx_gate_spec(np.pi, loops=4, spin_phases=(phase, 0.0), **kw))
        assert np.abs(lindblad.sk1_loop(loop, phase).mat - direct.mat).max() <= 1e-12
        # the frame rotation is by +phase: the opposite sign gives another channel
        assert np.abs(lindblad.sk1_loop(loop, -phase).mat - direct.mat).max() > 1e-3


def test_noiseless_evolution_matches_closed_system_propagator():
    # with balanced tones and closed loops the propagator is analytically
    # XX(pi/4) (x) I_mode (the Magnus series terminates)
    spec = lindblad.xx_gate_spec(delta=DELTA)
    nf = spec.n_fock
    psi = np.zeros(4 * nf, dtype=complex)
    psi[0] = 1.0  # |00, n=0>
    rho = np.outer(psi, psi.conj())
    out = evolve(rho, spec)
    want = kron_chain(xx_unitary(np.pi / 4), np.eye(nf)) @ psi
    fid = float(np.real(want.conj() @ out @ want))
    assert fid > 1 - 1e-8
    assert abs(np.trace(out) - 1.0) < 1e-8


def test_heating_thermalization_rate():
    # H = 0, heating only: d<n>/dt = Gamma while far from truncation
    gamma = 2000.0
    T = 50e-6
    spec = LindbladSpec(omega_r=(0.0, 0.0), omega_b=(0.0, 0.0),
                        phi_r=(0.0, 0.0), phi_b=(0.0, 0.0),
                        modes=(ModeSpec(eta=(0.1, 0.1)),),
                        segments=(Segment(T, DELTA),),
                        gamma_heat=gamma, n_fock=13)
    nf = spec.n_fock
    rho0 = np.zeros((4 * nf, 4 * nf), dtype=complex)
    rho0[0, 0] = 1.0
    out = evolve(rho0, spec)
    num = kron_chain(np.eye(4), np.diag(np.arange(nf, dtype=float)))
    nbar = float(np.real(np.trace(num @ out)))
    assert abs(nbar - gamma * T) < gamma * T * 0.01


def test_laser_dephasing_rates():
    # collective sigma_z dephasing: |00><11| decays at 8/tau_l, the
    # zero-eigenvalue coherence |01><10| is decoherence free
    tau_l = 1e-3
    T = 50e-6
    spec = LindbladSpec(omega_r=(0.0, 0.0), omega_b=(0.0, 0.0),
                        phi_r=(0.0, 0.0), phi_b=(0.0, 0.0),
                        modes=(ModeSpec(eta=(0.1, 0.1)),),
                        segments=(Segment(T, DELTA),),
                        tau_l=tau_l, n_fock=3)
    nf = spec.n_fock
    mode0 = np.zeros((nf, nf), dtype=complex)
    mode0[0, 0] = 1.0

    def evolve_coherence(i, j):
        spin = np.zeros((4, 4), dtype=complex)
        spin[i, i] = spin[j, j] = 0.5
        spin[i, j] = spin[j, i] = 0.5
        rho = np.kron(spin, mode0)
        out = evolve(rho, spec)
        return np.einsum("afbf->ab", out.reshape(4, nf, 4, nf))[i, j]

    c_0011 = evolve_coherence(0, 3)
    assert abs(c_0011 - 0.5 * math.exp(-8.0 * T / tau_l)) < 1e-6
    c_0110 = evolve_coherence(1, 2)
    assert abs(c_0110 - 0.5) < 1e-9
    c_0001 = evolve_coherence(0, 1)
    assert abs(c_0001 - 0.5 * math.exp(-2.0 * T / tau_l)) < 1e-6


def test_motional_dephasing_damps_parity():
    # with motional dephasing on, the noiseless-limit fidelity degrades
    base = lindblad.xx_gate_spec(delta=DELTA)
    noisy = lindblad.xx_gate_spec(delta=DELTA, tau_m=2e-3)
    ideal = channels.ptm_of_unitary(xx_unitary(np.pi / 4))
    f0 = channels.avg_fidelity_from_ptm(lindblad.ms_gate_channel(base), ideal)
    f1 = channels.avg_fidelity_from_ptm(lindblad.ms_gate_channel(noisy), ideal)
    assert f1 < f0 - 1e-4


def test_ptm_trace_preservation_and_cptp():
    spec = lindblad.xx_gate_spec(delta=DELTA, gamma_heat=500.0, tau_l=5e-3)
    R = lindblad.ms_gate_channel(spec)
    e1 = np.zeros(16)
    e1[0] = 1.0
    assert np.abs(R.mat[0] - e1).max() < 1e-8
    assert channels.choi_min_eigenvalue(R) >= -1e-6


def test_amplitude_scale_overrotates_quadratically():
    eps = 0.02
    spec = lindblad.xx_gate_spec(delta=DELTA, amp_scale=1 + eps)
    R = lindblad.ms_gate_channel(spec)
    angle = np.pi / 4 * (1 + eps) ** 2
    ideal = channels.ptm_of_unitary(xx_unitary(angle))
    assert channels.avg_fidelity_from_ptm(R, ideal) > 1 - 1e-6


def test_multimode_sequential_evolution():
    base = lindblad.xx_gate_spec(delta=DELTA)
    # an idle far-detuned spectator mode barely changes the gate
    spec = LindbladSpec(omega_r=base.omega_r, omega_b=base.omega_b,
                        phi_r=base.phi_r, phi_b=base.phi_b,
                        modes=(base.modes[0], ModeSpec(eta=(0.002, 0.002),
                                                       offset=2 * np.pi * 300e3)),
                        segments=base.segments, n_fock=7)
    R = lindblad.ms_gate_channel(spec)
    ideal = channels.ptm_of_unitary(xx_unitary(np.pi / 4))
    assert channels.avg_fidelity_from_ptm(R, ideal) > 1 - 1e-4


def test_thermal_mode_state():
    spec = lindblad.xx_gate_spec(delta=DELTA, mode_nbar=0.2, n_fock=13)
    st = lindblad.mode_state(spec)
    assert abs(np.trace(st) - 1.0) < 1e-12
    nbar = float(np.real(np.trace(np.diag(np.arange(13)) @ st)))
    assert abs(nbar - 0.2) < 1e-3


def test_spec_json_round_trip(tmp_path):
    spec = lindblad.xx_gate_spec(delta=DELTA, gamma_heat=100.0)
    d = lindblad.spec_to_dict(spec)
    back = lindblad.spec_from_dict(d)
    assert back == spec
    import json
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"calibrate": {"delta": DELTA, "loops": 2}}))
    cal = lindblad.load_spec(path)
    assert cal.segments[0].delta == DELTA
    assert abs(cal.total_time - 2 * 2 * np.pi / DELTA) < 1e-12


def test_spec_validation():
    for bad in (-1.0, 0.0):
        with pytest.raises(ValueError, match=f"^duration must be > 0, got {bad!r}$"):
            Segment(bad, DELTA)
    with pytest.raises(ValueError):
        lindblad.xx_gate_spec(n_fock=1)
    with pytest.raises(ValueError):
        LindbladSpec(omega_r=(0, 0), omega_b=(0, 0), phi_r=(0, 0), phi_b=(0, 0),
                     modes=(), segments=(Segment(1e-5, DELTA),))
    # one refusal per field, naming it and its value
    for key, bad, message in [("tau_m", math.nan, "tau_m must be > 0, got nan"),
                              ("tau_l", math.nan, "tau_l must be > 0, got nan"),
                              ("tau_m", 0.0, "tau_m must be > 0, got 0.0"),
                              ("tau_l", -1.0, "tau_l must be > 0, got -1.0"),
                              ("gamma_heat", -1e-9, "gamma_heat must be >= 0, got -1e-09"),
                              ("mode_nbar", -0.5, "mode_nbar must be >= 0, got -0.5")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            lindblad.xx_gate_spec(**{key: bad})
    for key in ("gamma_heat", "mode_nbar"):   # the bound itself is allowed
        lindblad.xx_gate_spec(n_fock=3, **{key: 0.0})
    for key, bad in [("loops", True), ("loops", -1), ("delta", math.nan),
                     ("delta", -DELTA), ("spin_phases", (0.0, 0.0, 0.0))]:
        with pytest.raises(ValueError, match=key):
            lindblad.xx_gate_spec(**{key: bad})


def _fm_spec(**kw):
    base = lindblad.xx_gate_spec(delta=DELTA)
    return LindbladSpec(omega_r=base.omega_r, omega_b=base.omega_b, phi_r=base.phi_r,
                        phi_b=base.phi_b, modes=base.modes,
                        segments=(Segment(base.total_time, DELTA),
                                  Segment(1.25 * base.total_time, 0.8 * DELTA)), **kw)


def _two_mode_spec(**kw):
    base = lindblad.xx_gate_spec(delta=DELTA)
    return LindbladSpec(omega_r=(1.1 * base.omega_r[0], base.omega_r[1]),
                        omega_b=base.omega_b, phi_r=(0.3, -1.0), phi_b=(0.1, 0.7),
                        modes=(base.modes[0],
                               ModeSpec(eta=(0.05, 0.07), offset=2 * np.pi * 30e3)),
                        segments=base.segments,
                        stark=(2 * np.pi * 1e3, -2 * np.pi * 2e3), **kw)


# Small specs (n_fock 3-5) covering every term of the structured operator.
# Heating at n_fock = 3 populates the top Fock level, where the truncated
# a a^dag differs from n + 1.
ORACLE_CASES = {
    "closed": lindblad.xx_gate_spec(delta=DELTA, n_fock=4),
    "heating": lindblad.xx_gate_spec(delta=DELTA, n_fock=3, gamma_heat=3000.0),
    "tau_m": lindblad.xx_gate_spec(delta=DELTA, n_fock=4, tau_m=2e-4),
    "tau_l": lindblad.xx_gate_spec(delta=DELTA, n_fock=3, tau_l=5e-4),
    "all_three": lindblad.xx_gate_spec(delta=DELTA, n_fock=4, gamma_heat=3000.0,
                                       tau_m=2e-4, tau_l=5e-4),
    "fm_two_segments": _fm_spec(n_fock=4, gamma_heat=1000.0, tau_m=1e-3),
    "two_modes_stark": _two_mode_spec(n_fock=4, tau_l=1e-3, gamma_heat=500.0),
    "thermal_mode": lindblad.xx_gate_spec(delta=DELTA, n_fock=5, mode_nbar=0.3,
                                          gamma_heat=2000.0),
    # an SK1 loop at nu T = 45, split into three equal actions
    "split_actions": lindblad.sk1_pulse_specs(np.pi / 4, delta=DELTA, n_fock=4,
                                              gamma_heat=3000.0, tau_m=2e-4, tau_l=5e-4)[1],
}


@pytest.mark.parametrize("spec", ORACLE_CASES.values(), ids=ORACLE_CASES)
def test_structured_rhs_matches_dense_oracle(spec):
    assert np.abs(lindblad.ms_gate_channel(spec).mat - dense_gate_channel(spec)).max() < 1e-12
    # the Hermitian parts of |00><11| (x) |0><0| and of a generic complex
    # matrix evolve as the dense oracle does
    nf = spec.n_fock
    corner = np.zeros((4 * nf, 4 * nf), dtype=complex)
    corner[0, 3 * nf] = 1.0
    rng = np.random.default_rng(7)
    generic = rng.standard_normal(corner.shape) + 1j * rng.standard_normal(corner.shape)
    for M in (corner, generic / np.abs(np.trace(generic))):
        rho0 = (M + M.conj().T) / 2
        assert np.abs(evolve(rho0, spec) - frame_evolve(rho0, spec, 0)).max() < 1e-12


@pytest.mark.parametrize("spec", ORACLE_CASES.values(), ids=ORACLE_CASES)
def test_each_parity_part_matches_dense_oracle(spec):
    # XX (x) thermal is purely Pi-even, XI (x) thermal purely odd, and zero has no part
    nf = spec.n_fock
    thermal = np.diag(0.4 ** np.arange(nf) * 0.6)
    zero = np.zeros((4 * nf, 4 * nf))
    for rho0 in (kron_chain(SX, SX, thermal), kron_chain(SX, I2, thermal), zero):
        assert np.abs(evolve(rho0, spec) - frame_evolve(rho0, spec, 0)).max() < 1e-12
    assert not evolve(zero, spec).any()


def test_pairing_same_parity_parts_changes_no_output():
    # an open round evolves same-parity parts two at a time, as one M = A + iB: every
    # channel on, unequal Stark shifts (so 16 inputs) and a thermal mode, and beside the
    # 16 Pauli inputs (8 even, 8 odd) a generic matrix, so each parity has 9 parts and
    # one is left alone; evolved together or each alone, the outputs agree
    spec = dataclasses.replace(
        lindblad.xx_gate_spec(delta=DELTA, n_fock=5, gamma_heat=2000.0, tau_m=2e-3,
                              tau_l=5e-3, mode_nbar=0.2), stark=(0.0, 2 * np.pi * 1e3))
    mode, D = lindblad.mode_state(spec), 4 * spec.n_fock
    a, b = np.random.default_rng(5).standard_normal((2, D, D))
    generic = (a + a.T + 1j * (b - b.T)) / D
    rhos = np.array([np.kron(P, mode) for P in qmat.pauli_basis(2)] + [generic])
    together = lindblad._evolve_batch(rhos, spec, 0)
    assert np.abs(together - [evolve(rho, spec) for rho in rhos]).max() <= 1e-14


def _random_spec(rng):
    """Two FM segments, two modes with offsets, Stark shifts, all three channels, nbar > 0."""
    delta = 2 * np.pi * rng.uniform(15e3, 40e3)
    two = lambda lo, hi: tuple(rng.uniform(lo, hi, 2))
    return LindbladSpec(omega_r=two(2e5, 4e5), omega_b=two(2e5, 4e5),
                        phi_r=two(-np.pi, np.pi), phi_b=two(-np.pi, np.pi),
                        modes=tuple(ModeSpec(eta=two(0.03, 0.12),
                                             offset=2 * np.pi * rng.uniform(-30e3, 30e3))
                                    for _ in range(2)),
                        segments=tuple(Segment(2 * np.pi / d * rng.uniform(0.5, 1.5), d)
                                       for d in (delta, delta * rng.uniform(0.6, 1.4))),
                        stark=two(-2 * np.pi * 3e3, 2 * np.pi * 3e3),
                        tau_m=rng.uniform(5e-4, 5e-3), gamma_heat=rng.uniform(100.0, 3000.0),
                        tau_l=rng.uniform(5e-4, 5e-3), n_fock=int(rng.integers(3, 6)),
                        mode_nbar=rng.uniform(0.05, 0.3))


@pytest.mark.parametrize("seed", range(6))
def test_random_two_segment_two_mode_specs_match_dense_oracle(seed):
    spec = _random_spec(np.random.default_rng([2011, seed]))
    assert np.abs(lindblad.ms_gate_channel(spec).mat - dense_gate_channel(spec)).max() < 1e-12


def test_frame_oracle_matches_lab_frame_rk4():
    # the oracle's frame algebra against RK4 on H(t) with its tone phases: a
    # mode offset, Stark shifts and two segments, with steps that meet the segment
    # boundary, so the error falls 16x per halving
    spec = dataclasses.replace(ORACLE_CASES["two_modes_stark"], n_fock=3, tau_m=1e-3,
                               segments=ORACLE_CASES["fm_two_segments"].segments)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho0 = (M + M.conj().T)[None] / 2
    exact = frame_evolve(rho0, spec, 1)
    coarse, fine = (np.abs(dense_evolve(rho0, spec, 1, n) - exact).max() for n in (180, 360))
    assert fine < 1e-7 and 14 < coarse / fine < 18


def test_long_action_matches_dense_oracle():
    # a 4-loop SK1 pulse driven 6x harder: one Chebyshev action with R = 361, all
    # three channels on
    spec = lindblad.sk1_pulse_specs(np.pi / 4, delta=DELTA, n_fock=4, amp_scale=6.0,
                                    gamma_heat=200.0, tau_m=5e-3, tau_l=1e-2)[1]
    (_, _, R, N, steps), = lindblad._frame_generator(spec, 0)[3]
    assert steps == 1 and 350 < R < 370 and N == 484
    # at the same n_fock, the SK1 loop with strong dissipation is split in three
    assert lindblad._frame_generator(ORACLE_CASES["split_actions"], 0)[3][0][4] == 3
    assert np.abs(lindblad.ms_gate_channel(spec).mat - dense_gate_channel(spec)).max() < 1e-12


def test_zero_generator_is_the_identity():
    # no drive, no detuning, no Stark shift, no dissipation: R = 0 and degree 0
    spec = LindbladSpec(omega_r=(0.0, 0.0), omega_b=(0.0, 0.0), phi_r=(0.0, 0.0),
                        phi_b=(0.0, 0.0), modes=(ModeSpec(eta=(0.1, 0.1)),),
                        segments=(Segment(1e-4, 0.0),), n_fock=3)
    (_, _, R, N, _), = lindblad._frame_generator(spec, 0)[3]
    assert R == 0 and N == 0
    assert np.array_equal(lindblad.ms_gate_channel(spec).mat, np.eye(16))


# a closed round takes the series of U = e^(-iHt) on H; tau_m = 1e30 gives the same
# pulse nonzero dissipator weights, so the Liouvillian series, at a physical difference
# of 1e-30
CLOSED_CASES = {
    "calibrated": lindblad.xx_gate_spec(),
    "fm_two_segments": _fm_spec(),
    "two_modes_stark": _two_mode_spec(),   # 16 inputs, with odd parts
}


@pytest.mark.parametrize("spec", CLOSED_CASES.values(), ids=CLOSED_CASES)
def test_closed_propagator_matches_the_liouvillian_series(spec):
    vanishing = dataclasses.replace(spec, tau_m=1e30)
    assert all(weights is None for _, weights, *_ in spec._rounds)
    assert all(weights is not None for _, weights, *_ in vanishing._rounds)
    closed, series = (lindblad.ms_gate_channel(s).mat for s in (spec, vanishing))
    assert np.abs(closed - series).max() <= 3e-14


@pytest.mark.parametrize("n_fock", [20, 30])
def test_closed_calibrated_pulse_is_xx_quarter_to_roundoff(n_fock):
    # the ground-state mode closes exactly: what is left is the floor of the closed path
    R = lindblad.ms_gate_channel(lindblad.xx_gate_spec(n_fock=n_fock))
    assert np.abs(R.mat - channels.ptm_of_unitary(xx_unitary(np.pi / 4)).mat).max() <= 3e-14


# J_k(5000) to 17 digits, from 30-digit mpmath
BESSEL_5000 = {0: -0.0066489842514483475, 112: 0.0065967292253833396,
               681: 0.0029688449221498504, 4999: 0.02756272820041481}


@pytest.mark.parametrize("R", [1e-3, 0.5, 3.0, 87.5, 400.0, 5000.0])
def test_bessel_coefficients(R):
    N = lindblad._degree(R, 0.0)
    J = lindblad._bessel(R, N)
    # scipy's jv itself is off by up to 5.5e-14 at R = 5000 (against mpmath)
    assert np.abs(J - jv(np.arange(N + 1), R)).max() < (1e-14 if R < 1000 else 1e-13)
    assert abs(J[0] + 2 * J[2::2].sum() - 1) < 1e-15
    assert abs(J[0] ** 2 + 2 * (J[1:] ** 2).sum() - 1) < 1e-14
    if R == 5000.0:
        assert max(abs(J[k] - v) for k, v in BESSEL_5000.items()) < 1e-15


@pytest.mark.parametrize("x", [1e-12, 1e-20])
def test_bessel_rescales_at_a_tiny_argument(x):
    # the backward recurrence passes 1e250 and is rescaled (at 1e-20 it would overflow
    # otherwise); J_k(x) is (x / 2)^k / k! to far below roundoff, at values down to
    # 1e-62 that an absolute comparison cannot see
    series = np.array([(x / 2) ** k / math.factorial(k) for k in range(4)])
    assert np.all(np.abs(lindblad._bessel(x, 3) - series) <= 1e-15 * series)


def test_work_beyond_the_limit_is_refused():
    # the spec refuses itself when it is built, before any evolution
    for kw in (dict(gamma_heat=1e12), dict(delta=1e6, loops=200_000)):
        with pytest.raises(ValueError, match="series applications per mode round exceed "
                                             "the limit 60000"):
            lindblad.xx_gate_spec(n_fock=4, **kw)
    lindblad.load_spec(CONFIGS / "ms_gate_lindblad.json")


def test_mode_rounds_are_built_once(monkeypatch):
    spec = lindblad.xx_gate_spec(delta=DELTA, n_fock=3)
    order, weights, heat, segments, w = spec._rounds[0]
    assert not any(a.flags.writeable for a in (order, w, *(seg[0] for seg in segments)))
    monkeypatch.setattr(lindblad, "_frame_generator", None)   # evolving builds no round
    lindblad.ms_gate_channel(spec)


def test_drive_that_breaks_parity_is_refused(monkeypatch):
    # the mode rounds are built with the spec, so the patch goes first
    drive_ops = lindblad._drive_ops

    def with_carrier(spec, mode_index):  # a sigma_x carrier on ion 0 couples the sectors
        return drive_ops(spec, mode_index) + 1e4 * kron_chain(SX, I2, np.eye(spec.n_fock))

    monkeypatch.setattr(lindblad, "_drive_ops", with_carrier)
    with pytest.raises(ValueError, match="Pi = Z1 Z2"):
        lindblad.xx_gate_spec(delta=DELTA, n_fock=3)


def test_step_count_must_be_positive():
    spec = lindblad.xx_gate_spec(delta=DELTA, n_fock=3)
    assert lindblad._n_steps(spec, 1) == 50
    for bad in (0, -5):
        with pytest.raises(ValueError, match="steps_per_period must be >= 1"):
            lindblad._n_steps(spec, bad)


# ion-swap symmetry: a spec whose per-ion pairs are equal evolves 10 Pauli inputs

def _stack_sizes(monkeypatch):
    """The stack size of every ``_evolve_batch`` call from here on."""
    sizes, evolve_batch = [], lindblad._evolve_batch

    def spy(rhos, spec, mode_index):
        sizes.append(len(rhos))
        return evolve_batch(rhos, spec, mode_index)

    monkeypatch.setattr(lindblad, "_evolve_batch", spy)
    return sizes


def _two_symmetric_modes(**kw):
    base = lindblad.xx_gate_spec(delta=DELTA)
    return dataclasses.replace(base, modes=(base.modes[0], ModeSpec(
        eta=(0.05, 0.05), offset=2 * np.pi * 30e3)), **kw)


SYMMETRIC_CASES = {
    "closed": ORACLE_CASES["closed"],
    "heating": ORACLE_CASES["heating"],
    "dephasing": lindblad.xx_gate_spec(delta=DELTA, n_fock=4, tau_m=2e-4, tau_l=5e-4),
    "fm_all_channels": _fm_spec(n_fock=4, gamma_heat=1000.0, tau_m=1e-3, tau_l=5e-4),
    "two_modes": _two_symmetric_modes(n_fock=4, gamma_heat=500.0, tau_l=1e-3,
                                      stark=(2 * np.pi * 1e3,) * 2),
}


@pytest.mark.parametrize("spec", SYMMETRIC_CASES.values(), ids=SYMMETRIC_CASES)
def test_swap_symmetric_spec_evolves_ten_inputs_to_the_sixteen_input_channel(spec,
                                                                             monkeypatch):
    sizes = _stack_sizes(monkeypatch)
    fast = lindblad.ms_gate_channel(spec).mat
    assert sizes == [10] * len(spec.modes)
    monkeypatch.setattr(lindblad, "_swap_symmetric", lambda spec: False)
    assert np.abs(fast - lindblad.ms_gate_channel(spec).mat).max() <= 1e-14
    assert sizes[len(spec.modes):] == [16] * len(spec.modes)


def test_ten_input_heating_channel_matches_dense_oracle():
    spec = SYMMETRIC_CASES["heating"]
    assert np.abs(lindblad.ms_gate_channel(spec).mat - dense_gate_channel(spec)).max() <= 1e-14


_BASE = lindblad.xx_gate_spec(delta=DELTA, n_fock=3)
ASYMMETRIC_CASES = {
    "omega_r": dict(omega_r=(_BASE.omega_r[0], 1.01 * _BASE.omega_r[0])),
    "omega_b": dict(omega_b=(_BASE.omega_b[0], 1.01 * _BASE.omega_b[0])),
    "phi_r": dict(phi_r=(_BASE.phi_r[0], _BASE.phi_r[0] + 0.1)),
    "phi_b": dict(phi_b=(_BASE.phi_b[0], _BASE.phi_b[0] + 0.1)),
    "stark": dict(stark=(0.0, 2 * np.pi * 1e3)),
    "eta": dict(modes=(ModeSpec(eta=(0.1, 0.101)),)),
}


@pytest.mark.parametrize("change", ASYMMETRIC_CASES.values(), ids=ASYMMETRIC_CASES)
def test_one_unequal_per_ion_field_evolves_all_sixteen_inputs(change, monkeypatch):
    sizes = _stack_sizes(monkeypatch)
    lindblad.ms_gate_channel(dataclasses.replace(_BASE, **change))
    assert sizes == [16]
