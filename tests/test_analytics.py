import re

import numpy as np
import pytest

from hinv import analytics, circuit
from hinv.analytics import MINUS, PLUS
from hinv.gates import INVERSE, STANDARD, NoiseModel

from conftest import (CNOT4, SZ, FidelityPoint, binomial_phase_identity, embed_on, expi,
                      kron_chain, parity_target, virtual_z_unitary)


def ladder_fidelity(theta, eps, n, orientation):
    """Simulated entanglement fidelity, two-qubit overrotation only."""
    sel = INVERSE if orientation == PLUS else STANDARD
    orientations = [STANDARD] * (n - 1) + [sel] * (n - 1)
    c = circuit.parity_controlled_z(n, theta, orientations)
    U = circuit.unitary_of(c, NoiseModel(eps_2q=eps))
    return analytics.entanglement_fidelity(parity_target(n, theta), U)


# --- entanglement fidelity -----------------------------------------------------

def test_fe_self_is_one(rng):
    from conftest import random_unitary
    U = random_unitary(rng, 8)
    assert abs(analytics.entanglement_fidelity(U, U) - 1.0) < 1e-12


def test_fe_traceless_pair():
    assert analytics.entanglement_fidelity(np.eye(2), np.array([[0, 1], [1, 0]])) == 0


def test_fe_z_half_turn():
    got = analytics.entanglement_fidelity(np.eye(2), virtual_z_unitary(np.pi / 2))
    assert abs(got - 0.5) < 1e-14  # |cos(pi/4)|^2


def test_fe_dimension_mismatch():
    with pytest.raises(ValueError):
        analytics.entanglement_fidelity(np.eye(2), np.eye(4))


# --- closed-form power expression ------------------------------------------------

def test_closed_form_trivials():
    for eps in (0.01, 0.2):
        for n in (2, 5):
            assert analytics.closed_form_fe(0.0, eps, n, PLUS) == 1.0
            assert abs(analytics.closed_form_fe(np.pi, eps, n, MINUS) - 1.0) < 1e-12


@pytest.mark.parametrize("form", [analytics.closed_form_fe, analytics.exact_ladder_fe,
                                  analytics.cnot_hamiltonian_fe])
@pytest.mark.parametrize("n, orientation, message", [
    (1, PLUS, "n must be >= 2"),
    (2, "sideways", "orientation must be 'plus' or 'minus', got 'sideways'"),
], ids=["one_qubit", "sideways"])
def test_closed_forms_refuse_a_bad_width_or_orientation(form, n, orientation, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        form(0.3, 0.02, n, orientation)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_shift_symmetry(n):
    for theta in np.linspace(-np.pi, np.pi, 11):
        a = analytics.closed_form_fe(theta, 0.02, n, PLUS)
        b = analytics.closed_form_fe(theta + np.pi, 0.02, n, MINUS)
        assert abs(a - b) < 1e-12


def test_closed_form_exact_at_n2():
    for theta in np.linspace(-np.pi, np.pi, 9):
        for eps in (0.005, 0.02, 0.05):
            for orientation in (PLUS, MINUS):
                sim = ladder_fidelity(theta, eps, 2, orientation)
                assert abs(sim - analytics.closed_form_fe(theta, eps, 2, orientation)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_ladder_form_matches_simulation(n):
    # the binomial average over control parities is exact at every width
    for theta in np.linspace(-np.pi, np.pi, 7):
        for eps in (0.02, 0.05):
            for orientation in (PLUS, MINUS):
                sim = ladder_fidelity(theta, eps, n, orientation)
                assert abs(sim - analytics.exact_ladder_fe(theta, eps, n, orientation)) < 1e-12


def test_power_form_is_independent_pair_approximation():
    # the power form deviates from the exact ladder fidelity at fourth order,
    # one term per pair of controls; at n=3 (one pair) the normalized-trace
    # gap is exactly sin^4(pi eps/4) sin^2(theta)
    eps = 0.05
    w = np.pi * eps / 4
    for orientation in (PLUS, MINUS):
        for theta in (0.4, 1.3, 2.2):
            gap = (np.sqrt(analytics.exact_ladder_fe(theta, eps, 3, orientation))
                   - np.sqrt(analytics.closed_form_fe(theta, eps, 3, orientation)))
            assert abs(gap - np.sin(w) ** 4 * np.sin(theta) ** 2) < 1e-12


def test_advantage_window_matches_rule():
    # for small eps the hidden configuration wins exactly when cos(theta) >= 0
    eps = 0.01
    for n in (2, 3, 4):
        for theta in np.linspace(-np.pi, np.pi, 41):
            diff = (analytics.closed_form_fe(theta, eps, n, PLUS)
                    - analytics.closed_form_fe(theta, eps, n, MINUS))
            if abs(np.cos(theta)) > 1e-9:
                assert np.sign(diff) == np.sign(np.cos(theta))


# --- small-angle expansion -------------------------------------------------------

def test_small_angle_trivials():
    assert analytics.small_angle_drop(4, 0.02, 0.0, correct=True) == 0.0
    want = 3 * (np.pi / 4) ** 2 * 0.02**2 * 4
    assert abs(analytics.small_angle_drop(4, 0.02, 0.0, correct=False) - want) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_small_angle_matches_closed_form(n):
    eps, dev = 0.02, 0.1
    drop = 1 - analytics.closed_form_fe(dev, eps, n, PLUS)
    approx = analytics.small_angle_drop(n, eps, dev, correct=True)
    assert abs(approx - drop) / drop < 0.05
    drop_bad = 1 - analytics.closed_form_fe(dev, eps, n, MINUS)
    approx_bad = analytics.small_angle_drop(n, eps, dev, correct=False)
    assert abs(approx_bad - drop_bad) / drop_bad < 0.05


# --- CNOT-generator error model ---------------------------------------------------

def cnot_hamiltonian_fe_matrix(theta, eps, n, orientation):
    """Brute-force oracle: build V_pm from matrix exponentials of CNOTs."""
    sign = +1 if orientation == PLUS else -1
    U = expi(kron_chain(*([SZ] * n)), theta / 2)
    left = np.eye(2**n, dtype=complex)
    right = np.eye(2**n, dtype=complex)
    for j in range(n - 1):
        C = embed_on(CNOT4, (j, n - 1), n)
        left = left @ expi(C, -sign * eps / 2)
        right = right @ expi(C, eps / 2)
    V = left @ U @ right
    return abs(np.trace(U.conj().T @ V)) ** 2 / 4**n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cnot_hamiltonian_fe_matches_matrix_oracle(n):
    for theta in np.linspace(-np.pi, np.pi, 7):
        for eps in (0.05, 0.3):
            for orientation in (PLUS, MINUS):
                got = analytics.cnot_hamiltonian_fe(theta, eps, n, orientation)
                want = cnot_hamiltonian_fe_matrix(theta, eps, n, orientation)
                assert abs(got - want) < 1e-10


def test_cnot_hamiltonian_endpoints():
    for n in (2, 3, 5):
        for eps in (0.1, 0.4):
            assert abs(analytics.cnot_hamiltonian_fe(0.0, eps, n, PLUS) - 1.0) < 1e-12
            want_min_pi = np.cos(eps / 2) ** (2 * (n - 1))
            assert abs(analytics.cnot_hamiltonian_fe(np.pi, eps, n, MINUS)
                       - want_min_pi) < 1e-12
            want_min_0 = 0.25 * (1 + 2 * np.cos((n - 1) * eps) * np.cos(eps) ** (n - 1)
                                 + np.cos(eps) ** (2 * (n - 1)))
            assert abs(analytics.cnot_hamiltonian_fe(0.0, eps, n, MINUS)
                       - want_min_0) < 1e-12
            # the plus/theta=pi endpoint: the (n-1)eps/2 cosine enters SQUARED
            # (a modulus-squared quantity; the unsquared variant can be negative
            # and matches nothing the matrix oracle produces)
            want_plus_pi = (np.cos((n - 1) * eps / 2) ** 2
                            * np.cos(eps / 2) ** (2 * (n - 1)))
            assert abs(analytics.cnot_hamiltonian_fe(np.pi, eps, n, PLUS)
                       - want_plus_pi) < 1e-12


def test_binomial_phase_identity():
    lhs, rhs = binomial_phase_identity(2, 0.4)
    assert abs(lhs - (1 + np.exp(-0.4j))) < 1e-14
    assert abs(lhs - rhs) < 1e-14
    lhs, rhs = binomial_phase_identity(8, 0.3)
    # direct-summation oracle
    import math
    direct = sum(math.comb(7, w) * np.exp(-1j * w * 0.3) for w in range(8))
    assert abs(lhs - direct) < 1e-13
    assert abs(lhs - rhs) < 1e-12
    lhs, rhs = binomial_phase_identity(6, 0.0)
    assert lhs == rhs == 2**5


# --- FidelityPoint -----------------------------------------------------------------

def test_fidelity_point_consistency():
    p = FidelityPoint.from_entanglement(0.3, 0.02, 2, PLUS, 0.9)
    assert abs(p.f_average - (4 * 0.9 + 1) / 5) < 1e-15
    with pytest.raises(ValueError):
        FidelityPoint(0.3, 0.02, 2, PLUS, 0.9, 0.95)
