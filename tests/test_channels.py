import re
import warnings

import numpy as np
import pytest

from hinv import channels, qmat
from hinv.channels import PTM

from conftest import (SX, SZ, choi_by_definition, kron_chain, pauli_strings,
                      ptm_by_definition, random_hermitian, random_unitary, rotation,
                      virtual_z_unitary, xx_unitary)


def superoperator_ptm(U):
    """Independent PTM route: column-stacking superoperator + basis change.

    vec_col(U rho U^dag) = (conj(U) (x) U) vec_col(rho).
    """
    n = int(np.log2(U.shape[0]))
    S = np.kron(U.conj(), U)
    B = np.column_stack([P.reshape(-1, order="F") / np.sqrt(2**n)
                         for P in qmat.pauli_basis(n)])
    return np.real(B.conj().T @ S @ B)


def test_identity_ptm():
    R = channels.ptm_of_unitary(np.eye(4))
    assert np.abs(R.mat - np.eye(16)).max() < 1e-14


def test_z_pi_ptm_flips_xy():
    R = channels.ptm_of_unitary(virtual_z_unitary(np.pi))
    assert np.abs(R.mat - np.diag([1, -1, -1, 1])).max() < 1e-14


def test_xx_ptm_orthogonal_and_matches_superoperator():
    U = xx_unitary(np.pi / 4)
    R = channels.ptm_of_unitary(U)
    assert R.mat.shape == (16, 16)
    assert np.abs(R.mat @ R.mat.T - np.eye(16)).max() < 1e-10
    assert np.abs(R.mat - superoperator_ptm(U)).max() < 1e-12


def test_ptm_rejects_non_unitary():
    with pytest.raises(ValueError):
        channels.ptm_of_unitary(np.ones((4, 4)))


@pytest.mark.parametrize("call, message", [
    (lambda: PTM(1, np.eye(3)), "PTM for n=1 must be 4x4, got (3, 3)"),
    (lambda: PTM(1, np.eye(4) * (1 + 1j)), "PTM must be real, got a nonzero imaginary part"),
    (lambda: channels.ptm_of_unitary(np.eye(3)), "dimension 3 is not a power of two"),
    (lambda: channels.compose_ptms([]), "compose_ptms requires at least one PTM"),
    (lambda: channels.compose_ptms([PTM(1, np.eye(4)), PTM(2, np.eye(16))]),
     "PTM qubit counts differ"),
    (lambda: channels.process_fidelity_from_ptm(PTM(1, np.eye(4)), PTM(2, np.eye(16))),
     "PTM qubit counts differ"),
], ids=["ptm_shape", "ptm_complex", "unitary_dimension", "compose_nothing",
        "compose_mixed_widths", "fidelity_mixed_widths"])
def test_malformed_channel_input_is_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_a_complex_ptm_with_zero_imaginary_part_is_taken_as_real():
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no ComplexWarning
        R = PTM(1, np.eye(4, dtype=complex))
    assert R.mat.dtype == float and np.array_equal(R.mat, np.eye(4))


def test_depolarizing_edge_cases():
    assert np.abs(channels.depolarizing_ptm(1, 1.0).mat - np.eye(4)).max() == 0
    R0 = channels.depolarizing_ptm(1, 0.0)
    assert np.abs(R0.mat - np.diag([1.0, 0, 0, 0])).max() == 0
    R = channels.depolarizing_ptm(2, 0.87)
    assert np.abs(np.diag(R.mat) - np.array([1.0] + [0.87] * 15)).max() < 1e-15
    with pytest.raises(ValueError):
        channels.depolarizing_ptm(1, 1.2)


def test_compose_identity_and_inverse(rng):
    U = random_unitary(rng, 4)
    R = channels.ptm_of_unitary(U)
    Rd = channels.ptm_of_unitary(U.conj().T)
    ident = channels.compose_ptms([R, PTM(2, np.eye(16))])
    assert np.abs(ident.mat - R.mat).max() < 1e-14
    assert np.abs(channels.compose_ptms([R, Rd]).mat - np.eye(16)).max() < 1e-10


def test_compose_order_last_applied_leftmost(rng):
    U, V = random_unitary(rng, 2), random_unitary(rng, 2)
    R = channels.compose_ptms([channels.ptm_of_unitary(U), channels.ptm_of_unitary(V)])
    assert np.abs(R.mat - channels.ptm_of_unitary(V @ U).mat).max() < 1e-12


def test_sk1_composition_reproduces_composite_unitary():
    # composing elementary-rotation PTMs reproduces the composite's PTM
    phi1 = np.arccos(-(np.pi / 2) / (4 * np.pi))
    seq = [rotation(np.pi / 2, 0.0), rotation(2 * np.pi, phi1), rotation(2 * np.pi, -phi1)]
    composed = channels.compose_ptms([channels.ptm_of_unitary(U) for U in seq])
    direct = channels.ptm_of_unitary(seq[2] @ seq[1] @ seq[0])
    assert np.abs(composed.mat - direct.mat).max() < 1e-12


def test_avg_fidelity_identity_and_mixing():
    ident = PTM(1, np.eye(4))
    assert channels.avg_fidelity_from_ptm(ident, ident) == 1.0
    mix = channels.depolarizing_ptm(1, 0.0)
    assert abs(channels.avg_fidelity_from_ptm(mix, ident) - 0.5) < 1e-15


def test_avg_fidelity_matches_trace_overlap_oracle(rng):
    # for unitary channels the PTM process fidelity equals |Tr[U^dag V]|^2/4^n
    for n, dim in ((1, 2), (2, 4)):
        U, V = random_unitary(rng, dim), random_unitary(rng, dim)
        f_pro = channels.process_fidelity_from_ptm(channels.ptm_of_unitary(V),
                                                   channels.ptm_of_unitary(U))
        want = abs(np.trace(U.conj().T @ V)) ** 2 / 4**n
        assert abs(f_pro - want) < 1e-10
        favg = channels.avg_fidelity_from_ptm(channels.ptm_of_unitary(V),
                                              channels.ptm_of_unitary(U))
        assert abs(favg - (2**n * want + 1) / (2**n + 1)) < 1e-10


def test_cptp_checks(rng):
    U = random_unitary(rng, 4)
    R = channels.ptm_of_unitary(U)
    assert channels.is_trace_preserving(R)
    assert channels.is_cptp(R)
    assert channels.choi_min_eigenvalue(R) > -1e-10
    # composition of CPTP maps stays CPTP
    comp = channels.compose_ptms([R, channels.depolarizing_ptm(2, 0.8)])
    assert channels.is_cptp(comp)
    # a trace-scaling map is not TP
    assert not channels.is_trace_preserving(PTM(2, np.eye(16) * 1.01))
    # transposition is positive but not completely positive
    T = np.diag([1.0, 1.0, -1.0, 1.0])
    assert channels.choi_min_eigenvalue(PTM(1, T)) == pytest.approx(-0.5, abs=1e-15)
    assert not channels.is_cptp(PTM(1, T))


def test_ptm_matrix_cannot_be_made_writeable_again():
    R = channels.depolarizing_ptm(1, 0.9)
    assert R.min_choi_eigenvalue > 0
    with pytest.raises(ValueError):
        R.mat.flags.writeable = True
    with pytest.raises(ValueError):
        R.mat[1, 1] = 5.0


def test_ptm_equality_and_hash_go_by_identity():
    # like its cached Choi margin, a PTM's identity is the object
    R, R2 = channels.depolarizing_ptm(1, 0.9), channels.depolarizing_ptm(1, 0.9)
    assert R == R and R != R2
    assert {R, R, R2} == {R, R2} and len({R, R2}) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_choi_matrix_matches_definition(rng, n):
    # a random R is not CP; at n=4 sparse R keep the oracle's loop short
    R = rng.standard_normal((4**n, 4**n))
    cp = channels.depolarizing_ptm(n, 0.7)
    if n == 4:
        R *= rng.random(R.shape) < 1e-3
    else:
        cp = channels.compose_ptms([channels.ptm_of_unitary(random_unitary(rng, 2**n)), cp])
    for mat in (R, cp.mat):
        got = channels.choi_matrix(PTM(n, mat))
        assert np.abs(got - choi_by_definition(mat, n)).max() < 1e-13
    assert channels.choi_min_eigenvalue(PTM(n, R)) < -1e-3
    assert channels.is_cptp(cp)


def commutation_signs(n):
    """S[a, k] = +1 if the Pauli strings a and k commute, else -1, from their labels."""
    labels = qmat.pauli_labels(n)
    return np.array([[(-1.0) ** sum(x != "I" != y != x for x, y in zip(a, k))
                      for k in labels] for a in labels])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_channel_margin_is_its_smallest_pauli_probability(rng, n, monkeypatch):
    # lambda = S p for Pauli probabilities p: on the simplex (CP), with a negative
    # entry and summing to 1 (outside the CP polytope), and a random diagonal
    S = commutation_signs(n)
    simplex = rng.dirichlet(np.ones(4**n))
    signed = 1.5 * rng.dirichlet(np.ones(4**n))
    signed[signed.argmin()] -= 0.5    # below 1.5 / 4 - 0.5 < 0
    wild = np.concatenate([[1.0], rng.uniform(-1.2, 1.2, 4**n - 1)])
    cases = [S @ simplex, S @ signed, wild]
    want = [np.linalg.eigvalsh(channels.choi_matrix(PTM(n, np.diag(lam))))[0] for lam in cases]
    assert want[0] > 0 > want[1]
    # the margin of a diagonal PTM never builds the Choi matrix
    monkeypatch.setattr(channels, "choi_matrix", None)
    for lam, w in zip(cases, want):
        R = PTM(n, np.diag(lam))
        assert abs(channels.choi_min_eigenvalue(R) - w) <= 1e-14
        assert channels.is_cptp(R) == (w >= channels.CP_EIG_TOL)
    assert abs(channels.choi_min_eigenvalue(PTM(n, np.diag(S @ signed))) - signed.min()) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ptm_of_unitary_matches_definition(rng, n):
    U = random_unitary(rng, 2**n)
    assert np.abs(channels.ptm_of_unitary(U).mat - ptm_by_definition(U)).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_vector_matches_definition(rng, n):
    rho, P = random_hermitian(rng, 2**n), pauli_strings(n)
    vec = np.array([np.trace(Pi @ rho).real for Pi in P])
    assert np.abs(channels.pauli_vector(rho, n) - vec).max() < 1e-13
    back = sum(v * Pi for v, Pi in zip(vec, P)) / 2**n
    assert np.abs(channels.matrix_from_pauli_vector(vec, n) - back).max() < 1e-13


def test_pauli_vector_round_trip(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = (M + M.conj().T) / 2
    vec = channels.pauli_vector(rho, 2)
    back = channels.matrix_from_pauli_vector(vec, 2)
    assert np.abs(back - rho).max() < 1e-12


def test_apply_ptm_matches_conjugation(rng):
    U = random_unitary(rng, 4)
    R = channels.ptm_of_unitary(U)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = (M + M.conj().T) / 2
    assert np.abs(channels.apply_ptm(R, rho) - U @ rho @ U.conj().T).max() < 1e-11


def test_csv_round_trip(tmp_path):
    R = channels.ptm_of_unitary(xx_unitary(np.pi / 4, 0.05, 0.05))
    path = tmp_path / "ms.csv"
    channels.write_csv(R, path)
    assert path.read_text().startswith("# ptm n=2 ")
    back = np.loadtxt(path, delimiter=",", skiprows=2)
    assert np.abs(back - R.mat).max() < 1e-15
