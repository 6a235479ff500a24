import numpy as np
import pytest

from hinv import qmat

from conftest import SX, SZ, expi, random_hermitian, random_unitary


def test_kron_identity_case():
    assert np.allclose(qmat.kron([qmat.I2, qmat.I2]), np.eye(4), atol=0)


def test_kron_pauli_tensor():
    assert np.allclose(qmat.kron([SZ, SZ]), np.diag([1, -1, -1, 1]), atol=0)


def test_kron_triple_x_brute_force():
    # oracle: (kron(A, B))_{ip,jq} = A_ij * B_pq applied twice by explicit loops
    got = qmat.kron([SX, SX, SX])
    want = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    for r in range(2):
                        for s in range(2):
                            want[4 * i + 2 * p + r, 4 * j + 2 * q + s] = (
                                SX[i, j] * SX[p, q] * SX[r, s])
    assert np.array_equal(got, want)
    assert np.array_equal(got, np.rot90(np.eye(8)))  # anti-diagonal ones


def test_kron_empty_rejected():
    with pytest.raises(ValueError):
        qmat.kron([])


def test_kron_associativity(rng):
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)]
    left = qmat.kron([qmat.kron(mats[:2]), mats[2]])
    flat = qmat.kron(mats)
    assert np.abs(left - flat).max() < 1e-14


def test_herm_exp_zero_angle():
    assert np.allclose(qmat.herm_exp(SZ, 0.0), np.eye(2), atol=0)


def test_herm_exp_xx_pi():
    got = qmat.herm_exp(qmat.kron([SX, SX]), np.pi)
    assert np.abs(got + np.eye(4)).max() < 1e-12


def test_herm_exp_z_quarter_turn():
    got = qmat.herm_exp(SZ, np.pi / 2)
    want = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.abs(got - want).max() < 1e-12
    # independent eigendecomposition-free oracle
    assert np.abs(got - expi(SZ, np.pi / 2)).max() < 1e-12


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qmat.herm_exp(np.array([[0, 1], [0, 0]], dtype=complex), 0.3)


def test_herm_exp_group_law(rng):
    H = random_hermitian(rng, 8)
    a, b = 0.37, -1.21
    prod = qmat.herm_exp(H, a) @ qmat.herm_exp(H, b)
    assert np.abs(prod - qmat.herm_exp(H, a + b)).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 8, 32, 64])
def test_herm_exp_unitarity(rng, dim):
    H = random_hermitian(rng, dim)
    U = qmat.herm_exp(H, 0.83)
    assert np.abs(U.conj().T @ U - np.eye(dim)).max() < 1e-11


def test_pauli_basis_single_qubit():
    I, X, Y, Z = qmat.pauli_basis(1)
    assert np.array_equal(I, qmat.I2)
    assert np.array_equal(X, SX)
    assert np.array_equal(Z, SZ)
    assert qmat.pauli_labels(1) == ["I", "X", "Y", "Z"]


def test_pauli_basis_two_qubit_order():
    labels = qmat.pauli_labels(2)
    assert len(labels) == 16
    assert labels[0] == "II"
    assert labels == sorted(labels, key=lambda s: ["IXYZ".index(c) for c in s])
    basis = qmat.pauli_basis(2)
    assert np.array_equal(basis[1], qmat.kron([qmat.I2, SX]))  # IX comes second


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_trace_orthogonality(n):
    basis = qmat.pauli_basis(n)
    G = np.array([[np.trace(P @ Q) for Q in basis] for P in basis])
    assert np.abs(G - 2**n * np.eye(4**n)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_basis_is_bytewise_the_kron_of_each_label(n):
    want = np.stack([qmat.kron([qmat.PAULI_1Q[c] for c in label])
                     for label in qmat.pauli_labels(n)])
    got = qmat.pauli_basis(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def test_pauli_basis_range_checked():
    with pytest.raises(ValueError):
        qmat.pauli_basis(0)
    with pytest.raises(ValueError):
        qmat.pauli_basis(6)


def test_embed_matches_permutation_oracle(rng):
    from conftest import embed_on
    U = random_unitary(rng, 4)
    got = qmat.embed(U, (2, 0), 3)
    want = embed_on(U, (2, 0), 3)
    assert np.abs(got - want).max() < 1e-13


def test_embed_returns_a_new_array_at_full_width(rng):
    U = random_unitary(rng, 4)
    got = qmat.embed(U, (0, 1), 2)
    assert got is not U and not np.shares_memory(got, U)
    assert np.abs(got - U).max() < 1e-15


# --- apply ---------------------------------------------------------------------

def _qubit_tuples(rng, n):
    """Random k=1..3 qubit tuples, plus reversed and non-adjacent fixed ones."""
    out = [tuple(int(q) for q in rng.choice(n, size=k, replace=False))
           for k in range(1, min(n, 3) + 1) for _ in range(3)]
    out += [t for t in [(n - 1, 0), (3, 0), (2, 0, 4)] if len(set(t)) == len(t) and max(t) < n]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_apply_matches_embedded_product(rng, n):
    from conftest import embed_on
    for qubits in _qubit_tuples(rng, n):
        op = random_unitary(rng, 2 ** len(qubits)) + 0.3 * random_hermitian(rng, 2 ** len(qubits))
        for m in (1, 2**n):
            M = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))
            M_before = M.copy()
            got = qmat.apply(op, qubits, M, n)
            want = embed_on(op, qubits, n) @ M
            assert got.shape == M.shape
            assert np.abs(got - want).max() < 1e-12, (n, qubits, m)
            assert np.array_equal(M, M_before)


def apply_by_tensordot(op, qubits, M, n):
    """The contraction as a tensordot over the qubit axes, then a moveaxis back."""
    k = len(qubits)
    out = np.tensordot(np.asarray(op).reshape((2,) * (2 * k)), M.reshape((2,) * n + (-1,)),
                       axes=(range(k, 2 * k), qubits))
    return np.moveaxis(out, range(k), qubits).reshape(M.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_apply_is_bitwise_the_tensordot_contraction(rng, n):
    for qubits in _qubit_tuples(rng, n) + [tuple(range(min(n, 4)))]:
        d = 2 ** len(qubits)
        for op in (rng.standard_normal((d, d)), random_unitary(rng, d)):
            for shape in ((2**n,), (2**n, 1), (2**n, 3), (2**n, 2**n)):
                for M in (rng.standard_normal(shape),
                          rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
                    got, want = qmat.apply(op, qubits, M, n), apply_by_tensordot(op, qubits, M, n)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (n, qubits, shape)
                    assert not np.shares_memory(got, M)


def test_apply_accepts_a_vector_and_real_operands(rng):
    from conftest import embed_on
    op = rng.standard_normal((4, 4))
    v = rng.standard_normal(8)
    got = qmat.apply(op, (2, 0), v, 3)
    assert got.shape == (8,) and got.dtype == float
    assert np.abs(got - embed_on(op, (2, 0), 3).real @ v).max() < 1e-12


@pytest.mark.parametrize("qubits", [(1, 1), (3,), (-1,), (0, 2, 0)],
                         ids=["repeated", "past_the_end", "negative", "repeated_of_three"])
def test_bad_qubits_raise_again_on_an_identical_call(qubits):
    # the check runs inside the cached _axis_order, and lru_cache keeps no exception
    op, M = np.eye(2 ** len(qubits)), np.eye(8, dtype=complex)
    for _ in range(2):
        with pytest.raises(ValueError, match="bad qubit indices"):
            qmat.apply(op, qubits, M, 3)


def test_apply_checks_shapes_and_indices():
    M = np.eye(8, dtype=complex)
    with pytest.raises(ValueError):
        qmat.apply(np.eye(4), (0,), M, 3)          # operator does not match 1 qubit
    with pytest.raises(ValueError):
        qmat.apply(np.eye(4), (1, 1), M, 3)        # repeated qubit
    with pytest.raises(ValueError):
        qmat.apply(np.eye(2), (3,), M, 3)          # qubit out of range
    with pytest.raises(ValueError):
        qmat.apply(np.eye(2), (-1,), M, 3)
    with pytest.raises(ValueError):
        qmat.apply(np.eye(2), (0,), np.eye(4), 3)  # rows do not match n

