"""Pauli transfer matrix machinery: construction, composition, validation.

A channel Lambda on n qubits is represented by the real 4**n x 4**n matrix

    R_ij = Tr[P_i Lambda(P_j)] / 2**n

over the unnormalized Pauli strings (lexicographic order, identity first).
With this convention:

- trace preservation  <=>  first row is (1, 0, ..., 0);
- unitality           <=>  first column is (1, 0, ..., 0)^T;
- applying channels in sequence multiplies their PTMs with the *last*
  applied channel as the leftmost factor;
- a unitary conjugation gives an orthogonal PTM.

Complete positivity is checked through the (trace-normalized) Choi matrix

    C = (1/4**n) sum_ij R_ij  P_i (x) P_j^T,

which is positive semidefinite iff the channel is CP.  For a Pauli channel
(an exactly diagonal PTM) its eigenvalues are the Pauli probabilities, got
in closed form from the diagonal; any other PTM's Choi matrix is built one
Pauli digit at a time (2n single-qubit contractions) and diagonalized.  The
minimum eigenvalue is computed once per PTM object and cached on it:
``PTM.mat`` is a view of a read-only copy, so it cannot be changed after the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analytics, qmat

CP_EIG_TOL = -1e-8
TP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PTM:
    n: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat)
        if np.iscomplexobj(mat) and np.any(mat.imag):
            raise ValueError("PTM must be real, got a nonzero imaginary part")
        mat = np.array(np.real(mat), dtype=float)
        d = 4**self.n
        if mat.shape != (d, d):
            raise ValueError(f"PTM for n={self.n} must be {d}x{d}, got {mat.shape}")
        mat.flags.writeable = False
        # a view of a read-only array cannot be made writeable again
        object.__setattr__(self, "mat", mat.view())

    @cached_property
    def min_choi_eigenvalue(self) -> float:
        """The CP margin :func:`choi_min_eigenvalue`, computed on first use."""
        return choi_min_eigenvalue(self)


def ptm_of_unitary(U) -> PTM:
    """PTM of the conjugation ``rho -> U rho U^dag``; orthogonal by construction."""
    U = np.asarray(U, dtype=complex)
    dim = U.shape[0]
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if not qmat.is_unitary(U):
        raise ValueError("ptm_of_unitary requires a unitary matrix")
    P = qmat.pauli_basis(n)
    conj = (U @ P @ U.conj().T).reshape(4**n, -1)  # row j: U P_j U^dag
    # Tr[P_i M] = sum_ab conj(P_i)_ab M_ab, as every P_i is Hermitian
    return PTM(n, np.real(P.reshape(4**n, -1).conj() @ conj.T) / dim)


def depolarizing_ptm(n: int, p: float) -> PTM:
    """Global depolarizing channel: keep the state with probability ``p``."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"retention probability must be in [0, 1], got {p}")
    diag = np.full(4**n, p)
    diag[0] = 1.0
    return PTM(n, np.diag(diag))


def compose_ptms(seq) -> PTM:
    """Compose channels given in application order (first applied first)."""
    seq = list(seq)
    if not seq:
        raise ValueError("compose_ptms requires at least one PTM")
    n = seq[0].n
    if any(R.n != n for R in seq):
        raise ValueError("PTM qubit counts differ")
    out = seq[0].mat
    for R in seq[1:]:
        out = R.mat @ out
    return PTM(n, out)


def process_fidelity_from_ptm(R: PTM, R_ideal: PTM) -> float:
    if R.n != R_ideal.n:
        raise ValueError("PTM qubit counts differ")
    return float(np.trace(R_ideal.mat.T @ R.mat) / 4**R.n)


def avg_fidelity_from_ptm(R: PTM, R_ideal: PTM) -> float:
    """Average gate fidelity against an ideal PTM, from the process fidelity."""
    return analytics.average_from_entanglement(process_fidelity_from_ptm(R, R_ideal), R.n)


def choi_matrix(R: PTM) -> np.ndarray:
    """Trace-normalized Choi matrix of the channel."""
    n, P = R.n, qmat.pauli_basis(1)
    C = R.mat.reshape((4,) * 2 * n)
    for k in range(2 * n):  # leading Pauli digit -> its 2x2 axes, appended last
        C = np.tensordot(C, P if k < n else P.transpose(0, 2, 1), axes=(0, 0))
    # axes are now (a1, b1, ..., an, bn, c1, d1, ...); C[(a, c), (b, d)]
    C = C.transpose([*range(0, 2 * n, 2), *range(2 * n, 4 * n, 2),
                     *range(1, 2 * n, 2), *range(2 * n + 1, 4 * n, 2)])
    return C.reshape(4**n, 4**n) / 4**n


# +1 where single-qubit Paulis a and k (order IXYZ) commute, else -1
_COMMUTES = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


def choi_min_eigenvalue(R: PTM) -> float:
    if np.count_nonzero(R.mat) == np.count_nonzero(np.diagonal(R.mat)):   # Pauli channel
        p = np.diagonal(R.mat).reshape((4,) * R.n)
        for _ in range(R.n):   # p_a = sum_k S(a, k) R_kk / 4**n, a Pauli digit at a time
            p = np.tensordot(p, _COMMUTES, axes=(0, 0))
        return float(p.min() / 4**R.n)
    C = choi_matrix(R)
    C = 0.5 * (C + C.conj().T)
    return float(np.linalg.eigvalsh(C)[0])


def is_trace_preserving(R: PTM) -> bool:
    e1 = np.zeros(4**R.n)
    e1[0] = 1.0
    return bool(np.abs(R.mat[0] - e1).max() < TP_TOL)


def is_cptp(R: PTM) -> bool:
    return is_trace_preserving(R) and R.min_choi_eigenvalue >= CP_EIG_TOL


def pauli_vector(rho, n: int) -> np.ndarray:
    """Coefficients ``Tr[P_i rho]`` (real for Hermitian rho)."""
    P = qmat.pauli_basis(n)
    return np.real(P.reshape(4**n, -1) @ np.asarray(rho, dtype=complex).T.reshape(-1))


def matrix_from_pauli_vector(vec, n: int) -> np.ndarray:
    """Inverse of :func:`pauli_vector`: ``rho = sum_i vec_i P_i / 2**n``."""
    P = qmat.pauli_basis(n)
    return (np.asarray(vec, dtype=float) @ P.reshape(4**n, -1)).reshape(P.shape[1:]) / 2**n


def apply_ptm(R: PTM, rho) -> np.ndarray:
    return matrix_from_pauli_vector(R.mat @ pauli_vector(rho, R.n), R.n)


# ---------------------------------------------------------------------------
# CSV export (row-major, header records n and basis order)

def write_csv(R: PTM, path) -> None:
    labels = qmat.pauli_labels(R.n)
    with open(path, "w") as fh:
        fh.write(f"# ptm n={R.n} basis=lexicographic({'|'.join(labels[:4])}...)"
                 f" rows=output cols=input\n")
        fh.write(",".join(labels) + "\n")
        for row in R.mat:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
