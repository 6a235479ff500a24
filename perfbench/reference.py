"""Reference computations for the benchmark's output checks.

Everything here is written against the documented conventions (README:
circuit file format, gate definitions, PTM convention) and uses numpy
only, so a check does not share code with the simulator it checks.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_PAULIS = {"pauli_x": X, "pauli_y": Y, "pauli_z": Z}


def _axis(phi: float) -> np.ndarray:
    return math.cos(phi) * X + math.sin(phi) * Y


def xx_matrix(theta: float, phase_a: float = 0.0, phase_b: float = 0.0) -> np.ndarray:
    """``exp(-i theta sigma_a (x) sigma_b)``."""
    return (math.cos(theta) * np.eye(4, dtype=complex)
            - 1j * math.sin(theta) * np.kron(_axis(phase_a), _axis(phase_b)))


def _gate_matrix(kind: str, args: list[str]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Noiseless matrix (up to a global phase) and qubits of one circuit line."""
    if kind == "rot1q":
        theta, phi = float(args[1]), float(args[2])
        U = math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * _axis(phi)
        return U, (int(args[0]),)
    if kind == "virtual_z":
        theta = float(args[1])
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]), (int(args[0]),)
    if kind == "xx":
        phases = [float(a) for a in args[3:5]] if len(args) > 3 else [0.0, 0.0]
        return xx_matrix(float(args[2]), *phases), (int(args[0]), int(args[1]))
    if kind == "hadamard":
        return (X + Z) / math.sqrt(2), (int(args[0]),)
    if kind == "cnot":
        return CNOT, (int(args[0]), int(args[1]))
    if kind in _PAULIS:
        return _PAULIS[kind], (int(args[0]),)
    raise ValueError(f"unknown gate kind {kind!r}")


def _apply(U: np.ndarray, op: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """``op`` on ``qubits`` times ``U``, by contracting tensor axes (qubit 0 most significant)."""
    k = len(qubits)
    T = U.reshape((2,) * n + (2**n,))
    T = np.tensordot(op.reshape((2,) * (2 * k)), T, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(T, list(range(k)), list(qubits)).reshape(2**n, 2**n)


def noiseless_unitary(text: str) -> np.ndarray:
    """Unitary of a circuit file's text, up to a global phase."""
    U = None
    n = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        if kind == "qubits":
            n = int(args[0])
            U = np.eye(2**n, dtype=complex)
            continue
        op, qubits = _gate_matrix(kind, args)
        U = _apply(U, op, qubits, n)
    if U is None:
        raise ValueError("circuit text has no 'qubits' header")
    return U


def phase_aligned_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Largest entry of ``|A e^{i a} - B|`` with the global phase ``a`` fitted.

    First order in any angle error, unlike ``1 - |Tr A^dag B| / d``.
    """
    if A.shape != B.shape:
        return math.inf
    overlap = np.trace(A.conj().T @ B)
    if abs(overlap) == 0.0:
        return math.inf
    return float(np.abs(A * (overlap / abs(overlap)) - B).max())


def pauli_basis(n: int) -> np.ndarray:
    """The 4**n Pauli strings, lexicographic with I < X < Y < Z."""
    one = (I2, X, Y, Z)
    mats = []
    for labels in product(range(4), repeat=n):
        M = np.ones((1, 1), dtype=complex)
        for p in labels:
            M = np.kron(M, one[p])
        mats.append(M)
    return np.array(mats)


def ptm_of_unitary(U: np.ndarray) -> np.ndarray:
    """``R_ij = Tr[P_i U P_j U^dag] / 2**n``."""
    dim = U.shape[0]
    P = pauli_basis(int(round(math.log2(dim))))
    out = np.array([U @ Pj @ U.conj().T for Pj in P])
    return np.real(np.einsum("iab,jba->ij", P, out)) / dim


def trace_preservation_error(R: np.ndarray) -> float:
    """Largest deviation of the PTM's first row from (1, 0, ..., 0)."""
    e0 = np.zeros(R.shape[1])
    e0[0] = 1.0
    return float(np.abs(R[0] - e0).max())


def choi_min_eigenvalue(R: np.ndarray) -> float:
    """Smallest eigenvalue of the trace-normalized Choi matrix of a PTM."""
    n = int(round(math.log(R.shape[0], 4)))
    P = pauli_basis(n)
    C = sum(R[i, j] * np.kron(P[i], P[j].T)
            for i in range(len(P)) for j in range(len(P)) if R[i, j] != 0.0)
    C = C / 4**n
    return float(np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0])


def read_sweep_csv(path) -> list[list[float]]:
    """Numeric rows of a ``hinv sweep`` CSV (after its comment lines and header)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def read_ptm_csv(path) -> np.ndarray:
    """Matrix of a ``hinv ptm`` CSV (comment line, label row, numeric rows)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line[0].isalpha():
                continue
            rows.append([float(x) for x in line.split(",")])
    return np.array(rows)
