"""Shared test helpers: independent oracles kept off the library's code paths."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm

from hinv.analytics import MINUS, PLUS, average_from_entanglement

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)


def kron_chain(*ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def expi(H, s=1.0):
    """Independent matrix exponential exp(-i s H) (Pade, not eigh)."""
    return expm(-1j * s * np.asarray(H, dtype=complex))


def embed_on(U, qubits, n):
    """Independent embedding: permutation-matrix route."""
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    big = kron_chain(U, *([I2] * (n - k)))
    src = list(qubits) + rest
    P = np.zeros((2**n, 2**n))
    for b in range(2**n):
        bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
        nb = 0
        for pos, q in enumerate(src):
            nb |= bits[q] << (n - 1 - pos)
        P[b, nb] = 1.0
    return P @ big @ P.T


def phase_overlap(A, B):
    return abs(np.trace(np.asarray(A).conj().T @ np.asarray(B))) / A.shape[0]


def random_unitary(rng, dim):
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hermitian(rng, dim):
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (M + M.conj().T) / 2


def binomial_phase_identity(n, eps):
    """Both sides of ``sum_w C(n-1,w) e^{-i w eps} = e^{-i(n-1)eps/2} [2 cos(eps/2)]^(n-1)``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lhs = sum(math.comb(n - 1, w) * np.exp(-1j * w * eps) for w in range(n))
    rhs = np.exp(-0.5j * (n - 1) * eps) * (2 * math.cos(eps / 2)) ** (n - 1)
    return complex(lhs), complex(rhs)


@dataclass(frozen=True)
class FidelityPoint:
    """One fidelity sample whose average and entanglement fidelities agree."""

    theta: float
    eps: float
    n: int
    orientation: str
    f_entanglement: float
    f_average: float

    def __post_init__(self):
        if self.orientation not in (PLUS, MINUS):
            raise ValueError(f"bad orientation {self.orientation!r}")
        expected = average_from_entanglement(self.f_entanglement, self.n)
        if abs(self.f_average - expected) > 1e-14:
            raise ValueError("f_average inconsistent with f_entanglement")

    @classmethod
    def from_entanglement(cls, theta, eps, n, orientation, f_e):
        return cls(theta, eps, n, orientation, f_e,
                   average_from_entanglement(f_e, n))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
