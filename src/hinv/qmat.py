"""Dense complex linear algebra and Pauli-basis utilities.

Conventions used throughout the package:

- States live on qubit registers; operators are ``2**n x 2**n`` complex
  ndarrays (dtype complex128).
- Gates are applied locally: :func:`apply` contracts a ``2**k x 2**k``
  operator onto k axes of a register, so a full ``2**n x 2**n`` operator
  is never built (:func:`embed` builds one for callers that need it).
- ``herm_exp(H, s)`` returns ``exp(-i*s*H)`` for Hermitian ``H`` via
  eigendecomposition, so the result is unitary up to floating error.
- The n-qubit Pauli basis is ordered lexicographically with I < X < Y < Z
  (II, IX, IY, IZ, XI, ... for n=2) and uses plain (unnormalized) Pauli
  strings: ``Tr[P_i P_j] = 2**n * delta_ij``.

The single-qubit constants and all returned basis matrices are flagged
read-only; everything here is stateless.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product

import numpy as np

I2 = np.array([[1, 0], [0, 1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}
for _P in PAULI_1Q.values():
    _P.flags.writeable = False

MAX_PAULI_QUBITS = 5


def kron(factors) -> np.ndarray:
    """Kronecker product of a non-empty sequence of matrices, in order."""
    factors = list(factors)
    if not factors:
        raise ValueError("kron requires at least one factor")
    return reduce(np.kron, [np.asarray(f, dtype=complex) for f in factors])


def is_hermitian(H) -> bool:
    H = np.asarray(H)
    return bool(np.abs(H - H.conj().T).max() < 1e-10)


def is_unitary(U) -> bool:
    U = np.asarray(U)
    return bool(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() < 1e-10)


def herm_exp(H, s: float) -> np.ndarray:
    """``exp(-i*s*H)`` for Hermitian ``H``.

    Uses the eigendecomposition of ``H`` so the result is exactly unitary
    up to floating error (no series truncation).

    Raises ``ValueError`` if ``H`` is not Hermitian to 1e-10.
    """
    H = np.asarray(H, dtype=complex)
    if not is_hermitian(H):
        raise ValueError("herm_exp requires a Hermitian matrix")
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * s * w)) @ V.conj().T


def pauli_labels(n: int) -> list[str]:
    """The 4**n Pauli-string labels in canonical (lexicographic) order."""
    _check_n(n)
    return ["".join(p) for p in product("IXYZ", repeat=n)]


@lru_cache(maxsize=MAX_PAULI_QUBITS)
def pauli_basis(n: int) -> np.ndarray:
    """The 4**n unnormalized Pauli strings on n qubits, identity first.

    Stacked into a cached, read-only (4**n, 2**n, 2**n) array.  Ordering is
    lexicographic with I < X < Y < Z; each element is Hermitian and
    satisfies ``Tr[P_i P_j] = 2**n * delta_ij``.  Level n is one broadcast
    product of level n-1 and the single-qubit stack, exact as entries are 0, +-1, +-i.
    """
    _check_n(n)
    stack = np.stack([PAULI_1Q[c] for c in "IXYZ"])
    if n > 1:   # element 4b + a is kron(P_b, P_a): axes (b, a, rows of each, cols of each)
        prev, d = pauli_basis(n - 1), 2**n
        stack = (prev[:, None, :, None, :, None] * stack[:, None, :, None, :]).reshape(-1, d, d)
    stack.flags.writeable = False
    return stack


def _check_n(n):
    if not (1 <= n <= MAX_PAULI_QUBITS):
        raise ValueError(f"qubit count must be in [1, {MAX_PAULI_QUBITS}], got {n}")


def apply(op, qubits, M, n: int) -> np.ndarray:
    """``embed(op, qubits, n) @ M`` without building the full operator.

    ``op`` is ``2**k x 2**k`` with ``k = len(qubits)``; ``M`` has ``2**n``
    rows (a vector or a ``2**n x m`` array) and is not modified.  The
    contraction touches only the ``qubits`` axes of the rows, so it costs
    O(2**k * size(M)) instead of O(4**n * size(M)).  Qubit 0 is the most
    significant bit of the row index.  It is one GEMM of ``op`` with the rows'
    ``qubits`` axes transposed to the front, transposed back into a new array;
    the qubit check and the axis orders are :func:`_axis_order`'s, once per key.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    op = np.asarray(op)
    M = np.asarray(M)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} qubit(s)")
    shape, front, back = _axis_order(qubits, n)
    if M.ndim not in (1, 2) or M.shape[0] != 2**n:
        raise ValueError(f"array shape {M.shape} does not have {2**n} rows")
    T = M.reshape(shape).transpose(front)
    out = op @ T.reshape(2**k, -1)
    return out.reshape(T.shape).transpose(back).reshape(M.shape)


@lru_cache(maxsize=4096)
def _axis_order(qubits, n):
    """The register's shape (n bits, then columns), its axes with ``qubits`` first, and
    the inverse order.  Bad ``qubits`` raise, on every call: lru_cache keeps no exception."""
    if len(set(qubits)) != len(qubits) or any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"bad qubit indices {qubits} for n={n}")
    front = qubits + tuple(a for a in range(n + 1) if a not in qubits)
    return (2,) * n + (-1,), front, tuple(np.argsort(front))


def embed(U, qubits, n: int) -> np.ndarray:
    """Embed an operator acting on ``qubits`` into the full n-qubit space.

    ``U`` must be ``2**k x 2**k`` where ``k = len(qubits)``; qubit 0 is the
    most significant bit of the computational-basis index.  Always returns
    a new array.
    """
    return apply(np.asarray(U, dtype=complex), qubits, np.eye(2**n, dtype=complex), n)
