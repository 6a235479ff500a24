"""Shared test helpers: independent oracles kept off the library's code paths,
and a random-circuit strategy."""

import math
import os

# one BLAS thread: the small Lindblad GEMMs run slower on two threads of a busy host
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import expm

from hinv import channels, circuit, gates, lindblad
from hinv.analytics import MINUS, PLUS, average_from_entanglement
from hinv.gates import INVERSE, STANDARD, NoiseModel

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)
HADAMARD = (SX + SZ) / np.sqrt(2)


def kron_chain(*ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def expi(H, s=1.0):
    """Independent matrix exponential exp(-i s H) (Pade, not eigh)."""
    return expm(-1j * s * np.asarray(H, dtype=complex))


def rotation(theta, phi):
    """exp(-i theta/2 (cos(phi) X + sin(phi) Y)), the driven single-qubit gate."""
    return expi(math.cos(phi) * SX + math.sin(phi) * SY, theta / 2)


def virtual_z_unitary(theta):
    """exp(-i theta/2 Z), written out as its diagonal."""
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def xx_unitary(theta, phase_a=0.0, phase_b=0.0):
    """exp(-i theta sigma_a (x) sigma_b) in closed form, ``cos(theta) I - i sin(theta)
    sigma_a (x) sigma_b`` (the product squares to I), each axis at its ion's drive phase."""
    G = np.kron(math.cos(phase_a) * SX + math.sin(phase_a) * SY,
                math.cos(phase_b) * SX + math.sin(phase_b) * SY)
    return math.cos(theta) * np.eye(4, dtype=complex) - 1j * math.sin(theta) * G


def parity_target(n, theta):
    """exp(-i theta/2 Z^(x)n); the diagonal of Z^(x)n is the Kronecker product
    of n copies of (1, -1)."""
    z = reduce(np.kron, [np.array([1.0, -1.0])] * n)
    return np.diag(np.exp(-0.5j * theta * z))


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


def pauli_strings(n):
    """The 4**n Pauli strings, lexicographic with I < X < Y < Z, as explicit
    Kronecker products (not qmat.pauli_basis)."""
    return [kron_chain(*ops) for ops in product((I2, SX, SY, SZ), repeat=n)]


def choi_by_definition(R, n):
    """sum_ij R_ij P_i (x) P_j^T / 4**n, one term per nonzero R_ij."""
    P = pauli_strings(n)
    C = np.zeros((4**n, 4**n), dtype=complex)
    for i, j in zip(*np.nonzero(R)):
        C += R[i, j] * np.kron(P[i], P[j].T)
    return C / 4**n


def ptm_by_definition(U):
    """R_ij = Tr[P_i U P_j U^dag] / d, one trace per entry."""
    d = U.shape[0]
    P = pauli_strings(int(round(math.log2(d))))
    return np.array([[np.trace(Pi @ U @ Pj @ U.conj().T).real / d for Pj in P] for Pi in P])


def binomial_phase_identity(n, eps):
    """Both sides of ``sum_w C(n-1,w) e^{-i w eps} = e^{-i(n-1)eps/2} [2 cos(eps/2)]^(n-1)``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lhs = sum(math.comb(n - 1, w) * np.exp(-1j * w * eps) for w in range(n))
    rhs = np.exp(-0.5j * (n - 1) * eps) * (2 * math.cos(eps / 2)) ** (n - 1)
    return complex(lhs), complex(rhs)


def dense_twirled_superop(c, nm):
    """Mean of ``D(V) = V (x) V*`` over uniform Pauli twirls of every CNOT of ``c``:
    the ordered product of each gate's twirl-averaged D on the full register.
    A twirl P before a CNOT is undone by ``C P C^dag`` after it, C the ideal
    CNOT matrix (a Pauli up to a sign, which D drops)."""
    paulis = [np.kron(a, b) for a in (I2, SX, SY, SZ) for b in (I2, SX, SY, SZ)]
    D = np.eye(4**c.n, dtype=complex)
    for g in c.gates:
        V = gates.realize(g, nm)
        twirls = [CNOT4 @ P @ CNOT4.conj().T @ V @ P for P in paulis] if g.kind == "cnot" else [V]
        full = [embed_on(W, g.qubits, c.n) for W in twirls]
        D = sum(np.kron(W, W.conj()) for W in full) / len(full) @ D
    return D


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


_ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def noisy_circuits(draw):
    """A random circuit on n <= 4 qubits with a random noise model, and a
    global depolarizing channel after some of its gates (maybe none)."""
    n = draw(st.integers(1, 4))
    gs = []
    for _ in range(draw(st.integers(0, 8))):
        kinds = ["rot1q", "virtual_z", "hadamard", "pauli_y"]
        if n > 1:
            kinds += ["xx", "cnot"]
        kind = draw(st.sampled_from(kinds))
        k = 2 if kind in gates.TWO_QUBIT_KINDS else 1
        qs = draw(st.permutations(range(n)))[:k]
        if kind == "rot1q":
            gs.append(gates.rot1q(qs[0], draw(_ANGLES), draw(_ANGLES)))
        elif kind == "virtual_z":
            gs.append(gates.virtual_z(qs[0], draw(_ANGLES)))
        elif kind == "xx":
            gs.append(gates.xx(*qs, draw(_ANGLES), draw(_ANGLES), draw(_ANGLES)))
        elif kind == "cnot":
            gs.append(gates.cnot(*qs, draw(st.sampled_from([STANDARD, INVERSE]))))
        elif kind == "hadamard":
            gs.append(gates.hadamard(qs[0]))
        else:
            gs.append(gates.Gate(kind, (qs[0],)))
    small = st.floats(-0.05, 0.05, allow_nan=False)
    nm = NoiseModel(eps_2q=draw(small), eps_1q=draw(small),
                    phi_diff=draw(small), delta_detune=draw(small))
    c = circuit.Circuit(n, gs)
    p = draw(st.floats(0.5, 1.0))
    where = draw(st.sets(st.integers(0, len(gs) - 1), max_size=len(gs))) if gs else set()
    return c, nm, {i: channels.depolarizing_ptm(n, p) for i in where}


# ---------------------------------------------------------------------------
# dense Lindblad references: full collapse operators and the lab-frame H(t),
# drive terms summed from a per-term tone-phase walk; the exact frame
# propagator, and lab-frame RK4 with the rhs K rho + rho K^dag + sum L rho L^dag
# (both valid for any input, Hermitian or not)

def _ladder(nf):
    return np.diag(np.sqrt(np.arange(1, nf, dtype=float)), 1).astype(complex)


def collapse_operators(spec):
    nf = spec.n_fock
    a = _ladder(nf)
    ad = a.conj().T
    IF = np.eye(nf, dtype=complex)
    Ls = []
    if math.isfinite(spec.tau_m):
        Ls.append(math.sqrt(2.0 / spec.tau_m) * kron_chain(I2, I2, ad @ a))
    if spec.gamma_heat > 0:
        g = math.sqrt(spec.gamma_heat)
        Ls.append(g * kron_chain(I2, I2, ad))
        Ls.append(g * kron_chain(I2, I2, a))
    if math.isfinite(spec.tau_l):
        rate = 1.0 / (spec.tau_l * len(spec.modes))
        Ls.append(math.sqrt(rate) * (kron_chain(SZ, I2, IF) + kron_chain(I2, SZ, IF)))
    return Ls


def _tone_phase(spec, mode_index, ion, tone, t):
    """Phi(t) by walking the segment list; tone 0 = red, 1 = blue."""
    acc = 0.0
    elapsed = 0.0
    for seg in spec.segments:
        acc += seg.delta * min(max(t - elapsed, 0.0), seg.duration)
        elapsed += seg.duration
    sign = -1.0 if tone == 0 else 1.0
    return sign * (acc - spec.modes[mode_index].offset * t) + spec.stark[ion] * t


def dense_hamiltonian(spec, mode_index, t):
    a = _ladder(spec.n_fock)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    H = 0
    for ion, sp_full in enumerate([kron_chain(sp, I2), kron_chain(I2, sp)]):
        eta = spec.modes[mode_index].eta[ion]
        for tone, (omega, phi, mode_op) in enumerate(
                [(spec.omega_r[ion], spec.phi_r[ion], a),
                 (spec.omega_b[ion], spec.phi_b[ion], a.conj().T)]):
            H = H + (0.5j * eta * omega * np.exp(1j * phi)
                     * np.exp(-1j * _tone_phase(spec, mode_index, ion, tone, t))
                     * np.kron(sp_full, mode_op))
    return H + H.conj().T


def dense_evolve(rhos, spec, mode_index, steps):
    """RK4 over ``steps`` equal steps of the full schedule, dense operators."""
    Ls = collapse_operators(spec)
    static = -0.5 * sum((L.conj().T @ L for L in Ls), np.zeros((4 * spec.n_fock,) * 2))

    def rhs(t, r):
        K = -1j * dense_hamiltonian(spec, mode_index, t) + static
        return K @ r + r @ K.conj().T + sum(L @ r @ L.conj().T for L in Ls)

    dt = spec.total_time / steps
    r = np.asarray(rhos, dtype=complex)
    for i in range(steps):
        t = i * dt
        k1 = rhs(t, r)
        k2 = rhs(t + dt / 2, r + dt / 2 * k1)
        k3 = rhs(t + dt / 2, r + dt / 2 * k2)
        k4 = rhs(t + dt, r + dt * k3)
        r = r + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


def frame_evolve(rhos, spec, mode_index):
    """Exact evolution in the co-rotating frame: one dense Kronecker-Liouvillian
    exponential (scipy ``expm``) per segment, then ``W(T)`` back to the lab frame.

    ``W(t) = exp(-i[(acc(t) - o t) a^dag a + sum_n s_n t |1><1|_n])`` keeps every
    drive term at its t = 0 coefficient and adds ``-(delta_seg - o) a^dag a -
    sum_n s_n |1><1|_n`` to H, constant within a segment.  Row-major vec:
    ``vec(A rho B) = (A (x) B^T) vec(rho)``.
    """
    nf = spec.n_fock
    D = 4 * nf
    one = np.diag([0.0, 1.0]).astype(complex)
    N = kron_chain(I2, I2, np.diag(np.arange(nf, dtype=complex)))
    P1, P2 = kron_chain(one, I2, np.eye(nf)), kron_chain(I2, one, np.eye(nf))
    ID = np.eye(D)
    Ls = collapse_operators(spec)
    dissipator = sum((np.kron(L, L.conj()) - 0.5 * np.kron(L.conj().T @ L, ID)
                      - 0.5 * np.kron(ID, (L.conj().T @ L).T) for L in Ls),
                     np.zeros((D * D, D * D), dtype=complex))
    offset = spec.modes[mode_index].offset
    v = np.asarray(rhos, dtype=complex).reshape(-1, D * D)
    for seg in spec.segments:
        H = (dense_hamiltonian(spec, mode_index, 0.0) - (seg.delta - offset) * N
             - spec.stark[0] * P1 - spec.stark[1] * P2)
        liouvillian = -1j * (np.kron(H, ID) - np.kron(ID, H.T)) + dissipator
        v = v @ expm(liouvillian * seg.duration).T
    T = spec.total_time
    turn = sum(seg.delta * seg.duration for seg in spec.segments) - offset * T
    W = expi(turn * N + spec.stark[0] * T * P1 + spec.stark[1] * T * P2)
    return W @ v.reshape(np.shape(rhos)) @ W.conj().T


def evolve(rho, spec):
    """One Hermitian matrix through the propagator, as ms_gate_channel evolves a stack."""
    return lindblad._evolve_batch(np.asarray(rho, complex)[None], spec, 0)[0]


def dense_gate_channel(spec):
    """Two-qubit PTM: each mode in turn, tensored in, evolved by the frame
    oracle, traced out."""
    paulis = [I2, SX, SY, SZ]
    P = np.array([np.kron(p, q) for p in paulis for q in paulis])
    nf = spec.n_fock
    boltzmann = (spec.mode_nbar / (1 + spec.mode_nbar)) ** np.arange(nf)  # [1, 0, ...] at nbar 0
    mode = np.diag(boltzmann / boltzmann.sum()).astype(complex)
    spins = P
    for j in range(len(spec.modes)):
        full = np.array([np.kron(s, mode) for s in spins])
        out = frame_evolve(full, spec, j)
        spins = np.einsum("bafcf->bac", out.reshape(-1, 4, nf, 4, nf))
    return np.real(np.einsum("iab,jba->ij", P, spins)) / 4.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
