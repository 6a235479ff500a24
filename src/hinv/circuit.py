"""Circuit IR, parity-controlled-rotation builders, and exact execution.

Two simulators, each its own loop, must agree: :func:`run_density` steps
the density matrix through the realized gate unitaries, and :func:`run_ptm`
steps the Pauli vector through each gate's PTM, which is how long circuits
with pre-characterized gates are simulated cheaply.  Both apply attached
stochastic channels as Pauli transfer matrices.

:func:`ladder_overlap` takes the arguments of :func:`parity_controlled_z`
and contracts that realized ladder against ``exp(-i theta/2 Z^(x)n)`` in
O(n) 2x2 transfer steps (4x4 for ``compiler.twirled_ladder_fidelity``), with
no dense operator; :func:`unitary_of` is its oracle.

The plain-text serialization is line oriented, one gate per line:

    qubits <n>
    rot1q <q> <theta> <phi>
    virtual_z <q> <theta>
    xx <qa> <qb> <theta> [<phase_a> <phase_b>]
    hadamard <q>
    cnot <control> <target> [standard|inverse]
    pauli_x <q>            (same for pauli_y / pauli_z)

A gate line is built by its kind's builder in ``gates.BUILDERS``, so it is
checked and canonicalized exactly as in code; omitted phases and
orientation take the builder's defaults.  Floats are written with repr so
parse(print(c)) == c exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import channels, gates, qmat
from .gates import IDEAL, INVERSE, STANDARD, Gate, NoiseModel

HIDDEN_INVERSE = "hidden"

# largest 2**n for which unitary_of and run_density build a dense operator;
# the n <= 10 cap on sweeps (cli._MAX_WIDTH) is a schema rule, not this cost limit
MAX_DENSE_DIM = 1024


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if not all(0 <= q < self.n for q in g.qubits):
                raise ValueError(f"gate {g} has a qubit outside [0, {self.n})")


def parity_controlled_z(n: int, theta: float, orientations=None) -> Circuit:
    """CNOT ladder onto qubit n-1, a virtual Z(theta), and the return ladder.

    ``orientations`` lists the orientation of all 2(n-1) CNOTs in temporal
    order (defaults to all standard).  The noiseless unitary equals
    ``exp(-i theta/2 Z^(x)n)`` up to a global phase for any orientation
    assignment.
    """
    if n < 2:
        raise ValueError("parity-controlled rotation needs n >= 2")
    theta = gates.wrap_pi(theta)
    if orientations is None:
        orientations = [STANDARD] * (2 * (n - 1))
    orientations = list(orientations)
    if len(orientations) != 2 * (n - 1):
        raise ValueError(f"need {2 * (n - 1)} orientations, got {len(orientations)}")
    gs = []
    for j in range(n - 1):
        gs.append(gates.cnot(j, n - 1, orientations[j]))
    gs.append(gates.virtual_z(n - 1, theta))
    for i, j in enumerate(reversed(range(n - 1))):
        gs.append(gates.cnot(j, n - 1, orientations[n - 1 + i]))
    return Circuit(n, gs)


def repeated_block_circuit(n: int, theta: float, reps: int, config: str = STANDARD) -> Circuit:
    """Hadamard sandwich around ``reps`` parity-controlled-Z blocks.

    ``config``: ``"hidden"`` inverts every return-ladder CNOT, ``"standard"``
    leaves all CNOTs in the standard orientation.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if config not in (HIDDEN_INVERSE, STANDARD):
        raise ValueError(f"bad config {config!r}")
    closing = INVERSE if config == HIDDEN_INVERSE else STANDARD
    block = parity_controlled_z(n, theta, [STANDARD] * (n - 1) + [closing] * (n - 1))
    sandwich = tuple(gates.hadamard(q) for q in range(n))
    return Circuit(n, sandwich + block.gates * reps + sandwich)


def ladder_overlap(n: int, theta: float, orientations=None,
                   nm: NoiseModel = IDEAL) -> complex:
    """``Tr[U^dag V] / 2**n`` in O(n), for ``U = exp(-i theta/2 Z^(x)n)`` and
    the realized product ``V`` of ``parity_controlled_z(n, theta, orientations)``.
    :func:`unitary_of` is its dense oracle."""
    gs = parity_controlled_z(n, theta, orientations).gates
    return _ladder_trace(theta, gs, lambda g: gates.realize(g, nm))


def _ladder_trace(theta: float, gs, site_op) -> complex:
    """``Tr[W^dag L] / d**n``, gate g of the ladder ``gs`` acting as ``site_op(g)`` on
    qubits (d = 2, W = U) or qubit-and-copy pairs (d = 4, W = U (x) U*), for
    ``U^dag = c I + i s Z^(x)n`` (c, s = cos, sin of theta/2).  W^dag sums products
    S of diagonal site operators, and site j meets only its gates A_j and B_j,
    so ``Tr[S L]`` is a chain of d x d transfer matrices on the target,
    ``T_j = Tr_j[(S_j (x) I) B_j (I (x) T_j+1) A_j] / d``, from the middle gate."""
    n = (len(gs) + 1) // 2
    op = [site_op(g) for g in gs]
    d = len(op[n - 1])
    # sign[s, b] = <b|S_j|b> and w[s] its weight: I, Z on a qubit; their pairs on two
    sign = np.array([[1.0, 1.0], [1.0, -1.0]])
    w = np.array([np.cos(theta / 2), 1j * np.sin(theta / 2)])
    if d == 4:
        sign, w = np.kron(sign, sign), np.kron(w, w.conj())
    T = np.stack([op[n - 1]] * len(sign))
    for j in reversed(range(n - 1)):
        T = np.einsum("sa,atbu,suv,bvaw->stw", sign, op[-1 - j].reshape((d,) * 4), T,
                      op[j].reshape((d,) * 4)) / d
    return complex((w * np.einsum("sa,saa->s", sign, T)).sum() / d)


def unitary_of(c: Circuit, nm: NoiseModel = IDEAL) -> np.ndarray:
    """Ordered product of the realized gates on the full register."""
    _check_width(c)
    return gates.product(c.gates, c.n, nm)


def _check_width(c: Circuit, width: int = MAX_DENSE_DIM.bit_length() - 1,
                 what: str = "dense") -> None:
    """Refuse a register past ``width`` qubits before ``2**c.n``, slow for a huge n, is built."""
    if c.n > width:
        raise ValueError(f"{c.n} qubits exceed the {what} limit of {width} qubits")


def run_density(c: Circuit, nm: NoiseModel = IDEAL, channel_map=None) -> np.ndarray:
    """Z-basis probabilities of |0..0> evolved through the noisy circuit.

    ``channel_map`` maps a gate index to a PTM applied right after that
    gate (how stochastic channels are attached to gates).  Raises
    ``ValueError`` on non-CPTP channels or dimension mismatch.  The density
    matrix is a row-major vector on 2n bits: bits 0..n-1 index its rows and
    bits n..2n-1 its columns, so a gate acts as its memoized U (x) conj(U)
    (:func:`_gate_superop`) on its row and column bits.
    """
    _check_width(c)
    channel_map = _checked_channels(c, channel_map)
    n, dim = c.n, 2**c.n
    state = np.eye(1, dim * dim, dtype=complex)[0]   # |0..0><0..0|
    for i, g in enumerate(c.gates):
        bits = g.qubits + tuple(n + q for q in g.qubits)
        state = qmat.apply(_gate_superop(g, nm), bits, state, 2 * n)
        if i in channel_map:
            state = channels.apply_ptm(channel_map[i], state.reshape(dim, dim)).reshape(-1)
    return _probabilities(state.reshape(dim, dim))


def run_ptm(c: Circuit, nm: NoiseModel = IDEAL, channel_map=None) -> np.ndarray:
    """Same output as :func:`run_density`, stepping the Pauli vector ``Tr[P_i rho]``.

    In lexicographic order qubit q's Pauli digit is bits (2q, 2q+1), so a
    gate acts as the PTM of its realized unitary on those bits.
    """
    _check_width(c, qmat.MAX_PAULI_QUBITS, "Pauli-vector")
    channel_map = _checked_channels(c, channel_map)
    state = channels.pauli_vector(np.eye(1, 4**c.n).reshape(2**c.n, -1), c.n)
    for i, g in enumerate(c.gates):
        bits = tuple(b for q in g.qubits for b in (2 * q, 2 * q + 1))
        state = qmat.apply(_gate_ptm(g, nm), bits, state, 2 * c.n)
        if i in channel_map:
            state = channel_map[i].mat @ state
    return _probabilities(channels.matrix_from_pauli_vector(state, c.n))


def _probabilities(rho: np.ndarray) -> np.ndarray:
    """The diagonal of ``rho``, refused if its sum has drifted from 1."""
    probs = np.real(np.diag(rho)).copy()
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probability normalization drifted to {total}")
    return probs


def _gate_ptm(g: Gate, nm: NoiseModel) -> np.ndarray:
    """``gates.realize(g, nm)``'s read-only PTM, memoized on (kind, params, orientation, nm)."""
    return _local_ptm(g.kind, g.params, g.orientation, nm)


@lru_cache(maxsize=4096)
def _local_ptm(kind: str, params: tuple, orientation: str, nm: NoiseModel) -> np.ndarray:
    return channels.ptm_of_unitary(gates._realized(kind, params, orientation, nm)).mat


def _gate_superop(g: Gate, nm: NoiseModel) -> np.ndarray:
    """``U (x) conj(U)`` of ``gates.realize(g, nm)``, read-only, memoized as :func:`_gate_ptm`."""
    return _local_superop(g.kind, g.params, g.orientation, nm)


@lru_cache(maxsize=4096)
def _local_superop(kind: str, params: tuple, orientation: str, nm: NoiseModel) -> np.ndarray:
    U = gates._realized(kind, params, orientation, nm)   # one broadcast product, as np.kron
    D = (U[:, None, :, None] * U.conj()[None, :, None, :]).reshape(len(U) ** 2, -1)
    D.flags.writeable = False
    return D


def channels_after_two_qubit(c: Circuit, ptm) -> dict:
    """Channel map attaching ``ptm`` after every two-qubit gate."""
    return {i: ptm for i, g in enumerate(c.gates) if g.kind in gates.TWO_QUBIT_KINDS}


def _checked_channels(c: Circuit, channel_map) -> dict:
    if not channel_map:
        return {}
    # the object that channels_after_two_qubit attaches at every gate is
    # checked once, at its first index; every index is range-checked
    checked = set()
    for i, R in channel_map.items():
        if not (0 <= i < len(c.gates)):
            raise ValueError(f"channel index {i} out of range")
        if id(R) in checked:
            continue
        checked.add(id(R))
        if R.n != c.n:
            raise ValueError(f"channel on {R.n} qubits attached to {c.n}-qubit circuit")
        if not channels.is_cptp(R):
            raise ValueError(f"channel at gate {i} is not CPTP")
    return dict(channel_map)


# ---------------------------------------------------------------------------
# plain-text serialization

def to_text(c: Circuit) -> str:
    lines = [f"qubits {c.n}"]
    for g in c.gates:  # only a cnot carries an orientation
        parts = [g.kind, *map(str, g.qubits), *map(repr, g.params)]
        lines.append(" ".join(parts + [g.orientation] * (g.kind == "cnot")))
    return "\n".join(lines) + "\n"


class CircuitParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")


# line keyword -> accepted argument counts
_ARITY = {"qubits": (1,), "rot1q": (3,), "virtual_z": (2,), "xx": (3, 5),
          "hadamard": (1,), "cnot": (2, 3), "pauli_x": (1,), "pauli_y": (1,),
          "pauli_z": (1,)}


def from_text(text: str) -> Circuit:
    n = None
    gs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind, args = tok[0], tok[1:]
        try:
            if kind not in _ARITY:
                raise ValueError(f"unknown gate kind {kind!r}")
            if len(args) not in _ARITY[kind]:
                counts = " or ".join(str(k) for k in _ARITY[kind])
                raise ValueError(f"{kind} takes {counts} argument(s), got {len(args)}")
            if kind == "qubits":
                if n is not None:
                    raise ValueError("second 'qubits' header")
                n = int(args[0])
                if n > sys.float_info.max:   # as lindblad refuses a pulse field
                    raise ValueError(f"qubits must be finite, got {n}")
            else:   # qubits, angles, then words (a cnot's orientation)
                nq, na = gates._SHAPES[kind]
                gs.append(gates.BUILDERS[kind](*map(int, args[:nq]),
                                               *map(float, args[nq:nq + na]), *args[nq + na:]))
        except ValueError as exc:
            raise CircuitParseError(lineno, str(exc)) from exc
    if n is None:
        raise CircuitParseError(0, "missing 'qubits <n>' header")
    return Circuit(n, gs)


def write_file(c: Circuit, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(c))


def read_file(path) -> Circuit:
    with open(path) as fh:
        return from_text(fh.read())
