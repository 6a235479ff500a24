"""Circuit-level passes: hidden-inverse orientation, randomized compiling, SK1.

All passes preserve the noiseless circuit unitary up to a global phase;
they only change how gates are realized (orientations, twirl frames,
composite-pulse expansions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import circuit, gates
from .circuit import Circuit, _gate_superop
from .gates import IDEAL, INVERSE, STANDARD, Gate, NoiseModel


@dataclass(frozen=True)
class ConjugationSite:
    """A matched U . W . U^dag motif: two copies of the same self-adjoint
    composite around a block that does not commute with it.  ``enclosed_angle``
    is None when the block has no virtual Z on the target; the rule reads it as 0."""

    left_index: int
    right_index: int
    enclosed_angle: float | None


@dataclass(frozen=True)
class OrientationRule:
    """Invert the closing composite when ``|enclosed angle| <= threshold``."""

    threshold: float = math.pi / 2

    def __post_init__(self):
        if not (0.0 < self.threshold <= math.pi):
            raise ValueError("threshold must be in (0, pi]")

    def pick_inverse(self, enclosed_angle: float | None) -> bool:
        return abs(gates.wrap_pi(enclosed_angle or 0.0)) <= self.threshold + 1e-15


def find_hidden_inverse_sites(c: Circuit) -> list[ConjugationSite]:
    """Match CNOT composites into conjugation pairs, inner-to-outer.

    A pair (i, j) is a site when both gates are CNOTs on the same
    (control, target) qubits and some enclosed gate sharing a qubit with
    them fails to commute with CNOT (the enclosure is a genuine W).  Pairs
    are matched greedily left-to-right with a stack, so no gate ends up in
    two sites and repetition boundaries pair before crossing them.
    """
    stack: list[int] = []
    sites = []
    for i, g in enumerate(c.gates):
        if g.kind != "cnot":
            continue
        if stack:
            top = stack[-1]
            partner = c.gates[top]
            if partner.qubits == g.qubits and _has_noncommuting_witness(c, top, i):
                stack.pop()
                sites.append(ConjugationSite(top, i, _enclosed_angle(c, top, i)))
                continue
        stack.append(i)
    sites.sort(key=lambda s: s.left_index)
    return sites


def _has_noncommuting_witness(c: Circuit, left: int, right: int) -> bool:
    cn = c.gates[left]
    for g in c.gates[left + 1:right]:
        if set(g.qubits) & set(cn.qubits):
            pos = {q: p for p, q in enumerate(sorted(set(g.qubits) | set(cn.qubits)))}
            a, b, k = _remap(cn, pos), _remap(g, pos), len(pos)
            if np.abs(gates.product([a, b], k, gates.IDEAL)
                      - gates.product([b, a], k, gates.IDEAL)).max() > 1e-9:
                return True
    return False


def _enclosed_angle(c: Circuit, left: int, right: int) -> float | None:
    target = c.gates[left].qubits[1]
    total = None
    for g in c.gates[left + 1:right]:
        if g.kind == "virtual_z" and g.qubits[0] == target:
            total = (total or 0.0) + g.params[0]
    return None if total is None else gates.wrap_pi(total)


def apply_orientation_rule(c: Circuit, rule: OrientationRule = OrientationRule()
                           ) -> tuple[Circuit, list[ConjugationSite]]:
    """Set orientations at every conjugation site: the closing composite is
    inverted when the rule selects the hidden-inverse configuration.
    Gates outside sites are left untouched; the noiseless unitary is
    unchanged either way.  Returns the compiled circuit and its sites."""
    new = list(c.gates)
    sites = find_hidden_inverse_sites(c)
    for site in sites:
        invert = rule.pick_inverse(site.enclosed_angle)
        left, right = c.gates[site.left_index], c.gates[site.right_index]
        new[site.left_index] = gates.cnot(*left.qubits, STANDARD)
        new[site.right_index] = gates.cnot(*right.qubits,
                                           INVERSE if invert else STANDARD)
    return Circuit(c.n, new), sites


# ---------------------------------------------------------------------------
# randomized compiling

_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_PAULI = {v: k for k, v in _PAULI_BITS.items()}


def _cnot_frame(pc: str, pt: str) -> tuple[str, str]:
    """Propagate a Pauli pair through CNOT (X spreads control->target,
    Z spreads target->control); global phases are irrelevant."""
    xc, zc = _PAULI_BITS[pc]
    xt, zt = _PAULI_BITS[pt]
    return _BITS_PAULI[(xc, zc ^ zt)], _BITS_PAULI[(xt ^ xc, zt)]


def randomized_compile(c: Circuit, seed: int) -> Circuit:
    """Pauli-twirl every CNOT composite, deterministically in ``seed``.

    A uniformly random Pauli is placed on each qubit before the composite
    and the exact frame correction after it, so the noiseless unitary is
    preserved up to a global phase.  Twirl Paulis are emitted as frame
    gates (``pauli_*``): corrections merge into the adjacent single-qubit
    layers at zero cost.
    """
    rng = np.random.default_rng(seed)
    new: list[Gate] = []
    for g in c.gates:
        new += _twirled(g, *rng.choice(list(_PAULI_BITS), size=2)) if g.kind == "cnot" else [g]
    return Circuit(c.n, new)


def _twirled(g: Gate, pc: str, pt: str) -> list[Gate]:
    """CNOT ``g`` between Paulis pc, pt on its qubits and their frame correction."""
    (qc, qt), (cc, ct) = g.qubits, _cnot_frame(pc, pt)
    return (gates.pauli(qc, pc) + gates.pauli(qt, pt) + [g]
            + gates.pauli(qc, cc) + gates.pauli(qt, ct))


@lru_cache(maxsize=64)
def _twirled_cnot(orientation: str, nm: NoiseModel) -> np.ndarray:
    """Mean of ``D(W) = W (x) W*`` over the 16 realized twirls W of a CNOT, on (control,
    target) sites that each pair a qubit with its copy.  Memoized, read-only."""
    Ws = [gates.product(_twirled(gates.cnot(0, 1, orientation), p, q), 2, nm).reshape([2] * 4)
          for p in _PAULI_BITS for q in _PAULI_BITS]
    # D(W)[(c c'), (t t'), (b b'), (u u')] = W[c, t, b, u] W*[c', t', b', u']
    D = sum(np.einsum("ctbu,CTBU->cCtTbBuU", W, W.conj()) for W in Ws).reshape(16, 16) / 16
    D.flags.writeable = False
    return D


def twirled_ladder_fidelity(n: int, theta: float, orientations=None,
                            nm: NoiseModel = IDEAL) -> float:
    """Exact mean over :func:`randomized_compile` twirls of ``|Tr[U^dag V]|^2 / 4**n``
    for ``parity_controlled_z(n, theta, orientations)``, in O(n).  It equals
    ``Tr[D(U)^dag D(V)] / 4**n``, and with independent twirls the mean of D(V)
    is the product of every gate's twirl-averaged D."""
    def site_op(g):
        return _twirled_cnot(g.orientation, nm) if g.kind == "cnot" else _gate_superop(g, nm)
    gs = circuit.parity_controlled_z(n, theta, orientations).gates
    return circuit._ladder_trace(theta, gs, site_op).real


# ---------------------------------------------------------------------------
# SK1 composite pulses

_DRIVEN = ("rot1q", "xx")


def sk1_expand(g: Gate) -> list[Gate]:
    """Replace a driven rotation by its SK1 composite.

    The target pulse is followed by two full-loop (2*pi spin angle)
    corrections at phases ``phi +/- phi1`` with ``cos(phi1) = -Theta/(4*pi)``,
    where Theta is the effective spin-1/2 rotation angle (theta for a
    single-qubit rotation, 2*theta for ``exp(-i theta XX)``) and phi the first
    phase; the other phase is kept.  Two-qubit corrections rotate about
    ``cos(phi1) X(x)X + sin(phi1) Y(x)X``, the anticommuting pair realizing
    the one-qubit isomorphism; at pulse level they are MS drives with the
    first ion's phase shifted.  The noiseless product equals the target up to
    a global phase; under common overrotation the first-order error cancels.
    """
    if g.kind not in _DRIVEN:
        raise ValueError(f"sk1_expand applies to rot1q or xx gates, not {g.kind!r}")
    theta, phi, *rest = g.params
    # (full loop, spin angle): a loop of exp(-i theta XX) is theta = pi
    loop, spin = (2 * math.pi, theta) if g.kind == "rot1q" else (math.pi, 2 * theta)
    phi1, build = gates.sk1_phase(spin), gates.BUILDERS[g.kind]
    return [g] + [build(*g.qubits, loop, phi + s * phi1, *rest) for s in (1, -1)]


def flatten_composites(c: Circuit) -> Circuit:
    """Expand every composite (cnot, hadamard) into its native gate sequence."""
    new: list[Gate] = []
    for g in c.gates:
        seq = gates.native_sequence(g)
        new += [g] if seq is None else [_remap(h, g.qubits) for h in seq]
    return Circuit(c.n, new)


def _remap(g: Gate, qubits: tuple[int, ...]) -> Gate:
    return Gate(g.kind, tuple(qubits[q] for q in g.qubits), g.params, g.orientation)


def sk1_compile(c: Circuit) -> Circuit:
    """Flatten composites, then expand every driven rotation with SK1."""
    out: list[Gate] = []
    for g in flatten_composites(c).gates:
        out += sk1_expand(g) if g.kind in _DRIVEN else [g]
    return Circuit(c.n, out)
