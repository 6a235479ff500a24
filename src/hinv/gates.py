"""Native trapped-ion gate set, CNOT decompositions, and coherent-error models.

Gate kinds
----------
- ``rot1q``: driven single-qubit rotation ``R(theta, phi) = exp(-i theta/2
  (cos(phi) X + sin(phi) Y))``.
- ``virtual_z``: frame Z rotation ``exp(-i theta/2 Z)``, always noiseless.
- ``xx``: Molmer-Sorensen interaction ``exp(-i theta sigma_a (x) sigma_b)``
  where each factor is an equatorial axis ``sigma_phi = cos(phi) X +
  sin(phi) Y``; per-ion programmed phases default to the XX axis.
- ``hadamard``: a composite, virtual Z(pi) then the driven R(pi/2, pi/2);
  noise applies to the driven part only.
- ``cnot``: a self-adjoint composite carrying an orientation tag.  The
  ``standard`` orientation is a fixed 5-gate native sequence; ``inverse`` is
  that sequence reversed with every angle negated (the driven Hermitian
  conjugate).  Both realize CNOT exactly when noiseless; under angle-
  inverting noise the inverse realizes the exact adjoint of the standard
  gate, which is what hidden-inverse cancellation exploits.
- ``pauli_x/y/z``: frame Paulis used by randomized compiling; realized
  exactly (they stand for corrections merged into adjacent single-qubit
  layers at zero cost).

Each fact about a kind is stated once, here: its shape (``_SHAPES``), its
builder (:data:`BUILDERS`, through which ``circuit.from_text`` parses), its
unitary (:func:`realize`, the one place a gate unitary is built; a gate
sequence on a register is :func:`product` of those), and for a composite its
native sequence (:func:`native_sequence`, which holds the CNOT's standard and
reversed-negated sequences, and which both :func:`realize` and
``compiler.flatten_composites`` expand).

Noise model
-----------
``NoiseModel(eps_2q, eps_1q, phi_diff, delta_detune)``:

- overrotation is multiplicative on the rotation angle, ``theta ->
  (1+eps) * theta``;
- ``phi_diff`` offsets the XX interaction axis on both ions (single-qubit
  gates define the phase frame);
- ``delta_detune`` adds a Z drift term scaled by the pulse duration.  The
  duration is proportional to ``|theta|`` (a negated rotation flips the
  drive phase, not time), so detuning does *not* invert with inverted
  controls -- unlike the other three knobs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qmat
from .qmat import I2, X, Y, Z

STANDARD = "standard"
INVERSE = "inverse"

_PAULI_KINDS = {"pauli_x": X, "pauli_y": Y, "pauli_z": Z}

# gate kind -> (qubit count, parameter count)
_SHAPES = {"rot1q": (1, 2), "virtual_z": (1, 1), "xx": (2, 3), "hadamard": (1, 0),
           "cnot": (2, 0), **{k: (1, 0) for k in _PAULI_KINDS}}

TWO_QUBIT_KINDS = tuple(k for k, (nq, _) in _SHAPES.items() if nq == 2)

SK1_MAX_SPIN_ANGLE = 4 * math.pi

_DRIFT_2Q = np.kron(Z, I2) + np.kron(I2, Z)   # built once: an np.kron call costs ~15 us


class InputError(ValueError):
    """A refused input: ``hinv`` exits 2 on it."""


def checked_number(name, value, kind=float, lo=None, hi=None, strict=False, finite=True):
    """``value`` if it passes the number rule of every input, else the :class:`InputError`
    ``<name> must be <rule>, got <value!r>``.  A bool is never a number; an int passes for a
    float, unless past the float range.  ``finite`` refuses inf, nan and any int past it.  A
    range, ``>= lo`` (``> lo`` if ``strict``) or ``in [lo, hi]``, refuses nan."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        rule = "an integer" if kind is int else "a number"
    elif not abs(value) <= sys.float_info.max and (finite or type(value) is not kind):
        rule = "finite"
    elif not ((lo is None or (lo < value if strict else lo <= value))
              and (hi is None or value <= hi)):
        rule = (f"in {'(' if strict else '['}{lo}, {hi}]" if hi is not None
                else f"{'>' if strict else '>='} {lo}")
    else:
        return value
    raise InputError(f"{name} must be {rule}, got {value!r}")


def wrap_two_pi(theta: float) -> float:
    """Canonicalize an angle to (-2*pi, 2*pi], preserving full 2*pi loops."""
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    # the IEEE remainder is exact, so angles already in range come back unchanged
    t = math.remainder(theta, 4 * math.pi)
    return t + 4 * math.pi if t <= -2 * math.pi else t


def wrap_pi(theta: float) -> float:
    """Wrap an angle to [-pi, pi]."""
    t = math.fmod(theta, 2 * math.pi)
    if t > math.pi:
        t -= 2 * math.pi
    elif t < -math.pi:
        t += 2 * math.pi
    return t


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    orientation: str = STANDARD

    def __post_init__(self):
        shape = _SHAPES.get(self.kind)
        if shape is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (len(self.qubits), len(self.params)) != shape:
            raise ValueError(f"{self.kind} takes {shape[0]} qubit(s) and {shape[1]} "
                             f"angle(s), got {len(self.qubits)} and {len(self.params)}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit indices in {self.qubits}")
        if self.orientation not in ((STANDARD, INVERSE) if self.kind == "cnot" else (STANDARD,)):
            raise ValueError(f"bad orientation {self.orientation!r} for {self.kind}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("angle must be finite")


def rot1q(q: int, theta: float, phi: float) -> Gate:
    return Gate("rot1q", (q,), (wrap_two_pi(theta), float(phi)))


def virtual_z(q: int, theta: float) -> Gate:
    return Gate("virtual_z", (q,), (wrap_two_pi(theta),))


def xx(qa: int, qb: int, theta: float, phase_a: float = 0.0, phase_b: float = 0.0) -> Gate:
    return Gate("xx", (qa, qb), (wrap_two_pi(theta), float(phase_a), float(phase_b)))


def hadamard(q: int) -> Gate:
    return Gate("hadamard", (q,))


def cnot(control: int, target: int, orientation: str = STANDARD) -> Gate:
    return Gate("cnot", (control, target), (), orientation)


def pauli(q: int, label: str) -> list[Gate]:
    """Frame Pauli as a (possibly empty) gate list; label in I/X/Y/Z."""
    label = label.upper()
    if label == "I":
        return []
    if label not in ("X", "Y", "Z"):
        raise ValueError(f"bad Pauli label {label!r}")
    return [Gate("pauli_" + label.lower(), (q,))]


# gate kind -> its builder, called with the qubits and then the parameters
BUILDERS = {"rot1q": rot1q, "virtual_z": virtual_z, "xx": xx, "hadamard": hadamard,
            "cnot": cnot, **{k: lambda q, k=k: Gate(k, (q,)) for k in _PAULI_KINDS}}


@dataclass(frozen=True)
class NoiseModel:
    """Coherent control-error parameters; the zero model is exactly ideal."""

    eps_2q: float = 0.0
    eps_1q: float = 0.0
    phi_diff: float = 0.0
    delta_detune: float = 0.0

    def __post_init__(self):
        for name in ("eps_2q", "eps_1q", "phi_diff", "delta_detune"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


IDEAL = NoiseModel()


def amplitude_to_angle_overrotation(eps_amplitude: float) -> float:
    """Map a Rabi-amplitude miscalibration to the induced MS angle error.

    The MS gate angle is quadratic in the drive amplitude, so a fractional
    amplitude error eps produces an angle overrotation (1+eps)^2 - 1.
    """
    return (1.0 + eps_amplitude) ** 2 - 1.0


def sk1_phase(spin_angle: float) -> float:
    """SK1 correction phase ``phi1``, ``cos(phi1) = -spin_angle/(4*pi)``."""
    if abs(spin_angle) > SK1_MAX_SPIN_ANGLE:
        raise ValueError(
            f"spin angle {spin_angle} exceeds 4*pi; SK1 correction phase undefined")
    return math.acos(-spin_angle / (4 * math.pi))


def _axis(phi: float) -> np.ndarray:
    return math.cos(phi) * X + math.sin(phi) * Y


def native_sequence(g: Gate) -> list[Gate] | None:
    """The native gates of composite ``g`` on its local qubits, or None for a native gate.

    A CNOT's standard sequence is the fixed 5-gate decomposition (local qubit
    0 the control, 1 the target); its inverse is that sequence reversed with
    every angle negated, matching a 180-degree shift of the drive phases.
    """
    if g.kind == "cnot":
        seq = [rot1q(0, math.pi / 2, math.pi / 2), xx(0, 1, math.pi / 4),
               rot1q(0, -math.pi / 2, 0.0), rot1q(1, -math.pi / 2, 0.0),
               rot1q(0, -math.pi / 2, math.pi / 2)]
        return seq if g.orientation == STANDARD else [_negated(h) for h in reversed(seq)]
    if g.kind == "hadamard":   # virtual Z(pi), then the driven R(pi/2, pi/2)
        return [virtual_z(0, math.pi), rot1q(0, math.pi / 2, math.pi / 2)]
    return None


def _negated(g: Gate) -> Gate:
    """Native ``g`` with its angle negated, its phases kept."""
    theta, *rest = g.params
    return Gate(g.kind, g.qubits, (wrap_two_pi(-theta), *rest))


def realize(g: Gate, nm: NoiseModel = IDEAL) -> np.ndarray:
    """The unitary actually implemented for ``g`` under the noise model.

    Returned on the gate's local qubits (2x2 or 4x4); composites are the
    ordered product of their realized native gates.  Memoized on ``(kind, params,
    orientation, nm)``, not the qubits, so the result is shared and read-only.
    """
    return _realized(g.kind, g.params, g.orientation, nm)


@lru_cache(maxsize=4096)
def _realized(kind: str, params: tuple, orientation: str, nm: NoiseModel) -> np.ndarray:
    U = _build(Gate(kind, tuple(range(_SHAPES[kind][0])), params, orientation), nm)
    U.flags.writeable = False
    return U


def _build(g: Gate, nm: NoiseModel) -> np.ndarray:
    seq = native_sequence(g)
    if seq is not None:
        return product(seq, len(g.qubits), nm)
    k = g.kind
    if k == "rot1q":
        theta, phi = g.params
        G = theta * (1 + nm.eps_1q) * _axis(phi) + nm.delta_detune * abs(theta) * Z
        return qmat.herm_exp(G, 0.5)
    if k == "virtual_z":
        return np.diag([np.exp(-0.5j * g.params[0]), np.exp(0.5j * g.params[0])])
    if k in _PAULI_KINDS:
        return _PAULI_KINDS[k]
    theta, pa, pb = g.params   # xx: Gate admits no other kind
    G = (theta * (1 + nm.eps_2q) * np.kron(_axis(pa + nm.phi_diff), _axis(pb + nm.phi_diff))
         + nm.delta_detune * abs(theta) / 2 * _DRIFT_2Q)
    return qmat.herm_exp(G, 1.0)


def product(seq, n: int, nm: NoiseModel) -> np.ndarray:
    """Ordered product of the realized gates of ``seq`` on an n-qubit register."""
    U = np.eye(2**n, dtype=complex)
    for g in seq:
        U = qmat.apply(realize(g, nm), g.qubits, U, n)
    return U
