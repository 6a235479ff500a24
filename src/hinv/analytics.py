"""Closed-form fidelity expressions for parity-controlled rotation circuits.

Two coherent-error models are covered, each with its own functions that are
never mixed in one evaluation:

1. the MS overrotation model (every two-qubit XX pulse overrotated by the
   same fraction): :func:`closed_form_fe` is the standard per-conjugation-
   pair power form; :func:`exact_ladder_fe` is the exact result for the
   nested ladder, a binomial average over control-parity sectors.  The two
   agree exactly for n=2 and to O(eps^2) for all n; because the conjugation
   pairs share the target qubit, the power form trails the exact normalized
   trace by C(n-1, 2) * sin^4(pi*eps/4) * sin^2(theta) to leading order, one
   such term per pair of controls (3 at n=4, 10 at n=6).
2. a toy model whose error generator is the CNOT itself,
   ``exp(-i eps/2 CNOT)``: :func:`cnot_hamiltonian_fe` evaluates its
   binomial trace sum.

Orientation convention: ``"plus"`` is the hidden-inverse configuration,
``"minus"`` the standard one.
"""

from __future__ import annotations

import math
import numpy as np

PLUS = "plus"
MINUS = "minus"


def _sign(n: int, orientation: str) -> int:
    """The sign of a closed form's orientation term, after checking its width."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if orientation == PLUS:
        return 1
    if orientation == MINUS:
        return -1
    raise ValueError(f"orientation must be 'plus' or 'minus', got {orientation!r}")


def entanglement_fidelity(U, V) -> float:
    """``|Tr[U^dag V]|^2 / 4**n`` for equal-dimension unitaries."""
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != V.shape:
        raise ValueError(f"dimension mismatch: {U.shape} vs {V.shape}")
    d = U.shape[0]
    # Tr[U^dag V] is the elementwise inner product; no matrix product needed
    return float(abs(np.vdot(U, V)) ** 2 / d**2)


def average_from_entanglement(f_e: float, n: int) -> float:
    """Average gate fidelity ``(2**n f_e + 1) / (2**n + 1)``."""
    d = 2**n
    return (d * f_e + 1.0) / (d + 1.0)


def closed_form_fe(theta: float, eps: float, n: int, orientation: str) -> float:
    """Per-pair power form ``[cos^2(pi eps/4) +/- sin^2(pi eps/4) cos(theta)]^(2(n-1))``.

    Exact for n=2; the independent-pair approximation of
    :func:`exact_ladder_fe` for larger n.
    """
    s = _sign(n, orientation)
    w = math.pi * eps / 4
    # cos^2 w + s sin^2 w cos(theta), written so the cancellation points are exact
    base = 1.0 - math.sin(w) ** 2 * (1.0 - s * math.cos(theta))
    return base ** (2 * (n - 1))


def exact_ladder_fe(theta: float, eps: float, n: int, orientation: str) -> float:
    """Exact entanglement fidelity of the overrotated-MS parity ladder.

    Every conjugated MS error commutes into the center of the circuit, where
    the joint action on the shared target splits over control-parity
    sectors:

        tau = 2**(1-n) sum_w C(n-1, w) [cos^2(m w') +/- sin^2(m w') cos(theta)],

    with ``m = n-1-2w`` and ``w' = pi*eps/4``; the fidelity is ``tau**2``.
    """
    s = _sign(n, orientation)
    wp = math.pi * eps / 4
    tau = 0.0
    for w in range(n):
        m = (n - 1) - 2 * w
        tau += math.comb(n - 1, w) * (
            1.0 - math.sin(m * wp) ** 2 * (1.0 - s * math.cos(theta))
        )
    tau /= 2 ** (n - 1)
    return tau**2


def small_angle_drop(n: int, eps: float, deviation: float, correct: bool) -> float:
    """Leading-order infidelity near the ideal cancellation points.

    For a small angle deviation around theta = 0 (or pi with the roles of
    the configurations swapped): the correct sequence choice loses
    ``(n-1)(pi/4)^2 eps^2 deviation^2``, the incorrect one
    ``(n-1)(pi/4)^2 eps^2 (4 - deviation^2)``.
    """
    scale = (n - 1) * (math.pi / 4) ** 2 * eps**2
    if correct:
        return scale * deviation**2
    return scale * (4.0 - deviation**2)


def cnot_hamiltonian_fe(theta: float, eps: float, n: int, orientation: str) -> float:
    """Entanglement fidelity under the CNOT-generator error model.

    Each conjugating CNOT is implemented as ``exp(-+i eps/2 CNOT) CNOT``;
    the trace against the ideal parity rotation reduces over target-register
    bit strings of Hamming weight w to

        Tr[U^dag V_pm] = sum_w C(n-1,w) e^{-i (n-1-w) eps/2 (-1 +/- 1)} B_pm(w, theta),
        B_pm(w, theta) = 2 (cos^2(w eps/2) +/- cos(theta) sin^2(w eps/2)),

    and the fidelity is ``|Tr|^2 / 4**n``.
    """
    s = _sign(n, orientation)
    tr = 0.0 + 0.0j
    for w in range(n):
        B = 2.0 * (math.cos(w * eps / 2) ** 2
                   + s * math.cos(theta) * math.sin(w * eps / 2) ** 2)
        tr += math.comb(n - 1, w) * np.exp(-0.5j * (n - 1 - w) * eps * (-1 + s)) * B
    return float(abs(tr) ** 2 / 4**n)
