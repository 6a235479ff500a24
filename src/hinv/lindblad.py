"""Pulse-level MS gate simulation: bichromatic drive + Lindblad dissipation.

The Hamiltonian per motional mode is the bichromatic sideband drive

    H(t) = (i/2) sum_n eta_n sigma+_n ( Omega_r,n a e^{i phi_r,n - i Phi_r(t)}
                                      + Omega_b,n a^dag e^{i phi_b,n - i Phi_b(t)} ) + h.c.

with tone phases Phi accumulated through a piecewise-constant detuning
schedule (FM segments), per-mode frequency offsets, and per-ion Stark
offsets.  Dissipation follows the Lindblad master equation with collapse
operators for motional dephasing ``sqrt(2/tau_m) a^dag a``, heating
``sqrt(Gamma) a^dag`` / ``sqrt(Gamma) a``, and collective laser dephasing
``sqrt(1/tau_l) (Z_1 + Z_2)``.

Modes are simulated sequentially: the two spins are tensored with one
mode's (ground or thermal) state, evolved over the full schedule, and the
mode is traced out before the next round.  Laser dephasing is shared
evenly across the mode rounds so its total integrated rate is correct.

A spin-phase convention ``phi_r = phi_b = psi - pi/2`` makes ion ``n``
couple along ``sigma_psi = cos(psi) X + sin(psi) Y``; with balanced tones,
symmetric detuning ``+/- delta``, and ``K`` closed loops the propagator is
exactly ``exp(-i theta XX)`` with ``theta = 4 pi K (eta Omega / 2)^2 /
delta^2`` (the Magnus series terminates), which :func:`xx_gate_spec` uses
for calibration.

Each mode round is exact.  In the frame ``W(t) = exp(-i[(acc(t) - o t)
a^dag a + sum_n s_n t |1><1|_n])`` (``acc`` the accumulated segment
detuning, ``o`` the mode offset, ``s_n`` ion n's Stark offset) every drive
term keeps its t = 0 coefficient, H gains ``-(delta_seg - o) a^dag a -
sum_n s_n |1><1|_n`` and no dissipator changes, so the generator is
constant within a segment.  Each segment is one Chebyshev action of the
Jacobi-Anger series ``e^A = J_0(R) + 2 sum_k J_k(R) i^k T_k(A / iR)`` (Tal-Ezer
& Kosloff, J. Chem. Phys. 81, 3967 (1984)), its degree a rigorous a-priori
bound from the spectral width of H and a bound on the dissipator (see
:func:`_frame_generator`); a strongly damped or very long segment is split
into equal actions.  An elementwise ``W(T)`` phase then returns to the lab
frame.  A spec predicted to take more than ``MAX_SERIES_WORK`` operator
applications a round is refused when built.  The generator and each
collapse operator respect the parity
``Pi = Z_1 Z_2 (-1)^{a^dag a}``, so a matrix is an even part (sector blocks
ee, oo) plus an odd part (eo, oe), and only nonzero parts are evolved.  An
operator application is ``X + X^dag + D(rho)``, with ``X = rho_k G_k`` one
real GEMM per column sector k of ``G = iH + S``, ``S = -(1/2) sum L^dag L``, and
``D(rho) = sum L rho L^dag`` elementwise.  ``X^dag`` stands in for ``G^dag
rho`` only for Hermitian rho, which :func:`ms_gate_channel` always passes;
the series recurrence has real coefficients, so every term stays Hermitian.

If each per-ion pair (``omega_r``, ``omega_b``, ``phi_r``, ``phi_b``, ``stark``,
each ``eta``) is equal, the pulse and each collapse operator are invariant under
the ion swap S: :func:`ms_gate_channel` evolves the 10 inputs ``P_a (x) P_b``, a <= b,
and takes the other 6 as ``S Lambda(P_b (x) P_a) S``.  SK1's loops at ``(+-phi1,
0)`` are not symmetric, so :func:`sk1_loop` derives both from the loop at (0, 0).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict

import numpy as np

from . import gates, qmat
from .channels import PTM, ptm_of_unitary

DEFAULT_N_FOCK = 13
MAX_SERIES_WORK = 60_000     # Chebyshev operator applications per mode round
# the retired RK4 step rule's default: only perfbench/ reaches it and _n_steps
DEFAULT_STEPS_PER_PERIOD = 400


@dataclass(frozen=True)
class Segment:
    duration: float          # s
    delta: float             # symmetric detuning during the segment, rad/s

    def __post_init__(self):
        _numbers(self, "duration", "delta")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration!r}")


def _number(name: str, value, per_ion=False, finite=True):
    """``value`` checked as the pulse field ``name``: a number, or with ``per_ion``
    one number per ion, returned as a tuple of two.  A bool is not a number here:
    JSON ``true`` would pass as 1.  An int too large for a float is refused, and
    unless ``finite`` is False, inf and nan are too.  Each refusal names the field."""
    values = tuple(value) if per_ion and isinstance(value, (list, tuple)) else (value,)
    if per_ion and len(values) != 2:
        raise ValueError(f"{name} needs one value per ion, got {len(values)}")
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{name} must be a number, got {x!r}")
        if isinstance(x, int) and abs(x) > sys.float_info.max or finite and not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    return values if per_ion else value


def _numbers(spec, *names, **rule) -> None:
    """Check each named field of a frozen spec by :func:`_number`, keeping what it returns."""
    for name in names:
        object.__setattr__(spec, name, _number(name, getattr(spec, name), **rule))


@dataclass(frozen=True)
class ModeSpec:
    eta: tuple[float, float]          # Lamb-Dicke parameter per ion
    offset: float = 0.0               # mode frequency offset from reference, rad/s

    def __post_init__(self):
        _numbers(self, "eta", per_ion=True)
        _numbers(self, "offset")


@dataclass(frozen=True)
class LindbladSpec:
    omega_r: tuple[float, float]      # red-sideband Rabi rate per ion, rad/s
    omega_b: tuple[float, float]      # blue-sideband Rabi rate per ion, rad/s
    phi_r: tuple[float, float]        # red tone phase per ion, rad
    phi_b: tuple[float, float]        # blue tone phase per ion, rad
    modes: tuple[ModeSpec, ...]
    segments: tuple[Segment, ...]
    stark: tuple[float, float] = (0.0, 0.0)   # per-ion detuning offset, rad/s
    tau_m: float = math.inf           # motional coherence time, s
    gamma_heat: float = 0.0           # heating rate, quanta/s
    tau_l: float = math.inf           # laser coherence time, s
    n_fock: int = DEFAULT_N_FOCK
    mode_nbar: float = 0.0            # thermal occupation of the initial mode state

    def __post_init__(self):
        _numbers(self, "omega_r", "omega_b", "phi_r", "phi_b", "stark", per_ion=True)
        _numbers(self, "gamma_heat", "mode_nbar")
        _numbers(self, "tau_m", "tau_l", finite=False)   # inf: no decoherence
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "segments", tuple(self.segments))
        if not isinstance(self.n_fock, int) or self.n_fock < 2:
            raise ValueError(f"n_fock must be an integer >= 2, got {self.n_fock!r}")
        _number("n_fock", self.n_fock)
        if not self.modes or not self.segments:
            raise ValueError("need at least one mode and one segment")
        for name, bound in (("gamma_heat", ">="), ("mode_nbar", ">="), ("tau_m", ">"), ("tau_l", ">")):
            value = getattr(self, name)
            if not (value >= 0 if bound == ">=" else value > 0):
                raise ValueError(f"{name} must be {bound} 0, got {value!r}")
        # built once, refusing a round over MAX_SERIES_WORK now; _evolve_batch reads them
        object.__setattr__(self, "_rounds", tuple(_frame_generator(self, j)
                                                  for j in range(len(self.modes))))

    @property
    def total_time(self) -> float:
        return sum(s.duration for s in self.segments)


def xx_gate_spec(theta: float = math.pi / 4, delta: float = 2 * math.pi * 20e3,
                 loops: int = 1, eta: float = 0.1, n_fock: int = DEFAULT_N_FOCK,
                 amp_scale: float = 1.0, spin_phases: tuple[float, float] = (0.0, 0.0),
                 tau_m: float = math.inf, gamma_heat: float = 0.0,
                 tau_l: float = math.inf, mode_nbar: float = 0.0) -> LindbladSpec:
    """Calibrated single-mode spec realizing ``exp(-i theta sigma_psi1 sigma_psi2)``.

    ``amp_scale`` multiplies both tone amplitudes on both ions (an
    amplitude miscalibration; the gate angle scales quadratically with it).
    """
    for key, value in dict(theta=theta, delta=delta, eta=eta, amp_scale=amp_scale).items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)  # JSON true is 1
        if not (number and 0 < value <= sys.float_info.max):
            raise ValueError(f"{key} must be a finite number > 0, got {value!r}")
    if type(loops) is not int or loops < 1:
        raise ValueError(f"loops must be an integer >= 1, got {loops!r}")
    _number("loops", loops)
    phases = tuple(x - math.pi / 2 for x in _number("spin_phases", spin_phases, per_ion=True))
    T = 2 * math.pi * loops / delta
    f = delta * math.sqrt(theta / (4 * math.pi * loops))
    omega = 2 * f / eta * amp_scale
    return LindbladSpec(
        omega_r=(omega, omega), omega_b=(omega, omega), phi_r=phases, phi_b=phases,
        modes=(ModeSpec(eta=(eta, eta)),),
        segments=(Segment(T, delta),),
        tau_m=tau_m, gamma_heat=gamma_heat, tau_l=tau_l,
        n_fock=n_fock, mode_nbar=mode_nbar,
    )


def sk1_pulse_specs(theta: float = math.pi / 4, **kw) -> list[LindbladSpec]:
    """Pulse-level SK1 for an XX target: [target, loop at spin phases (0, 0)].

    The loop pulse has generator angle pi (spin angle 2*pi) and runs 4x
    longer at the same drive strength; :func:`sk1_loop` derives the channels
    of SK1's loop(+phi1) and loop(-phi1) pulses from its channel.
    """
    return [xx_gate_spec(theta, **kw), xx_gate_spec(math.pi, loops=4, **kw)]


def sk1_loop(loop: PTM, phase: float) -> PTM:
    """Channel of an SK1 loop at spin phases ``(phase, 0)`` from that of the loop at (0, 0).

    Shifting ion 0's spin phase by ``phase`` conjugates H(t) by the Z rotation
    ``U = virtual_z(phase) (x) I``, and every collapse operator commutes with
    U, so the channel is exactly ``V R V^T`` with ``V`` the PTM of U.
    """
    V = ptm_of_unitary(np.kron(gates.virtual_z_unitary(phase), np.eye(2))).mat
    return PTM(2, V @ loop.mat @ V.T)


# ---------------------------------------------------------------------------
# operators

def _drive_ops(spec: LindbladSpec, mode_index: int) -> np.ndarray:
    """The ``sigma+`` half of the drive, one (D, D) operator in the basis order
    ``(s1, s2, n)``: H's drive is it plus its adjoint.  It sums the four terms
    (ion 0 red, ion 0 blue, ion 1 red, ion 1 blue) in that order, each at its t = 0
    coefficient, which the co-rotating frame keeps.
    """
    nf = spec.n_fock
    a = np.diag(np.sqrt(np.arange(1, nf, dtype=float)), 1).astype(complex)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
    I2 = np.eye(2, dtype=complex)
    ops = []
    for ion in (0, 1):
        sp_full = qmat.kron([sp, I2] if ion == 0 else [I2, sp])
        eta = spec.modes[mode_index].eta[ion]
        for omega, phi, mode_op in [(spec.omega_r[ion], spec.phi_r[ion], a),
                                    (spec.omega_b[ion], spec.phi_b[ion], a.T)]:
            ops.append(0.5j * eta * omega * np.exp(1j * phi) * np.kron(sp_full, mode_op))
    return np.sum(ops, axis=0)


def _n_steps(spec: LindbladSpec, steps_per_period: int) -> int:
    """RK4 steps per mode round of the retired integrator; only perfbench/ reaches it."""
    if steps_per_period < 1:
        raise ValueError(f"steps_per_period must be >= 1, got {steps_per_period}")
    period = 2 * math.pi / max(
        1.0 / spec.total_time,
        *(x for seg in spec.segments for mode in spec.modes for ion in (0, 1)
          for x in (abs(seg.delta - mode.offset) + abs(spec.stark[ion]),
                    mode.eta[ion] * max(spec.omega_r[ion], spec.omega_b[ion]))))
    return max(50, math.ceil(spec.total_time / period * steps_per_period))


def _bessel(x: float, n: int) -> np.ndarray:
    """``J_0(x), ..., J_n(x)`` for x > 0: Miller's backward recurrence from well
    past both n and the turning point x, normalised by ``J_0 + 2 sum J_2k = 1``."""
    m = max(n, math.ceil(x + 14 * x ** (1 / 3))) + 20
    j = np.zeros(m + 2)
    j[m] = 1.0
    for k in range(m, 0, -1):
        j[k - 1] = 2 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:   # the recurrence grows fast below the start
            j[k - 1:] *= 1e-250
    return j[:n + 1] / (j[0] + 2 * math.fsum(j[2::2]))


_LOG_TAIL = math.log(2.0 ** -60 / (2 + 2 * math.sqrt(2)))
# a segment is split into equal actions, none with nu t over _STEP_DAMPING or R
# over _STEP_R: the terms of a damped part grow, up to about e^(nu t) and near the
# ends of the spectrum e^sqrt(nu t R), before they cancel.  Unsplit, an SK1 loop
# at nu t = 45 was 1.5e-13 off the dense oracle, and an amp_scale 3000 pulse at
# R = 54,000 drifted the trace by 2.3e-7
_STEP_DAMPING, _STEP_R = 16.0, 4000.0


def _degree(R: float, nu_t: float) -> int:
    """Chebyshev degree of an action of length t, ``R = (Delta + nu) t`` and ``nu_t =
    nu t``: the terms past it sum to at most 2^-60 of the input (see
    :func:`_frame_generator`).  Degree 0 is the identity."""
    if R == 0:
        return 0
    beta = nu_t / R
    corner = complex(1 - beta, beta)
    rho = abs(corner + np.sqrt(corner - 1) * np.sqrt(corner + 1))
    k = math.floor(R) + 1
    while True:
        # term k is at most 2 (1 + sqrt 2) (q e^s)^k, and each later one at most q times
        # the one before
        z = R / k
        s = math.sqrt((1 - z) * (1 + z))
        q = rho * z / (1 + s)
        if q < 1 and k * (math.log(q) + s) - math.log1p(-q) < _LOG_TAIL:
            return k - 1
        k += 1


@np.errstate(over="ignore", invalid="ignore")  # an overflowing rate fails the work check
def _frame_generator(spec: LindbladSpec, mode_index: int):
    """One mode round, in sector order and read-only: ``(order, weights, heat, segments, w)``.

    ``weights * rho`` is ``sum L rho L^dag`` over ``a^dag a`` and ``Z_1 + Z_2``;
    ``heat[u] = Gamma sqrt(n_i n_j)`` at flat index u = (i, j) of an h x h block
    weighs ``a^dag rho a`` and ``a rho a^dag``, which shift the other sector's
    block by 2 rows and columns; either is None when no channel needs it.  ``w``
    is the diagonal of ``W(T)``.  Per segment: ``G = iH + S`` as sector blocks
    (2, h, h), ``2 / (Delta + nu)``, and the R, Chebyshev degree N and count of
    its equal actions, so its work is N times that count.

    ``Delta`` is the eigenvalue spread of H over both sectors, so the
    commutator part of the generator has its numerical range in ``i [-Delta,
    Delta]``.  The dissipator is self-adjoint, with norm at most ``nu = 2 max|S|
    + max weight + 2 max heat``.  For an action of length t, A the generator
    times t and ``R = (Delta + nu) t``, the numerical range of ``A / iR`` lies
    in the rectangle ``|Re| <= 1 - beta, |Im| <= beta``, ``beta = nu t / R``, so
    inside the Bernstein ellipse E_rho through its corners, where ``|T_k| <=
    rho^k``.  Crouzeix & Palencia (SIAM J. Matrix Anal. Appl. 38, 649 (2017))
    then give ``||T_k(A / iR)|| <= (1 + sqrt 2) rho^k``, and with Kapteyn's
    inequality ``|J_k(R)| <= (z e^s / (1 + s))^k``, ``z = R / k``, ``s = sqrt(1
    - z^2)``, the terms past N sum to at most 2^-60 of the input.  A round is
    refused when its sum of R, a lower bound on the work, exceeds
    ``MAX_SERIES_WORK`` or is nan, before any degree is sought, and then when
    its work does.
    """
    nf, h = spec.n_fock, 2 * spec.n_fock
    # basis index (2 s1 + s2) nf + n: sector k = (s1 + s2 + n) % 2, then position 2n + s1
    n, s1 = divmod(np.arange(h), 2)
    order = np.concatenate([(2 * s1 + (k + s1 + n) % 2) * nf + n for k in (0, 1)])
    # a^dag a, |1><1|_1 and |1><1|_2 per basis index; q is a^dag a in sector order
    fock, p1, p2 = (np.tile(np.arange(nf, dtype=float), 4), np.repeat([0.0, 0.0, 1.0, 1.0], nf),
                    np.repeat([0.0, 1.0, 0.0, 1.0], nf))
    weights, static, heat, q = np.zeros((4 * nf, 4 * nf)), np.zeros(4 * nf), None, fock[order]
    for rate, diag in [(2.0 / spec.tau_m, q),
                       (1.0 / (spec.tau_l * len(spec.modes)), 2 - 2 * (p1 + p2)[order])]:
        weights += rate * np.outer(diag, diag)
        static -= 0.5 * rate * diag ** 2
    if spec.gamma_heat > 0:
        g = spec.gamma_heat
        # a^dag a + a a^dag, with the truncated a a^dag = diag(1, ..., nf - 1, 0)
        static -= 0.5 * g * (q + np.where(q < nf - 1, q + 1, 0.0))
        heat = g * np.outer(np.sqrt(q[:h]), np.sqrt(q[:h])).ravel()
    nu = 2 * np.abs(static).max() + weights.max() + (0.0 if heat is None else 2 * heat.max())
    weights = weights if weights.any() else None
    ops = _drive_ops(spec, mode_index)[order[:, None], order]
    if ops[:h, h:].any() or ops[h:, :h].any():
        raise ValueError("a drive term breaks the parity symmetry Pi = Z1 Z2 (-1)^(a^dag a)")
    offset, T = spec.modes[mode_index].offset, spec.total_time
    segments = []
    for seg in spec.segments:
        # less its mean: a multiple of the identity in H cancels in the commutator
        frame = (seg.delta - offset) * fock + spec.stark[0] * p1 + spec.stark[1] * p2
        H = ops + ops.conj().T - np.diag((frame - frame.mean())[order])
        G = 1j * H + np.diag(static)
        spectrum = np.linalg.eigvalsh(np.stack([H[:h, :h], H[h:, h:]]))   # nan if H is not finite
        segments.append((np.stack([G[:h, :h], G[h:, h:]]), seg.duration,
                         (spectrum.max() - spectrum.min() + nu) * seg.duration))
    work = sum(R for *_, R in segments)
    if work <= MAX_SERIES_WORK:   # not for nan: no degree is sought past the limit
        split = []
        for G, t, R in segments:
            steps = max(1, math.ceil(nu * t / _STEP_DAMPING), math.ceil(R / _STEP_R))
            split.append((G, 2 * t / R if R else 0.0, R / steps,
                          _degree(R / steps, nu * t / steps), steps))
        segments = split
        work = sum(N * steps for *_, N, steps in segments)
    if not work <= MAX_SERIES_WORK:
        raise ValueError(f"{work:.6g} series applications per mode round exceed the limit "
                         f"{MAX_SERIES_WORK}")
    turn = sum(seg.delta * seg.duration for seg in spec.segments) - offset * T
    w = np.exp(-1j * (turn * fock + spec.stark[0] * T * p1 + spec.stark[1] * T * p2))
    for a in (order, weights, heat, w, *(seg[0] for seg in segments)):
        if a is not None:   # kept on the spec, so read-only
            a.flags.writeable = False
    return order, weights, heat, segments, w


def _evolve_batch(rhos: np.ndarray, spec: LindbladSpec, mode_index: int) -> np.ndarray:
    """Exact evolution of a stack of Hermitian matrices over the schedule: the
    nonzero parity parts take one Chebyshev action per segment, or per each of
    its equal pieces."""
    order, weights, heat, segments, w = spec._rounds[mode_index]
    h = 2 * spec.n_fock
    # parts in order (even, then odd); block k of a part is sector block (k ^ odd, k)
    x = np.asarray(rhos, complex)[:, order[:, None], order].reshape(len(rhos), 2, h, 2, h)
    odds, bs = np.nonzero([x[:, o, :, 0].any((1, 2)) | x[:, 1 - o, :, 1].any((1, 2))
                           for o in (0, 1)])
    even = np.count_nonzero(odds == 0)
    cols, real = np.arange(2)[:, None], (2, -1, 2 * h)   # real: a sector's (re, im) columns
    if heat is not None:  # flat over each sector's parts, zero where a shift crosses blocks
        shift, flat = 2 * h + 2, np.empty((2, len(bs) * h * h), complex)

    def apply(r, out, X):
        """``out = r G + G^dag r + D(r)`` with G and D scaled, X scratch; C order, so
        reshapes are views."""
        np.matmul(r.view(float).reshape(real), G, out=X.view(float).reshape(real))
        # X^dag, blocks swapped for odd parts: copy, then conjugate, 2x a conjugating copy
        np.copyto(out[:, :even], X[:, :even].transpose(0, 1, 3, 2))
        np.copyto(out[:, even:], X[::-1, even:].transpose(0, 1, 3, 2))
        np.conjugate(out, out=out)
        out += X
        if weights is not None:
            out += np.multiply(dw, r, out=X)
        if heat is not None:  # a^dag rho a, a rho a^dag: the other sector, one Fock step off
            o, other = out.reshape(2, -1), r[::-1].reshape(2, -1)
            o[:, shift:] += np.multiply(dh[shift:], other[:, :-shift], out=flat[:, shift:])
            o[:, :-shift] += np.multiply(dh, other, out=flat)[:, shift:]

    # e^A r = J_0(R) P_0 + 2 sum_k J_k(R) P_k, P_k = i^k T_k(A / iR) r (Jacobi-Anger), by
    # P_k+1 = (2 / R) A P_k + P_k-1: real coefficients, so every P_k stays Hermitian;
    # apply folds 2 / R = 2 / ((Delta + nu) t) into G and the dissipator, whose weights are
    # made complex: a float-by-complex multiply casts, at about 1.7x the time
    r = x[bs, cols ^ odds, :, cols]
    p, nxt, acc, X = (np.empty_like(r) for _ in range(4))
    for G, scale, R, N, steps in segments:
        if N == 0:
            continue
        # r G as one real GEMM per sector, with G in real form: faster than the complex GEMM
        G = np.stack([np.kron(g.real, np.eye(2)) + np.kron(g.imag, [[0, 1], [-1, 0]])
                      for g in scale * G])
        scale = complex(scale)
        if weights is not None:
            dw = (scale * weights).reshape(2, h, 2, h)[cols ^ odds, :, cols]
        if heat is not None:
            dh = np.tile(scale * heat, len(bs))
        coef = _bessel(R, N)
        coef[1:] *= 2
        for _ in range(steps):
            np.multiply(r, coef[0], out=acc)
            apply(r, p, X)
            p *= 0.5   # P_1 = A r / R: the recurrence with P_-1 = -P_1
            acc += np.multiply(p, coef[1], out=X)
            for c in coef[2:]:
                apply(p, nxt, X)
                nxt += r
                r, p, nxt = p, nxt, r
                acc += np.multiply(p, c, out=X)
            r, acc = acc, r
    y = np.zeros_like(x)
    y[bs, cols ^ odds, :, cols] = r
    # back to the lab frame: rho -> W(T) rho W(T)^dag, elementwise for diagonal W
    y = y.reshape(rhos.shape)[:, np.argsort(order)[:, None], np.argsort(order)]
    return y * np.outer(w, w.conj())


def mode_state(spec: LindbladSpec) -> np.ndarray:
    """Initial mode state: thermal at mode_nbar, the ground state at 0."""
    nb = spec.mode_nbar
    p = (nb / (1 + nb)) ** np.arange(spec.n_fock) / (1 + nb)
    return np.diag(p / p.sum()).astype(complex)


def _swap_symmetric(spec: LindbladSpec) -> bool:
    """Whether swapping the two ions leaves ``spec`` unchanged: each per-ion pair is equal."""
    return all(x == y for x, y in (spec.omega_r, spec.omega_b, spec.phi_r, spec.phi_b,
                                   spec.stark, *(mode.eta for mode in spec.modes)))


def ms_gate_channel(spec: LindbladSpec) -> PTM:
    """Extract the two-qubit PTM of the full pulse by evolving the Pauli basis.

    Each mode is simulated sequentially: the current spin-sector matrices
    are tensored with the mode state, evolved over the schedule, and the
    mode is traced out before the next round.  A swap-symmetric spec evolves
    only the 10 inputs with a <= b (see the module notes).
    """
    P = qmat.pauli_basis(2)
    spins = P.astype(complex)
    nf = spec.n_fock
    a, b = np.divmod(np.arange(16), 4)
    mirrors = np.flatnonzero(a > b) if _swap_symmetric(spec) else np.arange(0)
    reps, swap = np.setdiff1d(np.arange(16), mirrors), [0, 2, 1, 3]   # S: |01> <-> |10>
    for j in range(len(spec.modes)):
        stacked = np.einsum("bac,fg->bafcg", spins[reps], mode_state(spec),
                            optimize=True).reshape(-1, 4 * nf, 4 * nf)
        evolved = _evolve_batch(stacked, spec, j)
        drift = np.abs(np.trace(evolved, 0, 1, 2) - np.trace(spins[reps], 0, 1, 2)).max()
        if not drift <= 4e-8:
            raise ValueError(f"trace drift {drift:.3e} exceeds tolerance")
        spins[reps] = np.einsum("bafcf->bac", evolved.reshape(-1, 4, nf, 4, nf), optimize=True)
        spins[mirrors] = spins[4 * b[mirrors] + a[mirrors]][:, swap][:, :, swap]
    R = np.real(np.einsum("iab,jba->ij", P, spins, optimize=True)) / 4.0
    return PTM(2, R)


# ---------------------------------------------------------------------------
# JSON ingestion (one spec per gate)

def spec_from_dict(d: dict) -> LindbladSpec:
    if not isinstance(d, dict):
        raise ValueError(f"spec must be a JSON object, got {d!r}")
    if "calibrate" in d:
        if len(d) > 1:
            raise ValueError(f"no other keys with calibrate: {sorted(set(d) - {'calibrate'})}")
        if not isinstance(d["calibrate"], dict):
            raise ValueError(f"calibrate must be an object, got {d['calibrate']!r}")
        return xx_gate_spec(**d["calibrate"])
    kw = dict(d)
    for key, part in (("modes", ModeSpec), ("segments", Segment)):
        items = kw.get(key)
        if not (isinstance(items, (list, tuple)) and all(isinstance(x, dict) for x in items)):
            raise ValueError(f"{key} must be a list of objects, got {items!r}")
        kw[key] = tuple(part(**x) for x in items)
    for key in ("tau_m", "tau_l"):
        if kw.get(key) in (None, "inf"):
            kw.pop(key, None)
    return LindbladSpec(**kw)


def load_spec(path) -> LindbladSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def spec_to_dict(spec: LindbladSpec) -> dict:
    """The JSON form of ``spec``; only perfbench/ reaches it."""
    d = asdict(spec)
    for key in ("tau_m", "tau_l"):
        if math.isinf(d[key]):
            d[key] = "inf"
    return d
