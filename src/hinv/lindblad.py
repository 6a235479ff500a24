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

Integration is fixed-step RK4; accuracy is controlled by
``steps_per_period`` (default 400 steps per shortest drive period, at most
``MAX_STEPS`` per mode round) and guarded by the step-halving convergence
check in the test suite.  H(t) and each collapse operator respect the parity
``Pi = Z_1 Z_2 (-1)^{a^dag a}``, whose two sectors hold ``h = 2 nf`` states
each, ordered by position ``2n + s_1``.  A matrix is an even part (sector
blocks ee, oo) plus an odd part (eo, oe); only nonzero parts are evolved.
Each stage is ``X + X^dag + D(rho)``, with ``X = rho_k (iH_k(t) + S_k)`` one
GEMM per column sector k; ``X^dag`` swaps an odd part's two blocks.  ``S =
-(1/2) sum L^dag L`` is diagonal and ``D(rho) = sum L rho L^dag`` elementwise:
a real weight per entry for the diagonal operators, and for heating a shift
between sectors (``a^dag`` maps position p to p + 2 of the other sector).
``X^dag`` equals ``(-iH + S) rho`` only for Hermitian rho, so
:func:`_evolve_batch` needs Hermitian input, which :func:`ms_gate_channel`
always passes: Pauli strings tensored with a diagonal mode state, and their
traced-out images.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import gates, qmat
from .channels import PTM, ptm_of_unitary

DEFAULT_N_FOCK = 13
DEFAULT_STEPS_PER_PERIOD = 400
MAX_STEPS = 100_000          # RK4 steps per mode round


@dataclass(frozen=True)
class Segment:
    duration: float          # s
    delta: float             # symmetric detuning during the segment, rad/s

    def __post_init__(self):
        _numbers(self, "duration", "delta")
        if not 0 < self.duration < math.inf:
            raise ValueError("segment duration must be positive and finite")


def _numbers(spec, *names, per_ion=False) -> None:
    """Check that each named field of a frozen spec holds a number, or with
    ``per_ion`` one number per ion, stored as a tuple of two.  A bool is not a
    number here: JSON ``true`` would pass as 1."""
    for name in names:
        values = tuple(getattr(spec, name)) if per_ion else (getattr(spec, name),)
        if per_ion and len(values) != 2:
            raise ValueError(f"{name} needs one value per ion, got {len(values)}")
        for x in values:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"{name} must be a number, got {x!r}")
        if per_ion:
            object.__setattr__(spec, name, values)


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
        _numbers(self, "tau_m", "gamma_heat", "tau_l", "mode_nbar")
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "segments", tuple(self.segments))
        if not isinstance(self.n_fock, int) or self.n_fock < 2:
            raise ValueError(f"n_fock must be an integer >= 2, got {self.n_fock!r}")
        if not self.modes or not self.segments:
            raise ValueError("need at least one mode and one segment")
        finite = [*self.omega_r, *self.omega_b, *self.phi_r, *self.phi_b, *self.stark,
                  self.gamma_heat, self.mode_nbar, *(s.delta for s in self.segments),
                  *(x for m in self.modes for x in (*m.eta, m.offset))]
        if not all(math.isfinite(x) for x in finite):
            raise ValueError("drive, mode, schedule and rate values must be finite")
        if not (self.gamma_heat >= 0 and self.mode_nbar >= 0
                and self.tau_m > 0 and self.tau_l > 0):
            raise ValueError("gamma_heat and mode_nbar must be >= 0, coherence times positive")

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
        if not (number and 0 < value < math.inf):
            raise ValueError(f"{key} must be a finite number > 0, got {value!r}")
    if type(loops) is not int or loops < 1:
        raise ValueError(f"loops must be an integer >= 1, got {loops!r}")
    if not (isinstance(spin_phases, (tuple, list)) and len(spin_phases) == 2):
        raise ValueError(f"spin_phases needs one value per ion, got {spin_phases!r}")
    T = 2 * math.pi * loops / delta
    f = delta * math.sqrt(theta / (4 * math.pi * loops))
    omega = 2 * f / eta * amp_scale
    return LindbladSpec(
        omega_r=(omega, omega), omega_b=(omega, omega),
        phi_r=(spin_phases[0] - math.pi / 2, spin_phases[1] - math.pi / 2),
        phi_b=(spin_phases[0] - math.pi / 2, spin_phases[1] - math.pi / 2),
        modes=(ModeSpec(eta=(eta, eta)),),
        segments=(Segment(T, delta),),
        tau_m=tau_m, gamma_heat=gamma_heat, tau_l=tau_l,
        n_fock=n_fock, mode_nbar=mode_nbar,
    )


def sk1_pulse_specs(theta: float = math.pi / 4, **kw) -> list[LindbladSpec]:
    """Pulse-level SK1 for an XX target: [target, loop(+phi1)].

    The loop pulse has generator angle pi (spin angle 2*pi) and runs 4x
    longer at the same drive strength; :func:`sk1_minus_loop` derives the
    channel of the third pulse, loop(-phi1), from its channel.
    """
    phi1 = gates.sk1_phase(2 * theta)
    return [xx_gate_spec(theta, **kw),
            xx_gate_spec(math.pi, loops=4, spin_phases=(phi1, 0.0), **kw)]


def sk1_minus_loop(plus: PTM, theta: float = math.pi / 4) -> PTM:
    """Channel of SK1's loop(-phi1) pulse from that of its loop(+phi1) pulse.

    Shifting ion 0's spin phase by -2 phi1 conjugates H(t) by the Z rotation
    ``U = virtual_z(-2 phi1) (x) I``, and every collapse operator commutes
    with U, so the loop(-phi1) channel is exactly ``V R+ V^T`` with ``V`` the
    PTM of U.
    """
    U = np.kron(gates.virtual_z_unitary(-2 * gates.sk1_phase(2 * theta)), np.eye(2))
    V = ptm_of_unitary(U).mat
    return PTM(2, V @ plus.mat @ V.T)


# ---------------------------------------------------------------------------
# operators

def _drive_ops(spec: LindbladSpec, mode_index: int) -> np.ndarray:
    """Static operator factors of the four drive terms, stacked (4, D, D).

    Terms are ordered (ion 0 red, ion 0 blue, ion 1 red, ion 1 blue), the
    column order of :func:`_tone_phases`.
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
    return np.stack(ops)


def _tone_phases(spec: LindbladSpec, mode_index: int, times) -> np.ndarray:
    """Accumulated tone phases Phi(t) of the four drive terms, shape (len(times), 4).

    Phi is the integral of the effective detuning: red -(delta - offset) +
    stark, blue +(delta - offset) + stark, with delta swept through the
    segment schedule.
    """
    t = np.asarray(times, dtype=float)
    total = spec.total_time
    bad = (t < -1e-12) | (t > total * (1 + 1e-9) + 1e-12)
    if bad.any():
        raise ValueError(f"t={t[bad][0]} outside the segment schedule [0, {total}]")
    acc = np.zeros_like(t)
    elapsed = 0.0
    for seg in spec.segments:
        acc += seg.delta * np.clip(t - elapsed, 0.0, seg.duration)
        elapsed += seg.duration
    swept = acc - spec.modes[mode_index].offset * t
    return np.stack([sign * swept + spec.stark[ion] * t
                     for ion in (0, 1) for sign in (-1.0, 1.0)], axis=-1)


def _dissipators(spec: LindbladSpec, order: np.ndarray):
    """Elementwise collapse operators in sector ``order``: ``(weights, static, heat)``.

    ``weights * rho`` is ``sum L rho L^dag`` over the diagonal operators
    (``a^dag a``, ``Z_1 + Z_2``); ``static`` is the diagonal of ``-(1/2) sum
    L^dag L``.  ``heat[u - 4 nf - 2] = Gamma sqrt(n_i n_j)``, at flat index u
    = (i, j) of an h x h sector block, weighs heating's ``a^dag rho a`` and
    ``a rho a^dag``.  ``weights`` or ``heat`` is None when no channel does.
    """
    nf = spec.n_fock
    fock = np.tile(np.arange(nf, dtype=float), 4)[order]   # a^dag a per basis index
    zsum = np.repeat([2.0, 0.0, 0.0, -2.0], nf)[order]     # Z_1 + Z_2 per basis index
    weights = np.zeros((4 * nf, 4 * nf))
    static = np.zeros(4 * nf)
    for rate, diag in [(2.0 / spec.tau_m, fock),
                       (1.0 / (spec.tau_l * len(spec.modes)), zsum)]:
        weights += rate * np.outer(diag, diag)
        static -= 0.5 * rate * diag ** 2
    heat = None
    if spec.gamma_heat > 0:
        g = spec.gamma_heat
        # a^dag a + a a^dag, with the truncated a a^dag = diag(1, ..., nf - 1, 0)
        static -= 0.5 * g * (fock + np.where(fock < nf - 1, fock + 1, 0.0))
        root = np.sqrt(fock[:2 * nf])
        heat = g * np.outer(root, root).ravel()[4 * nf + 2:]
    return (weights if weights.any() else None), static, heat


def _n_steps(spec: LindbladSpec, steps_per_period: int) -> int:
    if steps_per_period < 1:
        raise ValueError(f"steps_per_period must be >= 1, got {steps_per_period}")
    omegas = [1.0 / spec.total_time]
    for seg in spec.segments:
        for mode in spec.modes:
            for ion in (0, 1):
                omegas.append(abs(seg.delta - mode.offset) + abs(spec.stark[ion]))
                omegas.append(mode.eta[ion] * max(spec.omega_r[ion], spec.omega_b[ion]))
    period = 2 * math.pi / max(omegas)
    steps = max(50, math.ceil(spec.total_time / period * steps_per_period))
    if steps > MAX_STEPS:
        raise ValueError(f"{steps} RK4 steps per mode round exceed the limit {MAX_STEPS}")
    return steps


# a diverging run is reported once, as NaN or inf by ms_gate_channel's trace-drift guard
@np.errstate(over="ignore", invalid="ignore")
def _evolve_batch(rhos: np.ndarray, spec: LindbladSpec, mode_index: int,
                  steps_per_period: int) -> np.ndarray:
    """RK4 integration of the master equation for a stack of Hermitian matrices.

    Stages run on the nonzero parity parts (see the module docstring); the
    tone phases of all ``2 steps + 1`` stage times are computed once.
    """
    nf, h = spec.n_fock, 2 * spec.n_fock
    # basis index (2 s1 + s2) nf + n: sector k = (s1 + s2 + n) % 2, then position 2n + s1
    n, s1 = divmod(np.arange(h), 2)
    order = np.concatenate([(2 * s1 + (k + s1 + n) % 2) * nf + n for k in (0, 1)])
    weights, static, heat = _dissipators(spec, order)
    # iH + S = sum_k f_k (i op_k) + conj(f_k) (i op_k^dag) + S: a 9-term basis
    ops = _drive_ops(spec, mode_index)[:, order[:, None], order]
    basis = np.concatenate([1j * ops, 1j * ops.conj().transpose(0, 2, 1),
                            np.diag(static)[None].astype(complex)])
    if basis[:, :h, h:].any() or basis[:, h:, :h].any():
        raise ValueError("a drive term breaks the parity symmetry Pi = Z1 Z2 (-1)^(a^dag a)")
    blocks = np.stack([basis[:, :h, :h], basis[:, h:, h:]]).reshape(2, 9, h * h)

    steps = _n_steps(spec, steps_per_period)
    dt = spec.total_time / steps
    f = np.exp(-1j * _tone_phases(spec, mode_index, 0.5 * dt * np.arange(2 * steps + 1)))
    coeffs = np.concatenate([f, f.conj(), np.ones((len(f), 1))], axis=1)

    # parts in order (even, then odd); block k of a part is sector block (k ^ odd, k)
    x = np.asarray(rhos, complex)[:, order[:, None], order].reshape(len(rhos), 2, h, 2, h)
    odds, bs = np.nonzero([x[:, o, :, 0].any((1, 2)) | x[:, 1 - o, :, 1].any((1, 2))
                           for o in (0, 1)])
    even = np.count_nonzero(odds == 0)
    cols = np.arange(2)[:, None]
    if weights is not None:
        weights = weights.reshape(2, h, 2, h)[cols ^ odds, :, cols]

    def rhs(stage, r):
        # C order, so the reshapes written through below are views
        X, out = np.empty(r.shape, complex), np.empty(r.shape, complex)
        for k in (0, 1):
            np.matmul(r[k].reshape(-1, h), (coeffs[stage] @ blocks[k]).reshape(h, h),
                      out=X[k].reshape(-1, h))
        # X^dag, with the blocks swapped for odd parts
        np.conjugate(X[:, :even].transpose(0, 1, 3, 2), out=out[:, :even])
        np.conjugate(X[::-1, even:].transpose(0, 1, 3, 2), out=out[:, even:])
        out += X
        if weights is not None:
            out += weights * r
        if heat is not None:  # a^dag rho a, a rho a^dag: the other sector, one Fock step off
            o, s = (m.reshape(2, len(bs), h * h) for m in (out, r[::-1]))
            o[..., 4 * nf + 2:] += heat * s[..., :-4 * nf - 2]
            o[..., :-4 * nf - 2] += heat * s[..., 4 * nf + 2:]
        return out

    r = x[bs, cols ^ odds, :, cols]
    for i in range(steps):
        k1 = rhs(2 * i, r)
        k2 = rhs(2 * i + 1, r + dt / 2 * k1)
        k3 = rhs(2 * i + 1, r + dt / 2 * k2)
        k4 = rhs(2 * i + 2, r + dt * k3)
        # r + dt/6 (k1 + 2 k2 + 2 k3 + k4), in place
        k2 *= 2
        k1 += k2
        k3 *= 2
        k1 += k3
        k1 += k4
        k1 *= dt / 6
        r += k1
    y = np.zeros_like(x)
    y[bs, cols ^ odds, :, cols] = r
    return y.reshape(rhos.shape)[:, np.argsort(order)[:, None], np.argsort(order)]


def mode_state(spec: LindbladSpec) -> np.ndarray:
    """Initial mode state: thermal at mode_nbar, the ground state at 0."""
    nb = spec.mode_nbar
    p = (nb / (1 + nb)) ** np.arange(spec.n_fock) / (1 + nb)
    return np.diag(p / p.sum()).astype(complex)


def _trace_out_mode(rhos: np.ndarray, nf: int) -> np.ndarray:
    B = rhos.shape[0]
    return np.einsum("bafcf->bac", rhos.reshape(B, 4, nf, 4, nf), optimize=True)


def ms_gate_channel(spec: LindbladSpec,
                    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD) -> PTM:
    """Extract the two-qubit PTM of the full pulse by evolving the Pauli basis.

    Each mode is simulated sequentially: the current spin-sector matrices
    are tensored with the mode state, evolved over the schedule, and the
    mode is traced out before the next round.
    """
    P = qmat.pauli_basis(2)
    spins = P.astype(complex)
    nf = spec.n_fock
    for j in range(len(spec.modes)):
        stacked = np.einsum("bac,fg->bafcg", spins, mode_state(spec),
                            optimize=True).reshape(16, 4 * nf, 4 * nf)
        evolved = _evolve_batch(stacked, spec, j, steps_per_period)
        drift = np.abs(np.trace(evolved, 0, 1, 2) - np.trace(spins, 0, 1, 2)).max()
        if not drift <= 4e-8:
            raise ValueError(f"trace drift {drift:.3e} exceeds tolerance")
        spins = _trace_out_mode(evolved, nf)
    R = np.real(np.einsum("iab,jba->ij", P, spins, optimize=True)) / 4.0
    return PTM(2, R)


# ---------------------------------------------------------------------------
# JSON ingestion (one spec per gate)

def spec_from_dict(d: dict) -> LindbladSpec:
    if "calibrate" in d:
        if len(d) > 1:
            raise ValueError(f"no other keys with calibrate: {sorted(set(d) - {'calibrate'})}")
        return xx_gate_spec(**d["calibrate"])
    kw = dict(d)
    kw["modes"] = tuple(ModeSpec(**m) for m in kw["modes"])
    kw["segments"] = tuple(Segment(**s) for s in kw["segments"])
    for key in ("tau_m", "tau_l"):
        if kw.get(key) in (None, "inf"):
            kw.pop(key, None)
    return LindbladSpec(**kw)


def load_spec(path) -> LindbladSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def spec_to_dict(spec: LindbladSpec) -> dict:
    d = asdict(spec)
    for key in ("tau_m", "tau_l"):
        if math.isinf(d[key]):
            d[key] = "inf"
    return d
