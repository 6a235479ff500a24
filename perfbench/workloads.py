"""The four seeded workloads: input generation, the timed batch, output checks.

Each workload is a scaled-down version of shipped experiments, run through
the public entry points ``hinv.cli.main`` and the ``hinv.circuit`` API.
``generate`` writes the inputs before any clock starts. The seed changes
values only (noise magnitudes, theta offsets, the RC base seed, circuit
contents, dissipation rates), never the amount of work: widths, point
counts, seeds per point, gate counts and RK4 step counts are fixed.

A batch is ``run`` (timed), then ``collect`` (parse outputs, untimed),
then ``check`` (pure function of the manifest and the collected data).
One item is one unit of output the workload defines: a CSV row, an
extracted PTM, or a compiled and simulated circuit. An item fails if the
call producing it exits nonzero or raises, or if it misses its check.
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import numpy as np

import reference


class Item(NamedTuple):
    id: str
    ok: bool
    detail: str = ""


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path, obj) -> None:
    _write(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def cli_call(argv: list[str]) -> dict:
    """Run ``hinv.cli.main(argv)`` in-process, capturing what it prints."""
    import hinv.cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = hinv.cli.main(argv)
    except Exception as exc:  # a crash fails the call's items; the batch goes on
        rc = f"{type(exc).__name__}: {exc}"
    return {"argv": argv, "rc": rc, "output": buf.getvalue()}


def _theta_grid(cfg: dict) -> np.ndarray:
    return np.linspace(cfg["theta_min"], cfg["theta_max"], cfg["theta_points"])


def _theta_bounds(rng) -> dict:
    return {"theta_min": -math.pi + float(rng.uniform(0.0, 0.5)),
            "theta_max": math.pi - float(rng.uniform(0.0, 0.5))}


def _check_rows(prefix: str, call: dict | None, rows, expected, check_row) -> list[Item]:
    """One item per expected row; ``check_row(row, key)`` returns a failure text or ''."""
    ids = [f"{prefix}/row{j}" for j in range(len(expected))]
    if call is not None and call["rc"] != 0:
        return [Item(i, False, f"exit {call['rc']}") for i in ids]
    if rows is None or len(rows) != len(expected):
        got = "no file" if rows is None else f"{len(rows)} rows"
        return [Item(i, False, f"{got}, expected {len(expected)}") for i in ids]
    return [Item(i, not (err := check_row(row, key)), err)
            for i, row, key in zip(ids, rows, expected)]


def _close(label: str, got: float, want: float, tol: float) -> str:
    err = abs(got - want)
    return "" if err <= tol else f"{label} off by {err:.3g} (tol {tol:g})"


# ---------------------------------------------------------------------------

class ParitySweep:
    """``hinv sweep`` on overrotation_sweep configs over widths 2..9.

    Scales down configs/overrotation_sweep.json (n up to 10, 81 points).
    ``eps_1q`` is 0 so every row has the closed form
    ``analytics.exact_ladder_fe``.
    """

    GROUPS = (((2, 3, 4, 5, 6, 7, 8), 4), ((9,), 2))   # (widths, theta points)

    def generate(self, rng, inputs: str) -> dict:
        eps = float(rng.uniform(0.01, 0.05))
        configs = []
        for k, (widths, points) in enumerate(self.GROUPS):
            cfg = {"experiment": "overrotation_sweep", "n_list": list(widths),
                   "theta_points": points, "eps_2q": eps, "eps_1q": 0.0,
                   **_theta_bounds(rng)}
            _write_json(os.path.join(inputs, f"parity_{k}.json"), cfg)
            configs.append(cfg)
        return {"configs": configs}

    def run(self, m: dict, inputs: str, out: str) -> dict:
        return {"calls": [cli_call(["sweep", os.path.join(inputs, f"parity_{k}.json"),
                                    "-o", os.path.join(out, f"parity_{k}.csv")])
                          for k in range(len(m["configs"]))]}

    def collect(self, m: dict, out: str, raw: dict) -> dict:
        return {"calls": raw["calls"],
                "rows": [_rows_or_none(os.path.join(out, f"parity_{k}.csv"))
                         for k in range(len(m["configs"]))]}

    def check(self, m: dict, data: dict) -> list[Item]:
        from hinv import analytics

        items = []
        for k, cfg in enumerate(m["configs"]):
            expected = [(n, float(t)) for n in cfg["n_list"] for t in _theta_grid(cfg)]

            def check_row(row, key, eps=cfg["eps_2q"]):
                n, theta = key
                d = 2**n
                errs = [_close("n", row[0], n, 0.0), _close("theta", row[1], theta, 1e-11)]
                for col, orientation in ((2, analytics.PLUS), (3, analytics.MINUS)):
                    fe = analytics.exact_ladder_fe(theta, eps, n, orientation)
                    errs.append(_close(f"col{col}", row[col], (d * fe + 1) / (d + 1), 1e-10))
                return "; ".join(e for e in errs if e)

            items += _check_rows(f"cfg{k}", data["calls"][k], data["rows"][k], expected, check_row)
        return items

    def perturbations(self, data: dict):
        d = copy.deepcopy(data)
        d["rows"][1][0][2] += 1e-8
        yield "f_hidden + 1e-8", d, "cfg1/row0"
        d = copy.deepcopy(data)
        d["rows"][0][6][3] -= 1e-8
        yield "f_standard - 1e-8", d, "cfg0/row6"


class RcEnsemble:
    """``hinv sweep`` on an rc_compare config at n=2, 100 twirl seeds per theta.

    Scales down configs/rc_compare_overrotation.json (41 points). Pure
    overrotation with ``eps_1q`` = 0, so ``f_hidden``/``f_standard`` have
    the n=2 closed form ``analytics.closed_form_fe``.
    """

    THETA_POINTS = 15
    SEEDS = 100

    def generate(self, rng, inputs: str) -> dict:
        cfg = {"experiment": "rc_compare", "noise": "overrotation", "n": 2,
               "eps_2q": float(rng.uniform(0.01, 0.05)), "eps_1q": 0.0,
               "theta_points": self.THETA_POINTS, "seeds": self.SEEDS,
               "seed": int(rng.integers(0, 2**31)), **_theta_bounds(rng)}
        _write_json(os.path.join(inputs, "rc.json"), cfg)
        return {"config": cfg}

    def run(self, m: dict, inputs: str, out: str) -> dict:
        return {"call": cli_call(["sweep", os.path.join(inputs, "rc.json"),
                                  "-o", os.path.join(out, "rc.csv")])}

    def collect(self, m: dict, out: str, raw: dict) -> dict:
        return {"call": raw["call"], "rows": _rows_or_none(os.path.join(out, "rc.csv"))}

    def check(self, m: dict, data: dict) -> list[Item]:
        from hinv import analytics

        cfg = m["config"]

        def check_row(row, theta):
            errs = [_close("theta", row[0], theta, 1e-11)]
            for col, orientation in ((1, analytics.PLUS), (2, analytics.MINUS)):
                fe = analytics.closed_form_fe(theta, cfg["eps_2q"], 2, orientation)
                errs.append(_close(f"col{col}", row[col], (4 * fe + 1) / 5, 1e-10))
            if not 0.0 <= row[3] <= 1.0:
                errs.append(f"f_rc_mean {row[3]!r} outside [0, 1]")
            return "; ".join(e for e in errs if e)

        return _check_rows("rc", data["call"], data["rows"],
                           [float(t) for t in _theta_grid(cfg)], check_row)

    def perturbations(self, data: dict):
        d = copy.deepcopy(data)
        d["rows"][3][1] += 1e-8
        yield "f_hidden + 1e-8", d, "rc/row3"
        d = copy.deepcopy(data)
        d["rows"][5][2] -= 1e-8
        yield "f_standard - 1e-8", d, "rc/row5"
        d = copy.deepcopy(data)
        d["rows"][0][3] = 1.0 + 1e-8
        yield "f_rc_mean = 1 + 1e-8", d, "rc/row0"


def _rows_or_none(path):
    return reference.read_sweep_csv(path) if os.path.exists(path) else None


# ---------------------------------------------------------------------------

def _calibrated_full_spec(delta: float, eta: float, n_fock: int) -> dict:
    """Full-field form of ``{"calibrate": {delta, eta, n_fock}}``, same float operations
    as the program's calibration (theta = pi/4, one loop)."""
    T = 2 * math.pi * 1 / delta
    f = delta * math.sqrt((math.pi / 4) / (4 * math.pi * 1))
    omega = 2 * f / eta * 1.0
    return {"omega_r": [omega, omega], "omega_b": [omega, omega],
            "phi_r": [-math.pi / 2, -math.pi / 2], "phi_b": [-math.pi / 2, -math.pi / 2],
            "modes": [{"eta": [eta, eta], "offset": 0.0}],
            "segments": [{"duration": T, "delta": delta}], "n_fock": n_fock}


def rk4_steps(spec: dict, steps_per_period: int) -> int:
    """RK4 steps per mode for a full-field spec: the shortest drive period sets
    the step, ``ceil(duration / period * steps_per_period)``, at least 50."""
    total = sum(s["duration"] for s in spec["segments"])
    stark = spec.get("stark", [0.0, 0.0])
    omegas = [1.0 / total]
    for seg in spec["segments"]:
        for mode in spec["modes"]:
            for ion in (0, 1):
                omegas.append(abs(seg["delta"] - mode.get("offset", 0.0)) + abs(stark[ion]))
                omegas.append(mode["eta"][ion] * max(spec["omega_r"][ion], spec["omega_b"][ion]))
    period = 2 * math.pi / max(omegas)
    return max(50, math.ceil(total / period * steps_per_period))


class MsPulse:
    """``hinv ptm`` on four seeded MS gate specs at 150 steps per period.

    Scales down configs/ms_gate_lindblad.json and the sk1_viability pulses
    (400 steps per period by default). Variants: closed system; heating
    only; motional plus laser dephasing; all three channels on a
    two-segment FM schedule.
    """

    STEPS_PER_PERIOD = 150
    FM_RATIO = 0.8          # second-segment detuning / first
    EXPECTED_STEPS = {"closed": 150, "heating": 150, "dephasing": 150, "fm_all": 338}

    def generate(self, rng, inputs: str) -> dict:
        def draw():
            return 2 * math.pi * float(rng.uniform(15e3, 40e3)), float(rng.uniform(0.08, 0.12))

        variants = {}
        delta, eta = draw()
        variants["closed"] = {"calibrate": {"delta": delta, "eta": eta, "n_fock": 13}}
        delta, eta = draw()
        variants["heating"] = {"calibrate": {"delta": delta, "eta": eta, "n_fock": 8,
                                             "gamma_heat": float(rng.uniform(100.0, 2000.0))}}
        delta, eta = draw()
        variants["dephasing"] = {"calibrate": {"delta": delta, "eta": eta, "n_fock": 8,
                                               "tau_m": float(rng.uniform(2e-3, 10e-3)),
                                               "tau_l": float(rng.uniform(5e-3, 20e-3))}}
        delta, eta = draw()
        fm = _calibrated_full_spec(delta, eta, 8)
        fm["segments"].append({"duration": 2 * math.pi / (self.FM_RATIO * delta),
                               "delta": self.FM_RATIO * delta})
        fm.update(gamma_heat=float(rng.uniform(100.0, 2000.0)),
                  tau_m=float(rng.uniform(2e-3, 10e-3)), tau_l=float(rng.uniform(5e-3, 20e-3)))
        variants["fm_all"] = fm

        steps = {}
        for name, spec in variants.items():
            _write_json(os.path.join(inputs, f"ms_{name}.json"), spec)
            full = spec if "calibrate" not in spec else _calibrated_full_spec(
                spec["calibrate"]["delta"], spec["calibrate"]["eta"], spec["calibrate"]["n_fock"])
            steps[name] = rk4_steps(full, self.STEPS_PER_PERIOD) * len(full["modes"])
            if steps[name] != self.EXPECTED_STEPS[name]:
                raise RuntimeError(f"{name}: {steps[name]} RK4 steps, expected "
                                   f"{self.EXPECTED_STEPS[name]}; the seed changed the work")
        return {"variants": sorted(variants), "specs": variants, "rk4_steps": steps}

    def run(self, m: dict, inputs: str, out: str) -> dict:
        return {"calls": {v: cli_call(["ptm", os.path.join(inputs, f"ms_{v}.json"),
                                       os.path.join(out, f"ms_{v}.csv"),
                                       "--steps-per-period", str(self.STEPS_PER_PERIOD)])
                          for v in m["variants"]}}

    def collect(self, m: dict, out: str, raw: dict) -> dict:
        ptms = {}
        for v in m["variants"]:
            path = os.path.join(out, f"ms_{v}.csv")
            ptms[v] = reference.read_ptm_csv(path) if os.path.exists(path) else None
        return {"calls": raw["calls"], "ptms": ptms}

    def check(self, m: dict, data: dict) -> list[Item]:
        ideal = reference.ptm_of_unitary(reference.xx_matrix(math.pi / 4))
        items = []
        for v in m["variants"]:
            rc, R = data["calls"][v]["rc"], data["ptms"][v]
            if rc != 0 or R is None or R.shape != (16, 16):
                items.append(Item(f"ptm/{v}", False, f"exit {rc}, matrix "
                                  f"{None if R is None else R.shape}"))
                continue
            errs = [_close("trace preservation", reference.trace_preservation_error(R), 0.0, 1e-8)]
            lam = reference.choi_min_eigenvalue(R)
            if lam < -1e-6:
                errs.append(f"min Choi eigenvalue {lam:.3g} < -1e-6")
            if v == "closed":
                errs.append(_close("closed vs XX(pi/4)", float(np.abs(R - ideal).max()), 0.0, 1e-6))
            err = "; ".join(e for e in errs if e)
            items.append(Item(f"ptm/{v}", not err, err))
        return items

    def perturbations(self, data: dict):
        d = copy.deepcopy(data)
        d["ptms"]["heating"][0, 5] += 1e-7
        yield "first row + 1e-7 (not trace preserving)", d, "ptm/heating"
        d = copy.deepcopy(data)
        d["ptms"]["dephasing"][5, 5] += 1e-3
        yield "diagonal + 1e-3 (not completely positive)", d, "ptm/dephasing"
        d = copy.deepcopy(data)
        d["ptms"]["closed"][7, 7] += 1e-5
        yield "closed PTM entry + 1e-5", d, "ptm/closed"


# ---------------------------------------------------------------------------

def motif_circuit(rng, n: int, motifs: int) -> str:
    """Circuit text: a Hadamard layer, then ``motifs`` conjugation motifs
    ``CNOT(c,t) . W . CNOT(c,t)`` around a random W of three gates.

    W always holds a virtual Z on the target with |angle| >= 0.3, so it does
    not commute with the CNOT and every motif is a hidden-inverse site.
    """
    lines = [f"qubits {n}"] + [f"hadamard {q}" for q in range(n)]
    for _ in range(motifs):
        c, t, o = (int(q) for q in rng.choice(n, size=3, replace=False))
        angle = float(rng.uniform(0.3, 2.8)) * float(rng.choice([-1.0, 1.0]))
        q1 = (c, t)[int(rng.integers(2))]
        lines += [f"cnot {c} {t} standard",
                  f"virtual_z {t} {angle!r}",
                  f"rot1q {q1} {float(rng.uniform(-math.pi, math.pi))!r} "
                  f"{float(rng.uniform(0, 2 * math.pi))!r}",
                  f"xx {t} {o} {float(rng.uniform(-math.pi / 2, math.pi / 2))!r} "
                  f"{float(rng.uniform(0, 2 * math.pi))!r} {float(rng.uniform(0, 2 * math.pi))!r}",
                  f"cnot {c} {t} standard"]
    return "\n".join(lines) + "\n"


class NoisyCircuits:
    """Seeded 3- and 4-qubit circuit files through ``hinv compile`` (hidden,
    rc, sk1), then ``circuit.run_density`` and ``circuit.run_ptm`` with a
    depolarizing PTM after every two-qubit gate; plus one contrast_4q sweep.

    Scales down configs/contrast_4q.json (41 points); the compile passes
    have no shipped config.
    """

    FILES = (("c3a", 3), ("c3b", 3), ("c4a", 4))
    MOTIFS = 2
    PASSES = ("hidden", "rc", "sk1")
    CONTRAST_POINTS = 3

    def generate(self, rng, inputs: str) -> dict:
        files = {}
        for name, n in self.FILES:
            text = motif_circuit(rng, n, self.MOTIFS)
            _write(os.path.join(inputs, f"{name}.circ"), text)
            files[name] = {"n": n, "rc_seed": int(rng.integers(0, 2**31)), "text": text}
        noise = {"eps_2q": float(rng.uniform(0.01, 0.04)), "eps_1q": float(rng.uniform(0.001, 0.004)),
                 "phi_diff": float(rng.uniform(-0.05, 0.05))}
        contrast = {"experiment": "contrast_4q", "theta_points": self.CONTRAST_POINTS,
                    "eps_2q_amplitude": float(rng.uniform(0.02, 0.06)),
                    "phi_diff_deg": float(rng.uniform(-10.0, -2.0)),
                    "p_depol": float(rng.uniform(0.8, 0.95)), **_theta_bounds(rng)}
        _write_json(os.path.join(inputs, "contrast.json"), contrast)
        return {"files": files, "noise": noise, "p_depol": float(rng.uniform(0.97, 0.995)),
                "contrast": contrast}

    def run(self, m: dict, inputs: str, out: str) -> dict:
        from hinv import channels, circuit
        from hinv.gates import NoiseModel

        nm = NoiseModel(**m["noise"])
        compiled = {}
        for name, spec in m["files"].items():
            for p in self.PASSES:
                dst = os.path.join(out, f"{name}.{p}.circ")
                argv = ["compile", os.path.join(inputs, f"{name}.circ"), dst, "--pass", p]
                res = cli_call(argv + (["--seed", str(spec["rc_seed"])] if p == "rc" else []))
                if res["rc"] == 0:
                    try:
                        c = circuit.read_file(dst)
                        cmap = circuit.channels_after_two_qubit(
                            c, channels.depolarizing_ptm(c.n, m["p_depol"]))
                        res["density"] = circuit.run_density(c, nm, cmap)
                        res["ptm"] = circuit.run_ptm(c, nm, cmap)
                    except Exception as exc:  # fails this item only
                        res["error"] = f"{type(exc).__name__}: {exc}"
                compiled[f"{name}.{p}"] = res
        contrast = cli_call(["sweep", os.path.join(inputs, "contrast.json"),
                             "-o", os.path.join(out, "contrast.csv")])
        return {"compiled": compiled, "contrast": contrast}

    def collect(self, m: dict, out: str, raw: dict) -> dict:
        from hinv import channels, circuit, gates
        from hinv.gates import NoiseModel

        texts = {}
        for key in raw["compiled"]:
            path = os.path.join(out, f"{key}.circ")
            if os.path.exists(path):
                with open(path) as fh:
                    texts[key] = fh.read()
            else:
                texts[key] = None
        cfg = m["contrast"]
        nm = NoiseModel(eps_2q=gates.amplitude_to_angle_overrotation(cfg["eps_2q_amplitude"]),
                        phi_diff=math.radians(cfg["phi_diff_deg"]))
        depol = channels.depolarizing_ptm(4, cfg["p_depol"])
        ptm_rows = []
        try:
            for theta in _theta_grid(cfg):
                row = [float(theta)]
                for config in (circuit.HIDDEN_INVERSE, gates.STANDARD):
                    c = circuit.repeated_block_circuit(4, float(theta), 1, config)
                    probs = circuit.run_ptm(c, nm, circuit.channels_after_two_qubit(c, depol))
                    row += [probs[0], probs[-1], 1.0 - probs[0] - probs[-1]]
                ptm_rows.append(row)
        except Exception as exc:  # fails the contrast rows, not the batch
            ptm_rows = f"{type(exc).__name__}: {exc}"
        return {"compiled": {k: {"rc": v["rc"], "error": v.get("error"), "text": texts[k],
                                 "density": v.get("density"), "ptm": v.get("ptm")}
                             for k, v in raw["compiled"].items()},
                "contrast_call": raw["contrast"],
                "contrast_rows": _rows_or_none(os.path.join(out, "contrast.csv")),
                "contrast_ptm_rows": ptm_rows}

    def check(self, m: dict, data: dict) -> list[Item]:
        items = []
        for key, res in data["compiled"].items():
            source = m["files"][key.split(".")[0]]["text"]
            if res["rc"] != 0 or res["error"] or res["text"] is None:
                items.append(Item(f"circuit/{key}", False, f"exit {res['rc']} {res['error'] or ''}"))
                continue
            errs = [_close("compiled unitary", reference.phase_aligned_distance(
                reference.noiseless_unitary(source), reference.noiseless_unitary(res["text"])),
                0.0, 1e-10)]
            pd, pp = np.asarray(res["density"]), np.asarray(res["ptm"])
            errs.append("density/PTM shape mismatch" if pd.shape != pp.shape else
                        _close("run_density vs run_ptm", float(np.abs(pd - pp).max()), 0.0, 1e-10))
            err = "; ".join(e for e in errs if e)
            items.append(Item(f"circuit/{key}", not err, err))

        ptm_rows = data["contrast_ptm_rows"]
        if isinstance(ptm_rows, str):
            return items + [Item(f"contrast/row{j}", False, f"run_ptm reference: {ptm_rows}")
                            for j in range(m["contrast"]["theta_points"])]

        def check_row(row, ref):
            errs = [_close("theta", row[0], ref[0], 1e-11)]
            errs += [_close(f"col{j}", row[j], ref[j], 1e-10) for j in range(1, 7)]
            return "; ".join(e for e in errs if e)

        return items + _check_rows("contrast", data["contrast_call"], data["contrast_rows"],
                                   ptm_rows, check_row)

    def perturbations(self, data: dict):
        d = copy.deepcopy(data)
        r = d["compiled"]["c4a.sk1"]
        lines = r["text"].splitlines()
        j = next(i for i, ln in enumerate(lines) if ln.startswith("rot1q"))
        kind, q, theta, phi = lines[j].split()
        lines[j] = f"{kind} {q} {float(theta) + 1e-8!r} {phi}"
        r["text"] = "\n".join(lines) + "\n"
        yield "compiled rot1q angle + 1e-8", d, "circuit/c4a.sk1"
        d = copy.deepcopy(data)
        d["compiled"]["c3b.hidden"]["density"][0] += 1e-8
        yield "run_density probability + 1e-8", d, "circuit/c3b.hidden"
        d = copy.deepcopy(data)
        d["contrast_rows"][2][4] += 1e-8
        yield "contrast p0000_standard + 1e-8", d, "contrast/row2"


WORKLOADS = {
    "parity_sweep": ParitySweep(),
    "rc_ensemble": RcEnsemble(),
    "ms_pulse": MsPulse(),
    "noisy_circuits": NoisyCircuits(),
}


def generate(name: str, seed: int, inputs: str) -> dict:
    """Write the workload's inputs for ``seed`` and its manifest; return the manifest."""
    os.makedirs(inputs, exist_ok=True)
    manifest = WORKLOADS[name].generate(np.random.default_rng(seed), inputs)
    manifest.update(workload=name, seed=seed)
    _write_json(os.path.join(inputs, "manifest.json"), manifest)
    return manifest
