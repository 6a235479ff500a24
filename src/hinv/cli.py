"""Experiment runner: parameter sweeps, compilation passes, PTM extraction.

Subcommands::

    hinv sweep <config.json> [-o out.csv]
    hinv compile <in.circ> <out.circ> --pass hidden|rc|sk1 [--seed N] [--threshold RAD]
    hinv ptm <lindblad-spec.json> <out.csv> [--steps-per-period N (no effect)]

A sweep config names an experiment of :data:`SCHEMAS`, the one table of
its keys and their defaults.  Sweeps emit deterministic CSV: a header
comment echoing the effective config, one row per grid point, 12
significant digits.

Exit codes: 0 success, 2 config error (a bad command line or input file,
or anything raised while building an experiment's inputs), 3 any other
failure, such as a numeric guard or running out of memory.  Either way
stderr gets one ``error:`` line: the exception's text, or its type's name
when it has none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import analytics, channels, circuit, compiler, gates


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: experiment -> config keys and their defaults

_GRID = {"theta_min": -math.pi, "theta_max": math.pi, "theta_points": 41}
# rc_compare takes the keys of its ``noise`` kind
_NOISE = {
    "detuning": {"delta_detune": 0.01},
    "overrotation": {"eps_2q": 0.02, "eps_1q": 0.002},
    "phase": {"phi_diff_deg": 3.5},
}
SCHEMAS = {
    "overrotation_sweep": {**_GRID, "n_list": [2, 4, 6], **_NOISE["overrotation"]},
    "phase_sweep": {**_GRID, "n_list": [2, 4, 6], **_NOISE["phase"]},
    # seeds and seed are checked but unused: f_rc_mean is the exact twirl mean
    "rc_compare": {**_GRID, "noise": "detuning", "n": 2, "seeds": 100, "seed": 2024},
    "repeated_2q": {**_GRID, "eps_2q_amplitude": 0.0225, "phi_diff_deg": 0.0, "reps": 5},
    "contrast_4q": {**_GRID, "eps_2q_amplitude": 0.05, "phi_diff_deg": -8.0,
                    "p_depol": 0.87},
    "sk1_viability": {"eps_amplitude_list": [0.005, 0.01, 0.02],
                      "gamma_list": [20.0, 60.0, 200.0, 600.0, 2000.0],
                      "delta": 2 * math.pi * 200e3},
}

# noise key -> NoiseModel field and the conversion from config units (the
# fitted two-qubit overrotation is an amplitude error, quadratic in the angle)
_NOISE_FIELDS = {
    "eps_2q": ("eps_2q", float),
    "eps_2q_amplitude": ("eps_2q", gates.amplitude_to_angle_overrotation),
    "eps_1q": ("eps_1q", float),
    "phi_diff_deg": ("phi_diff", math.radians),
    "delta_detune": ("delta_detune", float),
}

# widest sweep register: a schema rule, not a cost limit (ladder_overlap is O(n))
_MAX_WIDTH = 10
_KINDS = {str: "a string", int: "an integer", float: "a finite number",
          list: "a non-empty list"}


def _checked(key, value, default):
    """``value`` if it has the type of ``default`` (an int passes for a float)
    and, if a number, a float can hold it."""
    if isinstance(default, list):
        if isinstance(value, list) and value:
            return [_checked(f"{key} entries", v, default[0]) for v in value]
    elif type(value) is type(default) or (type(value), type(default)) == (int, float):
        if isinstance(default, str) or abs(value) <= sys.float_info.max:
            return value
        if isinstance(default, int):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    raise ConfigError(f"{key} must be {_KINDS[type(default)]}, got {value!r}")


def effective_config(cfg) -> dict:
    """``cfg`` checked against its experiment's schema, with every default filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in SCHEMAS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(SCHEMAS)} "
                          "(for a pulse-level PTM use 'hinv ptm <spec.json> <out.csv>')")
    table = {"experiment": name, "output": "", **SCHEMAS[name]}
    if "noise" in table:
        kind = _checked("noise", cfg.get("noise", table["noise"]), "")
        if kind not in _NOISE:
            raise ConfigError(f"unknown noise kind {kind!r}; choose from {sorted(_NOISE)}")
        table.update(_NOISE[kind])
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} for experiment {name!r}")
    out = {k: v for k, v in table.items() if k != "output"}
    out.update((k, _checked(k, v, table[k])) for k, v in cfg.items())
    return out


def _noise_from_cfg(cfg) -> gates.NoiseModel:
    """The coherent-error model set by the noise keys of an effective config."""
    return gates.NoiseModel(**{field: conv(cfg[key])
                               for key, (field, conv) in _NOISE_FIELDS.items() if key in cfg})


# ---------------------------------------------------------------------------
# row functions

def _ladders(n, theta, nm):
    """Average fidelities of the hidden-inverse and the standard ladder."""
    hidden = [gates.STANDARD] * (n - 1) + [gates.INVERSE] * (n - 1)
    return [analytics.average_from_entanglement(
        abs(circuit.ladder_overlap(n, theta, o, nm)) ** 2, n) for o in (hidden, None)]


def _repeated_row(theta, n, reps, nm):
    """Final-state fidelity of ``reps`` blocks in each configuration."""
    row = [theta]
    for config in (circuit.HIDDEN_INVERSE, gates.STANDARD):
        c = circuit.repeated_block_circuit(n, theta, reps, config)
        psi_ideal = circuit.unitary_of(c)[:, 0]
        psi_noisy = circuit.unitary_of(c, nm)[:, 0]
        row.append(float(abs(np.vdot(psi_ideal, psi_noisy)) ** 2))
    return row


def _contrast_row(theta, n, nm, depol):
    """All-0, all-1 and other populations of one block in each configuration,
    with ``depol`` after every two-qubit gate."""
    row = [theta]
    for config in (circuit.HIDDEN_INVERSE, gates.STANDARD):
        c = circuit.repeated_block_circuit(n, theta, 1, config)
        probs = circuit.run_density(c, nm, circuit.channels_after_two_qubit(c, depol))
        row += [probs[0], probs[-1], 1.0 - probs[0] - probs[-1]]
    return row


def _sk1_row(eps_amp, gamma, specs):
    """Raw and SK1-corrected fidelity of the evolved pulses ``specs``."""
    from . import lindblad
    ideal = channels.ptm_of_unitary(gates.realize(gates.xx(0, 1, math.pi / 4)))
    # the SK1 target pulse is the raw gate; both loops follow from the (0, 0) loop
    raw, loop = [lindblad.ms_gate_channel(s) for s in specs]
    phi1 = gates.sk1_phase(math.pi / 2)
    sk1 = channels.compose_ptms([raw] + [lindblad.sk1_loop(loop, p) for p in (phi1, -phi1)])
    f_raw, f_sk1 = (channels.avg_fidelity_from_ptm(p, ideal) for p in (raw, sk1))
    # f_raw and f_sk1 carry ~1e-16 absolute error: the difference is good to 1e-12
    return [eps_amp, gamma, f_raw, f_sk1, round(f_sk1 - f_raw, 12)]


@contextmanager
def _config_stage(what: str):
    """Report anything raised inside as a config error (exit 2)."""
    try:
        yield
    except Exception as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def build_sweep(cfg: dict):
    """Header and CSV rows of an effective config.

    Every input is checked, and every fixed input built, before ``rows``
    exists, so anything raised here is a :class:`ConfigError` (exit 2).
    ``rows`` is a generator: it does no point work until it is read, outside
    this config stage, so anything raised while computing a row exits 3.
    """
    name = cfg["experiment"]
    with _config_stage(f"bad {name} config"):
        if name == "sk1_viability":
            from . import lindblad
            # building a pulse spec refuses it over the work limit
            points = [(e, g, lindblad.sk1_pulse_specs(delta=float(cfg["delta"]),
                                                      gamma_heat=g, amp_scale=1.0 + e))
                      for e in map(float, cfg["eps_amplitude_list"])
                      for g in map(float, cfg["gamma_list"])]
            return (["eps_amplitude", "gamma_heat", "f_raw", "f_sk1", "improvement"],
                    (_sk1_row(e, g, specs) for e, g, specs in points))
        lo, hi, pts = cfg["theta_min"], cfg["theta_max"], cfg["theta_points"]
        if pts < 1 or lo < -math.pi - 1e-12 or hi > math.pi + 1e-12 or lo > hi:
            raise ConfigError(f"bad theta grid: [{lo}, {hi}] x {pts}")
        grid = [float(t) for t in np.linspace(lo, hi, pts)]
        nm = _noise_from_cfg(cfg)
        if name == "rc_compare":
            n, seeds, seed = cfg["n"], cfg["seeds"], cfg["seed"]
            if not (2 <= n <= _MAX_WIDTH and seeds >= 1 and seed >= 0):
                raise ConfigError(f"need n in [2, {_MAX_WIDTH}], seeds >= 1, seed >= 0")
            return (["theta", "f_hidden", "f_standard", "f_rc_mean"],
                    ([t] + _ladders(n, t, nm) + [analytics.average_from_entanglement(
                        compiler.twirled_ladder_fidelity(n, t, nm=nm), n)] for t in grid))
        if name == "repeated_2q":
            if cfg["reps"] < 1:
                raise ConfigError("reps must be >= 1")
            return (["theta", "f_hidden", "f_standard"],
                    (_repeated_row(t, 2, cfg["reps"], nm) for t in grid))
        if name == "contrast_4q":
            depol = channels.depolarizing_ptm(4, cfg["p_depol"])
            return (["theta", "p0000_hidden", "p1111_hidden", "pother_hidden",
                     "p0000_standard", "p1111_standard", "pother_standard"],
                    (_contrast_row(t, 4, nm, depol) for t in grid))
        if not all(2 <= n <= _MAX_WIDTH for n in cfg["n_list"]):
            raise ConfigError(f"n_list entries must be in [2, {_MAX_WIDTH}]")
        return (["n", "theta", "f_hidden", "f_standard"],
                ([n, t] + _ladders(n, t, nm) for n in cfg["n_list"] for t in grid))


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _check_output_dir(path) -> None:
    """Refuse ``path`` before any work is spent on it if its directory is missing or
    it is itself a directory."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"output directory of {path} does not exist")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path} is a directory")


def run_sweep(cfg, out_path=None) -> None:
    """Validate ``cfg``, compute its points and write the CSV."""
    cfg = effective_config(cfg)
    out_path = out_path or cfg.get("output")
    if not out_path:
        raise ConfigError("no output path (use -o or config key 'output')")
    header, rows = build_sweep(cfg)
    _check_output_dir(out_path)
    rows = list(rows)
    for row in rows:
        for col, x in zip(header, row):
            if col.startswith(("f_", "p")) and not (-1e-9 <= float(x) <= 1 + 1e-9):
                raise ValueError(f"emitted fidelity/probability {x} out of [0, 1]")
    echo = {k: v for k, v in cfg.items() if k != "output"}
    with open(out_path, "w") as fh:
        fh.write(f"# hinv sweep experiment={cfg['experiment']}\n")
        fh.write(f"# config: {json.dumps(echo, sort_keys=True)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# compile pass driver

def run_compile(in_path, out_path, pass_name, seed, threshold) -> None:
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    with _config_stage("bad --threshold"):
        rule = compiler.OrientationRule(threshold)
    with _config_stage(f"cannot read circuit {in_path}"):
        c = circuit.read_file(in_path)
    _check_output_dir(out_path)
    if pass_name == "hidden":
        out, sites = compiler.apply_orientation_rule(c, rule)
        print(f"sites: {len(sites)}")
        for s in sites:
            angle = "n/a" if s.enclosed_angle is None else f"{s.enclosed_angle:.6g}"
            print(f"  gates ({s.left_index}, {s.right_index}) angle={angle} "
                  f"closing={out.gates[s.right_index].orientation}")
    elif pass_name == "rc":
        out = compiler.randomized_compile(c, seed)
        print(f"twirled {sum(1 for g in c.gates if g.kind == 'cnot')} composites "
              f"(seed={seed})")
    elif pass_name == "sk1":
        out = compiler.sk1_compile(c)
        print(f"expanded to {len(out.gates)} gates")
    circuit.write_file(out, out_path)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ConfigError` (exit 2, one line)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache   # one parser per process: parsing leaves it unchanged
def _parser() -> _Parser:
    parser = _Parser(prog="hinv", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured experiment sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("-o", "--output", default=None)

    p_comp = sub.add_parser("compile", help="apply a compilation pass to a circuit file")
    p_comp.add_argument("input")
    p_comp.add_argument("output")
    p_comp.add_argument("--pass", dest="pass_name", required=True,
                        choices=["hidden", "rc", "sk1"])
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--threshold", type=float, default=math.pi / 2)

    p_ptm = sub.add_parser("ptm", help="extract a pulse-level MS gate PTM to CSV")
    p_ptm.add_argument("spec")
    p_ptm.add_argument("output")
    p_ptm.add_argument("--steps-per-period", type=int, default=None,
                       help="checked (>= 1) but has no effect: the propagation is exact")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.cmd == "sweep":
            with _config_stage(f"cannot read config {args.config}"):
                with open(args.config) as fh:
                    cfg = json.load(fh)
            run_sweep(cfg, args.output)
        elif args.cmd == "compile":
            run_compile(args.input, args.output, args.pass_name, args.seed,
                        args.threshold)
        elif args.cmd == "ptm":
            if args.steps_per_period is not None and args.steps_per_period < 1:
                raise ConfigError("--steps-per-period must be >= 1, "
                                  f"got {args.steps_per_period}")
            from . import lindblad
            with _config_stage(f"cannot read spec {args.spec}"):
                spec = lindblad.load_spec(args.spec)
            _check_output_dir(args.output)
            channels.write_csv(lindblad.ms_gate_channel(spec), args.output)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
