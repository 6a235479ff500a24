import hashlib
import importlib
import json
import math
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from hinv import channels, circuit, cli, compiler, lindblad

from conftest import phase_overlap, xx_unitary


def run(argv):
    return cli.main(argv)


def write_cfg(tmp_path, name, **kw):
    path = tmp_path / "cfg.json"
    cfg = {"experiment": name, **kw}
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.strip().split(",")
            else:
                rows.append([float(x) for x in line.strip().split(",")])
    return header, np.array(rows)


def test_overrotation_sweep_endpoint(tmp_path):
    cfg = write_cfg(tmp_path, "overrotation_sweep", n_list=[2, 4],
                    theta_points=9, eps_2q=0.02, eps_1q=0.002)
    out = tmp_path / "out.csv"
    assert run(["sweep", cfg, "-o", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["n", "theta", "f_hidden", "f_standard"]
    assert rows.shape == (18, 4)
    mid = rows[(rows[:, 0] == 2) & (np.abs(rows[:, 1]) < 1e-12)][0]
    assert abs(mid[2] - 1.0) < 1e-10  # hidden fidelity is exactly 1 at theta=0
    assert np.all(rows[:, 2:] >= 0) and np.all(rows[:, 2:] <= 1 + 1e-12)


def test_sweep_output_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "rc_compare", theta_points=3, seeds=5, seed=11, n=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep", cfg, "-o", str(a)]) == 0
    assert run(["sweep", cfg, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rc_cost_does_not_depend_on_seeds(tmp_path):
    # f_rc_mean is the exact twirl mean, so no work grows with seeds (1e8 seeded
    # twirls per point would take more than a day)
    cfg = write_cfg(tmp_path, "rc_compare", theta_points=3, seeds=100_000_000)
    t0 = time.monotonic()
    assert run(["sweep", cfg, "-o", str(tmp_path / "rc.csv")]) == 0
    assert time.monotonic() - t0 < 2.0


def test_unwritable_output_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "overrotation_sweep", theta_points=3, n_list=[2])
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run(["sweep", cfg, "-o", str(missing)]) == 3


def _count_pulse_evolutions(monkeypatch):
    calls = []
    monkeypatch.setattr(lindblad, "ms_gate_channel", lambda spec: calls.append(spec))
    return calls


@pytest.mark.parametrize("cmd, content", [
    ("ptm", {"calibrate": {"n_fock": 3}}),
    ("sweep", {"experiment": "sk1_viability", "eps_amplitude_list": [0.01],
               "gamma_list": [20.0]}),
])
def test_missing_output_directory_exits_3_before_any_pulse(tmp_path, capsys, monkeypatch,
                                                          cmd, content):
    calls = _count_pulse_evolutions(monkeypatch)
    src, missing = tmp_path / "input.json", tmp_path / "no" / "o.csv"
    src.write_text(json.dumps(content))
    assert run(ARGV[cmd].format(src=src, out=missing).split()) == 3
    assert calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(missing) in err[0]


def test_missing_output_directory_exits_3_before_the_pass(tmp_path, capsys):
    src, missing = tmp_path / "in.circ", tmp_path / "no" / "o.circ"
    circuit.write_file(circuit.parity_controlled_z(2, 0.3), src)
    assert run(["compile", str(src), str(missing), "--pass", "hidden"]) == 3
    out, err = capsys.readouterr()
    assert "sites:" not in out
    assert err.startswith("error:") and str(missing) in err and err.count("\n") == 1


@pytest.mark.parametrize("cmd, content", [
    ("ptm", {"calibrate": {"n_fock": 3}}),
    ("sweep", {"experiment": "sk1_viability", "eps_amplitude_list": [0.01],
               "gamma_list": [20.0]}),
])
def test_output_path_that_is_a_directory_exits_3_before_any_pulse(tmp_path, capsys,
                                                                 monkeypatch, cmd, content):
    calls = _count_pulse_evolutions(monkeypatch)
    src, folder = tmp_path / "input.json", tmp_path / "out"
    src.write_text(json.dumps(content))
    folder.mkdir()
    assert run(ARGV[cmd].format(src=src, out=folder).split()) == 3
    assert calls == []
    assert capsys.readouterr().err.splitlines() == [f"error: output path {folder} is a directory"]


def test_output_path_that_is_a_directory_exits_3_before_the_pass(tmp_path, capsys):
    src, folder = tmp_path / "in.circ", tmp_path / "out"
    circuit.write_file(circuit.parity_controlled_z(2, 0.3), src)
    folder.mkdir()
    assert run(["compile", str(src), str(folder), "--pass", "hidden"]) == 3
    out, err = capsys.readouterr()
    assert "sites:" not in out
    assert err == f"error: output path {folder} is a directory\n"


def test_a_config_error_wins_over_a_missing_output_directory(tmp_path, capsys, monkeypatch):
    calls = _count_pulse_evolutions(monkeypatch)
    src, missing = tmp_path / "spec.json", tmp_path / "no" / "o.csv"
    src.write_text(json.dumps({"calibrate": {"n_fock": 3, "loops": 0}}))
    assert run(["ptm", str(src), str(missing)]) == 2
    assert calls == [] and "cannot read spec" in capsys.readouterr().err


def test_repeated_2q_sweep(tmp_path):
    cfg = write_cfg(tmp_path, "repeated_2q", theta_points=3)
    out = tmp_path / "r.csv"
    assert run(["sweep", cfg, "-o", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["theta", "f_hidden", "f_standard"]
    mid = rows[1]
    assert abs(mid[0]) < 1e-12
    assert mid[1] > 0.99 and 0.78 <= mid[2] <= 0.90


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["sweep", str(path), "-o", str(tmp_path / "x.csv")]) == 2
    cfg = write_cfg(tmp_path, "nonsense")
    assert run(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 2
    cfg = write_cfg(tmp_path, "overrotation_sweep", theta_points=0)
    assert run(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_output_path_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "overrotation_sweep")
    assert run(["sweep", cfg]) == 2


def test_compile_hidden_pass(tmp_path, capsys):
    src = tmp_path / "in.circ"
    circuit.write_file(circuit.parity_controlled_z(2, 0.3), src)
    dst = tmp_path / "out.circ"
    assert run(["compile", str(src), str(dst), "--pass", "hidden"]) == 0
    report = capsys.readouterr().out
    assert "sites: 1" in report and "closing=inverse" in report
    out = circuit.read_file(dst)
    assert [g.orientation for g in out.gates if g.kind == "cnot"] == ["standard",
                                                                     "inverse"]


def test_compile_reports_no_angle_for_a_site_without_a_target_z(tmp_path, capsys):
    # W is a Y rotation of the target: the rule has no angle to read, and
    # inverts the closing CNOT as it does at angle 0
    src, dst = tmp_path / "in.circ", tmp_path / "out.circ"
    src.write_text(f"qubits 2\ncnot 0 1\nrot1q 1 0.4 {math.pi / 2!r}\ncnot 0 1\n")
    assert run(["compile", str(src), str(dst), "--pass", "hidden"]) == 0
    assert capsys.readouterr().out == "sites: 1\n  gates (0, 2) angle=n/a closing=inverse\n"
    assert [g.orientation for g in circuit.read_file(dst).gates if g.kind == "cnot"] == [
        "standard", "inverse"]


def test_compile_rc_pass_reproducible(tmp_path):
    src = tmp_path / "in.circ"
    c = circuit.parity_controlled_z(2, 0.3)
    circuit.write_file(c, src)
    d1, d2 = tmp_path / "a.circ", tmp_path / "b.circ"
    assert run(["compile", str(src), str(d1), "--pass", "rc", "--seed", "7"]) == 0
    assert run(["compile", str(src), str(d2), "--pass", "rc", "--seed", "7"]) == 0
    assert d1.read_bytes() == d2.read_bytes()
    out = circuit.read_file(d1)
    assert phase_overlap(circuit.unitary_of(c), circuit.unitary_of(out)) > 1 - 1e-10


def test_compile_empty_circuit(tmp_path, capsys):
    src = tmp_path / "in.circ"
    src.write_text("qubits 2\n")
    dst = tmp_path / "out.circ"
    assert run(["compile", str(src), str(dst), "--pass", "hidden"]) == 0
    assert "sites: 0" in capsys.readouterr().out
    assert circuit.read_file(dst) == circuit.Circuit(2, [])


def test_compile_parse_error_exits_2(tmp_path, capsys):
    src = tmp_path / "in.circ"
    src.write_text("qubits 2\ncnot zero one\n")
    assert run(["compile", str(src), str(tmp_path / "o.circ"),
                "--pass", "hidden"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_ptm_subcommand(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"calibrate": {"delta": 2 * np.pi * 20e3, "n_fock": 9}}))
    out = tmp_path / "ptm.csv"
    assert run(["ptm", str(spec), str(out), "--steps-per-period", "120"]) == 0
    R = channels.PTM(2, np.loadtxt(out, delimiter=",", skiprows=2))
    ideal = channels.ptm_of_unitary(xx_unitary(np.pi / 4))
    assert channels.avg_fidelity_from_ptm(R, ideal) > 1 - 1e-4


def test_ptm_bad_spec_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    assert run(["ptm", str(spec), str(tmp_path / "o.csv")]) == 2


def test_header_echoes_effective_config(tmp_path):
    cfg = write_cfg(tmp_path, "repeated_2q", theta_points=3, output="ignored.csv")
    out = tmp_path / "r.csv"
    assert run(["sweep", cfg, "-o", str(out)]) == 0
    echo = json.loads(out.read_text().splitlines()[1].removeprefix("# config: "))
    assert echo == {"experiment": "repeated_2q", "theta_points": 3,
                    **{k: v for k, v in cli.SCHEMAS["repeated_2q"].items()
                       if k != "theta_points"}}


def test_effective_config_fills_defaults_and_checks_types():
    eff = cli.effective_config({"experiment": "rc_compare", "noise": "phase", "seeds": 3,
                                "phi_diff_deg": 2})
    assert eff["seeds"] == 3 and eff["phi_diff_deg"] == 2 and eff["n"] == 2
    assert "delta_detune" not in eff and "eps_2q" not in eff
    for bad in ({"experiment": "overrotation_sweep", "theta_points": True},
                {"experiment": "overrotation_sweep", "theta_points": 41.0},
                {"experiment": "overrotation_sweep", "eps_1q": math.inf},
                {"experiment": "overrotation_sweep", "n_list": []},
                {"experiment": "rc_compare", "noise": "overrotation", "delta_detune": 0.1},
                {"experiment": "rc_compare", "noise": "drift"}):
        with pytest.raises(cli.ConfigError):
            cli.effective_config(bad)


# Every malformed input exits 2 with exactly one "error:" line on stderr.
# Each case: a command line (a subcommand of ARGV, or a template with {src}
# and {out}), input file content (JSON-encoded unless a string), and a
# fragment of the expected message.
ARGV = {"sweep": "sweep {src} -o {out}", "ptm": "ptm {src} {out}",
        "compile": "compile {src} {out} --pass hidden"}
SMALL_SPEC = {"calibrate": {"n_fock": 3}}
FULL_SPEC = lindblad.spec_to_dict(lindblad.xx_gate_spec(n_fock=3))
BAD_INPUTS = {
    "eps_2q_string": ("sweep", {"experiment": "overrotation_sweep", "eps_2q": "abc"},
                      "eps_2q must be a finite number"),
    "zero_seeds": ("sweep", {"experiment": "rc_compare", "seeds": 0}, "seeds >= 1"),
    "array_config": ("sweep", [1, 2], "config must be a JSON object"),
    "n_list_1": ("sweep", {"experiment": "overrotation_sweep", "n_list": [1]}, "n_list"),
    "n_list_11": ("sweep", {"experiment": "phase_sweep", "n_list": [11]}, "n_list"),
    "n_list_scalar": ("sweep", {"experiment": "overrotation_sweep", "n_list": 4},
                      "n_list must be a non-empty list"),
    "typo_key": ("sweep", {"experiment": "overrotation_sweep", "theta_pts": 9},
                 "unknown key(s) ['theta_pts']"),
    "theta_points_string": ("sweep", {"experiment": "repeated_2q", "theta_points": "x"},
                            "theta_points must be an integer"),
    "zero_reps": ("sweep", {"experiment": "repeated_2q", "reps": 0}, "reps must be >= 1"),
    "p_depol_2": ("sweep", {"experiment": "contrast_4q", "p_depol": 2},
                  "retention probability"),
    "rc_width_1": ("sweep", {"experiment": "rc_compare", "n": 1}, "n in [2, 10]"),
    # a JSON integer past the float range
    "eps_2q_huge_int": ("sweep", {"experiment": "overrotation_sweep", "eps_2q": 10 ** 400},
                        "eps_2q must be a finite number, got 1000"),
    "phi_nan": ("sweep", {"experiment": "phase_sweep", "phi_diff_deg": math.nan},
                "phi_diff_deg must be a finite number"),
    "ptm_extract": ("sweep", {"experiment": "ptm_extract", "steps_per_period": 100},
                    "hinv ptm"),
    "bad_theta_grid": ("sweep", {"experiment": "rc_compare", "theta_min": 1.0,
                                 "theta_max": 0.0}, "bad theta grid"),
    "bad_calibrate_key": ("ptm", {"calibrate": {"detuning": 1.0}}, "cannot read spec"),
    "array_spec": ("ptm", [1, 2], "cannot read spec"),
    "null_spec": ("ptm", None, "spec must be a JSON object, got None"),
    "string_spec": ("ptm", '"x"', "spec must be a JSON object, got 'x'"),
    "circuit_inf": ("compile", "qubits 2\nvirtual_z 1 inf\n", "angle must be finite"),
    "circuit_nan": ("compile", "qubits 2\nrot1q 0 nan 0.0\n", "angle must be finite"),
    "circuit_trailing": ("compile", "qubits 2\ncnot 0 1 standard 3\n",
                         "cnot takes 2 or 3 argument(s), got 4"),
    "circuit_second_header": ("compile", "qubits 2\nqubits 3\n", "second 'qubits' header"),
    "steps_per_period_0": ("ptm {src} {out} --steps-per-period 0", SMALL_SPEC,
                           "--steps-per-period must be >= 1, got 0"),
    "steps_per_period_negative": ("ptm {src} {out} --steps-per-period -5", SMALL_SPEC,
                                  "--steps-per-period must be >= 1, got -5"),
    "loops_fraction": ("ptm", {"calibrate": {"n_fock": 3, "loops": 1.5}},
                       "loops must be an integer >= 1, got 1.5"),
    "loops_0": ("ptm", {"calibrate": {"n_fock": 3, "loops": 0}},
                "loops must be an integer >= 1, got 0"),
    "delta_0": ("ptm", {"calibrate": {"n_fock": 3, "delta": 0}},
                "delta must be a finite number > 0, got 0"),
    "eta_0": ("ptm", {"calibrate": {"n_fock": 3, "eta": 0}},
              "eta must be a finite number > 0, got 0"),
    "theta_string": ("ptm", {"calibrate": {"n_fock": 3, "theta": "pi/4"}},
                     "theta must be a finite number > 0, got 'pi/4'"),
    "delta_string": ("ptm", {"calibrate": {"n_fock": 3, "delta": "1e5"}},
                     "delta must be a finite number > 0, got '1e5'"),
    "amp_scale_string": ("ptm", {"calibrate": {"n_fock": 3, "amp_scale": "x"}},
                         "amp_scale must be a finite number > 0, got 'x'"),
    "amp_scale_negative": ("ptm", {"calibrate": {"n_fock": 3, "amp_scale": -1}},
                           "amp_scale must be a finite number > 0, got -1"),
    "theta_bool": ("ptm", {"calibrate": {"n_fock": 3, "theta": True}},
                   "theta must be a finite number > 0, got True"),
    "spin_phases_one_entry": ("ptm", {"calibrate": {"n_fock": 3, "spin_phases": [0.5]}},
                              "spin_phases needs one value per ion, got 1"),
    "spin_phases_bool": ("ptm", {"calibrate": {"n_fock": 3, "spin_phases": [True, 0]}},
                         "spin_phases must be a number, got True"),
    "spin_phases_string": ("ptm", {"calibrate": {"n_fock": 3, "spin_phases": ["a", 0]}},
                           "spin_phases must be a number, got 'a'"),
    "spin_phases_huge_int": ("ptm", {"calibrate": {"n_fock": 3, "spin_phases": [10 ** 400, 0]}},
                             "spin_phases must be finite, got 1000"),
    "theta_huge_int": ("ptm", {"calibrate": {"n_fock": 3, "theta": 10 ** 400}},
                       "theta must be a finite number > 0, got 1000"),
    "loops_huge_int": ("ptm", {"calibrate": {"n_fock": 3, "loops": 10 ** 400}},
                       "loops must be finite, got 1000"),
    "n_fock_huge_int": ("ptm", {"calibrate": {"n_fock": 10 ** 400}},
                        "n_fock must be finite, got 1000"),
    "theta_points_huge_int": ("sweep", {"experiment": "overrotation_sweep",
                                        "theta_points": 10 ** 400},
                              "theta_points must be finite, got 1000"),
    "compile_without_pass": ("compile {src} {out}", "qubits 2\n",
                             "hinv compile: the following arguments are required: --pass"),
    "unknown_subcommand": ("frobnicate {src}", "", "invalid choice: 'frobnicate'"),
    "no_subcommand": ("", "", "the following arguments are required: cmd"),
    "steps_per_period_word": ("ptm {src} {out} --steps-per-period abc", SMALL_SPEC,
                              "argument --steps-per-period: invalid int value: 'abc'"),
    "n_fock_fraction": ("ptm", {"calibrate": {"n_fock": 5.5}},
                        "n_fock must be an integer >= 2, got 5.5"),
    "gamma_heat_nan": ("ptm", {"calibrate": {"n_fock": 3, "gamma_heat": math.nan}},
                       "must be finite"),
    "mode_nbar_nan": ("ptm", {"calibrate": {"n_fock": 3, "mode_nbar": math.nan}},
                      "must be finite"),
    "mode_nbar_negative": ("ptm", {"calibrate": {"n_fock": 3, "mode_nbar": -0.5}},
                           "mode_nbar must be >= 0"),
    "circuit_negative_qubit": ("compile {src} {out} --pass rc", "qubits 2\nrot1q -1 0.5 0.0\n",
                               "outside [0, 2)"),
    "threshold_nan": ("compile {src} {out} --pass hidden --threshold nan", "qubits 2\n",
                      "threshold must be in (0, pi]"),
    "threshold_5": ("compile {src} {out} --pass hidden --threshold 5", "qubits 2\n",
                    "threshold must be in (0, pi]"),
    "seed_negative": ("compile {src} {out} --pass rc --seed -1", "qubits 2\n",
                      "--seed must be >= 0, got -1"),
    "omega_r_one_entry": ("ptm", {**FULL_SPEC, "omega_r": [1e5]},
                          "omega_r needs one value per ion, got 1"),
    "eta_one_entry": ("ptm", {**FULL_SPEC, "modes": [{"eta": [0.1]}]},
                      "eta needs one value per ion, got 1"),
    "eta_three_entries": ("ptm", {**FULL_SPEC, "modes": [{"eta": [0.1, 0.1, 0.1]}]},
                          "eta needs one value per ion, got 3"),
    "rk4_steps_over_limit": ("ptm",
                             {**FULL_SPEC, "segments": [{"duration": 1.0, "delta": 1e6}]},
                             "2.0118e+06 series applications per mode round exceed the limit "
                             "60000"),
    "sk1_steps_over_limit": ("sweep", {"experiment": "sk1_viability", "gamma_list": [1e12]},
                             "bad sk1_viability config: 2.35e+08 series applications per "
                             "mode round exceed the limit 60000"),
    # steps_per_period left the sk1_viability schema: the propagation is exact
    "sk1_steps_per_period_key": ("sweep", {"experiment": "sk1_viability", "steps_per_period": 150},
                                 "unknown key(s) ['steps_per_period']"),
    "sk1_gamma_negative": ("sweep", {"experiment": "sk1_viability", "gamma_list": [-1.0]},
                           "bad sk1_viability config: gamma_heat must be >= 0, got -1.0"),
    "gamma_heat_1e12": ("ptm", {"calibrate": {"n_fock": 4, "gamma_heat": 1e12}},
                        "5.5e+08 series applications per mode round exceed the limit "
                        "60000"),
    # 2 / tau_m overflows, and inf * 0 makes the predicted work nan
    "tau_m_overflow": ("ptm", {"calibrate": {"n_fock": 3, "tau_m": 1e-320}},
                       "nan series applications per mode round exceed the limit 60000"),
    "key_beside_calibrate": ("ptm", {"calibrate": {"n_fock": 3}, "n_fock": 99,
                                     "gamma_heat": 1e9},
                             "no other keys with calibrate: ['gamma_heat', 'n_fock']"),
    "mode_key_typo": ("ptm", {**FULL_SPEC, "modes": [{"eta": [0.1, 0.1], "offst": 5}]},
                      "unexpected keyword argument 'offst'"),
    "mode_without_eta": ("ptm", {**FULL_SPEC, "modes": [{"offset": 0.0}]},
                         "missing 1 required positional argument: 'eta'"),
    "segment_key_typo": ("ptm", {**FULL_SPEC, "segments": [{"duration": 1e-4, "delta": 1e5,
                                                            "dleta": 0}]},
                         "unexpected keyword argument 'dleta'"),
    "mode_nbar_bool": ("ptm", {**FULL_SPEC, "mode_nbar": True},
                       "mode_nbar must be a number, got True"),
    "tau_m_bool": ("ptm", {**FULL_SPEC, "tau_m": True}, "tau_m must be a number, got True"),
    "calibrate_tau_m_bool": ("ptm", {"calibrate": {"n_fock": 3, "tau_m": True}},
                             "tau_m must be a number, got True"),
    "gamma_heat_string": ("ptm", {"calibrate": {"n_fock": 3, "gamma_heat": "x"}},
                          "gamma_heat must be a number, got 'x'"),
    "tau_m_string": ("ptm", {"calibrate": {"n_fock": 3, "tau_m": "5"}},
                     "tau_m must be a number, got '5'"),
    "eta_entry_string": ("ptm", {**FULL_SPEC, "modes": [{"eta": [0.1, "x"]}]},
                         "eta must be a number, got 'x'"),
    "omega_r_scalar": ("ptm", {**FULL_SPEC, "omega_r": 5},
                       "omega_r needs one value per ion, got 1"),
    "stark_scalar": ("ptm", {**FULL_SPEC, "stark": 0}, "stark needs one value per ion, got 1"),
    "modes_scalar": ("ptm", {**FULL_SPEC, "modes": 5}, "modes must be a list of objects, got 5"),
    "modes_of_numbers": ("ptm", {**FULL_SPEC, "modes": [5]},
                         "modes must be a list of objects, got [5]"),
    "segments_object": ("ptm", {**FULL_SPEC, "segments": {"duration": 1e-4, "delta": 1e5}},
                        "segments must be a list of objects, got {"),
    "calibrate_list": ("ptm", {"calibrate": [1, 2]}, "calibrate must be an object, got [1, 2]"),
    # calibrate takes the channel fields, but no field that the calibration sets
    "calibrate_stark": ("ptm", {"calibrate": {"n_fock": 3, "stark": [1000.0, 0.0]}},
                        "multiple values for keyword argument 'stark'"),
    "calibrate_omega_r": ("ptm", {"calibrate": {"n_fock": 3, "omega_r": [1.0, 1.0]}},
                          "multiple values for keyword argument 'omega_r'"),
    # a non-finite pulse field names itself
    "spin_phases_nan": ("ptm", {"calibrate": {"n_fock": 3, "spin_phases": [math.nan, 0]}},
                        "spin_phases must be finite, got nan"),
    "segment_delta_inf": ("ptm", {**FULL_SPEC, "segments": [{"duration": 1e-4,
                                                             "delta": math.inf}]},
                          "delta must be finite, got inf"),
    "eta_nan": ("ptm", {**FULL_SPEC, "modes": [{"eta": [0.1, math.nan]}]},
                "eta must be finite, got nan"),
    "omega_r_inf": ("ptm", {**FULL_SPEC, "omega_r": [math.inf, 1e5]},
                    "omega_r must be finite, got inf"),
}


@pytest.mark.parametrize("cmd, content, fragment", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, cmd, content, fragment):
    src = tmp_path / "input"
    src.write_text(content if isinstance(content, str) else json.dumps(content))
    template = ARGV.get(cmd, cmd)
    argv = template.format(src=src, out=tmp_path / "out").split()
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert fragment in err[0]


@pytest.mark.parametrize("pass_name", ["hidden", "rc", "sk1"])
def test_a_qubit_count_past_the_float_range_exits_2(tmp_path, capsys, pass_name):
    # every pass refuses the header before it writes anything; the largest count a
    # float holds is accepted, since no pass simulates the circuit
    src, out = tmp_path / "in.circ", tmp_path / "out.circ"
    argv = ["compile", str(src), str(out), "--pass", pass_name]
    for n in (10 ** 400, int(sys.float_info.max) + 1):
        src.write_text(f"qubits {n}\ncnot 0 1\nvirtual_z 1 0.7\ncnot 0 1\n")
        assert run(argv) == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"line 1: qubits must be finite, got {str(n)[:20]}" in err[0]
    src.write_text(f"qubits {int(sys.float_info.max)}\ncnot 0 1\n")
    assert run(argv) == 0
    assert out.read_text().startswith(f"qubits {int(sys.float_info.max)}\n")


def test_calibrate_forwards_the_channel_fields():
    spec = lindblad.spec_from_dict({"calibrate": {"n_fock": 3, "mode_nbar": 0.5}})
    assert (spec.n_fock, spec.mode_nbar) == (3, 0.5)


def test_work_over_the_limit_exits_2_within_a_second(tmp_path, capsys):
    # refused by the predicted series applications, before any evolution
    for name in ("rk4_steps_over_limit", "sk1_steps_over_limit", "gamma_heat_1e12",
                 "tau_m_overflow"):
        cmd, content, fragment = BAD_INPUTS[name]
        src = tmp_path / "input.json"
        src.write_text(json.dumps(content))
        start = time.monotonic()
        assert run(ARGV[cmd].format(src=src, out=tmp_path / "out").split()) == 2
        assert time.monotonic() - start < 1.0
        assert fragment in capsys.readouterr().err


def test_steps_per_period_has_no_effect(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_SPEC))
    outs = [tmp_path / "default.csv", tmp_path / "huge.csv"]
    assert run(["ptm", str(spec), str(outs[0])]) == 0
    assert run(["ptm", str(spec), str(outs[1]), "--steps-per-period", "1000000"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["ptm", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hinv")


def test_contrast_sweep_checks_its_channel_once(tmp_path, monkeypatch):
    # one depolarizing PTM after every CNOT of 3 points x 2 configurations
    calls = []
    real = channels.choi_min_eigenvalue
    monkeypatch.setattr(channels, "choi_min_eigenvalue",
                        lambda R: calls.append(R) or real(R))
    cfg = write_cfg(tmp_path, "contrast_4q", theta_points=3)
    assert run(["sweep", cfg, "-o", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1


def _out_of_range_point(monkeypatch):
    monkeypatch.setattr(cli, "_ladders", lambda n, theta, nm: [1.5, 0.5])
    return ["sweep", {"experiment": "overrotation_sweep", "n_list": [2], "theta_points": 2}]


def _non_cptp_channel(monkeypatch):
    monkeypatch.setattr(channels, "is_cptp", lambda R: False)
    return ["sweep", {"experiment": "contrast_4q", "theta_points": 1}]


def _trace_drift(monkeypatch):
    monkeypatch.setattr(lindblad, "_evolve_batch", lambda rhos, *args: 1.01 * rhos)
    return ["ptm", {"calibrate": {"n_fock": 3}}]


def _out_of_memory(monkeypatch):
    # what numpy raises for an allocation such as {"calibrate": {"n_fock": 3000}};
    # raised here, since a real request that large can succeed on a large host
    def fail(*args):
        raise MemoryError("Unable to allocate 34.3 GiB")
    monkeypatch.setattr(lindblad, "ms_gate_channel", fail)
    return ["ptm", {"calibrate": {"n_fock": 3}}]


def _bare_out_of_memory(monkeypatch):
    # a MemoryError with no message, as from {"experiment": "repeated_2q",
    # "reps": 1000000000, "theta_points": 1}, prints its type
    def fail(*args):
        raise MemoryError()
    monkeypatch.setattr(cli, "_repeated_row", fail)
    return ["sweep", {"experiment": "repeated_2q", "theta_points": 1}]


@pytest.mark.parametrize("setup, fragment", [
    (_out_of_range_point, "out of [0, 1]"),
    (_non_cptp_channel, "is not CPTP"),
    (_trace_drift, "trace drift"),
    (_out_of_memory, "Unable to allocate"),
    (_bare_out_of_memory, "MemoryError"),
])
def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch, setup, fragment):
    cmd, content = setup(monkeypatch)
    src = tmp_path / "input.json"
    src.write_text(json.dumps(content))
    out = str(tmp_path / "out.csv")
    argv = ["sweep", str(src), "-o", out] if cmd == "sweep" else ["ptm", str(src), out]
    assert run(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_CONFIGS = sorted(p for p in CONFIGS.glob("*.json")
                       if "experiment" in json.loads(p.read_text()))


@pytest.mark.parametrize("path", SWEEP_CONFIGS, ids=lambda p: p.stem)
def test_shipped_sweep_config_builds(path):
    cfg = cli.effective_config(json.loads(path.read_text()))
    sk1 = cfg["experiment"] == "sk1_viability"
    header, rows = cli.build_sweep(cfg)
    row = next(rows)
    assert len(row) == len(header)
    if sk1:  # improvement is printed to 1e-12 absolute
        assert Decimal(cli._fmt(row[-1])).as_tuple().exponent >= -12


def test_build_sweep_does_no_point_work(monkeypatch):
    # rows are computed as they are read, outside the config stage (exit 3, not 2)
    calls = []
    real = cli._ladders
    monkeypatch.setattr(cli, "_ladders", lambda *args: calls.append(args) or real(*args))
    cfg = cli.effective_config({"experiment": "overrotation_sweep", "theta_points": 3})
    header, rows = cli.build_sweep(cfg)
    assert calls == []
    assert len(list(rows)) == 9 and len(calls) == 9


def test_shipped_configs_are_all_covered():
    assert {json.loads(p.read_text())["experiment"] for p in SWEEP_CONFIGS} == set(cli.SCHEMAS)
    spec = lindblad.load_spec(CONFIGS / "ms_gate_lindblad.json")
    assert spec.gamma_heat == 200.0 and spec.n_fock == 13


def test_names_the_benchmark_reaches_exist(monkeypatch):
    # the benchmark runs untraced, so a missing traced name would show only under --trace 1
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for mod, fns in tracing.TRACED.items():
        for fn in fns:
            assert hasattr(importlib.import_module(f"hinv.{mod}"), fn), f"hinv.{mod}.{fn}"
    assert callable(lindblad.spec_to_dict) and lindblad.DEFAULT_STEPS_PER_PERIOD >= 1


# names that perfbench's batch.py, selftest.py and workloads.py call, beyond
# those tracing.TRACED wraps
BENCHMARK_CALLS = [
    "lindblad._n_steps", "lindblad.spec_to_dict", "lindblad.spec_from_dict",
    "lindblad.DEFAULT_STEPS_PER_PERIOD", "circuit.read_file", "circuit.repeated_block_circuit",
    "circuit.channels_after_two_qubit", "circuit.HIDDEN_INVERSE", "channels.depolarizing_ptm",
    "gates.amplitude_to_angle_overrotation", "gates.STANDARD", "gates.NoiseModel",
    "analytics.PLUS", "analytics.MINUS", "analytics.closed_form_fe", "analytics.exact_ladder_fe",
]


@pytest.mark.parametrize("name", BENCHMARK_CALLS)
def test_names_the_benchmark_scripts_call_exist(name):
    mod, attr = name.split(".")
    assert hasattr(importlib.import_module(f"hinv.{mod}"), attr), f"hinv.{name}"


@pytest.mark.parametrize("seed", [3, 11])
def test_the_benchmark_inputs_pass_the_config_stage(tmp_path, monkeypatch, seed):
    # a change that stops accepting a benchmark input would otherwise show only
    # as failed items in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(lindblad, "ms_gate_channel", lambda spec: channels.PTM(2, np.eye(16)))
    checked = 0
    for name in workloads.WORKLOADS:
        inputs = tmp_path / name
        workloads.generate(name, seed, str(inputs))
        for path in sorted(inputs.iterdir()):
            if path.suffix == ".circ":
                circuit.read_file(path)
            elif path.name == "manifest.json":
                continue
            elif "experiment" in json.loads(path.read_text()):
                cli.build_sweep(cli.effective_config(json.loads(path.read_text())))
            else:
                out = tmp_path / f"{path.stem}.csv"
                assert run(["ptm", str(path), str(out), "--steps-per-period", "150"]) == 0
            checked += 1
    assert checked == 11   # 4 sweep configs, 4 pulse specs, 3 circuit files


# sha256 of each fast shipped sweep's CSV, as recorded in CHANGES.md
RECORDED_SHA256 = {
    "overrotation_sweep": "cff0ddc46d47ecdcd3f58c1140cdd753af5f60ee1523daca8848175c40654659",
    "phase_sweep": "e1cf30cc42cd8f925236810fbf1d9799098581b8c0486bcd8b8d4f434aea33f2",
    "contrast_4q": "7418bbda6fea2893b69f42605497dd60ba38f39de3bc0418ecb94561f4ff020a",
    "repeated_2q": "54435730915db4f2f4f6cbc815cca25d2c95fdb0e7089fce0cd5d487ab29fa1c",
    "rc_compare_detuning": "90575ae8bdc58719d1628f594db66e8b2b9589108f2da51d1a3e01bb0b2918c7",
    "rc_compare_overrotation":
        "686d70f34e4970ab56064db3439a938b6591fdd8a4fd625c42bc7b25dd168cf7",
}


@pytest.mark.parametrize("name", RECORDED_SHA256)
def test_fast_shipped_configs_reproduce_recorded_csvs(tmp_path, name):
    out = tmp_path / "out.csv"
    assert run(["sweep", str(CONFIGS / f"{name}.json"), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_SHA256[name]


def test_shipped_ptm_spec_reproduces_recorded_csv(tmp_path):
    out = tmp_path / "ptm.csv"
    assert run(["ptm", str(CONFIGS / "ms_gate_lindblad.json"), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5fcd0a86e1a1291a0df553319a1c52711588d8a68d3cdb98e909a462039fe924")


def test_importing_the_cli_loads_no_process_pool():
    # a sweep runs in one process, so the CLI needs neither module at import
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import hinv.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_the_cli_loads_lindblad_only_for_a_pulse_and_numpy_ma_never(tmp_path):
    # a sweep or compile process does not pay for importing lindblad, and
    # ms_gate_channel avoids np.setdiff1d, whose first call imports numpy.ma
    src = str(Path(cli.__file__).resolve().parents[1])
    spec, cfg, circ = tmp_path / "spec.json", tmp_path / "cfg.json", tmp_path / "in.circ"
    spec.write_text(json.dumps({"calibrate": {"n_fock": 3}}))
    cfg.write_text(json.dumps({"experiment": "overrotation_sweep", "n_list": [2],
                               "theta_points": 3}))
    circuit.write_file(circuit.parity_controlled_z(2, 0.3), circ)
    argvs = [["sweep", str(cfg), "-o", str(tmp_path / "s.csv")],
             ["compile", str(circ), str(tmp_path / "o.circ"), "--pass", "hidden"],
             ["compile", str(circ), str(tmp_path / "k.circ"), "--pass", "sk1"],
             ["ptm", str(spec), str(tmp_path / "p.csv")],
             ["compile", str(circ), str(tmp_path / "r.circ"), "--pass", "rc"]]
    # and only an rc compile, which draws its twirls, loads numpy.random
    code = (f"import sys; sys.path.insert(0, {src!r}); import hinv.cli\n"
            "loaded = lambda: [m in sys.modules\n"
            "                  for m in ('hinv.lindblad', 'numpy.ma', 'numpy.random')]\n"
            "print('import', loaded())\n"
            f"for argv in {argvs!r}:\n"
            "    print(argv[0], argv[-1], hinv.cli.main(argv), loaded())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert [ln for ln in done.stdout.splitlines()
            if not ln.startswith(("sites", " ", "expanded", "twirled"))] == [
        "import [False, False, False]", f"sweep {tmp_path / 's.csv'} 0 [False, False, False]",
        "compile hidden 0 [False, False, False]", "compile sk1 0 [False, False, False]",
        f"ptm {tmp_path / 'p.csv'} 0 [True, False, False]", "compile rc 0 [True, False, True]"]
    # a bare `import hinv` leaves lindblad unloaded until first access
    code = (f"import sys; sys.path.insert(0, {src!r}); import hinv\n"
            "print('hinv.lindblad' in sys.modules, callable(hinv.lindblad.ms_gate_channel),"
            " hasattr(hinv, 'no_such_module'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "False True False"


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    src = tmp_path / "in.circ"
    circuit.write_file(circuit.parity_controlled_z(2, 0.3), src)
    compile_rc = ["compile", str(src), str(tmp_path / "o.circ"), "--pass", "rc"]
    assert run(compile_rc + ["--seed", "5"]) == 0
    assert "(seed=5)" in capsys.readouterr().out
    assert run(compile_rc) == 0
    assert "(seed=0)" in capsys.readouterr().out
    assert run(["compile", str(src)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hinv")
    assert run(compile_rc) == 0
    assert "(seed=0)" in capsys.readouterr().out


# A circuit with nested, repeated and adjacent conjugation sites, and the
# sha256 of (output file, stdout) of each pass on it, recorded before the
# hidden pass shared its site search with the report.  The hidden pass's stdout
# was re-recorded when site (7, 9), whose W is an xx, came to print angle=n/a
# for angle=0; that is the one line it changed.
COMPILE_CIRCUIT = """qubits 3
cnot 0 2 standard
cnot 1 2 standard
virtual_z 2 0.7
rot1q 1 0.3 0.2
cnot 1 2 standard
cnot 0 2 standard
hadamard 0
cnot 0 1
xx 0 1 0.4 0.1 0.2
cnot 0 1
cnot 1 2
virtual_z 2 2.5
cnot 1 2
rot1q 2 1.1 0.0
"""
RECORDED_COMPILE_SHA256 = {
    "hidden": ("ff9a15fa59aff00cdb96e44782bd3b9ae1c02499ec39f7dc2521845b460d9c53",
               "95e8042876fb125007840db4619b78e649ec6298f8499e23e973b27c072bb479"),
    "hidden --threshold 0.3":
        ("0cfe6d20e0bdc11cbee4fee1f38ee11bd22f61f5140dad2f03fa426743341b1b",
         "68659c2709a14611221692f7200ef0c00383e156fe4c46a7d1dfc4553eb632de"),
    "rc --seed 5": ("c6f668c1aa187d9411f208b323592afca5aa8641e5786828702deb5e35c73120",
                    "c5cd35445c0671b1b267b24e53005c4216be2141d838cb32f900342a8ebe978c"),
    "sk1": ("77743c7067383f78a76f8b3767b8d549102a09436d66c394800eefa354981874",
            "c62f8ccd66f5119748defc147f84d47d0165b4433bc694558470543c730047f6"),
}


@pytest.mark.parametrize("args", RECORDED_COMPILE_SHA256)
def test_compile_reproduces_recorded_output(tmp_path, capsys, monkeypatch, args):
    searches = []
    search = compiler.find_hidden_inverse_sites
    monkeypatch.setattr(compiler, "find_hidden_inverse_sites",
                        lambda c: searches.append(c) or search(c))
    src, dst = tmp_path / "in.circ", tmp_path / "out.circ"
    src.write_text(COMPILE_CIRCUIT)
    assert run(["compile", str(src), str(dst), "--pass", *args.split()]) == 0
    digests = (hashlib.sha256(dst.read_bytes()).hexdigest(),
               hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == RECORDED_COMPILE_SHA256[args]
    assert len(searches) == (1 if args.startswith("hidden") else 0)
