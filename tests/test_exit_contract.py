"""Property test of the CLI exit contract.

Every input ends in exit 0, 2 or 3: exit 0 with nothing on stderr, and
otherwise exactly one ``error:`` line.  The inputs are one-key mutations of
small versions of the shipped configs and of two pulse specs, and one-token
mutations of a circuit file with every gate kind, each run through
``cli.main`` in process.

Valid but large integers are left out: ``theta_points`` or ``reps`` at
10**7 is accepted and runs for longer than 20 s, since no cost budget
refuses a sweep before it runs.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hinv import cli, gates, lindblad

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
VALUES = [0, -1, 2.5, 1e300, 10**400, math.nan, math.inf, True, "x", [], {}, None]
TOKENS = ["0", "-1", "2.5", "1e300", str(10**400), "nan", "inf", "true", "x", "[]", "{}", "null"]


def _small(name: str) -> dict:
    """The shipped config ``name``, cut to 3 theta points, ``n_list`` [2, 4]
    and one ``sk1_viability`` point."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    small = {"theta_points": 3, "n_list": [2, 4], "eps_amplitude_list": [0.01],
             "gamma_list": [200.0]}
    return {k: small.get(k, v) for k, v in cfg.items()}


SWEEPS = [_small(p.stem) for p in sorted(CONFIGS.glob("*.json")) if p.stem != "ms_gate_lindblad"]
SPECS = [json.loads((CONFIGS / "ms_gate_lindblad.json").read_text()),
         lindblad.spec_to_dict(lindblad.xx_gate_spec(n_fock=3))]
SPECS[0]["calibrate"]["n_fock"] = 3   # keeps each accepted spec's run short
DOCS = [("sweep", doc) for doc in SWEEPS] + [("ptm", doc) for doc in SPECS]
CIRCUIT = """qubits 3
rot1q 0 0.5 0.25
virtual_z 1 0.3
xx 0 1 0.2 0.1 -0.1
xx 1 2 0.4
hadamard 2
cnot 0 1
virtual_z 1 0.7
cnot 0 1 inverse
cnot 1 2 standard
pauli_x 0
pauli_y 1
pauli_z 2
""".splitlines()


def _paths(doc, prefix=()):
    """Every place in a JSON document, the document itself included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run(argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def _holds(code, err) -> None:
    assert code in (0, 2, 3)
    if code == 0:
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith("error: "), err


@st.composite
def mutated_docs(draw):
    cmd, doc = draw(st.sampled_from(DOCS))
    path = draw(st.sampled_from(list(_paths(doc))))
    return cmd, _mutated(doc, path, draw(st.sampled_from(VALUES)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_docs())
def test_every_mutated_config_keeps_the_exit_contract(case):
    cmd, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "input.json", str(Path(tmp) / "out.csv")
        src.write_text(json.dumps(doc))
        _holds(*_run(["sweep", str(src), "-o", out] if cmd == "sweep" else ["ptm", str(src), out]))


@st.composite
def mutated_circuits(draw):
    lineno = draw(st.integers(0, len(CIRCUIT) - 1))
    tokens = CIRCUIT[lineno].split()
    k = draw(st.integers(0, len(tokens) - 1))
    tokens[k] = draw(st.sampled_from(TOKENS))
    return "\n".join(CIRCUIT[:lineno] + [" ".join(tokens)] + CIRCUIT[lineno + 1:]) + "\n"


def test_the_circuit_has_every_gate_kind():
    assert {line.split()[0] for line in CIRCUIT} == set(gates.BUILDERS) | {"qubits"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_circuits())
def test_every_mutated_circuit_keeps_the_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "input.circ", str(Path(tmp) / "out.circ")
        src.write_text(text)
        for name in ("hidden", "rc", "sk1"):
            _holds(*_run(["compile", str(src), out, "--pass", name]))
