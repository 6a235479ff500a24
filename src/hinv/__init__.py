"""hinv: hidden-inverse circuit compilation and trapped-ion noise simulation.

Self-adjoint composites (CNOT here) can be executed either as their native
pulse sequence or as the reversed sequence with inverted control fields.
Choosing per conjugation site cancels slowly drifting coherent errors at no
gate cost.  The package provides the gate set and noise models, circuit
builders and exact simulators, Pauli-transfer-matrix machinery, the
peephole orientation pass plus randomized-compiling and SK1 baselines,
closed-form fidelity expressions, and a pulse-level Lindblad model of the
Molmer-Sorensen gate.
"""

from . import analytics, channels, circuit, compiler, gates, qmat
from .channels import PTM
from .circuit import Circuit
from .gates import Gate, NoiseModel

__all__ = [
    "analytics", "channels", "circuit", "compiler", "gates", "lindblad", "qmat",
    "PTM", "Circuit", "Gate", "NoiseModel",
]

__version__ = "0.1.0"


def __getattr__(name):
    """Load ``lindblad``, the largest module, on first access (PEP 562)."""
    if name == "lindblad":
        import importlib
        return importlib.import_module(".lindblad", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
