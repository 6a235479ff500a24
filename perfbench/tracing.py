"""Span tracing of hinv's layers, installed from outside the package.

``Tracer.install`` replaces public functions with wrappers by assigning
module attributes (``hinv.qmat.embed = wrapper``). Calls made through a
module's globals resolve to the wrapper too, so nested calls show up as
child spans: ``realize`` inside ``gates._product``, ``choi_min_eigenvalue``
inside ``channels.is_cptp``. Spans stay in memory and are written when
the batch ends. A span's self time is its duration minus the durations
of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import hashlib
import importlib
import time

TRACED = {
    "qmat": ("embed", "herm_exp", "kron"),
    "gates": ("realize",),
    "circuit": ("unitary_of", "run_density", "run_ptm", "from_text", "to_text"),
    "channels": ("ptm_of_unitary", "apply_ptm", "compose_ptms", "is_cptp",
                 "choi_min_eigenvalue"),
    "compiler": ("find_hidden_inverse_sites", "randomized_compile", "sk1_compile"),
    "analytics": ("entanglement_fidelity",),
    "lindblad": ("ms_gate_channel",),
    "cli": ("main",),
}

# functions reported by self time only
_SELF_ONLY = {"circuit.from_text", "circuit.to_text"}


def _layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for mod_name, fns in TRACED.items():
        for fn in fns:
            name = f"{mod_name}.{fn}"
            if name not in _SELF_ONLY:
                out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
    return out + [
        ("qmat.embed.bytes_out", "bytes-computed", "lower"),
        ("gates.realize.unique_ratio", "ratio", "higher"),
        ("channels.is_cptp.unique_ratio", "ratio", "higher"),
        ("compiler.sites", "count", "higher"),
        ("lindblad.rk4_steps", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = _layer_metrics()


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    """Records one span per call of every function in ``TRACED``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []   # name, start, end, parent
        self._stack: list[int] = []
        self._saved = []
        # raw material for the computed counters, resolved after the batch
        self.embed_bytes = 0
        self.realize_keys: set = set()
        self.cptp_ptms: list = []
        self.sites = 0
        self.ms_specs: list = []

    def install(self) -> None:
        from hinv.gates import IDEAL
        self._ideal = IDEAL
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"hinv.{mod_name}")
            for fn in fns:
                orig = getattr(mod, fn)
                self._saved.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(f"{mod_name}.{fn}", orig))

    def uninstall(self) -> None:
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # cheap per-call observations; heavy work is deferred to ``metrics``
    def _observe_qmat_embed(self, args, kwargs, result):
        self.embed_bytes += 16 * 4 ** _arg(args, kwargs, 2, "n")

    def _observe_gates_realize(self, args, kwargs, result):
        self.realize_keys.add((_arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "nm", self._ideal)))

    def _observe_channels_is_cptp(self, args, kwargs, result):
        self.cptp_ptms.append(_arg(args, kwargs, 0, "R"))

    def _observe_compiler_find_hidden_inverse_sites(self, args, kwargs, result):
        self.sites += len(result)

    def _observe_lindblad_ms_gate_channel(self, args, kwargs, result):
        self.ms_specs.append((_arg(args, kwargs, 0, "spec"),
                              _arg(args, kwargs, 1, "steps_per_period")))

    def metrics(self, rk4_steps) -> dict:
        """Per-layer metrics of the recorded spans (without the ``trace.*`` pair).

        ``rk4_steps(spec, steps_per_period)`` gives the steps of one call.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - c)
        out = {}
        for key, _, _ in LAYER_METRICS:
            name, _, kind = key.rpartition(".")
            if kind == "calls":
                out[key] = calls.get(name, 0)
            elif kind == "self_s":
                out[key] = self_s.get(name, 0.0)
        n_realize = calls.get("gates.realize", 0)
        n_cptp = calls.get("channels.is_cptp", 0)
        distinct_ptms = {(R.n, hashlib.sha256(R.mat.tobytes()).digest()) for R in self.cptp_ptms}
        out.update({
            "qmat.embed.bytes_out": self.embed_bytes,
            "gates.realize.unique_ratio": len(self.realize_keys) / n_realize if n_realize else 0.0,
            "channels.is_cptp.unique_ratio": len(distinct_ptms) / n_cptp if n_cptp else 0.0,
            "compiler.sites": self.sites,
            "lindblad.rk4_steps": sum(rk4_steps(spec, spp) for spec, spp in self.ms_specs),
        })
        return out

    def write(self, path) -> None:
        """Spans as CSV: run_id, index, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("run_id,index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{name},{start!r},{end!r},{parent}\n")
