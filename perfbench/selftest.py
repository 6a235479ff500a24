"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. For each workload:

1. Perturbation: one batch runs in-process and every item must pass its
   reference check; then each check gets a copy of the outputs with one
   value perturbed just past its tolerance (a fidelity shifted by 1e-8, a
   PTM entry, a compiled angle) and must fail exactly that item.
2. Seeds: the same seed writes byte-identical inputs and yields identical
   output sha256s; two seeds give equal item counts,
   ``circuit.unitary_of.calls``, ``lindblad.ms_gate_channel.calls`` and
   ``lindblad.rk4_steps`` (the seed changes values, not the amount of work).
   Traced self times must sum to no more than the traced wall time.

Also checks that the metric names ``run.py`` reports match BENCHMARK.json,
and that the RK4 step rule mirrored in ``workloads.rk4_steps`` agrees with
the program's. Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work", "selftest")
SEED_A, SEED_B = 101, 202
SAME_WORK_KEYS = ("circuit.unitary_of.calls", "lindblad.ms_gate_channel.calls",
                  "lindblad.rk4_steps")


class SelfTestFailure(AssertionError):
    pass


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        raise SelfTestFailure(what)


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([m["name"] for m in bench["per_layer"]] == [n for n, _, _ in tracing.LAYER_METRICS],
           "per_layer names in BENCHMARK.json match tracing.LAYER_METRICS")
    expect({m["name"] for m in bench["end_to_end"]} ==
           {"setup_s", "wall_s", "items_per_s", "peak_rss_mb"},
           "end_to_end names in BENCHMARK.json match run.py")
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
           "workloads in BENCHMARK.json match workloads.WORKLOADS")


def perturbation_test(name: str) -> None:
    w = workloads.WORKLOADS[name]
    inputs, out = os.path.join(WORK, name, "p_in"), os.path.join(WORK, name, "p_out")
    manifest = workloads.generate(name, SEED_A, inputs)
    os.makedirs(out, exist_ok=True)
    data = w.collect(manifest, out, w.run(manifest, inputs, out))
    items = w.check(manifest, data)
    expect(bool(items) and all(it.ok for it in items),
           f"{name}: all {len(items)} items pass on unperturbed output "
           f"{[it for it in items if not it.ok][:3]}")
    for label, perturbed, item_id in w.perturbations(data):
        bad = [it.id for it in w.check(manifest, perturbed) if not it.ok]
        expect(bad == [item_id], f"{name}: {label} fails exactly {item_id} (failed: {bad})")


def seed_test(name: str) -> None:
    from hinv import lindblad

    a1, a2, b = (os.path.join(WORK, name, d) for d in ("seed_a1", "seed_a2", "seed_b"))
    manifests = {d: workloads.generate(name, s, os.path.join(d, "inputs"))
                 for d, s in ((a1, SEED_A), (a2, SEED_A), (b, SEED_B))}
    cmp = filecmp.dircmp(os.path.join(a1, "inputs"), os.path.join(a2, "inputs"))
    same = not (cmp.left_only or cmp.right_only) and not filecmp.cmpfiles(
        cmp.left, cmp.right, cmp.common_files, shallow=False)[1]
    expect(same, f"{name}: seed {SEED_A} twice writes identical inputs")
    expect(manifests[a1] != manifests[b], f"{name}: seeds {SEED_A} and {SEED_B} differ in values")

    if name == "ms_pulse":
        for d in (a1, b):
            for v, spec in manifests[d]["specs"].items():
                prog = lindblad._n_steps(lindblad.spec_from_dict(spec), workloads.MsPulse.STEPS_PER_PERIOD)
                expect(prog * len(lindblad.spec_from_dict(spec).modes) == manifests[d]["rk4_steps"][v],
                       f"ms_pulse: mirrored RK4 step rule matches the program for {v}")

    env = run.child_env(ROOT)
    res = {d: run.run_batch(ROOT, env, name, os.path.join(d, "inputs"), os.path.join(d, "out"),
                            1, f"selftest-{name}", time.monotonic() + run.RUN_LIMIT_S)
           for d in (a1, a2, b)}
    expect(res[a1]["sha256"] == res[a2]["sha256"] and bool(res[a1]["sha256"]),
           f"{name}: seed {SEED_A} twice gives identical output sha256s")
    expect(len(res[a1]["items"]) == len(res[b]["items"]),
           f"{name}: item count equal across seeds ({len(res[a1]['items'])})")
    for key in SAME_WORK_KEYS:
        va, vb = res[a1]["layers"][key], res[b]["layers"][key]
        expect(va == vb, f"{name}: {key} equal across seeds ({va} vs {vb})")
    for d in (a1, b):
        layers = res[d]["layers"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        expect(total <= res[d]["wall_s"],
               f"{name}: self times sum {total:.4f} s <= traced wall {res[d]['wall_s']:.4f} s")
        expect(all(it["ok"] for it in res[d]["items"]), f"{name}: traced batch items all pass")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        check_metric_names()
        for name in sorted(workloads.WORKLOADS):
            perturbation_test(name)
            seed_test(name)
    except SelfTestFailure:
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
