"""Benchmark entry point for hinv.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are generated from the seed into
``.bench_work/``, then batches of the workload run back to back, each in
a fresh Python process, until S seconds have passed (at least one batch).
Every time below is rescaled to the reference host speed by the
calibration kernel timed in the same process (see ``calibration.py``);
the report also gives the unscaled medians.

- ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time
  for a fresh process to ``import hinv.cli``), and the median over batches
  of ``wall_s``, ``items_per_s`` and ``peak_rss_mb``.
- ``--trace 1`` alternates untraced and traced batches and reports the
  per-layer metrics of the traced batch with the (lower) median time,
  ``trace.wall_s`` (that batch's unscaled wall time, which its self times
  add up to) and ``trace.overhead`` (traced median over untraced median,
  minus 1).

Batches run with ``OPENBLAS_NUM_THREADS=1`` and ``HINV_WORKERS`` unset.
The last line of standard output is the result object; the line before
it is the full report (environment, per-batch figures, failed items,
output sha256s), which is also written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calibration
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES_FIRST = 3     # then one more after every batch, to span the run
RUN_LIMIT_S = 170.0        # every child is stopped by then


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("HINV_WORKERS", None)
    env.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    return env


def run_child(argv: list[str], env: dict, cwd: str, deadline: float) -> str:
    """Run a Python child to completion; it is killed at ``deadline`` (monotonic)."""
    proc = subprocess.run([sys.executable] + argv, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def import_probe(root: str, env: dict, deadline: float) -> dict:
    """Time a fresh process takes to ``import hinv.cli`` from the checkout, with
    the calibration kernel's time in the same process."""
    probe = json.loads(run_child([os.path.join(HERE, "batch.py"), "--probe"], env, root, deadline))
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(probe["hinv_file"]).startswith(src + os.sep):
        raise BenchError(f"hinv imported from {probe['hinv_file']}, not from {src}")
    return probe


def run_batch(root, env, workload, inputs, out, trace, run_id, deadline) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    run_child([os.path.join(HERE, "batch.py"), "--workload", workload, "--inputs", inputs,
               "--out", out, "--trace", str(trace), "--run-id", run_id], env, root, deadline)
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256(root: str) -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "hinv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(root: str, args, env: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "HINV_WORKERS": "unset (1)",
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hinv", "cli.py")):
        print(f"error: no hinv sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")

    try:
        import_probe(root, env, deadline)   # untimed: writes the bytecode cache, the build step
        setup = [import_probe(root, env, deadline) for _ in range(SETUP_SAMPLES_FIRST)]
        workloads.generate(args.workload, args.seed, inputs)
        batches = []
        start = time.perf_counter()
        while not batches or time.perf_counter() - start < args.seconds or (
                args.trace and len(batches) < 2):
            k = len(batches)
            traced = bool(args.trace and k % 2)
            run_id = f"{args.workload}-seed{args.seed}-batch{k}"
            res = run_batch(root, env, args.workload, inputs, os.path.join(work, f"batch{k}"),
                            int(traced), run_id, deadline)
            res["traced"] = traced
            batches.append(res)
            setup.append(import_probe(root, env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(b["items"]) for b in batches)
    failed = sum(not it["ok"] for b in batches for it in b["items"])
    for b in batches:
        b["wall_ref_s"] = calibration.rescale(b["wall_s"], b["kernel_s"])
    plain = [b for b in batches if not b["traced"]]
    if args.trace:
        traced = [b for b in batches if b["traced"]]
        median = statistics.median_low(b["wall_ref_s"] for b in traced)
        chosen = next(b for b in traced if b["wall_ref_s"] == median)
        layers = dict(chosen["layers"])
        layers["trace.wall_s"] = chosen["wall_s"]
        layers["trace.overhead"] = median / statistics.median(b["wall_ref_s"] for b in plain) - 1.0
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        metrics = {name: metric(layers[name], units[name]) for name in units}
    else:
        metrics = {
            "setup_s": metric(statistics.median(
                calibration.rescale(p["import_s"], p["kernel_s"]) for p in setup), "s"),
            "wall_s": metric(statistics.median(b["wall_ref_s"] for b in plain), "s"),
            "items_per_s": metric(statistics.median(
                sum(it["ok"] for it in b["items"]) / b["wall_ref_s"] for b in plain), "1/s"),
            "peak_rss_mb": metric(statistics.median(b["peak_rss_mb"] for b in plain), "MB"),
        }

    report = {
        "environment": dict(environment(root, args, env), blas_threads=batches[0]["blas_threads"]),
        "calibration_reference_s": calibration.REFERENCE_S,
        "setup_probes": [{k: p[k] for k in ("import_s", "kernel_s")} for p in setup],
        "batches": [{k: b[k] for k in ("traced", "wall_s", "kernel_s", "wall_ref_s", "peak_rss_mb")}
                    | {"items": len(b["items"]), "failed": sum(not it["ok"] for it in b["items"])}
                    for b in batches],
        "unscaled_medians": {
            "setup_s": statistics.median(p["import_s"] for p in setup),
            "wall_s": statistics.median(b["wall_s"] for b in plain),
        },
        "error_rate": failed / attempted,
        "failed_items": [it for b in batches for it in b["items"] if not it["ok"]][:50],
        "output_sha256": batches[-1]["sha256"],
        "outputs_identical_across_batches": all(b["sha256"] == batches[0]["sha256"]
                                                 for b in batches),
        "metrics": metrics,
    }
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
