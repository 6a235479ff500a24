"""One batch of a workload, in a fresh process so every process-lifetime
cache in hinv starts cold, as it does for a CLI user.

    python3 perfbench/batch.py --workload W --inputs DIR --out DIR --trace 0|1 --run-id ID
    python3 perfbench/batch.py --probe

Reads the manifest ``generate`` wrote to DIR, times the batch, then checks
the outputs and writes ``result.json`` (and ``spans.csv`` when traced) to
the output directory. The calibration kernel runs just before and just
after the timed batch. ``--probe`` prints the time this process took to
``import hinv.cli``, a calibration time and where hinv was imported from,
then exits. The parent process starts it with ``PYTHONPATH`` pointing at
the checkout's ``src``.
"""

import time

_start = time.perf_counter()
import hinv.cli  # noqa: E402  (first import: its time is the set-up cost)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import hinv  # noqa: E402
from hinv import lindblad  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def spec_rk4_steps(spec, steps_per_period) -> int:
    d = lindblad.spec_to_dict(spec)
    spp = steps_per_period or lindblad.DEFAULT_STEPS_PER_PERIOD
    return workloads.rk4_steps(d, spp) * len(d["modes"])


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs")
    ap.add_argument("--out")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"import_s": IMPORT_S, "kernel_s": calibration.kernel_s(),
                          "hinv_file": hinv.__file__}))
        return 0
    if not (args.workload and args.inputs and args.out):
        ap.error("--workload, --inputs and --out are required without --probe")

    w = workloads.WORKLOADS[args.workload]
    with open(os.path.join(args.inputs, "manifest.json")) as fh:
        manifest = json.load(fh)
    os.makedirs(args.out, exist_ok=True)
    tracer = tracing.Tracer(args.run_id) if args.trace else None

    kernel_before = calibration.kernel_s()
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        raw = w.run(manifest, args.inputs, args.out)
    finally:
        wall_s = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    kernel_after = calibration.kernel_s()

    items = w.check(manifest, w.collect(manifest, args.out, raw))
    outputs = sorted(f for f in os.listdir(args.out) if f.endswith((".csv", ".circ")))
    result = {
        "wall_s": wall_s,
        "kernel_s": (kernel_before + kernel_after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": [item._asdict() for item in items],
        "sha256": {f: sha256_of(os.path.join(args.out, f)) for f in outputs},
        "hinv_file": hinv.__file__,
        "blas_threads": blas_threads(),
    }
    if tracer:
        result["layers"] = tracer.metrics(spec_rk4_steps)
        tracer.write(os.path.join(args.out, "spans.csv"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
