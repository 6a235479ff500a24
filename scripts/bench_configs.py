"""Time ``hinv`` on every shipped config, optionally against a baseline checkout.

    python3 scripts/bench_configs.py -o BENCH.json [--baseline DIR] [--pairs N]

Run from the repository root. Each checkout (this one, and ``--baseline``
if given) runs every file of this checkout's ``configs/`` that it has
``CONFIG_PAIRS`` times, each in a fresh process with one BLAS thread:
``hinv sweep`` for an experiment config, ``hinv ptm`` for a pulse spec.
The checkouts take turns per config in pairs whose first run alternates.
Each run records ``{wall_s, rc, csv_sha256}``, and each config its runs
and the median and quartiles of their ``wall_s``; a checkout whose runs of
one config write different CSVs stops the script. With ``--baseline``,
``csv_identical`` records, per config both checkouts ran, whether their CSV
sha256s are equal, and ``csv_max_abs_diff``, per config whose sha256s
differ, the largest absolute difference over the numeric cells of the two
CSVs, ``#`` lines skipped (None when the two do not compare cell by cell as
numbers: see :func:`csv_max_abs_diff`). With ``--pairs N``, every workload
of ``perfbench/run.py`` also runs N times per checkout for
``BENCHMARK.json``'s ``run_seconds``, in pairs whose first run alternates
between baseline and change, and its end-to-end medians and quartiles are
recorded. With both, ``perfbench.verdict`` records, per
workload and per ``end_to_end`` metric of ``BENCHMARK.json``, the
change/baseline median ratio, the pairs the change won and lost by the
metric's ``better`` (ties count for neither), the baseline's interquartile
spread, and ``within_bound``: whether the change's median is worse than the
baseline's by no more than the metric's relative ``bound``; ``gain_shown``:
whether the change won at least 9 in 10 of the pairs and its median is better
than the baseline's by more than ``baseline_iqr``; and the failed item count
of each side. The output JSON also records each checkout's absolute root
(``roots``), which shows whether baseline and change sat in sibling
directories, since some perfbench readings follow where a checkout sits; the
host (core count, CPU, numpy and BLAS versions, the BLAS thread count, and whether Python
writes bytecode caches, ``sys.dont_write_bytecode``), each checkout's
``src/hinv`` line count, as ``wc -l`` gives it, in total and per module,
and one run of each checkout's Tier-1 suite (``python -m pytest -q`` in a
fresh process with one BLAS thread and that checkout's ``src`` on
``PYTHONPATH``): its wall time and its passed and failed counts, errors
counted as failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS, as for every child

import numpy as np  # noqa: E402

ROOT = os.getcwd()
# perfbench's batch module imports hinv.cli from this checkout
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

from batch import blas_threads  # noqa: E402
from run import cpu_model, source_sha256  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def host() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "blas_threads": blas_threads(),
            # every child inherits PYTHONDONTWRITEBYTECODE: when true, no run reads a
            # bytecode cache, so perfbench's setup_s includes compiling src/hinv
            "dont_write_bytecode": sys.dont_write_bytecode}


def module_lines(root: str) -> dict:
    """Lines of each of ``root``'s ``src/hinv/*.py``, counted as ``wc -l`` counts them."""
    pkg = os.path.join(root, "src", "hinv")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines[name] = fh.read().count(b"\n")
    return lines


def tier1(root: str) -> dict:
    """``{wall_s, passed, failed}`` of one run of ``root``'s Tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    # the last line sums up, e.g. "2 failed, 431 passed, 1 error in 24.69s"
    summary = proc.stdout.rstrip().rpartition("\n")[2]
    counts = {word: int(k) for k, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    result = {"wall_s": round(wall, 3), "passed": counts.get("passed", 0),
              "failed": counts.get("failed", 0) + counts.get("error", 0)}
    print(f"{root}: tier-1 {result}", file=sys.stderr)
    return result


# runs of each shipped config per checkout: one reading carries the host's
# load at that moment, so a config's time is the median of several
CONFIG_PAIRS = 5


def run_config(root: str, name: str, csv: str) -> dict:
    """``{wall_s, rc, csv_sha256}`` of one run of ``root``'s config ``name``, writing ``csv``."""
    path = os.path.join(root, "configs", name)
    with open(path) as fh:
        sweep = "experiment" in json.load(fh)
    argv = ["sweep", path, "-o", csv] if sweep else ["ptm", path, csv]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    rc = subprocess.run([sys.executable, "-m", "hinv.cli"] + argv, env=env,
                        capture_output=True).returncode
    wall = time.perf_counter() - t0
    digest = None
    if rc == 0:
        with open(csv, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"{root}: {name} rc={rc} {wall:.2f} s", file=sys.stderr)
    return {"wall_s": round(wall, 3), "rc": rc, "csv_sha256": digest}


def run_configs(roots: dict, tmp: str) -> dict:
    """``{label: {config file: {runs, rc, csv_sha256, wall_s}}}`` over this checkout's configs.

    Each config runs ``CONFIG_PAIRS`` times on every checkout that has it before
    the next config starts, and the first checkout alternates from one run to
    the next, so a drift in machine load falls on both sides alike.  ``wall_s``
    holds the median and quartiles of the runs.  Each checkout's CSV of config
    ``name`` is left in ``tmp`` as ``<label>-<name>.csv``.
    """
    out = {label: {} for label in roots}
    for name in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        have = {label: root for label, root in roots.items()
                if os.path.exists(os.path.join(root, "configs", name))}
        runs = {label: [] for label in have}
        for k in range(CONFIG_PAIRS):
            order = list(have.items())
            for label, root in order[::-1] if k % 2 else order:
                runs[label].append(run_config(root, name,
                                              os.path.join(tmp, f"{label}-{name}.csv")))
        for label, rs in runs.items():
            digests = {r["csv_sha256"] for r in rs}
            if len(digests) != 1:
                raise SystemExit(f"{label}: {name} wrote {len(digests)} different CSVs")
            q1, median, q3 = statistics.quantiles([r["wall_s"] for r in rs], n=4)
            out[label][name] = {"runs": rs, "rc": next((r["rc"] for r in rs if r["rc"]), 0),
                                "csv_sha256": digests.pop(),
                                "wall_s": {"median": median, "q1": q1, "q3": q3}}
    return out


def csv_max_abs_diff(a: str, b: str) -> float | None:
    """The largest absolute difference over the numeric cells of CSV files ``a`` and
    ``b``, lines that start with ``#`` skipped; None when their shapes differ, or
    two cells differ that are not both numbers, or are nan on one side only."""
    rows = []
    for path in (a, b):
        with open(path, newline="") as fh:
            rows.append(list(csv.reader(line for line in fh if not line.startswith("#"))))
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return None
    worst = 0.0
    for x, y in zip(sum(rows[0], []), sum(rows[1], [])):
        if x != y:
            try:
                diff = abs(float(x) - float(y))
            except ValueError:   # a text cell, such as a header
                return None
            if math.isnan(diff):
                return None
            worst = max(worst, diff)
    return worst


def perfbench_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one ``perfbench/run.py`` run from ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()} | {"failed": res["failed"]}


def perfbench_pairs(roots: dict, pairs: int, seconds: float) -> dict:
    """Per workload: every run, pair by pair, and each checkout's medians and
    quartiles ``[q1, q3]``.

    Odd-numbered pairs run the checkouts in reverse order, so neither always goes first.
    """
    out = {}
    for w in sorted(WORKLOADS):
        runs = {label: [] for label in roots}
        for k in range(pairs):
            order = list(roots.items())
            for label, root in order[::-1] if k % 2 else order:
                runs[label].append(perfbench_once(root, w, k + 1, seconds))
                print(f"{w} pair {k} {label}: {runs[label][-1]}", file=sys.stderr)
        out[w] = {label: {"median": {m: statistics.median(r[m] for r in rs) for m in rs[0]},
                          "quartiles": {m: statistics.quantiles([r[m] for r in rs], n=4)[::2]
                                        for m in rs[0]},
                          "runs": rs} for label, rs in runs.items()}
    return out


def verdict(workloads: dict, end_to_end: list) -> dict:
    """``{workload: {metric: {ratio, won, lost, baseline_iqr, within_bound, gain_shown},
    failed}}`` of ``perfbench_pairs``'s output against the ``end_to_end`` list of
    ``BENCHMARK.json``."""
    out = {}
    for w, sides in workloads.items():
        base, change = sides["baseline"], sides["change"]
        out[w] = {"failed": {label: sum(r["failed"] for r in side["runs"])
                             for label, side in sides.items()}}
        for m in end_to_end:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            b, c = base["median"][name], change["median"][name]
            gains = [sign * (rc[name] - rb[name]) for rb, rc in zip(base["runs"], change["runs"])]
            q1, q3 = base["quartiles"][name]
            won = sum(g > 0 for g in gains)
            out[w][name] = {"ratio": c / b, "won": won,
                            "lost": sum(g < 0 for g in gains), "baseline_iqr": q3 - q1,
                            "within_bound": sign * (c - b) >= -m["bound"] * abs(b),
                            # the claim rule: 9 in 10 pairs won, and a median moved past the
                            # baseline's quartile spread
                            "gain_shown": 10 * won >= 9 * len(gains)
                                          and sign * (c - b) > q3 - q1}
            print(f"{w} {name}: {out[w][name]}", file=sys.stderr)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-o", "--output", required=True)
    ap.add_argument("--baseline", help="root of a baseline checkout to compare with")
    ap.add_argument("--pairs", type=int, default=0)
    args = ap.parse_args()

    roots = {"change": ROOT}
    if args.baseline:
        roots = {"baseline": os.path.abspath(args.baseline), **roots}
    lines = {label: module_lines(root) for label, root in roots.items()}
    report = {"host": host(), "roots": roots,
              "source_sha256": {label: source_sha256(root) for label, root in roots.items()},
              "src_module_lines": lines,
              "src_lines": {label: sum(per.values()) for label, per in lines.items()},
              "tier1": {label: tier1(root) for label, root in roots.items()}}
    with tempfile.TemporaryDirectory() as tmp:
        report["configs"] = run_configs(roots, tmp)
        if args.baseline:
            base, change = report["configs"]["baseline"], report["configs"]["change"]
            report["csv_identical"] = {name: run["csv_sha256"] == base[name]["csv_sha256"]
                                       for name, run in change.items() if name in base}
            report["csv_max_abs_diff"] = {
                name: csv_max_abs_diff(*(os.path.join(tmp, f"{label}-{name}.csv")
                                         for label in ("baseline", "change")))
                for name, same in report["csv_identical"].items()
                if not same and None not in (base[name]["csv_sha256"],
                                             change[name]["csv_sha256"])}
    if args.pairs:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        workloads = perfbench_pairs(roots, args.pairs, seconds)
        report["perfbench"] = {"pairs": args.pairs, "seconds": seconds, "workloads": workloads}
        if args.baseline:
            report["perfbench"]["verdict"] = verdict(workloads, bench["end_to_end"])
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
