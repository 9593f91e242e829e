"""Batch-verification benchmark for the fuchsian package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_g2 --seed 1 --seconds 10 --trace 0

Workloads (reasons in BENCHMARK.json, word runners in workloads.py):
sweep_g2, analytic_g4 and deep_checks.

Load shape: one worker process per run, one thread (BLAS/OpenMP pinned to
1), closed loop: the next word starts only after the previous word and its
output checks finish.  Set-up (import fuchsian, build the surface, verify
its relations) is timed in SETUP_PROBES fresh processes plus the worker,
and setup_s is their median.  The worker runs one untimed warm-up word,
then words until --seconds of word time have passed.

Timings are at reference speed.  On a shared 2-vCPU Xeon VM the CPU speed
drifted by up to 2x over seconds as other tenants loaded the host, which
moved raw wall times by 20-40% between runs.  So between words the worker times a fixed kernel
(reference.py: Python and numpy only, never fuchsian, mixed per workload
like the workload's own time) and scales each word's wall time by the
kernel's nominal time over its median time just before and after that
word.  Set-up times are scaled the same way by an import-like kernel run
just before and after them.  The record keeps the raw figures.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the time
untraced and half with spans around every call into a layer, prints the
per-layer metrics (layer_map.json says which end-to-end metric each should
move, and where) and writes the spans to .bench_out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the full record (environment, seed rule, words and Monte
Carlo seeds, per-word failures).  The exit code is 0 only if every word
passed every output check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import INVARIANT_TOL, SEED_RULE, WORKLOADS  # noqa: E402

SETUP_PROBES = 8
DEADLINE_S = 170
OUT_DIR = ".bench_out"
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
LOAD_SHAPE = "one process, one thread, closed loop; fresh worker process per run"


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    return f"unknown (packed ref {ref})"


def package_version(name: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "not installed"


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fuchsian", "__init__.py")):
        print("run from the root of a fuchsian checkout: src/fuchsian is missing", file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    start = time.monotonic()
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": src}
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    genus = WORKLOADS[args.workload].genus

    def call(extra: list[str]) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - start)
        proc = subprocess.run(worker + extra, env=env, capture_output=True, text=True,
                              timeout=max(remaining, 1))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker {' '.join(extra)} exited with {proc.returncode}")
        return last_json_line(proc.stdout)

    try:
        setups = [call(["--setup-only", "--genus", str(genus)]) for _ in range(SETUP_PROBES)]
        doc = call(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR])
    except subprocess.TimeoutExpired:
        # subprocess.run kills the worker and waits for it before raising.
        print(f"worker did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    setups.append(doc["setup"])

    # Run-wide invariant: the domain's invariant mass is the same for every word.
    words = doc["words"]
    masses = [w["mass"] for w in words if "mass" in w]
    mass_median = statistics.median(masses) if masses else math.nan
    for w in words:
        if "mass" in w and abs(w["mass"] - mass_median) > INVARIANT_TOL:
            w["errors"].append(f"invariant mass {w['mass']!r} differs from the run median {mass_median!r}")
    failed = [w for w in words if w["errors"]]
    timed_keys = set(doc["timed"])
    timed = [w for w in words if w["k"] in timed_keys]
    cal_ms = [w["cal_s"] * 1e3 for w in timed]
    raw_ms = [w["s"] * 1e3 for w in timed]

    setup_median = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    if args.trace:
        metrics = {
            "init.import_ms": setup_median["import_s"] * 1e3,
            "surface.build_ms": setup_median["build_s"] * 1e3,
            "surface.relations_ms": setup_median["relations_s"] * 1e3,
            **doc["per_layer"],
        }
    else:
        metrics = {
            "words_per_s": len(cal_ms) / sum(cal_ms) * 1e3,
            "word_ms_p50": statistics.median(cal_ms),
            "word_ms_p90": quantile(cal_ms, 0.9),
            "pass_frac": 1 - len(failed) / len(words),
            "peak_rss_mb": doc["peak_rss_mb"],
            "setup_s": setup_median["setup_s"],
        }
    if metrics.keys() != units.keys():
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": package_version("numpy"),
            "networkx": package_version("networkx"),
            "commit": git_commit(root),
            "thread_pins": THREAD_PINS,
            "load_shape": LOAD_SHAPE,
        },
        "seed_rule": SEED_RULE,
        "inputs": [[w["k"], w["word"], w["mc_seed"]] for w in words],
        "timed_words": len(timed),
        "fail_frac": len(failed) / len(words),
        "failures": [{"k": w["k"], "word": w["word"], "errors": w["errors"]} for w in failed],
        "word_ms_p90_samples": len(timed),
        "word_ms_p90_resolved": len(timed) >= 100,
        "reference_speed": {
            "factor_median": statistics.median(w["factor"] for w in timed),
            "raw_words_per_s": len(raw_ms) / sum(raw_ms) * 1e3,
            "raw_word_ms_p50": statistics.median(raw_ms),
            "raw_word_ms_p90": quantile(raw_ms, 0.9),
        },
        "invariant_mass_median": mass_median,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "raw_setup_samples_s": [s["raw_setup_s"] for s in setups],
        **{key: doc[key] for key in ("span_dump", "span_count", "self_ms_per_word") if key in doc},
    }
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(words),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
