"""One benchmark process: set up, run one workload's words, check outputs.

Started by run.py in a fresh interpreter, with the checkout's ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.  Prints one JSON
object on its last stdout line.

    worker.py --setup-only --genus G
    worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
from time import perf_counter

# Only the standard library is imported above: setup() times the first
# import of numpy and fuchsian.


def setup(genus: int):
    """Import fuchsian, build the surface and verify its relations, timed.

    The times are scaled by SetupReference run just before and just after.
    """
    from reference import SetupReference

    reference = SetupReference()
    before = reference.times()
    t0 = perf_counter()
    import fuchsian.attractor
    import fuchsian.boundary
    import fuchsian.coding
    import fuchsian.duality
    import fuchsian.surface
    import fuchsian.words

    t1 = perf_counter()
    surface = fuchsian.surface.build_regular_surface(genus)
    t2 = perf_counter()
    relations = fuchsian.surface.verify_group_relations(surface)
    t3 = perf_counter()
    if not relations.passed:
        raise SystemExit(f"group relations fail: {relations.summary()}")
    factor = reference.nominal_s / statistics.median(before + reference.times())
    times = {"raw_setup_s": t3 - t0, "setup_s": (t3 - t0) * factor, "import_s": (t1 - t0) * factor,
             "build_s": (t2 - t1) * factor, "relations_s": (t3 - t2) * factor}
    return fuchsian, surface, times


def run_phase(lib, workload, name, seed, surface, first_k, seconds, tracer=None):
    """Run words closed-loop until `seconds` of word time have passed.

    Each word's outputs are checked after its timer stops and then
    dropped, so the checks are not timed and memory does not grow with the
    number of words.  Between words the reference kernel samples the CPU's
    speed; each word's time scaled to the reference speed is `cal_s`.  At
    least one word runs.
    """
    from reference import Reference
    from workloads import check_word, word_input

    reference = Reference(workload.reference, workload.reference_nominal_s)
    results = []
    gaps = [reference.gap(0.0)]
    busy = 0.0
    k = first_k
    while busy < seconds or not results:
        word, mc_seed = word_input(name, seed, k, workload.genus)
        errors: list[str] = []
        out = None
        if tracer is not None:
            tracer.request = k
            tracer.active = True
            root = tracer.begin("word")
        t0 = perf_counter()
        try:
            out = workload.run(lib, surface, word, mc_seed)
        except Exception as exc:  # a failing word is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
            tracer.active = False
        busy += elapsed
        obs: dict = {}
        if out is not None:
            try:
                more, obs = check_word(lib, workload.genus, out)
                errors += more
            except Exception as exc:
                errors.append(f"output check raised {type(exc).__name__}: {exc}")
        del out
        if threading.active_count() > 1:
            # A thread left running would also slow the reference kernel.
            errors.append(f"{threading.active_count() - 1} extra thread(s) running after the word")
        gaps.append(reference.gap(elapsed))
        results.append({"k": k, "word": word, "mc_seed": mc_seed, "s": elapsed, "errors": errors, **obs})
        k += 1
    for r, factor in zip(results, reference.word_factors(gaps)):
        r["factor"] = factor
        r["cal_s"] = r["s"] * factor
    return results


def per_layer(tracer, traced, untraced, results):
    """Per-layer metrics at reference speed.

    Span times, calls and rows are per traced word; the report counters
    cover every word of the run.  The set-up layers (init, surface.build,
    surface.relations) are added by run.py from all set-up samples.
    """
    from fuchsian.circle import TOL

    words = len(traced)
    scale = {r["k"]: r["factor"] for r in traced}
    inclusive = tracer.inclusive_s(scale)
    calls = tracer.calls()
    rows = tracer.rows

    def total(key):
        return sum(r.get(key, 0) for r in results)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    def worst(key):
        return max((r[key] for r in results if key in r), default=0.0) / TOL

    m = {}
    for span in (
        "words.prepend", "words.evaluate", "boundary.solve", "boundary.domain", "boundary.analytic",
        "coding.sofic", "boundary.mc", "boundary.boundary_distance", "boundary.inverse_many",
        "boundary.extension_many", "boundary.distance", "boundary.inverse_step", "coding.code_geodesic",
        "surface.clip", "coding.conjugacy", "duality.dual_domain", "duality.verify", "attractor.run",
        "coding.markov",
    ):
        m[f"{span}_ms"] = inclusive.get(span, 0.0) / words * 1e3
    for span in ("words.prepend", "words.evaluate", "boundary.inverse_step", "coding.code_geodesic"):
        m[f"{span}_calls"] = calls.get(span, 0) / words
    for span in ("boundary.boundary_distance", "boundary.inverse_many", "boundary.extension_many",
                 "boundary.distance", "surface.clip"):
        m[f"{span}_rows"] = rows.get(span, 0) / words
    m["boundary.inverse_hit_ratio"] = tracer.inverse_hits / tracer.inverse_tried if tracer.inverse_tried else 0.0
    m["boundary.edge_flag_ratio"] = ratio("edge_flags", "edge_base")
    m["coding.conjugacy_checked_ratio"] = ratio("conj_checked", "conj_samples")
    m["duality.identity_checked_ratio"] = ratio("identity_checked", "identity_samples")
    m["duality.code_checked_ratio"] = ratio("code_checked", "code_samples")
    m["boundary.corner_margin"] = worst("corner_dev")
    m["coding.conjugacy_margin"] = worst("conj_dev")
    m["duality.identity_margin"] = worst("identity_dev")
    m["trace.words_per_s"] = words / sum(r["cal_s"] for r in traced)
    m["trace.untraced_words_per_s"] = len(untraced) / sum(r["cal_s"] for r in untraced)
    m["trace.slowdown_ratio"] = m["trace.untraced_words_per_s"] / m["trace.words_per_s"]
    self_ms = {name: s / words * 1e3 for name, s in tracer.self_s(scale).items()}
    return m, dict(sorted(self_ms.items(), key=lambda kv: -kv[1]))


def write_spans(tracer, path):
    origin = tracer.spans[0][1]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [[n, s - origin, e - origin, p, r] for n, s, e, p, r in tracer.spans],
        }, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--genus", type=int)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    if args.setup_only:
        print(json.dumps(setup(args.genus)[2]))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    lib, surface, setup_times = setup(workload.genus)
    if not os.path.samefile(os.path.dirname(os.path.dirname(lib.__file__)), "src"):
        raise SystemExit(f"fuchsian was imported from {lib.__file__}, not from this checkout's src")

    def phase(first_k, seconds, tracer=None):
        return run_phase(lib, workload, args.workload, args.seed, surface, first_k, seconds, tracer)

    # Word 0 is the warm-up: it fills lazy caches and is checked but not timed.
    warmup = phase(0, 0.0)
    doc = {"setup": setup_times}
    if not args.trace:
        timed = phase(1, args.seconds)
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        doc["words"] = warmup + timed
    else:
        from tracing import Tracer

        untraced = phase(1, args.seconds / 2)
        tracer = Tracer()
        tracer.install(lib)
        try:
            timed = phase(1 + len(untraced), args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        doc["words"] = warmup + untraced + timed
        doc["per_layer"], doc["self_ms_per_word"] = per_layer(tracer, timed, untraced, doc["words"])
        doc["span_dump"] = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
        doc["span_count"] = len(tracer.spans)
        write_spans(tracer, doc["span_dump"])
    doc["timed"] = [r["k"] for r in timed]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
