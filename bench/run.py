"""Benchmark of plantedcycles: recovery, trail calibration and the adversary.

    python3 bench/run.py --workload recover --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1        # every workload, each in a fresh interpreter

One run makes its inputs from --seed, runs whole rounds of the workload's
operations until --seconds of operation time have passed, checks every
output of the first round and prints one JSON object as its last line.
With --trace 0 it reports the end-to-end metrics.  With --trace 1 every
operation also runs a second time with spans around the program's public
functions, and the run reports the per-layer metrics and the tracing
overhead instead.  Times are scaled by a reference loop timed between
operations (REFERENCE_S).  Results and spans go to bench/out/.  The
package is imported from src/ next to this directory, single-threaded.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# one set-up in a fresh interpreter: imports, then the workload's inputs
SETUP_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
               "import workloads; workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])).prepare(); "
               "print(time.perf_counter() - t)")
WORKLOAD_NAMES = ("recover", "calibrate", "adversary")
# Times are scaled to a machine that runs `reference` in REFERENCE_S: the
# machine this was written on drifts between speeds up to 1.6x apart for
# minutes at a time, which no run length averages out (README, "Spread").
REFERENCE_S = 0.0015
REFERENCE_EVERY_S = 0.2                  # operation time between reference samples
REFERENCE_BURST = 5                      # one sample is the median of this many loops
# The speed flips within seconds as well, so the samples are averaged: a
# median would pick one speed where operations see a mix of both.

END_TO_END = {"setup_s": "s", "instances_per_s": "1/s", "instance_p50_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> span whose self time it reports, in seconds per operation
LAYER_TIMES = {
    "sampler.sample_instance_s": "sampler.sample_instance",
    "sampler.two_factor_s": "sampler.two_factor",
    "graphcore.build_s": "graphcore.build",
    "trails.enumerate_s": "trails.enumerate",
    "trails.count_ab_s": "trails.count_ab",
    "recovery.prepare_s": "recovery.prepare",
    "recovery.subroutine_a_s": "recovery.subroutine_a",
    "recovery.subroutine_b_s": "recovery.subroutine_b",
    "adversary.reserve_s": "adversary.reserve",
    "adversary.build_s": "adversary.build",
    "adversary.link_s": "adversary.link",
    "adversary.extract_s": "adversary.extract",
}
# per-layer counts, per round: metric -> tracer count, or span whose calls are counted
LAYER_COUNTS = {
    "sampler.permutations": "sampler.permutations",
    "trails.enumerated": "trails.enumerated",
    "trails.count_ab_calls": "trails.count_ab",
    "recovery.iterations": "recovery.subroutine_a",
    "recovery.updates_a": "recovery.updates_a",
    "recovery.updates_b": "recovery.updates_b",
    "adversary.trees": "adversary.trees",
    "adversary.admitted": "adversary.admitted",
    "adversary.link_arcs": "adversary.link_arcs",
    "adversary.cycles": "adversary.cycles",
}
PER_LAYER_UNITS = {**{k: "s" for k in LAYER_TIMES}, "graphcore.loads_s": "s",
                   **{k: "count" for k in LAYER_COUNTS},
                   "sampler.accept_ratio": "ratio", "adversary.tree_yield": "ratio",
                   "trace.overhead_pct": "%"}


def reference() -> int:
    """A fixed piece of interpreter work, timed between operations to
    follow the machine's speed.  It allocates no object that the garbage
    collector tracks, so a collection over the workload's own heap can
    never land inside it."""
    table, seen = {}, set()
    for i in range(4000):
        key = (i % 97) * 89 + i % 89
        table[key] = table.get(key, 0) + 1
        seen.add(key)
    return len(table) + len(seen)


def run_rounds(wl, inputs, seconds, tracer=None):
    """Run whole rounds over `inputs` until the operations have taken
    `seconds`, checking the first round's outputs outside the timed part.

    With a tracer, every operation runs twice, untraced and traced, in
    alternating order, so that drifts in machine speed fall on both sides
    of the tracing overhead alike.  Only the untraced runs count towards
    `seconds` and the end-to-end metrics.  Between operations, at most
    every REFERENCE_EVERY_S of operation time, the reference loop is timed."""
    clock = time.perf_counter
    durations, ok_durations, traced_s, errors, failures = [], [], [], [], []
    reference_s = []
    rounds = 0
    since_reference = REFERENCE_EVERY_S

    def traced_run(i, inp):
        tracer.install()
        tracer.op = i
        start = clock()
        try:
            wl.run(inp, True)
        except Exception:                # counted once, by the untraced twin
            pass
        finally:
            traced_s.append(clock() - start)
            tracer.op = None
            tracer.close()

    while True:
        for i, inp in enumerate(inputs):
            if since_reference >= REFERENCE_EVERY_S:
                burst = []
                for _ in range(REFERENCE_BURST):
                    start = clock()
                    reference()
                    burst.append(clock() - start)
                reference_s.append(statistics.median(burst))
                since_reference = 0.0
            if tracer is not None and i % 2:
                traced_run(i, inp)
            start = clock()
            try:
                out = wl.run(inp, False)
            except Exception as exc:     # a failed operation is counted, not fatal
                durations.append(clock() - start)
                failures.append(f"operation {i}: {exc!r}")
                continue
            durations.append(clock() - start)
            ok_durations.append(durations[-1])
            since_reference += durations[-1]
            if tracer is not None and not i % 2:
                traced_run(i, inp)
            if rounds == 0:
                try:
                    wl.check(inp, out)
                except AssertionError as exc:
                    errors.append(f"operation {i}: {exc}")
            del out                      # so that peak memory holds one output at a time
        rounds += 1
        if sum(durations) >= seconds:
            break
    try:
        wl.finish()
    except AssertionError as exc:
        errors.append(str(exc))
    return dict(rounds=rounds, attempted=len(durations), failed=len(failures),
                body_s=sum(durations), ok_durations=ok_durations, traced_s=sum(traced_s),
                errors=errors, failures=failures,
                scale=REFERENCE_S / statistics.fmean(reference_s), reference_s=reference_s)


def end_to_end(setup_s, body, scale=1.0):
    return {
        "setup_s": setup_s * scale,
        "instances_per_s": len(body["ok_durations"]) / (body["body_s"] * scale),
        "instance_p50_s": statistics.median(body["ok_durations"]) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, body, loaded, errors):
    spans = tracer.spans
    in_body = tracer.self_times(lambda s: s[4] is not None)
    in_setup = tracer.self_times(lambda s: s[4] is None)
    ops, rounds = body["attempted"], body["rounds"]
    calls = Counter(s[0] for s in spans if s[4] is not None)
    scale = body["scale"]
    values = {k: in_body.get(span, 0.0) * scale / ops for k, span in LAYER_TIMES.items()}
    values["graphcore.loads_s"] = in_setup.get("graphcore.loads", 0.0) * scale / loaded
    for key, source in LAYER_COUNTS.items():
        total = tracer.counts[source] if source in tracer.counts else calls[source]
        if total % rounds:
            errors.append(f"{key}: {total} over {rounds} rounds differs between rounds")
        values[key] = total // rounds
    values["sampler.accept_ratio"] = (calls["sampler.two_factor"]
                                      / max(tracer.counts["sampler.permutations"], 1))
    values["adversary.tree_yield"] = (tracer.counts["adversary.trees"]
                                      / max(tracer.counts["adversary.build_iterations"], 1))
    values["trace.overhead_pct"] = 100.0 * (body["traced_s"] / body["body_s"] - 1.0)
    return values


def print_layers(tracer, overhead_pct):
    by_layer = Counter()
    for name, sec in tracer.self_times(lambda s: s[4] is not None).items():
        by_layer[name.split(".")[0]] += sec
    total = sum(by_layer.values())
    for layer, sec in by_layer.most_common():
        print(f"self time  {layer:<10} {sec:9.3f} s  {100 * sec / total:5.1f}%")
    print(f"tracing overhead against the untraced run: {overhead_pct:+.2f}%")


def run_one(name, seed, seconds, trace):
    sys.path[:0] = [SRC, HERE]
    import plantedcycles
    if not os.path.abspath(plantedcycles.__file__).startswith(SRC + os.sep):
        sys.exit(f"plantedcycles was imported from {plantedcycles.__file__}, not from {SRC}")
    import tracer as tracing
    import workloads

    setups = [float(subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, HERE, name, str(seed)],
                                   capture_output=True, text=True, check=True).stdout)
              for _ in range(SETUP_REPEATS)]
    wl = workloads.WORKLOADS[name](seed)
    inputs = wl.prepare()
    tr = None
    if trace:
        tr = tracing.Tracer(workloads.trace_points())
        tr.install()
        try:
            wl.prepare()                 # traced once, for the loading layer
        finally:
            tr.close()
    body = run_rounds(wl, inputs, seconds, tr)
    errors = list(body["errors"])
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    metrics, units = end_to_end(statistics.median(setups), body, body["scale"]), END_TO_END
    extra = {"unscaled": end_to_end(statistics.median(setups), body), "scale": body["scale"],
             "reference_s": body["reference_s"]}
    if trace:
        extra["end_to_end_untraced"] = metrics
        extra["self_time_s"] = tr.self_times(lambda s: s[4] is not None)
        metrics, units = per_layer(tr, body, len(inputs), errors), PER_LAYER_UNITS
        print_layers(tr, metrics["trace.overhead_pct"])
        tr.dump(stem + "-spans.json")
    for e in body["failures"]:
        print(f"FAILED: {e}", file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": body["attempted"], "failed": body["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(stem + ".json", "w", encoding="ascii") as f:
        json.dump({**result, "workload": name, "seed": seed, "seconds": seconds,
                   "rounds": body["rounds"], "body_s": body["body_s"],
                   "operation_s": body["ok_durations"],
                   "setup_runs_s": setups, "errors": errors, "failures": body["failures"],
                   **extra},
                  f, indent=1)
    for k, v in metrics.items():
        print(f"{name:<10} {k:<26} {v:14.6f} {units[k]}")
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(seed, seconds, trace):
    """Every workload, one after another, each in its own interpreter."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = max(status, proc.returncode)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"all-seed{seed}-trace{trace}.json"), "w",
              encoding="ascii") as f:
        json.dump(results, f, indent=1)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"            # single-threaded, in this process and its children
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    return run_all(args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
