"""One benchmark session in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports spinalg and
makes the workload's inputs, prints ``READY`` (the parent times set-up up to
that line), then, unless ``--phase setup`` was given, runs one session and
prints its result as one JSON line.  With ``--trace`` the session runs with
the layer tracer installed and also writes its spans to ``--spans``.

An untraced session runs under a ``speed.Speedometer``: every part's time is
reported both as measured (``<kind>_raw_s``, the speedometer's own kernel
runs taken out) and scaled to the reference speed (``<kind>_s``).  A traced
session reports its parts as measured only, and the kernel's median time
over runs just before and just after it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads  # noqa: E402

PART_KINDS = ("build", "query")
BRACKET_RUNS = 25  # speed kernel runs before and after a traced session


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--phase", choices=("setup", "session"), default="session")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    inputs = workloads.setup(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.phase == "setup":
        return 0

    if args.trace:
        import tracer as tracing

        # the speed kernel runs just before and after, outside every span
        kernel_s = [speed.time_kernel() for _ in range(BRACKET_RUNS)]
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        result = workloads.run_session(inputs)
        result["wall_s"] = time.perf_counter() - start
        tracer.uninstall()
        kernel_s += [speed.time_kernel() for _ in range(BRACKET_RUNS)]
        result["kernel_s"] = {"median": statistics.median(kernel_s), "runs": len(kernel_s)}
        for kind in PART_KINDS:
            result[f"{kind}_raw_s"] = [b - a for a, b in result.pop(kind)]
        result["layers"] = tracer.layer_metrics(result["wall_s"])
        result["calls"] = tracer.call_counts()
        if args.spans:
            tracer.write_spans(
                args.spans,
                {"workload": args.workload, "seed": args.seed, "wall_s": result["wall_s"]},
            )
    else:
        with speed.Speedometer() as meter:
            start = time.perf_counter()
            result = workloads.run_session(inputs)
            end = time.perf_counter()
        result["wall_s"] = meter.interval(start, end)[0]
        result["kernel_s"] = {"median": statistics.median(meter.times), "runs": len(meter.times)}
        for kind in PART_KINDS:
            timed = [meter.interval(a, b) for a, b in result.pop(kind)]
            result[f"{kind}_raw_s"] = [raw for raw, _ in timed]
            result[f"{kind}_s"] = [scaled for _, scaled in timed]
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
