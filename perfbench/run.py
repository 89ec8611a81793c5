"""spinalg benchmark: runs one workload and reports its metrics.

    python3 perfbench/run.py --workload cli-dense --seed 7 --seconds 45 --trace 0

Run from the root of a checkout.  Every session runs in a fresh interpreter
(``worker.py``) with ``src`` on ``PYTHONPATH``, on the run's seed and so on
the same inputs; sessions are started one after another while the next one
is expected to end within ``--seconds``.  Each part of a session (a table
build, a report, a query) is timed and scaled to the reference speed of
``speed.py``, and a run reports the best time of each part over its
sessions.  The last line of standard output is the JSON result; the metric
names and units come from ``BENCHMARK.json``.
``--workload all`` runs every workload in turn.

With ``--trace 1`` sessions go in pairs, untraced then traced, and the
per-layer metrics come from the first traced session.  A full record of the
run (context, sessions, all call counts) is written to ``.bench_out/``, with
the spans of that traced session.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5  # set-up-only interpreters per run
MAX_STEPS = 12
CHILD_TIMEOUT_S = 150


class SessionError(RuntimeError):
    pass


def read_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_revision() -> str:
    """The checked-out commit, read from .git inside the checkout only."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_start": list(os.getloadavg()),
    }


def child_env(hash_seed: int | None = None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def spawn(args: argparse.Namespace, workload: str, phase: str, hash_seed: int,
          traced: bool = False, spans: str | None = None) -> dict:
    """Start one worker; return its set-up time, total time and result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--size", args.size,
        "--phase", phase,
    ]
    if traced:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", spans]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(hash_seed), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        ready_at = time.perf_counter()
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SessionError(f"{workload} {phase} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    ended = time.perf_counter()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise SessionError(
            f"{workload} {phase} failed (exit {proc.returncode}): {err.strip()[-2000:]}"
        )
    record = {"setup_s": ready_at - started, "total_s": ended - started,
              "hash_seed": hash_seed}
    if phase == "session":
        record["result"] = json.loads(out.strip().splitlines()[-1])
    return record


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_of(results: list[dict], key: str) -> list[float]:
    """Each part's best time over the sessions, which all ran the same parts."""
    return [min(times) for times in zip(*(r[key] for r in results))]


def query_times(results: list[dict], suffix: str) -> list[float]:
    """Each query's time: the best times of the parts it is made of, summed."""
    parts = iter(best_of(results, "query" + suffix))
    return [sum(next(parts) for _ in range(count)) for count in results[0]["query_parts"]]


def recorded_digest(workload: str, seed: int, size: str) -> str | None:
    """The digest of the default seed's session answers, if recorded."""
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(size, {}).get(workload)


def run_sessions(args: argparse.Namespace, workload: str, tag: str, deadline: float) -> list:
    """Sessions while the next step is expected to end before ``deadline``.

    A step is one untraced session, or with ``--trace 1`` an untraced and a
    traced session.  Every session gets its own PYTHONHASHSEED, so that
    answers and call counts that depend on hash order show as differences."""
    sessions: list[dict] = []
    kinds = (False, True) if args.trace else (False,)
    longest = 0.0
    for step in range(MAX_STEPS):
        if step and time.perf_counter() + longest > deadline:
            break
        started = time.perf_counter()
        for traced in kinds:
            index = len(sessions)
            spans = os.path.join(OUT_DIR, f"spans-{tag}-s{index}.json") if traced else None
            record = spawn(args, workload, "session", index + 1, traced, spans)
            record.update(index=index, step=step, traced=traced, spans=spans)
            sessions.append(record)
        longest = max(longest, time.perf_counter() - started)
    return sessions


def check_sessions(workload: str, seed: int, size: str, sessions: list) -> tuple[int, int]:
    """Attempted and failed operations over the run's sessions.

    A session's failed checks or queries count as failed.  Every session ran
    the same inputs, so every session's digest must equal the first one's,
    and at the default seed the recorded digest; a session that differs
    fails every check it made."""
    recorded = recorded_digest(workload, seed, size)
    first = sessions[0]["result"]["digest"]
    attempted = failed = 0
    for s in sessions:
        r = s["result"]
        attempted += r["checks"]
        s["digest_mismatch"] = r["digest"] != first or (
            recorded is not None and r["digest"] != recorded
        )
        failed += r["checks"] if s["digest_mismatch"] else r["check_failures"]
    return attempted, failed


def end_to_end_metrics(untraced: list[dict], setups: list[float], suffix: str) -> dict:
    """The metrics from the part times ``<kind><suffix>`` of the sessions."""
    build = best_of(untraced, "build" + suffix)
    queries = query_times(untraced, suffix)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(build) + sum(queries),
        "build_s": sum(build),
        "query_p50_ms": 1000 * statistics.median(queries),
        "query_p99_ms": 1000 * percentile(queries, 99),
        "queries_per_s": len(queries) / sum(queries),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in untraced),
    }


def scaled_wall(session: dict) -> float:
    """A session's wall time at reference speed, from its median kernel time."""
    result = session["result"]
    return speed.scale(result["wall_s"], result["kernel_s"]["median"])


def per_layer_metrics(sessions: list, spans_file: str) -> dict:
    """The first traced session's layer metrics, with the tracing overhead."""
    traced = [s for s in sessions if s["traced"]]
    chosen = traced[0]
    layers = dict(chosen["result"]["layers"])
    twins = {s["step"]: scaled_wall(s) for s in sessions if not s["traced"]}
    layers["trace.overhead_frac"] = statistics.median(
        scaled_wall(s) / twins[s["step"]] - 1 for s in traced
    )
    os.replace(chosen["spans"], spans_file)
    for s in traced[1:]:
        os.remove(s["spans"])
    return layers


def run_workload(args: argparse.Namespace, workload: str, spec: dict) -> tuple[dict, dict]:
    started = time.perf_counter()
    deadline = started + args.seconds
    ctx = context()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"

    spawn(args, workload, "setup", 0)  # byte-compiles on a fresh checkout; not timed
    # set-up is process start, imports and file reads more than computation:
    # the speed kernel does not track it, so it is taken as measured
    setups = [spawn(args, workload, "setup", 0)["setup_s"] for _ in range(SETUP_PROBES)]
    sessions = run_sessions(args, workload, tag, deadline)
    window_s = time.perf_counter() - started

    attempted, failed = check_sessions(workload, args.seed, args.size, sessions)
    untraced = [s["result"] for s in sessions if not s["traced"]]
    end_to_end = end_to_end_metrics(untraced, setups, "_s")
    measured = end_to_end_metrics(untraced, setups, "_raw_s")
    per_layer: dict = {}
    spans_file = None
    calls_repeat = None
    if args.trace:
        spans_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{args.seed}.json")
        per_layer = per_layer_metrics(sessions, spans_file)
        counts = [s["result"]["calls"] for s in sessions if s["traced"]]
        calls_repeat = all(c == counts[0] for c in counts)

    ctx["loadavg_end"] = list(os.getloadavg())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {
        "workload": workload,
        "seed": args.seed,
        "size": args.size,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "context": ctx,
        "window_s": window_s,
        "setup_probes_s": setups,
        "failed_frac": failed / attempted,
        "query_samples": len(untraced[0]["query_parts"]),
        "end_to_end": end_to_end,
        "end_to_end_as_measured": measured,
        "per_layer": per_layer,
        "spans_file": spans_file,
        "traced_calls_repeat": calls_repeat,
        "sessions": [
            {k: v for k, v in s["result"].items() if k != "layers"}
            | {k: s[k] for k in ("index", "step", "traced", "hash_seed", "setup_s", "total_s",
                                 "digest_mismatch")}
            for s in sessions
        ],
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return summary, record


def describe(workload: str, summary: dict, record: dict) -> None:
    ctx = record["context"]
    print(
        f"# {workload}: seed {record['seed']}, {len(record['sessions'])} sessions in "
        f"{record['window_s']:.1f} s, python {ctx['python']}, nproc {ctx['nproc']}, "
        f"rev {ctx['git_revision'][:12]}, load {ctx['loadavg_start'][0]:.2f} -> "
        f"{ctx['loadavg_end'][0]:.2f}",
        file=sys.stderr,
    )
    for name, m in summary["metrics"].items():
        print(f"{workload:14s} {name:48s} {m['value']:14.6g} {m['unit']}")
    # the seconds behind the per-layer shares, as measured in the traced session
    for name, value in record["per_layer"].items():
        if name.endswith(("_s", ".s")) and name not in summary["metrics"]:
            print(f"{workload:14s} {name:48s} {value:14.6g} s")
    # failed_frac is 0 on a correct run, so it is no metric of BENCHMARK.json
    print(
        f"{workload:14s} {'failed_frac':48s} {record['failed_frac']:14.6g} frac "
        f"({summary['failed']} of {summary['attempted']})"
    )
    print(f"{workload:14s} {'query_samples':48s} {record['query_samples']:14d} count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: levels <= 3 and a handful of queries, for smoke tests")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind, so that spawn() stops the session it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "spinalg", "__init__.py")):
        print("perfbench: run from the root of a spinalg checkout (src/spinalg not found)",
              file=sys.stderr)
        return 2
    spec = read_spec()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            summary, record = run_workload(args, workload, spec)
            describe(workload, summary, record)
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            prefix = "" if len(names) == 1 else f"{workload}/"
            for name, m in summary["metrics"].items():
                combined["metrics"][prefix + name] = m
    except SessionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
