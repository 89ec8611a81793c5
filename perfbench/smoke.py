"""The benchmark's own tests, at tiny size (levels <= 3, a handful of queries).

    python3 perfbench/smoke.py            # run every check, about a minute
    python3 perfbench/smoke.py --record   # rewrite perfbench/digests.json

Run from the root of a checkout.  The checks:

- BENCHMARK.json keeps to the benchmark's format rules;
- every workload runs untraced and traced, correctly, and prints exactly the
  metrics BENCHMARK.json names;
- in a traced run the layer self times plus ``untraced.self_s`` add up to the
  traced wall time, and their shares, the metrics, to 1;
- two traced runs with one seed under different ``PYTHONHASHSEED`` values
  give identical call counts and identical answers;
- the recorded tiny CLI digests are those of the ``spinalg`` command's own
  output for the same invocations;
- ``run.py`` exits non-zero without a result where ``src/spinalg`` is absent.

``--record`` computes the digests of the default seed's answers with the
code as it is; run it only when a change is meant to alter the answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import child_env  # noqa: E402

ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload: str, trace: int, seed: int = workloads.DEFAULT_SEED,
          **env) -> tuple[dict, dict]:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
        str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **env), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return result, json.load(fh)


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    print("ok BENCHMARK.json")


def check_workload(spec: dict, workload: str) -> None:
    plain, _ = bench(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0, plain
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in plain["metrics"].values()), plain

    runs = [bench(workload, 1, PYTHONHASHSEED=str(h)) for h in (1, 2)]
    for traced, record in runs:
        assert traced["correct"], traced
        layers = record["per_layer"]
        assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        wall = layers["trace.wall_s"]
        assert abs(total - wall) <= 1e-6 * wall, (total, wall)
        shares = sum(v["value"] for k, v in traced["metrics"].items() if k.endswith(".self_frac"))
        assert abs(shares - 1) <= 1e-6, shares
        assert os.path.exists(record["spans_file"])
    sessions = [[s for s in record["sessions"] if s["traced"]] for _, record in runs]
    assert [s["calls"] for s in sessions[0]] == [s["calls"] for s in sessions[1]], \
        "call counts depend on PYTHONHASHSEED"
    assert [s["digest"] for s in sessions[0]] == [s["digest"] for s in sessions[1]], \
        "answers depend on PYTHONHASHSEED"
    print(f"ok {workload}")


def check_cli_digests() -> None:
    """The recorded digests are those of the spinalg command's own output."""
    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh)["tiny"]
    for workload, sizes in workloads.CLI_WORKLOADS.items():
        spec = sizes["tiny"]
        out = []
        for suite, n_min, n_max in spec["invocations"]:
            proc = subprocess.run(
                [sys.executable, "-m", "spinalg.cli", "--suite", suite, "--n-min", str(n_min),
                 "--n-max", str(n_max), "--seed", str(workloads.DEFAULT_SEED),
                 "--samples", str(spec["samples"])],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == recorded[workload], workload
    print("ok cli digests")


def check_refuses_without_source() -> None:
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workloads.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok refuses without src")


def record() -> None:
    digests: dict = {}
    for size in ("full", "tiny"):
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                 "--seed", str(workloads.DEFAULT_SEED), "--size", size],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["check_failures"]:
                # recorded as it is: its failed checks still count in every run
                print(f"note: {size} {workload} has {result['check_failures']} failed check(s)")
            digests.setdefault(size, {})[workload] = result["digest"]
            print(f"recorded {size} {workload}")
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    if "--record" in sys.argv[1:]:
        record()
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    for workload in workloads.WORKLOADS:
        check_workload(spec, workload)
    check_cli_digests()
    check_refuses_without_source()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
