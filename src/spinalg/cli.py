"""Batch verification command line.

Runs a named suite over a range of levels with a fixed seed and emits a
canonical JSON report: identical configurations produce byte-identical
documents (timing goes to stderr only, never into the report)."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .suites import CheckResult, run_checks, suite_names
from .transfer_maps import DENSE_LEVEL_BOUND

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    n_min: int
    n_max: int
    seed: int
    samples: int
    out: str | None
    fail_fast: bool

    def validate(self) -> str | None:
        if self.suite not in suite_names():
            return f"unknown suite {self.suite!r}; choose from {', '.join(suite_names())}"
        if not 1 <= self.n_min <= self.n_max <= DENSE_LEVEL_BOUND:
            return f"need 1 <= n-min <= n-max <= {DENSE_LEVEL_BOUND}"
        if self.samples < 1:
            return "samples must be >= 1"
        return None


@dataclass(frozen=True)
class Report:
    tool_version: str
    config: SuiteConfig
    checks: tuple[CheckResult, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_document(self) -> str:
        payload = {
            "tool": {"name": "spinalg", "version": self.tool_version},
            "config": {
                "suite": self.config.suite,
                "n_min": self.config.n_min,
                "n_max": self.config.n_max,
                "seed": self.config.seed,
                "samples": self.config.samples,
                "fail_fast": self.config.fail_fast,
            },
            "checks": [
                {
                    "suite": c.suite,
                    "n": c.n,
                    "name": c.name,
                    "anchor": c.anchor,
                    "status": c.status,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
            "summary": self.counts,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_suite(config: SuiteConfig) -> Report:
    problem = config.validate()
    if problem is not None:
        raise ValueError(problem)
    checks = run_checks(
        config.suite,
        config.n_min,
        config.n_max,
        config.seed,
        config.samples,
        config.fail_fast,
    )
    ordered = tuple(sorted(checks, key=lambda c: (c.suite, c.n, c.name)))
    return Report(tool_version=__version__, config=config, checks=ordered)


def emit_report(report: Report, path: str | None) -> None:
    doc = report.to_document()
    if path is None:
        sys.stdout.write(doc)
    else:
        with open(path, "w") as fh:
            fh.write(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinalg",
        description="verify Clifford / spin-representation / Grassmann-cone identities",
    )
    parser.add_argument("--suite", default="all", help="|".join(suite_names()))
    parser.add_argument("--n-min", type=int, default=1)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=25)
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--fail-fast", action="store_true")
    args = parser.parse_args(argv)

    config = SuiteConfig(
        suite=args.suite,
        n_min=args.n_min,
        n_max=args.n_max,
        seed=args.seed,
        samples=args.samples,
        out=args.out,
        fail_fast=args.fail_fast,
    )
    problem = config.validate()
    if problem is not None:
        print(f"configuration error: {problem}", file=sys.stderr)
        return EXIT_CONFIG

    started = time.monotonic()
    report = run_suite(config)
    elapsed = time.monotonic() - started
    emit_report(report, config.out)
    counts = report.counts
    print(
        f"{counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped"
        f" in {elapsed:.1f}s",
        file=sys.stderr,
    )
    return EXIT_FAILURES if counts["fail"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
