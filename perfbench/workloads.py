"""The benchmark's workloads: inputs made from a seed, and one session each.

A session runs in a fresh interpreter (see ``worker.py``), so the package's
lazy ``lru_cache`` tables are built again in every session, as they are for
someone running the ``spinalg`` command.  A session is a fixed sequence of
parts, the same in every session of one run.  It returns the (start, end)
``perf_counter`` times of each part, in two lists, and how many consecutive
query parts make up each query:

build  the tables the answers rest on.  For the CLI workloads, the lazily
       cached tables their suites use (the pairing Gram rows, the level-4
       quadric), built up front; for ``cone-queries``, the pullback families
       at levels 5 and 6.
query  for the CLI workloads, one ``spinalg`` report of one suite at one
       level (``cli.run_suite`` with n-min = n-max); a query is one
       invocation, ``spinalg --suite S --n-min A --n-max B``, whose report
       is made of those of its levels, in order.  For ``cone-queries``, a
       query is one part: ``is_pure(x)`` then ``certify_membership(x,
       family)`` on one point.

Importing this module does not import spinalg: ``setup`` does, so that the
import is part of the measured set-up time.
"""

from __future__ import annotations

import hashlib
import random
import time

DEFAULT_SEED = 7

# Each CLI workload is a list of ``spinalg`` invocations (suite, n-min,
# n-max) at a fixed --samples.  README.md says what is left out and why.
CLI_WORKLOADS = {
    "cli-dense": {
        "full": {
            "samples": 1,
            "invocations": [("clifford", 1, 6), ("spinrep", 1, 6), ("transfer", 1, 6),
                            ("cartan", 1, 6)],
        },
        "tiny": {
            "samples": 1,
            "invocations": [("clifford", 1, 3), ("spinrep", 1, 3), ("transfer", 1, 3),
                            ("cartan", 1, 3)],
        },
    },
    "cli-algebraic": {
        "full": {
            "samples": 1,
            "invocations": [("cone", 1, 6), ("theorem61", 1, 4), ("theorem61", 6, 6),
                            ("lowering", 1, 4), ("lowering", 6, 6)],
        },
        "tiny": {
            "samples": 1,
            "invocations": [("cone", 1, 3), ("theorem61", 1, 3), ("lowering", 1, 3)],
        },
    },
}

# cone-queries: (level, family size) pairs, and queries per session.  Orbit
# points use group words of 1..MAX_WORD letters and dense points integer
# coordinates in [-b, b] for b in 1..MAX_BOUND, taken in turn, so that query
# sizes vary in the same proportions at every seed.
CONE_WORKLOAD = {
    "full": {"families": ((5, 64), (6, 120)), "queries": 1000},
    "tiny": {"families": ((4, 6),), "queries": 8},
}
MAX_WORD = 10
MAX_BOUND = 9

WORKLOADS = ("cli-dense", "cli-algebraic", "cone-queries")


class Inputs:
    """Everything a session needs, made from the seed before any timing."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        if workload in CLI_WORKLOADS:
            spec = CLI_WORKLOADS[workload][size]
            self.samples = spec["samples"]
            self.invocations = spec["invocations"]
        elif workload == "cone-queries":
            spec = CONE_WORKLOAD[size]
            self.families = spec["families"]
            rng = random.Random(f"perfbench:cone-queries:{seed}")
            levels = [n for n, _ in self.families]
            # (level, orbit point?, word length or coordinate bound, salt);
            # the levels take turns, and about half the points are orbit points
            self.queries = []
            taken = {True: 0, False: 0}
            for i in range(spec["queries"]):
                orbit = rng.random() < 0.5
                size_param = 1 + taken[orbit] % (MAX_WORD if orbit else MAX_BOUND)
                taken[orbit] += 1
                self.queries.append(
                    (levels[i % len(levels)], orbit, size_param, rng.getrandbits(32))
                )
        else:
            raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, size: str) -> Inputs:
    import spinalg  # noqa: F401  (the import is part of set-up)

    return Inputs(workload, seed, size)


def run_session(inputs: Inputs) -> dict:
    """One session: its part intervals, a digest of its answers and its checks."""
    if inputs.workload == "cone-queries":
        return _cone_session(inputs)
    return _cli_session(inputs)


# -- CLI workloads ---------------------------------------------------------------


def _build_cli(inputs: Inputs) -> list:
    """The lazily cached tables the workload's suites use, as build parts."""
    from spinalg import ideal_engine, transfer_maps

    parts = []
    suites = {suite for suite, _, _ in inputs.invocations}
    if "transfer" in suites:
        top = max(n_max for suite, _, n_max in inputs.invocations if suite == "transfer")
        parts += [lambda n=n: transfer_maps.beta_gram(n) for n in range(1, top + 1)]
    if suites & {"theorem61", "lowering"}:
        parts.append(ideal_engine.i4_quadric)
    return parts


def _cli_session(inputs: Inputs) -> dict:
    from spinalg import __version__, cli

    clock = time.perf_counter
    build = []
    for make in _build_cli(inputs):
        t = clock()
        make()
        build.append((t, clock()))
    query = []
    query_parts = []
    documents = []
    statuses = {"pass": 0, "fail": 0, "skipped": 0}
    for suite, n_min, n_max in inputs.invocations:
        checks = []
        for n in range(n_min, n_max + 1):
            config = cli.SuiteConfig(suite, n, n, inputs.seed, inputs.samples, None, False)
            t = clock()
            report = cli.run_suite(config)
            query.append((t, clock()))
            checks += report.checks
        query_parts.append(n_max - n_min + 1)
        # the levels' checks, in level order, are those of the whole range
        whole = cli.SuiteConfig(suite, n_min, n_max, inputs.seed, inputs.samples, None, False)
        report = cli.Report(__version__, whole, tuple(checks))
        # the document `spinalg --suite S --n-min A --n-max B ...` writes
        documents.append(report.to_document())
        for status, count in report.counts.items():
            statuses[status] += count
    return {
        "build": build,
        "query": query,
        "query_parts": query_parts,
        "digest": hashlib.sha256("".join(documents).encode()).hexdigest(),
        "checks": sum(statuses.values()),
        "check_failures": statuses["fail"],
        "statuses": statuses,
    }


# -- cone-queries ----------------------------------------------------------------


def _dense_point(n: int, bound: int, salt: int):
    """A random point with integers in [-bound, bound] on every even coordinate."""
    from fractions import Fraction

    from spinalg import spin_rep

    rng = random.Random(salt)
    terms = {
        m: Fraction(rng.randint(-bound, bound))
        for m in range(1 << n)
        if bin(m).count("1") % 2 == 0
    }
    return spin_rep.SpinVector(n, terms)


def _cone_session(inputs: Inputs) -> dict:
    from spinalg import grassmann_cone as gc
    from spinalg import ideal_engine as ie

    clock = time.perf_counter
    build = []
    families = {}
    for n, count in inputs.families:
        t = clock()
        families[n] = ie.orbit_pullback_family(n, f"{inputs.seed}:fam", count)
        build.append((t, clock()))
    query = []
    violations = 0
    verdicts = []
    for index, (n, orbit, size_param, salt) in enumerate(inputs.queries):
        if orbit:
            x = gc.sample_cone_point(n, f"{inputs.seed}:q{index}:{salt}", length=size_param)
        else:
            x = _dense_point(n, size_param, salt)
        t = clock()
        pure = gc.is_pure(x).on_cone
        member = ie.certify_membership(x, families[n]).passes
        query.append((t, clock()))
        # the two oracles must agree, and an orbit point is on the cone
        if pure != member or (orbit and not pure):
            violations += 1
        verdicts.append("1" if pure else "0")
    return {
        "build": build,
        "query": query,
        "query_parts": [1] * len(query),
        "digest": hashlib.sha256("".join(verdicts).encode()).hexdigest(),
        "checks": len(inputs.queries),
        "check_failures": violations,
        "on_cone": verdicts.count("1"),
    }
