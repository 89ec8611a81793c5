"""Span tracing of spinalg's layers, installed from outside the package.

A traced session replaces selected module attributes (and two
``GroupElement`` methods) with wrappers that record one span per call:
name, start, end and the enclosing span.  Because the library calls its
layers through module aliases (``gc.is_pure``, ``linalg.rref``), replacing
the attribute on the module is enough for every caller to go through the
wrapper.  Nothing under ``src/`` is edited.

Counts, self times and a few shape-derived work counters are accumulated as
calls return; individual spans are kept in memory up to a cap and written
out once, when the session ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# layer -> entry points wrapped in a traced session.  A dotted name is a
# method of a class in that module.  The optional second item is the name the
# span is reported under, when it differs from the attribute path.
ENTRY_POINTS: dict[str, tuple] = {
    "clifford_core": (
        "mul", "normal_form", "star", "act_on_exterior", "wedge_of_vectors",
        "so_to_clifford",
    ),
    "spin_rep": (
        "GroupElement.apply", ("GroupElement.so_matrix", "so_matrix"), "rho_so",
        "clifford_action_on_spin", "random_group_element", "exp_nilpotent",
        "to_left_ideal", "from_left_ideal", "vector_action", "so_bracket",
        "gl_twist_residual",
    ),
    "transfer_maps": (
        "beta", "beta_direct", "beta_gram", "_gram_rows",
        "_primed_contraction_solver", "pi_last", "tau_last", "psi_last",
        "pi_tower", "pi_general", "psidual_residual",
    ),
    "grassmann_cone": (
        "is_pure", "annihilator", "sample_cone_point", "random_maximal_isotropic",
        "omega_of", "adapted_basis", "pluecker", "check_isotropic",
    ),
    "cartan": (
        "nu2", "lower_factorization", "sample_lower_factorization",
        "diagram_pi_residual", "diagram_tau_residual", "injectivity_witness",
        "is_decomposable", "contract_ce", "mult_mh",
    ),
    "ideal_engine": (
        "i4_quadric", "pullback", "eval_poly", "vanishing_forms",
        "stable_vanishing_forms", "ideal_membership", "orbit_pullback_family",
        "certify_membership", "off_cone_sample", "degree_lowering_trace",
        "produce_solving_element", "assemble_localized",
    ),
    "linalg": (
        "rref", "matmul", "nullspace", "rank", "row_space", "solve",
        "solve_matrix", "inverse", "det", "sparse_rank", "intersect_row_spaces",
    ),
    "suites": ("run_checks",),
    "cli": ("run_suite",),
}

LAYERS = tuple(ENTRY_POINTS)

# caches read through cache_info(): metric prefix -> (module, attribute)
CACHES = {
    "transfer_maps.gram_cache": ("transfer_maps", "_gram_rows"),
    "transfer_maps.solver_cache": ("transfer_maps", "_primed_contraction_solver"),
    "ideal_engine.i4_cache": ("ideal_engine", "i4_quadric"),
}

SUITE_NAMES = ("cartan", "clifford", "cone", "lowering", "spinrep", "theorem61", "transfer")


def _shape(m) -> tuple[int, int]:
    rows = len(m)
    return rows, (len(m[0]) if rows else 0)


def _rref_cells(args, kwargs) -> int:
    r, c = _shape(args[0] if args else kwargs["a"])
    return r * c


def _matmul_mults(args, kwargs) -> int:
    ra, ca = _shape(args[0] if args else kwargs["a"])
    _, cb = _shape(args[1] if len(args) > 1 else kwargs["b"])
    return ra * ca * cb


# span name -> (work counter name, function of the call's arguments)
WORK_COUNTERS = {
    "linalg.rref": ("linalg.rref.cells", _rref_cells),
    "linalg.matmul": ("linalg.matmul.mults", _matmul_mults),
}

# span name -> inclusive-time key derived from the first argument
ARGUMENT_TIMERS = {"suites.run_checks": lambda args: f"suites.{args[0]}.s"}


class Tracer:
    """Records spans for the wrapped entry points of one session."""

    def __init__(self, max_spans: int = 200_000):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.max_spans = max_spans
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []  # [name id, start, end, parent index]
        self.dropped = 0
        self.stack: list[list] = []  # [span index, name id, child time]
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.raised: dict[tuple[str, str], int] = {}
        self.work: dict[str, int] = {}
        self.top_level_time = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        work = WORK_COUNTERS.get(name)
        arg_timer = ARGUMENT_TIMERS.get(name)
        tracer = self
        clock = self.clock
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                key, measure = work
                tracer.work[key] = tracer.work.get(key, 0) + measure(args, kwargs)
            parent = stack[-1] if stack else None
            if parent is not None:
                edge = (tracer.names[parent[1]], name)
                tracer.edges[edge] = tracer.edges.get(edge, 0) + 1
            if len(tracer.spans) < tracer.max_spans:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, name_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                tracer.raised[key] = tracer.raised.get(key, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + duration - frame[2]
                tracer.inclusive[name] = tracer.inclusive.get(name, 0.0) + duration
                if arg_timer is not None:
                    k = arg_timer(args)
                    tracer.inclusive[k] = tracer.inclusive.get(k, 0.0) + duration
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.top_level_time += duration
                if index >= 0:
                    parent_index = parent[0] if parent is not None else -1
                    tracer.spans[index] = (
                        name_id, start - tracer.origin, end - tracer.origin, parent_index
                    )

        return traced

    def install(self) -> None:
        """Wrap every entry point; aliases bound by ``from x import y`` too."""
        modules = {layer: importlib.import_module(f"spinalg.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, entries in ENTRY_POINTS.items():
            module = modules[layer]
            for entry in entries:
                path, label = entry if isinstance(entry, tuple) else (entry, entry)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                name = f"{layer}.{label}"
                wrapper = self.wrap(name, fn)
                self.originals[name] = fn
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                replaced[id(fn)] = wrapper
        package = importlib.import_module("spinalg")
        for namespace in [package, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of this session; ``wall`` is its traced wall time."""
        calls = self.calls
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer
            )
        out["untraced.self_s"] = wall - self.top_level_time
        for name in sorted(self.names):
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update({k: self.work.get(k, 0) for k, _ in WORK_COUNTERS.values()})
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.s"] = self.inclusive.get(f"suites.{suite}.s", 0.0)
        out["ideal_engine.i4_quadric.s"] = self.inclusive.get("ideal_engine.i4_quadric", 0.0)
        # each time as a share of the session: unlike seconds, a share does
        # not move with the machine's speed, and it is not a time at all
        # where a workload never enters a layer
        for key in [k for k in out if k.endswith("_s") or k.endswith(".s")]:
            out[key[: -len("s")] + "frac"] = out[key] / wall
        for prefix, (module, attr) in CACHES.items():
            info = self.originals[f"{module}.{attr}"].cache_info()
            lookups = info.hits + info.misses
            out[f"{prefix}.lookups"] = lookups
            out[f"{prefix}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        attempts = calls.get("cartan.lower_factorization", 0)
        generic_failures = self.raised.get(("cartan.lower_factorization", "GenericityError"), 0)
        out["cartan.lower_factorization.generic_ratio"] = (
            (attempts - generic_failures) / attempts if attempts else 0.0
        )
        accepted = calls.get("ideal_engine.off_cone_sample", 0)
        tested = self.edges.get(("ideal_engine.off_cone_sample", "grassmann_cone.is_pure"), 0)
        out["ideal_engine.off_cone_sample.accept_ratio"] = accepted / tested if tested else 0.0
        queries = calls.get("ideal_engine.certify_membership", 0)
        members = self.edges.get(("ideal_engine.certify_membership", "ideal_engine.eval_poly"), 0)
        out["ideal_engine.certify_membership.members_per_query"] = (
            members / queries if queries else 0.0
        )
        out["trace.wall_s"] = wall
        return out

    def call_counts(self) -> dict[str, int]:
        return {name: self.calls.get(name, 0) for name in sorted(self.names)}

    def write_spans(self, path: str, meta: dict) -> None:
        """Write the recorded spans: times in seconds from the session start."""
        spans = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "dropped": self.dropped,
                    "spans": [[n, round(a, 7), round(b, 7), p] for n, a, b, p in spans],
                },
                fh,
                separators=(",", ":"),
            )
