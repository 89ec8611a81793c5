"""The benchmark's tracer (perfbench/tracer.py) wraps spinalg entry points
and reads its caches by name.  Installing it here makes a deleted or
renamed entry point fail in the test suite rather than in a traced run."""

import importlib.util
from pathlib import Path

from spinalg import clifford_core as cc

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_and_caches_resolve():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for layer, entries in tracer_module.ENTRY_POINTS.items():
            for entry in entries:
                label = entry[1] if isinstance(entry, tuple) else entry
                assert f"{layer}.{label}" in tracer.originals
        for module, attr in tracer_module.CACHES.values():
            assert callable(tracer.originals[f"{module}.{attr}"].cache_info)
    finally:
        tracer.uninstall()
    assert cc.mul is tracer.originals["clifford_core.mul"]
