"""The benchmark's tracer wraps qschub's functions by their module-level
names.  A name it wraps that no longer resolves silently reads 0 in the
per-layer metrics, so this pins the set of names that are missing."""

import importlib
import importlib.util
from pathlib import Path

from qschub.quantum import QuantumClass

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Gone from qschub before the tracer was updated; the next change to the
# benchmark drops them from the tracer and empties this set.
KNOWN_MISSING = {"lr.partitions_of_weight", "quantum.remove_rim_hook", "plane_curves.comb"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve_except_the_known_missing():
    tracer = _tracer()
    bindings = [(module, attr) for module, attr, _ in
                tracer.SPANNED + tracer.GENERATORS + tracer.COUNTED]
    bindings += [("cli", "build_parser"), ("cli", "_HANDLERS")]
    missing = {
        f"{module}.{attr}" for module, attr in bindings
        if getattr(importlib.import_module(f"qschub.{module}"), attr, None) is None
    }
    assert missing == KNOWN_MISSING
    for attr in ("__mul__", "__rmul__"):
        assert attr in QuantumClass.__dict__
