"""The benchmark's tracing hooks find library functions by name.

`bench/spans.py` wraps every (module, function) pair in its TRACED table,
so deleting or renaming one of them breaks `bench/run.py --trace 1`. These
tests load that file by path, without installing its wrappers, and check
that every name it and `dismantler.__all__` promise still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import dismantler

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_resolve():
    spans = load_spans()
    for module in spans.MODULES:
        importlib.import_module(f"dismantler.{module}")
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(f"dismantler.{module}"),
                                       attr, None))]
    assert not missing


def test_public_names_resolve():
    assert [name for name in dismantler.__all__ if not hasattr(dismantler, name)] == []
