"""The bench tracer (`bench/spans.py`) wraps gso functions by name; a
traced run breaks when one of them is renamed or deleted.  Traced runs
are not part of this suite, so the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.FUNCTIONS
    missing = [
        f"{module}:{name}"
        for _, module, name in spans.FUNCTIONS
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
