"""The benchmark's tracer wraps package names; each one it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    spans = _load_spans()
    missing = []
    for name, module_name, attr in spans.ENTRY_POINTS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{name}: {module_name}.{attr}")
    assert not missing


def test_traced_verify_checks():
    assert len(_load_spans().verify_checks()) == 29
