"""The benchmark's tracer wraps asslkit functions by name; every name must exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> tuple[tuple[str, str, str], ...]:
    """``TARGETS`` of ``perfbench/tracer.py``, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = tracer_targets()
    assert targets
    for _layer, module, name in targets:
        obj = importlib.import_module(module)
        for part in name.split("."):
            assert hasattr(obj, part), f"{module}.{name}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{name}"
