"""The benchmark's span tracer looks up functions by name; they must exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets() -> list[str]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS tuple in {TRACING}")


@pytest.mark.parametrize("target", traced_targets())
def test_traced_function_exists(target):
    module_name, fn_name = target.split(".")
    module = importlib.import_module(f"dpdl.{module_name}")
    assert callable(getattr(module, fn_name, None)), f"dpdl.{target} is gone"
