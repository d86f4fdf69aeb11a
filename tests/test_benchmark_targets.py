"""The benchmark names dpdl functions in its tracer and calls the package's
public names; every one of them must exist."""

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


def benchmark_api_uses() -> list[str]:
    """Every ``dpdl.<name>`` and ``from dpdl.<module> import <name>`` in perfbench/*.py."""
    uses = set()
    for path in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "dpdl":
                uses.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dpdl."):
                uses.update(f"{node.module[len('dpdl.'):]}.{alias.name}" for alias in node.names)
    return sorted(uses)


def test_benchmark_uses_some_api():
    assert len(benchmark_api_uses()) > 10


@pytest.mark.parametrize("name", benchmark_api_uses())
def test_benchmark_api_exists(name):
    import dpdl
    owner = dpdl
    if "." in name:
        module_name, name = name.split(".")
        owner = importlib.import_module(f"dpdl.{module_name}")
    assert hasattr(owner, name), f"perfbench uses {owner.__name__}.{name}, which is gone"
