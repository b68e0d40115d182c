"""Every exported name resolves: each module's ``__all__``, the package's
re-exports and every collapselab name the benchmark under ``perfbench/`` uses."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import collapselab

MODULES = sorted(info.name for info in pkgutil.iter_modules(collapselab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"collapselab.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(collapselab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"collapselab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not public"
            assert getattr(collapselab, alias.name) is getattr(module, alias.name)


# ---------------------------------------------------------------------------
# what the benchmark under perfbench/ calls
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_trees():
    """The syntax trees of the benchmark's modules and tests, and of the
    scripts its tests hold as format strings (``{name!r}`` fields blanked)."""
    for path in sorted([*BENCH.glob("*.py"), *BENCH.glob("tests/*.py")]):
        tree = ast.parse(path.read_text())
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "collapselab" in node.value:
                try:
                    yield ast.parse(re.sub(r"\{\w+!r\}", "None", node.value))
                except SyntaxError:     # prose, not a script
                    continue


def collapselab_references():
    """``(module, name)`` of every name the benchmark imports from collapselab,
    and every attribute it reads off a collapselab module it imported."""
    refs = []
    for tree in benchmark_trees():
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "collapselab":
                for alias in node.names:
                    refs.append((node.module, alias.name))
                    if node.module == "collapselab":
                        modules[alias.asname or alias.name] = f"collapselab.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                refs.append((modules[node.value.id], node.attr))
    return refs


def test_every_name_the_benchmark_uses_resolves():
    refs = collapselab_references()
    assert ("collapselab.estimates", "run_point") in refs
    assert ("collapselab.estimates", "default_ball_center") in refs   # from a test's worker script
    missing = []
    for module, name in refs:
        owner = importlib.import_module(module)
        if not hasattr(owner, name) and importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append(f"{module}.{name}")
    assert missing == []


def test_run_point_binds_the_keywords_the_benchmark_passes():
    from collapselab.estimates import run_point

    # the calls in the function that imports estimates.run_point: child.py's
    # own run_point has the same name
    tree = ast.parse((BENCH / "child.py").read_text())
    calls = [
        node
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and any(
            isinstance(stmt, ast.ImportFrom) and stmt.module == "collapselab.estimates"
            and "run_point" in [alias.name for alias in stmt.names]
            for stmt in func.body
        )
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "run_point"
    ]
    assert len(calls) == 1
    keywords = [kw.arg for kw in calls[0].keywords]
    assert "theta_max" in keywords
    inspect.signature(run_point).bind(**dict.fromkeys(keywords))


def test_the_traced_layer_modules_import():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    layers, = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_MODULES" for t in node.targets)
    ]
    for short in layers:
        importlib.import_module(f"collapselab.{short}")
