"""API hygiene: every advertised name exists, imports stay acyclic-clean.

These tests keep the public surface honest: ``__all__`` lists must match
real attributes, the top-level package must re-export the documented entry
points, and the README's quickstart snippet must actually run.
"""

import importlib
import re
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.simcore",
    "repro.safety",
    "repro.routing",
    "repro.routing.baselines",
    "repro.broadcast",
    "repro.analysis",
    "repro.instances",
    "repro.viz",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    missing = [sym for sym in exported if not hasattr(mod, sym)]
    assert missing == [], f"{name}.__all__ lists missing names: {missing}"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_has_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, name


def test_top_level_entry_points():
    import repro

    for sym in ("Hypercube", "FaultSet", "SafetyLevels", "route",
                "route_batch", "RouteStatus"):
        assert hasattr(repro, sym)
    assert repro.__version__


def test_every_source_module_has_docstring():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    bare = []
    for path in src.rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not (stripped.startswith('"""') or stripped.startswith("'''")
                or not stripped):
            bare.append(str(path.relative_to(src)))
    assert bare == [], f"modules without a leading docstring: {bare}"


def test_readme_quickstart_snippet_runs():
    """The README's first python block must execute verbatim."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks, "README lost its quickstart snippet"
    snippet = blocks[0]
    namespace: dict = {}
    exec(compile(snippet, "<README quickstart>", "exec"), namespace)
    assert "result" in namespace
    assert namespace["result"].optimal
