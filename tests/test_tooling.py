"""Checks on the source tree that the tools around the package lean on.

The benchmark tracer (``perfbench/spans.py``) wraps the package's entry points
by name, so a renamed or removed function would only show when a traced run
fails; here each name must still resolve.  And no module of the package keeps
an import it never reads.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weylreps"


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
TRACED = sorted({(module, attribute) for _, module, attribute, _ in SPANS.SPANS}
                | {SPANS.NONZERO_COUNTER})


@pytest.mark.parametrize("module, attribute", TRACED, ids=[".".join(t) for t in TRACED])
def test_every_traced_entry_point_resolves(module, attribute):
    owner, name = SPANS._resolve(module, attribute)
    assert callable(getattr(owner, name, None)), f"weylreps.{module}.{attribute} is gone"


def _unused_imports(source: str) -> list[str]:
    """The names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_reads(name):
    assert _unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_an_unread_name():
    source = ("from __future__ import annotations\nimport os.path\nimport json\n"
              "from typing import Mapping, Sequence\n\ndef f(x: Mapping):\n    return os.sep\n")
    assert _unused_imports(source) == ["line 3: json", "line 4: Sequence"]
