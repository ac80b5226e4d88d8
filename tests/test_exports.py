"""The package's public surface: every exported name resolves, so a stale
entry in ``truncbound._EXPORTS`` fails here rather than on first use, and
every exported name is used by the package itself or documented."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import truncbound


@pytest.mark.parametrize("name", truncbound.__all__)
def test_exported_name_resolves_lazily(name):
    value = truncbound.__getattr__(name)      # the lazy path, even once cached
    module = truncbound._MODULE_OF.get(name)
    if module is None:                         # a submodule
        assert value is importlib.import_module(f"truncbound.{name}")
    else:
        assert value is getattr(importlib.import_module(f"truncbound.{module}"), name)
    assert getattr(truncbound, name) is value


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "truncbound"
# exported as references the tests check the library against
TEST_REFERENCES = ("tau_family_direct", "stationary_reconstruction")


def _src_uses() -> set:
    """Names that ``src/`` reads outside their own ``def``/``class`` (loads
    and attribute reads, annotations included; strings do not count), and
    the submodules that other modules import from."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = {}   # node -> names of the definitions it lies in
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for inner in ast.walk(node):
                    own.setdefault(inner, set()).add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                name = node.module            # a submodule another one imports
            else:
                continue
            if name not in own.get(node, ()):
                used.add(name)
    return used


def _documented() -> set:
    texts = [ROOT / "README.md", *sorted((ROOT / "docs").iterdir())]
    return set(re.findall(r"\w+", "\n".join(p.read_text() for p in texts)))


def test_every_export_is_used_or_documented():
    used, documented = _src_uses(), _documented()
    idle = [name for name in truncbound.__all__
            if name not in used and name not in documented
            and name not in TEST_REFERENCES]
    assert not idle, f"exported but neither used in src/ nor documented: {idle}"
    assert all(name in truncbound.__all__ for name in TEST_REFERENCES)
