"""The package's public surface: every exported name resolves, so a stale
entry in ``truncbound._EXPORTS`` fails here rather than on first use,
every exported name is used by the package itself or documented, the
library's settable values are exactly the listed ones, and ``src/`` does
not grow past its tracked line count."""

import ast
import dataclasses
import importlib
import inspect
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
            if name not in used and name not in documented]
    assert not idle, f"exported but neither used in src/ nor documented: {idle}"


LIBRARY_MODULES = ("bounds", "censor", "ctmc", "linalg", "lyapunov", "models", "pipeline",
                   "statespace")
# every value a caller can set and leave unset: an option added or removed
# must be added to or removed from this list, and its length is the tracked count
SETTABLE_VALUES = [
    "linalg.SubstochasticSolver.solve.transpose",
    "lyapunov.DriftCertificate.reports",
    "lyapunov.DriftCertificate.verified",
    "lyapunov.drift_excess.exclude",
    "lyapunov.verify_certificate.tolerance",
    "lyapunov.verify_drift.tolerance",
    "models.GM1Model.b",
    "models.GM1Model.mu",
    "models.Model.certificate_for_envelope.return_set",
    "pipeline.run_pipeline.explicit_return_set",
]


def _defaulted(prefix: str, fn) -> list:
    return [f"{prefix}.{p.name}" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def _settable_values(module_name: str) -> list:
    """``module.name.param`` of each public parameter with a default (an
    ``__init__``'s under its class) and each dataclass field with a default."""
    module = importlib.import_module(f"truncbound.{module_name}")
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        prefix = f"{module_name}.{name}"
        if inspect.isfunction(obj):
            out += _defaulted(prefix, obj)
        if not inspect.isclass(obj):
            continue
        dataclass = dataclasses.is_dataclass(obj)
        if dataclass:
            out += [f"{prefix}.{f.name}" for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING]
        for attr, fn in vars(obj).items():
            fn = getattr(fn, "__func__", fn)          # classmethods and staticmethods
            if attr == "__init__" and not dataclass:
                out += _defaulted(prefix, fn)
            elif not attr.startswith("_") and inspect.isfunction(fn):
                out += _defaulted(f"{prefix}.{attr}", fn)
    return out


def test_settable_values_are_the_listed_ones():
    found = sorted(v for m in LIBRARY_MODULES for v in _settable_values(m))
    assert found == SETTABLE_VALUES
    assert len(SETTABLE_VALUES) == 10


# the tracked size of the library: lower it when src/ shrinks, never raise it unremarked
SRC_LINES = 2469


def test_src_line_count_does_not_grow():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINES
