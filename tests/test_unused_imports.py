"""Every module-level import in the package is used: the unused-import rule
(pyflakes' F401) as a test, with no linter needed.

An import kept for another module's sake carries ``# noqa: F401`` on one of
its lines, and the only such sake is the layer tracer: every name it binds
must be one that ``perfbench/layers.py`` patches in that module, so no
re-export for callers or tests can pile up.  The package's ``__init__.py``
imports only to re-export: its imports and its ``__all__`` must name the
same things.
"""

import ast
import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixcacc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NOQA_F401 = re.compile(r"#\s*noqa:[A-Z0-9,\s]*\bF401\b")


def _imports(source: str):
    """``(names bound, carries noqa F401)`` of each module-level import."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        yield ([alias.asname or alias.name.split(".")[0] for alias in node.names],
               any(NOQA_F401.search(line) for line in lines[node.lineno - 1:node.end_lineno]))


def unused_imports(source: str) -> list[str]:
    """Names the module-level imports of ``source`` bind and nothing reads."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [name for names, noqa in _imports(source) if not noqa
            for name in names if name not in used]


def untraced_shims(source: str, module: str, wrapped) -> list[str]:
    """Names the ``# noqa: F401`` imports of ``source`` bind that no entry of
    ``wrapped`` (the tracer's ``(module, attribute, ...)`` rows) patches in
    ``module``."""
    traced = {attr for mod, attr, *_ in wrapped if mod == module}
    return [name for names, noqa in _imports(source) if noqa
            for name in names if name not in traced]


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPPED


def test_the_check_flags_unused_names_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import NamedTuple, Optional\n"
        "from json import (  # noqa: F401\n"
        "    dumps,\n"
        ")\n"
        "from json import loads  # noqa: E402,F401\n"
        "from json import load  # noqa: E402\n"
        "def f(x: Optional[int]):\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["os", "NamedTuple", "load"]


def test_the_shim_check_flags_names_the_tracer_does_not_patch():
    source = (
        "from json import (  # noqa: F401  (re-exported)\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "from json import load  # noqa: E402,F401\n"
        "from os import path\n"
    )
    wrapped = (("pkg.mod", "dumps", "json.dumps", None),
               ("pkg.other", "load", "json.load", None))
    assert untraced_shims(source, "pkg.mod", wrapped) == ["loads", "load"]


def export_mismatch(source: str) -> tuple[list[str], list[str]]:
    """The names ``source`` imports but leaves out of ``__all__``, and the
    ``__all__`` entries other than ``__version__`` that it does not import."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"])
    return ([name for name in imported if name not in exported],
            [name for name in exported if name != "__version__" and name not in imported])


def test_the_export_check_flags_both_directions():
    source = (
        "from .a import kept, unlisted\n"
        "__version__ = '1'\n"
        "__all__ = ['kept', 'stale', '__version__']\n"
    )
    assert export_mismatch(source) == (["unlisted"], ["stale"])


def test_the_package_exports_exactly_what_it_imports():
    assert export_mismatch((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == ([], [])


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_noqa_import_is_a_traced_shim(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert untraced_shims(source, f"mixcacc.{module[:-3]}", _wrapped()) == []
