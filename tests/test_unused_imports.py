"""Every module-level import in the package is used: the unused-import rule
(pyflakes' F401) as a test, with no linter needed.

An import kept for another module's sake, such as a name re-exported or one
bound for the layer tracer, carries ``# noqa: F401`` on one of its lines.
The package's ``__init__.py`` imports only to re-export: its imports and its
``__all__`` must name the same things.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mixcacc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NOQA_F401 = re.compile(r"#\s*noqa:[A-Z0-9,\s]*\bF401\b")


def unused_imports(source: str) -> list[str]:
    """Names the module-level imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(NOQA_F401.search(line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [name for alias in node.names
                   if (name := alias.asname or alias.name.split(".")[0]) not in used]
    return unused


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
