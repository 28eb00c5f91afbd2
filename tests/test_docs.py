"""The documentation's code examples import what the package exports:
every ``import repro…`` and ``from repro… import …`` inside a ``python``
code block of the README and ``docs/*.md`` must resolve."""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_IMPORT = re.compile(
    r"^[ \t]*(from repro[\w.]* import \([^)]*\)"
    r"|from repro[\w.]* import [^\n]+"
    r"|import repro[\w., ]*)",
    re.M,
)


def _doc_imports():
    """(doc, module, name) for each imported name; name is None for a
    plain ``import module``."""
    out = []
    for doc in DOCS:
        for block in _BLOCK.finditer(doc.read_text(encoding="utf-8")):
            for stmt in _IMPORT.finditer(block.group(1)):
                node = ast.parse(stmt.group(1).strip()).body[0]
                rel = doc.relative_to(ROOT).as_posix()
                if isinstance(node, ast.ImportFrom):
                    out += [(rel, node.module, a.name) for a in node.names]
                else:
                    out += [(rel, a.name, None) for a in node.names]
    return out


IMPORTS = _doc_imports()


def test_docs_have_examples():
    assert len(IMPORTS) >= 10


@pytest.mark.parametrize(
    ("doc", "module", "name"),
    IMPORTS,
    ids=[f"{d}:{m}.{n}" if n else f"{d}:{m}" for d, m, n in IMPORTS],
)
def test_doc_import_resolves(doc, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        # ``from pkg import submodule`` is an import too.
        importlib.import_module(f"{module}.{name}")
