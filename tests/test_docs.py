"""The documentation's code examples use what the package has: every
``import repro…`` and ``from repro… import …`` inside a ``python`` code
block of the README and ``docs/*.md`` must resolve, and every keyword of
a ``SessionOptions(...)`` call there must be a ``SessionOptions`` field."""

import ast
import dataclasses
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


def _doc_session_keywords():
    """(doc, keyword) for each keyword of a ``SessionOptions(...)`` call."""
    out = []
    for doc in DOCS:
        rel = doc.relative_to(ROOT).as_posix()
        for block in _BLOCK.finditer(doc.read_text(encoding="utf-8")):
            for node in ast.walk(ast.parse(block.group(1))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "SessionOptions":
                    out += [(rel, kw.arg) for kw in node.keywords]
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


def test_doc_session_options_keywords_are_fields():
    from repro.sim import SessionOptions

    fields = {f.name for f in dataclasses.fields(SessionOptions)}
    keywords = _doc_session_keywords()
    assert keywords  # the docs configure a session somewhere
    assert [(doc, kw) for doc, kw in keywords if kw not in fields] == []
