"""Every module of the package uses each name it imports, and only `words`
builds a word from raw segments."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "assgp"


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside annotations, including quoted forward references."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _annotation_names(ast.parse(f"x: {node.value}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional, Iterator\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    sys.exit(x)\n"
    )
    assert unused_imports(source) == ["Iterator (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def word_constructor_calls(source: str) -> list[int]:
    """Lines that call ``Word(...)``, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "Word")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Word")
        )
    )


def test_checker_finds_word_constructor_calls():
    source = "from .words import Word\nimport assgp.words as wd\nx = Word(())\ny = wd.Word(((1,),))\nz: Word\n"
    assert word_constructor_calls(source) == [3, 4]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "words.py"), ids=lambda p: p.name
)
def test_only_words_builds_a_word_from_segments(path):
    # a Word's segments must be canonical, which only words.py guarantees
    assert word_constructor_calls(path.read_text()) == []
