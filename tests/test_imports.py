"""Every module of the package uses each name it imports, only `words`
builds a word from raw segments, the package names each of its
definitions, no verifier searches, and only `nbhd` reads a layer's level
store."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "assgp"
TESTS = Path(__file__).resolve().parent


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


def _names_used(tree: ast.AST) -> Counter:
    """Each name a tree reads, as a bare name, an attribute or inside an
    annotation, with the number of nodes that read it."""
    used = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    used.update(_annotation_names(tree))
    return used


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants, and methods of
    module-level classes, public or private but not dunders, that no source
    names outside their own ``def`` or assignment."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    out = []
    for name, tree in trees.items():
        defs = []  # (defined name, the node that defines it)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend((n.name, n) for n in node.body if isinstance(n, ast.FunctionDef))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.extend(
                    (t.id, node)
                    for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                )
        for defined, node in defs:
            dunder = defined.startswith("__") and defined.endswith("__")
            if not dunder and used[defined] <= _names_used(node)[defined]:
                out.append(f"{name}:{defined}")
    return sorted(out)


def test_checker_finds_unnamed_definitions():
    sources = {
        "a.py": (
            "def f():\n    return f()\nclass K:\n    def m(self):\n        return g\n"
            "    def _p(self):\n        pass\n    def __init__(self):\n        self._q()\n"
            "    def _q(self):\n        pass\n"
        ),
        "b.py": "def g(x: 'K'):\n    return x\ndef h():\n    pass\ndef _r():\n    return _r\n",
        "c.py": "__all__ = ['g']\n_C = 1\nD: int = _C\n_E, F = 2, g(D)\n_G = 3\n",
    }
    assert unnamed_definitions(sources) == [
        "a.py:_p", "a.py:f", "a.py:m", "b.py:_r", "b.py:h", "c.py:F", "c.py:_E", "c.py:_G"
    ]


# Word.segments is how the benchmark and the tests read a word's canonical
# form, which the package itself reads from the slot
UNNAMED_BY_DESIGN = ["words.py:segments"]


def test_every_public_definition_is_named_in_the_package():
    # code that only tests reach is deleted, not kept alive by its tests;
    # private helpers count too
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_definitions(sources) == UNNAMED_BY_DESIGN


def imports_in_functions(source: str) -> list[int]:
    """Lines of ``import`` and ``from … import`` statements inside a
    function body, at any depth."""
    return sorted(
        {
            inner.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        }
    )


def test_checker_finds_imports_in_functions():
    source = (
        "import os\n"
        "class K:\n"
        "    import re\n"
        "    def m(self):\n"
        "        from .words import E\n"
        "def f():\n"
        "    def g():\n"
        "        import random\n"
        "    return os\n"
    )
    assert imports_in_functions(source) == [5, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_sit_in_the_module_import_block(path):
    # no import cycle forces a deferred import: words imports nothing from
    # the package, and each module imports only the ones below it
    assert imports_in_functions(path.read_text()) == []


SEARCHES = ("member", "basis_member", "enumerate")


def searching_verifiers(source: str) -> list[str]:
    """Calls of ``member``, ``basis_member`` or ``enumerate``, bare or as an
    attribute, inside a function named ``verify…`` or ``_verify…`` at any
    depth, as ``function:callee (line)``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith(("verify", "_verify")):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SEARCHES:
                out.add(f"{node.name}:{name} (line {call.lineno})")
    return sorted(out)


def test_checker_finds_searching_verifiers():
    source = (
        "def verify_a(s, w):\n"
        "    return s.member(0, w)\n"
        "def _verify_b(st, ws):\n"
        "    return [st.basis_member(1, w) for _, w in enumerate(ws)]\n"
        "def check(s):\n"
        "    return s.member(0, 1)\n"
        "class K:\n"
        "    def verify(self):\n"
        "        return self.system.enumerate(2)\n"
        "    def verify_rep(self, member):\n"
        "        return member\n"
    )
    assert searching_verifiers(source) == [
        "_verify_b:basis_member (line 4)",
        "_verify_b:enumerate (line 4)",
        "verify:enumerate (line 9)",
        "verify_a:member (line 2)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_verifiers_do_not_search(path):
    # a certificate re-verifies independently of the search that found it
    assert searching_verifiers(path.read_text()) == []


# the attribute that holds a layer's level lists; everything else reads them
# through Nsys.enumerate and Nsys.levels_kept
STORE = "_lists"


def store_reads(source: str) -> list[int]:
    """Lines that name the level store, as an attribute or a bare name."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == STORE)
        or (isinstance(node, ast.Name) and node.id == STORE)
    )


def test_checker_finds_store_reads():
    source = (
        "def f(layer):\n"
        "    return layer._lists\n"
        "_lists = {}\n"
        "g = layer.levels_kept(b)\n"
        "h = '_lists'\n"
        "k = getattr(layer, 'x')._lists.get(1)\n"
    )
    assert store_reads(source) == [2, 3, 6]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")] if p.name != "nbhd.py"),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_nbhd_reads_the_level_store(path):
    assert store_reads(path.read_text()) == []
