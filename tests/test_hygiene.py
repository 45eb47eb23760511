"""Static hygiene checks on the package source (stdlib ast, no linter needed)."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edimkit"
MODULES = sorted(SRC.glob("*.py"))
# where a definition of the package may be used; the benchmark's tracer
# names functions in strings ("FiniteGroup.fingerprint")
USERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + \
    sorted((ROOT / "bench").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    Names inside string annotations count as read.  Package __init__ files
    re-export, so the caller skips them.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for c in ast.walk(note) if note else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import math\nimport os\nfrom typing import Optional\n"
                   "x: 'Optional[int]' = os.sep\n")
    assert unused_imports(mod) == ["m.py:1: math"]


def imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    return modules | {node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)}


@pytest.mark.parametrize("name", ["chartab.py", "repdim.py"])
def test_tables_use_no_fractions(name):
    # character tables are integer multiplicities; cyclotomic values with
    # fraction coefficients are built only for output
    assert "fractions" not in imported_modules(SRC / name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_pythons_parser(path):
    # polynomials are read by poly's own tokenizer, so the accepted grammar
    # is the documented one, not Python's
    assert "ast" not in imported_modules(path)


def _references(tree: ast.AST) -> Counter:
    """Names read in tree: identifiers, attributes, and the dotted parts of
    string constants that look like qualified names."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and all(p.isidentifier() for p in node.value.split(".")):
            out.update(node.value.split("."))
    return out


def dead_definitions(modules: list[Path], users: list[Path]) -> list[str]:
    """Functions and classes (dunders aside) of modules that no file of users
    refers to, not counting a definition's references to itself."""
    refs: Counter = Counter()
    for path in users:
        refs += _references(ast.parse(path.read_text(), filename=str(path)))
    dead = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] - _references(node)[name] <= 0:
                dead.append(f"{path.name}:{node.lineno}: {name}")
    return dead


def test_no_dead_definitions():
    assert dead_definitions(MODULES, USERS) == []


def test_checker_flags_a_dead_definition(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("class CentralCharacter:\n    def key(self):\n        return 1\n\n"
                   "def walk(n):\n    return walk(n - 1) if n else 0\n\n"
                   "def used():\n    return 2\n")
    user = tmp_path / "user.py"
    user.write_text("from m import used, walk\n"
                    "SPANS = [('m', 'm', 'Other.key')]\nused()\n")
    assert dead_definitions([mod], [mod, user]) == [
        "m.py:1: CentralCharacter", "m.py:5: walk"]
