"""Static hygiene checks on the package source (stdlib ast, no linter needed)."""

import ast
from collections import Counter
from pathlib import Path
from typing import Optional

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


def _class_table(trees: list[ast.AST]) -> dict[str, tuple[list[str], set[str]]]:
    """Class name -> (names of its bases, names of its methods)."""
    out: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                out[node.name] = (
                    [b.id for b in node.bases if isinstance(b, ast.Name)],
                    {f.name for f in node.body
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))})
    return out


def _qualified_references(tree: ast.AST, classes: dict) -> Counter:
    """References "C.m" resolved to a class: self.m and cls.m inside the
    methods of class C, C.m, and C.m inside string constants.  m resolves to
    the first class defining it along C and its bases (by name).  A method's
    references to itself are not counted."""
    def resolve(cls: str, name: str) -> Optional[str]:
        todo, seen = [cls], set()
        while todo:
            c = todo.pop(0)
            if c in classes and c not in seen:
                seen.add(c)
                bases, methods = classes[c]
                if name in methods:
                    return f"{c}.{name}"
                todo += bases
        return None

    out: Counter = Counter()

    def visit(node: ast.AST, cls: Optional[str], owner: Optional[str]) -> None:
        found: list = []
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("self", "cls") and cls is not None:
                found.append(resolve(cls, node.attr))
            else:
                found.append(resolve(node.value.id, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and all(p.isidentifier() for p in node.value.split(".")):
            parts = node.value.split(".")
            found += [resolve(a, b) for a, b in zip(parts, parts[1:])]
        out.update(q for q in found if q is not None and q != owner)
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef):
                method = f"{node.name}.{child.name}" if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
                visit(child, node.name, method)
            else:
                visit(child, cls, owner)

    visit(tree, None, None)
    return out


def dead_definitions(modules: list[Path], users: list[Path],
                     allowed: frozenset = frozenset()) -> list[str]:
    """Functions and classes (dunders aside) of modules that no file of users
    refers to, not counting a definition's references to itself.  A method
    whose name several classes of modules define must also be reached by a
    reference resolved to its own class (see `_qualified_references`),
    unless its qualified name is in allowed."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in set(modules) | set(users)}
    classes = _class_table([trees[p] for p in modules])
    owners = Counter(m for _, methods in classes.values() for m in methods)
    refs: Counter = Counter()
    qualified: Counter = Counter()
    for path in users:
        refs += _references(trees[path])
        qualified += _qualified_references(trees[path], classes)
    dead = []
    for path in modules:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) or _dunder(node.name):
                continue
            if refs[node.name] - _references(node)[node.name] <= 0:
                dead.append((path.name, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                dead += [(path.name, m.lineno, f"{node.name}.{m.name}")
                         for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not _dunder(m.name) and owners[m.name] > 1
                         and f"{node.name}.{m.name}" not in allowed
                         and qualified[f"{node.name}.{m.name}"] == 0]
    return [f"{name}:{line}: {what}" for name, line, what in sorted(dead)]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


# methods that several classes define and that are reached only as obj.m,
# through an object whose class the checker cannot see
DUCK_TYPED = frozenset({
    # every group backend answers mul
    "TableBackend.mul", "PermBackend.mul", "PairBackend.mul",
    "QuotientBackend.mul",
    # groups and subgroups both answer is_abelian
    "FiniteGroup.is_abelian", "Subgroup.is_abelian",
    # the CLI's payloads
    "EdimResult.as_dict", "RdimWitness.as_dict",
    # a G-module's order and vector arithmetic
    "GModule.order", "GModule.zero", "GModule.add",
    # a map's denominator
    "Polynomial.is_zero",
})


def test_no_dead_definitions():
    assert dead_definitions(MODULES, USERS, DUCK_TYPED) == []


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


def test_checker_resolves_a_method_name_that_two_classes_share(tmp_path):
    # Right.twice's self.key is Right.key, so nothing reaches Left.key
    mod = tmp_path / "m.py"
    mod.write_text("class Left:\n    def key(self):\n        return 1\n\n"
                   "class Right:\n    def key(self):\n        return 2\n\n"
                   "    def twice(self):\n        return self.key() * 2\n")
    user = tmp_path / "user.py"
    user.write_text("from m import Left, Right\nRight().twice()\nLeft()\n")
    assert dead_definitions([mod], [mod, user]) == ["m.py:2: Left.key"]
    assert dead_definitions([mod], [mod, user], frozenset({"Left.key"})) == []
    for use in ("Left.key(Left())", "SPANS = [('m', 'm', 'Left.key')]"):
        user.write_text(f"from m import Left, Right\nRight().twice()\n{use}\n")
        assert dead_definitions([mod], [mod, user]) == []
