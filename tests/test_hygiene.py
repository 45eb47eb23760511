"""Static hygiene checks on the package source (stdlib ast, no linter needed)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "edimkit"
MODULES = sorted(SRC.glob("*.py"))


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


@pytest.mark.parametrize("name", ["chartab.py", "repdim.py"])
def test_tables_use_no_fractions(name):
    # character tables are integer multiplicities; cyclotomic values with
    # fraction coefficients are built only for output
    tree = ast.parse((SRC / name).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in modules
